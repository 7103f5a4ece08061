"""Exception types raised by the numerical routines."""


class KNTorusError(Exception):
    """Base class for all package-specific errors."""


class PoleProximityError(KNTorusError):
    """Evaluation point is inside the exclusion disk of a pole/puncture."""


class BadContourError(KNTorusError):
    """Integration contour violates its enclosed-singularity precondition."""


class PoleOnPathError(KNTorusError):
    """An integration segment passes too close to a pole."""


class DegenerateModuliError(KNTorusError):
    """A moduli expression degenerates: a division by a vanishing difference,
    or half-period values whose sum e1 + e2 + e3 does not vanish."""


class NonIntegerWindingError(KNTorusError):
    """A winding-number quadrature did not land near an integer."""


class BisectionError(KNTorusError):
    """A bracketed root search ended without meeting its tolerance."""


class QuadratureError(KNTorusError):
    """A quadrature ended without meeting its tolerance.

    ``estimate`` holds the last, unconverged value, for reports that show
    how far off it was.
    """

    def __init__(self, message: str, estimate: complex):
        super().__init__(message)
        self.estimate = estimate


class WindowViolationError(KNTorusError):
    """A finiteness window for an operator sum was too small; must never fire."""
