"""Meromorphic function basis adapted to the punctures.

Even labels are integer powers of the pole factor, odd labels carry one
factor of the propagation differential:

    A_n = (wp - p)**(-n/2)          n even,
    A_a = w * (wp - p)**(-(a+1)/2)  a odd,  w = omega_hat.

Products satisfy A_i*A_j = A_{i+j} whenever at least one label is even;
the odd-odd product expands through the four scalars lam4..lam7, which are
the Taylor coefficients at X = p of the cubic (X-e1)(X-e2)(X-e3) appearing
in the Weierstrass equation.  Those four scalars determine the whole Lie
algebra and its cocycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .config import TorusConfig
from .elliptic import half_period_values, wp_pair, wp_second
from .errors import NonIntegerWindingError
from .propagation import check_away_from_punctures, puncture_set
from .quadrature import contour_residue


@dataclass(frozen=True)
class AlgebraParams:
    """The four scalars that encode all structure constants.

    provenance is "derived" when computed from a torus configuration and
    "formal" for hand-injected values (degeneration studies).  Derived
    values satisfy lam4 = 1, lam5 = 3p, lam6 = 3p^2 - (e2^2+e2*e3+e3^2),
    lam7 = (1/4) wp'(1/2+q)^2 with p = wp(1/2+q).
    """

    lam4: complex
    lam5: complex
    lam6: complex
    lam7: complex
    provenance: str = "derived"

    def as_tuple(self) -> tuple[complex, complex, complex, complex]:
        return (self.lam4, self.lam5, self.lam6, self.lam7)

    def scale(self) -> float:
        return max(1.0, *(abs(v) for v in self.as_tuple()))

    def to_json_dict(self) -> dict:
        """lam4..lam7 as [re, im] pairs plus the provenance."""
        return {
            "lam4": [self.lam4.real, self.lam4.imag],
            "lam5": [self.lam5.real, self.lam5.imag],
            "lam6": [self.lam6.real, self.lam6.imag],
            "lam7": [self.lam7.real, self.lam7.imag],
            "provenance": self.provenance,
        }


WITT_PARAMS = AlgebraParams(1.0, 0j, 0j, 0j, provenance="formal")


def formal_params(lam5: complex = 0j, lam6: complex = 0j, lam7: complex = 0j) -> AlgebraParams:
    """Formal parameter set with the normalization lam4 = 1.

    lam4 is pinned to 1: the bracket pattern satisfies the Jacobi identity
    as a polynomial identity only on the slice lam4 in {0, 1}, and every
    derived configuration has lam4 = 1.
    """
    return AlgebraParams(1.0, lam5, lam6, lam7, provenance="formal")


def _pole_factor(z: complex, cfg: TorusConfig) -> tuple[complex, complex]:
    """(wp(z) - p, wp'(z)) with puncture exclusion applied."""
    check_away_from_punctures(z, cfg)
    p, dp = wp_pair(z, cfg)
    return p - puncture_set(cfg).p_q, dp


def monomial(k: int, base: complex, w: complex) -> complex:
    """A_k from the pole factor base = wp - p and the differential scalar w."""
    if k % 2 == 0:
        return base ** (-k // 2)
    return w * base ** (-(k + 1) // 2)


def basis_value(k: int, z: complex, cfg: TorusConfig) -> complex:
    """Evaluate the basis function with label k at z."""
    base, dp = _pole_factor(z, cfg)
    return monomial(k, base, -0.5 * dp / base)


def basis_derivative(k: int, z: complex, cfg: TorusConfig) -> complex:
    """d/dz of the basis function with label k at z.

    Even n: n * w * A_n.  Odd a: w' * A_{a+1} + (a+1) * w^2 * A_{a+1},
    with w' evaluated in closed form from wp, wp', wp''.
    """
    base, dp = _pole_factor(z, cfg)
    w = -0.5 * dp / base
    if k % 2 == 0:
        return k * w * monomial(k, base, w)
    ddp = wp_second(z, cfg)
    w_prime = -0.5 * (ddp * base - dp * dp) / (base * base)
    return (w_prime + (k + 1) * w * w) * monomial(k + 1, base, w)


def order_triple(k: int) -> tuple[int, int, int]:
    """Vanishing orders of the basis function at (0, 1/2+q, 1/2-q)."""
    m = out_puncture_order(k)
    return (k, m, m)


def out_puncture_order(k: int, two_point: bool = False) -> int:
    """Vanishing order of the basis function at one out-puncture.

    The order at the in-point 0 is k itself.  In two-point mode the
    out-punctures merge: the pole factor acquires a double zero there while
    the differential keeps a simple pole, so the merged orders are -k (even)
    and -k-2 (odd).
    """
    if two_point:
        return -k if k % 2 == 0 else -k - 2
    return -k // 2 if k % 2 == 0 else (-k - 3) // 2


def winding_order(
    k: int, center: complex, radius: float, cfg: TorusConfig, nodes: int = 256
) -> int:
    """Argument-principle order of basis function k inside the given circle.

    Integrates A_k'/A_k and rounds; raises NonIntegerWindingError when the
    quadrature is further than 1e-3 from an integer (bad contour or
    precision loss).
    """

    def logderiv(z: complex) -> complex:
        return basis_derivative(k, z, cfg) / basis_value(k, z, cfg)

    val = contour_residue(logderiv, center, radius, nodes)
    nearest = round(val.real)
    if abs(val - nearest) > 1e-3:
        raise NonIntegerWindingError(
            f"winding quadrature {val} for k={k} around {center} is not close to an integer"
        )
    return int(nearest)


@lru_cache(maxsize=None)
def lambda_coefficients(cfg: TorusConfig) -> AlgebraParams:
    """Derive lam4..lam7 from the torus geometry.

    They are the coefficients of the expansion of the Weierstrass cubic
    P(X) = (X-e1)(X-e2)(X-e3) around X = p = wp(1/2+q):

        lam4 = 1, lam5 = P''(p)/2 = 3p,
        lam6 = P'(p) = 3p^2 - (e2^2 + e2*e3 + e3^2),
        lam7 = P(p)  = (1/4) wp'(1/2+q)^2.

    In two-point mode p = e1 exactly, so lam7 = 0 and
    lam6 = (e1-e2)(e1-e3).
    """
    hp = half_period_values(cfg)
    p = puncture_set(cfg).p_q
    lam5 = 3.0 * p
    lam6 = 3.0 * p * p - (hp.e2 * hp.e2 + hp.e2 * hp.e3 + hp.e3 * hp.e3)
    if cfg.two_point:
        lam7 = 0j
    else:
        lam7 = (p - hp.e1) * (p - hp.e2) * (p - hp.e3)
    return AlgebraParams(1.0, lam5, lam6, lam7, provenance="derived")
