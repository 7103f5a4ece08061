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

Every A_k and its derivative are monomials in the frame of a point,
(base, w, w') with base = wp - p: ``frame_array`` computes it at every
entry of an array (one puncture check, one elliptic.pole_factor_array
call, which forms base), so a point costs one elliptic evaluation
however many labels are read from it, and ``basis_value`` reads one
point as a one-entry array.  ``monomial`` and ``monomial_derivative``
work entry by entry on arrays, and ``require_finite`` is the one rule
for a read value that is not finite (a power of a vanishing wp - p),
shared by verify basis and the bracket oracle.  ``puncture_circles``
caches the frame on each puncture's quadrature circle, once per
configuration.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import (
    CONFIG_CACHE_SIZE,
    EXCLUSION_RADIUS,
    TorusConfig,
    distance_to_points_array,
    lattice_distance,
    reduced_basis,
)
from .elliptic import half_period_values, pole_factor_array
from .errors import BadContourError, DegenerateModuliError, NonIntegerWindingError, PoleProximityError
from .quadrature import circle_nodes, contour_residue

# a puncture circle's radius, as a fraction of the distance from the
# puncture to the nearest other special point (see puncture_circles)
CIRCLE_FRACTION = 0.45

# trapezoid nodes on every puncture circle
CIRCLE_NODES = 512


@dataclass(frozen=True)
class AlgebraParams:
    """The four scalars that encode all structure constants.

    provenance is "derived" when computed from a pole parameter p on a
    lattice (params_from_differences) and "formal" for hand-injected values.
    Derived values are the Taylor coefficients at p of the cubic P(X) =
    (X-e1)(X-e2)(X-e3), with lam7 = (1/4) wp'(1/2+q)^2 at p = wp(1/2+q).
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


WITT_PARAMS = AlgebraParams(1.0, 0j, 0j, 0j, provenance="formal")


def formal_params(lam5: complex = 0j, lam6: complex = 0j, lam7: complex = 0j) -> AlgebraParams:
    """Formal parameter set with the normalization lam4 = 1.

    lam4 is pinned to 1: the bracket pattern satisfies the Jacobi identity
    as a polynomial identity only on the slice lam4 in {0, 1}, and every
    derived configuration has lam4 = 1.  Raises ValueError, naming the
    scalar, when one is not finite.
    """
    for name, value in (("lam5", lam5), ("lam6", lam6), ("lam7", lam7)):
        if not cmath.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    return AlgebraParams(1.0, lam5, lam6, lam7, provenance="formal")


@dataclass(frozen=True, eq=False)
class PunctureCircle:
    """A puncture's quadrature circle: its CIRCLE_NODES circle_nodes and the
    frame (base, w, w_prime) at them, as arrays that every caller shares."""

    center: complex
    radius: float
    nodes: np.ndarray
    base: np.ndarray
    w: np.ndarray
    w_prime: np.ndarray

    def __post_init__(self) -> None:
        for a in (self.nodes, self.base, self.w, self.w_prime):
            a.flags.writeable = False


@lru_cache(maxsize=CONFIG_CACHE_SIZE)
def puncture_circles(cfg: TorusConfig) -> tuple[PunctureCircle, ...]:
    """The PunctureCircle of each puncture, in cfg.punctures() order: the one
    circle and the one frame_array evaluation that winding orders, residues
    and the pairing all sum over.

    The radius is CIRCLE_FRACTION of the exact lattice distance to the
    nearest other special point: the other punctures, the half periods (the
    zeros of wp', hence of w and of every odd A_k) and the puncture's own
    lattice translates.  So each circle encloses its puncture and no other
    pole or zero of any A_k, w or w'/w.  Raises BadContourError, naming q,
    before any node is evaluated, when a radius does not clear twice the
    exclusion radius; and, naming q and tau, when a frame is not finite (on
    a thin lattice wp - p can come too close to 0 at a node).
    """
    tau, punctures = cfg.tau, cfg.punctures()
    period = abs(reduced_basis(tau)[0])  # the shortest period
    # row i: from puncture i to each half period, then to each puncture; a 0 is puncture i itself
    rows = lattice_distance(np.subtract.outer(punctures, (*cfg.half_periods(), *punctures)), tau).tolist()
    radii = []
    for s, row in zip(punctures, rows):
        radius = CIRCLE_FRACTION * min(period, *[d for d in row if d > 0])
        if radius <= 2.0 * EXCLUSION_RADIUS:
            raise BadContourError(
                f"q={cfg.q}: the circle around the puncture {s} would have radius "
                f"{radius:.3g}, within twice the exclusion radius {EXCLUSION_RADIUS}"
            )
        radii.append(radius)
    circles = []
    for s, radius in zip(punctures, radii):
        nodes = circle_nodes(s, radius, CIRCLE_NODES)
        with np.errstate(all="ignore"):
            arrays = frame_array(nodes, cfg)
        if not all(np.isfinite(a).all() for a in arrays):
            raise BadContourError(
                f"q={cfg.q}, tau={cfg.tau}: the frame on the circle around the "
                f"puncture {s} is not finite (wp - p is too close to 0 at a node)"
            )
        circles.append(PunctureCircle(s, radius, nodes, *arrays))
    return tuple(circles)


def puncture_circle(s: complex, cfg: TorusConfig) -> PunctureCircle:
    """The puncture_circles record of the puncture s."""
    for circle in puncture_circles(cfg):
        if circle.center == s:
            return circle
    raise ValueError(f"{s} is not a puncture of {cfg}; the punctures are {cfg.punctures()}")


def check_away_from_punctures(z: np.ndarray, cfg: TorusConfig) -> None:
    """Raise PoleProximityError, naming the first such entry, when an entry
    of the complex array z lies inside a puncture exclusion disk."""
    inside = z[distance_to_points_array(z, cfg.punctures(), cfg.tau) <= EXCLUSION_RADIUS]
    if inside.size:
        raise PoleProximityError(f"z={complex(inside[0])} is inside a puncture exclusion disk")


def frame_array(z: np.ndarray, cfg: TorusConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(base, w, w') at every entry of a complex array from one
    pole_factor_array call: base = wp(z) - p, w = -(1/2) wp'(z)/base and w',
    whose wp'' = 6 wp^2 - g2/2 comes from the same wp.

    Raises PoleProximityError, naming the first such entry, when any entry
    lies inside a puncture exclusion disk.
    """
    check_away_from_punctures(z, cfg)
    base, p, dp = pole_factor_array(z, cfg, prime=True)
    w = -0.5 * dp / base
    ddp = 6.0 * p * p - 0.5 * half_period_values(cfg).g2
    w_prime = -0.5 * (ddp * base - dp * dp) / (base * base)
    return base, w, w_prime


def monomial(k: int, base, w):
    """A_k from the pole factor base = wp - p and the differential scalar w,
    entry by entry over arrays (a point is a one-entry array).

    On a thin lattice wp - p can come within 1e-52 of 0 at a sample point,
    so that a power vanishes or overflows and an entry is not finite; a
    caller passes the entries it reads to require_finite.
    """
    if k % 2 == 0:
        return base ** (-k // 2)
    return w * base ** (-(k + 1) // 2)


def monomial_derivative(k: int, base, w, w_prime):
    """d/dz A_k from the frame: n * w * A_n for even n, and
    (w' + (a+1) * w^2) * A_{a+1} for odd a."""
    if k % 2 == 0:
        return k * w * monomial(k, base, w)
    return (w_prime + (k + 1) * w * w) * monomial(k + 1, base, w)


def require_finite(*reads: tuple) -> None:
    """Raise DegenerateModuliError, naming the least such label, when a value
    that a check reads is not finite.

    Each read is (labels, values): values of A_k or A_k' and the label k of
    each entry, an array or a number that broadcasts to their shape.
    """
    degenerate = np.concatenate([np.broadcast_to(k, v.shape)[~np.isfinite(v)] for k, v in reads])
    if degenerate.size:
        label = degenerate.min()
        raise DegenerateModuliError(
            f"wp - p vanished or overflowed for label k={label}: A_{label} is not finite at a sample point"
        )


def basis_value(k: int, z: complex, cfg: TorusConfig) -> complex:
    """Evaluate the basis function with label k at z (a one-entry frame_array)."""
    return monomial(k, *frame_array(np.array([z], dtype=complex), cfg)[:2]).item()


def basis_derivative(k: int, z: complex, cfg: TorusConfig) -> complex:
    """d/dz of the basis function with label k at z (a one-entry frame_array)."""
    return monomial_derivative(k, *frame_array(np.array([z], dtype=complex), cfg)).item()


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


def winding_order(cfg: TorusConfig, window: int) -> np.ndarray:
    """Argument-principle orders of A_k, k in [-window, window], as an int
    array: the order at cfg.punctures()[i] at [i, k + window].

    Sums the log-derivative A_k'/A_k, k*w for even k and w'/w + (k+1)*w for
    odd k, over each puncture circle's cached frame in one stacked
    contour_residue, and rounds; raises NonIntegerWindingError, naming the
    first (k, puncture) in label order whose sum is further than 1e-3 from
    an integer, or not finite.
    """
    labels = range(-window, window + 1)
    residues = []
    for c in puncture_circles(cfg):
        logderiv = np.array([k * c.w if k % 2 == 0 else c.w_prime / c.w + (k + 1) * c.w for k in labels])
        residues.append(contour_residue(logderiv, c.nodes, c.center).tolist())
    for k, column in zip(labels, zip(*residues)):
        for s, val in zip(cfg.punctures(), column):
            if not (cmath.isfinite(val) and abs(val - round(val.real)) <= 1e-3):
                raise NonIntegerWindingError(
                    f"winding quadrature {val} for k={k} around {s} is not close to an integer"
                )
    return np.rint(np.real(residues)).astype(int)


def params_from_differences(p: complex, d: tuple[complex, complex, complex]) -> AlgebraParams:
    """lam4..lam7 at the pole parameter p from its differences d_k = p - e_k:
    the coefficients of P(X) = (X-e1)(X-e2)(X-e3) expanded around X = p,

        lam4 = 1, lam5 = P''(p)/2 = 3p,
        lam6 = P'(p) = d1*d2 + d1*d3 + d2*d3,
        lam7 = P(p)  = d1*d2*d3, 0j where d1 is exactly 0 (p = e1; a product
                       with it can carry a signed zero),

    which do not cancel where p is large against the d_k, as 3p^2 - (e2^2 +
    e2*e3 + e3^2) does on a thin lattice.
    """
    d1, d2, d3 = d
    return AlgebraParams(1.0, 3.0 * p, d1 * d2 + d1 * d3 + d2 * d3, 0j if d1 == 0 else d1 * d2 * d3, "derived")


@lru_cache(maxsize=CONFIG_CACHE_SIZE)
def lambda_coefficients(cfg: TorusConfig) -> AlgebraParams:
    """params_from_differences at this torus's p = wp(1/2+q); p = e1 exactly at q = 0, so lam7 = 0j."""
    hp = half_period_values(cfg)
    return params_from_differences(hp.p, hp.differences(hp.p))
