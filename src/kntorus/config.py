"""Torus geometry configuration and the lattice arithmetic shared by every module.

The lattice reduction and the distances to the lattice and to the
punctures are taken over arrays alone, a single point as a one-entry array.

Where a Python definition pins a complex array bit for bit, its products
and moduli round here alone: complex_multiply and complex_abs round as
Python's complex * and abs, which numpy's may not.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

# no function is evaluated this close to a lattice point or a puncture
EXCLUSION_RADIUS = 1e-4

# entries of every per-configuration lru_cache: one `verify all` touches
# five configurations (the given one, its two-point limit and the three
# q of the degeneration check), so a bound of 8 keeps a run's misses to one
# per configuration while a process that runs many geometries keeps few
CONFIG_CACHE_SIZE = 8

# the largest Im t, t of reduced_basis, that the nome sum evaluates: at a
# reduced point |u| <= exp(pi Im t), and the kernel of wp' cubes 1 - u,
# which overflows at the cell's edge from ln(max float) / (3 pi) = 75.31 on
MAX_IM_T = 75.0


@dataclass(frozen=True)
class TorusConfig:
    """Fixes the lattice Z + tau*Z, the puncture offset q and the level-line target tol.

    The three punctures are 0 and 1/2 +- q (mod the lattice).  q = 0, stored as
    0j whatever the signs of its zeros, is the two-point torus: the q -> 0 end
    of the degeneration, where both out-punctures merge at 1/2.  Any other q
    must stay farther than EXCLUSION_RADIUS from 0, 1/2, tau/2 and (1+tau)/2
    mod the lattice, and the lattice must have Im t <= MAX_IM_T.
    tol, in (0, 1e-4], is read only by propagation.level_line_samples.
    """

    tau: complex
    q: complex = 0j
    tol: float = 1e-10

    def __post_init__(self):
        tau, q = complex(self.tau), complex(self.q)
        for name, value in (("tau", tau), ("q", q)):
            if not cmath.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if tau.imag <= 0:
            raise ValueError(f"tau must lie in the upper half plane, got {tau}")
        # an even shift of Re tau keeps the lattice, the punctures and the
        # half-period labels (an odd one would swap e2 and e3), and keeps
        # (1 + tau)/2 apart from tau/2 however large Re tau is
        object.__setattr__(self, "tau", tau - 2 * round(tau.real / 2))
        t = reduced_basis(self.tau)[1]
        if t.imag > MAX_IM_T:
            raise ValueError(
                f"tau={tau}: the reduced period ratio t has Im t = {t.imag:.6g} > "
                f"{MAX_IM_T:g}; the series for wp' overflows from Im t = 75.31 on"
            )
        object.__setattr__(self, "q", 0j if q == 0 else q)
        if not (0 < self.tol <= 1e-4):
            raise ValueError(f"tol must lie in (0, 1e-4], got {self.tol}")
        if not self.two_point:
            bases = (0j, 0.5 + 0j, 0.5 * self.tau, 0.5 + 0.5 * self.tau)
            for base, d in zip(bases, lattice_distance(self.q - np.array(bases), self.tau).tolist()):
                if d <= EXCLUSION_RADIUS:
                    raise ValueError(
                        f"q={self.q} is within {EXCLUSION_RADIUS} of {base} mod the "
                        "lattice; q = 0 gives the two-point torus"
                    )

    @property
    def two_point(self) -> bool:
        """True at q = 0, where the out-punctures merge at 1/2."""
        return self.q == 0

    def punctures(self) -> tuple[complex, ...]:
        """Distinct marked points; (0, 1/2+q, 1/2-q), or (0, 1/2) at q = 0."""
        if self.two_point:
            return (0j, 0.5 + 0j)
        return (0j, 0.5 + self.q, 0.5 - self.q)

    def two_point_limit(self) -> TorusConfig:
        """This lattice with both out-punctures merged at 1/2 (q = 0)."""
        return replace(self, q=0j)


@lru_cache(maxsize=CONFIG_CACHE_SIZE)
def reduced_basis(tau: complex) -> tuple[complex, complex]:
    """(w1, t) with Z + tau*Z = w1*(Z + t*Z) and t in the fundamental domain.

    Lagrange-Gauss reduction makes w1 a shortest period; t = w2/w1 is then
    oriented to Im t > 0, with |Re t| <= 1/2 and |t| >= 1.  When tau already
    lies in the fundamental domain the basis is exactly (1, tau).  |w1|
    falls strictly at every swap, so the loop ends in floating point too.
    """
    w1, w2 = (tau, 1 + 0j) if abs(tau) < 1 else (1 + 0j, tau)
    while True:
        w2 -= round((w2 / w1).real) * w1
        if abs(w2) >= abs(w1):
            break
        w1, w2 = w2, w1
    t = w2 if w1 == 1.0 else w2 / w1
    return w1, t if t.imag > 0 else -t


def complex_product(ar, ai, br, bi):
    """(re, im) of (ar + i ai) * (br + i bi), rounded as Python's complex
    product: separate real multiplies, so no fused multiply-add (numpy's
    complex multiply may fuse and differ in the last bit)."""
    return ar * br - ai * bi, ar * bi + ai * br


def complex_array(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex array with exactly the parts re and im, of one shape."""
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z


def complex_multiply(x, y) -> np.ndarray:
    """x * y entry by entry, rounded as Python's complex product; either
    factor may be a Python complex, and the arrays broadcast."""
    return complex_array(*complex_product(x.real, x.imag, y.real, y.imag))


def complex_abs(x: np.ndarray) -> np.ndarray:
    """abs of every entry of a complex array as abs(complex) rounds it:
    np.hypot of the parts is the C library hypot that abs(complex) calls."""
    return np.hypot(x.real, x.imag)


def _reduced_parts(z: np.ndarray, tau: complex) -> tuple[np.ndarray, np.ndarray]:
    # (re, im) of z reduced mod the lattice to a*w1 + b*w1*t with a, b in
    # [-1/2, 1/2), by real operations only
    w1, t = reduced_basis(tau)
    x, y = z.real, z.imag
    if w1 != 1.0:
        c = 1 / w1
        x, y = complex_product(x, y, c.real, c.imag)
    b = y / t.imag
    a = x - b * t.real
    a -= np.floor(a + 0.5)
    b -= np.floor(b + 0.5)
    x, y = a + b * t.real, b * t.imag
    if w1 != 1.0:
        x, y = complex_product(x, y, w1.real, w1.imag)
    return x, y


def reduce_mod_lattice_array(z: np.ndarray, tau: complex) -> np.ndarray:
    """Every entry of a complex array mod Z + tau*Z, as a*w1 + b*w1*t with a, b
    in [-1/2, 1/2), (w1, t) = reduced_basis(tau)."""
    return complex_array(*_reduced_parts(z, tau))


def distance_to_points_array(z: np.ndarray, points: tuple[complex, ...], tau: complex) -> np.ndarray:
    """min |reduce_mod_lattice_array(z - s)| over the points at every entry of
    a complex array: one reduction per point.

    The reduced cell keeps sqrt(3)/4 * |w1| from every nonzero lattice
    point, so the value is exact below ~0.43 * |w1|, far above any
    exclusion radius it is compared with.  The modulus is complex_abs's,
    taken on the reduced parts before they are assembled.
    """
    return np.minimum.reduce([np.hypot(*_reduced_parts(z - s, tau)) for s in points])


def lattice_distance(z, tau: complex):
    """Exact distance from z to the nearest point of Z + tau*Z, for any tau.

    z is a complex, giving a float, or a complex array, giving an array of
    its shape.  In the reduced basis the nearest lattice point is a corner
    of the cell holding the reduced point, so the 3x3 neighbours of the
    cell suffice.
    """
    w1, t = reduced_basis(tau)
    zr, w2 = reduce_mod_lattice_array(np.asarray(z, dtype=complex), tau), w1 * t
    return np.min([np.abs(zr + da * w1 + db * w2) for da in (-1.0, 0.0, 1.0) for db in (-1.0, 0.0, 1.0)], axis=0)
