"""Torus geometry configuration and the lattice arithmetic shared by every module."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

# no function is evaluated this close to a lattice point or a puncture
EXCLUSION_RADIUS = 1e-4

# entries of every per-configuration lru_cache: one `verify all` touches
# five configurations (the given one, its two-point limit and the three
# q of the degeneration check), so a bound of 8 keeps a run's misses to one
# per configuration while a process that runs many geometries keeps few
CONFIG_CACHE_SIZE = 8


@dataclass(frozen=True)
class TorusConfig:
    """Fixes the lattice Z + tau*Z, the puncture offset q and the tolerance.

    The three punctures are 0 and 1/2 +- q (mod the lattice).  ``two_point``
    selects the degenerate configuration where both out-punctures coincide
    at 1/2; it is an explicit mode, not a numerical limit, and forces q = 0.
    q must stay farther than EXCLUSION_RADIUS from 0 and 1/2 mod the lattice.
    """

    tau: complex
    q: complex = 0j
    tol: float = 1e-10
    two_point: bool = False

    def __post_init__(self):
        tau = complex(self.tau)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "q", 0j if self.two_point else complex(self.q))
        for name, value in (("tau", tau), ("q", self.q)):
            if not cmath.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if tau.imag <= 0:
            raise ValueError(f"tau must lie in the upper half plane, got {tau}")
        if not (0 < self.tol):
            raise ValueError(f"tol must be positive, got {self.tol}")
        if not self.two_point:
            for base in (0j, 0.5 + 0j):
                d = lattice_distance(self.q - base, tau)
                if d <= EXCLUSION_RADIUS:
                    raise ValueError(
                        f"q={self.q} is within {EXCLUSION_RADIUS} of "
                        f"{base} mod the lattice; use two_point=True for the "
                        "degenerate configuration"
                    )

    def punctures(self) -> tuple[complex, ...]:
        """Distinct marked points; (0, 1/2+q, 1/2-q) or (0, 1/2) degenerate."""
        if self.two_point:
            return (0j, 0.5 + 0j)
        return (0j, 0.5 + self.q, 0.5 - self.q)

    def distance_to_punctures(self, z: complex) -> float:
        """Distance from z to the nearest puncture mod the lattice (see distance_to_points)."""
        return distance_to_points(z, self.punctures(), self.tau)


def reduce_mod_lattice(z: complex, tau: complex) -> complex:
    """Reduce z mod Z + tau*Z to a + b*tau with a, b in [-1/2, 1/2)."""
    b = z.imag / tau.imag
    a = z.real - b * tau.real
    a -= math.floor(a + 0.5)
    b -= math.floor(b + 0.5)
    return complex(a + b * tau.real, b * tau.imag)


def _reduced_parts(z: np.ndarray, tau: complex) -> tuple[np.ndarray, np.ndarray]:
    # reduce_mod_lattice's float operations, entry by entry
    b = z.imag / tau.imag
    a = z.real - b * tau.real
    a -= np.floor(a + 0.5)
    b -= np.floor(b + 0.5)
    return a + b * tau.real, b * tau.imag


def reduce_mod_lattice_array(z: np.ndarray, tau: complex) -> np.ndarray:
    """reduce_mod_lattice of every entry of a complex array, bit for bit."""
    re, im = _reduced_parts(z, tau)
    out = np.empty(z.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def distance_to_points(z: complex, points: tuple[complex, ...], tau: complex) -> float:
    """min |reduce_mod_lattice(z - s)| over the points: one reduction each.

    With tau in the fundamental domain the reduced cell keeps sqrt(3)/4 from
    every nonzero lattice point, so the value is exact below ~0.43, far
    above any exclusion radius it is compared with.
    """
    return min(abs(reduce_mod_lattice(z - s, tau)) for s in points)


def distance_to_points_array(z: np.ndarray, points: tuple[complex, ...], tau: complex) -> np.ndarray:
    """distance_to_points of every entry of a complex array, bit for bit.

    np.hypot is the C library hypot that abs(complex) calls; np.abs of a
    complex array rounds differently in about a third of the entries.
    """
    return np.minimum.reduce([np.hypot(*_reduced_parts(z - s, tau)) for s in points])


def _reduced_basis(tau: complex) -> tuple[complex, complex]:
    """Lagrange-Gauss reduced basis (w1, w2) of Z + tau*Z; (1, tau) when tau
    already lies in the fundamental domain.  |w1| falls strictly at every
    swap, so the loop ends in floating point too."""
    w1, w2 = (tau, 1 + 0j) if abs(tau) < 1 else (1 + 0j, tau)
    while True:
        w2 -= round((w2 / w1).real) * w1
        if abs(w2) >= abs(w1):
            return w1, w2
        w1, w2 = w2, w1


def lattice_distance(z: complex, tau: complex) -> float:
    """Exact distance from z to the nearest point of Z + tau*Z, for any tau.

    In a reduced basis the nearest lattice point is a corner of the cell
    holding the reduced point, so the 3x3 neighbours of the cell suffice.
    """
    w1, w2 = _reduced_basis(tau)
    t = w2 / w1
    w = reduce_mod_lattice(z / w1, t)
    return abs(w1) * min(abs(w + da + db * t) for da in (-1.0, 0.0, 1.0) for db in (-1.0, 0.0, 1.0))
