"""Weierstrass elliptic functions on the torus C/(Z + tau*Z).

One nome sum serves every evaluation.  With the reduced basis (w1, t) of
config.reduced_basis, wp(z) = w1**-2 wp(z/w1; Z + t*Z) (DLMF 23.18), and
the sum runs in u = exp(2*pi*i*z/w1) and q = exp(2*pi*i*t) at the reduced
z, where its terms decay at least like |q|**(n - 1/2).  Since t lies in
the fundamental domain, |q| <= exp(-pi*sqrt(3)) and the fixed term count
N = ceil(log(1e-18) / log|q|) + 1 is at most 9 for every tau.

Every evaluation is an array call in numpy arithmetic: ``wp_array`` (wp
alone, for the level-line scans and the half periods) and
``wp_pair_array`` (wp and wp', for the array basis frame: circles and
segments).  ``wp_pair`` reads one point as a one-entry wp_pair_array
call, so it is that point's entry of any array call, bit for bit.  No
path evaluates wp'': the basis frame takes it from the algebraic identity
wp'' = 6*wp**2 - g2/2 at the wp it already has.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import CONFIG_CACHE_SIZE, EXCLUSION_RADIUS, TorusConfig, reduce_mod_lattice_array, reduced_basis
from .errors import DegenerateModuliError, PoleProximityError

_TWO_PI_I = 2j * math.pi


@dataclass(frozen=True)
class HalfPeriodValues:
    """Values of wp at the half periods plus the cubic invariants."""

    e1: complex
    e2: complex
    e3: complex
    g2: complex
    g3: complex


def _f_wp(x: complex) -> complex:
    # x/(1-x)^2, the Fourier kernel of wp
    d = 1.0 - x
    return x / (d * d)


def _g_wp(x: complex) -> complex:
    # x(1+x)/(1-x)^3, the Fourier kernel of wp'
    d = 1.0 - x
    return x * (1.0 + x) / (d * d * d)


def _array_terms(t: complex) -> int:
    # N = ceil(log(1e-18) / log|q|) + 1 for the nome q = exp(2*pi*i*t):
    # at most 9, since Im t >= sqrt(3)/2 in the fundamental domain
    return math.ceil(math.log(1e-18) / (-2.0 * math.pi * t.imag)) + 1


@lru_cache(maxsize=CONFIG_CACHE_SIZE)
def _series_constants(tau: complex) -> tuple[complex, complex, int]:
    # k = 2*pi*i/w1, the nome exp(2*pi*i*t) and the term count of reduced_basis(tau)
    w1, t = reduced_basis(tau)
    return _TWO_PI_I / w1, cmath.exp(_TWO_PI_I * t), _array_terms(t)


def _series_array(z: np.ndarray, cfg: TorusConfig, prime: bool) -> tuple[np.ndarray, np.ndarray | None]:
    # (wp, wp' or None) at every entry from u = exp(k*zr) at the reduced zr:
    # the sums on Z + t*Z, scaled by w1**-2 and w1**-3; raises on the first
    # entry inside a pole's disk
    zr = reduce_mod_lattice_array(z, cfg.tau)
    near = np.flatnonzero(np.abs(zr) <= EXCLUSION_RADIUS)
    if near.size:
        raise PoleProximityError(
            f"z={complex(z.flat[near[0]])} is within {EXCLUSION_RADIUS} of a lattice point"
        )
    k, q, terms = _series_constants(cfg.tau)
    u = np.exp(k * zr)
    total = 1.0 / 12.0 + _f_wp(u)
    deriv = _g_wp(u) if prime else None
    qn = 1.0 + 0j
    for _ in range(terms):
        qn *= q
        a = qn * u
        b = qn / u
        total += _f_wp(a) + _f_wp(b) - 2.0 * _f_wp(qn)
        if prime:
            deriv += _g_wp(a) - _g_wp(b)
    k2 = k * k
    return k2 * total, k2 * k * deriv if prime else None


def wp_array(z: np.ndarray, cfg: TorusConfig) -> np.ndarray:
    """wp at every entry of a complex array, without the cost of wp'.

    Raises PoleProximityError, naming the first such entry, when any entry
    lies inside the exclusion disk of a lattice point.  The error is at
    rounding level away from the poles; accuracy degrades like the function
    itself (|wp| ~ |z|**-2) as z approaches one.
    """
    return _series_array(z, cfg, prime=False)[0]


def wp_pair_array(z: np.ndarray, cfg: TorusConfig) -> tuple[np.ndarray, np.ndarray]:
    """(wp, wp') at every entry of a complex array; wp equals wp_array's bit for bit."""
    return _series_array(z, cfg, prime=True)


def wp_pair(z: complex, cfg: TorusConfig) -> tuple[complex, complex]:
    """(wp(z), wp'(z)) at one point (a one-entry wp_pair_array)."""
    p, dp = wp_pair_array(np.array([z], dtype=complex), cfg)
    return p.item(), dp.item()


@lru_cache(maxsize=CONFIG_CACHE_SIZE)
def half_period_values(cfg: TorusConfig) -> HalfPeriodValues:
    """e1, e2, e3 at the half periods 1/2, (1+tau)/2, tau/2 and g2, g3.

    The cubic 4x^3 - g2*x - g3 = 4(x-e1)(x-e2)(x-e3) has no quadratic term,
    so e1+e2+e3 vanishes; this is checked to 1e-8 of max(1, |e1|, |e2|, |e3|),
    and a larger sum raises DegenerateModuliError naming tau.
    """
    tau = cfg.tau
    e1, e2, e3 = wp_array(np.array([0.5, 0.5 + 0.5 * tau, 0.5 * tau]), cfg).tolist()
    s = e1 + e2 + e3
    scale = max(1.0, abs(e1), abs(e2), abs(e3))
    if abs(s) > 1e-8 * scale:
        raise DegenerateModuliError(
            f"half-period values violate e1+e2+e3=0 by {abs(s)} at tau={tau}"
        )
    g2 = -4.0 * (e1 * e2 + e1 * e3 + e2 * e3)
    g3 = 4.0 * e1 * e2 * e3
    return HalfPeriodValues(e1=e1, e2=e2, e3=e3, g2=g2, g3=g3)
