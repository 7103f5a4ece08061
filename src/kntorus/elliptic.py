"""Weierstrass elliptic functions on the torus C/(Z + tau*Z).

Evaluation uses the Fourier (nome) expansion in u = exp(2*pi*i*z) and
q = exp(2*pi*i*tau).  After reducing z to the fundamental cell the series
terms decay at least like |q|**(n - 1/2).  There are three paths:

* ``wp_pair`` evaluates wp and wp' at one point and stops the sum once a
  term drops below 1e-18 of it (after at least 3 terms);
* ``wp_array`` evaluates wp alone on a numpy array of points with a fixed
  term count N = ceil(log(1e-18) / log|q|) + 1: at most 9 terms for tau in the
  fundamental domain, 23 at Im(tau) = 0.3.  The level-line scans use it,
  since they need no wp';
* ``wp_pair_array`` is wp_array extended to wp', with the same term count;
  it feeds the array basis frame (circles and segments).

All take at most SERIES_CUTOFF terms.  The array paths agree with wp_pair
within WP_ARRAY_RTOL * max(1, |value|) (tested).  No path evaluates wp'':
the basis frame takes it from the algebraic identity
wp'' = 6*wp**2 - g2/2 at the wp it already has.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import CONFIG_CACHE_SIZE, EXCLUSION_RADIUS, TorusConfig, reduce_mod_lattice, reduce_mod_lattice_array
from .errors import PoleProximityError

_TWO_PI_I = 2j * math.pi

# most nome-series terms; the scalar sum stops earlier once a term drops below 1e-18 of it
SERIES_CUTOFF = 64

# bound on |wp_array - wp| / max(1, |wp|), the two paths' rounding
# differences (measured worst 2.4e-15, exclusion-disk edges included)
WP_ARRAY_RTOL = 1e-13


@dataclass(frozen=True)
class HalfPeriodValues:
    """Values of wp at the half periods plus the cubic invariants."""

    e1: complex
    e2: complex
    e3: complex
    g2: complex
    g3: complex


def reduce_to_fundamental(z: complex, cfg: TorusConfig) -> complex:
    """Reduce z mod the lattice to a + b*tau with a, b in [-1/2, 1/2)."""
    return reduce_mod_lattice(z, cfg.tau)


def _f_wp(x: complex) -> complex:
    # x/(1-x)^2, the Fourier kernel of wp
    d = 1.0 - x
    return x / (d * d)


def _g_wp(x: complex) -> complex:
    # x(1+x)/(1-x)^3, the Fourier kernel of wp'
    d = 1.0 - x
    return x * (1.0 + x) / (d * d * d)


def wp_pair(z: complex, cfg: TorusConfig) -> tuple[complex, complex]:
    """Return (wp(z), wp'(z)).

    Raises PoleProximityError inside the exclusion disk of a lattice point.
    The absolute error is far below cfg.tol away from the poles; accuracy
    degrades like the function itself (|wp| ~ |z|**-2) as z approaches one.
    """
    zr = reduce_mod_lattice(z, cfg.tau)
    if abs(zr) <= EXCLUSION_RADIUS:
        raise PoleProximityError(f"z={z} is within {EXCLUSION_RADIUS} of a lattice point")
    q = cmath.exp(_TWO_PI_I * cfg.tau)
    u = cmath.exp(_TWO_PI_I * zr)

    wp = 1.0 / 12.0 + _f_wp(u)
    wpp = _g_wp(u)
    qn = 1.0 + 0j
    for n in range(1, SERIES_CUTOFF + 1):
        qn *= q
        a = qn * u
        b = qn / u
        t_wp = _f_wp(a) + _f_wp(b) - 2.0 * _f_wp(qn)
        t_wpp = _g_wp(a) - _g_wp(b)
        wp += t_wp
        wpp += t_wpp
        if n >= 3 and abs(t_wp) + abs(t_wpp) < 1e-18 * (1.0 + abs(wp) + abs(wpp)):
            break
    four_pi2 = _TWO_PI_I * _TWO_PI_I
    return four_pi2 * wp, four_pi2 * _TWO_PI_I * wpp


def _array_terms(tau: complex) -> int:
    # N = ceil(log(1e-18) / log|q|) + 1 with log|q| = -2*pi*Im(tau), which
    # stays finite where |q| itself underflows
    return min(SERIES_CUTOFF, math.ceil(math.log(1e-18) / (-2.0 * math.pi * tau.imag)) + 1)


def _series_array(z: np.ndarray, cfg: TorusConfig, prime: bool) -> tuple[np.ndarray, np.ndarray | None]:
    # the nome sums of wp and (when prime) wp' at every entry, with the fixed
    # term count of _array_terms; raises on the first entry inside a pole's disk
    zr = reduce_mod_lattice_array(z, cfg.tau)
    # np.hypot rounds as abs(complex) does, so the disk is wp_pair's
    near = np.flatnonzero(np.hypot(zr.real, zr.imag) <= EXCLUSION_RADIUS)
    if near.size:
        raise PoleProximityError(
            f"z={complex(z.flat[near[0]])} is within {EXCLUSION_RADIUS} of a lattice point"
        )
    q = cmath.exp(_TWO_PI_I * cfg.tau)
    u = np.exp(_TWO_PI_I * zr)
    total = 1.0 / 12.0 + _f_wp(u)
    deriv = _g_wp(u) if prime else None
    qn = 1.0 + 0j
    for _ in range(_array_terms(cfg.tau)):
        qn *= q
        a = qn * u
        b = qn / u
        total += _f_wp(a) + _f_wp(b) - 2.0 * _f_wp(qn)
        if prime:
            deriv += _g_wp(a) - _g_wp(b)
    four_pi2 = _TWO_PI_I * _TWO_PI_I
    return four_pi2 * total, four_pi2 * _TWO_PI_I * deriv if prime else None


def wp_array(z: np.ndarray, cfg: TorusConfig) -> np.ndarray:
    """wp at every entry of a complex array, without the cost of wp'.

    The same series as wp_pair with the fixed term count of _array_terms.
    Raises PoleProximityError, naming the first such entry, when any entry
    lies inside the exclusion disk of a lattice point.
    """
    return _series_array(z, cfg, prime=False)[0]


def wp_pair_array(z: np.ndarray, cfg: TorusConfig) -> tuple[np.ndarray, np.ndarray]:
    """(wp, wp') at every entry of a complex array; wp equals wp_array's bit for bit."""
    return _series_array(z, cfg, prime=True)


def wp(z: complex, cfg: TorusConfig) -> complex:
    return wp_pair(z, cfg)[0]


def wp_prime(z: complex, cfg: TorusConfig) -> complex:
    return wp_pair(z, cfg)[1]


@lru_cache(maxsize=CONFIG_CACHE_SIZE)
def half_period_values(cfg: TorusConfig) -> HalfPeriodValues:
    """e1, e2, e3 at the half periods 1/2, (1+tau)/2, tau/2 and g2, g3.

    The cubic 4x^3 - g2*x - g3 = 4(x-e1)(x-e2)(x-e3) has no quadratic term,
    so e1+e2+e3 vanishes; this is checked against cfg.tol.
    """
    tau = cfg.tau
    e1 = wp(0.5 + 0j, cfg)
    e2 = wp(0.5 + 0.5 * tau, cfg)
    e3 = wp(0.5 * tau, cfg)
    s = e1 + e2 + e3
    scale = max(1.0, abs(e1), abs(e2), abs(e3))
    if abs(s) > 100.0 * cfg.tol * scale:
        raise ArithmeticError(
            f"half-period values violate e1+e2+e3=0 by {abs(s)} at tau={tau}"
        )
    g2 = -4.0 * (e1 * e2 + e1 * e3 + e2 * e3)
    g3 = 4.0 * e1 * e2 * e3
    return HalfPeriodValues(e1=e1, e2=e2, e3=e3, g2=g2, g3=g3)
