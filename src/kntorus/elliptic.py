"""Weierstrass elliptic functions on the torus C/(Z + tau*Z).

One nome sum serves every evaluation.  With the reduced basis (w1, t) of
config.reduced_basis, wp(z) = w1**-2 wp(z/w1; Z + t*Z) (DLMF 23.18), and
the sum runs in u = exp(2*pi*i*z/w1) and q = exp(2*pi*i*t) at the reduced
z, where its terms decay at least like |q|**(n - 1/2).  Since t lies in
the fundamental domain, |q| <= exp(-pi*sqrt(3)) and the fixed term count
N = ceil(log(1e-18) / log|q|) + 1 is at most 9 for every tau.

The sum's n >= 1 terms at a = q**n u and b = q**n / u are paired, from
c = u + 1/u and s = u - 1/u (one reciprocal per call): with S = q**n c,
Q = q**(2n) and P = (1 - a)(1 - b) = 1 - S + Q, the wp kernels give
f(a) + f(b) = (S(1+Q) - 4Q)/P**2 and the wp' kernels g(a) - g(b) =
q**n s (S(1+Q) + Q**2 - 6Q + 1)/P**3, so a term costs one complex division
for wp and two with wp'.  The n = 0 terms f(u) and g(u) stay unpaired,
since 1/(c - 2) would cancel near z = 0.  The kernel allocates its
temporaries and never multiplies a complex array in place (``x *= y``):
on numpy 2.4 with AVX-512 that loop rounds a one-entry array differently
from the same entry of a longer one.

Every evaluation is an array call in numpy arithmetic; ``wp_pair`` reads one
point as a one-entry wp_pair_array call, so it is that point's entry of any
array call, bit for bit.  The pole factor X = wp(z) - p, p = wp(1/2 + q), is
formed here alone: ``pole_factor_array`` gives (X, wp, wp') for the basis
frame and the time function, and ``HalfPeriodValues.differences`` the
d_k = p - e_k of any pole parameter p on the lattice (the time function's
constant reads d3).  No path evaluates wp'': the basis frame takes it from the
algebraic identity wp'' = 6*wp**2 - g2/2 at the wp it already has.
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
    """wp at the half periods (e1, e2, e3) and at 1/2 + q (p; e1 bit for bit at q = 0), g2, g3;
    differences and separation take any p on the lattice (the q -> 0 end reads p = e1)."""

    e1: complex
    e2: complex
    e3: complex
    g2: complex
    g3: complex
    p: complex

    def differences(self, p: complex) -> tuple[complex, complex, complex]:
        return (p - self.e1, p - self.e2, p - self.e3)

    def separation(self, p: complex) -> float:
        """(1/2) ln|d3/d2|, d_k = p - e_k: the time from tau/2 to (1+tau)/2.
        Raises DegenerateModuliError where |d2| < 1e-13 max(1, |e2|), naming
        p as e1, as wp(1/2+q) or by its value."""
        d2, d3 = self.differences(p)[1:]
        if abs(d2) < 1e-13 * max(1.0, abs(self.e2)):
            name = "e1" if p == self.e1 else "wp(1/2+q)" if p == self.p else f"p={p}"
            raise DegenerateModuliError(f"e2 coincides with {name}")
        return 0.5 * math.log(abs(d3 / d2))


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
    w1, t = reduced_basis(cfg.tau)
    k, q = _TWO_PI_I / w1, cmath.exp(_TWO_PI_I * t)
    u = np.exp(k * zr)
    v = 1.0 / u
    c = u + v
    s = u - v if prime else None
    # the n = 0 terms stay unpaired: 1/(c - 2) would cancel near z = 0
    total = _f_wp(u)
    deriv = _g_wp(u) if prime else None
    # the n >= 1 terms, paired as in the module docstring (qq = Q, sab = S,
    # den = P), with no in-place complex multiply; the constant
    # 1/12 - 2 sum f(q^n) is added once
    shift = 1.0 / 12.0
    qn = 1.0 + 0j
    for _ in range(_array_terms(t)):
        qn *= q
        qq = qn * qn
        sab = qn * c
        den = (1.0 + qq) - sab
        den2 = den * den
        sab_q = sab * (1.0 + qq)
        total += (sab_q - 4.0 * qq) / den2
        shift -= 2.0 * _f_wp(qn)
        if prime:
            deriv += (qn * s) * (sab_q + (qq * qq - 6.0 * qq + 1.0)) / (den2 * den)
    total += shift
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


def pole_factor_array(z: np.ndarray, cfg: TorusConfig, prime: bool) -> tuple:
    """(X, wp, wp') at every entry of a complex array, X = wp(z) - p the pole
    factor, from one series call; wp' is None unless prime.  Raises as wp_array."""
    wp, dp = _series_array(z, cfg, prime)
    return wp - half_period_values(cfg).p, wp, dp


@lru_cache(maxsize=CONFIG_CACHE_SIZE)
def half_period_values(cfg: TorusConfig) -> HalfPeriodValues:
    """e1, e2, e3 at cfg.half_periods() and p at 1/2 + q (one four-entry
    wp_array call), g2 and g3.

    The cubic 4x^3 - g2*x - g3 = 4(x-e1)(x-e2)(x-e3) has no quadratic term,
    so e1+e2+e3 vanishes; this is checked to 1e-8 of max(1, |e1|, |e2|, |e3|),
    and a larger sum raises DegenerateModuliError naming tau.
    """
    e1, e2, e3, p = wp_array(np.array([*cfg.half_periods(), 0.5 + cfg.q]), cfg).tolist()
    s = e1 + e2 + e3
    scale = max(1.0, abs(e1), abs(e2), abs(e3))
    if abs(s) > 1e-8 * scale:
        raise DegenerateModuliError(
            f"half-period values violate e1+e2+e3=0 by {abs(s)} at tau={cfg.tau}"
        )
    g2 = -4.0 * (e1 * e2 + e1 * e3 + e2 * e3)
    g3 = 4.0 * e1 * e2 * e3
    return HalfPeriodValues(e1, e2, e3, g2, g3, p)
