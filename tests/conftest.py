"""Shared fixtures and the high-precision reference oracle.

The oracle builds the Weierstrass function from Jacobi theta constants and
the sn function at 30 digits (mpmath), a fully independent evaluation
route from the production nome series.  Its own internal identities
(quartic theta relation, Laurent behaviour) are asserted on first use.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import strategies as st

from kntorus.config import TorusConfig, distance_to_points_array, reduced_basis
from kntorus.verify import CheckResult, verify_suite

mp.mp.dps = 30

_ORACLE_VALIDATED: set[complex] = set()


def theta_half_period_values(tau: complex) -> tuple[complex, complex, complex]:
    """(e1, e2, e3) from theta constants; independent of the nome series."""
    nome = mp.exp(1j * mp.pi * mp.mpc(tau))
    t2 = mp.jtheta(2, 0, nome)
    t3 = mp.jtheta(3, 0, nome)
    t4 = mp.jtheta(4, 0, nome)
    assert abs(t2**4 + t4**4 - t3**4) < mp.mpf(10) ** -25
    pi2_3 = mp.pi**2 / 3
    e1 = pi2_3 * (t3**4 + t4**4)
    e2 = pi2_3 * (t2**4 - t4**4)
    e3 = -pi2_3 * (t2**4 + t3**4)
    return complex(e1), complex(e2), complex(e3)


def wp_oracle(z: complex, tau: complex) -> complex:
    """Reference wp(z) via e3 + (e1-e3)/sn(z*sqrt(e1-e3))**2."""
    e1, e2, e3 = theta_half_period_values(tau)
    m = (mp.mpc(e2) - e3) / (mp.mpc(e1) - e3)
    w = mp.sqrt(mp.mpc(e1) - e3) * mp.mpc(z)
    sn = mp.ellipfun("sn", w, m)
    value = mp.mpc(e3) + (mp.mpc(e1) - e3) / sn**2
    if tau not in _ORACLE_VALIDATED:
        # Laurent anchor: wp(h) ~ h**-2 for small h
        probe = mp.mpc(e3) + (mp.mpc(e1) - e3) / mp.ellipfun(
            "sn", mp.sqrt(mp.mpc(e1) - e3) * mp.mpf("1e-6"), m
        ) ** 2
        assert abs(probe * mp.mpf("1e-12") - 1) < 1e-9
        _ORACLE_VALIDATED.add(tau)
    return complex(value)


@pytest.fixture(scope="session")
def cfg_square() -> TorusConfig:
    return TorusConfig(tau=1j, q=0.2)


@pytest.fixture(scope="session")
def cfg_generic() -> TorusConfig:
    return TorusConfig(tau=0.3 + 1.1j, q=0.17 + 0.05j)


@pytest.fixture(scope="session")
def cfg_two_point() -> TorusConfig:
    return TorusConfig(tau=1j)


ACCEPTANCE_CONFIGS = [
    TorusConfig(tau=tau, q=q)
    for tau in (1j, 0.3 + 1.1j)
    for q in (0.2, 0.17 + 0.05j)
]


def suite_checks(suite: str, cfg: TorusConfig, window: int = 8) -> dict[str, CheckResult]:
    """The checks of verify_suite by name; the names must be unique."""
    checks = verify_suite(suite, cfg, window)
    by_name = {c.name: c for c in checks}
    assert len(by_name) == len(checks), [c.name for c in checks]
    return by_name


def assert_close(actual, expected, tol, label=""):
    err = abs(actual - expected)
    assert err <= tol, f"{label}: |{actual} - {expected}| = {err} > {tol}"


def bits(c: complex) -> tuple[str, str]:
    # float.hex tells 0.0 from -0.0
    return c.real.hex(), c.imag.hex()


def reduced_distance(z: complex, marks, tau: complex) -> float:
    """min |reduce_mod_lattice_array(z - s)| over the marks at one point (a
    one-entry distance_to_points_array)."""
    return float(distance_to_points_array(np.array([z], dtype=complex), tuple(marks), tau)[0])


def assert_reduced(z: np.ndarray, zr: np.ndarray, tau: complex) -> None:
    """zr is z reduced mod Z + tau*Z: in the reduced basis (w1, w1*t) both
    coordinates of zr lie in [-1/2, 1/2) (to rounding), and z - zr is
    within 1e-12 of a lattice vector."""
    w1, t = reduced_basis(tau)
    for w, wr in zip(z.tolist(), zr.tolist()):
        b = (wr / w1).imag / t.imag
        a = (wr / w1).real - b * t.real
        assert -0.5 - 1e-12 <= a < 0.5 + 1e-12 and -0.5 - 1e-12 <= b < 0.5 + 1e-12, (w, wr, a, b)
        d = w - wr
        n = round(d.imag / tau.imag)
        m = round(d.real - n * tau.real)
        assert abs(d - m - n * tau) <= 1e-12, (w, wr, d)


LN2_OVER_2 = math.log(2.0) / 2.0

# hypothesis strategies shared between test modules
complex_lams = st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
# 32 label triples (i, j, k) drawn from [-12, 12]^3
label_triples = st.lists(st.tuples(*(st.integers(-12, 12),) * 3), min_size=32, max_size=32)
# tau in the fundamental domain
fundamental_taus = st.tuples(st.floats(-0.5, 0.5), st.floats(0.0, 1.0)).map(
    lambda p: complex(p[0], math.sqrt(1.0 - p[0] ** 2) + p[1])
)
