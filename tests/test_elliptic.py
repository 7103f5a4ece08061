import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_close, assert_reduced, bits, fundamental_taus, theta_half_period_values, wp_oracle
from kntorus import elliptic
from kntorus.basis import pole_parameter
from kntorus.config import EXCLUSION_RADIUS, MAX_IM_T, TorusConfig, reduce_mod_lattice_array, reduced_basis
from kntorus.elliptic import _array_terms, half_period_values, wp_array, wp_pair, wp_pair_array
from kntorus.errors import DegenerateModuliError, PoleProximityError
from kntorus.verify import random_points


def test_reduce_lattice_points(cfg_square):
    z = np.array([0j, 1 + 1j, 0.75])
    zr = reduce_mod_lattice_array(z, cfg_square.tau)
    assert_reduced(z, zr, cfg_square.tau)
    assert zr[0] == 0j
    assert abs(zr[1]) < 1e-15
    assert_close(zr[2], -0.25, 1e-15)


def test_reduce_generic(cfg_generic):
    tau = cfg_generic.tau
    z = 0.31 - 0.22j
    shifts = np.array([z + m + n * tau for m in (-2, 0, 3) for n in (-1, 0, 2)])
    zr = reduce_mod_lattice_array(shifts, tau)
    assert_reduced(shifts, zr, tau)
    ref = reduce_mod_lattice_array(np.array([z]), tau)[0]
    for value in zr:
        assert_close(value, ref, 1e-12)


def test_wp_leading_laurent(cfg_square):
    p, _ = wp_pair(1e-3, cfg_square)
    assert abs(p - 1e6) / 1e6 < 1e-4


def test_wp_prime_vanishes_at_half_period(cfg_square):
    _, dp = wp_pair(0.5 + 0j, cfg_square)
    assert abs(dp) < 1e-10


def test_wp_matches_reference_oracle(cfg_square, cfg_generic):
    for cfg in (cfg_square, cfg_generic):
        points = random_points(cfg, 8, seed=11)
        for z, value in zip(points, wp_array(np.array(points), cfg).tolist()):
            assert_close(value, wp_oracle(z, cfg.tau), 1e-10 * max(1, abs(value)), label=f"wp({z}; {cfg.tau})")


def test_wp_specific_point_differential_equation():
    cfg = TorusConfig(tau=1j, q=0.2)
    hp = half_period_values(cfg)
    p, dp = wp_pair(0.3 + 0.2j, cfg)
    res = dp * dp - (4 * p**3 - hp.g2 * p - hp.g3)
    assert abs(res) <= 1e-10 * (1 + abs(p) ** 3)


def test_pole_exclusion(cfg_square):
    with pytest.raises(PoleProximityError):
        wp_pair(1e-6, cfg_square)
    with pytest.raises(PoleProximityError):
        wp_pair(1 + 1j + 1e-6, cfg_square)


def test_half_periods_square_lattice(cfg_square):
    hp = half_period_values(cfg_square)
    # square-lattice symmetry: e2 = 0, e3 = -e1, e1 real positive
    assert abs(hp.e2) < 1e-10
    assert abs(hp.e3 + hp.e1) < 1e-10
    assert hp.e1.real > 0 and abs(hp.e1.imag) < 1e-10
    assert abs(hp.g3) < 1e-9


def test_half_period_sum_and_invariants(cfg_generic):
    hp = half_period_values(cfg_generic)
    assert abs(hp.e1 + hp.e2 + hp.e3) <= 1e-10 * max(1.0, abs(hp.e1))
    assert_close(hp.g2, -4 * (hp.e1 * hp.e2 + hp.e1 * hp.e3 + hp.e2 * hp.e3), 1e-12 * abs(hp.g2))
    assert_close(hp.g3, 4 * hp.e1 * hp.e2 * hp.e3, 1e-10 * max(1.0, abs(hp.g3)))


def test_half_period_sum_violation_names_tau(monkeypatch):
    # a wp that takes one value at the three half periods cannot sum to zero there
    monkeypatch.setattr(elliptic, "wp_array", lambda z, cfg: np.ones(z.shape, dtype=complex))
    cfg = TorusConfig(tau=0.1 + 1.2j, q=0.2)
    with pytest.raises(DegenerateModuliError, match=re.escape("e1+e2+e3=0 by 3.0 at tau=(0.1+1.2j)")):
        half_period_values.__wrapped__(cfg)  # past the cache


@pytest.mark.parametrize("tau", [1j, 0.3 + 1.1j, 0.5 + 0.8j, 0.5 + 1.3j, 5j, 0.2j])
def test_half_periods_against_theta_oracle(tau):
    hp = half_period_values(TorusConfig(tau=tau))
    tol = 1e-13 * max(1.0, abs(hp.e1), abs(hp.e2), abs(hp.e3))
    for value, ref in zip((hp.e1, hp.e2, hp.e3), theta_half_period_values(tau)):
        assert_close(value, ref, tol, label=f"e at tau={tau}")
    for q in (0.2, 0.17 + 0.05j):
        assert_close(pole_parameter(TorusConfig(tau=tau, q=q)), wp_oracle(0.5 + q, tau), tol, label=f"p at q={q}")


def test_wp_second_via_finite_differences(cfg_square):
    # the identity wp'' = 6 wp^2 - g2/2 that the basis frame uses for w'
    g2 = half_period_values(cfg_square).g2
    h = 1e-5
    for z in random_points(cfg_square, 5, seed=16):
        fd = (wp_pair(z + h, cfg_square)[1] - wp_pair(z - h, cfg_square)[1]) / (2 * h)
        p = wp_pair(z, cfg_square)[0]
        assert abs(6.0 * p * p - 0.5 * g2 - fd) <= 1e-5 * max(1.0, abs(fd))


def test_memoization_invisible(cfg_square):
    # same value through a fresh equal config (separate cache key path)
    z = 0.23 + 0.17j
    cfg_copy = TorusConfig(tau=1j, q=0.2)
    assert bits(wp_pair(z, cfg_square)[0]) == bits(wp_pair(z, cfg_copy)[0])


# tau in the fundamental domain, and lattices with Im tau down to 0.3
_taus = st.one_of(fundamental_taus, st.builds(complex, st.floats(-0.5, 0.5), st.floats(0.3, 1.0)))


@st.composite
def _tau_and_points(draw, radii):
    """tau, and points anywhere or at a distance drawn from radii from a lattice point."""
    tau = draw(_taus)
    coord = st.floats(-3.0, 3.0)
    near = st.builds(
        lambda m, n, r, theta: m + n * tau + r * cmath.exp(1j * theta),
        st.integers(-2, 2), st.integers(-2, 2), radii, st.floats(0.0, 2 * math.pi),
    )
    points = draw(st.lists(st.one_of(st.builds(complex, coord, coord), near), min_size=1, max_size=24))
    return tau, points


@settings(max_examples=200, deadline=None)
@given(case=_tau_and_points(st.floats(1.001 * EXCLUSION_RADIUS, 3 * EXCLUSION_RADIUS)))
def test_wp_pair_is_its_array_entry(case):
    tau, points = case
    cfg = TorusConfig(tau=tau)
    # a point drawn anywhere may still land in an exclusion disk
    clear = np.abs(reduce_mod_lattice_array(np.array(points), cfg.tau)) > EXCLUSION_RADIUS
    points = [z for z, keep in zip(points, clear) if keep]
    values = wp_array(np.array(points), cfg)
    pair_values, primes = wp_pair_array(np.array(points), cfg)
    assert values.shape == primes.shape == (len(points),)
    assert np.array_equal(pair_values, values)
    # the point view reads a one-entry array, so it gives the entry the
    # point gets inside a larger array call, bit for bit
    for z, value, prime in zip(points, values.tolist(), primes.tolist()):
        assert [bits(v) for v in wp_pair(z, cfg)] == [bits(value), bits(prime)], z


@settings(max_examples=100, deadline=None)
@given(case=_tau_and_points(st.floats(0.0, 0.999 * EXCLUSION_RADIUS)))
def test_wp_array_pole_exclusion(case):
    tau, points = case
    cfg = TorusConfig(tau=tau)
    near = np.abs(reduce_mod_lattice_array(np.array(points), cfg.tau)) <= EXCLUSION_RADIUS
    inside = [z for z, keep in zip(points, near) if keep]
    if inside:
        with pytest.raises(PoleProximityError, match=re.escape(f"z={inside[0]} ")):
            wp_array(np.array(points), cfg)
        with pytest.raises(PoleProximityError):
            wp_pair(inside[0], cfg)
    else:
        wp_array(np.array(points), cfg)


# every SL2(Z) matrix with entries in [-3, 3]
_SL2 = [
    (a, b, c, d)
    for a in range(-3, 4)
    for b in range(-3, 4)
    for c in range(-3, 4)
    for d in range(-3, 4)
    if a * d - b * c == 1
]


@settings(max_examples=200, deadline=None)
@given(
    tau=fundamental_taus,
    gamma=st.sampled_from(_SL2),
    x=st.floats(0.05, 0.95),
    y=st.floats(0.05, 0.95),
)
def test_wp_modular_invariance(tau, gamma, x, y):
    # Z + (gamma tau)Z = (c tau + d)^-1 (Z + tau Z), so wp(z; gamma tau) = j^2 wp(j z; tau), j = c tau + d
    a, b, c, d = gamma
    j = c * tau + d
    w = x + y * tau  # a cell point away from the lattice
    p, dp = wp_pair(w / j, TorusConfig(tau=(a * tau + b) / j))
    ref, ref_prime = wp_pair(w, TorusConfig(tau=tau))
    assert_close(p, j**2 * ref, 1e-10 * max(1, abs(p)), label=f"wp at gamma={gamma}")
    assert_close(dp, j**3 * ref_prime, 1e-10 * max(1, abs(dp)), label=f"wp' at gamma={gamma}")


@pytest.mark.parametrize("tau", [0.06j, 2.7 + 0.3j])
def test_wp_against_oracle_outside_fundamental_domain(tau):
    cfg = TorusConfig(tau=tau)
    points = random_points(cfg, 8, seed=11)
    for z, value in zip(points, wp_array(np.array(points), cfg).tolist()):
        ref = wp_oracle(z, tau)
        assert_close(value, ref, 1e-12 * abs(ref), label=f"wp({z}; {tau})")
    hp = half_period_values(cfg)
    for value, ref in zip((hp.e1, hp.e2, hp.e3), theta_half_period_values(tau)):
        assert_close(value, ref, 1e-12 * abs(ref))


@settings(max_examples=300, deadline=None)
@given(tau=st.builds(complex, st.floats(-1e3, 1e3), st.floats(1e-4, 1e3)))
def test_series_terms_bounded_everywhere(tau):
    t = reduced_basis(tau)[1]
    assert t.imag > 0 and abs(t.real) <= 0.5 + 1e-12 and abs(t) >= 1 - 1e-12
    assert _array_terms(t) <= 9


def test_thinnest_admitted_lattice_stays_finite():
    # wp' cubes |u| <= exp(pi Im t) at a reduced point; beyond MAX_IM_T the
    # config refuses the lattice instead of returning inf or nan
    for tau in (80j, 0.01j, 1e5j):
        with pytest.raises(ValueError) as err:
            TorusConfig(tau=tau)
        assert str(err.value).startswith(f"tau={tau}: "), err.value
    cfg = TorusConfig(tau=MAX_IM_T * 1j)
    assert cfg.tau == 75j
    # the long side of the cell, where |u| is largest
    z = 0.5 + np.linspace(-0.5, 0.5, 41) * cfg.tau
    assert all(np.isfinite(values).all() for values in wp_pair_array(z, cfg))
    assert all(cmath.isfinite(v) for w in z for v in wp_pair(complex(w), cfg))
