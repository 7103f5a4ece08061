import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_close, fundamental_taus, theta_half_period_values, wp_oracle
from kntorus.config import EXCLUSION_RADIUS, TorusConfig, reduce_mod_lattice, reduced_basis
from kntorus.elliptic import (
    WP_ARRAY_RTOL,
    _array_terms,
    half_period_values,
    wp,
    wp_array,
    wp_pair,
    wp_pair_array,
)
from kntorus.errors import PoleProximityError
from kntorus.verify import random_points


def test_reduce_lattice_points(cfg_square):
    assert reduce_mod_lattice(0j, cfg_square.tau) == 0j
    assert abs(reduce_mod_lattice(1 + 1j, cfg_square.tau)) < 1e-15
    assert_close(reduce_mod_lattice(0.75, cfg_square.tau), -0.25, 1e-15)


def test_reduce_generic(cfg_generic):
    tau = cfg_generic.tau
    z = 0.31 - 0.22j
    for m in (-2, 0, 3):
        for n in (-1, 0, 2):
            assert_close(reduce_mod_lattice(z + m + n * tau, cfg_generic.tau),
                         reduce_mod_lattice(z, cfg_generic.tau), 1e-12)


def test_wp_leading_laurent(cfg_square):
    p, _ = wp_pair(1e-3, cfg_square)
    assert abs(p - 1e6) / 1e6 < 1e-4


def test_wp_prime_vanishes_at_half_period(cfg_square):
    _, dp = wp_pair(0.5 + 0j, cfg_square)
    assert abs(dp) < 1e-10


def test_wp_matches_reference_oracle(cfg_square, cfg_generic):
    for cfg in (cfg_square, cfg_generic):
        for z in random_points(cfg, 8, seed=11):
            assert_close(wp(z, cfg), wp_oracle(z, cfg.tau), 1e-10 * max(1, abs(wp(z, cfg))),
                         label=f"wp({z}; {cfg.tau})")


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


@pytest.mark.parametrize("tau", [1j, 0.3 + 1.1j, 0.5 + 0.8j, 0.5 + 1.3j])
def test_half_periods_against_theta_oracle(tau):
    cfg = TorusConfig(tau=tau)
    hp = half_period_values(cfg)
    e1r, e2r, e3r = theta_half_period_values(tau)
    assert abs(hp.e1 - e1r) < 1e-10
    assert abs(hp.e2 - e2r) < 1e-10
    assert abs(hp.e3 - e3r) < 1e-10


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
    assert wp(z, cfg_square) == wp(z, cfg_copy)


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
def test_wp_array_matches_scalar(case):
    tau, points = case
    cfg = TorusConfig(tau=tau)
    # a point drawn anywhere may still land in an exclusion disk
    points = [z for z in points if abs(reduce_mod_lattice(z, cfg.tau)) > EXCLUSION_RADIUS]
    values = wp_array(np.array(points), cfg)
    pair_values, primes = wp_pair_array(np.array(points), cfg)
    assert values.shape == primes.shape == (len(points),)
    assert np.array_equal(pair_values, values)
    for z, value, prime in zip(points, values, primes):
        ref, ref_prime = wp_pair(z, cfg)
        assert abs(value - ref) <= WP_ARRAY_RTOL * max(1.0, abs(ref)), (z, value, ref)
        assert abs(prime - ref_prime) <= WP_ARRAY_RTOL * max(1.0, abs(ref_prime)), (z, prime, ref_prime)


@settings(max_examples=100, deadline=None)
@given(case=_tau_and_points(st.floats(0.0, 0.999 * EXCLUSION_RADIUS)))
def test_wp_array_pole_exclusion(case):
    tau, points = case
    cfg = TorusConfig(tau=tau)
    inside = [z for z in points if abs(reduce_mod_lattice(z, cfg.tau)) <= EXCLUSION_RADIUS]
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
    for z in random_points(cfg, 8, seed=11):
        ref = wp_oracle(z, tau)
        assert_close(wp(z, cfg), ref, 1e-12 * abs(ref), label=f"wp({z}; {tau})")
    hp = half_period_values(cfg)
    for value, ref in zip((hp.e1, hp.e2, hp.e3), theta_half_period_values(tau)):
        assert_close(value, ref, 1e-12 * abs(ref))


@settings(max_examples=300, deadline=None)
@given(tau=st.builds(complex, st.floats(-1e3, 1e3), st.floats(1e-4, 1e3)))
def test_series_terms_bounded_everywhere(tau):
    t = reduced_basis(tau)[1]
    assert t.imag > 0 and abs(t.real) <= 0.5 + 1e-12 and abs(t) >= 1 - 1e-12
    assert _array_terms(t) <= 9
