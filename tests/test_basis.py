import math
import re

import numpy as np
import pytest

from conftest import assert_close, bits, point_frame
from kntorus import basis
from kntorus.basis import (
    CIRCLE_NODES,
    WITT_PARAMS,
    PunctureCircle,
    basis_derivative,
    basis_value,
    formal_params,
    frame_array,
    lambda_coefficients,
    monomial,
    monomial_derivative,
    out_puncture_order,
    puncture_circle,
    puncture_circles,
    require_finite,
    winding_order,
)
from kntorus.cocycle import pairing, pairing_residue_routes
from kntorus.config import TorusConfig
from kntorus.elliptic import half_period_values, pole_factor_array, wp_pair, wp_pair_array
from kntorus.errors import DegenerateModuliError, NonIntegerWindingError, PoleProximityError
from kntorus.propagation import _time_array, omega_hat, residue_at, separation_time, time_coordinate
from kntorus.quadrature import circle_nodes, contour_residue
from kntorus.verify import random_points


def test_unit_and_omega(cfg_square):
    for z in random_points(cfg_square, 5, seed=31):
        assert basis_value(0, z, cfg_square) == 1.0
        assert_close(basis_value(-1, z, cfg_square), omega_hat(z, cfg_square), 1e-13)


def test_derivative_constant_is_zero(cfg_square):
    z = random_points(cfg_square, 1, seed=37)[0]
    assert basis_derivative(0, z, cfg_square) == 0.0


def test_frame_is_bit_identical_to_direct_formulas(cfg_square, cfg_generic):
    # A_k and A_k' as computed before the frame: wp'' from a second wp call,
    # then the frame formulas and the monomials over the arrays
    for cfg in (cfg_square, cfg_generic):
        hp = half_period_values(cfg)
        p_q, g2 = hp.p, hp.g2
        pts = random_points(cfg, 10, seed=41)
        p, dp = wp_pair_array(np.array(pts), cfg)
        bases = p - p_q
        ws = -0.5 * dp / bases
        p2 = wp_pair_array(np.array(pts), cfg)[0]
        w_primes = -0.5 * ((6.0 * p2 * p2 - 0.5 * g2) * bases - dp * dp) / (bases * bases)
        for k in range(-8, 9):
            if k % 2 == 0:
                values = bases ** (-k // 2)
                derivatives = k * ws * values
            else:
                values = ws * bases ** (-(k + 1) // 2)
                derivatives = (w_primes + (k + 1) * ws * ws) * bases ** (-(k + 1) // 2)
            for z, value, derivative in zip(pts, values.tolist(), derivatives.tolist()):
                assert bits(basis_value(k, z, cfg)) == bits(value)
                assert bits(basis_derivative(k, z, cfg)) == bits(derivative)


@pytest.mark.parametrize("cfg", [TorusConfig(tau=1j, q=0.2), TorusConfig(tau=0.3 + 1.1j, q=0.17 + 0.05j)])
def test_point_views_are_their_array_entries(cfg):
    # each point function reads its point as a one-entry array, so it gives
    # the entry the point gets inside a larger array call, bit for bit
    pts = random_points(cfg, 25, seed=43)
    frame = frame_array(np.array(pts), cfg)
    times = _time_array(np.array(pts), cfg).tolist()
    for z, w, t in zip(pts, frame[1].tolist(), times):
        assert bits(omega_hat(z, cfg)) == bits(w)
        assert time_coordinate(z, cfg).hex() == t.hex()
    for k in range(-6, 7):
        values, derivatives = monomial(k, *frame[:2]).tolist(), monomial_derivative(k, *frame).tolist()
        for z, value, derivative in zip(pts, values, derivatives):
            assert bits(basis_value(k, z, cfg)) == bits(value)
            assert bits(basis_derivative(k, z, cfg)) == bits(derivative)


@pytest.mark.parametrize(
    "cfg",
    [TorusConfig(tau=1j, q=0.2), TorusConfig(tau=0.3 + 1.1j, q=0.17 + 0.05j), TorusConfig(tau=0.2j, q=0.001)],
)
def test_every_pole_factor_is_pole_factor_array(cfg):
    # the frame's base, the time function and its constant d3, the d_k of
    # the algebra's scalars and the separation time read the one X = wp - p
    # of pole_factor_array, at the sample points and at the half periods,
    # bit for bit
    pts = random_points(cfg, 25, seed=43)
    marks = [*cfg.half_periods(), 0.5 + cfg.q]
    x, wp, _ = pole_factor_array(np.array([*pts, *marks]), cfg, prime=True)
    x_pts, wp_at_q = x[:25], wp[28].item()
    d1, d2, d3 = (-x[25:28]).tolist()
    assert list(map(bits, frame_array(np.array(pts), cfg)[0].tolist())) == list(map(bits, x_pts.tolist()))
    assert list(map(bits, pole_factor_array(np.array(pts), cfg, prime=False)[0].tolist())) == list(
        map(bits, x_pts.tolist())
    )
    times = (-0.5 * np.log(np.abs(x_pts)) + 0.5 * math.log(abs(d3))).tolist()
    assert [time_coordinate(z, cfg).hex() for z in pts] == [t.hex() for t in times]
    lam = lambda_coefficients(cfg)
    assert bits(lam.lam5) == bits(3.0 * wp_at_q)
    assert bits(lam.lam6) == bits(d1 * d2 + d1 * d3 + d2 * d3)
    assert bits(lam.lam7) == bits(d1 * d2 * d3)
    assert separation_time(cfg).hex() == (0.5 * math.log(abs(d3 / d2))).hex()


def test_point_views_refuse_a_point_near_a_puncture(cfg_square):
    views = (
        lambda z: basis_value(1, z, cfg_square),
        lambda z: basis_derivative(2, z, cfg_square),
        lambda z: omega_hat(z, cfg_square),
        lambda z: time_coordinate(z, cfg_square),
    )
    # beside 0, beside 1/2 + q and beside a lattice translate of 1/2 - q
    for z in (1e-6j, 0.7 + 1e-6j, 0.3 - 1e-5 + 1j):
        for view in views:
            with pytest.raises(PoleProximityError, match=re.escape(f"z={z} is inside a puncture exclusion disk")):
                view(z)


def test_require_finite_names_the_least_label():
    # the least label among the values that are not finite, whatever the
    # order of the reads; a finite value at a lower label is not named
    labels = np.array([[3, 5], [4, 6]])
    values = np.array([[1.0, np.inf], [complex(0.0, np.nan), 2.0]])
    with pytest.raises(DegenerateModuliError, match=re.escape("for label k=4: A_4 is not finite")):
        require_finite((7, np.array([np.inf + 0j])), (labels, values))
    # a label broadcasts to the shape of its values
    require_finite((labels, np.ones((2, 2), dtype=complex)), (-9, np.zeros(3, dtype=complex)))


def test_order_triples():
    # the order at the in-point 0 is k itself; these are the out-point orders
    # for k = -6..6, then those at the merged out-puncture of q = 0, which
    # the order_triples_vs_winding check compares with the winding numbers
    ks = range(-6, 7)
    assert [out_puncture_order(k) for k in ks] == [3, 1, 2, 0, 1, -1, 0, -2, -1, -3, -2, -4, -3]
    assert [out_puncture_order(k, True) for k in ks] == [6, 3, 4, 1, 2, -1, 0, -3, -2, -5, -4, -7, -6]
    # cocycle.pairing returns 0 when the in-point order i1 + i2 is below -4:
    # the out-point orders then sum to at least 0, so no residue is lost
    for two_point in (False, True):
        for i1 in range(-60, 61):
            for i2 in range(-60, -i1 - 4):
                assert out_puncture_order(i1, two_point) + out_puncture_order(i2, two_point) >= 0


def test_winding_rejects_bad_contour(cfg_square, monkeypatch):
    # radius 0.5 around the origin passes through zeros of the odd basis
    # functions at the half periods, leaving a half-integer winding
    nodes = circle_nodes(0j, 0.5, CIRCLE_NODES)
    bad = PunctureCircle(0j, 0.5, nodes, *frame_array(nodes, cfg_square))
    monkeypatch.setattr(basis, "puncture_circles", lambda cfg: (bad,))
    with pytest.raises(NonIntegerWindingError, match="for k=-3 around 0j"):
        winding_order(cfg_square, 3)


def test_puncture_circles(cfg_square, cfg_two_point):
    # 0.45 x the distance to the nearest other puncture or half period
    circles = puncture_circles(cfg_square)
    radii = [c.radius for c in circles]
    assert [c.center for c in circles] == list(cfg_square.punctures())
    assert_close(radii[0], 0.45 * 0.3, 1e-15)
    assert_close(radii[1], 0.45 * 0.2, 1e-15)
    assert_close(radii[2], 0.45 * 0.2, 1e-15)
    # the merged out-puncture 1/2 is itself a half period
    assert [c.radius for c in puncture_circles(cfg_two_point)] == [0.225, 0.225]
    # a tall cell: the out-punctures' own translates (+-1) are nearest
    tall = TorusConfig(tau=6j, q=1.5j)
    assert [c.radius for c in puncture_circles(tall)][1:] == [0.45, 0.45]
    assert puncture_circle(0.5 - cfg_square.q, cfg_square) is circles[2]
    # each record holds its nodes and the frame there, read-only
    for c in circles:
        assert np.array_equal(c.nodes, circle_nodes(c.center, c.radius, CIRCLE_NODES))
        for cached, fresh in zip((c.base, c.w, c.w_prime), frame_array(c.nodes, cfg_square)):
            assert np.array_equal(cached, fresh)
        for cached in (c.nodes, c.base, c.w, c.w_prime):
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = 0


def test_stacked_contour_residue_is_its_rows(cfg_square):
    # a stack of integrands gives each row's own residue bit for bit
    c = puncture_circles(cfg_square)[0]
    stack = np.array([monomial(k, c.base, c.w) for k in range(-6, 7)])
    rows = [contour_residue(row, c.nodes, c.center) for row in stack]
    assert all(type(r) is complex for r in rows)
    assert list(map(bits, contour_residue(stack, c.nodes, c.center).tolist())) == list(map(bits, rows))


def test_one_frame_evaluation_per_puncture(monkeypatch):
    # every winding order, residue and pairing of a fresh configuration
    # reads the cached frame of its puncture circle
    calls = []

    def counting(z, cfg, prime):
        calls.append(z.size)
        return pole_factor_array(z, cfg, prime)

    monkeypatch.setattr(basis, "pole_factor_array", counting)
    cfg = TorusConfig(tau=0.07 + 1.13j, q=0.19 + 0.02j)
    winding_order(cfg, 6)
    for s in cfg.punctures():
        residue_at(s, cfg)
    pairing(cfg, 6)
    for j in range(-6, 7):
        for k in range(-6, 7):
            pairing_residue_routes(j, k, cfg)
    assert calls == [CIRCLE_NODES] * len(cfg.punctures())


def test_lambda_derived_values(cfg_square):
    lam = lambda_coefficients(cfg_square)
    hp = half_period_values(cfg_square)
    p_q = hp.p
    assert lam.lam4 == 1.0
    assert_close(lam.lam5, 3 * p_q, 1e-12 * abs(p_q))
    assert_close(
        lam.lam6,
        3 * p_q**2 - (hp.e2**2 + hp.e2 * hp.e3 + hp.e3**2),
        1e-10 * max(1.0, abs(lam.lam6)),
    )
    quarter_sq = 0.25 * wp_pair(0.5 + cfg_square.q, cfg_square)[1] ** 2
    assert abs(lam.lam7 - quarter_sq) <= 1e-10 * abs(lam.lam7)


def test_lambda_two_point_values(cfg_two_point):
    lam = lambda_coefficients(cfg_two_point)
    hp = half_period_values(cfg_two_point)
    assert_close(lam.lam5, 3 * hp.e1, 1e-10 * abs(hp.e1))
    assert_close(lam.lam6, (hp.e1 - hp.e2) * (hp.e1 - hp.e3), 1e-9 * abs(lam.lam6))
    assert lam.lam7 == 0j


def test_lambda_formal():
    assert WITT_PARAMS.as_tuple() == (1.0, 0j, 0j, 0j)
    p = formal_params(2j, -1.0, 0.5 + 0.5j)
    assert p.lam4 == 1.0 and p.provenance == "formal"


@pytest.mark.parametrize("field", ["lam5", "lam6", "lam7"])
@pytest.mark.parametrize("bad", [float("nan"), complex(0.0, float("inf"))])
def test_formal_params_refuses_non_finite(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        formal_params(**{field: bad})


def test_omega_prime_expansion(cfg_square):
    # w' = -lam4*A_-2 + lam6*A_2 + 2*lam7*A_4 (factor-2 consistent with (w^2)' = 2ww')
    lam = lambda_coefficients(cfg_square)
    for z in random_points(cfg_square, 20, seed=40):
        lhs = point_frame(z, cfg_square)[2]
        rhs = (
            -lam.lam4 * basis_value(-2, z, cfg_square)
            + lam.lam6 * basis_value(2, z, cfg_square)
            + 2 * lam.lam7 * basis_value(4, z, cfg_square)
        )
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))
