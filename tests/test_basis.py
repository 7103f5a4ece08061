import numpy as np
import pytest

from conftest import ACCEPTANCE_CONFIGS, assert_close
from kntorus import basis
from kntorus.basis import (
    CIRCLE_NODES,
    WITT_PARAMS,
    PunctureCircle,
    basis_derivative,
    basis_value,
    formal_params,
    frame,
    frame_array,
    lambda_coefficients,
    out_puncture_order,
    pole_parameter,
    puncture_circle,
    puncture_circles,
    winding_order,
)
from kntorus.cocycle import pairing, pairing_residue_routes
from kntorus.config import TorusConfig
from kntorus.elliptic import half_period_values, wp_pair, wp_pair_array, wp_prime
from kntorus.errors import NonIntegerWindingError
from kntorus.propagation import omega_hat, residue_at
from kntorus.quadrature import circle_nodes
from kntorus.verify import random_points


def test_unit_and_omega(cfg_square):
    for z in random_points(cfg_square, 5, seed=31):
        assert basis_value(0, z, cfg_square) == 1.0
        assert_close(basis_value(-1, z, cfg_square), omega_hat(z, cfg_square), 1e-13)


def test_derivative_constant_is_zero(cfg_square):
    z = random_points(cfg_square, 1, seed=37)[0]
    assert basis_derivative(0, z, cfg_square) == 0.0


@pytest.mark.parametrize("k", range(-6, 7))
def test_derivative_vs_finite_difference(k, cfg_square):
    h = 1e-5
    for z in random_points(cfg_square, 5, seed=38):
        fd = (basis_value(k, z + h, cfg_square) - basis_value(k, z - h, cfg_square)) / (2 * h)
        an = basis_derivative(k, z, cfg_square)
        assert abs(fd - an) <= 1e-6 * max(1.0, abs(an))


def test_frame_is_bit_identical_to_direct_formulas(cfg_square, cfg_generic):
    # A_k and A_k' as computed before the frame: wp'' from a second wp call
    for cfg in (cfg_square, cfg_generic):
        p_q, g2 = pole_parameter(cfg), half_period_values(cfg).g2
        for z in random_points(cfg, 10, seed=41):
            p, dp = wp_pair(z, cfg)
            base = p - p_q
            w = -0.5 * dp / base
            p2 = wp_pair(z, cfg)[0]
            w_prime = -0.5 * ((6.0 * p2 * p2 - 0.5 * g2) * base - dp * dp) / (base * base)
            for k in range(-8, 9):
                if k % 2 == 0:
                    value = base ** (-k // 2)
                    derivative = k * w * value
                else:
                    value = w * base ** (-(k + 1) // 2)
                    derivative = (w_prime + (k + 1) * w * w) * base ** (-(k + 1) // 2)
                assert basis_value(k, z, cfg) == value
                assert basis_derivative(k, z, cfg) == derivative


def test_order_triples():
    # the order at the in-point 0 is k itself; these are the out-point orders
    # for k = -6..6, then those at the merged out-puncture of q = 0, which
    # the order_triples_vs_winding check compares with the winding numbers
    ks = range(-6, 7)
    assert [out_puncture_order(k) for k in ks] == [3, 1, 2, 0, 1, -1, 0, -2, -1, -3, -2, -4, -3]
    assert [out_puncture_order(k, True) for k in ks] == [6, 3, 4, 1, 2, -1, 0, -3, -2, -5, -4, -7, -6]


def _winding_orders(k, cfg):
    return tuple(winding_order(k, s, cfg) for s in cfg.punctures())


@pytest.mark.parametrize("cfg", ACCEPTANCE_CONFIGS, ids=lambda c: f"tau={c.tau},q={c.q}")
def test_winding_orders_match_triples_acceptance(cfg):
    for k in range(-6, 7):
        assert _winding_orders(k, cfg) == (k, out_puncture_order(k), out_puncture_order(k)), k


def test_winding_orders_two_point(cfg_two_point):
    # merged out-puncture carries order -k (even) or -k-2 (odd)
    for k in range(-5, 6):
        merged = -k if k % 2 == 0 else -k - 2
        assert _winding_orders(k, cfg_two_point) == (k, merged)


def test_winding_rejects_bad_contour(cfg_square, monkeypatch):
    # radius 0.5 around the origin passes through zeros of the odd basis
    # functions at the half periods, leaving a half-integer winding
    nodes = circle_nodes(0j, 0.5, CIRCLE_NODES)
    bad = PunctureCircle(0j, 0.5, nodes, *frame_array(nodes, cfg_square))
    monkeypatch.setattr(basis, "puncture_circles", lambda cfg: (bad,))
    with pytest.raises(NonIntegerWindingError):
        winding_order(3, 0j, cfg_square)


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
    with pytest.raises(ValueError, match="not a puncture"):
        winding_order(1, 0.25 + 0j, cfg_square)
    # each record holds its nodes and the frame there, read-only
    for c in circles:
        assert np.array_equal(c.nodes, circle_nodes(c.center, c.radius, CIRCLE_NODES))
        for cached, fresh in zip((c.base, c.w, c.w_prime), frame_array(c.nodes, cfg_square)):
            assert np.array_equal(cached, fresh)
        for cached in (c.nodes, c.base, c.w, c.w_prime):
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = 0


def test_one_frame_evaluation_per_puncture(monkeypatch):
    # every winding order, residue and pairing of a fresh configuration
    # reads the cached frame of its puncture circle
    calls = []

    def counting(z, cfg):
        calls.append(z.size)
        return wp_pair_array(z, cfg)

    monkeypatch.setattr(basis, "wp_pair_array", counting)
    cfg = TorusConfig(tau=0.07 + 1.13j, q=0.19 + 0.02j)
    for s in cfg.punctures():
        for k in range(-6, 7):
            winding_order(k, s, cfg)
        residue_at(s, cfg)
    for j in range(-6, 7):
        for k in range(-6, 7):
            pairing(j, k, cfg)
            pairing_residue_routes(j, k, cfg)
    assert calls == [CIRCLE_NODES] * len(cfg.punctures())


def test_lambda_derived_values(cfg_square):
    lam = lambda_coefficients(cfg_square)
    p_q = pole_parameter(cfg_square)
    hp = half_period_values(cfg_square)
    assert lam.lam4 == 1.0
    assert_close(lam.lam5, 3 * p_q, 1e-12 * abs(p_q))
    assert_close(
        lam.lam6,
        3 * p_q**2 - (hp.e2**2 + hp.e2 * hp.e3 + hp.e3**2),
        1e-10 * max(1.0, abs(lam.lam6)),
    )
    quarter_sq = 0.25 * wp_prime(0.5 + cfg_square.q, cfg_square) ** 2
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
        lhs = frame(z, cfg_square)[2]
        rhs = (
            -lam.lam4 * basis_value(-2, z, cfg_square)
            + lam.lam6 * basis_value(2, z, cfg_square)
            + 2 * lam.lam7 * basis_value(4, z, cfg_square)
        )
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))
