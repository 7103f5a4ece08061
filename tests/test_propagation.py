import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_close
from kntorus import propagation, quadrature
from kntorus.basis import CIRCLE_NODES, frame, frame_array, pole_parameter, puncture_circle
from kntorus.config import EXCLUSION_RADIUS, TorusConfig
from kntorus.elliptic import half_period_values, wp_pair
from kntorus.errors import (
    BadContourError,
    BisectionError,
    DegenerateModuliError,
    PoleOnPathError,
    PoleProximityError,
    QuadratureError,
)
from kntorus.propagation import (
    level_line_samples,
    mu_modulus,
    omega_hat,
    period_real_parts,
    residue_at,
    separation_time,
    time_coordinate,
)
from kntorus.quadrature import segment_integral
from kntorus.verify import random_points


def test_omega_zero_at_half_periods(cfg_square, cfg_generic):
    for cfg in (cfg_square, cfg_generic):
        tau = cfg.tau
        assert abs(omega_hat(0.5 * tau, cfg)) < 1e-10
        assert abs(omega_hat(0.5 + 0.5 * tau, cfg)) < 1e-10


def test_omega_two_point_form(cfg_two_point):
    hp = half_period_values(cfg_two_point)
    for z in random_points(cfg_two_point, 10, seed=22):
        p, dp = wp_pair(z, cfg_two_point)
        assert_close(omega_hat(z, cfg_two_point), -0.5 * dp / (p - hp.e1), 1e-12 * abs(dp))


def test_omega_prime_vs_finite_difference(cfg_square):
    h = 1e-5
    for z in random_points(cfg_square, 6, seed=23):
        fd = (omega_hat(z + h, cfg_square) - omega_hat(z - h, cfg_square)) / (2 * h)
        assert abs(frame(z, cfg_square)[2] - fd) <= 1e-5 * max(1.0, abs(fd))


def test_residue_bad_contour(cfg_square):
    with pytest.raises(ValueError, match="not a puncture"):
        residue_at(0.25 + 0j, cfg_square)
    # the out-point circles of |q| = 1.05e-4 would lie inside the exclusion disks
    with pytest.raises(BadContourError, match="q="):
        residue_at(0j, TorusConfig(tau=1j, q=0.000105))


def test_degenerate_moduli_error():
    # q = tau/2 merges the out-punctures at (1+tau)/2, where wp equals e2
    cfg = TorusConfig(tau=1j, q=0.5j)
    with pytest.raises(DegenerateModuliError):
        separation_time(cfg)


def test_pole_on_cycle_path():
    # 1/2 + q sits on the b-cycle representative through 0.17
    cfg = TorusConfig(tau=1j, q=-0.33)
    with pytest.raises(PoleOnPathError):
        period_real_parts(cfg)


def test_pole_between_segment_samples(cfg_square, monkeypatch):
    # the segment passes 5e-4 beside the puncture 0.7, which sits halfway
    # between two of 65 equispaced points of the segment (~5e-3 from both)
    x = 0.7 + 5e-4
    y0 = -32.5 * 0.65 / 64
    segment = (complex(x, y0), complex(x, y0 + 0.65))
    monkeypatch.setattr(propagation, "_cycle_segments", lambda cfg: (segment, segment))
    with pytest.raises(PoleOnPathError, match="passes too close to a puncture"):
        period_real_parts(cfg_square)


def test_period_cycle_override(cfg_square, monkeypatch):
    # other representatives of the same cycles give the same periods
    tau = cfg_square.tau
    segments = ((0.23 * tau, 1 + 0.23 * tau), (0.11 + 0j, 0.11 + tau))
    monkeypatch.setattr(propagation, "_cycle_segments", lambda cfg: segments)
    pa, pb = period_real_parts(cfg_square)
    assert abs(pa) < 1e-8 and abs(pb) < 1e-8


def test_time_reference_point(cfg_square):
    ref = 0.25 * (1 + cfg_square.tau)
    assert abs(time_coordinate(ref, cfg_square)) < 1e-12


def test_time_logarithmic_near_in_point(cfg_square):
    # t ~ ln r + const on small circles around the in-point
    import cmath

    vals = []
    for r in (1e-2, 2e-2):
        for theta in (0.3, 2.1, 4.4):
            z = r * cmath.exp(1j * theta)
            vals.append(time_coordinate(z, cfg_square) - math.log(r))
    spread = max(vals) - min(vals)
    assert spread < 5e-3


def test_array_quadrature_matches_scalar_loops(cfg_generic):
    # the node-by-node scalar sums that the array rules replaced; only the
    # order of summation differs
    cfg = cfg_generic
    n = CIRCLE_NODES
    for center in cfg.punctures():
        radius = puncture_circle(center, cfg).radius
        nodes = [center + radius * cmath.exp(2j * math.pi * k / n) for k in range(n)]
        ref = sum(omega_hat(z, cfg) * (z - center) for z in nodes) / n
        assert abs(residue_at(center, cfg) - ref) <= 1e-13
    z0, z1 = 0.1 + 0.2j, 0.35 - 0.3j
    x, weights = np.polynomial.legendre.leggauss(16)
    ref = sum(
        w * omega_hat(z0 + ((p + 0.5) / 2 + 0.25 * t) * (z1 - z0), cfg)
        for p in range(2)
        for t, w in zip(x, weights)
    ) * (z1 - z0) * 0.25
    # with tol = inf the doubling stops at its first refinement, 2 panels
    value = segment_integral(lambda z: frame_array(z, cfg)[1], z0, z1, tol=math.inf)
    assert abs(value - ref) <= 1e-13 * max(1.0, abs(ref))


def test_time_line_integral_beside_a_puncture(monkeypatch):
    # a segment of verify_differential at this geometry passes ~1e-3 from a
    # puncture: the panel doubling settles only at 2048 panels
    cfg = TorusConfig(
        tau=0.13467594962923174 + 1.4250306337306076j,
        q=0.22175815022078413 - 0.09734361074373614j,
    )
    z0, z1 = 0.28338005960397716 + 0.20631700547251255j, 0.250319941597631 - 0.43032708847071405j
    omega = lambda z: frame_array(z, cfg)[1]  # noqa: E731
    with monkeypatch.context() as m:
        m.setattr(quadrature, "MAX_PANELS", 1024)
        with pytest.raises(QuadratureError, match="in 1024 panels"):
            segment_integral(omega, z0, z1)
    lhs = time_coordinate(z1, cfg) - time_coordinate(z0, cfg)
    assert abs(lhs - segment_integral(omega, z0, z1).real) < 1e-7


def test_time_between_interaction_points(cfg_square):
    tau = cfg_square.tau
    d = time_coordinate(0.5 * tau, cfg_square) - time_coordinate(0.5 + 0.5 * tau, cfg_square)
    assert_close(d, -separation_time(cfg_square), 1e-10)


def test_separation_time_half_real_tau():
    cfg = TorusConfig(tau=0.5 + 1.0j, q=0)
    assert abs(separation_time(cfg)) < 1e-8


def test_separation_time_continuity(cfg_two_point):
    base = separation_time(cfg_two_point)
    diffs = [
        abs(separation_time(TorusConfig(tau=1j, q=q)) - base) for q in (1e-1, 1e-2, 1e-3)
    ]
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[2] < 1e-4


@pytest.mark.parametrize("y", [0.8, 1.0, 1.3])
def test_mu_on_unit_circle_line(y):
    m = mu_modulus(TorusConfig(tau=0.5 + 1j * y, q=0))
    assert abs(m.abs_mu - 1.0) < 1e-8


def test_mu_square_lattice(cfg_two_point):
    m = mu_modulus(cfg_two_point)
    assert_close(m.mu, 0.5, 1e-10)
    assert_close(m.separation_time_two_point, separation_time(cfg_two_point), 1e-10)


def test_pole_parameter(cfg_square, cfg_two_point):
    assert_close(pole_parameter(cfg_square), wp_pair(0.7, cfg_square)[0], 1e-12)
    assert pole_parameter(cfg_two_point) == half_period_values(cfg_two_point).e1


def test_pole_proximity(cfg_square):
    with pytest.raises(PoleProximityError):
        omega_hat(0.7 + 1e-6j, cfg_square)
    with pytest.raises(PoleProximityError):
        time_coordinate(1e-6, cfg_square)


def test_level_lines_near_in_point(cfg_square):
    u = time_coordinate(0.012 + 0.003j, cfg_square)
    sample = level_line_samples(cfg_square, u, 96)
    assert sample.points
    assert max(abs(p) for p in sample.points) < 2e-2


def test_level_lines_near_out_points(cfg_square):
    u = time_coordinate(0.708, cfg_square)
    sample = level_line_samples(cfg_square, u, 96)
    assert sample.points
    for p in sample.points:
        d = min(abs(p - 0.7), abs(p - 0.3), abs(p - 0.7 + 1.0), abs(p - 0.3 + 1.0))
        assert d < 2e-2


def test_level_line_through_saddle(cfg_square):
    tau = cfg_square.tau
    u = time_coordinate(0.5 * tau, cfg_square)
    sample = level_line_samples(cfg_square, u, 64)
    assert sample.points
    assert min(abs(p - 0.5 * tau) for p in sample.points) < 2.0 / 64


def test_level_lines_accuracy_and_determinism(cfg_square):
    s1 = level_line_samples(cfg_square, 0.0, 32)
    s2 = level_line_samples(cfg_square, 0.0, 32)
    assert s1.points == s2.points
    for p in s1.points:
        assert abs(time_coordinate(p, cfg_square)) <= cfg_square.tol


def test_level_lines_resolution_guard(cfg_square):
    with pytest.raises(ValueError):
        level_line_samples(cfg_square, 0.0, 8)


@pytest.mark.parametrize("u", [float("nan"), float("inf")])
def test_level_lines_refuse_non_finite_u(cfg_square, u):
    with pytest.raises(ValueError, match="u must be finite"):
        level_line_samples(cfg_square, u, 16)


def test_level_line_bisection_raises_when_unconverged(cfg_square, monkeypatch):
    # a sign change with no zero: the bisection narrows onto Re z = 0.1 but
    # |t - u| stays 1, so it must report the edge instead of returning it
    monkeypatch.setattr(
        propagation, "time_coordinate", lambda z, cfg: 1.0 if z.real > 0.1 else -1.0
    )
    with pytest.raises(BisectionError) as err:
        level_line_samples(cfg_square, 0.0, 16)
    message = str(err.value)
    assert "grid edge [" in message and "|t - u| = 1 >" in message


def _level_lines_scalar(cfg: TorusConfig, u: float, resolution: int) -> tuple[complex, ...]:
    """The scan point by point: time_coordinate at every grid node, then each
    crossing edge bisected on its own, in row-major order, horizontal edge
    first.  The oracle for level_line_samples."""
    tau = cfg.tau
    n = resolution
    coords = [-0.5 + k / n for k in range(n + 1)]

    def node(ai: int, bi: int) -> complex:
        return complex(coords[ai] + coords[bi] * tau.real, coords[bi] * tau.imag)

    tvals = {}
    for bi in range(n + 1):
        for ai in range(n + 1):
            z = node(ai, bi)
            if cfg.distance_to_punctures(z) > 4.0 * EXCLUSION_RADIUS:
                tvals[(ai, bi)] = time_coordinate(z, cfg)

    def bisect(z0, t0, z1):
        for _ in range(propagation.BISECTION_STEPS):
            zm = 0.5 * (z0 + z1)
            if cfg.distance_to_punctures(zm) <= EXCLUSION_RADIUS:
                return None
            tm = time_coordinate(zm, cfg) - u
            if abs(tm) <= cfg.tol:
                return zm
            if (t0 - u) * tm <= 0:
                z1 = zm
            else:
                z0, t0 = zm, tm + u
        raise BisectionError(f"edge [{z0}, {z1}] did not converge")

    points = []
    for bi in range(n + 1):
        for ai in range(n + 1):
            t0 = tvals.get((ai, bi))
            for aj, bj in ((ai + 1, bi), (ai, bi + 1)):
                t1 = tvals.get((aj, bj))
                if t0 is not None and t1 is not None and (t0 - u) * (t1 - u) < 0:
                    pt = bisect(node(ai, bi), t0, node(aj, bj))
                    if pt is not None:
                        points.append(pt)
    return tuple(points)


@pytest.mark.parametrize("resolution", [32, 64])
@pytest.mark.parametrize(
    "cfg, levels",
    [
        (TorusConfig(tau=1j, q=0.2), (-0.45, 0.3)),
        (TorusConfig(tau=-0.4 + 0.93j, q=0.15 + 0.05j), (-0.2, 0.6)),
        (TorusConfig(tau=0.3 + 1.1j, q=0), (0.0, 0.8)),
    ],
    ids=["square", "skewed", "two_point"],
)
def test_level_lines_match_scalar_scan(cfg, levels, resolution):
    for u in levels:
        expected = _level_lines_scalar(cfg, u, resolution)
        assert expected
        assert level_line_samples(cfg, u, resolution).points == expected


def test_segment_integral_raises_when_unconverged():
    # 1/(z - 0.3)^2 is not integrable across 0.3: refining never settles
    with pytest.raises(QuadratureError) as err:
        segment_integral(lambda z: 1.0 / (z - 0.3) ** 2, 0j, 1 + 0j)
    message = str(err.value)
    assert "segment [0j, (1+0j)]" in message and "in 2048 panels" in message
    assert "estimates differ by" in message
    assert abs(err.value.estimate) > 1e3


@settings(max_examples=200, deadline=None)
@given(
    tau=st.builds(complex, st.floats(-1.0, 1.0), st.floats(0.05, 0.5)),
    q=st.builds(complex, st.floats(-0.5, 0.5), st.floats(-0.3, 0.3)),
    z0=st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    step=st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
)
@example(tau=0.125 + 0.0625j, q=0j, z0=0.5 + 0j, step=0j)
def test_segment_distance_exact_on_skewed_lattices(tau, q, z0, step):
    # against every translate with lattice coordinates up to 60, which holds
    # the nearest one to every segment drawn: the search may not depend on
    # which cell a reduction puts a puncture in
    try:
        cfg = TorusConfig(tau=tau, q=q)
    except ValueError:
        cfg = TorusConfig(tau=tau)
    z1 = z0 + step
    cells = np.arange(-60, 61)
    points = np.add.outer(np.array(cfg.punctures()), (cells[:, None] + cells[None, :] * cfg.tau).ravel()).ravel()
    t = np.clip(((points - z0) * step.conjugate()).real / max(abs(step) ** 2, 1e-300), 0.0, 1.0)
    exact = float(np.abs(z0 + t * step - points).min())
    if exact < 0.01:
        assert math.isclose(propagation._min_distance_segment(z0, z1, cfg), exact, rel_tol=1e-9, abs_tol=1e-15)
