import cmath
import math

import numpy as np
import pytest

from conftest import assert_close, reduced_distance
from kntorus import propagation, quadrature
from kntorus.basis import CIRCLE_NODES, _point_frame, frame_array, pole_parameter, puncture_circle
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
        assert abs(_point_frame(z, cfg_square)[2] - fd) <= 1e-5 * max(1.0, abs(fd))


def test_residue_bad_contour(cfg_square):
    with pytest.raises(ValueError, match="not a puncture"):
        residue_at(0.25 + 0j, cfg_square)
    # the out-point circles of |q| = 1.05e-4 would lie inside the exclusion disks
    with pytest.raises(BadContourError, match="q="):
        residue_at(0j, TorusConfig(tau=1j, q=0.000105))


def test_degenerate_moduli_error():
    # on this thin lattice e2 equals e1 = p to rounding
    with pytest.raises(DegenerateModuliError):
        separation_time(TorusConfig(tau=0.06j))
    # q = tau/2 or (1+tau)/2 would merge the out-punctures at the other half period
    for q in (0.5j, 0.5 + 0.5j):
        with pytest.raises(ValueError) as err:
            TorusConfig(tau=1j, q=q)
        assert str(err.value).startswith(f"q={q} is within"), err.value


def test_cycles_avoid_every_puncture():
    # at each of these q a puncture lies on the line a = 0.17 or b = 0.17
    for q in (-0.33, 0.17j, 0.1 + 0.17j):
        pa, pb = period_real_parts(TorusConfig(tau=1j, q=q))
        assert abs(pa) < 1e-8 and abs(pb) < 1e-8
    # on this thin lattice no line of either direction clears the punctures by 1e-3
    cfg = TorusConfig(tau=0.5 + 0.0034j, q=0.1 + 0.0034j / 3)
    with pytest.raises(PoleOnPathError, match="pass 0.000567 from a puncture"):
        period_real_parts(cfg)


def test_period_cycle_override(cfg_square, monkeypatch):
    # other representatives of the same cycles give the same periods
    tau = cfg_square.tau
    segments = ((0.23 * tau, 1 + 0.23 * tau), (0.11 + 0j, 0.11 + tau))
    monkeypatch.setattr(propagation, "_cycle_segments", lambda cfg: (segments, 0.1))
    pa, pb = period_real_parts(cfg_square)
    assert abs(pa) < 1e-8 and abs(pb) < 1e-8


def test_time_reference_point(cfg_square):
    ref = 0.25 * (1 + cfg_square.tau)
    assert abs(time_coordinate(ref, cfg_square)) < 1e-12


def test_time_logarithmic_near_in_point(cfg_square):
    # t ~ ln r + const on small circles around the in-point
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
    (value,) = segment_integral(lambda z: frame_array(z, cfg)[1], [(z0, z1)], tol=math.inf)
    assert abs(value - ref) <= 1e-13 * max(1.0, abs(ref))


# a segment of verify_differential at this geometry passes ~1e-3 from a
# puncture: the panel doubling settles only at 2048 panels
BESIDE_CFG = TorusConfig(
    tau=0.13467594962923174 + 1.4250306337306076j,
    q=0.22175815022078413 - 0.09734361074373614j,
)
BESIDE_SEGMENT = (0.28338005960397716 + 0.20631700547251255j, 0.250319941597631 - 0.43032708847071405j)


def _counted_omega(cfg, calls):
    def omega(z):
        calls.append(z.size)
        return frame_array(z, cfg)[1]

    return omega


def test_time_line_integral_beside_a_puncture(monkeypatch):
    z0, z1 = BESIDE_SEGMENT
    omega = lambda z: frame_array(z, BESIDE_CFG)[1]  # noqa: E731
    with monkeypatch.context() as m:
        m.setattr(quadrature, "MAX_PANELS", 1024)
        (unconverged,) = segment_integral(omega, [(z0, z1)])
        assert isinstance(unconverged, QuadratureError) and "in 1024 panels" in str(unconverged)
    lhs = time_coordinate(z1, BESIDE_CFG) - time_coordinate(z0, BESIDE_CFG)
    assert abs(lhs - segment_integral(omega, [(z0, z1)])[0].real) < 1e-7


def test_batched_segments_match_single_segments():
    # the short segment settles at 2 panels, the other at 2048: packed into
    # one call, each keeps its own value bit for bit, and the short one
    # rides along in the long one's first two integrand calls
    short = (0.1 + 0.3j, 0.5 + 0.6j)
    alone, calls = [], []
    for seg in (short, BESIDE_SEGMENT):
        calls.append([])
        alone.extend(segment_integral(_counted_omega(BESIDE_CFG, calls[-1]), [seg]))
    # one call at each of 1 to 32 panels, then 64 panels (1024 nodes) per call up to 2048
    assert len(calls[0]) == 2 and len(calls[1]) == 6 + 1 + 2 + 4 + 8 + 16 + 32
    packed_calls = []
    packed = segment_integral(_counted_omega(BESIDE_CFG, packed_calls), [short, BESIDE_SEGMENT])
    assert packed == alone
    assert len(packed_calls) == len(calls[1])
    assert packed_calls[:2] == [32, 64] and max(packed_calls) == quadrature.GRID_CHUNK


def test_batched_segments_keep_their_own_outcomes(monkeypatch):
    # one call holds a segment passing 1e-5 from a puncture, inside its
    # exclusion disk, the unconverged segment and a plain one
    s = BESIDE_CFG.punctures()[2]
    through = (s - 0.1 + 1e-5j, s + 0.1 + 1e-5j)
    plain = (0.1 + 0.3j, 0.5 + 0.6j)
    omega = lambda z: frame_array(z, BESIDE_CFG)[1]  # noqa: E731
    monkeypatch.setattr(quadrature, "MAX_PANELS", 1024)
    skipped, unconverged, value = segment_integral(omega, [through, BESIDE_SEGMENT, plain])
    assert isinstance(skipped, PoleProximityError)
    assert "inside a puncture exclusion disk" in str(skipped)
    assert value == segment_integral(omega, [plain])[0]
    # the message and estimate of the one-segment-at-a-time doubling
    assert isinstance(unconverged, QuadratureError)
    assert str(unconverged) == (
        "segment [(0.28338005960397716+0.20631700547251255j), (0.250319941597631-0.43032708847071405j)] "
        "did not converge in 1024 panels: the last two estimates differ by 2.84e-11 > 2.84e-12"
    )
    assert unconverged.estimate == -0.4054986798045016 - 2.806408208191705j


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


def test_level_lines_far_level_has_no_crossing(cfg_square):
    # t - u is about -+1e300 at every node: its sign decides, not an overflowing product
    for u in (1e300, -1e300):
        assert level_line_samples(cfg_square, u, 16).points == ()


def test_level_line_bisection_raises_when_unconverged(cfg_square, monkeypatch):
    # a sign change with no zero: the bisection narrows onto Re z = 0.1 but
    # |t - u| stays 1, so it must report the edge instead of returning it
    monkeypatch.setattr(
        propagation, "_time_array", lambda z, cfg: np.where(z.real > 0.1, 1.0, -1.0)
    )
    with pytest.raises(BisectionError) as err:
        level_line_samples(cfg_square, 0.0, 16)
    message = str(err.value)
    assert "grid edge [" in message and "|t - u| = 1 >" in message


def test_level_line_weight_off_the_edge_falls_back_to_its_middle(cfg_square, monkeypatch):
    # f = -1 left of Re z = 0.1 and 1e-20 right of it: w = 1 / (1 + 1e-20)
    # rounds to 1, which would put the trial point on the right node; the
    # edge [0.0625, 0.125] is halved instead, twice
    monkeypatch.setattr(
        propagation, "_time_array", lambda z, cfg: np.where(z.real > 0.1, 1e-20, -1.0)
    )
    points = level_line_samples(cfg_square, 0.0, 16).points
    assert len(points) == 17
    assert {p.real for p in points} == {0.109375}


def _level_lines_scalar(cfg: TorusConfig, u: float, resolution: int) -> tuple[complex, ...]:
    """The scan edge by edge: time_coordinate at every grid node from one
    array call, then each crossing edge refined by its own scalar Illinois
    false position recurrence on (z0, f0, z1, f1, kept end) with f = t - u,
    the open edges' trial points timed by one array call per step; points
    in row-major order, horizontal edge first.  The oracle for
    level_line_samples."""
    tau, punctures = cfg.tau, cfg.punctures()
    n = resolution
    coords = [-0.5 + k / n for k in range(n + 1)]

    def node(ai: int, bi: int) -> complex:
        return complex(coords[ai] + coords[bi] * tau.real, coords[bi] * tau.imag)

    keys = [
        (ai, bi)
        for bi in range(n + 1)
        for ai in range(n + 1)
        if reduced_distance(node(ai, bi), punctures, tau) > 4.0 * EXCLUSION_RADIUS
    ]
    times = time_coordinate(np.array([node(*key) for key in keys]), cfg)
    fvals = {key: t - u for key, t in zip(keys, times.tolist())}
    # each crossing edge's (z0, f0, z1, f1, kept end), in scan order
    edges = [
        (node(ai, bi), fvals[ai, bi], node(aj, bj), fvals[aj, bj], None)
        for bi in range(n + 1)
        for ai in range(n + 1)
        for aj, bj in ((ai + 1, bi), (ai, bi + 1))
        if (ai, bi) in fvals and (aj, bj) in fvals and fvals[ai, bi] * fvals[aj, bj] < 0
    ]
    points: dict[int, complex] = {}
    open_ = dict(enumerate(edges))
    for _ in range(propagation.BISECTION_STEPS):
        trials = {}
        for i, (z0, f0, z1, f1, _) in open_.items():
            w = f0 / (f0 - f1)
            w = w if 0.0 < w < 1.0 else 0.5
            trials[i] = complex(z0.real + w * (z1.real - z0.real), z0.imag + w * (z1.imag - z0.imag))
        open_ = {i: e for i, e in open_.items() if reduced_distance(trials[i], punctures, tau) > EXCLUSION_RADIUS}
        fms = (time_coordinate(np.array([trials[i] for i in open_]), cfg) - u).tolist() if open_ else []
        for (i, (z0, f0, z1, f1, kept)), fm in zip(list(open_.items()), fms):
            zm = trials[i]
            if abs(fm) <= cfg.tol:
                points[i] = zm
                del open_[i]
            elif (fm > 0) == (f0 > 0):
                open_[i] = (zm, fm, z1, 0.5 * f1 if kept == 1 else f1, 1)
            else:
                open_[i] = (z0, 0.5 * f0 if kept == 0 else f0, zm, fm, 0)
    if open_:
        raise BisectionError(f"edge {open_[min(open_)]} did not converge")
    return tuple(points[i] for i in sorted(points))


LEVEL_LINE_CFGS = (
    TorusConfig(tau=1j, q=0.2),
    TorusConfig(tau=-0.4 + 0.93j, q=0.15 + 0.05j),
    TorusConfig(tau=0.3 + 1.1j, q=0),
)
LEVEL_LINE_IDS = ("square", "skewed", "two_point")
LEVEL_LINE_CASES = list(zip(LEVEL_LINE_CFGS, ((-0.45, 0.3), (-0.2, 0.6), (0.0, 0.8))))


@pytest.mark.parametrize("resolution", [32, 64])
@pytest.mark.parametrize("cfg, levels", LEVEL_LINE_CASES, ids=LEVEL_LINE_IDS)
def test_level_lines_match_scalar_scan(cfg, levels, resolution):
    for u in levels:
        expected = _level_lines_scalar(cfg, u, resolution)
        assert expected
        assert level_line_samples(cfg, u, resolution).points == expected


@pytest.mark.parametrize("resolution", [32, 64])
@pytest.mark.parametrize("cfg, levels", LEVEL_LINE_CASES, ids=LEVEL_LINE_IDS)
def test_level_lines_step_budget(cfg, levels, resolution, monkeypatch):
    # false position settles every edge in a few lockstep steps, where
    # halving a grid edge down to |t - u| <= 1e-10 takes about 30
    calls = []
    time_array = propagation._time_array

    def counted(z, c):
        calls.append(z.size)
        return time_array(z, c)

    monkeypatch.setattr(propagation, "_time_array", counted)
    chunks = -(-((resolution + 1) ** 2) // quadrature.GRID_CHUNK)
    for u in levels:
        calls.clear()
        assert level_line_samples(cfg, u, resolution).points
        assert len(calls) <= chunks + 12, (u, len(calls) - chunks)


@pytest.mark.parametrize("cfg", LEVEL_LINE_CFGS, ids=LEVEL_LINE_IDS)
def test_level_line_points_lie_on_grid_edges(cfg):
    # a point on a horizontal edge keeps its row's Im z exactly; one on a
    # vertical edge keeps its column's lattice coordinate Re z - Im z Re tau / Im tau
    n = 64
    tau = cfg.tau
    rows = {(-0.5 + k / n) * tau.imag for k in range(n + 1)}
    columns = np.array([-0.5 + k / n for k in range(n + 1)])
    for u in (-0.45, 0.0, 0.6):
        points = level_line_samples(cfg, u, n).points
        assert points
        for p in points:
            if p.imag not in rows:
                a = p.real - p.imag * tau.real / tau.imag
                assert np.min(np.abs(a - columns)) <= 1e-12, p


@pytest.mark.parametrize("cfg", LEVEL_LINE_CFGS, ids=LEVEL_LINE_IDS)
def test_time_coordinate_is_its_array_entry(cfg):
    # a complex goes through a one-entry array: its time equals its entry in
    # array calls of length 1, 7 and 1025 bit for bit
    pts = np.array(random_points(cfg, 1025, seed=7))
    times = time_coordinate(pts, cfg)
    assert times.shape == pts.shape
    for short in (pts[:1], pts[:7]):
        assert time_coordinate(short, cfg).tolist() == times[: short.size].tolist()
    scalars = [time_coordinate(complex(z), cfg) for z in pts]
    assert all(type(t) is float for t in scalars)
    assert scalars == times.tolist()


def test_segment_integral_reports_unconverged():
    # 1/(z - 0.3)^2 is not integrable across 0.3: refining never settles
    (err,) = segment_integral(lambda z: 1.0 / (z - 0.3) ** 2, [(0j, 1 + 0j)])
    assert isinstance(err, QuadratureError)
    message = str(err)
    assert "segment [0j, (1+0j)]" in message and "in 2048 panels" in message
    assert "estimates differ by" in message
    assert abs(err.estimate) > 1e3
