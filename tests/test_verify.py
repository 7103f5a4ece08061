import json
import math
import random
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import ACCEPTANCE_CONFIGS, bits, mark_distance, suite_checks
from kntorus import basis, cli, cocycle, config, elliptic, fock, propagation, verify
from kntorus.basis import frame_array, lambda_coefficients
from kntorus.config import CONFIG_CACHE_SIZE, TorusConfig
from kntorus.errors import DegenerateModuliError, QuadratureError
from kntorus.quadrature import segment_integral
from kntorus.verify import (
    SAMPLE_MARGIN,
    SUITES,
    WINDOWED_SUITES,
    CheckResult,
    random_points,
    verify_differential,
    verify_suite,
)


# perfbench's verify_all workload fails every op whose report does not hold
# this many checks; read from the harness's source, so that no bytecode is
# written beside it
HARNESS = Path(__file__).resolve().parents[1] / "perfbench" / "harness.py"
VERIFY_CHECK_COUNT = int(re.search(r"^VERIFY_CHECK_COUNT = (\d+)", HARNESS.read_text(), re.M).group(1))


def assert_battery_size(count: int, two_point: bool = False) -> None:
    """A three-point `verify all` holds the VERIFY_CHECK_COUNT checks that the
    benchmark pins; the two-point torus drops the two degeneration checks."""
    expected = VERIFY_CHECK_COUNT - 2 if two_point else VERIFY_CHECK_COUNT
    assert count == expected, (
        f"verify all gave {count} checks, but perfbench/harness.py pins VERIFY_CHECK_COUNT = "
        f"{VERIFY_CHECK_COUNT}: a change to the battery needs a benchmark change first"
    )


# the checks of a three-point `verify all`, in report order
BATTERY = (
    "wp_periodicity", "wp_parity", "wp_differential_equation", "wp_reduction_consistency", "half_period_sum",
    "omega_antisymmetry", "residue_triple", "residue_sum", "period_real_parts", "time_vs_line_integral",
    "mu_vs_separation_time",
    "even_product_law", "odd_product_law", "basis_parity", "derivative_vs_finite_difference",
    "order_triples_vs_winding", "omega_squared_expansion",
    "bracket_oracle_equivalence", "jacobi_identity", "table_antisymmetry", "grading_window", "support_parity",
    "degeneration_monotone", "degeneration_final_gap",
    "pairing_duality", "pairing_route_consistency", "chi_antisymmetry", "chi_support", "chi_mixed_parity",
    "witt_cocycle_values", "two_cocycle_identity", "starred_q_vanishing_two_point",
    "closed_form_reconciliation_reported",
    "clifford_relations", "normal_ordering_vacuum", "annihilation_side", "l_operator_linearity",
    "commutator_relation", "vacuum_cocycle_grounding", "wedge_state_canonical",
)


def test_battery_by_name(cfg_square, cfg_two_point):
    # the names and their order, not only their number: the two-point torus
    # drops the two degeneration checks
    assert_battery_size(len(BATTERY))
    assert tuple(c.name for c in verify_suite("all", cfg_square, 4)) == BATTERY
    two_point = tuple(n for n in BATTERY if n not in ("degeneration_monotone", "degeneration_final_gap"))
    assert tuple(c.name for c in verify_suite("all", cfg_two_point, 4)) == two_point


# tori of the degeneration ladder tests; on the thin one (0.06i) the two-point
# separation time is refused, since e2 and e1 agree to rounding
LADDER_TORI = [(1j, 0.2), (0.3 + 1.1j, 0.17 + 0.05j), (0.06j, 0.2), (0.5 + 0.5j, 0.2), (5j, 0.3)]


@pytest.mark.parametrize("tau, q", LADDER_TORI)
def test_degeneration_ladder_is_lambda_coefficients(tau, q):
    # the ladder reads p = wp(1/2 + q) on the torus's own lattice: the lam of
    # each rung are those of the configuration at that q, bit for bit, the
    # q = 0 rung (p = e1) included
    cfg = TorusConfig(tau=tau, q=q)
    rungs = [replace(cfg, q=qq) for qq in (0j, 1e-1, 1e-2, 1e-3)]
    expected = [[bits(complex(v)) for v in lambda_coefficients(c).as_tuple()] for c in rungs]
    assert [[bits(complex(v)) for v in ps.as_tuple()] for ps in verify.degeneration_ladder(cfg)] == expected


def test_degeneration_ladder_builds_no_configuration():
    # on a fresh three-point torus verify algebra and verify all read one
    # configuration: the q -> 0 end (the ladder's first rung, the two-point
    # separation time and the starred Q) is read on its lattice at p = e1
    caches = (elliptic.half_period_values, basis.lambda_coefficients)
    for suite, tau in (("algebra", 0.0123 + 1.0456j), ("all", 0.0234 + 1.0567j)):
        before = [cache.cache_info().misses for cache in caches]
        verify_suite(suite, TorusConfig(tau=tau, q=0.2), 6)
        assert [cache.cache_info().misses - b for cache, b in zip(caches, before)] == [1, 1], suite


@pytest.mark.parametrize("tau, q", [*LADDER_TORI, (0.5 + 1j, 0)])
def test_q_zero_end_is_the_two_point_torus(tau, q):
    # read at p = e1 on the torus's own lattice, the separation time (or its
    # refusal) and the lam are those of the q = 0 configuration, bit for bit
    cfg = TorusConfig(tau=tau, q=q)
    hp, two_point = elliptic.half_period_values(cfg), replace(cfg, q=0j)

    def outcome(separation):
        try:
            return separation().hex()
        except DegenerateModuliError as exc:
            return str(exc)

    assert outcome(lambda: hp.separation(hp.e1)) == outcome(lambda: propagation.separation_time(two_point))
    params0 = basis.params_from_differences(hp.e1, hp.differences(hp.e1))
    assert [bits(complex(v)) for v in params0.as_tuple()] == [
        bits(complex(v)) for v in lambda_coefficients(two_point).as_tuple()
    ]


# checks of laws that hold exactly in floating point: the residual is 0.0
EXACT_CHECKS = (
    "table_antisymmetry",
    "chi_antisymmetry",
    "chi_support",
    "chi_mixed_parity",
    "starred_q_vanishing_two_point",
)


@pytest.mark.parametrize(
    "cfg",
    [*ACCEPTANCE_CONFIGS, TorusConfig(tau=1j), TorusConfig(tau=0.2j, q=0.2), TorusConfig(tau=0.15j, q=0.2)],
    ids=lambda c: f"tau={c.tau},q={c.q}",
)
def test_every_check_passes(cfg):
    # on the thin lattices tau = 0.2i and 0.15i odd_product_law holds only
    # with lam6 taken from the differences p - e_k
    checks = suite_checks("all", cfg)
    assert_battery_size(len(checks), cfg.two_point)
    failing = [c for c in checks.values() if not c.passed]
    assert not failing, failing
    for name in EXACT_CHECKS:
        assert checks[name].max_residual == 0.0, checks[name]


def test_all_suite_aggregates(cfg_square):
    per_suite = [c for name in SUITES for c in verify_suite(name, cfg_square, 4)]
    assert verify_suite("all", cfg_square, 4) == per_suite


def test_unknown_suite():
    with pytest.raises(ValueError):
        verify_suite("bogus", TorusConfig(tau=1j, q=0.2), 6)


@pytest.mark.parametrize("suite", WINDOWED_SUITES)
@pytest.mark.parametrize("window", (None, 0, -1))
def test_windowed_suites_refuse_a_missing_or_small_window(suite, window):
    with pytest.raises(ValueError, match="window"):
        verify_suite(suite, TorusConfig(tau=1j, q=0.2), window)


def test_wedge_state_canonical_sees_a_shifted_view(cfg_square, monkeypatch):
    # vacant slots reported one slot too low are still sorted and below -1,
    # so only the round trip through WedgeState sees them
    vacant_below = fock.WedgeState.vacant_below
    shifted = property(lambda st: tuple(s - 1 for s in vacant_below.fget(st)))
    monkeypatch.setattr(fock.WedgeState, "vacant_below", shifted)
    check = {c.name: c for c in verify.verify_fock(cfg_square)}["wedge_state_canonical"]
    assert not check.passed and check.max_residual >= 1.0, check


@pytest.mark.parametrize(
    "pair, failing",
    [((1, 3), {"chi_support"}), ((1, 2), {"chi_support", "chi_mixed_parity"})],
)
def test_cocycle_support_checks_see_the_whole_window(cfg_square, monkeypatch, pair, failing):
    # a chi_sum value off the support levels, or at mixed parity, which the
    # support-only cocycle table never visits
    chi_sum = cocycle.chi_sum
    monkeypatch.setattr(
        cocycle, "chi_sum", lambda i, j, params: 1j if (i, j) == pair else chi_sum(i, j, params)
    )
    checks = {c.name: c for c in verify.verify_cocycle(cfg_square, 4)}
    assert {name for name in ("chi_support", "chi_mixed_parity") if not checks[name].passed} == failing
    assert checks["chi_support"].max_residual == 1.0


def test_check_reduces_its_residuals():
    # the maximum of any collection, 0.0 when there is none
    assert verify._check("x", [], 0.0) == CheckResult("x", "pass", 0.0, 0.0)
    assert verify._check("x", (r for r in ()), 0.0).passed
    assert verify._check("x", (r for r in (0.5, 2.0, 1.0)), 1.0).max_residual == 2.0
    # a NaN anywhere fails, however the residuals come
    nan = math.nan
    for residuals in ([nan, 0.5], (r for r in (0.5, nan)), np.array([[0.5, 0.1], [nan, 0.2]])):
        check = verify._check("x", residuals, 1.0)
        assert check.status == "fail" and math.isnan(check.max_residual), check
    # an error fails whatever the residuals, and is the detail
    check = verify._check("x", [0.0], 1.0, "did not converge")
    assert check.status == "fail" and check.detail == "did not converge"
    # numpy residuals are reported as a plain float
    for residuals in ([np.float64(0.25)], np.float64(0.25), np.full((2, 3), 0.25)):
        check = verify._check("x", residuals, 1.0)
        assert type(check.max_residual) is float and check.max_residual == 0.25


def test_nan_commutator_residual_fails_its_check(cfg_square, monkeypatch):
    # a worst-value loop kept max(worst, nan) == worst and passed
    residual, calls = fock.commutator_residual, []

    def nan_second(*args):
        calls.append(args)
        return math.nan if len(calls) == 2 else residual(*args)

    monkeypatch.setattr(fock, "commutator_residual", nan_second)
    check = {c.name: c for c in verify.verify_fock(cfg_square)}["commutator_relation"]
    assert len(calls) == 10
    assert check.status == "fail" and math.isnan(check.max_residual), check


def test_fock_suite_sweeps_each_distinct_state_once(cfg_square, monkeypatch):
    # 18 of the 30 drawn wedge states are distinct; a repeat would repeat its sweep
    residual, swept = fock.clifford_residual, []
    monkeypatch.setattr(fock, "clifford_residual", lambda state, bound: swept.append(state) or residual(state, bound))
    check = {c.name: c for c in verify.verify_fock(cfg_square)}["clifford_relations"]
    assert check.passed and len(swept) == len(set(swept)) == 18


def test_check_result_passed_property():
    good = CheckResult(name="x", status="pass", max_residual=0.0, tolerance=1.0)
    bad = CheckResult(name="x", status="fail", max_residual=2.0, tolerance=1.0)
    assert good.passed and not bad.passed


@pytest.mark.parametrize(
    "tau, q",
    [
        (0.13467594962923174 + 1.4250306337306076j, 0.22175815022078413 - 0.09734361074373614j),
        (-0.42795645893313183 + 0.9084632343037009j, 0.16666188774231883 - 0.0949892542583142j),
        (-0.4 + 0.15j, 0.15 + 0.05j),
        (20j, 0.4),
    ],
)
def test_time_check_passes_beside_a_puncture(tau, q):
    # in the first two geometries one segment of the check passes ~1e-3 from
    # a puncture, which doubling the panels of the whole segment settled only
    # at 2048; in the third one passes 1.6e-5 from a puncture, inside its
    # exclusion disk, and is skipped; in the tall fourth one, 18 long, passes
    # 1.7e-3 from one, which the doubling did not settle in 2048 panels
    checks = {c.name: c for c in verify_differential(TorusConfig(tau=tau, q=q))}
    assert checks["time_vs_line_integral"].passed, checks["time_vs_line_integral"]


def test_unconverged_quadrature_fails_its_check(cfg_square, monkeypatch):
    # the estimate is the converged value, so only the error can fail the checks
    def unconverged(f, segments, tol=1e-12):
        return [QuadratureError("did not converge", estimate=value) if isinstance(value, complex) else value
                for value in segment_integral(f, segments, tol)]

    expected = [c.name for c in verify_differential(cfg_square)]
    monkeypatch.setattr(verify, "segment_integral", unconverged)
    monkeypatch.setattr(propagation, "segment_integral", unconverged)
    checks = verify_differential(cfg_square)
    assert [c.name for c in checks] == expected
    for c in checks:
        unconverged_check = c.name in ("period_real_parts", "time_vs_line_integral")
        assert c.passed != unconverged_check, c
        assert c.max_residual <= c.tolerance, c
        assert c.detail == ("did not converge" if unconverged_check else ""), c


def test_differential_suite_packs_its_segments(cfg_square, monkeypatch):
    # the cycles and the time-check segments share their integrand calls at
    # each refinement level; one call per segment and level made 77
    calls = []

    def counting(z, cfg):
        calls.append(z.size)
        return frame_array(z, cfg)

    monkeypatch.setattr(basis, "frame_array", counting)
    monkeypatch.setattr(propagation, "frame_array", counting)
    assert all(c.passed for c in verify_differential(cfg_square))
    assert len(calls) <= 20, calls


def _random_points_one_at_a_time(cfg: TorusConfig, count: int, seed: int) -> list[complex]:
    """The rejection loop that random_points batches: one candidate a + b*tau
    at a time, kept when farther than SAMPLE_MARGIN, by exact lattice
    distance, from the punctures and both half periods tau/2 and (1 + tau)/2."""
    rng = random.Random(seed)
    tau = cfg.tau
    marks = (*cfg.punctures(), 0.5 * tau, 0.5 + 0.5 * tau)
    points = []
    while len(points) < count:
        a, b = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
        z = complex(a + b * tau.real, b * tau.imag)
        if mark_distance(z, marks, tau) > SAMPLE_MARGIN:
            points.append(z)
    return points


@pytest.mark.parametrize("count", [1, 25, 1025])
@pytest.mark.parametrize(
    "cfg",
    [
        TorusConfig(tau=1j, q=0.2),
        TorusConfig(tau=0.06j),
        TorusConfig(tau=20j, q=0.4),
        # |w1| = 0.117: the reduced-cell distance is exact only below 0.050 here
        TorusConfig(tau=0.1 + 0.06j, q=0.2),
    ],
    ids=lambda c: f"tau={c.tau},q={c.q}",
)
def test_random_points_are_the_rejection_loop(cfg, count):
    points = random_points(cfg, count, seed=302)
    expected = _random_points_one_at_a_time(cfg, count, seed=302)
    assert all(type(z) is complex for z in points)
    assert list(map(bits, points)) == list(map(bits, expected))
    marks = (*cfg.punctures(), 0.5 * cfg.tau, 0.5 + 0.5 * cfg.tau)
    assert min(mark_distance(z, marks, cfg.tau) for z in points) > SAMPLE_MARGIN


def test_basis_suite_reads_one_frame_array(cfg_square, monkeypatch):
    # the samples, their negatives and z +- h in one call, and no one-point view
    basis.puncture_circles(cfg_square)  # the winding orders' circle frames, cached
    calls = []
    monkeypatch.setattr(basis, "frame_array", lambda z, cfg: calls.append(z.size) or frame_array(z, cfg))
    for name in ("basis_value", "basis_derivative"):
        monkeypatch.setattr(basis, name, lambda *args: pytest.fail("a one-point frame evaluation"))
    assert all(c.passed for c in verify.verify_basis(cfg_square))
    assert calls == [4 * 40]


def test_degenerate_two_point_time_fails_its_check(capsys):
    # on this thin lattice e1 and e2 agree to rounding, so the two-point
    # separation time is degenerate: the check fails naming p = e1, the
    # value it refused, and the run goes on
    code = cli.main(["verify", "all", "--tau-im", "0.06", "--window", "4"])
    out = capsys.readouterr().out

    def refuse(token):
        raise ValueError(f"not strict JSON: {token}")

    checks = {c["name"]: c for c in json.loads(out, parse_constant=refuse)["checks"]}
    assert code == 1
    assert_battery_size(len(checks))
    assert all(math.isfinite(c["max_residual"]) for c in checks.values())
    mu = checks["mu_vs_separation_time"]
    assert mu["status"] == "fail" and mu["detail"] == "e2 coincides with e1", mu


def test_config_caches_stay_bounded():
    # a process that runs many geometries keeps at most CONFIG_CACHE_SIZE
    # of each per-configuration cache
    caches = (
        config.reduced_basis,
        elliptic.half_period_values,
        basis.puncture_circles,
        basis.lambda_coefficients,
    )
    for n in range(50):
        cfg = TorusConfig(tau=complex(0.01 * n, 1.0), q=0.1 + 0.003 * n)
        basis.lambda_coefficients(cfg)
        propagation.residue_at(0j, cfg)
        propagation.time_coordinate(0.3 + 0.2j, cfg)
        cocycle.pairing(cfg, 0)
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize == CONFIG_CACHE_SIZE, cache
        assert 0 < info.currsize <= CONFIG_CACHE_SIZE, cache
