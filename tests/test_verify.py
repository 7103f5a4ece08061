import json
import math

import pytest

from conftest import ACCEPTANCE_CONFIGS, suite_checks
from kntorus import basis, cli, cocycle, config, elliptic, propagation, verify
from kntorus.config import CONFIG_CACHE_SIZE, TorusConfig
from kntorus.errors import QuadratureError
from kntorus.quadrature import segment_integral
from kntorus.verify import SUITES, CheckResult, verify_differential, verify_suite


# checks of laws that hold exactly in floating point: the residual is 0.0
EXACT_CHECKS = (
    "table_antisymmetry",
    "chi_antisymmetry",
    "chi_support",
    "chi_mixed_parity",
    "starred_q_vanishing_two_point",
)


@pytest.mark.parametrize(
    "cfg", [*ACCEPTANCE_CONFIGS, TorusConfig(tau=1j)], ids=lambda c: f"tau={c.tau},q={c.q}"
)
def test_every_check_passes(cfg):
    # perfbench's verify_all workload expects 40 (VERIFY_CHECK_COUNT), and
    # the two-point torus drops the two degeneration checks
    checks = suite_checks("all", cfg)
    assert len(checks) == (38 if cfg.two_point else 40), list(checks)
    failing = [c for c in checks.values() if not c.passed]
    assert not failing, failing
    for name in EXACT_CHECKS:
        assert checks[name].max_residual == 0.0, checks[name]


def test_all_suite_aggregates(cfg_square):
    per_suite = [c for name in SUITES for c in verify_suite(name, cfg_square, 4)]
    assert verify_suite("all", cfg_square, 4) == per_suite


def test_unknown_suite():
    with pytest.raises(ValueError):
        verify_suite("bogus", TorusConfig(tau=1j, q=0.2))


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
    ],
)
def test_time_check_passes_beside_a_puncture(tau, q):
    # in the first two geometries one segment of the check passes ~1e-3 from
    # a puncture and needs 2048 panels; in the third one passes 1.6e-5 from a
    # puncture, inside its exclusion disk, and is skipped
    checks = {c.name: c for c in verify_differential(TorusConfig(tau=tau, q=q))}
    assert checks["time_vs_line_integral"].passed, checks["time_vs_line_integral"]


def test_unconverged_quadrature_fails_its_check(cfg_square, monkeypatch):
    # the estimate is the converged value, so only the error can fail the checks
    def unconverged(f, z0, z1, tol=1e-12):
        raise QuadratureError("did not converge", estimate=segment_integral(f, z0, z1, tol))

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


def test_degenerate_two_point_time_fails_its_check(capsys):
    # on this thin lattice e1 and e2 agree to rounding, so the two-point
    # separation time is degenerate: the check fails, the run goes on
    code = cli.main(["verify", "all", "--tau-im", "0.06", "--window", "4"])
    out = capsys.readouterr().out

    def refuse(token):
        raise ValueError(f"not strict JSON: {token}")

    checks = {c["name"]: c for c in json.loads(out, parse_constant=refuse)["checks"]}
    assert code == 1 and len(checks) == 40
    assert all(math.isfinite(c["max_residual"]) for c in checks.values())
    mu = checks["mu_vs_separation_time"]
    assert mu["status"] == "fail" and mu["detail"] == "e2 coincides with wp(1/2+q)", mu


def test_config_caches_stay_bounded():
    # a process that runs many geometries keeps at most CONFIG_CACHE_SIZE
    # of each per-configuration cache
    caches = (
        config.reduced_basis,
        elliptic._series_constants,
        elliptic.half_period_values,
        basis.pole_parameter,
        basis.puncture_circles,
        basis.lambda_coefficients,
        propagation._reference_constant,
    )
    for n in range(50):
        cfg = TorusConfig(tau=complex(0.01 * n, 1.0), q=0.1 + 0.003 * n)
        basis.lambda_coefficients(cfg)
        propagation.residue_at(0j, cfg)
        propagation.time_coordinate(0.3 + 0.2j, cfg)
        cocycle.pairing(0, 0, cfg)
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize == CONFIG_CACHE_SIZE, cache
        assert 0 < info.currsize <= CONFIG_CACHE_SIZE, cache
