"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
A criterion that a verify check covers reads that check: the check must
pass, and its residual must also meet the tolerance pinned here, so a
loosened suite tolerance cannot loosen the gate.  Criteria that sample
more than their suite keep their own sweeps.  Tolerances are pinned here
and never relaxed at runtime.
"""

import random
import time

import numpy as np

from conftest import ACCEPTANCE_CONFIGS, LN2_OVER_2, suite_checks
from kntorus.basis import WITT_PARAMS, basis_value, lambda_coefficients
from kntorus.cocycle import (
    DEFAULT_SIGN_CONVENTION,
    STARRED_Q_KEYS,
    build_cocycle_table,
    chi_closed,
    chi_sum,
    pairing,
    q_values,
    reconciliation_report,
)
from kntorus.config import TorusConfig
from kntorus.fock import clifford_residual, commutator_residual
from kntorus.propagation import mu_modulus, omega_hat, residue_at, separation_time
from kntorus.verify import random_points, random_wedge_state

_SUITE_START = time.time()

CFG_MAIN = TorusConfig(tau=1j, q=0.2)


def _report(num: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance {num:02d}] {status} - {detail}")
    assert passed, f"criterion {num}: {detail}"


def _within(tol: float, *checks) -> bool:
    """Every check passed its suite with a residual within the pinned tol."""
    return all(c.passed and c.max_residual <= tol for c in checks)


def test_criterion_01_residues():
    worst = 0.0
    slowest = 0.0
    for cfg in ACCEPTANCE_CONFIGS:
        start = time.time()
        r0, r1, r2 = (residue_at(s, cfg) for s in cfg.punctures())
        slowest = max(slowest, time.time() - start)
        worst = max(worst, abs(r0 - 1.0), abs(r1 + 0.5), abs(r2 + 0.5))
    _report(
        1,
        worst <= 1e-8 and slowest < 1.0,
        f"residues (+1,-1/2,-1/2): worst {worst:.2e} (tol 1e-8), slowest config {slowest:.2f}s (< 1s)",
    )


def test_criterion_02_imaginary_periods():
    checks = [suite_checks("differential", cfg)["period_real_parts"] for cfg in ACCEPTANCE_CONFIGS]
    worst = max(c.max_residual for c in checks)
    _report(2, _within(1e-8, *checks), f"cycle period real parts: worst {worst:.2e} (tol 1e-8)")


def test_criterion_03_separation_time_and_mu():
    sep = separation_time(TorusConfig(tau=1j, q=0))
    sep_err = abs(sep - LN2_OVER_2)
    mu_err = max(
        abs(abs(mu_modulus(TorusConfig(tau=0.5 + 1j * y, q=0))) - 1.0)
        for y in (0.8, 1.0, 1.3)
    )
    _report(
        3,
        sep_err <= 1e-10 and mu_err <= 1e-8,
        f"separation time ln(2)/2: err {sep_err:.2e} (tol 1e-10); |mu|=1 on Re tau=1/2: err {mu_err:.2e} (tol 1e-8)",
    )


def test_criterion_04_omega_squared_expansion():
    worst = 0.0
    for cfg in (CFG_MAIN, TorusConfig(tau=0.3 + 1.1j, q=0.17 + 0.05j)):
        lam = lambda_coefficients(cfg)
        for z in random_points(cfg, 50, seed=71):
            w2 = omega_hat(z, cfg) ** 2
            rhs = sum(c * basis_value(-2 + 2 * t, z, cfg) for t, c in enumerate(lam.as_tuple()))
            worst = max(worst, abs(w2 - rhs))
    _report(4, worst <= 1e-8, f"differential-square expansion residual: {worst:.2e} (tol 1e-8)")


def test_criterion_05_duality_pairing():
    start = time.time()
    worst = float(np.abs(pairing(CFG_MAIN, 10) - np.eye(21)).max())
    elapsed = time.time() - start
    _report(
        5,
        worst <= 1e-8 and elapsed < 30.0,
        f"pairing = delta on [-10,10]^2: worst {worst:.2e} (tol 1e-8), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_06_structure_constants_vs_oracle():
    check = suite_checks("algebra", CFG_MAIN, 8)["bracket_oracle_equivalence"]
    _report(
        6,
        _within(1e-7, check),
        f"bracket vs pointwise oracle on [-8,8]^2: worst rel {check.max_residual:.2e} (tol 1e-7)",
    )


def test_criterion_07_jacobi():
    # each call checks the derived set and the same three formal sets
    checks = [
        suite_checks("algebra", cfg)["jacobi_identity"]
        for cfg in (CFG_MAIN, TorusConfig(tau=0.3 + 1.1j, q=0.17 + 0.05j))
    ]
    worst = max(c.max_residual for c in checks)
    _report(7, _within(1e-9, *checks), f"Jacobi residual over [-5,5]^3 x 5 sets: {worst:.2e} (tol 1e-9)")


def test_criterion_08_degeneration_continuity():
    checks = suite_checks("algebra", TorusConfig(tau=0.8j, q=0.2))
    monotone = checks["degeneration_monotone"]
    final = checks["degeneration_final_gap"]
    # stricter than the suite's 2e-4, which covers every admissible tau
    _report(
        8,
        _within(0.0, monotone) and _within(1e-4, final),
        f"degeneration gaps at q = 1e-1, 1e-2, 1e-3 monotone={monotone.passed}, "
        f"final {final.max_residual:.2e} <= 1e-4",
    )


def test_criterion_09_virasoro_limit():
    check = suite_checks("cocycle", CFG_MAIN)["witt_cocycle_values"]
    # the check gates the off-level values at 1e-9; they must vanish exactly
    off = max(
        abs(chi_sum(i, j, WITT_PARAMS))
        for i in range(-8, 9)
        for j in range(-8, 9)
        if i + j != 0
    )
    _report(
        9,
        _within(1e-9, check) and off == 0.0,
        f"Witt cocycle 13/6(m^3-m): worst {check.max_residual:.2e} (tol 1e-9), off-level max {off:.1e}",
    )


def test_criterion_10_cocycle_properties():
    checks = suite_checks("cocycle", CFG_MAIN, 8)
    anti = checks["chi_antisymmetry"]
    mixed = checks["chi_mixed_parity"]
    support = checks["chi_support"]
    identity = checks["two_cocycle_identity"]
    _report(
        10,
        _within(1e-12, anti) and _within(0.0, mixed, support) and _within(1e-9, identity),
        f"antisymmetry {anti.max_residual:.1e} (tol 1e-12), mixed-parity {int(mixed.max_residual)}, "
        f"support violations {int(support.max_residual)}, "
        f"2-cocycle residual {identity.max_residual:.2e} (tol 1e-9)",
    )


def test_criterion_11_closed_form_reconciliation():
    cfg_two_point = TorusConfig(tau=1j, q=0)
    sets = {
        "witt": WITT_PARAMS,
        "derived(q=0.2)": lambda_coefficients(CFG_MAIN),
        "derived(q=0)": lambda_coefficients(cfg_two_point),
    }
    summaries = []
    complete = True
    for label, params in sets.items():
        report = reconciliation_report(params, 8, build_cocycle_table(params, 8))
        reported = {(e["i"], e["j"]) for e in report}
        for i in range(-8, 9):
            for j in range(-8, 9):
                s = chi_sum(i, j, params)
                c = chi_closed(i, j, params)
                if abs(s - c) > 1e-8 * max(1.0, abs(s)) and (i, j) not in reported:
                    complete = False
        summaries.append(f"{label}: {'agree' if not report else f'{len(report)} reported'}")
    qv0 = q_values(sets["derived(q=0)"])
    starred = max(abs(qv0[k]) for k in STARRED_Q_KEYS)
    lam0 = sets["derived(q=0)"]
    deep = max(
        abs(f(i, j, lam0))
        for f in (chi_sum, chi_closed)
        for i in range(-8, 9)
        for j in range(-8, 9)
        if i + j in (-10, -12)
    )
    _report(
        11,
        complete and starred == 0.0 and deep == 0.0,
        "closed form vs sum: " + "; ".join(summaries) + f"; starred-Q at q=0: {starred:.1e}",
    )


def test_criterion_12_fock_grounding():
    rng = random.Random(76)
    clifford = max(clifford_residual(random_wedge_state(rng), 8) for _ in range(100))

    lam = lambda_coefficients(CFG_MAIN)
    conv = DEFAULT_SIGN_CONVENTION
    comm = 0.0
    for _ in range(20):
        i, j = rng.randint(-4, 4), rng.randint(-4, 4)
        v = {random_wedge_state(rng): 1.0 + 0j}
        comm = max(comm, commutator_residual(i, j, v, lam, conv))

    grounding = suite_checks("fock", CFG_MAIN)["vacuum_cocycle_grounding"]

    elapsed = time.time() - _SUITE_START
    _report(
        12,
        clifford == 0.0 and comm <= 1e-9 and _within(1e-9, grounding) and elapsed < 300.0,
        f"Clifford exact ({clifford:.1e}), commutator residual {comm:.2e} (tol 1e-9), "
        f"vacuum cocycle grounding {grounding.max_residual:.2e} (tol 1e-9), suite {elapsed:.0f}s (< 300s)",
    )
