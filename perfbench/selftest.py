"""Self-tests of the benchmark, kept out of the kntorus test suite.

    python3 -m pytest -q perfbench/selftest.py

They check that the tracer sees every call cProfile sees, that traced call
counts repeat exactly for a seed, that a run's op count is fixed in
advance, that the metric names match BENCHMARK.json, that the smoke mode
passes, and that the benchmark refuses to run without the kntorus sources.
"""

from __future__ import annotations

import cmath
import cProfile
import json
import os
import pstats
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import bench  # noqa: E402
import harness  # noqa: E402
from kntorus import fock  # noqa: E402
from tracer import TARGETS, Tracer, target_function  # noqa: E402

SEED = 3
# op 1 of cocycle_tables uses derived parameters, so it reaches the elliptic layer
OP_INDEX = {"cocycle_tables": 1}


def _op(name: str):
    workload = harness.WORKLOADS[name](SEED)
    return workload, workload.make(OP_INDEX.get(name, 0))


def _traced_calls(workload, op, outdir) -> dict[str, int]:
    fock.determine_sign_convention()
    harness.clear_caches()
    tracer = Tracer()
    tracer.install()
    try:
        harness.run_ops(workload, [op], str(outdir), tracer=tracer)
    finally:
        tracer.uninstall()
    return {t.name: tracer.calls[t.name] for t in TARGETS}


def _profiled_calls(workload, op, outdir) -> dict[str, int]:
    fock.determine_sign_convention()
    harness.clear_caches()
    profile = cProfile.Profile()
    profile.enable()
    try:
        harness.run_ops(workload, [op], str(outdir))
    finally:
        profile.disable()
    ncalls = {(f, line): nc for (f, line, _), (_, nc, *_) in pstats.Stats(profile).stats.items()}
    out = {}
    for t in TARGETS:
        code = target_function(t).__code__
        out[t.name] = ncalls.get((code.co_filename, code.co_firstlineno), 0)
    return out


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_traced_counts_match_cprofile_and_repeat(name, tmp_path):
    workload, op = _op(name)
    first = _traced_calls(workload, op, tmp_path / "a")
    second = _traced_calls(workload, op, tmp_path / "b")
    profiled = _profiled_calls(workload, op, tmp_path / "c")
    assert first == second
    assert first == profiled
    assert sum(first.values()) > 0


def test_tracer_restores_every_binding():
    originals = {t.name: target_function(t) for t in TARGETS}
    tracer = Tracer()
    tracer.install()
    wrapped = {t.name: target_function(t) for t in TARGETS}
    tracer.uninstall()
    assert all(wrapped[n] is not originals[n] for n in originals)
    assert {t.name: target_function(t) for t in TARGETS} == originals


def test_inputs_depend_only_on_the_seed():
    for name, cls in harness.WORKLOADS.items():
        a = [repr(cls(SEED).make(k)) for k in range(6)]
        b = [repr(cls(SEED).make(k)) for k in range(6)]
        c = [repr(cls(SEED + 1).make(k)) for k in range(6)]
        assert a == b, name
        assert a != c, name


def test_runs_hold_whole_rounds_fixed_by_seconds():
    for cls in harness.WORKLOADS.values():
        workload = cls(SEED)
        for seconds in (0.01, 16.0):
            n = workload.ops_per_run(seconds)
            assert n >= workload.round_size and n % workload.round_size == 0
            assert n == cls(SEED + 1).ops_per_run(seconds)


def test_geometry_draws_stay_in_the_domain():
    draws = harness.Draws(SEED, "domain")
    for k in range(500):
        tau, q = harness.draw_geometry(draws.point(k))
        assert abs(tau.real) <= 0.5 and abs(tau) >= 1 - 1e-12 and tau.imag <= 1.5
        assert 0.08 <= abs(q) <= 0.3 and abs(cmath.phase(q)) <= harness.Q_ANGLE


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)


def test_untraced_run_reports_every_end_to_end_metric(capsys):
    argv = ["--workload", "wedge_commutators", "--seed", str(SEED), "--seconds", "0.2"]
    assert bench.main(argv) == 0
    record = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] and record["failed"] == 0
    assert record["attempted"] == harness.WedgeCommutators(SEED).ops_per_run(0.2)
    assert set(record["metrics"]) == set(bench.END_TO_END)
    assert all(m["value"] > 0 for m in record["metrics"].values())


def test_smoke_mode_runs_every_workload_checked_and_traced():
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                         capture_output=True, text=True, timeout=170, check=True)
    lines = [json.loads(line) for line in out.stdout.strip().split("\n")]
    assert [line["workload"] for line in lines[:-1]] == list(harness.WORKLOADS)
    for line in lines[:-1]:
        assert set(line["metrics"]) == set(bench.PER_LAYER)
    assert lines[-1]["correct"] is True


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert out.stdout == ""
