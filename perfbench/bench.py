"""Benchmark runner: untraced end-to-end runs, traced per-layer runs, smoke.

The last line on stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
provenance and the problems found.  A readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import numpy

import kntorus
from kntorus import basis, elliptic, fock

import harness
import speed
from harness import WORKLOADS
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

DEFAULT_SEED = 1
# Not used while tuning the benchmark or a change: confirm gain claims here.
HELD_OUT_SEED = 90210
SETUP_REPEATS = 7
SETUP_CODE = """
from speed import SpeedProbe
with SpeedProbe() as probe:
    import kntorus.cli
    from kntorus import fock
    fock.determine_sign_convention()
print(probe.spent, *probe.kernel_s)
"""
P90_MIN_OPS = 100  # p90 needs ten samples beyond it

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "op_p50_s": "s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
}

_CALLS = ("elliptic.wp_pair", "quadrature.contour_residue", "quadrature.segment_integral",
          "propagation.time_coordinate", "propagation.omega_hat", "basis.basis_value",
          "basis.basis_derivative", "algebra.bracket", "cocycle.chi_sum",
          "cocycle.shifted_constants", "cocycle.pairing", "fock.l_operator")
_SELF = ("elliptic.wp_pair", "quadrature.contour_residue", "quadrature.segment_integral",
         "propagation.time_coordinate", "propagation.level_line_samples",
         "propagation.residue_at", "propagation.period_real_parts", "basis.winding_order",
         "algebra.bracket", "algebra.jacobi_residual", "algebra.build_structure_table",
         "cocycle.chi_sum", "cocycle.cocycle_identity_residual", "cocycle.pairing",
         "cocycle.build_cocycle_table", "cocycle.reconciliation_report",
         "fock.l_operator", "fock.commutator_residual", "cli.main")
_SUITES = ("elliptic", "differential", "basis", "algebra", "cocycle", "fock")

PER_LAYER = {
    **{f"{n}.calls_per_op": "count" for n in _CALLS},
    **{f"{n}.self_s_per_op": "s" for n in _SELF},
    "elliptic.wp_pair.us_per_call": "us",
    "elliptic.half_period_values.miss_ratio": "ratio",
    "basis.lambda_coefficients.miss_ratio": "ratio",
    "quadrature.contour_residue.nodes_per_op": "count",
    "quadrature.segment_integral.integrand_evals_per_op": "count",
    "propagation.level_line_samples.time_evals_per_crossing": "count",
    "cocycle.chi_sum.distinct_ratio": "ratio",
    "fock.apply_bc.calls_per_op": "count",
    "fock.l_operator.terms_per_call": "count",
    **{f"verify.{s}.wall_s": "s" for s in _SUITES},
    "verify.checks_failed_per_op": "count",
    "cli.output_bytes_per_op": "B",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=16.0,
                        help="reference op time an untraced run holds; sets its op count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload, small, traced and checked, in seconds")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# provenance


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(*cmd: str) -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None  # an exported checkout carries no history
    try:
        out = subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(args: argparse.Namespace, workload: str, ops: int, traced: bool) -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "workload": workload,
        "seed": args.seed,
        "ops": ops,
        "traced": traced,
        "seconds": None if traced else args.seconds,
    }


# ---------------------------------------------------------------------------
# runs


def measure_setup() -> tuple[float, float]:
    """Median time of a fresh interpreter importing kntorus and fixing the
    global sign convention, over SETUP_REPEATS processes: (scaled, raw).

    Each child runs a speed probe of its own around the imports and
    reports the probe's samples; the parent takes the probe's time out of
    the child's wall time and scales the rest by the child's samples.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (HERE, SRC, env.get("PYTHONPATH")) if p)
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        # no timeout: a timed wait polls in steps of up to 50 ms
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                             check=True, capture_output=True, text=True)
        wall = perf_counter() - t0
        spent, *samples = (float(x) for x in out.stdout.split())
        raw.append(wall - spent)
        # the median: a child gives few samples, and one preempted sample
        # would move a mean by a third
        scaled.append((wall - spent) * speed.REFERENCE_KERNEL_S / statistics.median(samples))
    return statistics.median(scaled), statistics.median(raw)


def _subdir(outdir: str, name: str) -> str:
    path = os.path.join(outdir, name)
    os.makedirs(path, exist_ok=True)
    return path


def _raw(run: harness.Run) -> dict:
    return {"raw_wall_s": sum(run.durations), "raw_op_p50_s": statistics.median(run.durations),
            "raw_cpu_s_per_op": sum(run.cpu) / len(run.ops),
            "speed_scale": run.wall_s / sum(run.durations)}


def _timed(workload: harness.Workload, ops: list, outdir: str, tracer=None) -> harness.Run:
    with speed.SpeedProbe() as probe:
        run = harness.run_ops(workload, ops, outdir, probe, tracer)
    run.rescale(probe)
    return run


def untraced(workload: harness.Workload, args: argparse.Namespace, outdir: str):
    setup_s, raw_setup_s = measure_setup()
    fock.determine_sign_convention()
    run = harness.run_for(workload, args.seconds, _subdir(outdir, "run"))
    problems, silent = harness.check_run(workload, run)
    harness.clear_caches()
    replay = harness.run_ops(workload, run.ops[:1], _subdir(outdir, "replay"))
    harness.compare_outputs(run, replay, problems, silent)

    n = len(run.ops)
    durations = run.scaled_durations()
    metrics = {
        "setup_s": setup_s,
        "throughput_ops_s": n / run.wall_s,
        "op_p50_s": statistics.median(durations),
        "cpu_s_per_op": run.cpu_s / n,
        "peak_rss_mb": run.peak_rss_mb,
    }
    extra = {"failed_op_ratio": len(problems) / n,
             "ok_throughput_ops_s": (n - len(problems)) / run.wall_s,
             "wall_s": run.wall_s, "raw_setup_s": raw_setup_s, **_raw(run)}
    if n >= P90_MIN_OPS:
        extra["op_p90_s"] = statistics.quantiles(durations, n=10)[-1]
    return run, problems, silent, _with_units(metrics, END_TO_END), extra


def traced(workload: harness.Workload, args: argparse.Namespace, outdir: str):
    fock.determine_sign_convention()
    ops = [workload.make(k) for k in range(workload.trace_ops)]
    harness.clear_caches()
    tracer = Tracer()
    tracer.install()
    try:
        run = _timed(workload, ops, _subdir(outdir, "traced"), tracer)
    finally:
        tracer.uninstall()
    caches = {
        "elliptic.half_period_values": elliptic.half_period_values.cache_info(),
        "basis.lambda_coefficients": basis.lambda_coefficients.cache_info(),
    }
    harness.clear_caches()
    plain = _timed(workload, ops, _subdir(outdir, "plain"))
    problems, silent = harness.check_run(workload, run)
    harness.compare_outputs(run, plain, problems, silent)

    overhead = run.wall_s / plain.wall_s - 1.0
    metrics = layer_metrics(tracer, workload, run, caches, overhead)
    leaves = {f"{leaf}<-{parent or 'op'}": [c, s]
              for (parent, leaf), (c, s) in sorted(tracer.leaf_by_parent.items())}
    extra = {"traced_wall_s": run.wall_s, "untraced_wall_s": plain.wall_s, **_raw(run),
             "spans": len(tracer.spans), "leaf_calls_and_raw_s_by_parent": leaves}
    return run, problems, silent, _with_units(metrics, PER_LAYER), extra


def layer_metrics(tracer: Tracer, workload: harness.Workload, run: harness.Run,
                  caches: dict, overhead: float) -> dict[str, float]:
    n = len(run.ops)
    calls, work = tracer.calls, tracer.work
    scale = run.wall_s / sum(run.durations)  # tracer times are raw; scale like the ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {f"{name}.calls_per_op": calls[name] / n for name in _CALLS}
    m.update({f"{name}.self_s_per_op": scale * tracer.self_s[name] / n for name in _SELF})
    m.update({f"verify.{s}.wall_s": scale * tracer.total_s[f"verify.verify_{s}"] / n
              for s in _SUITES})
    for name, info in caches.items():
        m[f"{name}.miss_ratio"] = ratio(info.misses, info.hits + info.misses)
    m["elliptic.wp_pair.us_per_call"] = 1e6 * scale * ratio(tracer.self_s["elliptic.wp_pair"],
                                                    calls["elliptic.wp_pair"])
    m["quadrature.contour_residue.nodes_per_op"] = work["quadrature.contour_residue.nodes"] / n
    m["quadrature.segment_integral.integrand_evals_per_op"] = (
        work["quadrature.segment_integral.integrand_evals"] / n)
    m["propagation.level_line_samples.time_evals_per_crossing"] = ratio(
        calls["propagation.time_coordinate"], work["propagation.level_line_samples.crossings"])
    m["cocycle.chi_sum.distinct_ratio"] = ratio(len(tracer.chi_args), calls["cocycle.chi_sum"])
    m["fock.apply_bc.calls_per_op"] = (calls["fock.apply_b"] + calls["fock.apply_c"]) / n
    m["fock.l_operator.terms_per_call"] = ratio(work["fock.l_operator.terms"],
                                                calls["fock.l_operator"])
    m["verify.checks_failed_per_op"] = sum(
        workload.failed_checks(o) for o in run.outcomes) / n
    m["cli.output_bytes_per_op"] = sum(o.output_bytes() for o in run.outcomes) / n
    m["trace.overhead_ratio"] = overhead
    return m


def _with_units(values: dict[str, float], units: dict[str, str]) -> dict:
    if set(values) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


# ---------------------------------------------------------------------------
# reporting


def _record(run, problems: dict, silent: set, metrics: dict) -> dict:
    return {"correct": not silent, "attempted": len(run.ops), "failed": len(problems),
            "metrics": metrics}


def _summary(title: str, record: dict, extra: dict) -> None:
    lines = [f"{title}: {record['attempted']} ops, {record['failed']} failed, "
             f"correct={record['correct']}"]
    for name, m in record["metrics"].items():
        lines.append(f"  {name:56s} {m['value']:>14.6g} {m['unit']}")
    for name, value in extra.items():
        if isinstance(value, (int, float)):
            lines.append(f"  ({name:54s} {value:>14.6g})")
    sys.stderr.write("\n".join(lines) + "\n")


def _failures(problems: dict, limit: int = 20) -> dict:
    return {str(k): v[:3] for k, v in sorted(problems.items())[:limit]}


def run_workload(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload](args.seed)
    mode = traced if args.trace else untraced
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as outdir:
        run, problems, silent, metrics, extra = mode(workload, args, outdir)
    record = _record(run, problems, silent, metrics)
    details = {"provenance": provenance(args, workload.name, len(run.ops), bool(args.trace)),
               "extra": extra, "failures": _failures(problems)}
    _summary(f"{workload.name} seed {args.seed} {'traced' if args.trace else 'untraced'}",
             record, extra)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(record))
    return 0


def run_smoke(args: argparse.Namespace) -> int:
    """Every workload, shrunk: traced and untraced passes, checks, replay."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as outdir:
        for name, cls in WORKLOADS.items():
            workload = cls(args.seed, smoke=True)
            run, problems, silent, metrics, extra = traced(
                workload, args, _subdir(outdir, name))
            record = _record(run, problems, silent, metrics)
            _summary(f"smoke {name}", record, extra)
            print(json.dumps({"workload": name, "failures": _failures(problems), **record}))
            totals["correct"] &= record["correct"]
            totals["attempted"] += record["attempted"]
            totals["failed"] += record["failed"]
            totals["metrics"][f"{name}.trace.overhead_ratio"] = metrics["trace.overhead_ratio"]
    print(json.dumps(totals))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    here = os.path.realpath(os.path.dirname(kntorus.__file__))
    if not here.startswith(os.path.realpath(SRC) + os.sep):
        sys.stderr.write(f"error: kntorus was imported from {here}, not from {SRC}\n")
        return 2
    return run_smoke(args) if args.smoke else run_workload(args)
