"""Workloads of the kntorus benchmark: seeded inputs, the closed loop that
times them, and the per-op output checks.

Every op is built from the seed alone, before it is timed, and the program
sees only the resulting argv (CLI ops) or call arguments (wedge ops).  CLI
ops call ``kntorus.cli.main(argv)`` in-process with ``--output`` pointing
into a temporary directory, so checks read exactly what a user would get.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import os
import random
import resource
import sys
from dataclasses import dataclass, field
from time import perf_counter, process_time

from kntorus import basis, cli, fock
from kntorus.config import TorusConfig
from kntorus.propagation import time_coordinate
from speed import SpeedProbe

VERIFY_WINDOW = 6
VERIFY_CHECK_COUNT = 40  # checks in `verify all` for a three-point configuration
COCYCLE_LEVELS = (0, -2, -4, -6, -8, -10, -12)
GROUNDING_RANGE = range(-5, 6)
GROUNDING_TOL = 1e-9
ANTISYMMETRY_TOL = 1e-12
WEDGE_TOL = 1e-9
LOOP_CAP_S = 120.0  # raw seconds after which a timed loop stops early (a much slower program)

# ---------------------------------------------------------------------------
# seeded draws


_BASES = (2, 3, 5, 7, 11)


def _radical_inverse(k: int, base: int) -> float:
    inv, scale = 0.0, 1.0 / base
    while k:
        k, digit = divmod(k, base)
        inv += digit * scale
        scale /= base
    return inv


class Draws:
    """Randomised Halton points in [0, 1)^5: a seeded shift mod 1 per axis.

    Every prefix of a quasi-random sequence covers the cube evenly, so the
    few ops of one run sample the same mix of geometries (the known failing
    small-|q| corner included, at its share of the domain) as a long run.
    That keeps the spread between seeds small without choosing inputs.
    Axis 0 (base 2, the most even) drives |q|, on which failures depend.
    """

    def __init__(self, seed: int, salt: str):
        rng = random.Random(f"{salt}:{seed}")
        self.shifts = [rng.random() for _ in _BASES]

    def point(self, k: int) -> list[float]:
        return [(_radical_inverse(k + 1, b) + s) % 1.0 for b, s in zip(_BASES, self.shifts)]


TAU_IM_MAX = 1.5
Q_RADIUS = (0.08, 0.3)
Q_ANGLE = 0.6


def _cut_height(x: float) -> float:
    return TAU_IM_MAX - math.sqrt(1.0 - x * x)


def _cut_area(x: float) -> float:
    # integral of _cut_height from 0 to x
    return TAU_IM_MAX * x - 0.5 * (x * math.sqrt(1.0 - x * x) + math.asin(x))


def draw_tau(u: float, v: float) -> complex:
    """Uniform over |Re tau| <= 1/2, |tau| >= 1, Im tau <= 1.5 (inverse CDF)."""
    lo, hi = -0.5, 0.5
    target = _cut_area(lo) + u * (_cut_area(hi) - _cut_area(lo))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _cut_area(mid) < target:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    return complex(x, math.sqrt(1.0 - x * x) + v * _cut_height(x))


def draw_geometry(p: list[float]) -> tuple[complex, complex]:
    """(tau, q) from a point of the unit cube; q = r e^{i theta}."""
    r = Q_RADIUS[0] + (Q_RADIUS[1] - Q_RADIUS[0]) * p[0]
    theta = Q_ANGLE * (2.0 * p[3] - 1.0)
    return draw_tau(p[1], p[2]), cmath.rect(r, theta)


def geometry_argv(tau: complex, q: complex) -> list[str]:
    return ["--tau-re", repr(tau.real), "--tau-im", repr(tau.imag),
            "--q-re", repr(q.real), "--q-im", repr(q.imag)]


def _formal_lams(rng: random.Random) -> list[complex]:
    return [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]


# ---------------------------------------------------------------------------
# ops and outcomes


@dataclass
class Op:
    index: int
    commands: list[tuple[list[str], str]] = field(default_factory=list)  # (argv, suffix)
    data: dict = field(default_factory=dict)  # inputs the checks need


@dataclass
class Outcome:
    statuses: list[int | None]  # exit status per command; None = uncaught exception
    error: str = ""
    paths: list[str] = field(default_factory=list)
    value: str | None = None  # in-process result (wedge ops)

    def output(self) -> bytes:
        if self.value is not None:
            return self.value.encode()
        blobs = []
        for path in self.paths:
            try:
                with open(path, "rb") as fh:
                    blobs.append(fh.read())
            except FileNotFoundError:
                blobs.append(b"")
        return b"\0".join(blobs)

    def output_bytes(self) -> int:
        return sum(os.path.getsize(p) for p in self.paths if os.path.exists(p))


def _run_commands(op: Op, outdir: str) -> Outcome:
    err = io.StringIO()
    statuses: list[int | None] = []
    paths = []
    with contextlib.redirect_stderr(err):
        for m, (argv, suffix) in enumerate(op.commands):
            path = os.path.join(outdir, f"op{op.index}-{m}.{suffix}")
            paths.append(path)
            try:
                # looked up at call time, so a traced run sees the wrapper
                statuses.append(cli.main([*argv, "--output", path]))
            except Exception as exc:  # a crash is a failed op, not a harness error
                statuses.append(None)
                err.write(f"{type(exc).__name__}: {exc}\n")
    return Outcome(statuses=statuses, error=err.getvalue().strip(), paths=paths)


def _load_json(path: str) -> dict | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError):
        return None


def _status_problems(outcome: Outcome) -> list[str]:
    bad = [s for s in outcome.statuses if s != 0]
    if not bad:
        return []
    return [f"exit status {outcome.statuses}: {outcome.error[-300:]}"]


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One op family.  make(k) is pure in (seed, k); run() times nothing."""

    name = ""
    round_size = 1  # ops whose mix is balanced; a run holds whole rounds
    trace_ops = 1  # ops in a traced run (fixed, so counts repeat exactly)
    ref_op_s = 1.0  # mean scaled op time on the reference machine, sizes runs

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed

    def ops_per_run(self, seconds: float) -> int:
        """Ops of an untraced run: whole rounds filling about `seconds` of
        reference op time.  Fixed in advance, so a seed always gives the
        same ops, the same failures and the same harness memory."""
        rounds = round(seconds / (self.ref_op_s * self.round_size))
        return self.round_size * max(1, rounds)

    def make(self, k: int) -> Op:
        raise NotImplementedError

    def run(self, op: Op, outdir: str) -> Outcome:
        return _run_commands(op, outdir)

    def check(self, op: Op, outcome: Outcome) -> list[str]:
        raise NotImplementedError

    def failed_checks(self, outcome: Outcome) -> int:
        """Verify checks failed by this op (verify workloads only)."""
        return 0


class VerifyAll(Workload):
    name = "verify_all"
    trace_ops = 3
    ref_op_s = 2.8

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        if smoke:
            self.trace_ops = 1
        self.draws = Draws(seed, self.name)

    def make(self, k: int) -> Op:
        tau, q = draw_geometry(self.draws.point(k))
        argv = ["verify", "all", *geometry_argv(tau, q), "--window", str(VERIFY_WINDOW)]
        return Op(k, [(argv, "json")], {"tau": tau, "q": q})

    def check(self, op: Op, outcome: Outcome) -> list[str]:
        problems = _status_problems(outcome)
        doc = _load_json(outcome.paths[0])
        if doc is None:
            return problems or ["no report written"]
        checks = doc["checks"]
        failing = [c["name"] for c in checks if c["status"] != "pass"]
        if failing or not doc["results"]["all_passed"]:
            problems.append(f"failed checks {failing}")
        if len(checks) != VERIFY_CHECK_COUNT:
            problems.append(f"{len(checks)} checks, expected {VERIFY_CHECK_COUNT}")
        return problems

    def failed_checks(self, outcome: Outcome) -> int:
        """Failing checks in the report, or 1 when the run ended in an error."""
        doc = _load_json(outcome.paths[0])
        if doc is None:
            return 1
        return sum(c["status"] != "pass" for c in doc["checks"])


class CocycleTables(Workload):
    name = "cocycle_tables"
    trace_ops = 8
    ref_op_s = 1.06

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.windows = (8,) if smoke else (8, 16, 24, 32)
        self.round_size = 2 * len(self.windows)
        self.trace_ops = self.round_size
        self.draws = Draws(seed, self.name)

    def make(self, k: int) -> Op:
        pos = k % self.round_size
        window = self.windows[pos // 2]
        if pos % 2 == 0:
            rng = random.Random(f"{self.name}:{self.seed}:{k}")
            params = []
            for flag, lam in zip(("--lam5", "--lam6", "--lam7"), _formal_lams(rng)):
                params += [flag, repr(lam.real), repr(lam.imag)]
        else:
            params = geometry_argv(*draw_geometry(self.draws.point(k)))
        w = ["--window", str(window)]
        return Op(k, [(["table", "cocycle", *params, *w], "json"),
                      (["table", "brackets", *params, *w, "--format", "csv"], "csv")])

    def check(self, op: Op, outcome: Outcome) -> list[str]:
        problems = _status_problems(outcome)
        doc = _load_json(outcome.paths[0])
        if doc is None:
            return problems or ["no cocycle table written"]
        problems += _check_cocycle(doc["results"])
        try:
            with open(outcome.paths[1], encoding="utf-8") as fh:
                rows = fh.read().split("\n")[1:]
        except FileNotFoundError:
            return problems + ["no bracket table written"]
        problems += _check_brackets(rows)
        return problems


def _check_cocycle(res: dict) -> list[str]:
    problems = []
    chi = {(e["i"], e["j"]): complex(*e["chi"]) for e in res["entries"]}
    for (i, j), v in chi.items():
        if abs(v + chi.get((j, i), 0j)) > ANTISYMMETRY_TOL * max(1.0, abs(v)):
            problems.append(f"chi({i},{j}) not antisymmetric")
        if i + j not in COCYCLE_LEVELS or (i - j) % 2:
            problems.append(f"chi({i},{j}) outside the support")
    lam = res["params"]
    params = basis.AlgebraParams(
        *(complex(*lam[f"lam{n}"]) for n in (4, 5, 6, 7)), provenance=lam["provenance"]
    )
    sigma_chi = res["sign_convention"]["sigma_chi"]
    for i in GROUNDING_RANGE:
        got = chi.get((i, -i), 0j)
        want = sigma_chi * fock.extract_vacuum_cocycle(i, -i, params)
        if abs(got - want) > GROUNDING_TOL * max(1.0, abs(want)):
            problems.append(f"chi({i},{-i}) = {got} but the wedge vacuum gives {want}")
    window = res["window"]
    for m in range(-window, window + 1):
        witt = 13.0 / 6.0 * (m**3 - m)
        got = chi.get((m, -m), 0j)
        if abs(got - witt) > GROUNDING_TOL * max(1.0, abs(witt)):
            problems.append(f"level-0 row chi({m},{-m}) = {got}, expected {witt}")
    return problems


def _check_brackets(rows: list[str]) -> list[str]:
    table = {}
    for row in rows:
        if row:
            i, j, k, re_, im_ = row.split(",")
            table[(int(i), int(j), int(k))] = complex(float(re_), float(im_))
    problems = []
    for (i, j, k), c in table.items():
        if abs(c + table.get((j, i, k), 0j)) > ANTISYMMETRY_TOL * max(1.0, abs(c)):
            problems.append(f"C_{i},{j}^{k} not antisymmetric")
    return problems


class LevelLines(Workload):
    name = "level_lines"
    trace_ops = 8
    ref_op_s = 0.555

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        # two of three ops at R = 128, so the median op lies inside a size
        # class rather than between the two
        self.resolutions = (16,) if smoke else (64, 128, 128)
        self.round_size = len(self.resolutions)
        if smoke:
            self.trace_ops = 1
        self.draws = Draws(seed, self.name)

    def make(self, k: int) -> Op:
        p = self.draws.point(k)
        tau, q = draw_geometry(p)
        u = 2.0 * p[4] - 1.0
        samples = self.resolutions[k % self.round_size]
        argv = ["levellines", *geometry_argv(tau, q), "--u", repr(u), "--samples", str(samples)]
        return Op(k, [(argv, "json")], {"tau": tau, "q": q, "u": u})

    def check(self, op: Op, outcome: Outcome) -> list[str]:
        problems = _status_problems(outcome)
        doc = _load_json(outcome.paths[0])
        if doc is None:
            return problems or ["no level-line report written"]
        cfg = TorusConfig(tau=op.data["tau"], q=op.data["q"])
        u = op.data["u"]
        off = [abs(time_coordinate(complex(re_, im_), cfg) - u)
               for re_, im_ in doc["results"]["points"]]
        bad = [r for r in off if r > cfg.tol]
        if bad:
            problems.append(f"{len(bad)} of {len(off)} points off the level (worst {max(bad):.3g})")
        return problems


class WedgeCommutators(Workload):
    name = "wedge_commutators"
    trace_ops = 600
    ref_op_s = 0.00455

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        if smoke:
            self.trace_ops = 10

    def make(self, k: int) -> Op:
        rng = random.Random(f"{self.name}:{self.seed}:{k}")
        i, j = rng.randint(-5, 5), rng.randint(-5, 5)
        slots = rng.sample(range(-10, 11), rng.randint(1, 10))
        # one excitation per slot: occupy it at or above -1, vacate it below
        state = fock.WedgeState(
            stable_below=-1,
            occupied_above=tuple(sorted((s for s in slots if s >= -1), reverse=True)),
            vacant_below=tuple(sorted(s for s in slots if s < -1)),
        )
        params = basis.WITT_PARAMS if k % 2 else basis.formal_params(*_formal_lams(rng))
        return Op(k, data={"i": i, "j": j, "v": {state: 1.0 + 0j}, "params": params})

    def run(self, op: Op, outdir: str) -> Outcome:
        d = op.data
        conv = fock.determine_sign_convention()
        try:
            value = fock.commutator_residual(d["i"], d["j"], d["v"], d["params"], conv)
        except Exception as exc:  # a crash is a failed op, not a harness error
            return Outcome(statuses=[None], error=f"{type(exc).__name__}: {exc}", value="")
        return Outcome(statuses=[0], value=repr(value))

    def check(self, op: Op, outcome: Outcome) -> list[str]:
        problems = _status_problems(outcome)
        if not problems and not float(outcome.value) <= WEDGE_TOL:
            problems.append(f"commutator residual {outcome.value} > {WEDGE_TOL}")
        return problems


WORKLOADS = {w.name: w for w in (VerifyAll, CocycleTables, LevelLines, WedgeCommutators)}


# ---------------------------------------------------------------------------
# the closed loop


@dataclass
class Run:
    ops: list[Op] = field(default_factory=list)
    outcomes: list[Outcome] = field(default_factory=list)
    spans: list[tuple[float, float]] = field(default_factory=list)  # op start, end
    durations: list[float] = field(default_factory=list)  # wall seconds, probe excluded
    cpu: list[float] = field(default_factory=list)  # CPU seconds, probe excluded
    factors: list[float] = field(default_factory=list)  # speed scale per op
    peak_rss_mb: float | None = None  # read by run_for at the end of the loop

    def scaled_durations(self) -> list[float]:
        return [d * f for d, f in zip(self.durations, self.factors)]

    @property
    def wall_s(self) -> float:
        return sum(self.scaled_durations())

    @property
    def cpu_s(self) -> float:
        return sum(c * f for c, f in zip(self.cpu, self.factors))

    def rescale(self, probe: SpeedProbe) -> None:
        self.factors = [probe.scale(t0, t1) for t0, t1 in self.spans]


def run_ops(workload: Workload, ops: list[Op], outdir: str, probe: SpeedProbe | None = None,
            tracer=None, into: Run | None = None) -> Run:
    """Run the given ops back to back (one client, closed loop).

    Ops are built before they are timed; only the calls into kntorus count
    toward the wall and CPU time.  Timed runs go inside `with probe:`, and
    their scales are final once run.rescale(probe) has run after it;
    without a probe the times stay raw.
    """
    run = into if into is not None else Run()
    for op in ops:
        if tracer is not None:
            tracer.op_id = op.index
        spent = probe.spent if probe else 0.0
        c0 = process_time()
        t0 = perf_counter()
        run.outcomes.append(workload.run(op, outdir))
        t1 = perf_counter()
        cpu = process_time() - c0
        probe_s = probe.spent - spent if probe else 0.0
        run.ops.append(op)
        run.spans.append((t0, t1))
        run.durations.append(t1 - t0 - probe_s)
        run.cpu.append(cpu - probe_s)
        run.factors.append(probe.scale(t0, t1) if probe else 1.0)
    return run


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_for(workload: Workload, seconds: float, outdir: str) -> Run:
    """Closed loop over workload.ops_per_run(seconds) fresh ops.

    The op count is fixed before the loop, so the runs of a seed hold the
    same ops however fast the host or the program is; the loop stops early
    only once its raw op time passes LOOP_CAP_S, which bounds the run's
    wall time.  Peak RSS is read after the last op.
    """
    run = Run()
    raw = 0.0
    with SpeedProbe() as probe:
        for k in range(workload.ops_per_run(seconds)):
            if raw >= LOOP_CAP_S:
                break
            run_ops(workload, [workload.make(k)], outdir, probe, into=run)
            raw += run.durations[-1]
    run.rescale(probe)
    run.peak_rss_mb = _peak_rss_mb()
    return run


def clear_caches() -> None:
    """Empty every lru_cache in kntorus, as in a fresh process."""
    for name, module in list(sys.modules.items()):
        if name == "kntorus" or name.startswith("kntorus."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def check_run(workload: Workload, run: Run) -> tuple[dict[int, list[str]], set[int]]:
    """Per-op problems, and the ops whose problems the program did not report.

    An op fails when any check fails.  It is a silent failure when every
    command exited 0 (the program claimed success) yet a check failed.
    """
    problems, silent = {}, set()
    for op, outcome in zip(run.ops, run.outcomes):
        try:
            found = workload.check(op, outcome)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            found = [f"malformed output: {type(exc).__name__}: {exc}"]
        if found:
            problems[op.index] = found
            if all(s == 0 for s in outcome.statuses):
                silent.add(op.index)
    return problems, silent


def compare_outputs(first: Run, second: Run, problems: dict, silent: set) -> None:
    """Record ops whose repeated run gave different bytes (a silent failure)."""
    for op, a, b in zip(first.ops, first.outcomes, second.outcomes):
        if a.output() != b.output():
            problems.setdefault(op.index, []).append("repeated run gave different output")
            silent.add(op.index)
