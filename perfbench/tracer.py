"""In-memory tracing of kntorus layer calls, from outside the package.

The tracer replaces each traced function at every place the package binds
it (``from .elliptic import wp_pair`` gives ``propagation``, ``basis`` and
``cocycle`` their own reference), so no call path escapes it.  It records

* spans for the layer boundaries: (span id, name, start, end, parent span
  id, op id), with self time = duration minus the time covered by traced
  child spans and leaf calls;
* leaves (the hottest calls): a counter plus summed time per parent span
  name, no span record;
* counted functions: a call counter only; their time stays in the
  enclosing span's self time.

``uninstall`` restores every original binding, so untraced code runs
without a single extra instruction.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

SPAN, LEAF, COUNT = "span", "leaf", "count"


@dataclass(frozen=True)
class Target:
    module: str  # module under kntorus that defines the function
    func: str
    kind: str

    @property
    def name(self) -> str:
        return f"{self.module}.{self.func}"


TARGETS = (
    Target("elliptic", "wp_pair", LEAF),
    Target("quadrature", "contour_residue", SPAN),
    Target("quadrature", "segment_integral", SPAN),
    Target("propagation", "time_coordinate", SPAN),
    Target("propagation", "level_line_samples", SPAN),
    Target("propagation", "omega_hat", COUNT),
    Target("propagation", "residue_at", SPAN),
    Target("propagation", "period_real_parts", SPAN),
    Target("basis", "basis_value", COUNT),
    Target("basis", "basis_derivative", COUNT),
    Target("basis", "winding_order", SPAN),
    Target("algebra", "bracket", LEAF),
    Target("algebra", "jacobi_residual", SPAN),
    Target("algebra", "build_structure_table", SPAN),
    Target("cocycle", "chi_sum", SPAN),
    Target("cocycle", "shifted_constants", COUNT),
    Target("cocycle", "cocycle_identity_residual", SPAN),
    Target("cocycle", "pairing", SPAN),
    Target("cocycle", "build_cocycle_table", SPAN),
    Target("cocycle", "reconciliation_report", SPAN),
    Target("fock", "l_operator", SPAN),
    Target("fock", "apply_b", LEAF),
    Target("fock", "apply_c", LEAF),
    Target("fock", "commutator_residual", SPAN),
    *(Target("verify", f"verify_{suite}", SPAN)
      for suite in ("elliptic", "differential", "basis", "algebra", "cocycle", "fock")),
    Target("cli", "main", SPAN),
)


def target_function(target: Target) -> Callable:
    """The original function object of a target (for cProfile matching)."""
    return getattr(importlib.import_module(f"kntorus.{target.module}"), target.func)


class Tracer:
    """Spans and counters of one traced run; install() ... uninstall()."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.leaf_by_parent: defaultdict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        # work counters measured where the work happens
        self.work: Counter[str] = Counter()
        self.chi_args: set = set()
        self.spans: list[tuple[int, str, float, float, int | None, int | None]] = []
        self.op_id: int | None = None
        self._stack: list[list] = []  # frames: [span id, name, child seconds]
        self._next_id = 0
        self._in_leaf = False
        self._bindings: list[tuple[object, str, Callable]] = []

    # -- installation --------------------------------------------------

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "kntorus" or n.startswith("kntorus."))]
        for target in TARGETS:
            original = target_function(target)
            wrapper = self._wrap(target, original)
            bound = 0
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._bindings.append((module, attr, original))
                        bound += 1
            if bound == 0:
                raise RuntimeError(f"no binding found for {target.name}")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    # -- wrappers ------------------------------------------------------

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        name = target.name
        pre = _PRE.get(name)
        post = _POST.get(name)
        if target.kind == COUNT:
            calls = self.calls

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted
        if target.kind == LEAF:
            return self._leaf_wrapper(name, fn)
        return self._span_wrapper(name, fn, pre, post)

    def _leaf_wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def leaf(*args, **kwargs):
            tracer.calls[name] += 1
            if tracer._in_leaf:  # recursion inside a leaf is covered by the outer call
                return fn(*args, **kwargs)
            tracer._in_leaf = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._in_leaf = False
                tracer.self_s[name] += dt
                tracer.total_s[name] += dt
                parent = tracer._stack[-1] if tracer._stack else None
                if parent is not None:
                    parent[2] += dt
                slot = tracer.leaf_by_parent[(parent[1] if parent else "", name)]
                slot[0] += 1
                slot[1] += dt

        return leaf

    def _span_wrapper(self, name: str, fn: Callable, pre, post) -> Callable:
        tracer = self

        def span(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(tracer, args, kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, name, 0.0]
            stack = tracer._stack
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                tracer.calls[name] += 1
                tracer.total_s[name] += dt
                tracer.self_s[name] += dt - frame[2]
                if parent is not None:
                    parent[2] += dt
                tracer.spans.append(
                    (span_id, name, t0, t1, parent[0] if parent else None, tracer.op_id)
                )
            if post is not None:
                post(tracer, result)
            return result

        return span


# -- work counters taken from arguments and results ----------------------


def _contour_nodes(tracer: Tracer, args, kwargs):
    n = kwargs.get("n", args[3] if len(args) > 3 else 256)
    tracer.work["quadrature.contour_residue.nodes"] += n
    return args, kwargs


def _segment_evals(tracer: Tracer, args, kwargs):
    work = tracer.work

    def make_counting(f):
        def counting(z):
            work["quadrature.segment_integral.integrand_evals"] += 1
            return f(z)

        return counting

    if args:
        args = (make_counting(args[0]), *args[1:])
    else:
        kwargs = {**kwargs, "f": make_counting(kwargs["f"])}
    return args, kwargs


def _chi_args(tracer: Tracer, args, kwargs):
    tracer.chi_args.add((tracer.op_id, *args, *kwargs.values()))
    return args, kwargs


def _l_terms(tracer: Tracer, args, kwargs):
    v = kwargs["v"] if "v" in kwargs else args[1]
    tracer.work["fock.l_operator.terms"] += len(v)
    return args, kwargs


def _crossings(tracer: Tracer, result) -> None:
    tracer.work["propagation.level_line_samples.crossings"] += len(result.points)


_PRE = {
    "quadrature.contour_residue": _contour_nodes,
    "quadrature.segment_integral": _segment_evals,
    "cocycle.chi_sum": _chi_args,
    "fock.l_operator": _l_terms,
}
_POST = {"propagation.level_line_samples": _crossings}
