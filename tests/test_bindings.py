"""The functions perfbench's tracer binds by name stay in the package.

perfbench/tracer.py is read and executed here, not imported from its
directory, so no bytecode is written beside it.
"""

import sys
import types
from pathlib import Path

import kntorus.cli  # noqa: F401 -- loads every layer module, as a CLI run does
from kntorus import basis, elliptic

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_installs_and_uninstalls():
    tracer = types.ModuleType("perfbench_tracer")
    sys.modules[tracer.__name__] = tracer  # dataclasses look their module up
    try:
        exec(compile(TRACER.read_text(), str(TRACER), "exec"), vars(tracer))
        originals = [tracer.target_function(target) for target in tracer.TARGETS]
        traced = tracer.Tracer()
        traced.install()  # raises when a target has no binding left
        try:
            wrapped = [tracer.target_function(target) for target in tracer.TARGETS]
            assert all(w is not o for w, o in zip(wrapped, originals))
        finally:
            traced.uninstall()
        assert [tracer.target_function(target) for target in tracer.TARGETS] == originals
    finally:
        del sys.modules[tracer.__name__]
    # perfbench/bench.py reads the hit ratios of these caches
    for cached in (elliptic.half_period_values, basis.lambda_coefficients):
        assert cached.cache_info().maxsize > 0
