"""Entry point of the kntorus benchmark.

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --smoke

Run it from anywhere inside a checkout: it imports kntorus from the
checkout's own ``src/`` and refuses to run without it.  See README.md in
this directory for the workloads and metrics.
"""

import os
import sys

# one BLAS/OpenMP thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "kntorus", "__init__.py")):
        sys.stderr.write(f"error: no kntorus sources under {SRC}; run inside a checkout\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    from bench import main

    sys.exit(main())
