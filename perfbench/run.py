"""Run one ghostdec benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload memory-d7 --seed 1 --seconds 24 --trace 0

See perfbench/README.md for the workloads and metrics.
"""

import os
import sys
from pathlib import Path

# pinned before numpy loads: one thread per workload process
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")

if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "ghostdec" / "__init__.py").is_file():
        sys.exit(f"run.py: no ghostdec sources under {src}")
    sys.path.insert(0, str(src))
    from bench import main
    sys.exit(main())
