"""Benchmark entry point: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The BLAS thread pin is set here, before numpy is imported, so the
benchmark's own process (which hosts the traced pass) and every aircast
process it starts use one BLAS thread whatever the caller's shell says.
"""

import os
import sys

if __name__ == "__main__":
    os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
    from bench import main

    sys.exit(main())
