"""The `latentcast` command, as the console script and as `python -m latentcast`.

It runs BLAS on one thread unless its environment sets one of
`BLAS_THREAD_VARS`: some matrix products give other bits at other OpenBLAS
thread counts, and OpenBLAS reads the setting once, when numpy loads. Code
that imports `latentcast` as a library keeps its process's setting."""

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    if not any(var in os.environ for var in BLAS_THREAD_VARS):
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    from .cli import main as cli_main     # imports numpy

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
