"""Tier-1 once per OpenBLAS kernel, to show which tests depend on the kernel
that OpenBLAS picks for the CPU.

    python tools/kernel_matrix.py [pytest arguments]

numpy's bundled OpenBLAS is a dynamic-arch build: it picks a dgemm kernel
for the CPU it runs on, and `OPENBLAS_CORETYPE` names another one. For each
kernel in `KERNELS` this runs the tier-1 suite (or the pytest arguments
given, such as one test file) in a child process with that variable set in
the child's environment only; nothing else about the machine changes. It
prints each kernel's pytest summary and the ids of its failing tests, and
exits 1 if any kernel has a failure. It is not part of tier-1: it runs the
suite three times.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

KERNELS = ("SkylakeX", "Haswell", "Sandybridge")
REPO = Path(__file__).resolve().parent.parent


def run_suite(kernel: str, args: list[str]) -> tuple[str, list[str]]:
    """(pytest's summary line, the failing test ids) of one run of the
    suite under `kernel`."""
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors", *args],
                          cwd=REPO, env=env, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    failed = [line.split()[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return (lines[-1] if lines else f"pytest exited {done.returncode}"), failed


def main(argv: list[str]) -> int:
    any_failed = False
    for kernel in KERNELS:
        summary, failed = run_suite(kernel, argv)
        print(f"{kernel}: {summary.strip('= ')}", flush=True)
        for test_id in failed:
            print(f"  {test_id}")
        any_failed |= bool(failed) or "failed" in summary or "error" in summary
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
