#!/usr/bin/env python3
"""Self-test of the benchmark harness on tiny configs (about a minute).

    python3 pipebench/selftest.py

For every workload, shrunk to a few tiny windows, it runs one untraced and
one traced pass and checks that the last output line is the result object,
that every metric BENCHMARK.json declares gets a finite value, that every
check passes and that no expected span is missing. It also checks
that the benchmark refuses to run where the latentcast sources are absent.
It is not part of the tier-1 test suite.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

import run

TINY_SHAPE = dict(domains=4, series=2, length=100)
TINY_CONFIG = dict(lookback=20, horizon=5, kernel=5, hidden=8, d_z=4, batch_size=16,
                   sample_paths=10, stride=2, eval_stride=4)


def tiny_workloads():
    import workloads
    return {name: replace(w, **TINY_SHAPE, config={**w.config, **TINY_CONFIG})
            for name, w in workloads.WORKLOADS.items()}


def run_tiny(workloads, name: str, trace: int) -> tuple[int, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace)], workloads=workloads)
    return code, out.getvalue().splitlines()


def problems_in(code: int, lines: list[str], declared: list[dict]) -> list[str]:
    if code != 0 or not lines:
        return [f"exit code {code}"]
    result = json.loads(lines[-1])
    found = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        found.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        found.append("checks failed: " + "; ".join(
            line for line in lines if line.startswith("check failed")))
    metrics = result.get("metrics", {})
    for entry in declared:
        value = metrics.get(entry["name"], {}).get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            found.append(f"metric {entry['name']} has value {value!r}")
    found += [line for line in lines if line.startswith("missing spans:")
              and line != "missing spans: none"]
    return found


def bare_directory_refused() -> bool:
    """Only BENCHMARK.json and the benchmark's files: exit non-zero, no result."""
    bare = run.STATE / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.SPEC, bare / run.SPEC.name)
    try:
        proc = subprocess.run([sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload",
                               "bigru-train", "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180,
                              check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return proc.returncode != 0 and '"metrics"' not in proc.stdout


def main() -> int:
    run.pin_blas_threads()
    spec = json.loads(run.SPEC.read_text())
    run.STATE.mkdir(exist_ok=True)
    ok = True
    if not bare_directory_refused():
        print("FAIL bare directory: the benchmark ran without the latentcast sources")
        ok = False
    sys.path.insert(0, str(run.SRC))
    workloads = tiny_workloads()
    if sorted(workloads) != sorted(w["name"] for w in spec["workloads"]):
        print("FAIL workloads differ from BENCHMARK.json")
        ok = False
    for name in workloads:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            found = problems_in(*run_tiny(workloads, name, trace), declared)
            print(f"{'FAIL' if found else 'ok  '} {name} trace={trace}"
                  + "".join(f"\n     {p}" for p in found), flush=True)
            ok = ok and not found
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
