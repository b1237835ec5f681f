#!/usr/bin/env python3
"""Pipeline benchmark for latentcast: end-to-end metrics, checks, and a
traced per-layer run.

Run from the repository root, one workload per process:

    python3 pipebench/run.py --workload bigru-train --seed 1 --seconds 30 --trace 0

`--workload all` runs every workload in turn, each in a fresh process.
With `--trace 0` the last line of standard output is a JSON object holding
the end-to-end metrics; with `--trace 1` it holds the per-layer metrics of
the traced iterations, and the spans go to `.pipebench/trace-*.json`.
The program is imported from `src/` beside this directory and never edited.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE = ROOT / ".pipebench"
SPEC = ROOT / "BENCHMARK.json"

# One BLAS thread for parent and change alike: the machine has two cores and
# the benchmark never runs two workloads at once.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_BLOCKS = 5          # blocks of set-up-only passes, each one setup_s figure
SETUP_BLOCK_S = 0.3       # shortest block; short set-ups are repeated to fill it
MIN_ITERATIONS = 5        # iterations every untraced run makes, whatever --seconds says


def declared(kind: str) -> list[dict]:
    """The metrics of one kind ("end_to_end" or "per_layer") that
    BENCHMARK.json declares, each with its name, unit and direction."""
    return json.loads(SPEC.read_text())[kind]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_blas_threads() -> None:
    """Must run before numpy is first imported: BLAS reads it when it loads."""
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS


def main(argv=None, workloads=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("pipebench: --seconds must be positive", file=sys.stderr)
        return 1
    pin_blas_threads()
    if not SPEC.is_file():
        print(f"pipebench: no {SPEC.name} at {ROOT}", file=sys.stderr)
        return 2
    if not (SRC / "latentcast" / "__init__.py").is_file():
        print(f"pipebench: no latentcast sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import latentcast
    if Path(latentcast.__file__).resolve().parent != SRC / "latentcast":
        print(f"pipebench: imported latentcast from {latentcast.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import workloads as workloads_mod
    workloads = workloads or workloads_mod.WORKLOADS
    if args.workload == "all":
        return run_all(args, workloads)
    if args.workload not in workloads:
        print(f"pipebench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads)} or all", file=sys.stderr)
        return 1
    return run_one(workloads[args.workload], args)


def run_all(args, workloads) -> int:
    """Each workload in a fresh process, one after the other."""
    status = 0
    for name in workloads:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        status = subprocess.run(cmd, check=False).returncode or status
    return status


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "latentcast").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    import numpy as np
    import scipy

    commit = "n/a (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=False)
        commit = proc.stdout.strip() or commit
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def phase_rates(phases, speed) -> dict[str, float]:
    rates = {}
    for phase in ("stage1", "stage2", "forecast"):
        events = [e for e in phases.events if e[0] == phase]
        if not events:
            raise RuntimeError(f"the workload never reached {phase}")
        seconds = sum(speed.scaled_s(start, end) for _, start, end, _ in events)
        rates[f"{phase}_windows_per_s"] = sum(e[3] for e in events) / seconds
    return rates


def set_up(runner, phases, hooks, speed) -> list[float]:
    """Scaled seconds from the first call into latentcast to the entry of
    stage 1, one figure per block of set-up-only passes.

    A first pass warms up and sets how many passes a block repeats, so that a
    block lasts at least SETUP_BLOCK_S; a figure is its block's mean pass."""

    def one_pass() -> float:
        phases.reset()
        start = perf_counter()
        try:
            runner.setup_only()
        except hooks.SetupDone:
            return phases.stage1_entries[0] - start
        raise RuntimeError("a set-up pass finished without reaching stage 1")

    phases.abort_at_stage1 = True
    try:
        passes = max(1, math.ceil(SETUP_BLOCK_S / one_pass()))
        speed.mark()
        times = []
        for _ in range(SETUP_BLOCKS):
            start = perf_counter()
            seconds = sum(one_pass() for _ in range(passes))
            end = perf_counter()
            speed.mark()
            times.append(seconds / passes * speed.scaled_s(start, end) / (end - start))
    finally:
        phases.abort_at_stage1 = False
    return times


class PeakRss:
    """The process's peak resident memory and the phase in which it was reached.

    `mark` is called at the end of each phase; the peak only grows, so the
    phase that last raised it is the one that set it. Only set-up and the first
    MIN_ITERATIONS iterations are marked: the heap can grow a little at a late
    iteration, and how many iterations a run holds depends on the host's speed."""

    def __init__(self):
        self.mb = 0.0
        self.phase = "start"

    def mark(self, phase: str) -> None:
        mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if mb > self.mb:
            self.mb, self.phase = mb, phase


def run_one(workload, args) -> int:
    import checks as checks_mod
    import hooks
    import hostspeed
    import workloads as workloads_mod

    env = environment()
    print(f"pipebench workload={workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    reported = declared("per_layer" if args.trace else "end_to_end")
    workdir = STATE / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    checks = checks_mod.Checks()
    patches = hooks.Patches()
    phases = hooks.Phases()
    peak = PeakRss()
    try:
        runner = workloads_mod.runner_for(workload, args.seed, workdir)
        phases.install(patches)
        speed = hostspeed.HostSpeed()
        setup = set_up(runner, phases, hooks, speed)
        peak.mark("inputs and set-up passes")

        # Closed loop: whole iterations until the next one would end after
        # the deadline. A traced run alternates untraced and traced iterations.
        untraced, traced, digests = [], [], []
        deadline = perf_counter() + args.seconds
        index = 0
        while True:
            tracer = hooks.Tracer() if args.trace and index % 2 == 1 else None
            trace_patches = hooks.Patches()
            if tracer is not None:
                tracer.install(trace_patches)
            phases.reset()
            phases.mark = speed.mark if tracer is None else None
            try:
                outcome = runner.iterate(index, tracer, between=speed.mark)
            finally:
                trace_patches.restore()
            speed.mark()
            if index < MIN_ITERATIONS:
                peak.mark(f"iteration {index}")

            test_qmean, ratio, digest = checks_mod.check_iteration(
                checks, workload, runner, outcome, phases.evaluations, index == 0, workdir)
            if index < MIN_ITERATIONS:
                peak.mark(f"checks of iteration {index}")
            digests.append(digest)
            checks.expect(digest == digests[0], "test report changed between iterations")
            calls_s = {name: speed.scaled_s(*span) for name, span in outcome.calls.items()}
            sample = {"total_s": sum(calls_s.values()), "test_qmean_ratio": ratio,
                      "test_qmean": test_qmean, "best_val_nll": outcome.val_nll,
                      **phase_rates(phases, speed)}
            (traced if tracer is not None else untraced).append((sample, tracer))
            print(f"iteration {index}{' traced' if tracer else ''}: " + ", ".join(
                f"{k} {v:.6g}" for k, v in {**sample, **calls_s}.items())
                + f"; unscaled total_s {sum(e - s for s, e in outcome.calls.values()):.6g}",
                flush=True)
            outcome = None
            index += 1
            typical = median([s["total_s"] for s, _ in untraced + traced])
            if (len(untraced) >= MIN_ITERATIONS and len(traced) >= args.trace
                    and perf_counter() + typical > deadline):
                break
        definition = hashlib.sha256(repr(workload).encode()).hexdigest()[:12]
        checks_mod.check_ledger(
            checks, STATE / "digests.json",
            f"{env['source_digest']}:{workload.name}:{definition}:{args.seed}", digests[0])
        print(f"peak_rss_mb {peak.mb:.1f} over set-up and the first {MIN_ITERATIONS} "
              f"iterations, reached during {peak.phase}")

        if args.trace:
            metrics, missing = layer_results(workload, reported, untraced, traced)
            write_trace(workload, args.seed, env, traced, metrics, missing)
        else:
            metrics = {"setup_s": median(setup), "peak_rss_mb": peak.mb}
            for m in reported:
                if m["name"] not in metrics:
                    metrics[m["name"]] = median([s[m["name"]] for s, _ in untraced])
    finally:
        patches.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(checks.failures)
    for failure in checks.failures:
        print(f"check failed: {failure}")
    print(f"checks: {checks.attempted} attempted, {failed} failed, "
          f"failed_ratio {failed / max(checks.attempted, 1):.4f}")
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in reported},
    }
    print(json.dumps(result))
    return 0


def layer_results(workload, reported, untraced, traced) -> tuple[dict, list[str]]:
    """Per-layer metrics (medians over traced iterations) and missing spans."""
    names = [m["name"] for m in reported]
    per_iter = []
    for sample, tracer in traced:
        layer = tracer.layer_metrics(names)
        layer["evaluation.test_qmean"] = sample["test_qmean"]
        layer["training.best_val_nll"] = sample["best_val_nll"]
        per_iter.append(layer)
    metrics = {key: median([m[key] for m in per_iter]) for key in per_iter[0]}
    metrics["trace.overhead_ratio"] = (median(s["total_s"] for s, _ in traced)
                                       / median(s["total_s"] for s, _ in untraced))
    fired = set().union(*(tracer.fired() for _, tracer in traced))
    missing = [name for name in workload.expected_spans if name not in fired]
    print(f"missing spans: {', '.join(missing) if missing else 'none'}")
    return metrics, missing


def write_trace(workload, seed, env, traced, metrics, missing) -> None:
    """All spans of the traced iterations, times relative to the first span."""
    names: dict[str, int] = {}
    iterations = []
    for _, tracer in traced:
        origin = tracer.spans[0][1] if tracer.spans else 0.0
        iterations.append([[names.setdefault(n, len(names)), round(s - origin, 7),
                            round(e - origin, 7), p] for n, s, e, p in tracer.spans])
    path = STATE / f"trace-{workload.name}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": workload.name, "seed": seed, "environment": env,
        "span_fields": ["name", "start_s", "end_s", "parent"],
        "names": list(names), "iterations": iterations,
        "metrics": metrics, "missing": missing,
    }))
    print(f"spans written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
