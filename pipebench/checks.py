"""Checks on the program's outputs, and the quality figure derived from them.

Each check counts as one attempt; a failed one is kept with its reason.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from latentcast import data, training

ROUNDTRIP_WINDOWS = 16    # windows predicted before and after a checkpoint round trip


class Checks:
    """Attempted checks and the reasons of the failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


QUANTILE_LEVELS = tuple(q / 10.0 for q in range(1, 10))


def qmean(y, quantiles) -> float:
    """Mean over the nine levels of the normalized quantile loss
    2 * sum|(y - q) * (1{y <= q} - level)| / sum|y|, recomputed here so the
    program's own metric can be checked against it."""
    denom = float(np.abs(y).sum())
    return float(np.mean([2.0 * np.abs((y - quantiles[i]) * ((y <= quantiles[i]) - level)).sum()
                          / denom for i, level in enumerate(QUANTILE_LEVELS)]))


def quality(windows, dists, domains) -> tuple[float, float]:
    """(benchmark-recomputed test qmean, its ratio to a naive forecaster's).

    The naive forecaster is the Gaussian fitted to each lookback window; the
    ratio cancels most of the seed-to-seed difference in how hard the unseen
    domains are."""
    z = ndtri(np.array(QUANTILE_LEVELS))[:, None, None]
    model, naive = [], []
    for dom in sorted(domains):
        picked = [(w, d) for w, d in zip(windows, dists) if w.domain_id == dom]
        if not picked:
            continue
        y = np.stack([w.y_raw for w, _ in picked])
        model.append(qmean(y, np.stack([d.quantiles for _, d in picked], axis=1)))
        mean = np.array([np.mean(w.x) for w, _ in picked])[None, :, None]
        std = np.array([np.std(w.x) for w, _ in picked])[None, :, None]
        naive.append(qmean(y, mean + std * z * np.ones_like(y)[None]))
    return float(np.mean(model)), float(np.mean(model) / np.mean(naive))


def check_evaluation(checks: Checks, which: str, report, dists) -> None:
    ok = all(np.all(np.isfinite(d.quantiles)) and np.all(np.diff(d.quantiles, axis=0) >= 0.0)
             for d in dists)
    checks.expect(ok, f"{which}: a forecast window has non-finite or decreasing quantiles")
    values = list(report.average.values()) + [v for per in report.per_domain.values()
                                              for v in per.values()]
    checks.expect(bool(np.all(np.isfinite(values))), f"{which}: a report metric is not finite")


def file_digest_and_lines(path: Path) -> tuple[str, int]:
    """SHA-256 and line count of a file, read in blocks so that the check
    never holds the whole file."""
    h = hashlib.sha256()
    lines = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
            lines += block.count(b"\n")
    return h.hexdigest(), lines


def check_roundtrip(checks: Checks, result, feat_dim: int, path: Path) -> None:
    """save_full -> load_full -> predict reproduces the in-memory model bit for bit."""
    training.save_full(path, result.model, result.domain_map, result.config, feat_dim)
    _, loaded, _, _ = training.load_full(path)
    prepared = data.prepare_samples([w for w, _ in result.forecasts_test[:ROUNDTRIP_WINDOWS]])
    x = np.stack([s.x for s in prepared])
    a = np.stack([s.a for s in prepared]) if feat_dim else None
    paths = result.config.sample_paths
    before = result.model.predict(x, a, paths, np.random.default_rng(7))
    after = loaded.predict(x, a, paths, np.random.default_rng(7))
    ok = before.keys() == after.keys() and all(np.array_equal(before[k], after[k])
                                                for k in before)
    checks.expect(ok, "checkpoint round trip changed the predictions")


def check_ledger(checks: Checks, ledger_path: Path, key: str, digest: str) -> None:
    """Same source, workload and seed as an earlier run here: same test report."""
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    if key in ledger:
        checks.expect(ledger[key] == digest, f"test report differs from an earlier run ({key})")
        return
    ledger[key] = digest
    tmp = ledger_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, ledger_path)


def check_iteration(checks: Checks, workload, runner, outcome, evaluations,
                    first: bool, workdir: Path) -> tuple[float, float, str]:
    """Every check on one iteration's outputs; returns the test qmean, its
    ratio to the naive forecaster's and the test report's digest."""
    for command, code in outcome.exit_codes.items():
        checks.expect(code == 0, f"cli {command} exited with {code}")
    for which, report, _, dists in evaluations:
        check_evaluation(checks, which, report, dists)
    tests = [e for e in evaluations if e[0] == "test"]
    report, windows, dists = tests[0][1:]
    test_qmean, ratio = quality(windows, dists, report.per_domain)
    checks.expect(abs(test_qmean - report.average["qmean"]) <= 1e-9 * test_qmean,
                  "report qmean disagrees with the forecasts")
    if workload.via_cli:
        # `forecast` predicts from the checkpoint `train` wrote, with the same
        # seed: its output must equal train's in-memory forecasts.
        same = len(tests) == 2 and len(tests[1][3]) == len(dists) and all(
            np.array_equal(a.quantiles, b.quantiles) for a, b in zip(tests[1][3], dists))
        checks.expect(same, "forecast from the checkpoint differs from train's forecasts")
        (first, rows), (second, _) = map(file_digest_and_lines, outcome.forecast_csvs)
        checks.expect(first == second, "forecast CSVs of train and forecast differ")
        checks.expect(rows == 1 + len(windows) * runner.horizon,
                      "forecast CSV does not hold one row per window and horizon step")
    elif first:
        check_roundtrip(checks, outcome.result, runner.datasets[0].feat_dim,
                        workdir / "roundtrip.ckpt.json")
    return test_qmean, ratio, hashlib.sha256(report.to_json().encode()).hexdigest()
