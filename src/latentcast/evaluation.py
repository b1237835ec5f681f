"""Point and range accuracy metrics plus per-domain aggregation.

NRMSE divides the RMSE by the mean absolute *predicted* value; the
normalized quantile loss divides the pinball-style sum by the total absolute
actuals. Per-domain scores are computed over the domain's stacked forecast
matrices, then averaged with equal domain weight.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .data import WindowSet
from .forecaster import QUANTILE_LEVELS, Forecasts

METRIC_NAMES = ("nrmse", "smape", "q50", "qmean")


class MetricError(ValueError):
    pass


def nrmse(y: np.ndarray, yhat: np.ndarray) -> float:
    y, yhat = np.asarray(y, dtype=float), np.asarray(yhat, dtype=float)
    if y.shape != yhat.shape:
        raise MetricError(f"nrmse: shapes differ, {y.shape} vs {yhat.shape}")
    denom = float(np.mean(np.abs(yhat)))
    if denom == 0.0:
        raise MetricError("nrmse: all-zero predictions make the denominator undefined")
    return float(np.sqrt(np.mean((y - yhat) ** 2)) / denom)


def smape(y: np.ndarray, yhat: np.ndarray) -> float:
    y, yhat = np.asarray(y, dtype=float), np.asarray(yhat, dtype=float)
    if y.shape != yhat.shape:
        raise MetricError(f"smape: shapes differ, {y.shape} vs {yhat.shape}")
    denom = np.abs(y) + np.abs(yhat)
    num = 2.0 * np.abs(y - yhat)
    ratio = np.divide(num, denom, out=np.zeros_like(num), where=denom > 0.0)
    return float(np.mean(ratio))


def quantile_loss(y: np.ndarray, yhat_q: np.ndarray, q: float) -> float:
    y, yhat_q = np.asarray(y, dtype=float), np.asarray(yhat_q, dtype=float)
    if y.shape != yhat_q.shape:
        raise MetricError(f"quantile_loss: shapes differ, {y.shape} vs {yhat_q.shape}")
    if not 0.0 < q < 1.0:
        raise MetricError(f"quantile_loss: q must be in (0, 1), got {q}")
    denom = float(np.abs(y).sum())
    if denom == 0.0:
        raise MetricError("quantile_loss: sum |Y| is zero")
    indicator = (y <= yhat_q).astype(float)
    num = 2.0 * np.abs((y - yhat_q) * (indicator - q))
    return float(num.sum() / denom)


def q_mean(y: np.ndarray, quantile_stack: np.ndarray) -> float:
    """Mean quantile loss over the nine levels; quantile_stack is (9, ...)."""
    quantile_stack = np.asarray(quantile_stack, dtype=float)
    if quantile_stack.shape[0] != len(QUANTILE_LEVELS):
        raise MetricError(
            f"q_mean: need {len(QUANTILE_LEVELS)} quantile rows, got {quantile_stack.shape[0]}"
        )
    losses = [quantile_loss(y, quantile_stack[i], q) for i, q in enumerate(QUANTILE_LEVELS)]
    return float(np.mean(losses))


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

@dataclass
class MetricReport:
    split_name: str
    per_domain: dict[int, dict[str, float]]
    average: dict[str, float]
    window_counts: dict[int, int]
    seed: int
    config_hash: str
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "split": self.split_name,
            "per_domain": {str(k): self.per_domain[k] for k in sorted(self.per_domain)},
            "average": self.average,
            "window_counts": {str(k): self.window_counts[k] for k in sorted(self.window_counts)},
            "seed": self.seed,
            "config_hash": self.config_hash,
            "warnings": self.warnings,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_table(self) -> str:
        lines = [f"{'domain':>8} " + " ".join(f"{m:>12}" for m in METRIC_NAMES)]
        for dom in sorted(self.per_domain):
            vals = self.per_domain[dom]
            lines.append(f"{dom:>8} " + " ".join(f"{vals[m]:>12.6f}" for m in METRIC_NAMES))
        lines.append(f"{'avg':>8} " + " ".join(f"{self.average[m]:>12.6f}" for m in METRIC_NAMES))
        return "\n".join(lines)

    def to_csv_rows(self) -> list[tuple[str, str, float]]:
        rows = []
        for dom in sorted(self.per_domain):
            for m in METRIC_NAMES:
                rows.append((str(dom), m, self.per_domain[dom][m]))
        for m in METRIC_NAMES:
            rows.append(("average", m, self.average[m]))
        return rows


def domain_metrics(y: np.ndarray, point: np.ndarray, quantiles: np.ndarray) -> dict[str, float]:
    """All four metrics for one domain's stacked (N, h) matrices.

    `quantiles` is (9, N, h); the point forecast is the median row.
    """
    return {
        "nrmse": nrmse(y, point),
        "smape": smape(y, point),
        "q50": quantile_loss(y, quantiles[4], 0.5),
        "qmean": q_mean(y, quantiles),
    }


def aggregate(windows: WindowSet, dists: Forecasts, domains: list[int], split_name: str,
              seed: int, config_hash: str) -> MetricReport:
    """Per-domain metrics over each domain's rows, then an equal-weight average.

    A metric that is undefined on a domain's rows (all-zero predictions for
    nrmse, all-zero targets for the quantile losses) raises `MetricError`
    naming the split and the domain."""
    if len(windows) != len(dists):
        raise MetricError("aggregate: windows and forecasts differ in length")
    warnings: list[str] = []
    per_domain: dict[int, dict[str, float]] = {}
    counts: dict[int, int] = {}
    for dom in sorted(domains):
        picked = windows.domain_id == dom
        counts[dom] = int(picked.sum())
        if not counts[dom]:
            warnings.append(f"domain {dom} has no evaluation windows; excluded")
            continue
        quant = dists.quantiles[:, picked]
        try:
            per_domain[dom] = domain_metrics(windows.y_raw[picked], quant[4], quant)
        except MetricError as exc:
            raise MetricError(f"{split_name} split, domain {dom}: {exc}") from None
    if not per_domain:
        raise MetricError(f"aggregate: no domain in {split_name!r} produced windows")
    warnings.extend(dists.notes)
    average = {m: float(np.mean([per_domain[d][m] for d in per_domain]))
               for m in METRIC_NAMES}
    return MetricReport(split_name=split_name, per_domain=per_domain, average=average,
                        window_counts=counts, seed=seed, config_hash=config_hash,
                        warnings=sorted(set(warnings)))
