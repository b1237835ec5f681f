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
MEDIAN = QUANTILE_LEVELS.index(0.5)   # the point forecast's quantile row


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


def pinball_losses(y: np.ndarray, quantiles: np.ndarray, levels=QUANTILE_LEVELS,
                   out: np.ndarray | None = None) -> np.ndarray:
    """The (len(levels), N, h) pinball losses 2·|(y − q)(1{y ≤ q} − τ)| of
    each level τ's quantiles `quantiles[i]` against the (N, h) targets `y`,
    written into `out` if given (it may be `quantiles`)."""
    y, quantiles = np.asarray(y, dtype=float), np.asarray(quantiles, dtype=float)
    if quantiles.shape != (len(levels), *y.shape):
        raise MetricError(f"quantile loss: got {quantiles.shape}, need {(len(levels), *y.shape)}")
    if not all(0.0 < q < 1.0 for q in levels):
        raise MetricError(f"quantile loss: each q must be in (0, 1), got {levels}")
    losses = np.empty(quantiles.shape) if out is None else out
    for row, level_q, q in zip(losses, quantiles, levels):
        below = y <= level_q
        np.subtract(y, level_q, out=row)
        row *= below - q
        np.multiply(2.0, np.abs(row, out=row), out=row)
    return losses


def _normalized(y: np.ndarray, losses: np.ndarray) -> np.ndarray:
    """Each level's normalized quantile loss: its contiguous row summed, over sum |y|."""
    denom = float(np.abs(np.asarray(y, dtype=float)).sum())
    if denom == 0.0:
        raise MetricError("quantile loss: sum |Y| is zero")
    return np.array([row.sum() for row in losses]) / denom


def quantile_loss(y: np.ndarray, yhat_q: np.ndarray, q: float) -> float:
    return float(_normalized(y, pinball_losses(y, np.asarray(yhat_q)[None], (q,)))[0])


def q_mean(y: np.ndarray, quantile_stack: np.ndarray) -> float:
    """Mean quantile loss over the nine levels; quantile_stack is (9, ...)."""
    return float(np.mean(_normalized(y, pinball_losses(y, quantile_stack))))


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

    def to_csv_rows(self) -> list[tuple[str, str, str]]:
        scores = [(str(dom), self.per_domain[dom]) for dom in sorted(self.per_domain)]
        return [(name, m, repr(vals[m])) for name, vals in [*scores, ("average", self.average)]
                for m in METRIC_NAMES]


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
        # C order, so that each level's losses are summed as one contiguous block
        y, quant = windows.y_raw[picked], dists.quantiles.compress(picked, axis=1)
        try:
            point = [nrmse(y, quant[MEDIAN]), smape(y, quant[MEDIAN])]
            losses = _normalized(y, pinball_losses(y, quant, out=quant))
        except MetricError as exc:
            raise MetricError(f"{split_name} split, domain {dom}: {exc}") from None
        scores = [*point, losses[MEDIAN], losses.mean()]
        per_domain[dom] = dict(zip(METRIC_NAMES, map(float, scores)))
    if not per_domain:
        raise MetricError(f"aggregate: no domain in {split_name!r} produced windows")
    warnings.extend(dists.notes)
    average = {m: float(np.mean([per_domain[d][m] for d in per_domain]))
               for m in METRIC_NAMES}
    return MetricReport(split_name=split_name, per_domain=per_domain, average=average,
                        window_counts=counts, seed=seed, config_hash=config_hash,
                        warnings=sorted(set(warnings)))
