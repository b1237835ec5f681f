"""Dataset modeling: CSV ingestion, sliding windows, per-window scaling,
reversible instance normalization, one-hot domain encoding, domain splits,
and a seeded synthetic multi-domain generator.

CSV schema (UTF-8, header row): ``domain,series,timestamp,value[,feat_0..]``.
Timestamps are integers or ISO-8601 dates (converted to ordinal integers).
"""

from __future__ import annotations

import csv
import datetime as _dt
import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

REVIN_EPS = 1e-5


class DataError(ValueError):
    """Malformed input data or an impossible data request."""


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass
class DomainDataset:
    domain_id: int
    domain_name: str
    series_names: list[str]
    timestamps: list[np.ndarray]          # int64, contiguous after ingest fill
    values: list[np.ndarray]              # float64, one per series
    features: list[np.ndarray] | None = None   # (len, feat_dim) per series

    @property
    def feat_dim(self) -> int:
        return 0 if self.features is None else self.features[0].shape[1]


@dataclass
class WindowSample:
    x: np.ndarray                 # (T,) lookback
    a: np.ndarray                 # (T, feat_dim), feat_dim may be 0
    y: np.ndarray                 # (h,) target horizon
    domain_id: int
    series_name: str
    origin: int                   # timestamp of the last lookback step
    y_raw: np.ndarray             # target in original units, for metrics
    scale: float = 1.0
    norm_mean: float = 0.0
    norm_std: float = 1.0


@dataclass
class DomainSplit:
    train_domains: list[int]
    test_domains: list[int]
    boundaries: dict[int, tuple[int, int]]   # train domain -> (train_end_ts, val_end_ts)
    seed: int


@dataclass
class SyntheticSpec:
    num_domains: int = 6
    series_per_domain: int = 4
    length: int = 200
    shared_period: float = 20.0
    shared_amplitude: float = 3.0
    trend_slope_range: tuple[float, float] = (-0.01, 0.01)
    domain_period_range: tuple[float, float] = (5.0, 15.0)
    domain_amplitude_range: tuple[float, float] = (0.5, 2.0)
    phase_range: tuple[float, float] = (0.0, 6.283185307179586)
    noise_std: float = 0.1
    seed: int = 0
    base_level: float = 10.0

    def validate(self) -> None:
        if self.num_domains < 1 or self.series_per_domain < 1 or self.length < 2:
            raise DataError("synthetic spec: num_domains, series_per_domain, length must be positive")
        for name in ("trend_slope_range", "domain_period_range",
                     "domain_amplitude_range", "phase_range"):
            lo, hi = getattr(self, name)
            if not lo <= hi:
                raise DataError(f"synthetic spec: empty range {name}=({lo}, {hi})")
        if self.noise_std < 0:
            raise DataError("synthetic spec: noise_std must be >= 0")


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def _parse_timestamp(raw: str, line_no: int) -> int:
    raw = raw.strip()
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return _dt.date.fromisoformat(raw).toordinal()
    except ValueError:
        raise DataError(f"line {line_no}: unparseable timestamp {raw!r}") from None


def ingest_csv(path, value_scale: float = 1.0, fill_missing: float = 0.0) -> list[DomainDataset]:
    """Load the domain/series/timestamp/value schema into DomainDatasets.

    Rows are grouped by domain then series and sorted by timestamp; gaps in a
    series' timestamp range are filled with `fill_missing` (features with 0).
    Values are divided by `value_scale`.
    """
    rows: dict[str, dict[str, dict[int, tuple[float, tuple[float, ...]]]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty CSV file") from None
        header = [h.strip() for h in header]
        if header[:4] != ["domain", "series", "timestamp", "value"]:
            raise DataError(f"unexpected header {header!r}; need domain,series,timestamp,value[,feat_*]")
        feat_dim = len(header) - 4
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 4 + feat_dim:
                raise DataError(f"line {line_no}: expected {4 + feat_dim} columns, got {len(row)}")
            dom, ser = row[0].strip(), row[1].strip()
            ts = _parse_timestamp(row[2], line_no)
            try:
                val = float(row[3]) / value_scale
                feats = tuple(float(v) for v in row[4:])
            except ValueError:
                raise DataError(f"line {line_no}: unparseable numeric value") from None
            if not math.isfinite(val) or (feat_dim and not all(map(math.isfinite, feats))):
                raise DataError(f"line {line_no}: non-finite value")
            per_series = rows.setdefault(dom, {}).setdefault(ser, {})
            if ts in per_series:
                raise DataError(f"line {line_no}: duplicate (domain={dom}, series={ser}, timestamp={ts})")
            per_series[ts] = (val, feats)

    datasets = []
    for dom_idx, dom in enumerate(sorted(rows)):
        names, stamps, vals, feats = [], [], [], []
        for ser in sorted(rows[dom]):
            table = rows[dom][ser]
            lo, hi = min(table), max(table)
            full = np.arange(lo, hi + 1, dtype=np.int64)
            v = np.full(full.size, fill_missing, dtype=np.float64)
            f = np.zeros((full.size, feat_dim), dtype=np.float64)
            for ts, (val, fr) in table.items():
                v[ts - lo] = val
                if feat_dim:
                    f[ts - lo] = fr
            names.append(ser)
            stamps.append(full)
            vals.append(v)
            feats.append(f)
        datasets.append(DomainDataset(
            domain_id=dom_idx, domain_name=dom, series_names=names,
            timestamps=stamps, values=vals,
            features=feats if feat_dim else None,
        ))
    return datasets


def write_csv(datasets: Sequence[DomainDataset], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        feat_dim = datasets[0].feat_dim if datasets else 0
        writer.writerow(["domain", "series", "timestamp", "value"]
                        + [f"feat_{i}" for i in range(feat_dim)])
        for ds in datasets:
            for s, name in enumerate(ds.series_names):
                for i, ts in enumerate(ds.timestamps[s]):
                    row = [ds.domain_name, name, int(ts), repr(float(ds.values[s][i]))]
                    if feat_dim:
                        row += [repr(float(v)) for v in ds.features[s][i]]
                    writer.writerow(row)


# ---------------------------------------------------------------------------
# Windows
# ---------------------------------------------------------------------------

def make_windows(datasets: Iterable[DomainDataset], lookback: int, horizon: int,
                 stride: int = 1) -> tuple[list[WindowSample], int]:
    """Slide (lookback, horizon) windows over every series.

    Series shorter than lookback + horizon are skipped; the second return
    value counts them.
    """
    if lookback < 1 or horizon < 1 or stride < 1:
        raise DataError("lookback, horizon, stride must be >= 1")
    windows: list[WindowSample] = []
    skipped = 0
    for ds in datasets:
        for s, name in enumerate(ds.series_names):
            v = ds.values[s]
            ts = ds.timestamps[s]
            f = ds.features[s] if ds.features is not None else np.zeros((v.size, 0))
            if v.size < lookback + horizon:
                skipped += 1
                continue
            for i in range(0, v.size - lookback - horizon + 1, stride):
                y = v[i + lookback:i + lookback + horizon]
                windows.append(WindowSample(
                    x=v[i:i + lookback].copy(),
                    a=f[i:i + lookback].copy(),
                    y=y.copy(),
                    domain_id=ds.domain_id,
                    series_name=name,
                    origin=int(ts[i + lookback - 1]),
                    y_raw=y.copy(),
                ))
    return windows, skipped


def windows_for_role(datasets: Sequence[DomainDataset], split: DomainSplit, role: str,
                     lookback: int, horizon: int, stride: int = 1) -> list[WindowSample]:
    """Windows restricted by split role.

    train: window fits inside the training period of a training domain.
    val:   target starts at/after the training boundary of a training domain.
    test:  every window of a test domain.
    """
    if role not in ("train", "val", "test"):
        raise DataError(f"unknown window role {role!r}")
    by_id = {ds.domain_id: ds for ds in datasets}
    wanted = split.test_domains if role == "test" else split.train_domains
    out: list[WindowSample] = []
    for dom in wanted:
        ds = by_id[dom]
        wins, _ = make_windows([ds], lookback, horizon, stride)
        if role == "test":
            out.extend(wins)
            continue
        train_end, _ = split.boundaries[dom]
        for w in wins:
            target_start = w.origin + 1
            target_end = w.origin + horizon
            if role == "train" and target_end < train_end:
                out.append(w)
            elif role == "val" and target_start >= train_end:
                out.append(w)
    return out


# ---------------------------------------------------------------------------
# Scaling and reversible instance normalization
# ---------------------------------------------------------------------------

def apply_scaling(sample: WindowSample) -> WindowSample:
    """Divide x and y by 1 + mean(|x|); the factor is stored for inversion."""
    scale = 1.0 + float(np.mean(np.abs(sample.x)))
    return replace(sample, x=sample.x / scale, y=sample.y / scale,
                   scale=sample.scale * scale)


def invert_scaling(sample: WindowSample) -> WindowSample:
    return replace(sample, x=sample.x * sample.scale, y=sample.y * sample.scale,
                   scale=1.0)


def revin_normalize(x: np.ndarray) -> tuple[np.ndarray, tuple[float, float]]:
    mean = float(np.mean(x))
    std = float(np.std(x))
    return (x - mean) / (std + REVIN_EPS), (mean, std)


def revin_denormalize(out: np.ndarray, stats: tuple[float, float]) -> np.ndarray:
    mean, std = stats
    return out * (std + REVIN_EPS) + mean


def normalize_sample(sample: WindowSample) -> WindowSample:
    """Instance-normalize x (stats from x) and map y into the same frame."""
    xn, (mean, std) = revin_normalize(sample.x)
    yn = (sample.y - mean) / (std + REVIN_EPS)
    return replace(sample, x=xn, y=yn, norm_mean=mean, norm_std=std)


def prepare_samples(windows: Iterable[WindowSample]) -> list[WindowSample]:
    """Scaling then instance normalization, the model-facing input frame."""
    return [normalize_sample(apply_scaling(w)) for w in windows]


def one_hot_domain(domain_index: int, num_train_domains: int) -> np.ndarray:
    if not 0 <= domain_index < num_train_domains:
        raise DataError(
            f"domain index {domain_index} outside the {num_train_domains} training domains"
        )
    vec = np.zeros(num_train_domains)
    vec[domain_index] = 1.0
    return vec


# ---------------------------------------------------------------------------
# Synthetic generation and domain splitting
# ---------------------------------------------------------------------------

def synthetic_value(t: np.ndarray, slope: float, shared_amplitude: float,
                    shared_period: float, amp: float, period: float,
                    phase: float, base: float) -> np.ndarray:
    return (base + slope * t
            + shared_amplitude * np.sin(2.0 * np.pi * t / shared_period)
            + amp * np.sin(2.0 * np.pi * t / period + phase))


def generate_synthetic(spec: SyntheticSpec) -> list[DomainDataset]:
    """Trend + shared sinusoid + domain sinusoid + noise, per series.

    Randomness is seed-partitioned per domain, so generation order (or
    parallelism) cannot change the output.
    """
    spec.validate()
    t = np.arange(spec.length, dtype=np.float64)
    datasets = []
    for j in range(spec.num_domains):
        rng = np.random.default_rng([spec.seed, j])
        slope = rng.uniform(*spec.trend_slope_range)
        period = rng.uniform(*spec.domain_period_range)
        amp = rng.uniform(*spec.domain_amplitude_range)
        phase = rng.uniform(*spec.phase_range)
        clean = synthetic_value(t, slope, spec.shared_amplitude, spec.shared_period,
                                amp, period, phase, spec.base_level)
        names, stamps, vals = [], [], []
        for s in range(spec.series_per_domain):
            noise = rng.normal(0.0, spec.noise_std, spec.length) if spec.noise_std > 0 \
                else np.zeros(spec.length)
            names.append(f"s{s}")
            stamps.append(np.arange(spec.length, dtype=np.int64))
            vals.append(clean + noise)
        datasets.append(DomainDataset(domain_id=j, domain_name=f"dom{j}",
                                      series_names=names, timestamps=stamps, values=vals))
    return datasets


def split_domains(datasets: Sequence[DomainDataset], test_fraction: float = 0.2,
                  seed: int = 0, val_fraction: float = 0.2) -> DomainSplit:
    """Random domain partition plus per-training-domain validation tails."""
    ids = sorted(ds.domain_id for ds in datasets)
    if len(ids) < 2:
        raise DataError("need at least 2 domains to split")
    n_test = int(len(ids) * test_fraction + 0.5)
    if n_test == 0:
        raise DataError(f"test_fraction={test_fraction} yields 0 test domains")
    if n_test >= len(ids):
        raise DataError(f"test_fraction={test_fraction} leaves no training domains")
    rng = np.random.default_rng(seed)
    order = [ids[i] for i in rng.permutation(len(ids))]
    test = sorted(order[:n_test])
    train = sorted(order[n_test:])

    by_id = {ds.domain_id: ds for ds in datasets}
    boundaries = {}
    for dom in train:
        ds = by_id[dom]
        t0 = int(min(ts[0] for ts in ds.timestamps))
        t1 = int(max(ts[-1] for ts in ds.timestamps)) + 1
        span = t1 - t0
        train_end = t0 + int(span * (1.0 - val_fraction))
        if not t0 < train_end < t1:
            raise DataError(f"domain {dom}: validation tail empty for val_fraction={val_fraction}")
        boundaries[dom] = (train_end, t1)
    return DomainSplit(train_domains=train, test_domains=test,
                       boundaries=boundaries, seed=seed)
