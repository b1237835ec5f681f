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
import warnings
from dataclasses import dataclass, fields, replace
from functools import cache
from typing import Iterable, Sequence, get_args, get_origin, get_type_hints

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .checkpoint import atomic_write, csv_lines, csv_row, repr_rows

REVIN_EPS = 1e-5
MAX_SERIES_STEPS = 10_000_000    # longest timestamp span a series may fill gaps over
PREPARE_BLOCK = 1 << 14          # rows per block of prepare_samples' temporaries
SCAN_BLOCK = 1 << 16             # bytes per block of ingest's scan for marks
# the information separators: numpy's number parsers skip them as space,
# Python's int and float refuse them
NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


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
    """One window as a record; a `WindowSet` row's arrays are views into the set."""
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
class WindowSet:
    """N windows as arrays: `WindowSample`'s fields, each with a leading row
    axis, rows in domain, series, origin order. It is a sequence of rows: an
    integer index gives a `WindowSample` whose arrays are views into the set;
    a slice, mask or index array gives the sub-set."""
    x: np.ndarray                 # (N, T)
    a: np.ndarray                 # (N, T, feat_dim)
    y: np.ndarray                 # (N, h)
    domain_id: np.ndarray         # (N,) int64
    series_name: np.ndarray       # (N,) str
    origin: np.ndarray            # (N,) int64
    y_raw: np.ndarray             # (N, h)
    scale: np.ndarray             # (N,)
    norm_mean: np.ndarray         # (N,)
    norm_std: np.ndarray          # (N,)

    def __len__(self) -> int:
        return self.x.shape[0]

    def __getitem__(self, index):
        columns = {f.name: getattr(self, f.name)[index] for f in fields(self)}
        if isinstance(index, (int, np.integer)):
            return WindowSample(**{k: v if v.ndim else v.item() for k, v in columns.items()})
        return WindowSet(**columns)


def as_window_set(windows: WindowSet | Iterable[WindowSample]) -> WindowSet:
    """The set itself, or the rows of a plain sequence stacked into one."""
    if isinstance(windows, WindowSet):
        return windows
    rows = list(windows)
    return WindowSet(**{f.name: np.array([getattr(r, f.name) for r in rows])
                        for f in fields(WindowSet)})


@dataclass
class DomainSplit:
    train_domains: list[int]
    test_domains: list[int]
    boundaries: dict[int, tuple[int, int]]   # train domain -> (train_end_ts, val_end_ts)
    seed: int


# the value types a config field of each annotated type accepts; bool, an int
# subclass, is rejected on its own
_ACCEPTED_TYPES = {int: (int,), float: (int, float), str: (str,), type(None): (type(None),)}


@cache
def field_types(cls) -> dict[str, tuple[str, tuple[type, ...], int | None]]:
    """Per field of the config dataclass `cls`: its annotation's name, the
    value types it accepts, and the item count of a `tuple[X, ...]` field
    (None for any other). Resolving the annotations takes longer than
    checking the values, so it is done once per class."""
    out = {}
    for name, hint in get_type_hints(cls).items():
        size = len(get_args(hint)) if get_origin(hint) is tuple else None
        kinds = get_args(hint)[:1] if size else get_args(hint) or (hint,)
        out[name] = (str(hint) if size else getattr(hint, "__name__", str(hint)),
                     tuple(t for kind in kinds for t in _ACCEPTED_TYPES[kind]), size)
    return out


def check_field_types(config) -> None:
    """ValueError naming the first field of the config dataclass whose value
    does not have its annotated type: a bool is no number, a float must be
    finite, and a tuple field holds exactly its annotated count of items."""
    for name, (kind, accepted, size) in field_types(type(config)).items():
        value = getattr(config, name)
        if size is not None and not (isinstance(value, tuple) and len(value) == size):
            raise ValueError(f"{name} must be {kind}, got {value!r}")
        for item in (value,) if size is None else value:
            if isinstance(item, bool) or not isinstance(item, accepted):
                raise ValueError(f"{name} must be {kind}, got {value!r}")
            if isinstance(item, float) and not np.isfinite(item):
                raise ValueError(f"{name} must be finite, got {value!r}")


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
        try:
            check_field_types(self)
        except ValueError as exc:
            raise DataError(f"synthetic spec: {exc}") from None
        if self.num_domains < 1 or self.series_per_domain < 1 or self.length < 2:
            raise DataError("synthetic spec: num_domains, series_per_domain, length must be positive")
        for name in ("trend_slope_range", "domain_period_range",
                     "domain_amplitude_range", "phase_range"):
            lo, hi = getattr(self, name)
            if not lo <= hi:
                raise DataError(f"synthetic spec: empty range {name}=({lo}, {hi})")
        lo, hi = self.domain_period_range
        if self.shared_period == 0 or lo <= 0 <= hi:
            raise DataError(f"synthetic spec: periods must be nonzero, got shared_period="
                            f"{self.shared_period!r}, domain_period_range=({lo}, {hi})")
        if self.noise_std < 0:
            raise DataError("synthetic spec: noise_std must be >= 0")
        if self.seed < 0:
            raise DataError(f"synthetic spec: seed must be >= 0, got {self.seed}")


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def _parse_timestamp(raw: str) -> int:
    """An integer, or an ISO-8601 date as its ordinal; it must fit in int64."""
    raw = raw.strip()
    try:
        stamp = int(raw)
    except ValueError:
        stamp = _dt.date.fromisoformat(raw).toordinal()
    if not -2**63 <= stamp < 2**63:
        raise ValueError(f"timestamp {stamp} outside int64")
    return stamp


def _records(lines: list[str]):
    """csv.reader's records with their line numbers (the header is line 1),
    skipping blank and whitespace-only ones."""
    for line_no, row in enumerate(csv.reader(lines), start=2):
        if row and (len(row) > 1 or row[0].strip()):
            yield line_no, row


def _width(fh) -> int:
    """The column count of the header that starts the open CSV file, read
    as one csv.reader record; DataError when it is missing or not the
    schema's."""
    header = next(csv.reader(fh), None)
    if header is None:
        raise DataError("empty CSV file")
    header = [h.strip() for h in header]
    if header[:4] != ["domain", "series", "timestamp", "value"]:
        raise DataError(f"unexpected header {header!r}; need domain,series,timestamp,value[,feat_*]")
    return len(header)


def _body(fh) -> list[str]:
    """The lines after the header of the open CSV file, read again from its
    start."""
    fh.seek(0)
    next(csv.reader(fh))
    return fh.readlines()


def _marks(path) -> str:
    """The characters of `'"' + NUMPY_ONLY_SPACE` that the file holds, from a
    scan of its bytes in blocks (none of them is part of a longer UTF-8
    sequence)."""
    found = set()
    with open(path, "rb") as raw:
        for block in iter(lambda: raw.read(SCAN_BLOCK), b""):
            found.update(c for c in '"' + NUMPY_ONLY_SPACE if c.encode() in block)
    return "".join(sorted(found))


class _Codes(dict):
    """Maps each distinct field of a column to its first-seen index, so that
    the tokenizer keeps an int per row, not a string."""
    def __missing__(self, key: str) -> int:
        self[key] = code = len(self)
        return code


def _read(records, width: int, native: bool) -> tuple[np.ndarray, list[_Codes]]:
    """One pass of numpy's tokenizer over `records`, an open file or a list
    of one string per record: the table, with domain and series as codes,
    and their two code dicts. With `native`, numpy parses timestamps and
    numbers in C; otherwise Python does, in its wider grammar (`1_000.5`,
    non-ASCII digits, ISO dates), each distinct timestamp field once."""
    codes = [_Codes() for _ in range(2 if native else 3)]
    converters = {j: c.__getitem__ for j, c in enumerate(codes)}
    if not native:
        converters.update(dict.fromkeys(range(3, width), float))
    dtype = [("domain", np.int64), ("series", np.int64), ("timestamp", np.int64),
             ("numbers", np.float64, (width - 3,))]
    with warnings.catch_warnings():
        # numpy releases that still read an int64 field such as 3.7 through
        # a float, truncated, warn instead of refusing it; as an error numpy
        # raises ValueError, and the records take Python's grammar
        warnings.simplefilter("error", DeprecationWarning)
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        table = np.loadtxt(records, dtype=dtype, delimiter=",", quotechar='"', comments=None,
                           ndmin=1, converters=converters)
    if not native:
        stamps = codes.pop()
        table["timestamp"] = np.fromiter(map(_parse_timestamp, stamps), np.int64,
                                         len(stamps))[table["timestamp"]]
    return table, codes


def _parse(records: list[str], width: int, native: bool) -> tuple[np.ndarray, list[_Codes]]:
    """`_read` in numpy's grammar if `native` and numpy accepts every field,
    otherwise in Python's."""
    if native:
        try:
            return _read(records, width, native=True)
        except ValueError:
            pass
    return _read(records, width, native=False)


def _table(fh, path, width: int) -> tuple[np.ndarray, list[_Codes]]:
    """The records of the open CSV file `fh`, positioned after its header,
    as `_read` gives them; ValueError when a record has another width or a
    field does not parse.

    numpy's tokenizer reads the open file in numpy's grammar, one line per
    record. The file takes the line path instead when it holds a quote or a
    character only numpy reads as space, or when numpy refuses it (a field
    outside numpy's grammar, a whitespace-only line, a fault). The path
    reads the file's lines again, drops those without visible text and
    tokenizes the rest, in numpy's grammar only if the file holds no such
    character and numpy has not read it yet. In a file with quotes, where
    that fails or gives fewer records than lines (a quoted line break), it
    tokenizes csv.reader's records as csv.writer writes them: only
    csv.reader sees a whitespace line inside quotes and skips a record that
    is one quoted blank."""
    marks = _marks(path)
    if not marks:
        try:
            return _read(fh, width, native=True)
        except UnicodeDecodeError:
            raise
        except ValueError:
            pass
    lines = _body(fh)
    text = list(filter(str.strip, lines))
    native = marks == '"'
    if '"' in marks:
        try:
            parsed = _parse(text, width, native)
            if len(parsed[0]) == len(text):
                return parsed
        except ValueError:
            pass
        text = [csv_row(row) + "\n" for _, row in _records(lines)]
    return _parse(text, width, native)


def _raise_first_fault(lines: list[str], width: int, value_scale: float) -> None:
    """The checks a record at a time, for the error message: raises DataError
    at the first record with the wrong width, an unparseable or non-finite
    field, or the (domain, series, timestamp) of an earlier record."""
    seen = set()
    for line_no, row in _records(lines):
        if len(row) != width:
            raise DataError(f"line {line_no}: expected {width} columns, got {len(row)}")
        try:
            key = (row[0].strip(), row[1].strip(), _parse_timestamp(row[2]))
        except ValueError:
            raise DataError(f"line {line_no}: unparseable timestamp {row[2].strip()!r}") from None
        try:
            numbers = [float(row[3]) / value_scale, *map(float, row[4:])]
        except ValueError:
            raise DataError(f"line {line_no}: unparseable numeric value") from None
        if not all(map(math.isfinite, numbers)):
            raise DataError(f"line {line_no}: non-finite value")
        if key in seen:
            raise DataError("line {}: duplicate (domain={}, series={}, timestamp={})"
                            .format(line_no, *key))
        seen.add(key)


def _names(codes: _Codes, column: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The sorted distinct stripped names of a coded column, and each row's
    index among them: the codes' fields are stripped and ranked once each."""
    stripped = list(map(str.strip, codes))
    names = sorted(set(stripped))
    rank = dict(zip(names, range(len(names))))
    return names, np.fromiter(map(rank.__getitem__, stripped), np.int64, len(stripped))[column]


def _sorted_columns(table: np.ndarray, codes: list[_Codes], value_scale: float):
    """The domain and series names, then the `_read` table's domain and
    series indices, timestamps and scaled numbers in domain, series,
    timestamp order; ValueError at a non-finite number or a repeated key."""
    domains, dom_id = _names(codes[0], table["domain"])
    series, ser_id = _names(codes[1], table["series"])
    ts, numbers = table["timestamp"], table["numbers"]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        numbers[:, 0] /= value_scale
    order = np.lexsort((ts, ser_id, dom_id))
    # one column at a time, so that at most one column is held twice
    dom_id = dom_id[order]
    ser_id = ser_id[order]
    ts = ts[order]
    numbers = numbers[order]
    same_key = (dom_id[1:] == dom_id[:-1]) & (ser_id[1:] == ser_id[:-1]) & (ts[1:] == ts[:-1])
    if not np.isfinite(numbers).all() or same_key.any():
        raise ValueError("a non-finite value or a duplicate key")
    return domains, series, dom_id, ser_id, ts, numbers


def ingest_csv(path, value_scale: float = 1.0, fill_missing: float = 0.0) -> list[DomainDataset]:
    """Load the domain/series/timestamp/value schema into DomainDatasets.

    Rows are grouped by domain then series and sorted by timestamp; gaps in a
    series' timestamp range are filled with `fill_missing` (features with 0).
    Values are divided by `value_scale`. The records are converted in one
    tokenizer pass over the open file where it can be (`_table`); when one
    is at fault, a scan of the file's lines names the first.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            width = _width(fh)
            try:
                # no name holds the table, so it is freed once its columns are sorted
                columns = _sorted_columns(*_table(fh, path, width), value_scale)
            except UnicodeDecodeError:
                raise
            except (ValueError, OverflowError):
                _raise_first_fault(_body(fh), width, value_scale)
                raise                   # the scan disagrees with the columns; not reached
    except UnicodeDecodeError as exc:
        raise DataError(f"not UTF-8 text: {exc.reason}") from None
    domains, series, dom_id, ser_id, ts, numbers = columns
    same_series = (dom_id[1:] == dom_id[:-1]) & (ser_id[1:] == ser_id[:-1])

    datasets = [DomainDataset(domain_id=i, domain_name=name, series_names=[], timestamps=[],
                              values=[], features=[] if width > 4 else None)
                for i, name in enumerate(domains)]
    starts = np.flatnonzero(np.r_[True, ~same_series]).tolist() if len(ts) else []
    for a, b in zip(starts, starts[1:] + [len(ts)]):
        ds, ser, lo, hi = datasets[dom_id[a]], series[ser_id[a]], int(ts[a]), int(ts[b - 1])
        if hi - lo + 1 > MAX_SERIES_STEPS:
            raise DataError(f"domain {ds.domain_name!r}, series {ser!r}: timestamps {lo}..{hi} "
                            f"span {hi - lo + 1} steps, over the gap-fill cap of "
                            f"{MAX_SERIES_STEPS}")
        filled = np.zeros((hi - lo + 1, width - 3))
        filled[:, 0] = fill_missing
        filled[ts[a:b] - lo] = numbers[a:b]
        ds.series_names.append(ser)
        ds.timestamps.append(np.arange(lo, hi + 1, dtype=np.int64))
        ds.values.append(np.ascontiguousarray(filled[:, 0]))
        if ds.features is not None:
            ds.features.append(np.ascontiguousarray(filled[:, 1:]))
    return datasets


def write_csv(datasets: Sequence[DomainDataset], path) -> None:
    feat_dim = datasets[0].feat_dim if datasets else 0
    with atomic_write(path, newline="") as fh:
        fh.write(csv_lines([["domain", "series", "timestamp", "value"]
                            + [f"feat_{i}" for i in range(feat_dim)]]))
        for ds in datasets:
            for s, name in enumerate(ds.series_names):
                key = csv_row([ds.domain_name, name])
                values = np.column_stack([ds.values[s]] + ([ds.features[s]] if feat_dim else []))
                fh.write(csv_lines((f"{key},{t}", *row) for t, row
                                   in zip(ds.timestamps[s].tolist(), repr_rows(values))))


# ---------------------------------------------------------------------------
# Windows
# ---------------------------------------------------------------------------

def windows_for_role(datasets: Sequence[DomainDataset], split: DomainSplit, role: str,
                     lookback: int, horizon: int, stride: int = 1) -> WindowSet:
    """The (lookback, horizon) windows of one split role, with origins on
    each series' stride grid and rows in domain, series, origin order:

    train: windows of a training domain whose target ends before its
           training boundary (origin < train_end - horizon);
    val:   windows of a training domain whose target starts at or after it
           (origin >= train_end - 1);
    test:  every window of a test domain.

    Only the role's windows are made. A series' timestamps must ascend, so
    each role is one run of its origins; a series shorter than lookback +
    horizon has no window. `y_raw` is the same array as `y`.
    """
    if role not in ("train", "val", "test"):
        raise DataError(f"unknown window role {role!r}")
    if lookback < 1 or horizon < 1 or stride < 1:
        raise DataError("lookback, horizon, stride must be >= 1")
    by_id = {ds.domain_id: ds for ds in datasets}
    runs = []                     # (dataset, series, first grid index, origins)
    for dom in split.test_domains if role == "test" else split.train_domains:
        ds = by_id[dom]
        for s, ts in enumerate(ds.timestamps):
            origins = ts[lookback - 1:max(ds.values[s].size - horizon, 0):stride]
            lo, hi = 0, len(origins)
            if role == "train":
                hi = int(np.searchsorted(origins, split.boundaries[dom][0] - horizon))
            elif role == "val":
                lo = int(np.searchsorted(origins, split.boundaries[dom][0] - 1))
            runs.append((ds, s, lo, origins[lo:hi]))
    counts = [len(origins) for *_, origins in runs]
    n, feat_dim = sum(counts), runs[0][0].feat_dim if runs else 0
    x, y, a = np.empty((n, lookback)), np.empty((n, horizon)), np.empty((n, lookback, feat_dim))
    origin = np.empty(n, dtype=np.int64)
    end = 0
    for (ds, s, lo, origins), k in zip(runs, counts):
        if not k:
            continue
        rows, end = slice(end, end + k), end + k
        origin[rows] = origins
        win = sliding_window_view(ds.values[s], lookback + horizon)[lo * stride::stride][:k]
        x[rows], y[rows] = win[:, :lookback], win[:, lookback:]
        if feat_dim:
            feats = sliding_window_view(ds.features[s], lookback, axis=0)
            a[rows] = feats[lo * stride::stride][:k].transpose(0, 2, 1)
    return WindowSet(
        x=x, a=a, y=y, y_raw=y, origin=origin, scale=np.ones(n), norm_mean=np.zeros(n),
        norm_std=np.ones(n),
        domain_id=np.repeat(np.array([ds.domain_id for ds, *_ in runs], dtype=np.int64), counts),
        series_name=np.repeat(np.array([ds.series_names[s] for ds, s, *_ in runs], dtype=str),
                              counts))


# ---------------------------------------------------------------------------
# Scaling and reversible instance normalization
# ---------------------------------------------------------------------------

def revin_normalize(x: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Instance normalization along the last axis; the (mean, std) stats
    keep that axis with length 1."""
    mean = np.mean(x, axis=-1, keepdims=True)
    std = np.std(x, axis=-1, keepdims=True)
    return (x - mean) / (std + REVIN_EPS), (mean, std)


def revin_denormalize(out: np.ndarray, stats) -> np.ndarray:
    mean, std = stats
    return out * (std + REVIN_EPS) + mean


def prepare_samples(windows: WindowSet | Iterable[WindowSample],
                    in_place: bool = False) -> WindowSet:
    """Scaling then instance normalization, the model-facing input frame.

    Each row of x and y is divided by 1 + mean(|x|) (the factor multiplies
    `scale`), then x is instance-normalized and y mapped into the same
    frame. `in_place` overwrites the input set's x, for callers that drop
    the raw windows.
    """
    ws = as_window_set(windows)
    x = ws.x if in_place else ws.x.copy()
    n = len(ws)
    scale, mean, std = np.empty((n, 1)), np.empty((n, 1)), np.empty((n, 1))
    for lo in range(0, n, PREPARE_BLOCK):
        rows = slice(lo, lo + PREPARE_BLOCK)
        scale[rows] = 1.0 + np.mean(np.abs(x[rows]), axis=-1, keepdims=True)
        x[rows] /= scale[rows]
        x[rows], (mean[rows], std[rows]) = revin_normalize(x[rows])
    y = ws.y / scale
    y -= mean
    y /= std + REVIN_EPS
    return replace(ws, x=x, y=y, scale=ws.scale * scale[:, 0], norm_mean=mean[:, 0],
                   norm_std=std[:, 0])


def one_hot_domain(domain_index, num_train_domains: int) -> np.ndarray:
    """One-hot rows for a training-domain index or an array of them."""
    index = np.asarray(domain_index)
    if np.any((index < 0) | (index >= num_train_domains)):
        raise DataError(f"domain index {domain_index} outside the {num_train_domains} "
                        "training domains")
    return np.eye(num_train_domains)[index]


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
        if not np.isfinite(vals).all():
            raise DataError(f"synthetic spec: domain {j}'s values overflow float64")
        datasets.append(DomainDataset(domain_id=j, domain_name=f"dom{j}",
                                      series_names=names, timestamps=stamps, values=vals))
    return datasets


def split_domains(datasets: Sequence[DomainDataset], test_fraction: float = 0.2,
                  seed: int = 0, val_fraction: float = 0.2) -> DomainSplit:
    """Random domain partition plus per-training-domain validation tails; an
    empty side of either is a data error."""
    ids = sorted(ds.domain_id for ds in datasets)
    if len(ids) < 2:
        raise DataError("need at least 2 domains to split")
    n_test = int(len(ids) * test_fraction + 0.5)
    if not 0 < n_test < len(ids):
        raise DataError(f"test_fraction={test_fraction} holds out {n_test} of {len(ids)} "
                        "domains; the test and training sides each need one")
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
            side = "training period" if train_end <= t0 else "validation tail"
            raise DataError(f"domain {dom}: {side} empty for val_fraction={val_fraction}")
        boundaries[dom] = (train_end, t1)
    return DomainSplit(train_domains=train, test_domains=test,
                       boundaries=boundaries, seed=seed)
