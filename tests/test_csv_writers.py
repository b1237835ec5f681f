"""The CSV writers against the csv.writer code they replaced, kept here as
the reference: every file must come out byte for byte the same, whatever
the names hold (quotes, delimiters, line breaks, spaces, non-ASCII) and
whatever the numbers are (nan, infinities, -0.0, subnormals, huge values)."""

import csv
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from latentcast import cli
from latentcast.data import DomainDataset, WindowSet, write_csv
from latentcast.decomposition import Parts
from latentcast.forecaster import QUANTILE_LEVELS, Forecasts, write_forecast_csv
from latentcast.latent import LatentDump, write_dump

NAMES = st.one_of(
    st.sampled_from(["", " ", "a,b", 'say "hi"', '"', "cr\rx", "lf\nx", "crlf\r\nx", "\r\n",
                     " lead", "trail ", "déjà", "日本", "x" * 40]),
    st.text(st.characters(codec="utf-8"), max_size=6))
SPECIAL_VALUES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
                  1e-310, 1e300, -1e300, 0.1, 1 / 3]
VALUES = st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats())
FINITE_VALUES = st.one_of(st.sampled_from([v for v in SPECIAL_VALUES if math.isfinite(v)]),
                          st.floats(allow_nan=False, allow_infinity=False))
INTS = st.integers(-10**12, 10**12)


def floats(*shape, elements=VALUES):
    return arrays(np.float64, shape, elements=elements)


# ---------------------------------------------------------------------------
# The writers' csv.writer code before the shared line encoder
# ---------------------------------------------------------------------------

def reference_forecast_csv(path, windows, dists):
    levels, _, h = dists.quantiles.shape
    text = map(repr, dists.quantiles.transpose(1, 2, 0).ravel().tolist())
    rows = zip(np.repeat(windows.domain_id, h).tolist(),
               np.repeat(windows.series_name, h).tolist(), np.repeat(windows.origin, h).tolist(),
               np.tile(np.arange(1, h + 1), len(windows)).tolist(), zip(*[text] * levels))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["domain", "series", "origin_timestamp", "step"]
                        + [f"q{int(q * 100)}" for q in QUANTILE_LEVELS] + ["point"])
        writer.writerows([*key, *q, q[4]] for *key, q in rows)


def reference_dump(dump, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# d_z={dump.d_z} alpha={dump.alpha}\n")
        writer = csv.writer(fh)
        writer.writerow(["domain_id", "series", "origin"]
                        + [f"zsh_{i}" for i in range(dump.z_shared.shape[1])]
                        + [f"zsp_{i}" for i in range(dump.z_specific.shape[1])])
        writer.writerows(zip(dump.domain_id.tolist(), dump.series_name.tolist(),
                             dump.origin.tolist(), *dump.z_shared.T.tolist(),
                             *dump.z_specific.T.tolist()))


def reference_data_csv(datasets, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        feat_dim = datasets[0].feat_dim if datasets else 0
        writer.writerow(["domain", "series", "timestamp", "value"]
                        + [f"feat_{i}" for i in range(feat_dim)])
        for ds in datasets:
            for s, name in enumerate(ds.series_names):
                columns = [ds.timestamps[s].tolist(), ds.values[s].tolist()]
                columns += ds.features[s].T.tolist() if feat_dim else []
                writer.writerows([ds.domain_name, name, *row] for row in zip(*columns))


def reference_decomposition_csv(path, values, parts):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("value,trend,seasonal\n")
        for v, t, sv in zip(values, parts.x_t, parts.x_s):
            fh.write(f"{float(v)!r},{float(t)!r},{float(sv)!r}\n")


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

@st.composite
def window_keys(draw, n):
    """Domain ids, series names and origins of n windows."""
    return (np.array(draw(st.lists(INTS, min_size=n, max_size=n)), dtype=np.int64),
            np.array(draw(st.lists(NAMES, min_size=n, max_size=n)), dtype=str),
            np.array(draw(st.lists(INTS, min_size=n, max_size=n)), dtype=np.int64))


@st.composite
def forecasts(draw):
    n, h = draw(st.integers(0, 4)), draw(st.integers(1, 3))
    domain_id, series_name, origin = draw(window_keys(n))
    zeros = np.zeros((n, 1))
    windows = WindowSet(x=zeros, a=np.zeros((n, 1, 0)), y=np.zeros((n, h)), domain_id=domain_id,
                        series_name=series_name, origin=origin, y_raw=np.zeros((n, h)),
                        scale=zeros[:, 0], norm_mean=zeros[:, 0], norm_std=zeros[:, 0])
    return windows, Forecasts(draw(floats(len(QUANTILE_LEVELS), n, h)))


@st.composite
def dumps(draw):
    n, shared, specific = draw(st.integers(0, 4)), draw(st.integers(0, 2)), draw(st.integers(0, 2))
    domain_id, series_name, origin = draw(window_keys(n))
    return LatentDump(shared + specific, 0.5, domain_id, series_name, origin,
                      draw(floats(n, shared)), draw(floats(n, specific)))


@st.composite
def datasets(draw):
    feat_dim = draw(st.sampled_from([0, 2]))
    out = []
    for i in range(draw(st.integers(0, 3))):
        names = draw(st.lists(NAMES, min_size=1, max_size=3))
        lengths = [draw(st.integers(0, 4)) for _ in names]
        out.append(DomainDataset(
            domain_id=i, domain_name=draw(NAMES), series_names=names,
            timestamps=[np.array(draw(st.lists(INTS, min_size=k, max_size=k)), dtype=np.int64)
                        for k in lengths],
            values=[draw(floats(k)) for k in lengths],
            features=[draw(floats(k, feat_dim)) for k in lengths] if feat_dim else None))
    return out


def same_bytes(write, reference, *args):
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = Path(tmp) / "ours.csv", Path(tmp) / "reference.csv"
        write(ours, *args)
        reference(theirs, *args)
        assert ours.read_bytes() == theirs.read_bytes()


# ---------------------------------------------------------------------------
# Byte identity
# ---------------------------------------------------------------------------

@given(forecasts())
def test_forecast_csv_matches_csv_writer(case):
    same_bytes(write_forecast_csv, reference_forecast_csv, *case)


@given(dumps())
def test_latent_dump_matches_csv_writer(dump):
    same_bytes(lambda path, d: write_dump(d, path), lambda path, d: reference_dump(d, path), dump)


@given(datasets())
def test_data_csv_matches_csv_writer(sets):
    same_bytes(lambda path, d: write_csv(d, path), lambda path, d: reference_data_csv(d, path),
               sets)


@given(st.integers(1, 5).flatmap(lambda t: st.tuples(
    floats(t, elements=FINITE_VALUES), floats(t), floats(t))))
def test_decomposition_csv_matches_the_line_writer(case):
    # the values come through ingest, which takes finite values only; the
    # trend and seasonal parts are drawn freely, in place of `decompose_batch`
    values, trend, seasonal = case
    parts = Parts(trend, seasonal)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data = tmp / "data.csv"
        data.write_text("domain,series,timestamp,value\n"
                        + "".join(f"d,s,{t},{v!r}\n" for t, v in enumerate(values.tolist())),
                        encoding="utf-8")
        with mock.patch.object(cli, "decompose_batch", lambda x, kernel: parts):
            assert cli.main(["decompose", "--data", str(data), "--kernel", "1",
                             "--out", str(tmp / "dec")]) == 0
        reference_decomposition_csv(tmp / "reference.csv", values, parts)
        assert ((tmp / "dec" / "decomposition.csv").read_bytes()
                == (tmp / "reference.csv").read_bytes())
