"""The columnar window store against a per-window reference: windowing,
split roles, scaling and RevIN, the memory a role's windows take, the row
interface that code outside the package reads, and forecasts that do not
depend on how a split is chunked."""

import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from latentcast.data import (REVIN_EPS, DomainDataset, DomainSplit, SyntheticSpec,
                             WindowSample, generate_synthetic, prepare_samples,
                             revin_denormalize, split_domains, windows_for_role)
from latentcast.forecaster import ForecastDistribution
from latentcast.training import (TrainConfig, build, evaluate_split, pipeline_split,
                                 predict_windows, run_pipeline)


# ---------------------------------------------------------------------------
# Slow reference: one object per window, as the package built them before
# windows became arrays.
# ---------------------------------------------------------------------------

def reference_windows(datasets, lookback, horizon, stride=1):
    windows = []
    for ds in datasets:
        for s, name in enumerate(ds.series_names):
            v = ds.values[s]
            ts = ds.timestamps[s]
            f = ds.features[s] if ds.features is not None else np.zeros((v.size, 0))
            for i in range(0, v.size - lookback - horizon + 1, stride):
                y = v[i + lookback:i + lookback + horizon]
                windows.append(WindowSample(
                    x=v[i:i + lookback].copy(), a=f[i:i + lookback].copy(), y=y.copy(),
                    domain_id=ds.domain_id, series_name=name,
                    origin=int(ts[i + lookback - 1]), y_raw=y.copy()))
    return windows


def reference_role(datasets, split, role, lookback, horizon, stride=1):
    """A role's windows by masking every window of its side's domains."""
    by_id = {ds.domain_id: ds for ds in datasets}
    wanted = split.test_domains if role == "test" else split.train_domains
    ref = reference_windows([by_id[d] for d in wanted], lookback, horizon, stride)
    if role == "train":
        return [w for w in ref if w.origin + horizon < split.boundaries[w.domain_id][0]]
    if role == "val":
        return [w for w in ref if w.origin + 1 >= split.boundaries[w.domain_id][0]]
    return ref


def every_window(datasets, lookback, horizon, stride=1):
    """Every window of every series: the test role of a split that tests
    every domain."""
    split = DomainSplit([], [ds.domain_id for ds in datasets], {}, seed=0)
    return windows_for_role(datasets, split, "test", lookback, horizon, stride)


def reference_prepare(windows):
    out = []
    for w in windows:
        scale = 1.0 + float(np.mean(np.abs(w.x)))
        x, y = w.x / scale, w.y / scale
        mean, std = float(np.mean(x)), float(np.std(x))
        out.append(replace(w, x=(x - mean) / (std + REVIN_EPS),
                           y=(y - mean) / (std + REVIN_EPS), scale=w.scale * scale,
                           norm_mean=mean, norm_std=std))
    return out


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_rows_equal(got, expected):
    """Every row of the set bit-equal to the reference window at its place."""
    assert len(got) == len(expected)
    for i, w in enumerate(expected):
        assert same_bits(got.x[i], w.x) and same_bits(got.a[i], w.a)
        assert same_bits(got.y[i], w.y) and same_bits(got.y_raw[i], w.y_raw)
        assert (int(got.domain_id[i]), str(got.series_name[i]), int(got.origin[i])) \
            == (w.domain_id, w.series_name, w.origin)
        assert same_bits(got.scale[i], np.float64(w.scale))
        assert same_bits(got.norm_mean[i], np.float64(w.norm_mean))
        assert same_bits(got.norm_std[i], np.float64(w.norm_std))


@st.composite
def window_inputs(draw):
    """Datasets with series of assorted lengths (some too short to window),
    start stamps, value kinds (integer-valued series make ties and constant
    windows), 0 or 2 features, plus lookback, horizon and stride."""
    feat_dim = draw(st.sampled_from((0, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    datasets = []
    for j in range(draw(st.integers(1, 4))):
        lengths = draw(st.lists(st.integers(1, 40), min_size=1, max_size=3))
        starts = [draw(st.integers(-5, 5)) for _ in lengths]
        integer = draw(st.booleans())
        values = [rng.integers(-2, 3, n).astype(float) if integer
                  else rng.normal(3.0, 2.0, n) for n in lengths]
        datasets.append(DomainDataset(
            domain_id=j, domain_name=f"d{j}", series_names=[f"s{k}" for k in range(len(lengths))],
            timestamps=[np.arange(t0, t0 + n, dtype=np.int64) for t0, n in zip(starts, lengths)],
            values=values,
            features=[rng.normal(size=(n, feat_dim)) for n in lengths] if feat_dim else None))
    return (datasets, draw(st.integers(1, 12)), draw(st.integers(1, 6)),
            draw(st.integers(1, 5)))


@given(window_inputs())
def test_windows_and_preparation_equal_the_reference(inputs):
    datasets, lookback, horizon, stride = inputs
    windows = every_window(datasets, lookback, horizon, stride)
    ref = reference_windows(datasets, lookback, horizon, stride)
    assert_rows_equal(windows, ref)
    assert_rows_equal(prepare_samples(windows), reference_prepare(ref))


@given(window_inputs())
def test_revin_round_trips(inputs):
    """Undoing the normalization and the scaling gives the raw windows back."""
    datasets, lookback, horizon, stride = inputs
    raw = every_window(datasets, lookback, horizon, stride)
    prepared = prepare_samples(raw)
    stats = (prepared.norm_mean[:, None], prepared.norm_std[:, None])
    scale = prepared.scale[:, None]
    for field in ("x", "y"):
        back = revin_denormalize(getattr(prepared, field), stats) * scale
        original = getattr(raw, field)
        assert np.allclose(back, original, rtol=0.0,
                           atol=1e-12 * (1.0 + np.abs(original).max(initial=0.0)))


@given(num_domains=st.integers(2, 5), length=st.integers(20, 60),
       lookback=st.integers(1, 10), horizon=st.integers(1, 5), stride=st.integers(1, 4),
       val_fraction=st.sampled_from((0.2, 0.3, 0.5)), seed=st.integers(0, 50))
def test_roles_are_disjoint_and_train_targets_stay_inside(num_domains, length, lookback,
                                                         horizon, stride, val_fraction, seed):
    spec = SyntheticSpec(num_domains=num_domains, series_per_domain=2, length=length, seed=seed)
    datasets = generate_synthetic(spec)
    split = split_domains(datasets, 0.3, seed=seed, val_fraction=val_fraction)
    roles = {role: windows_for_role(datasets, split, role, lookback, horizon, stride)
             for role in ("train", "val", "test")}
    keys = {role: set(zip(ws.domain_id.tolist(), ws.series_name.tolist(),
                          ws.origin.tolist()))
            for role, ws in roles.items()}
    assert not keys["train"] & keys["val"]
    assert not (keys["train"] | keys["val"]) & keys["test"]
    for w in roles["train"]:
        assert w.domain_id in split.train_domains
        assert w.origin + horizon < split.boundaries[w.domain_id][0]
    assert set(roles["test"].domain_id.tolist()) <= set(split.test_domains)
    # each role keeps exactly the reference's masked windows
    for role, ws in roles.items():
        assert_rows_equal(ws, reference_role(datasets, split, role, lookback, horizon, stride))


@st.composite
def role_inputs(draw):
    """`window_inputs` with a split drawn by hand: any domains on either
    side, and each training boundary anywhere around its domain's stamps.
    Val windows start past a series' first stride step, so with features
    they take the feature windows from an offset."""
    datasets, lookback, horizon, stride = draw(window_inputs())
    ids = [ds.domain_id for ds in datasets]
    test = sorted(draw(st.lists(st.sampled_from(ids), unique=True)))
    train = [d for d in ids if d not in test]
    # windowing reads only the training boundary, not the validation end
    boundaries = {d: (draw(st.integers(-10, 50)), 50) for d in train}
    return datasets, DomainSplit(train, test, boundaries, seed=0), lookback, horizon, stride


@given(role_inputs())
def test_every_role_equals_the_reference_masks(inputs):
    datasets, split, lookback, horizon, stride = inputs
    for role in ("train", "val", "test"):
        assert_rows_equal(windows_for_role(datasets, split, role, lookback, horizon, stride),
                          reference_role(datasets, split, role, lookback, horizon, stride))


def _set_bytes(windows):
    return sum(getattr(windows, f.name).nbytes for f in fields(windows) if f.name != "y_raw")


@pytest.mark.parametrize("role", ["train", "val", "test"])
def test_a_role_allocates_little_more_than_its_windows(role):
    """A role's windows are made alone, not cut out of every window of its
    side's domains: the traced peak stays within 1.2 times the set."""
    datasets = generate_synthetic(SyntheticSpec(num_domains=8, series_per_domain=4,
                                                length=1000, seed=0))
    split = split_domains(datasets, 0.25, seed=0, val_fraction=0.2)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        windows = windows_for_role(datasets, split, role, 60, 14)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(windows) and peak <= 1.2 * _set_bytes(windows)


def test_rows_are_views_into_the_set():
    ds = DomainDataset(0, "d", ["s"], [np.arange(8, dtype=np.int64)], [np.arange(8.0)])
    windows = every_window([ds], 3, 1)
    windows[2].x[0] = -1.0
    assert windows.x[2, 0] == -1.0
    assert ds.values[0][2] == 2.0     # the set owns its arrays


# ---------------------------------------------------------------------------
# The row interface that code outside the package reads
# ---------------------------------------------------------------------------

def test_evaluation_windows_and_forecasts_keep_the_row_interface(tiny_datasets, tiny_config):
    config = replace(tiny_config, epochs_stage1=1, epochs_stage2=1)
    split, _, _ = pipeline_split(tiny_datasets, config)
    model = build(config, len(split.train_domains), 0)
    _, windows, dists = evaluate_split(model, tiny_datasets, split, config, "test")
    by_id = {ds.domain_id: ds for ds in tiny_datasets}
    rows = list(windows)
    assert rows and len(rows) == len(dists)
    for w, d in zip(rows, dists):
        assert isinstance(w, WindowSample) and w.domain_id in split.test_domains
        ds = by_id[w.domain_id]
        s = ds.series_names.index(w.series_name)
        end = int(np.searchsorted(ds.timestamps[s], w.origin)) + 1
        assert np.array_equal(w.x, ds.values[s][end - config.lookback:end])
        assert np.array_equal(w.y_raw, ds.values[s][end:end + config.horizon])
        assert d.quantiles.shape == (9, config.horizon)
    # preparing the plain rows equals preparing the set
    from_rows, from_set = prepare_samples(rows), prepare_samples(windows)
    for field in ("x", "a", "y", "y_raw", "scale", "norm_mean", "norm_std", "domain_id",
                  "series_name", "origin"):
        assert same_bits(getattr(from_rows, field), getattr(from_set, field)), field

    result = run_pipeline(tiny_datasets, config)
    assert isinstance(result.forecasts_test, list) and result.forecasts_test
    for pair in result.forecasts_test:
        w, d = pair
        assert isinstance(pair, tuple) and isinstance(w, WindowSample)
        assert isinstance(d, ForecastDistribution) and d.quantiles.shape == (9, config.horizon)


# ---------------------------------------------------------------------------
# Chunk-invariant forecasts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [65, 129])
def test_forecasts_do_not_depend_on_the_chunking(n):
    """A split of 64k+1 windows forecasts each window bit-equal to the same
    window inside a larger split."""
    datasets = generate_synthetic(SyntheticSpec(num_domains=2, series_per_domain=2,
                                                length=120, seed=3))
    config = TrainConfig(lookback=12, horizon=4, d_z=4, hidden=8, kernel=5,
                         decoder="linear", encoder="mlp")
    model = build(config, 2, 0)
    windows = every_window(datasets, config.lookback, config.horizon)
    assert len(windows) >= 256
    alone = predict_windows(model, windows[:n], config, None)
    inside = predict_windows(model, windows[:256], config, None)
    assert same_bits(alone.quantiles, inside.quantiles[:, :n])
