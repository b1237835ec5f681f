"""Data pipeline: ingestion, windows, scaling, instance norm, one-hot,
synthetic generation, and domain splitting."""

import numpy as np
import pytest

from latentcast import data as D
from latentcast.data import (DataError, SyntheticSpec, WindowSample, apply_scaling,
                             generate_synthetic, ingest_csv, invert_scaling,
                             make_windows, normalize_sample, one_hot_domain,
                             revin_denormalize, revin_normalize, split_domains,
                             synthetic_value, windows_for_role, write_csv)


def _write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestIngest:
    def test_two_domains_grouped(self, tmp_path):
        rows = ["domain,series,timestamp,value"]
        for dom in ("a", "b"):
            for t in range(10):
                rows.append(f"{dom},s0,{t},{t * 1.0}")
        got = ingest_csv(_write(tmp_path, "\n".join(rows)))
        assert len(got) == 2
        assert [ds.domain_name for ds in got] == ["a", "b"]
        assert all(ds.values[0].size == 10 for ds in got)

    def test_gap_filled_with_zero(self, tmp_path):
        rows = ["domain,series,timestamp,value"]
        for t in [0, 1, 2, 3, 4, 6, 7]:
            rows.append(f"a,s0,{t},1.0")
        ds = ingest_csv(_write(tmp_path, "\n".join(rows)))[0]
        assert ds.values[0][5] == 0.0
        assert ds.values[0].size == 8

    def test_shuffled_rows_equal_sorted(self, tmp_path):
        rows = [f"a,s0,{t},{float(t)}" for t in range(8)]
        sorted_path = _write(tmp_path, "domain,series,timestamp,value\n" + "\n".join(rows),
                             "sorted.csv")
        rng = np.random.default_rng(0)
        shuffled = [rows[i] for i in rng.permutation(len(rows))]
        shuffled_path = _write(tmp_path, "domain,series,timestamp,value\n" + "\n".join(shuffled),
                               "shuffled.csv")
        a, b = ingest_csv(sorted_path)[0], ingest_csv(shuffled_path)[0]
        assert np.array_equal(a.values[0], b.values[0])
        assert np.array_equal(a.timestamps[0], b.timestamps[0])

    def test_duplicate_row_rejected(self, tmp_path):
        text = "domain,series,timestamp,value\na,s0,1,1.0\na,s0,1,2.0"
        with pytest.raises(DataError, match="duplicate"):
            ingest_csv(_write(tmp_path, text))

    def test_bad_row_names_line_number(self, tmp_path):
        text = "domain,series,timestamp,value\na,s0,1,1.0\na,s0,oops,1.0"
        with pytest.raises(DataError, match="line 3"):
            ingest_csv(_write(tmp_path, text))

    @pytest.mark.parametrize("row", ["a,s0,1,nan,0.5", "a,s0,1,inf,0.5",
                                     "a,s0,1,1.0,-inf", "a,s0,1,1e308,0.5"],
                             ids=["nan", "inf", "feature", "overflow_after_scaling"])
    def test_non_finite_value_names_line_number(self, tmp_path, row):
        text = "domain,series,timestamp,value,feat_0\na,s0,0,1.0,0.5\n" + row
        with pytest.raises(DataError, match="line 3: non-finite value"):
            ingest_csv(_write(tmp_path, text), value_scale=1e-3)

    def test_iso_dates_become_ordinals(self, tmp_path):
        text = ("domain,series,timestamp,value\n"
                "a,s0,2024-01-01,1.0\na,s0,2024-01-02,2.0")
        ds = ingest_csv(_write(tmp_path, text))[0]
        assert ds.timestamps[0][1] - ds.timestamps[0][0] == 1

    def test_value_scale_divides(self, tmp_path):
        text = "domain,series,timestamp,value\na,s0,0,100.0\na,s0,1,200.0"
        ds = ingest_csv(_write(tmp_path, text), value_scale=100.0)[0]
        assert np.allclose(ds.values[0], [1.0, 2.0])

    def test_feature_columns(self, tmp_path):
        text = ("domain,series,timestamp,value,feat_0,feat_1\n"
                "a,s0,0,1.0,0.5,0.1\na,s0,1,2.0,0.6,0.2")
        ds = ingest_csv(_write(tmp_path, text))[0]
        assert ds.feat_dim == 2
        assert np.allclose(ds.features[0][1], [0.6, 0.2])

    def test_write_read_roundtrip(self, tmp_path):
        spec = SyntheticSpec(num_domains=2, series_per_domain=2, length=20, seed=5)
        datasets = generate_synthetic(spec)
        path = tmp_path / "rt.csv"
        write_csv(datasets, path)
        back = ingest_csv(path)
        for orig, loaded in zip(datasets, back):
            for a, b in zip(orig.values, loaded.values):
                assert np.array_equal(a, b)


class TestWindows:
    def _single(self, values, lookback, horizon, stride=1):
        ds = D.DomainDataset(0, "d", ["s"], [np.arange(len(values), dtype=np.int64)],
                             [np.asarray(values, dtype=float)])
        return make_windows([ds], lookback, horizon, stride)

    def test_exactly_one_window(self):
        wins, skipped = self._single(np.arange(120.0), 90, 30)
        assert len(wins) == 1 and skipped == 0

    def test_hand_enumerated_windows(self):
        wins, _ = self._single([1.0, 2, 3, 4, 5], 3, 1)
        assert len(wins) == 2
        assert np.array_equal(wins[0].x, [1, 2, 3]) and np.array_equal(wins[0].y, [4])
        assert np.array_equal(wins[1].x, [2, 3, 4]) and np.array_equal(wins[1].y, [5])

    def test_large_stride_gives_at_most_one(self):
        wins, _ = self._single(np.arange(10.0), 3, 2, stride=10)
        assert len(wins) <= 1

    def test_short_series_skipped_with_count(self):
        wins, skipped = self._single([1.0, 2, 3], 3, 1)
        assert wins == [] and skipped == 1

    def test_windows_never_mix_series(self):
        # sentinel values per series; any mixing would surface the wrong sentinel
        ds = D.DomainDataset(
            0, "d", ["s0", "s1"],
            [np.arange(6, dtype=np.int64)] * 2,
            [np.full(6, 1.0), np.full(6, 2.0)],
        )
        wins, _ = make_windows([ds], 3, 1)
        for w in wins:
            assert np.all(w.x == w.x[0]) and w.y[0] == w.x[0]


class TestScalingAndNorm:
    def test_zero_window_scale_one(self):
        w = WindowSample(x=np.zeros(3), a=np.zeros((3, 0)), y=np.zeros(1),
                         domain_id=0, series_name="s", origin=2, y_raw=np.zeros(1))
        scaled = apply_scaling(w)
        assert scaled.scale == 1.0 and np.array_equal(scaled.x, w.x)

    def test_hand_scaling(self):
        w = WindowSample(x=np.array([2.0, 4.0]), a=np.zeros((2, 0)), y=np.array([6.0]),
                         domain_id=0, series_name="s", origin=1, y_raw=np.array([6.0]))
        scaled = apply_scaling(w)
        assert scaled.scale == 4.0
        assert np.allclose(scaled.x, [0.5, 1.0]) and np.allclose(scaled.y, [1.5])

    def test_scaling_roundtrip(self):
        rng = np.random.default_rng(0)
        w = WindowSample(x=rng.normal(size=8) * 7, a=np.zeros((8, 0)),
                         y=rng.normal(size=3), domain_id=0, series_name="s",
                         origin=7, y_raw=np.zeros(3))
        back = invert_scaling(apply_scaling(w))
        assert np.allclose(back.x, w.x, atol=1e-12)
        assert np.allclose(back.y, w.y, atol=1e-12)

    def test_revin_constant_series(self):
        xn, stats = revin_normalize(np.array([3.0, 3.0, 3.0]))
        assert np.allclose(xn, 0.0)
        assert np.allclose(revin_denormalize(xn, stats), 3.0)

    def test_revin_standardizes(self):
        rng = np.random.default_rng(1)
        x = rng.normal(2.0, 5.0, size=400)
        xn, _ = revin_normalize(x)
        assert abs(xn.mean()) < 1e-6
        assert abs(xn.std() - 1.0) < 1e-3   # eps in the denominator shifts std slightly

    def test_revin_roundtrip(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=50)
        xn, stats = revin_normalize(x)
        assert np.allclose(revin_denormalize(xn, stats), x, atol=1e-9)

    def test_normalize_sample_moves_y_with_x(self):
        w = WindowSample(x=np.array([1.0, 3.0]), a=np.zeros((2, 0)), y=np.array([2.0]),
                         domain_id=0, series_name="s", origin=1, y_raw=np.array([2.0]))
        ns = normalize_sample(w)
        assert abs(ns.y[0]) < 1e-4   # y=2 is the mean of x


class TestOneHot:
    def test_examples(self):
        assert np.array_equal(one_hot_domain(2, 4), [0, 0, 1, 0])
        assert np.array_equal(one_hot_domain(0, 1), [1])

    def test_out_of_range(self):
        with pytest.raises(DataError):
            one_hot_domain(4, 4)


class TestSynthetic:
    def test_degenerate_spec_is_pure_shared_sinusoid(self):
        spec = SyntheticSpec(num_domains=2, series_per_domain=1, length=40,
                             shared_period=8.0, shared_amplitude=2.0,
                             trend_slope_range=(0.0, 0.0),
                             domain_amplitude_range=(0.0, 0.0),
                             noise_std=0.0, seed=1, base_level=0.0)
        for ds in generate_synthetic(spec):
            t = np.arange(40.0)
            expected = 2.0 * np.sin(2 * np.pi * t / 8.0)
            assert np.allclose(ds.values[0], expected, atol=1e-12)

    def test_formula_oracle_noise_free(self):
        # re-evaluate the stated formula independently from the generator rng
        spec = SyntheticSpec(num_domains=3, series_per_domain=2, length=30,
                             noise_std=0.0, seed=9)
        for j, ds in enumerate(generate_synthetic(spec)):
            rng = np.random.default_rng([9, j])
            slope = rng.uniform(*spec.trend_slope_range)
            period = rng.uniform(*spec.domain_period_range)
            amp = rng.uniform(*spec.domain_amplitude_range)
            phase = rng.uniform(*spec.phase_range)
            t = np.arange(30.0)
            expected = synthetic_value(t, slope, spec.shared_amplitude,
                                       spec.shared_period, amp, period, phase,
                                       spec.base_level)
            for v in ds.values:
                assert np.allclose(v, expected, atol=1e-12)

    def test_same_seed_identical(self):
        spec = SyntheticSpec(num_domains=2, series_per_domain=2, length=25, seed=3)
        a, b = generate_synthetic(spec), generate_synthetic(spec)
        for da, db in zip(a, b):
            for va, vb in zip(da.values, db.values):
                assert np.array_equal(va, vb)

    def test_cross_domain_correlation_lower_than_within(self):
        spec = SyntheticSpec(num_domains=2, series_per_domain=3, length=120,
                             shared_amplitude=1.0, domain_amplitude_range=(2.0, 3.0),
                             domain_period_range=(6.0, 30.0), noise_std=0.2, seed=4)
        d0, d1 = generate_synthetic(spec)

        def corr(a, b):
            return float(np.corrcoef(a, b)[0, 1])

        within = [corr(d0.values[i], d0.values[j]) for i in range(3) for j in range(i + 1, 3)]
        across = [corr(a, b) for a in d0.values for b in d1.values]
        assert np.mean(across) < np.mean(within)


class TestSplit:
    def _datasets(self, k, length=30):
        spec = SyntheticSpec(num_domains=k, series_per_domain=1, length=length, seed=0)
        return generate_synthetic(spec)

    def test_fraction_80_20(self):
        split = split_domains(self._datasets(10), 0.2, seed=1)
        assert len(split.train_domains) == 8 and len(split.test_domains) == 2

    def test_two_domains_half(self):
        split = split_domains(self._datasets(2), 0.5, seed=1)
        assert len(split.train_domains) == 1 and len(split.test_domains) == 1

    def test_deterministic_per_seed(self):
        ds = self._datasets(10)
        a, b = split_domains(ds, 0.2, seed=5), split_domains(ds, 0.2, seed=5)
        assert a.test_domains == b.test_domains
        others = {tuple(split_domains(ds, 0.2, seed=s).test_domains) for s in range(8)}
        assert len(others) > 1   # reshuffled across seeds

    def test_zero_test_domains_is_error(self):
        with pytest.raises(DataError):
            split_domains(self._datasets(4), 0.05, seed=0)

    def test_boundaries_inside_domain(self):
        split = split_domains(self._datasets(5, length=50), 0.2, seed=2)
        for dom in split.train_domains:
            train_end, val_end = split.boundaries[dom]
            assert 0 < train_end < val_end == 50

    def test_roles_partition_targets(self):
        datasets = self._datasets(5, length=50)
        split = split_domains(datasets, 0.2, seed=2)
        train = windows_for_role(datasets, split, "train", 8, 2)
        val = windows_for_role(datasets, split, "val", 8, 2)
        test = windows_for_role(datasets, split, "test", 8, 2)
        assert train and val and test
        for w in train:
            assert w.origin + 2 < split.boundaries[w.domain_id][0]
        for w in val:
            assert w.origin + 1 >= split.boundaries[w.domain_id][0]
        test_doms = {w.domain_id for w in test}
        assert test_doms == set(split.test_domains)
