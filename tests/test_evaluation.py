"""Metric formulas against independently coded brute-force evaluators and
the hand-derived examples."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from latentcast.data import WindowSet
from latentcast.evaluation import (MetricError, aggregate, nrmse, pinball_losses, q_mean,
                                   quantile_loss, smape)
from latentcast.forecaster import QUANTILE_LEVELS, Forecasts


# -- brute-force oracles (naive loops, no shared code with the library) -----

def brute_nrmse(y, yhat):
    se, count, abs_sum = 0.0, 0, 0.0
    for i in range(y.shape[0]):
        for t in range(y.shape[1]):
            se += (y[i, t] - yhat[i, t]) ** 2
            abs_sum += abs(yhat[i, t])
            count += 1
    return (se / count) ** 0.5 / (abs_sum / count)


def brute_smape(y, yhat):
    total, count = 0.0, 0
    for i in range(y.shape[0]):
        for t in range(y.shape[1]):
            denom = abs(y[i, t]) + abs(yhat[i, t])
            total += 2 * abs(y[i, t] - yhat[i, t]) / denom if denom > 0 else 0.0
            count += 1
    return total / count


def brute_quantile_loss(y, yhat_q, q):
    num, denom = 0.0, 0.0
    for i in range(y.shape[0]):
        for t in range(y.shape[1]):
            ind = 1.0 if y[i, t] <= yhat_q[i, t] else 0.0
            num += 2 * abs((y[i, t] - yhat_q[i, t]) * (ind - q))
            denom += abs(y[i, t])
    return num / denom


def brute_q_mean(y, stack):
    return sum(brute_quantile_loss(y, stack[i], (i + 1) / 10.0) for i in range(9)) / 9.0


class TestHandExamples:
    def test_nrmse(self):
        assert nrmse(np.array([[3.0]]), np.array([[1.0]])) == 2.0
        assert nrmse(np.array([[3.0]]), np.array([[3.0]])) == 0.0

    def test_nrmse_scale_invariance(self):
        rng = np.random.default_rng(0)
        y, yhat = rng.normal(size=(4, 3)), rng.normal(size=(4, 3)) + 2.0
        assert abs(nrmse(y, yhat) - nrmse(5.0 * y, 5.0 * yhat)) < 1e-12

    def test_nrmse_zero_predictions_error(self):
        with pytest.raises(MetricError):
            nrmse(np.ones((1, 2)), np.zeros((1, 2)))

    def test_smape(self):
        assert smape(np.array([[2.0]]), np.array([[2.0]])) == 0.0
        assert abs(smape(np.array([[2.0]]), np.array([[1.0]])) - 2.0 / 3.0) < 1e-12
        assert smape(np.array([[1.0]]), np.array([[-1.0]])) == 2.0

    def test_smape_zero_over_zero_is_zero(self):
        assert smape(np.zeros((1, 3)), np.zeros((1, 3))) == 0.0

    def test_quantile_loss(self):
        y, p = np.array([[4.0]]), np.array([[3.0]])
        assert abs(quantile_loss(y, p, 0.5) - 0.25) < 1e-12
        assert abs(quantile_loss(y, p, 0.9) - 0.45) < 1e-12
        assert quantile_loss(y, y, 0.3) == 0.0

    def test_quantile_loss_errors(self):
        with pytest.raises(MetricError):
            quantile_loss(np.zeros((1, 1)), np.ones((1, 1)), 0.5)
        with pytest.raises(MetricError):
            quantile_loss(np.ones((1, 1)), np.ones((1, 1)), 1.5)

    def test_q_mean_hand_example(self):
        y = np.array([[4.0]])
        stack = np.full((9, 1, 1), 3.0)
        assert abs(q_mean(y, stack) - 0.25) < 1e-12

    def test_q_mean_perfect_and_missing_rows(self):
        y = np.array([[4.0, 5.0]])
        assert q_mean(y, np.tile(y, (9, 1, 1))) == 0.0
        with pytest.raises(MetricError):
            q_mean(y, np.tile(y, (7, 1, 1)))


class TestBruteForceOracles:
    @pytest.mark.parametrize("trial", range(100))
    def test_all_metrics_match(self, trial):
        rng = np.random.default_rng(trial)
        n, h = rng.integers(1, 6), rng.integers(1, 8)
        y = rng.normal(size=(n, h)) * 3.0
        yhat = rng.normal(size=(n, h)) * 3.0 + 0.5
        q = float(rng.uniform(0.05, 0.95))
        stack = np.sort(rng.normal(size=(9, n, h)), axis=0)
        assert abs(nrmse(y, yhat) - brute_nrmse(y, yhat)) < 1e-12
        assert abs(smape(y, yhat) - brute_smape(y, yhat)) < 1e-12
        assert abs(quantile_loss(y, yhat, q) - brute_quantile_loss(y, yhat, q)) < 1e-12
        assert abs(q_mean(y, stack) - brute_q_mean(y, stack)) < 1e-12

    def test_q50_is_normalized_absolute_error(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            y, p = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
            expected = np.abs(y - p).sum() / np.abs(y).sum()
            assert abs(quantile_loss(y, p, 0.5) - expected) < 1e-12

    def test_sample_axis_permutation_invariance(self):
        rng = np.random.default_rng(2)
        y, yhat = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        stack = np.sort(rng.normal(size=(9, 5, 3)), axis=0)
        perm = rng.permutation(5)
        assert abs(nrmse(y, yhat) - nrmse(y[perm], yhat[perm])) < 1e-12
        assert abs(smape(y, yhat) - smape(y[perm], yhat[perm])) < 1e-12
        assert abs(quantile_loss(y, yhat, 0.3)
                   - quantile_loss(y[perm], yhat[perm], 0.3)) < 1e-12
        assert abs(q_mean(y, stack) - q_mean(y[perm], stack[:, perm])) < 1e-12


def _windows(domains, ys):
    """A `WindowSet` of one window per entry of `domains`, with targets `ys`."""
    y = np.asarray(ys, float)
    n = len(domains)
    return WindowSet(x=np.zeros((n, 4)), a=np.zeros((n, 4, 0)), y=y,
                     domain_id=np.asarray(domains, dtype=np.int64),
                     series_name=np.full(n, "s"), origin=np.full(n, 3, dtype=np.int64),
                     y_raw=y, scale=np.ones(n), norm_mean=np.zeros(n), norm_std=np.ones(n))


def _flat(points):
    """`Forecasts` whose nine quantile rows all equal each window's point."""
    return Forecasts(np.tile(np.asarray(points, float), (9, 1, 1)))


class TestAggregate:
    def test_single_domain_equals_per_domain_value(self):
        report = aggregate(_windows([0], [[2.0, 2.0]]), _flat([[1.0, 1.0]]), [0], "test",
                           seed=0, config_hash="x")
        assert report.average == report.per_domain[0]

    def test_equal_domain_weighting(self):
        report = aggregate(_windows([0, 1], [[3.0], [3.0]]), _flat([[1.0], [2.0]]), [0, 1],
                           "test", seed=0, config_hash="x")
        d0, d1 = report.per_domain[0]["nrmse"], report.per_domain[1]["nrmse"]
        assert abs(report.average["nrmse"] - (d0 + d1) / 2.0) < 1e-12

    def test_empty_domain_warned_and_excluded(self):
        report = aggregate(_windows([0], [[2.0]]), _flat([[1.0]]), [0, 7], "test",
                           seed=0, config_hash="x")
        assert 7 not in report.per_domain
        assert any("domain 7" in w for w in report.warnings)

    def test_report_row_count(self):
        report = aggregate(_windows([0, 1], [[2.0], [2.0]]), _flat([[1.0], [1.0]]), [0, 1],
                           "test", seed=0, config_hash="x")
        rows = report.to_csv_rows()
        domains = {r[0] for r in rows}
        assert domains == {"0", "1", "average"}   # |domains| + average row

    def test_all_metrics_nonnegative(self):
        rng = np.random.default_rng(3)
        domains, ys, stacks = [], [], []
        for dom in range(3):
            for _ in range(4):
                domains.append(dom)
                ys.append(rng.normal(size=5) * 2 + 5)
                stacks.append(np.sort(rng.normal(size=(9, 5)) + 5, axis=0))
        report = aggregate(_windows(domains, ys), Forecasts(np.stack(stacks, axis=1)),
                           [0, 1, 2], "test", seed=0, config_hash="x")
        for vals in report.per_domain.values():
            assert all(v >= 0 for v in vals.values())
        assert all(v >= 0 for v in report.average.values())

    def test_undefined_metric_names_split_and_domain(self):
        # domain 1's predictions are all zero, so its nrmse has no denominator
        with pytest.raises(MetricError, match=r"val split, domain 1: nrmse: all-zero"):
            aggregate(_windows([0, 1], [[2.0], [2.0]]), _flat([[1.0], [0.0]]), [0, 1], "val",
                      seed=0, config_hash="x")


# -- one pinball-loss array per domain ----------------------------------------

def loop_quantile_loss(y, yhat_q, q):
    """One level's quantile loss from its own indicator, product and sum:
    the reference whose bits `aggregate` keeps."""
    indicator = (y <= yhat_q).astype(float)
    num = 2.0 * np.abs((y - yhat_q) * (indicator - q))
    return float(num.sum() / float(np.abs(y).sum()))


# a few fixed values, so that ties y == q and repeated entries are common,
# and any finite value of either sign
VALUES = st.one_of(st.sampled_from([-2.5, -1.0, 0.0, 0.5, 3.0]),
                   st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False))


@st.composite
def splits(draw):
    """(domain of each window, targets, quantiles) of a split whose domains'
    windows interleave; a domain may hold one window."""
    counts = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    domains = draw(st.permutations([d for d, c in enumerate(counts) for _ in range(c)]))
    shape = (len(domains), draw(st.integers(1, 4)))
    y = draw(arrays(np.float64, shape, elements=VALUES))
    quantiles = draw(arrays(np.float64, (9, *shape), elements=VALUES))
    tied = draw(arrays(np.bool_, (9, *shape)))
    return domains, y, np.where(tied, y, quantiles)


def large_split(windows=1200, horizon=14):
    """Two interleaved domains, one of more than 8,192 entries: numpy sums
    an array that size in buffer-sized chunks unless it is contiguous."""
    rng = np.random.default_rng(5)
    y = rng.normal(5.0, 2.0, (windows, horizon))
    quantiles = np.sort(rng.normal(5.0, 2.0, (9, windows, horizon)), axis=0)
    return ([0, 0, 1] * windows)[:windows], y, quantiles


@given(splits())
@example(large_split())
def test_aggregate_has_the_bits_of_the_per_level_loop(split):
    domains, y, quantiles = split
    domain_id = np.asarray(domains)
    for dom in set(domains):
        picked = domain_id == dom
        assume(np.abs(y[picked]).sum() > 0 and np.abs(quantiles[4, picked]).sum() > 0)
    report = aggregate(_windows(domains, y), Forecasts(quantiles), sorted(set(domains)),
                       "test", seed=0, config_hash="x")
    for dom, scores in report.per_domain.items():
        picked = domain_id == dom
        yd, quant = y[picked], quantiles[:, picked]
        assert scores["q50"] == loop_quantile_loss(yd, quant[4], 0.5)
        assert scores["qmean"] == float(np.mean(
            [loop_quantile_loss(yd, quant[i], q) for i, q in enumerate(QUANTILE_LEVELS)]))


def test_pinball_losses_hold_each_entry_of_each_level():
    y = np.array([[4.0, -1.0]])
    losses = pinball_losses(y, np.stack([np.array([[3.0, -1.0]])] * 9))
    assert losses.shape == (9, 1, 2)
    assert losses[:, 0, 0].tolist() == [2.0 * q for q in QUANTILE_LEVELS]
    assert not losses[:, 0, 1].any()


def test_aggregate_memory_is_bounded_by_a_domain():
    # doubling the count of equal-sized domains doubles the quantile array;
    # aggregate's peak must not follow it, so no split-sized loss array
    def peak(num_domains, windows=300, horizon=14):
        rng = np.random.default_rng(0)
        domains = np.repeat(np.arange(num_domains), windows)
        y = rng.normal(5.0, 1.0, (len(domains), horizon))
        quantiles = np.sort(rng.normal(5.0, 1.0, (9, len(domains), horizon)), axis=0)
        args = (_windows(domains, y), Forecasts(quantiles), list(range(num_domains)), "test")
        aggregate(*args, seed=0, config_hash="x")
        tracemalloc.start()
        try:
            aggregate(*args, seed=0, config_hash="x")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(8) < 1.1 * peak(4)
