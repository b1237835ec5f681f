"""Two-stage training: bookkeeping, overfit sanity, frozen parameters,
variant structure, determinism, selection, and multi-seed aggregation."""

import numpy as np
import pytest

from latentcast.cvae import FULL
from latentcast.data import WindowSample, prepare_samples
from latentcast.evaluation import METRIC_NAMES
from latentcast.forecaster import gaussian_nll
from latentcast.tensor import Tensor
from latentcast.training import (RunRecord, TrainConfig, TrainingError, build_cvae,
                                 build_model, load_full, load_stage1,
                                 multi_seed_evaluate, run_pipeline, save_full,
                                 save_stage1, select_model, stage1_pretrain,
                                 stage2_train)


def _samples(n, length, seed=0, domains=2):
    rng = np.random.default_rng(seed)
    wins = [WindowSample(x=rng.normal(size=length), a=np.zeros((length, 0)),
                         y=rng.normal(size=2), domain_id=int(i % domains),
                         series_name="s", origin=length - 1, y_raw=np.zeros(2))
            for i in range(n)]
    return prepare_samples(wins)


class TestStage1:
    def _config(self, **kw):
        base = dict(lookback=8, horizon=2, d_z=2, hidden=4, kernel=3, batch_size=4,
                    dropout=0.0, learning_rate=1e-2, beta=1.0, alpha=0.5,
                    epochs_stage1=2, epochs_stage2=2, seed=0, decoder="linear",
                    encoder="mlp")
        base.update(kw)
        return TrainConfig(**base)

    def test_two_epochs_two_loss_entries(self):
        config = self._config()
        pair = build_cvae(config, 2, np.random.default_rng(0))
        record = RunRecord(seed=0)
        stage1_pretrain(pair, _samples(8, 8), {0: 0, 1: 1}, config, record)
        assert len(record.stage1_losses) == 2
        assert len(record.stage1_seconds) == 2

    def test_overfit_single_sample(self):
        # one window, no regularizer: loss must collapse below 1% of start
        config = self._config(variant="no_reg", epochs_stage1=500, batch_size=1,
                              learning_rate=2e-2)
        pair = build_cvae(config, 1, np.random.default_rng(1))
        record = RunRecord(seed=0)
        stage1_pretrain(pair, _samples(1, 8, seed=5, domains=1), {0: 0}, config, record)
        assert record.stage1_losses[-1] < 0.01 * record.stage1_losses[0]

    def test_no_decomp_single_stack_on_raw_window(self):
        config = self._config(variant="no_decomp")
        pair = build_cvae(config, 2, np.random.default_rng(2))
        assert set(pair.components) == {FULL}
        record = RunRecord(seed=0)
        stage1_pretrain(pair, _samples(8, 8), {0: 0, 1: 1}, config, record)
        assert np.isfinite(record.stage1_losses).all()

    def test_regularizer_needs_two_domains(self):
        config = self._config()
        pair = build_cvae(config, 1, np.random.default_rng(3))
        with pytest.raises(TrainingError):
            stage1_pretrain(pair, _samples(4, 8, domains=1), {0: 0}, config,
                            RunRecord(seed=0))

    def test_nonfinite_loss_aborts_with_diagnostic(self):
        config = self._config()
        pair = build_cvae(config, 2, np.random.default_rng(4))
        samples = _samples(8, 8)
        samples[3].x[0] = np.nan
        with pytest.raises(TrainingError, match="non-finite"):
            stage1_pretrain(pair, samples, {0: 0, 1: 1}, config, RunRecord(seed=0))

    def test_best_epoch_parameters_returned(self):
        # loss curve minimum, not the last epoch, is what comes back
        config = self._config(epochs_stage1=30, learning_rate=5e-2)
        pair = build_cvae(config, 2, np.random.default_rng(5))
        record = RunRecord(seed=0)
        samples = _samples(12, 8, seed=6)
        stage1_pretrain(pair, samples, {0: 0, 1: 1}, config, record)
        assert min(record.stage1_losses) == record.stage1_losses[
            int(np.argmin(record.stage1_losses))]


class TestStage2:
    def _setup(self, variant="full", decoder="linear", seed=0, **kw):
        base = dict(lookback=8, horizon=2, d_z=2, hidden=4, kernel=3, batch_size=4,
                    dropout=0.0, learning_rate=5e-3, beta=1.0, alpha=0.5,
                    epochs_stage1=2, epochs_stage2=6, patience=6, seed=seed,
                    variant=variant, decoder=decoder, encoder="mlp", sample_paths=10)
        base.update(kw)
        config = TrainConfig(**base)
        rng = np.random.default_rng([seed, 1])
        pair = build_cvae(config, 2, rng)
        model = build_model(config, pair, 0, rng)
        return config, model

    def test_selected_epoch_is_argmin(self):
        config, model = self._setup()
        record = RunRecord(seed=0)
        stage2_train(model, _samples(10, 8), _samples(4, 8, seed=9), config, record)
        assert record.selected_epoch == int(np.argmin(record.stage2_val_losses))

    def test_empty_validation_rejected(self):
        config, model = self._setup()
        with pytest.raises(TrainingError, match="validation"):
            stage2_train(model, _samples(10, 8), [], config, RunRecord(seed=0))

    def test_conditional_decoders_frozen(self):
        config, model = self._setup()
        before = [p.data.copy() for p in model.pair.decoder_params()]
        stage2_train(model, _samples(10, 8), _samples(4, 8, seed=9), config,
                     RunRecord(seed=0))
        after = model.pair.decoder_params()
        for b, a in zip(before, after):
            assert np.array_equal(b, a.data)

    def test_e2e_trains_conditional_decoders_too(self):
        config, model = self._setup(variant="e2e")
        before = [p.data.copy() for p in model.pair.decoder_params()]
        record = RunRecord(seed=0)
        stage2_train(model, _samples(10, 8), _samples(4, 8, seed=9), config, record,
                     domain_index={0: 0, 1: 1})
        changed = any(not np.array_equal(b, a.data)
                      for b, a in zip(before, model.pair.decoder_params()))
        assert changed
        assert record.selected_epoch >= 0

    def test_shared_only_zeroes_specific_half_during_training(self):
        config, model = self._setup(variant="shared_only")
        stage2_train(model, _samples(10, 8), _samples(4, 8, seed=9), config,
                     RunRecord(seed=0))
        trace = {}
        model.latent_batch(np.random.default_rng(0).normal(size=(3, 8)), trace=trace)
        assert np.allclose(trace["z"][:, model.pair.index:], 0.0)

    def test_bias_only_training_converges_to_batch_mean(self):
        # all weights zero, only the trend bias trains: mu is a constant per
        # step, the NLL is convex in it, so plain descent with a small step
        # is monotone and the optimum is the per-step target mean
        config, model = self._setup(decoder="linear")
        samples = _samples(16, 8, seed=11)
        x = np.stack([s.x for s in samples])
        y = np.stack([s.y for s in samples])
        for p in model.params():
            p.data[...] = 0.0
        bias = model.decoder.lin_trend.b
        target = y.mean(axis=0)
        losses = []
        start_dist = float(np.linalg.norm(bias.data - target))
        for _ in range(200):
            mu, sigma = model.train_params(y, x, None)
            loss = gaussian_nll(y, mu, sigma)
            losses.append(float(loss.data))
            loss.backward()
            bias.data -= 0.3 * bias.grad
            bias.zero_grad()
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-12)
        assert losses[-1] < losses[0]
        assert float(np.linalg.norm(bias.data - target)) < 0.01 * start_dist


class TestPipeline:
    def test_full_pipeline_emits_finite_reports(self, tiny_datasets, tiny_config):
        result = run_pipeline(tiny_datasets, tiny_config)
        for report in (result.report_train, result.report_test):
            for m in METRIC_NAMES:
                assert np.isfinite(report.average[m])
        assert result.record.selected_epoch >= 0

    def test_recurrent_pipeline_runs(self, tiny_datasets, tiny_config):
        from dataclasses import replace
        config = replace(tiny_config, decoder="recurrent", sample_paths=15,
                         epochs_stage1=2, epochs_stage2=2)
        result = run_pipeline(tiny_datasets, config)
        assert np.isfinite(result.report_test.average["q50"])

    def test_bit_identical_reports_same_seed(self, tiny_datasets, tiny_config):
        a = run_pipeline(tiny_datasets, tiny_config)
        b = run_pipeline(tiny_datasets, tiny_config)
        assert a.report_test.to_json() == b.report_test.to_json()
        assert a.report_train.to_json() == b.report_train.to_json()
        assert a.record.stage1_losses == b.record.stage1_losses
        assert a.record.stage2_val_losses == b.record.stage2_val_losses

    def test_stage1_loss_mostly_nonincreasing(self, tiny_datasets, tiny_config):
        from dataclasses import replace
        config = replace(tiny_config, epochs_stage1=12, epochs_stage2=1)
        result = run_pipeline(tiny_datasets, config)
        losses = np.array(result.record.stage1_losses)
        frac = (np.diff(losses) <= 0).mean()
        assert frac >= 0.9

    def test_checkpoint_roundtrip(self, tmp_path, tiny_datasets, tiny_config):
        result = run_pipeline(tiny_datasets, tiny_config)
        path = tmp_path / "model.ckpt.json"
        save_full(path, result.model, result.domain_map, tiny_config, 0)
        config2, model2, domain_map, domain_index = load_full(path)
        assert domain_index == result.domain_index
        x = np.random.default_rng(0).normal(size=(3, tiny_config.lookback))
        a = result.model.predict(x, None, 0, None)
        b = model2.predict(x, None, 0, None)
        assert np.array_equal(a["mu"], b["mu"])
        assert np.array_equal(a["sigma"], b["sigma"])

    def test_stage1_checkpoint_roundtrip(self, tmp_path, tiny_datasets, tiny_config):
        from latentcast.training import pipeline_split
        from latentcast.data import windows_for_role
        split, domain_index, domain_map = pipeline_split(tiny_datasets, tiny_config)
        wins = windows_for_role(tiny_datasets, split, "train", tiny_config.lookback,
                                tiny_config.horizon)
        samples = prepare_samples(wins)
        pair = build_cvae(tiny_config, len(split.train_domains), np.random.default_rng(0))
        stage1_pretrain(pair, samples, domain_index, tiny_config, RunRecord(seed=0))
        path = tmp_path / "stage1.ckpt.json"
        save_stage1(path, pair, domain_map, tiny_config)
        pair2 = build_cvae(tiny_config, len(split.train_domains), np.random.default_rng(99))
        load_stage1(path, pair2)
        for p, q in zip(pair.params(), pair2.params()):
            assert np.array_equal(p.data, q.data)

    def test_failed_checkpoint_write_keeps_the_old_file(self, tmp_path):
        from latentcast.checkpoint import save_checkpoint
        params = [Tensor(np.arange(6.0).reshape(2, 3), name="w")]
        path = tmp_path / "model.ckpt.json"
        save_checkpoint(path, "full", {"lookback": 3}, [], params)
        before = path.read_bytes()
        # json.dump writes the keys sorted before "extra" and then fails on it
        with pytest.raises(TypeError):
            save_checkpoint(path, "full", {"lookback": 4}, [], params, extra={"bad": object()})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt.json"]


class TestSelection:
    def test_single_run(self):
        assert select_model([{"val_loss": 0.5, "beta": 1, "hidden": 16}]) == 0

    def test_lowest_val_loss_wins(self):
        runs = [{"val_loss": 0.5, "beta": 1, "hidden": 16},
                {"val_loss": 0.4, "beta": 15, "hidden": 64}]
        assert select_model(runs) == 1

    def test_tie_broken_by_beta_then_hidden(self):
        runs = [{"val_loss": 0.4, "beta": 5, "hidden": 16},
                {"val_loss": 0.4, "beta": 1, "hidden": 64},
                {"val_loss": 0.4, "beta": 1, "hidden": 16}]
        assert select_model(runs) == 2


class TestMultiSeed:
    def test_single_seed_zero_std(self, tiny_datasets, tiny_config):
        result = multi_seed_evaluate(tiny_datasets, tiny_config, [3])
        assert result.ok
        assert len(result.rows) == 2 * len(METRIC_NAMES)
        for row in result.rows:
            assert row["std"] == 0.0
            assert row["n_seeds"] == 1

    def test_deterministic_aggregates(self, tiny_datasets, tiny_config):
        a = multi_seed_evaluate(tiny_datasets, tiny_config, [1, 2])
        b = multi_seed_evaluate(tiny_datasets, tiny_config, [1, 2])
        assert a.rows == b.rows

    def test_partial_failures_recorded(self, tiny_datasets, tiny_config):
        # poison one domain; seeds placing it in training abort, others succeed
        from latentcast.data import split_domains
        poisoned = tiny_datasets
        poisoned[0].values[0][5] = np.nan
        bad_seed = good_seed = None
        for seed in range(20):
            split = split_domains(poisoned, tiny_config.test_fraction, seed,
                                  tiny_config.val_fraction)
            if 0 in split.train_domains and bad_seed is None:
                bad_seed = seed
            if 0 in split.test_domains and good_seed is None:
                good_seed = seed
            if bad_seed is not None and good_seed is not None:
                break
        result = multi_seed_evaluate(poisoned, tiny_config, [bad_seed, good_seed])
        assert not result.ok
        assert bad_seed in result.failures
        assert good_seed in result.per_seed
        assert all(r["n_seeds"] == 1 for r in result.rows)
