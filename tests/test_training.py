"""Two-stage training: bookkeeping, overfit sanity, frozen parameters,
variant structure, determinism, and multi-seed aggregation."""

import hashlib
import inspect
import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from latentcast import cli, cvae, training
from latentcast.checkpoint import CheckpointError
from latentcast.cvae import FULL, make_stage1_batch
from latentcast.data import WindowSample, WindowSet, field_types, prepare_samples, write_csv
from latentcast.decomposition import decompose_batch
from latentcast.evaluation import METRIC_NAMES, MetricError, MetricReport
from latentcast.forecaster import (PREDICT_BLOCK_WINDOWS, ForecastDistribution, Forecasts,
                                   gaussian_nll, row_blocks)
from latentcast.tensor import ShapeError, Tensor
from latentcast.training import (VARIANTS, RunRecord, TrainConfig, TrainingError, build,
                                 build_cvae, build_model, evaluate_split, load_full,
                                 load_stage1, multi_seed_evaluate, pipeline_split,
                                 run_pipeline, save_full, save_stage1, stage1_pretrain,
                                 stage2_train)


def first_batch_of(monkeypatch, train) -> set[str]:
    """Run `train` for one batch of its objective, backward included, and
    return the names of the parameters its optimizer holds."""
    held = set()

    def first_batch(stage, opt, n, epochs, config, rng, batch_loss, *args, **kwargs):
        held.update(p.name for p in opt.params)
        loss, _ = batch_loss(np.arange(config.batch_size))
        loss.backward()
        return 0

    monkeypatch.setattr(training, "_fit", first_batch)
    train()
    return held


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

    @pytest.mark.parametrize("encoder", ["mlp", "bigru"])
    @pytest.mark.parametrize("variant", [v for v in VARIANTS if TrainConfig(variant=v).two_stage])
    def test_optimizer_holds_the_parameters_the_objective_reaches(self, monkeypatch, variant,
                                                                  encoder):
        # the stage-1 side of the variant contract: the latent objective
        # reaches every parameter of the pair, readouts and decoders included
        config = self._config(variant=variant, encoder=encoder)
        pair = build_cvae(config, 2, np.random.default_rng(0))
        held = first_batch_of(monkeypatch, lambda: stage1_pretrain(
            pair, _samples(8, 8), {0: 0, 1: 1}, config, RunRecord(seed=0)))
        reached = {p.name for p in pair.params() if np.any(p.grad != 0.0)}
        assert held == reached == {p.name for p in pair.params()}

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

    def _fit(self, epochs):
        # at this learning rate the epoch-mean loss rises twice in five epochs
        config = self._config(epochs_stage1=epochs, learning_rate=0.2)
        pair = build_cvae(config, 2, np.random.default_rng(5))
        record = RunRecord(seed=0)
        stage1_pretrain(pair, _samples(12, 8, seed=6), {0: 0, 1: 1}, config, record)
        return pair, record

    def test_empty_training_set_rejected(self):
        config = self._config()
        pair = build_cvae(config, 2, np.random.default_rng(0))
        with pytest.raises(TrainingError, match="stage 1: no training windows"):
            stage1_pretrain(pair, _samples(0, 8), {0: 0, 1: 1}, config, RunRecord(seed=0))

    def test_best_epoch_parameters_returned(self):
        # the loss curve's minimum, not the last epoch, is what comes back: the
        # same pair as a run that ends at that epoch
        pair, record = self._fit(5)
        best = int(np.argmin(record.stage1_losses))
        assert best < 4
        prefix, _ = self._fit(best + 1)
        for p, q in zip(pair.params(), prefix.params()):
            assert np.array_equal(p.data, q.data)

    def test_every_epoch_runs_though_the_loss_rises(self):
        _, record = self._fit(5)
        assert np.any(np.diff(record.stage1_losses) > 0)
        assert len(record.stage1_losses) == len(record.stage1_seconds) == 5

    def test_training_steps_hold_one_graph_at_a_time(self):
        # two minibatch steps of a BiGRU pair at N = 64, T = 60, hidden 32.
        # Traced peaks: 25.7 MB when backward releases each graph, 33.6 MB
        # when each GRU tape keeps a view of the whole h @ wh product, and
        # 73.2 MB when step 1's graph lives on while step 2 builds its own
        config = TrainConfig(encoder="bigru", batch_size=64, epochs_stage1=1)
        pair = build_cvae(config, 2, np.random.default_rng(0))
        samples = _samples(128, 60)
        tracemalloc.start()
        try:
            stage1_pretrain(pair, samples, {0: 0, 1: 1}, config, RunRecord(seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6


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

    def _fit(self, epochs):
        # at this learning rate the validation loss stops improving after epoch 3
        config, model = self._setup(learning_rate=0.02, epochs_stage2=epochs, patience=2)
        record = RunRecord(seed=0)
        stage2_train(model, _samples(10, 8), _samples(4, 8, seed=9), config, record)
        return model, record

    def test_stops_after_patience_epochs_without_improvement(self):
        _, record = self._fit(12)
        n = len(record.stage2_val_losses)
        assert n == len(record.stage2_train_losses) == len(record.stage2_seconds) < 12
        assert record.selected_epoch == n - 1 - 2    # patience 2
        assert min(record.stage2_val_losses[-2:]) >= min(record.stage2_val_losses)

    def test_restored_parameters_are_the_selected_epochs(self):
        model, record = self._fit(12)
        prefix, _ = self._fit(record.selected_epoch + 1)
        for p, q in zip(model.checkpoint_params(), prefix.checkpoint_params()):
            assert np.array_equal(p.data, q.data)

    def test_nonfinite_training_loss_names_stage_epoch_and_batch(self):
        config, model = self._setup()
        samples = _samples(10, 8)
        samples.x[3, 0] = np.nan
        with pytest.raises(TrainingError,
                           match=r"stage 2 loss non-finite \(epoch 0, batch \d, parts \{'nll'"):
            stage2_train(model, samples, _samples(4, 8, seed=9), config, RunRecord(seed=0))

    @pytest.mark.parametrize("variant", ["full", "e2e"])
    def test_empty_training_set_rejected(self, variant):
        config, model = self._setup(variant=variant)
        with pytest.raises(TrainingError, match="stage 2: no training windows"):
            stage2_train(model, _samples(0, 8), _samples(4, 8, seed=9), config,
                         RunRecord(seed=0), domain_index={0: 0, 1: 1})

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

    @pytest.mark.parametrize("decoder", ["linear", "recurrent"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_optimizer_holds_the_parameters_the_loss_reaches(self, monkeypatch, variant,
                                                              decoder):
        # the variant contract: stage 2 trains a parameter if and only if one
        # batch of its objective sends it a gradient; the linear decoder runs
        # with a BiGRU encoder, the recurrent one with an MLP encoder. Only
        # e2e reaches the log-variance readouts and the conditional decoders
        config, model = self._setup(variant=variant, decoder=decoder, encoder=None)
        held = first_batch_of(monkeypatch, lambda: stage2_train(
            model, _samples(10, 8), _samples(4, 8, seed=9), config, RunRecord(seed=0),
            domain_index={0: 0, 1: 1}))
        reached = {p.name for p in model.checkpoint_params() if np.any(p.grad != 0.0)}
        assert held == reached, (sorted(held - reached), sorted(reached - held))
        means = {p.name for p in model.pair.mean_params()}
        rest = {p.name for p in model.pair.params()} - means   # log-variance readouts, decoders
        assert (rest <= held) if variant == "e2e" else not rest & held
        assert (not means & held) if variant == "no_latent" else means <= held

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


def _stage_peak(stage, n):
    """tracemalloc peak of one epoch of `stage` (1 or 2) over the first `n`
    of 6,000 60-step windows, at the `wide-cli` workload's model settings,
    with 256 validation windows."""
    samples = _samples(6256, 60)
    config = TrainConfig(horizon=2, decoder="linear", encoder="mlp", batch_size=256,
                         epochs_stage1=1, epochs_stage2=1)
    model = build(config, 2, 0)
    tracemalloc.start()
    try:
        if stage == 1:
            stage1_pretrain(model.pair, samples[:n], {0: 0, 1: 1}, config, RunRecord(seed=0))
        else:
            stage2_train(model, samples[:n], samples[6000:], config, RunRecord(seed=0))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("stage", [1, 2])
def test_a_stage_holds_nothing_the_size_of_its_training_set(stage):
    # each minibatch and validation pass decomposes its own rows, so a
    # doubled training set raises a stage's peak by much less than its
    # added windows (a held trend of the set would raise it by about that
    # much); a 256-row batch's own transients, whatever the set size, cancel
    added = 3000 * 60 * 8   # the float64 x of the added windows
    assert _stage_peak(stage, 6000) - _stage_peak(stage, 3000) < 0.5 * added


CHECKPOINT_DIGESTS = {   # sha256 prefixes of the initial parameter values at seed 5
    ("mlp", "full"): "23d3009090f3fdd46580dd9665575e1a",
    ("mlp", "no_decomp"): "632d6c8b3e28c0e719d58a7b5831b20a",
    ("bigru", "full"): "c009100dc69adcbd0bddd7236d93a0d7",
    ("bigru", "no_decomp"): "6fe4fcbb0764d7a3e82b1364162899f3",
}


@pytest.mark.parametrize("encoder,variant", list(CHECKPOINT_DIGESTS))
def test_checkpoint_params_keep_their_names_and_initial_values(encoder, variant):
    # a format-2 checkpoint restores by these names, and a seed must keep
    # giving the same initial model
    config = TrainConfig(lookback=6, horizon=2, d_z=2, hidden=3, kernel=3, seed=5,
                         variant=variant, decoder="linear", encoder=encoder)
    params = build(config, 2, 0).checkpoint_params()
    layers = {"mlp": ["hidden.w", "hidden.b"],
              "bigru": [f"{d}.{w}" for d in ("fwd", "bwd") for w in ("wx", "wh", "b")]}[encoder]
    comps = ["trend", "seasonal"] if variant == "full" else ["full"]
    assert [p.name for p in params] == (
        [f"{c}.enc.{n}" for c in comps
         for n in layers + ["mu.w", "mu.b", "logvar.w", "logvar.b"]]
        + [f"{c}.dec.lin.{n}" for c in comps for n in ("w", "b")]
        + ["aug.w", "aug.b"]
        + [f"fdec.{n}.{w}" for n in ("trend", "seasonal", "sigma") for w in ("w", "b")])
    digest = hashlib.sha256(b"".join(p.data.tobytes() for p in params)).hexdigest()
    assert digest[:32] == CHECKPOINT_DIGESTS[encoder, variant]


def test_validate_checks_each_field_against_its_annotation():
    # an int where a float goes, and None where the annotation allows it, pass
    TrainConfig(learning_rate=1, encoder=None).validate()
    for name, value in (("epochs_stage1", True), ("dropout", False), ("reg_weight", "1"),
                        ("beta", float("nan")), ("alpha", float("-inf")), ("encoder", 1),
                        ("seed", np.int64(0))):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            TrainConfig(**{name: value}).validate()


# one valid value per TrainConfig field, other than tiny_config's, and whether
# a stage-1 checkpoint of tiny_config refuses a run that has it: it refuses
# every field stage 1 reads and accepts the ones only stage 2 and evaluation read
STAGE1_RULE = {
    "lookback": (16, True), "horizon": (6, True), "d_z": (8, True), "hidden": (6, True),
    "kernel": (3, True), "batch_size": (8, True), "dropout": (0.1, True),
    "learning_rate": (1e-3, True), "beta": (2.0, True), "alpha": (0.75, True),
    "reg_weight": (0.5, True), "epochs_stage1": (2, True), "epochs_stage2": (5, False),
    "patience": (1, False), "seed": (4, True), "variant": ("shared_only", False),
    "decoder": ("recurrent", False), "encoder": ("bigru", True), "sample_paths": (10, False),
    "test_fraction": (0.5, False), "val_fraction": (0.5, True), "stride": (2, True),
    "eval_stride": (2, False), "value_scale": (2.0, True), "fill_missing": (-1.0, True),
}


def test_stage1_rule_has_one_value_per_config_field():
    assert list(STAGE1_RULE) == list(field_types(TrainConfig))


def _stage1_checkpoint(tmp_path, datasets, config):
    split, _, domain_map = pipeline_split(datasets, config)
    pair = build_cvae(config, len(split.train_domains), np.random.default_rng(0))
    path = tmp_path / "stage1.ckpt.json"
    save_stage1(path, pair, domain_map, config)
    return path, pair, domain_map


@pytest.mark.parametrize("name", list(STAGE1_RULE))
def test_stage1_checkpoint_refuses_exactly_the_fields_stage1_reads(tmp_path, tiny_datasets,
                                                                   tiny_config, name):
    value, refused = STAGE1_RULE[name]
    config = replace(tiny_config, **{name: value})
    config.validate()
    assert getattr(config, name) != getattr(tiny_config, name)
    path, pair, domain_map = _stage1_checkpoint(tmp_path, tiny_datasets, tiny_config)
    if refused:
        with pytest.raises(CheckpointError, match=re.escape(
                f"{name}={getattr(tiny_config, name)!r} does not match config {name}={value!r}")):
            load_stage1(path, pair, config, domain_map)
    else:
        load_stage1(path, pair, config, domain_map)


@pytest.mark.parametrize("variant", ["no_reg", "no_latent"])
def test_stage1_checkpoint_refuses_the_regularizer_switched(tmp_path, tiny_datasets,
                                                            tiny_config, variant):
    path, pair, domain_map = _stage1_checkpoint(tmp_path, tiny_datasets, tiny_config)
    with pytest.raises(CheckpointError,
                       match="reg_active=True does not match config reg_active=False"):
        load_stage1(path, pair, replace(tiny_config, variant=variant), domain_map)


class TestPipeline:
    def test_full_pipeline_emits_finite_reports(self, tiny_datasets, tiny_config):
        result = run_pipeline(tiny_datasets, tiny_config)
        for report in (result.report_train, result.report_test):
            for m in METRIC_NAMES:
                assert np.isfinite(report.average[m])
        assert result.record.selected_epoch >= 0

    def test_recurrent_pipeline_runs(self, tiny_datasets, tiny_config):
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

    def test_test_split_only_equals_its_part_of_both(self, tiny_datasets, tiny_config):
        # each split samples from its own stream, so leaving out the train
        # split changes nothing of the test split's
        both = run_pipeline(tiny_datasets, tiny_config)
        test = run_pipeline(tiny_datasets, tiny_config, splits=("test",))
        assert test.report_train is None
        assert test.report_test.to_json() == both.report_test.to_json()
        assert np.array_equal(test.test_forecasts.quantiles, both.test_forecasts.quantiles)
        with pytest.raises(ValueError, match="splits must be among"):
            run_pipeline(tiny_datasets, tiny_config, splits=("val",))

    @pytest.mark.parametrize("variant", ["full", "e2e", "no_decomp", "no_latent"])
    def test_each_encoded_batch_decomposes_its_own_rows(self, monkeypatch, tiny_datasets,
                                                        tiny_config, variant):
        # no window set's trend is held: each stage-1 and stage-2 minibatch
        # (twice in e2e, for the forecast and the latent objective), each
        # validation pass and each forecast block decomposes the rows it
        # encodes, so no call has the training set's size
        sizes = []

        def counted(x, kernel):
            sizes.append(len(x))
            return decompose_batch(x, kernel)

        monkeypatch.setattr(cvae, "decompose_batch", counted)
        config = replace(tiny_config, variant=variant)
        record = run_pipeline(tiny_datasets, config).record
        data = training.training_data(tiny_datasets, config, ("train", "val"))
        n_train, n_val = len(data.samples["train"]), len(data.samples["val"])
        assert n_train > config.batch_size and n_train != n_val
        batches = [min(config.batch_size, n_train - lo)
                   for lo in range(0, n_train, config.batch_size)]
        encoded = config.decomposed and variant != "no_latent"
        stage1 = batches * len(record.stage1_losses) if config.decomposed else []
        per_epoch = [b for b in batches for _ in range(2 if variant == "e2e" else 1)] + [n_val]
        stage2 = per_epoch * len(record.stage2_train_losses) if encoded else []
        evaluated = [len(training.eval_windows(tiny_datasets, data.split, config, which))
                     for which in ("train", "test")] if encoded else []
        blocks = [hi - lo for n in evaluated for lo, hi in row_blocks(n, PREDICT_BLOCK_WINDOWS)]
        assert sizes == stage1 + stage2 + blocks
        assert n_train not in sizes
        assert not encoded or len(blocks) > len(evaluated)   # a split of several blocks

    @pytest.mark.parametrize("variant", ["full", "e2e"])
    def test_regularizer_needs_two_training_domains_on_both_paths(self, tiny_datasets,
                                                                 tiny_config, variant):
        # two domains at test_fraction 0.5 leave one training domain: stage 1
        # and the e2e objective, which holds the regularizer too, refuse it alike
        config = replace(tiny_config, variant=variant, test_fraction=0.5)
        with pytest.raises(TrainingError, match="^stage 1: domain regularization needs "
                                                "at least 2 training domains$"):
            run_pipeline(tiny_datasets[:2], config)

    def test_stage1_loss_mostly_nonincreasing(self, tiny_datasets, tiny_config):
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
        load_stage1(path, pair2, tiny_config, domain_map)
        for p, q in zip(pair.params(), pair2.params()):
            assert np.array_equal(p.data, q.data)

    def test_failed_checkpoint_write_keeps_the_old_file(self, tmp_path):
        from latentcast.checkpoint import save_checkpoint
        params = [Tensor(np.arange(6.0).reshape(2, 3), name="w")]
        path = tmp_path / "model.ckpt.json"
        save_checkpoint(path, "full", {"lookback": 3}, [], params)
        before = path.read_bytes()
        # the keys sorted before "extra" are written before it fails to encode
        with pytest.raises(TypeError):
            save_checkpoint(path, "full", {"lookback": 4}, [], params, extra={"bad": object()})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt.json"]

    def test_checkpoint_text_is_the_sorted_json_encoding(self, tmp_path):
        self._assert_checkpoint_text_is_sorted_json(tmp_path, {"feat_dim": 2})

    def test_checkpoint_text_without_extra_is_the_sorted_json_encoding(self, tmp_path):
        self._assert_checkpoint_text_is_sorted_json(tmp_path, None)

    @staticmethod
    def _assert_checkpoint_text_is_sorted_json(tmp_path, extra):
        # the file is json's sorted compact text of the blob, floats as repr:
        # any other encoder must write the same bytes
        from latentcast.checkpoint import FORMAT_VERSION, save_checkpoint
        data = np.array([[0.1, 1 / 3, -0.0], [1e-300, -2.5e17, 7.0]])
        odd_name = 'enc"\\\n\u00e9.w'
        params = [Tensor(data, name="w"), Tensor(np.array([np.pi]), name="b"),
                  Tensor(np.array([[5e-324]]), name=odd_name)]
        config = {"lookback": 3, "beta": 5.0, "variant": "full", "encoder": None}
        domain_map = [[4, "dom\u00e9", 0], [7, "b", 1]]
        path = tmp_path / "model.ckpt.json"
        save_checkpoint(path, "full", config, domain_map, params, extra=extra)
        blob = {"format_version": FORMAT_VERSION, "kind": "full", "config": config,
                "domain_map": domain_map,
                "params": {"w": {"shape": [2, 3], "data": data.ravel().tolist()},
                           "b": {"shape": [1], "data": [np.pi]},
                           odd_name: {"shape": [1, 1], "data": [5e-324]}}}
        if extra:
            blob["extra"] = extra
        assert path.read_text(encoding="utf-8") == json.dumps(blob, sort_keys=True)

    def test_checkpoint_save_holds_one_parameter_list_at_a_time(self, tmp_path):
        # a model at the bigru-train benchmark config, 5 training domains (a
        # 494 KB file): every parameter's list built before json's C encoder
        # runs peaks at about 1.2 MB
        config = TrainConfig(decoder="linear", encoder="bigru", epochs_stage1=1,
                             epochs_stage2=1, patience=10, stride=16, eval_stride=4)
        model = build(config, 5, 0)
        domain_map = [[i, f"dom{i}", i] for i in range(5)]
        path = tmp_path / "model.ckpt.json"
        save_full(path, model, domain_map, config, 0)
        tracemalloc.start()
        try:
            save_full(path, model, domain_map, config, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.0e6


class TestBenchmarkBindings:
    """The benchmark harness wraps these functions and binds their arguments
    by name; a rename fails here instead of silently breaking its timing."""

    def test_stage_parameter_names(self):
        assert {"samples", "record"} <= set(inspect.signature(stage1_pretrain).parameters)
        assert {"train_samples", "record"} <= set(inspect.signature(stage2_train).parameters)
        assert "which" in inspect.signature(evaluate_split).parameters

    def test_evaluate_split_returns_report_windows_forecasts(self, tiny_datasets, tiny_config):
        split, _, _ = pipeline_split(tiny_datasets, tiny_config)
        model = build(tiny_config, len(split.train_domains), 0)
        report, windows, dists = evaluate_split(model, tiny_datasets, split, tiny_config,
                                                which="test")
        assert isinstance(report, MetricReport)
        assert isinstance(windows, WindowSet) and isinstance(dists, Forecasts)
        assert len(windows) == len(dists)

    @staticmethod
    def _count_phases(monkeypatch):
        """Counting wrappers around the three timed phases, installed on the
        `training` module attribute only, as the harness reaches them."""
        calls = {"stage1_pretrain": 0, "stage2_train": 0, "evaluate_split": []}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                if name == "evaluate_split":
                    calls[name].append(inspect.signature(fn).bind(*args, **kwargs)
                                       .arguments["which"])
                else:
                    calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(training, name, counted(name, getattr(training, name)))
        return calls

    def test_run_pipeline_reaches_each_phase_through_the_module(self, monkeypatch,
                                                               tiny_datasets, tiny_config):
        calls = self._count_phases(monkeypatch)
        run_pipeline(tiny_datasets, tiny_config)
        assert calls == {"stage1_pretrain": 1, "stage2_train": 1,
                         "evaluate_split": ["train", "test"]}

    def test_cli_train_reaches_each_phase_through_the_module(self, monkeypatch, tmp_path,
                                                            tiny_datasets, tiny_config):
        config, data = tmp_path / "config.json", tmp_path / "data.csv"
        config.write_text(json.dumps({"train": tiny_config.to_dict()}), encoding="utf-8")
        write_csv(tiny_datasets, data)
        common = ["--config", str(config), "--data", str(data)]
        assert cli.main(["pretrain", *common, "--out", str(tmp_path / "pre")]) == 0
        calls = self._count_phases(monkeypatch)
        assert cli.main(["train", *common, "--out", str(tmp_path / "fit"), "--pretrained",
                         str(tmp_path / "pre" / "stage1.ckpt.json")]) == 0
        assert calls == {"stage1_pretrain": 0, "stage2_train": 1,
                         "evaluate_split": ["train", "test"]}

    def test_forecasts_test_pairs_rows_in_window_order(self, tiny_datasets, tiny_config):
        result = run_pipeline(tiny_datasets, tiny_config)
        rows = result.forecasts_test
        assert len(rows) == len(result.test_windows) == len(result.test_forecasts) > 0
        for i, (w, d) in enumerate(rows):
            assert isinstance(w, WindowSample) and isinstance(d, ForecastDistribution)
            assert (w.domain_id, w.series_name, w.origin) == (
                result.test_windows.domain_id[i], result.test_windows.series_name[i],
                result.test_windows.origin[i])
            assert np.array_equal(d.quantiles, result.test_forecasts.quantiles[:, i])

    def test_row_lists_accepted(self, tiny_pair):
        rows = list(_samples(6, 6))
        assert isinstance(rows[0], WindowSample)
        assert len(prepare_samples(rows)) == 6
        assert make_stage1_batch(tiny_pair, rows, {0: 0, 1: 1}).x.shape == (6, 6)


class TestMultiSeed:
    def test_single_seed_zero_std(self, tiny_datasets, tiny_config):
        # the row holds the test split's averages of the one seed's run
        row = multi_seed_evaluate(tiny_datasets, tiny_config, [3])
        average = run_pipeline(tiny_datasets, tiny_config).report_test.average
        assert row == {"failed_seeds": {}, "n_seeds": 1,
                       **{f"{m}_mean": average[m] for m in METRIC_NAMES},
                       **{f"{m}_std": 0.0 for m in METRIC_NAMES}}

    def test_deterministic_aggregates(self, tiny_datasets, tiny_config):
        a = multi_seed_evaluate(tiny_datasets, tiny_config, [1, 2])
        b = multi_seed_evaluate(tiny_datasets, tiny_config, [1, 2])
        assert a == b and a["n_seeds"] == 2

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
        row = multi_seed_evaluate(poisoned, tiny_config, [bad_seed, good_seed])
        assert list(row["failed_seeds"]) == [bad_seed]
        assert row["n_seeds"] == 1

    def test_undefined_metric_ends_the_row(self, tiny_datasets, tiny_config):
        # an all-zero domain leaves the quantile loss of its test split
        # undefined: the seed that holds it out raises, after a seed that
        # trains on it ran, and is not recorded as a failed seed
        from latentcast.data import split_domains
        for values in tiny_datasets[0].values:
            values[:] = 0.0
        held_out = [0 in split_domains(tiny_datasets, tiny_config.test_fraction, seed,
                                       tiny_config.val_fraction).test_domains
                    for seed in range(6)]
        seeds = [held_out.index(False), held_out.index(True)]
        with pytest.raises(MetricError, match="test split, domain 0"):
            multi_seed_evaluate(tiny_datasets, tiny_config, seeds)

    def test_engine_fault_propagates(self, tiny_datasets, tiny_config, monkeypatch):
        def shape_fault_at_seed_2(datasets, config, **kwargs):
            if config.seed == 2:
                raise ShapeError("matmul: inner dimensions differ")
            return run_pipeline(datasets, config, **kwargs)

        monkeypatch.setattr(training, "run_pipeline", shape_fault_at_seed_2)
        with pytest.raises(ShapeError, match="inner dimensions"):
            multi_seed_evaluate(tiny_datasets, tiny_config, [1, 2])
