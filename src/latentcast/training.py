"""Two-stage optimization, early stopping, and multi-seed evaluation.

Stage 1 pretrains the conditional VAE pair on the latent loss plus the domain
regularizer. Stage 2 trains the forecasting decoder and the augmentation map
while fine-tuning the encoders; the conditional VAE decoders are frozen and
unused. Every Table-4-style variant is a single `variant` string. All
randomness is derived from the config seed, so a (config, data) pair fully
determines the run.

`run_pipeline` is the one place that writes the stage sequence (`training_data`,
`build`, stage 1 or its checkpoint, `stage2_train`, `evaluate_split` per split);
the CLI's `train` and `ablate` run it, and `pretrain` runs stage 1 alone.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, restore_params, save_checkpoint
from .cvae import (CvaePair, Stage1Batch, domain_regularizer, latent_loss,
                   make_stage1_batch, split_for, split_index)
from .data import (DataError, DomainDataset, DomainSplit, WindowSample, WindowSet,
                   check_field_types, field_types, prepare_samples, split_domains,
                   windows_for_role)
from .decomposition import check_kernel
from .evaluation import METRIC_NAMES, MetricReport, aggregate
from .forecaster import (PREDICT_BLOCK_WINDOWS, QUANTILE_LEVELS, ForecastDistribution,
                         ForecastModel, Forecasts, LinearDecoder, RecurrentDecoder,
                         gaussian_nll, row_blocks, to_distribution)
from .nets import glorot
from .optim import Adam
from .tensor import Tensor, no_grad

VARIANTS = ("full", "e2e", "no_reg", "no_decomp", "shared_only", "no_cond", "no_latent")

class TrainingError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    lookback: int = 60
    horizon: int = 14
    d_z: int = 8
    hidden: int = 32
    kernel: int = 9
    batch_size: int = 64
    dropout: float = 0.3
    learning_rate: float = 1e-3
    beta: float = 5.0
    alpha: float = 0.5
    reg_weight: float = 1.0
    epochs_stage1: int = 100
    epochs_stage2: int = 100
    patience: int = 10
    seed: int = 0
    variant: str = "full"
    decoder: str = "linear"
    encoder: str | None = None
    sample_paths: int = 100
    test_fraction: float = 0.2
    val_fraction: float = 0.2
    stride: int = 1
    eval_stride: int = 1
    value_scale: float = 1.0
    fill_missing: float = 0.0

    def validate(self) -> None:
        check_field_types(self)
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; valid: {', '.join(VARIANTS)}")
        if self.decoder not in ("recurrent", "linear"):
            raise ValueError(f"decoder must be 'recurrent' or 'linear', got {self.decoder!r}")
        if self.encoder not in (None, "mlp", "bigru"):
            raise ValueError(f"encoder must be 'mlp' or 'bigru', got {self.encoder!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.reg_active and self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 while the domain regularizer is active")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        for name in ("lookback", "horizon", "d_z", "hidden", "stride", "eval_stride"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.patience < 0:
            raise ValueError(f"patience must be >= 0, got {self.patience}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.two_stage and self.epochs_stage1 < 1:
            raise ValueError(f"epochs_stage1 must be >= 1, got {self.epochs_stage1}")
        if self.epochs_stage2 < 1:
            raise ValueError(f"epochs_stage2 must be >= 1, got {self.epochs_stage2}")
        if self.sample_paths < 1:
            raise ValueError(f"sample_paths must be >= 1, got {self.sample_paths}")
        if not self.learning_rate > 0.0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        for name in ("beta", "reg_weight"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.reg_active and self.beta == 0.0:
            raise ValueError(f"beta must be > 0 while the domain regularizer is on (reg_weight="
                             f"{self.reg_weight}): its push leaves the loss unbounded below")
        for name in ("test_fraction", "val_fraction"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {getattr(self, name)}")
        if self.value_scale == 0.0:
            raise ValueError(f"value_scale must be nonzero, got {self.value_scale}")
        split_index(self.alpha, self.d_z)
        check_kernel(self.kernel, self.lookback)

    @property
    def reg_active(self) -> bool:
        return self.variant not in ("no_reg", "no_latent") and self.reg_weight != 0.0

    @property
    def two_stage(self) -> bool:
        """Whether the VAE pair is pretrained in a stage of its own."""
        return self.variant not in ("e2e", "no_latent")

    @property
    def decomposed(self) -> bool:
        return self.variant != "no_decomp"

    @property
    def conditional(self) -> bool:
        return self.variant != "no_cond"

    def resolved_encoder(self) -> str:
        if self.encoder is not None:
            return self.encoder
        return "bigru" if self.decoder == "linear" else "mlp"

    def to_dict(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class RunRecord:
    seed: int
    stage1_losses: list[float] = field(default_factory=list)
    stage2_train_losses: list[float] = field(default_factory=list)
    stage2_val_losses: list[float] = field(default_factory=list)
    selected_epoch: int = -1
    stage1_seconds: list[float] = field(default_factory=list)
    stage2_seconds: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start:start + batch_size]


def _fit(stage: int, opt: Adam, n: int, epochs: int, config: TrainConfig,
         rng: np.random.Generator,
         batch_loss: Callable[[np.ndarray], tuple[Tensor, dict[str, float]]],
         losses: list[float], seconds: list[float],
         score: Callable[[int], float] | None = None, patience: int | None = None) -> int:
    """The epoch loop of both stages: minibatch steps of `opt` over `n`
    windows, appending each epoch's mean training loss to `losses` and its
    wall time to `seconds`.

    An epoch's score is `score(epoch)`, or its mean training loss when no
    `score` is given. The parameters of the best-scoring epoch are restored
    at the end, and its index is returned. With `patience`, training stops
    after that many epochs without a better score.
    """
    if not n:
        raise TrainingError(f"stage {stage}: no training windows")
    best, best_epoch, best_snap = np.inf, -1, opt.values.copy()
    for epoch in range(epochs):
        tick = time.perf_counter()
        values = []
        for bi, idx in enumerate(_batches(n, config.batch_size, rng)):
            loss, parts = batch_loss(idx)
            value = float(loss.data)
            if not np.isfinite(value):
                raise TrainingError(f"stage {stage} loss non-finite "
                                    f"(epoch {epoch}, batch {bi}, parts {parts})")
            loss.backward()
            opt.step()
            values.append(value)
        losses.append(float(np.mean(values)))
        current = losses[-1] if score is None else score(epoch)
        seconds.append(time.perf_counter() - tick)
        if current < best:
            best, best_epoch, best_snap = current, epoch, opt.values.copy()
        elif patience is not None and epoch - best_epoch >= patience:
            break
    opt.values[...] = best_snap
    return best_epoch


def build_cvae(config: TrainConfig, num_domains: int,
               rng: np.random.Generator) -> CvaePair:
    return CvaePair.build(
        rng, config.lookback, config.d_z, config.hidden, config.beta, config.alpha,
        config.kernel, num_domains, encoder_kind=config.resolved_encoder(),
        conditional=config.conditional, decomposed=config.decomposed,
        drop=config.dropout,
    )


def build_model(config: TrainConfig, pair: CvaePair, feat_dim: int,
                rng: np.random.Generator) -> ForecastModel:
    t = config.lookback
    w = Tensor(glorot(rng, (config.d_z + t, t), config.d_z + t, t),
               requires_grad=True, name="aug.w")
    b = Tensor(np.zeros(t), requires_grad=True, name="aug.b")
    if config.decoder == "recurrent":
        dec = RecurrentDecoder(rng, feat_dim, config.hidden, config.horizon, config.dropout)
    else:
        dec = LinearDecoder(rng, t, config.horizon, config.kernel)
    return ForecastModel(pair, w, b, dec,
                         shared_only=(config.variant == "shared_only"),
                         zero_latent=(config.variant == "no_latent"))


def build(config: TrainConfig, num_domains: int, feat_dim: int) -> ForecastModel:
    """The forecasting model around a fresh VAE pair (`.pair`). Both draw from
    the seed's initialization stream, pair first."""
    rng = np.random.default_rng([config.seed, 1])
    return build_model(config, build_cvae(config, num_domains, rng), feat_dim, rng)


def pipeline_split(datasets: Sequence[DomainDataset], config: TrainConfig):
    split = split_domains(datasets, config.test_fraction, config.seed, config.val_fraction)
    by_id = {ds.domain_id: ds for ds in datasets}
    domain_index = {dom: i for i, dom in enumerate(split.train_domains)}
    domain_map = [[dom, by_id[dom].domain_name, i] for dom, i in domain_index.items()]
    return split, domain_index, domain_map


@dataclass
class TrainingData:
    """A run's domain split and the prepared training-stride samples of the
    split roles a step uses."""
    split: DomainSplit
    domain_index: dict[int, int]
    domain_map: list[list]
    samples: dict[str, WindowSet]


def training_data(datasets: Sequence[DomainDataset], config: TrainConfig,
                  roles: Sequence[str]) -> TrainingData:
    """Split the domains, then window and prepare only the given roles. A
    role left without a window is a data error."""
    split, domain_index, domain_map = pipeline_split(datasets, config)
    samples = {role: prepare_samples(windows_for_role(datasets, split, role, config.lookback,
                                                      config.horizon, config.stride),
                                     in_place=True)
               for role in roles}
    for role, windows in samples.items():
        if not len(windows):
            raise DataError(f"no {role} window: no {role} period holds lookback + horizon = "
                            f"{config.lookback + config.horizon} steps at stride {config.stride}")
    return TrainingData(split, domain_index, domain_map, samples)


# ---------------------------------------------------------------------------
# Stage 1
# ---------------------------------------------------------------------------

def _latent_inputs(pair: CvaePair, samples: WindowSet, domain_index: dict[int, int],
                   config: TrainConfig) -> Stage1Batch:
    """The latent objective's inputs, for stage 1 and the e2e variant. An
    active domain regularizer needs at least two training domains."""
    if config.reg_active and len(set(domain_index.values())) < 2:
        raise TrainingError("stage 1: domain regularization needs at least 2 training domains")
    return make_stage1_batch(pair, samples, domain_index)


def _latent_objective(pair: CvaePair, batch: Stage1Batch, config: TrainConfig,
                      rng: np.random.Generator) -> tuple[Tensor, dict[str, float]]:
    """The stage-1 objective on one minibatch: the latent loss plus
    reg_weight times the domain regularizer when it is active."""
    loss, parts, means = latent_loss(pair, batch, rng=rng, training=True)
    if config.reg_active and batch.x.shape[0] >= 2:
        sl = split_for(pair, means)
        omega = domain_regularizer(sl.z_shared, sl.z_specific, batch.domain_ids)
        loss = loss + config.reg_weight * omega
    return loss, parts


def stage1_pretrain(pair: CvaePair, samples: WindowSet, domain_index: dict[int, int],
                    config: TrainConfig, record: RunRecord) -> None:
    """Minibatch Adam on latent loss + reg_weight * regularizer; keeps the
    best epoch-mean parameters."""
    inputs = _latent_inputs(pair, samples, domain_index, config)
    rng = np.random.default_rng([config.seed, 2])
    _fit(1, Adam(pair.params(), lr=config.learning_rate), len(samples), config.epochs_stage1,
         config, rng, lambda idx: _latent_objective(pair, inputs.take(idx), config, rng),
         record.stage1_losses, record.stage1_seconds)


# ---------------------------------------------------------------------------
# Stage 2 (and the end-to-end variant)
# ---------------------------------------------------------------------------

def stage2_train(model: ForecastModel, train_samples: WindowSet, val_samples: WindowSet,
                 config: TrainConfig, record: RunRecord,
                 domain_index: dict[int, int] | None = None) -> None:
    """Forecast-NLL training with early stopping on validation loss.

    In the e2e variant (domain_index required) the latent loss and regularizer
    join the objective and every parameter of the model trains; otherwise the
    log-variance readouts and the conditional decoders are frozen and unused.
    """
    if not len(val_samples):
        raise TrainingError("stage 2: validation set is empty")
    e2e = config.variant == "e2e"
    if e2e and domain_index is None:
        raise TrainingError("e2e training needs the domain index map")
    latent_inputs = (_latent_inputs(model.pair, train_samples, domain_index, config)
                     if e2e else None)
    train_trend = latent_inputs.trend if e2e else model.trend(train_samples.x)
    val_trend = model.trend(val_samples.x)

    opt = Adam(model.checkpoint_params() if e2e else model.params(), lr=config.learning_rate)
    rng = np.random.default_rng([config.seed, 3])

    def batch_loss(idx: np.ndarray) -> tuple[Tensor, dict[str, float]]:
        y = train_samples.y[idx]
        mu, sigma = model.train_params(
            y, train_samples.x[idx], train_samples.a[idx], rng=rng, training=True,
            trend=None if train_trend is None else train_trend[idx])
        loss = gaussian_nll(y, mu, sigma)
        parts = {"nll": float(loss.data)}
        if e2e:
            latent, latent_parts = _latent_objective(model.pair, latent_inputs.take(idx),
                                                     config, rng)
            loss = loss + latent
            parts.update(latent_parts)
        return loss, parts

    def validate(epoch: int) -> float:
        with no_grad():
            mu, sigma = model.train_params(val_samples.y, val_samples.x, val_samples.a,
                                           trend=val_trend)
            val_loss = float(gaussian_nll(val_samples.y, mu, sigma).data)
        if not np.isfinite(val_loss):
            raise TrainingError(f"stage 2 validation loss non-finite (epoch {epoch})")
        record.stage2_val_losses.append(val_loss)
        return val_loss

    record.selected_epoch = _fit(2, opt, len(train_samples), config.epochs_stage2, config, rng,
                                 batch_loss, record.stage2_train_losses, record.stage2_seconds,
                                 score=validate, patience=config.patience)


# ---------------------------------------------------------------------------
# Evaluation over a fitted model
# ---------------------------------------------------------------------------

def predict_windows(model: ForecastModel, windows: WindowSet,
                    config: TrainConfig, rng: np.random.Generator | None) -> Forecasts:
    """Per-window forecast distributions in original units, in `row_blocks`
    of `PREDICT_BLOCK_WINDOWS` windows, so that forecasts do not depend on
    the split size. A block decomposes its own windows (a split is used once)."""
    prepared = prepare_samples(windows)
    n = len(prepared)
    quantiles = np.empty((len(QUANTILE_LEVELS), n, config.horizon))
    notes: list[str] = []
    for lo, hi in row_blocks(n, PREDICT_BLOCK_WINDOWS):
        part = prepared[lo:hi]
        out = model.predict(part.x, part.a, config.sample_paths, rng)
        quantiles[:, lo:hi], notes = to_distribution(
            **out, scale=part.scale[:, None],
            norm_stats=(part.norm_mean[:, None], part.norm_std[:, None]))
    return Forecasts(quantiles=quantiles, notes=notes)


EVAL_SPLITS = ("train", "test")


def eval_windows(datasets: Sequence[DomainDataset], split: DomainSplit,
                 config: TrainConfig, which: str) -> WindowSet:
    """Evaluation-stride windows of the held-out periods of training domains
    ("train") or of the test domains ("test"). A split left without a window
    is a data error."""
    if which not in EVAL_SPLITS:
        raise ValueError(f"which must be 'train' or 'test', got {which!r}")
    role = "val" if which == "train" else "test"
    windows = windows_for_role(datasets, split, role, config.lookback, config.horizon,
                               config.eval_stride)
    if not len(windows):
        raise DataError(f"no {which} evaluation window: no {role} period holds lookback + "
                        f"horizon = {config.lookback + config.horizon} steps at eval_stride "
                        f"{config.eval_stride}")
    return windows


def evaluate_split(model: ForecastModel, datasets: Sequence[DomainDataset],
                   split: DomainSplit, config: TrainConfig, which: str
                   ) -> tuple[MetricReport, WindowSet, Forecasts]:
    """Metrics on the windows of `eval_windows`. Each split samples from a
    stream of its own, so every command that forecasts a split agrees."""
    windows = eval_windows(datasets, split, config, which)
    rng = np.random.default_rng([config.seed, 4, EVAL_SPLITS.index(which)])
    dists = predict_windows(model, windows, config, rng)
    domains = split.train_domains if which == "train" else split.test_domains
    report = aggregate(windows, dists, domains, which, config.seed, config.config_hash())
    return report, windows, dists


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------

@dataclass
class PipelineResult:
    config: TrainConfig
    split: DomainSplit
    domain_map: list[list]
    domain_index: dict[int, int]
    pair: CvaePair
    model: ForecastModel
    record: RunRecord
    report_train: MetricReport | None   # None for a split not evaluated
    report_test: MetricReport | None
    test_windows: WindowSet | None
    test_forecasts: Forecasts | None

    @property
    def forecasts_test(self) -> list[tuple[WindowSample, ForecastDistribution]]:
        """The test split as (window, distribution) rows, in window order."""
        return list(zip(self.test_windows, self.test_forecasts))


def run_pipeline(datasets: Sequence[DomainDataset], config: TrainConfig,
                 pretrained=None, splits: Sequence[str] = EVAL_SPLITS) -> PipelineResult:
    """Both stages, then the reports of `splits`, train before test. A
    two-stage variant given a `pretrained` stage-1 checkpoint restores the
    pair from it instead of running stage 1."""
    if not set(splits) <= set(EVAL_SPLITS):
        raise ValueError(f"splits must be among {EVAL_SPLITS}, got {tuple(splits)}")
    config.validate()
    data = training_data(datasets, config, ("train", "val"))
    model = build(config, len(data.split.train_domains), datasets[0].feat_dim)
    record = RunRecord(seed=config.seed)
    if config.two_stage and pretrained is not None:
        load_stage1(pretrained, model.pair, config, data.domain_map)
    elif config.two_stage:
        stage1_pretrain(model.pair, data.samples["train"], data.domain_index, config, record)
    stage2_train(model, data.samples["train"], data.samples["val"], config, record,
                 domain_index=data.domain_index)
    evaluated = {which: evaluate_split(model, datasets, data.split, config, which)
                 if which in splits else (None, None, None) for which in EVAL_SPLITS}
    report_train = evaluated["train"][0]
    report_test, windows, dists = evaluated["test"]
    return PipelineResult(config=config, split=data.split, domain_map=data.domain_map,
                          domain_index=data.domain_index, pair=model.pair, model=model,
                          record=record, report_train=report_train, report_test=report_test,
                          test_windows=windows, test_forecasts=dists)


# ---------------------------------------------------------------------------
# Checkpoint plumbing
# ---------------------------------------------------------------------------

def save_stage1(path, pair: CvaePair, domain_map: list[list], config: TrainConfig) -> None:
    save_checkpoint(path, "stage1", config.to_dict(), domain_map, pair.params())


def read_checkpoint(path, kind: str) -> tuple[dict, TrainConfig]:
    """A checkpoint of `kind` and its run config, which must hold every
    TrainConfig field and pass `validate`."""
    blob = load_checkpoint(path)
    if blob["kind"] != kind:
        raise CheckpointError(f"checkpoint {path}: expected a {kind} checkpoint, "
                              f"got {blob['kind']!r}")
    if blob["config"].keys() != field_types(TrainConfig).keys():
        raise CheckpointError(f"checkpoint {path}: config keys differ from TrainConfig's in "
                              f"{sorted(blob['config'].keys() ^ field_types(TrainConfig).keys())}")
    config = TrainConfig(**blob["config"])
    try:
        config.validate()
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {path}: {exc}") from None
    return blob, config


def load_stage1(path, pair: CvaePair, config: TrainConfig, domain_map: list[list]) -> None:
    """Restore pretrained VAE parameters into a freshly built pair, after
    checking that they were pretrained for this config and domain split."""
    blob, ckpt_config = read_checkpoint(path, "stage1")
    # the settings that shape the pair, its pretraining split, windows and
    # objective, with the encoder as the pair resolves it; the variant itself
    # differs between variants that pretrain alike
    for key in ("lookback", "d_z", "hidden", "alpha", "kernel", "seed", "dropout", "val_fraction",
                "encoder", "beta", "reg_weight", "reg_active", "epochs_stage1", "learning_rate",
                "batch_size", "stride", "horizon", "value_scale", "fill_missing"):
        stored, wanted = (c.resolved_encoder() if key == "encoder" else getattr(c, key)
                          for c in (ckpt_config, config))
        if stored != wanted:
            raise CheckpointError(f"checkpoint {path}: {key}={stored!r} "
                                  f"does not match config {key}={wanted!r}")
    restore_params(blob, pair.params(), path, domain_map)


def save_full(path, model: ForecastModel, domain_map: list[list],
              config: TrainConfig, feat_dim: int) -> None:
    save_checkpoint(path, "full", config.to_dict(), domain_map, model.checkpoint_params(),
                    extra={"feat_dim": feat_dim})


def restore_full(path, blob: dict, config: TrainConfig, domain_map: list[list],
                 feat_dim: int) -> ForecastModel:
    """A full checkpoint's trained model, for data of its domain split and feature width."""
    if type(feat_dim) is not int or feat_dim < 0 or blob.get("extra") != {"feat_dim": feat_dim}:
        raise CheckpointError(f"checkpoint {path}: extra {blob.get('extra')!r} does not hold "
                              f"the data's feature width {feat_dim!r}")
    model = build(config, len(domain_map), feat_dim)
    restore_params(blob, model.checkpoint_params(), path, domain_map)
    return model


def load_full(path) -> tuple[TrainConfig, ForecastModel, list[list], dict[int, int]]:
    """Rebuild the trained model (config echo + parameters) from disk."""
    blob, config = read_checkpoint(path, "full")
    feat_dim = blob.get("extra", {}).get("feat_dim")
    model = restore_full(path, blob, config, blob["domain_map"], feat_dim)
    return config, model, blob["domain_map"], {dom: i for dom, _, i in blob["domain_map"]}


# ---------------------------------------------------------------------------
# Multi-seed evaluation
# ---------------------------------------------------------------------------

def multi_seed_evaluate(datasets: Sequence[DomainDataset], config: TrainConfig,
                        seeds: Sequence[int]) -> dict:
    """One variant's ablation row: the full pipeline per seed (a fresh domain
    shuffle each time), evaluating only the test split, then `{metric}_mean`
    and `{metric}_std` over the test averages of the seeds that ran, their
    count `n_seeds` (absent when none ran), and `failed_seeds`, the message of
    each seed whose training failed. Any other error propagates."""
    if not seeds:
        raise ValueError("multi_seed_evaluate: need at least one seed")
    averages: list[dict[str, float]] = []
    row: dict = {"failed_seeds": {}}
    for seed in seeds:
        try:
            result = run_pipeline(datasets, replace(config, seed=seed), splits=("test",))
            averages.append(result.report_test.average)
        except TrainingError as exc:
            row["failed_seeds"][seed] = str(exc)
    if averages:
        for metric in METRIC_NAMES:
            values = [average[metric] for average in averages]
            row[f"{metric}_mean"] = float(np.mean(values))
            row[f"{metric}_std"] = float(np.std(values))
        row["n_seeds"] = len(averages)
    return row
