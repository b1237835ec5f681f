"""Two-stage optimization, model selection, and multi-seed evaluation.

Stage 1 pretrains the conditional VAE pair on the latent loss plus the domain
regularizer. Stage 2 trains the forecasting decoder and the augmentation map
while fine-tuning the encoders; the conditional VAE decoders are frozen and
unused. Every Table-4-style variant is a single `variant` string. All
randomness is derived from the config seed, so a (config, data) pair fully
determines the run.

`run_pipeline` composes the steps (`training_data`, `build`, `pretrain`,
`train`, `evaluate_model`); the CLI runs the same steps one command at a time,
with checkpoints in between.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from .cvae import (CvaePair, domain_regularizer, latent_loss, make_stage1_batch,
                   split_for)
from .data import (DomainDataset, DomainSplit, WindowSample, prepare_samples,
                   split_domains, windows_for_role)
from .evaluation import METRIC_NAMES, MetricReport, aggregate
from .forecaster import (ForecastDistribution, ForecastModel, LinearDecoder,
                         RecurrentDecoder, gaussian_nll, to_distribution)
from .nets import glorot
from .optim import Adam
from .tensor import Tensor, clip_grad_norm, no_grad

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
    grad_clip: float | None = None
    encoder_lr_scale: float = 1.0
    value_scale: float = 1.0
    fill_missing: float = 0.0

    def validate(self) -> None:
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
        if self.lookback < 1 or self.horizon < 1:
            raise ValueError("lookback and horizon must be >= 1")
        if self.two_stage and self.epochs_stage1 < 1:
            raise ValueError(f"epochs_stage1 must be >= 1, got {self.epochs_stage1}")
        if self.epochs_stage2 < 1:
            raise ValueError(f"epochs_stage2 must be >= 1, got {self.epochs_stage2}")

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


def _snapshot(params: Sequence[Tensor]) -> list[np.ndarray]:
    return [p.data.copy() for p in params]


def _restore(params: Sequence[Tensor], snap: Sequence[np.ndarray]) -> None:
    for p, s in zip(params, snap):
        p.data[...] = s


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start:start + batch_size]


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


def build(config: TrainConfig, num_domains: int, feat_dim: int | None = None
          ) -> tuple[CvaePair, ForecastModel | None]:
    """The VAE pair and, given the feature width, the forecasting model
    around it. Both draw from the seed's initialization stream, pair first, so
    a pair built alone equals the pair of a full build."""
    rng = np.random.default_rng([config.seed, 1])
    pair = build_cvae(config, num_domains, rng)
    if feat_dim is None:
        return pair, None
    return pair, build_model(config, pair, feat_dim, rng)


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
    samples: dict[str, list[WindowSample]]


def training_data(datasets: Sequence[DomainDataset], config: TrainConfig,
                  roles: Sequence[str]) -> TrainingData:
    """Split the domains, then window and prepare only the given roles."""
    split, domain_index, domain_map = pipeline_split(datasets, config)
    samples = {role: prepare_samples(windows_for_role(datasets, split, role, config.lookback,
                                                      config.horizon, config.stride))
               for role in roles}
    return TrainingData(split, domain_index, domain_map, samples)


# ---------------------------------------------------------------------------
# Stage 1
# ---------------------------------------------------------------------------

def _latent_objective(pair: CvaePair, samples: list[WindowSample],
                      domain_index: dict[int, int], config: TrainConfig,
                      rng: np.random.Generator) -> tuple[Tensor, dict[str, float]]:
    """The stage-1 objective on one minibatch: the latent loss plus
    reg_weight times the domain regularizer when it is active."""
    batch = make_stage1_batch(pair, samples, domain_index)
    loss, parts, latents = latent_loss(pair, batch, rng=rng, training=True)
    if config.reg_active and len(samples) >= 2:
        sl = split_for(pair, latents)
        omega = domain_regularizer(sl.z_shared, sl.z_specific, batch.domain_ids)
        loss = loss + config.reg_weight * omega
    return loss, parts


def stage1_pretrain(pair: CvaePair, samples: list[WindowSample],
                    domain_index: dict[int, int], config: TrainConfig,
                    record: RunRecord) -> None:
    """Minibatch Adam on latent loss + reg_weight * regularizer; keeps the
    best epoch-mean parameters."""
    if not samples:
        raise TrainingError("stage 1: no training windows")
    if config.reg_active and len(set(domain_index.values())) < 2:
        raise TrainingError("stage 1: domain regularization needs at least 2 training domains")
    rng = np.random.default_rng([config.seed, 2])
    params = pair.params()
    opt = Adam(params, lr=config.learning_rate)
    best = np.inf
    best_snap = _snapshot(params)
    for epoch in range(config.epochs_stage1):
        tick = time.perf_counter()
        losses = []
        for bi, idx in enumerate(_batches(len(samples), config.batch_size, rng)):
            loss, parts = _latent_objective(pair, [samples[i] for i in idx], domain_index,
                                            config, rng)
            value = float(loss.data)
            if not np.isfinite(value):
                raise TrainingError(
                    f"stage 1 loss non-finite (epoch {epoch}, batch {bi}, parts {parts})"
                )
            loss.backward()
            if config.grad_clip:
                clip_grad_norm(params, config.grad_clip)
            opt.step()
            losses.append(value)
        mean_loss = float(np.mean(losses))
        record.stage1_losses.append(mean_loss)
        record.stage1_seconds.append(time.perf_counter() - tick)
        if mean_loss < best:
            best = mean_loss
            best_snap = _snapshot(params)
    _restore(params, best_snap)


def pretrain(pair: CvaePair, data: TrainingData, config: TrainConfig,
             record: RunRecord) -> None:
    """Stage 1 on the training-role samples (`data` needs the train role)."""
    stage1_pretrain(pair, data.samples["train"], data.domain_index, config, record)


# ---------------------------------------------------------------------------
# Stage 2 (and the end-to-end variant)
# ---------------------------------------------------------------------------

def _stack(samples: list[WindowSample], feat_dim: int):
    x = np.stack([s.x for s in samples])
    y = np.stack([s.y for s in samples])
    a = np.stack([s.a for s in samples]) if feat_dim else None
    return x, a, y

def _forecast_loss(model: ForecastModel, y, x, a, rng=None, training=False):
    mu, sigma = model.train_params(y, x, a, rng=rng, training=training)
    return gaussian_nll(y, mu, sigma)


def stage2_train(model: ForecastModel, train_samples: list[WindowSample],
                 val_samples: list[WindowSample], config: TrainConfig,
                 record: RunRecord, domain_index: dict[int, int] | None = None) -> None:
    """Forecast-NLL training with early stopping on validation loss.

    In the e2e variant (domain_index required) the latent loss and regularizer
    join the objective and the conditional decoders train too; otherwise they
    are frozen and unused.
    """
    if not train_samples:
        raise TrainingError("stage 2: no training windows")
    if not val_samples:
        raise TrainingError("stage 2: validation set is empty")
    e2e = config.variant == "e2e"
    if e2e and domain_index is None:
        raise TrainingError("e2e training needs the domain index map")
    feat_dim = train_samples[0].a.shape[1]
    x_all, a_all, y_all = _stack(train_samples, feat_dim)
    x_val, a_val, y_val = _stack(val_samples, feat_dim)

    params = model.params()
    n_enc = 0 if model.zero_latent else len(model.pair.encoder_params())
    if e2e:
        params = params + model.pair.decoder_params()
    scales = [config.encoder_lr_scale] * n_enc + [1.0] * (len(params) - n_enc)
    opt = Adam(params, lr=config.learning_rate, lr_scales=scales)

    rng = np.random.default_rng([config.seed, 3])
    best_val = np.inf
    best_snap = _snapshot(params)
    bad = 0
    for epoch in range(config.epochs_stage2):
        tick = time.perf_counter()
        losses = []
        for bi, idx in enumerate(_batches(len(train_samples), config.batch_size, rng)):
            xb, ab, yb = x_all[idx], (a_all[idx] if a_all is not None else None), y_all[idx]
            loss = _forecast_loss(model, yb, xb, ab, rng=rng, training=True)
            if e2e:
                latent, _ = _latent_objective(model.pair, [train_samples[i] for i in idx],
                                              domain_index, config, rng)
                loss = loss + latent
            value = float(loss.data)
            if not np.isfinite(value):
                raise TrainingError(f"stage 2 loss non-finite (epoch {epoch}, batch {bi})")
            loss.backward()
            if config.grad_clip:
                clip_grad_norm(params, config.grad_clip)
            opt.step()
            losses.append(value)
        record.stage2_train_losses.append(float(np.mean(losses)))
        with no_grad():
            val_loss = float(_forecast_loss(model, y_val, x_val, a_val).data)
        if not np.isfinite(val_loss):
            raise TrainingError(f"stage 2 validation loss non-finite (epoch {epoch})")
        record.stage2_val_losses.append(val_loss)
        record.stage2_seconds.append(time.perf_counter() - tick)
        if val_loss < best_val:
            best_val = val_loss
            best_snap = _snapshot(params)
            bad = 0
        else:
            bad += 1
            if bad >= config.patience:
                break
    record.selected_epoch = int(np.argmin(record.stage2_val_losses))
    _restore(params, best_snap)


def train(model: ForecastModel, data: TrainingData, config: TrainConfig,
          record: RunRecord) -> None:
    """Stage 2 on the training-role samples, validated and early-stopped on
    the val role (`data` needs both)."""
    stage2_train(model, data.samples["train"], data.samples["val"], config, record,
                 domain_index=data.domain_index)


# ---------------------------------------------------------------------------
# Evaluation over a fitted model
# ---------------------------------------------------------------------------

def predict_windows(model: ForecastModel, windows: list[WindowSample],
                    config: TrainConfig, rng: np.random.Generator | None,
                    chunk: int = 64) -> list[ForecastDistribution]:
    """Per-window forecast distributions in original units."""
    prepared = prepare_samples(windows)
    feat_dim = prepared[0].a.shape[1] if prepared else 0
    dists: list[ForecastDistribution] = []
    for start in range(0, len(prepared), chunk):
        part = prepared[start:start + chunk]
        x, a, _ = _stack(part, feat_dim)
        out = model.predict(x, a, config.sample_paths, rng)
        for i, w in enumerate(part):
            stats = (w.norm_mean, w.norm_std)
            if "samples" in out:
                dists.append(to_distribution(samples=out["samples"][i], scale=w.scale,
                                             norm_stats=stats))
            else:
                dists.append(to_distribution(mu=out["mu"][i], sigma=out["sigma"][i],
                                             scale=w.scale, norm_stats=stats))
    return dists


EVAL_SPLITS = ("train", "test")


def eval_windows(datasets: Sequence[DomainDataset], split: DomainSplit,
                 config: TrainConfig, which: str) -> list[WindowSample]:
    """Evaluation-stride windows of the held-out periods of training domains
    ("train") or of the test domains ("test")."""
    if which not in EVAL_SPLITS:
        raise ValueError(f"which must be 'train' or 'test', got {which!r}")
    role = "val" if which == "train" else "test"
    return windows_for_role(datasets, split, role, config.lookback, config.horizon,
                            config.eval_stride)


def evaluate_split(model: ForecastModel, datasets: Sequence[DomainDataset],
                   split: DomainSplit, config: TrainConfig, which: str
                   ) -> tuple[MetricReport, list[WindowSample], list[ForecastDistribution]]:
    """Metrics on the windows of `eval_windows`. Each split samples from a
    stream of its own, so every command that forecasts a split agrees."""
    windows = eval_windows(datasets, split, config, which)
    if not windows:
        raise TrainingError(f"no evaluation windows for the {which} domain set")
    rng = np.random.default_rng([config.seed, 4, EVAL_SPLITS.index(which)])
    dists = predict_windows(model, windows, config, rng)
    domains = split.train_domains if which == "train" else split.test_domains
    report = aggregate(windows, dists, domains, which, config.seed, config.config_hash())
    return report, windows, dists


def evaluate_model(model: ForecastModel, datasets: Sequence[DomainDataset],
                   split: DomainSplit, config: TrainConfig
                   ) -> tuple[MetricReport, MetricReport, list[WindowSample],
                              list[ForecastDistribution]]:
    """Both splits' reports, then the test split's windows and forecasts."""
    report_train, _, _ = evaluate_split(model, datasets, split, config, "train")
    report_test, windows, dists = evaluate_split(model, datasets, split, config, "test")
    return report_train, report_test, windows, dists


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
    report_train: MetricReport
    report_test: MetricReport
    forecasts_test: list[tuple[WindowSample, ForecastDistribution]]


def run_pipeline(datasets: Sequence[DomainDataset], config: TrainConfig) -> PipelineResult:
    config.validate()
    data = training_data(datasets, config, ("train", "val"))
    pair, model = build(config, len(data.split.train_domains), datasets[0].feat_dim)
    record = RunRecord(seed=config.seed)
    if config.two_stage:
        pretrain(pair, data, config, record)
    train(model, data, config, record)
    report_train, report_test, windows, dists = evaluate_model(model, datasets, data.split,
                                                               config)
    return PipelineResult(config=config, split=data.split, domain_map=data.domain_map,
                          domain_index=data.domain_index, pair=pair, model=model,
                          record=record, report_train=report_train,
                          report_test=report_test, forecasts_test=list(zip(windows, dists)))


# ---------------------------------------------------------------------------
# Checkpoint plumbing
# ---------------------------------------------------------------------------

def save_stage1(path, pair: CvaePair, domain_map: list[list], config: TrainConfig) -> None:
    from .checkpoint import save_checkpoint
    save_checkpoint(path, "stage1", config.to_dict(), domain_map, pair.params())


def load_stage1(path, pair: CvaePair) -> tuple[TrainConfig, list[list]]:
    """Restore pretrained VAE parameters into a freshly built pair."""
    from .checkpoint import load_checkpoint, restore_params
    blob = load_checkpoint(path)
    if blob["kind"] != "stage1":
        from .checkpoint import CheckpointError
        raise CheckpointError(f"expected a stage1 checkpoint, got {blob['kind']!r}")
    restore_params(blob, pair.params())
    return TrainConfig(**blob["config"]), blob["domain_map"]


def save_full(path, model: ForecastModel, domain_map: list[list],
              config: TrainConfig, feat_dim: int) -> None:
    from .checkpoint import save_checkpoint
    save_checkpoint(path, "full", config.to_dict(), domain_map, model.checkpoint_params(),
                    extra={"feat_dim": feat_dim})


def load_full(path) -> tuple[TrainConfig, ForecastModel, list[list], dict[int, int]]:
    """Rebuild the trained model (config echo + parameters) from disk."""
    from .checkpoint import CheckpointError, load_checkpoint, restore_params
    blob = load_checkpoint(path)
    if blob["kind"] != "full":
        raise CheckpointError(f"expected a full checkpoint, got {blob['kind']!r}")
    config = TrainConfig(**blob["config"])
    _, model = build(config, len(blob["domain_map"]), blob["extra"]["feat_dim"])
    restore_params(blob, model.checkpoint_params())
    domain_index = {int(dom): int(i) for dom, _, i in blob["domain_map"]}
    return config, model, blob["domain_map"], domain_index


# ---------------------------------------------------------------------------
# Model selection and multi-seed evaluation
# ---------------------------------------------------------------------------

def select_model(runs: Sequence[dict]) -> int:
    """Index of the best run: minimal validation loss, ties to smaller beta,
    then smaller hidden size."""
    if not runs:
        raise ValueError("select_model: no completed runs")
    keys = [(r["val_loss"], r["beta"], r["hidden"]) for r in runs]
    return int(min(range(len(runs)), key=lambda i: keys[i]))


@dataclass
class MultiSeedResult:
    rows: list[dict]              # split, metric, mean, std, n_seeds
    per_seed: dict[int, dict]     # seed -> {"train": avg dict, "test": avg dict}
    failures: dict[int, str]
    ok: bool


def multi_seed_evaluate(datasets: Sequence[DomainDataset], config: TrainConfig,
                        seeds: Sequence[int]) -> MultiSeedResult:
    """Rerun the full pipeline per seed (fresh domain shuffle each time) and
    aggregate mean/std per metric on both domain sets."""
    if not seeds:
        raise ValueError("multi_seed_evaluate: need at least one seed")
    per_seed: dict[int, dict] = {}
    failures: dict[int, str] = {}
    for seed in seeds:
        cfg = replace(config, seed=seed)
        try:
            result = run_pipeline(datasets, cfg)
            per_seed[seed] = {"train": result.report_train.average,
                              "test": result.report_test.average}
        except (TrainingError, ValueError) as exc:
            failures[seed] = str(exc)
    rows = []
    for split_name in ("train", "test"):
        for metric in METRIC_NAMES:
            vals = [per_seed[s][split_name][metric] for s in per_seed]
            if vals:
                rows.append({
                    "split": split_name, "metric": metric,
                    "mean": float(np.mean(vals)), "std": float(np.std(vals)),
                    "n_seeds": len(vals),
                })
    return MultiSeedResult(rows=rows, per_seed=per_seed, failures=failures,
                           ok=not failures)
