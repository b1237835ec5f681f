"""The benchmark's workloads and the synthetic inputs they run on.

Inputs come from the workload seed alone, through this file's own generator,
so a change to latentcast's generator cannot change what is measured. The
program receives only the generated inputs: in-memory `DomainDataset`s or a
CSV file. Every workload is a closed loop with one caller: one iteration is a
whole pipeline at fixed epoch counts, with patience above the epoch count so
early stopping never changes the amount of work.

Training strides are coarser than the ROADMAP baseline configs (stride 1,
3 + 3 epochs) so that several iterations fit into one run; the per-window
work and the layers exercised are the same.
"""

from __future__ import annotations

import csv
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from latentcast import cli, training
from latentcast.data import DomainDataset
from latentcast.training import TrainConfig

# Spans every workload reaches: two-stage training and closed-form or sampled
# evaluation of the train and test domain sets.
COMMON_SPANS = (
    "training.stage1_pretrain", "training.stage2_train", "training.evaluate_split",
    "training.step", "tensor.backward", "optim.Adam.step", "cvae.latent_loss",
    "cvae.make_stage1_batch", "cvae.domain_regularizer", "kernels.pair_dist",
    "decomposition.decompose_batch", "kernels.moving_average",
    "forecaster.train_params", "forecaster.predict", "forecaster.to_distribution",
    "evaluation.aggregate", "data.windows_for_role", "data.prepare_samples",
)
LINEAR_DECODER_SPANS = ("decomposition.trend_component", "kernels.moving_average_adjoint")


@dataclass(frozen=True)
class Workload:
    """Why each workload was chosen is stated in BENCHMARK.json."""
    name: str
    domains: int
    series: int
    length: int
    config: dict
    expected_spans: tuple[str, ...]
    via_cli: bool = False


WORKLOADS = {w.name: w for w in (
    Workload(
        name="bigru-train",
        domains=6, series=4, length=200,
        config=dict(decoder="linear", encoder="bigru", epochs_stage1=1, epochs_stage2=1,
                    patience=10, stride=16, eval_stride=4),
        expected_spans=COMMON_SPANS + LINEAR_DECODER_SPANS + ("nets.GRUCell",),
    ),
    Workload(
        name="recurrent-sample",
        domains=6, series=4, length=200,
        config=dict(decoder="recurrent", encoder="mlp", epochs_stage1=1, epochs_stage2=1,
                    patience=10, stride=8, eval_stride=16, sample_paths=100),
        expected_spans=COMMON_SPANS + ("nets.GRUCell", "forecaster.sample_paths"),
    ),
    Workload(
        name="wide-cli",
        domains=20, series=8, length=600,
        # A quarter of the default learning rate over more epochs: the stages
        # last long enough to time, and the model trains no further than one
        # default epoch would, where the quality ratio depends least on the seed.
        config=dict(decoder="linear", encoder="mlp", batch_size=256, epochs_stage1=2,
                    epochs_stage2=4, learning_rate=2.5e-4, patience=10, stride=8,
                    eval_stride=32, test_fraction=0.4),
        via_cli=True,
        expected_spans=COMMON_SPANS + LINEAR_DECODER_SPANS + (
            "data.ingest_csv", "forecaster.write_forecast_csv", "checkpoint.save",
            "checkpoint.load", "latent.dump_latents", "latent.separation_score",
            "cli.pretrain", "cli.train", "cli.forecast", "cli.dump-latents"),
    ),
)}


def synthetic_series(seed: int, domains: int, series: int, length: int):
    """Per domain, `series` noisy copies of trend + shared sinusoid + domain
    sinusoid around level 10; yields (domain index, list of value arrays)."""
    t = np.arange(length, dtype=np.float64)
    for j in range(domains):
        rng = np.random.default_rng([seed, j])
        slope = rng.uniform(-0.01, 0.01)
        period = rng.uniform(5.0, 15.0)
        amp = rng.uniform(0.5, 2.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        clean = (10.0 + slope * t + 3.0 * np.sin(2.0 * np.pi * t / 20.0)
                 + amp * np.sin(2.0 * np.pi * t / period + phase))
        yield j, [clean + rng.normal(0.0, 0.1, length) for _ in range(series)]


@dataclass
class Outcome:
    """What one iteration left behind for the checks."""
    exit_codes: dict[str, int] = field(default_factory=dict)
    calls: dict[str, tuple[float, float]] = field(default_factory=dict)  # (start, end)
    result: object = None                 # PipelineResult of in-memory workloads
    forecast_csvs: tuple[Path, ...] = ()  # forecasts written by `train` and `forecast`
    val_nll: float | None = None


class PipelineRun:
    """`training.run_pipeline` on in-memory datasets."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.config = TrainConfig(**workload.config)
        self.datasets = [
            DomainDataset(domain_id=j, domain_name=f"dom{j}",
                          series_names=[f"s{s}" for s in range(len(values))],
                          timestamps=[np.arange(workload.length, dtype=np.int64)
                                      for _ in values],
                          values=values)
            for j, values in synthetic_series(seed, workload.domains, workload.series,
                                              workload.length)
        ]

    def iterate(self, index: int, tracer=None, between=None) -> Outcome:
        start = perf_counter()
        result = training.run_pipeline(self.datasets, self.config)
        return Outcome(result=result, val_nll=min(result.record.stage2_val_losses),
                       calls={"run_pipeline": (start, perf_counter())})

    def setup_only(self) -> None:
        training.run_pipeline(self.datasets, self.config)


class CliRun:
    """`latentcast.cli.main` for pretrain -> train -> forecast -> dump-latents
    on a CSV written once per run."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workdir = workdir
        self.horizon = TrainConfig(**workload.config).horizon
        self.data = workdir / "data.csv"
        with open(self.data, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["domain", "series", "timestamp", "value"])
            for j, values in synthetic_series(seed, workload.domains, workload.series,
                                              workload.length):
                for s, v in enumerate(values):
                    for ts, value in enumerate(v):
                        writer.writerow([f"dom{j:02d}", f"s{s}", ts, repr(float(value))])
        self.config_file = workdir / "config.json"
        self.config_file.write_text(json.dumps({"train": workload.config}), encoding="utf-8")

    def _argv(self, command: str, out: Path, *extra: str) -> list[str]:
        return [command, "--config", str(self.config_file), "--data", str(self.data),
                "--out", str(out), "--overwrite", *extra]

    def commands(self, it: Path) -> list[tuple[str, list[str]]]:
        model = str(it / "train" / "model.ckpt.json")
        return [
            ("pretrain", self._argv("pretrain", it / "pretrain")),
            ("train", self._argv("train", it / "train", "--pretrained",
                                 str(it / "pretrain" / "stage1.ckpt.json"))),
            ("forecast", self._argv("forecast", it / "forecast", "--checkpoint", model)),
            ("dump-latents", self._argv("dump-latents", it / "latents", "--checkpoint", model)),
        ]

    def iterate(self, index: int, tracer=None, between=None) -> Outcome:
        """The four commands in turn; `between` runs before each command
        after the first, outside the commands' timed calls."""
        for old in self.workdir.glob("iter*"):
            shutil.rmtree(old)
        it = self.workdir / f"iter{index}"
        out = Outcome(forecast_csvs=(it / "train" / "forecasts_test.csv",
                                     it / "forecast" / "forecasts_test.csv"))
        for i, (command, argv) in enumerate(self.commands(it)):
            if i and between is not None:
                between()
            main = cli.main if tracer is None else tracer.span(f"cli.{command}")(cli.main)
            start = perf_counter()
            out.exit_codes[command] = main(argv)
            out.calls[command] = (start, perf_counter())
        record = it / "train" / "runrecord.json"
        if record.exists():
            out.val_nll = min(json.loads(record.read_text())["stage2_val_losses"])
        return out

    def setup_only(self) -> None:
        it = self.workdir / "setup"
        cli.main(self.commands(it)[0][1])


def runner_for(workload: Workload, seed: int, workdir: Path):
    return (CliRun if workload.via_cli else PipelineRun)(workload, seed, workdir)
