"""Command-line entry point.

Subcommands: synth, decompose, pretrain, train, evaluate, forecast,
dump-latents, ablate. Configuration lives in a JSON file with "train" and
"synthetic" sections; --set section.key=value overrides file values. Every
run writes one manifest.json into its output directory; reusing a directory
requires --overwrite. Exit codes: 0 ok, 1 usage, 2 data, 3 training.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import CheckpointError, atomic_write, csv_lines, repr_rows
from .data import DataError, SyntheticSpec, generate_synthetic, ingest_csv, write_csv
from .decomposition import DecompositionError, decompose_batch
from .evaluation import METRIC_NAMES, MetricError
from .forecaster import write_forecast_csv
from .latent import dump_latents, separation_score, write_dump
from .training import (EVAL_SPLITS, TrainConfig, TrainingError, VARIANTS, RunRecord, build,
                       eval_windows, evaluate_split, multi_seed_evaluate, pipeline_split,
                       read_checkpoint, restore_full, run_pipeline, save_full, save_stage1,
                       stage1_pretrain, training_data)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRAINING = 3

OUT_ROOT_ENV = "LATENTCAST_OUT_ROOT"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors raise, and no flag is read as an abbreviation of another."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def input_file(path: str, what: str) -> Path:
    """A path the command reads, which must name a file."""
    p = Path(path)
    if not p.exists():
        raise UsageError(f"{what} not found: {p}")
    if not p.is_file():
        raise UsageError(f"{what} {p} is not a file")
    return p


def load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    p = input_file(path, "config file")
    try:
        with open(p, encoding="utf-8-sig") as fh:
            cfg = json.load(fh)
    except UnicodeDecodeError as exc:
        raise DataError(f"config file {p} is not UTF-8 text: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"config file {p} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise DataError(f"config file {p} must hold a JSON object")
    for name, section in cfg.items():
        if not isinstance(section, dict):
            raise DataError(f"config file {p}: section {name!r} must be a JSON object")
    return cfg


def apply_overrides(cfg: dict, sets: list[str]) -> dict:
    for item in sets:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise UsageError(f"--set expects section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        section, key = dotted.split(".", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        cfg.setdefault(section, {})[key] = value
    return cfg


def train_config_from(cfg: dict, args) -> TrainConfig:
    section = dict(cfg.get("train", {}))
    if getattr(args, "seed", None) is not None:
        section["seed"] = args.seed
    if getattr(args, "variant", None) is not None:
        section["variant"] = args.variant
    try:
        config = TrainConfig(**section)
        config.validate()
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad train config: {exc}") from None
    return config


def synthetic_spec_from(cfg: dict) -> SyntheticSpec:
    # JSON has no tuples: a list is read as one, and the spec checks its type
    section = {key: tuple(value) if isinstance(value, list) else value
               for key, value in cfg.get("synthetic", {}).items()}
    try:
        spec = SyntheticSpec(**section)
    except TypeError as exc:
        raise UsageError(f"bad synthetic config: {exc}") from None
    spec.validate()
    return spec


# ---------------------------------------------------------------------------
# Output directory and manifest
# ---------------------------------------------------------------------------

def resolve_out(out: str, overwrite: bool) -> Path:
    """The output directory, which the command's first write makes: a
    command that fails before it leaves no directory."""
    root = os.environ.get(OUT_ROOT_ENV, ".")
    path = Path(out) if os.path.isabs(out) else Path(root) / out
    manifest = path / "manifest.json"
    if manifest.exists() and not overwrite:
        raise UsageError(f"output dir {path} already holds a run; pass --overwrite to reuse it")
    # the nearest path on the way that exists must be a directory
    nearest = next(p for p in (path, *path.parents) if os.path.lexists(p))
    if not nearest.is_dir():
        raise UsageError(f"cannot make output dir {path}: {nearest} is not a directory")
    return path


def write_manifest(out: Path, args: argparse.Namespace, config_snapshot: dict,
                   artifacts: dict[str, str]) -> None:
    """The run's manifest: the command and the arguments `main` parsed, the
    config, the artifacts and when they were made."""
    manifest = {
        "tool": f"latentcast {__version__}",
        "command": args.command,
        "argv": args.argv,
        "config": config_snapshot,
        "artifacts": artifacts,
        "created": _dt.datetime.now().isoformat(timespec="seconds"),
        "out_dir": str(out),
    }
    with atomic_write(out / "manifest.json") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _write_text(path: Path, text: str) -> None:
    with atomic_write(path) as fh:
        fh.write(text)


def _load_datasets(args, config: TrainConfig):
    return ingest_csv(input_file(args.data, "data file"), value_scale=config.value_scale,
                      fill_missing=config.fill_missing)


def _write_reports(out: Path, result_reports: dict) -> dict[str, str]:
    artifacts = {}
    for name, report in result_reports.items():
        jpath = out / f"report_{name}.json"
        tpath = out / f"report_{name}.txt"
        cpath = out / f"report_{name}.csv"
        _write_text(jpath, report.to_json() + "\n")
        _write_text(tpath, report.to_table() + "\n")
        _write_text(cpath, csv_lines([("domain", "metric", "value"), *report.to_csv_rows()],
                                     end="\n"))
        artifacts[f"report_{name}"] = str(jpath)
    return artifacts


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    cfg = apply_overrides(load_config_file(args.config), args.set)
    spec = synthetic_spec_from(cfg)
    datasets = generate_synthetic(spec)
    out = resolve_out(args.out, args.overwrite)
    csv_path = out / "data.csv"
    write_csv(datasets, csv_path)
    write_manifest(out, args, {"synthetic": spec.__dict__}, {"data": str(csv_path)})
    print(f"wrote {csv_path} ({len(datasets)} domains)")
    return EXIT_OK


def cmd_decompose(args) -> int:
    cfg = apply_overrides(load_config_file(args.config), args.set)
    config = train_config_from(cfg, args)
    # a kernel longer than the series is a data error, found once it is read
    if args.kernel is not None and (args.kernel < 1 or args.kernel % 2 == 0):
        raise UsageError(f"--kernel must be odd and at least 1, got {args.kernel}")
    datasets = _load_datasets(args, config)
    if not datasets:
        raise DataError(f"data file {args.data} holds no series")
    by_name = {ds.domain_name: ds for ds in datasets}
    ds = by_name.get(args.domain) if args.domain is not None else datasets[0]
    if ds is None:
        raise DataError(f"domain {args.domain!r} not in {sorted(by_name)}")
    if args.series is not None:
        if args.series not in ds.series_names:
            raise DataError(f"series {args.series!r} not in domain {ds.domain_name}")
        s = ds.series_names.index(args.series)
    else:
        s = 0
    kernel = args.kernel if args.kernel is not None else config.kernel
    parts = decompose_batch(ds.values[s], kernel)
    out = resolve_out(args.out, args.overwrite)
    path = out / "decomposition.csv"
    with atomic_write(path) as fh:
        fh.write("value,trend,seasonal\n")
        fh.write(csv_lines(repr_rows(np.column_stack([ds.values[s], parts.x_t, parts.x_s])),
                           end="\n"))
    write_manifest(out, args,
                   {"kernel": kernel, "domain": ds.domain_name,
                    "series": ds.series_names[s]},
                   {"decomposition": str(path)})
    print(f"wrote {path}")
    return EXIT_OK


def cmd_pretrain(args) -> int:
    cfg = apply_overrides(load_config_file(args.config), args.set)
    config = train_config_from(cfg, args)
    if not config.two_stage:
        raise UsageError(f"variant {config.variant!r} has no separate pretraining stage")
    datasets = _load_datasets(args, config)
    out = resolve_out(args.out, args.overwrite)
    data = training_data(datasets, config, ("train",))
    pair = build(config, len(data.split.train_domains), datasets[0].feat_dim).pair
    record = RunRecord(seed=config.seed)
    stage1_pretrain(pair, data.samples["train"], data.domain_index, config, record)
    ckpt = out / "stage1.ckpt.json"
    save_stage1(ckpt, pair, data.domain_map, config)
    _write_text(out / "runrecord_stage1.json",
                json.dumps(record.to_dict(), indent=2, sort_keys=True) + "\n")
    write_manifest(out, args, config.to_dict(),
                   {"checkpoint": str(ckpt), "runrecord": str(out / 'runrecord_stage1.json')})
    print(f"stage-1 loss {record.stage1_losses[0]:.6f} -> {record.stage1_losses[-1]:.6f} "
          f"over {len(record.stage1_losses)} epochs; wrote {ckpt}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = apply_overrides(load_config_file(args.config), args.set)
    config = train_config_from(cfg, args)
    if config.two_stage:
        if not args.pretrained:
            raise UsageError("train requires --pretrained CHECKPOINT unless --variant e2e/no_latent")
        input_file(args.pretrained, "pretrain checkpoint")
    elif args.pretrained:
        raise UsageError(f"variant {config.variant!r} has no separate pretraining stage")
    datasets = _load_datasets(args, config)
    out = resolve_out(args.out, args.overwrite)
    result = run_pipeline(datasets, config, pretrained=args.pretrained)
    record, report_test = result.record, result.report_test

    ckpt = out / "model.ckpt.json"
    save_full(ckpt, result.model, result.domain_map, config, datasets[0].feat_dim)
    _write_text(out / "runrecord.json",
                json.dumps(record.to_dict(), indent=2, sort_keys=True) + "\n")
    artifacts = {"checkpoint": str(ckpt), "runrecord": str(out / 'runrecord.json')}
    artifacts.update(_write_reports(out, {"train": result.report_train, "test": report_test}))
    fc_path = out / "forecasts_test.csv"
    write_forecast_csv(fc_path, result.test_windows, result.test_forecasts)
    artifacts["forecasts_test"] = str(fc_path)
    write_manifest(out, args, config.to_dict(), artifacts)
    print(f"selected epoch {record.selected_epoch} "
          f"(val loss {min(record.stage2_val_losses):.6f})")
    print("test averages: " + "  ".join(
        f"{m}={report_test.average[m]:.6f}" for m in METRIC_NAMES))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config, model, datasets, out, split = _fitted(args)
    reports = {w: evaluate_split(model, datasets, split, config, w)[0] for w in EVAL_SPLITS}
    artifacts = _write_reports(out, reports)
    write_manifest(out, args, config.to_dict(), artifacts)
    for name, report in reports.items():
        print(f"[{name}] " + "  ".join(
            f"{m}={report.average[m]:.6f}" for m in METRIC_NAMES))
    return EXIT_OK


def cmd_forecast(args) -> int:
    config, model, datasets, out, split = _fitted(args)
    _, wins, dists = evaluate_split(model, datasets, split, config, args.split)
    path = out / f"forecasts_{args.split}.csv"
    write_forecast_csv(path, wins, dists)
    write_manifest(out, args, config.to_dict(), {"forecasts": str(path)})
    print(f"wrote {path} ({len(wins)} windows)")
    return EXIT_OK


def cmd_dump_latents(args) -> int:
    config, model, datasets, out, split = _fitted(args)
    dump = dump_latents(model.pair, eval_windows(datasets, split, config, args.split))
    path = out / f"latents_{args.split}.csv"
    write_dump(dump, path)
    artifacts = {"latents": str(path)}
    lines = [f"rows={len(dump)}"]
    try:
        shared_ratio, specific_ratio, notes = separation_score(dump)
        lines.append(f"shared_ratio={shared_ratio:.6f} specific_ratio={specific_ratio:.6f}")
        lines.extend(notes)
    except ValueError as exc:
        lines.append(f"separation score unavailable: {exc}")
    score_path = out / "separation.txt"
    _write_text(score_path, "\n".join(lines) + "\n")
    artifacts["separation"] = str(score_path)
    write_manifest(out, args, config.to_dict(), artifacts)
    print("\n".join(lines))
    return EXIT_OK


def cmd_ablate(args) -> int:
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    seeds = [s.strip() for s in args.seeds.split(",") if s.strip()]
    if not variants or not seeds:
        raise UsageError("--variants and --seeds each need at least one item")
    if not all(s.isdecimal() for s in seeds):
        raise UsageError(f"--seeds must be non-negative integers, got {args.seeds!r}")
    seeds = [int(s) for s in seeds]
    if len(set(variants)) < len(variants) or len(set(seeds)) < len(seeds):
        raise UsageError("--variants and --seeds must not repeat an item")
    cfg = apply_overrides(load_config_file(args.config), args.set)
    config = train_config_from(cfg, args)
    for variant in variants:
        try:
            replace(config, variant=variant).validate()
        except ValueError as exc:
            raise UsageError(f"--variants {variant}: {exc}") from None
    datasets = _load_datasets(args, config)
    out = resolve_out(args.out, args.overwrite)

    table = {variant: multi_seed_evaluate(datasets, replace(config, variant=variant), seeds)
             for variant in variants}
    _write_text(out / "ablation.json", json.dumps(table, indent=2, sort_keys=True) + "\n")
    lines = [f"{'variant':>12} " + " ".join(f"{m + ' (mean±std)':>22}" for m in METRIC_NAMES)]
    for variant, row in table.items():
        cells = (" ".join(f"{row[f'{m}_mean']:>13.6f}±{row[f'{m}_std']:.4f}" for m in METRIC_NAMES)
                 if "n_seeds" in row else "FAILED: " + "; ".join(row["failed_seeds"].values()))
        lines.append(f"{variant:>12} {cells}")
    _write_text(out / "ablation.txt", "\n".join(lines) + "\n")
    write_manifest(out, args, config.to_dict(), {"ablation": str(out / "ablation.json")})
    print("\n".join(lines))
    return EXIT_TRAINING if any(row["failed_seeds"] for row in table.values()) else EXIT_OK


def _fitted(args):
    """A trained model's config and model, the data, the output directory and
    the domain split, for the commands that read a full checkpoint, whose
    domain split and feature width the data must have."""
    path = input_file(args.checkpoint, "checkpoint")
    blob, config = read_checkpoint(path, "full")
    datasets = _load_datasets(args, config)
    split, _, domain_map = pipeline_split(datasets, config)
    model = restore_full(path, blob, config, domain_map, datasets[0].feat_dim)
    return config, model, datasets, resolve_out(args.out, args.overwrite), split


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="latentcast",
                     description="Domain-generalizing probabilistic time series forecasting")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=True, run=False, checkpoint=False):
        # only pretrain and train read --seed and --variant; the commands that
        # read a full checkpoint take every setting from it, and accept but do
        # not read --config
        p.add_argument("--config", help="JSON config file")
        if checkpoint:
            p.add_argument("--checkpoint", required=True)
        else:
            p.add_argument("--set", action="append", default=[],
                           metavar="SECTION.KEY=VALUE", help="override a config value")
        if data:
            p.add_argument("--data", required=True, help="input CSV")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--overwrite", action="store_true")
        if run:
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--variant", default=None, choices=VARIANTS)

    p = sub.add_parser("synth", help="generate a synthetic multi-domain CSV")
    common(p, data=False)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("decompose", help="emit value/trend/seasonal columns for one series")
    common(p)
    p.add_argument("--domain", default=None)
    p.add_argument("--series", default=None)
    p.add_argument("--kernel", type=int, default=None)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("pretrain", help="stage 1: pretrain the conditional VAE pair")
    common(p, run=True)
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("train", help="stage 2: train the forecasting decoder")
    common(p, run=True)
    p.add_argument("--pretrained", default=None, help="stage-1 checkpoint")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="metric reports for train and test domain sets")
    common(p, checkpoint=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("forecast", help="write per-window quantile forecasts")
    common(p, checkpoint=True)
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.set_defaults(fn=cmd_forecast)

    p = sub.add_parser("dump-latents", help="export shared/specific latents plus separation score")
    common(p, checkpoint=True)
    p.add_argument("--split", choices=("train", "test"), default="test")
    p.set_defaults(fn=cmd_dump_latents)

    p = sub.add_parser("ablate", help="run variant ablations over multiple seeds")
    common(p)
    p.add_argument("--variants", default="full,e2e,no_reg,no_decomp,shared_only,no_cond")
    p.add_argument("--seeds", default="0")
    p.set_defaults(fn=cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        args.argv = argv
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, MetricError, CheckpointError, DecompositionError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingError as exc:
        print(f"training failure: {exc}", file=sys.stderr)
        return EXIT_TRAINING
