"""Digests of the outputs the benchmark's workload configs produce, for
checking that a change leaves every output byte-identical.

    python tools/output_digests.py --seeds 101 102 103 [--src DIR]

For each workload in `pipebench/workloads.py` and each seed (the workload's
data seed, as in `pipebench/run.py --seed`) it prints one line per artifact,
`<workload> <seed> <artifact> <sha256 prefix>`:

- from `training.run_pipeline` on the workload's in-memory data: both
  reports, the test quantiles, each checkpointed parameter and the loss lists
- from `data.windows_for_role` on the workload's in-memory data and its
  config's domain split, every `WindowSet` array of each role at the
  config's `stride` (train, val), its `eval_stride` (val, test) and stride 1
  (all three): a windowing change shows up here before it shows downstream
- for the CLI workload and for every workload with a recurrent decoder, every
  file that the CLI run of its config writes (pretrain, train, forecast and
  dump-latents on the workload's data as a CSV), except the manifests and
  the seconds of the run records; so the sampled forecasts that `train` and
  `forecast` write from a recurrent checkpoint are covered too
- for every workload, the exit code and `ablation.json` of the CLI's
  `ablate` on the workload's data and config, over all seven variants
  (`ABLATION_VARIANTS`) at the training seeds `ABLATION_SEEDS`: the table the
  paper's ablation claims rest on, from `training.multi_seed_evaluate`
- for every workload, the exit code and `decomposition.csv` of the CLI's
  `decompose` on the workload's data and config (its first series)
- for each seed, under the name `synth`, the `data.csv` that the CLI's
  `synth` writes from the default synthetic spec at that seed
- for every workload, the `DomainDataset`s that `data.ingest_csv` reads from
  the workload's data as a CSV (numpy's number grammar, from the open file),
  and for each seed, under the name `ingest`, those of `PYTHON_GRAMMAR_CSV`,
  a fixed file only Python's grammar reads (ISO dates, `1_000.5`), and under
  the name `ingest_lines`, those of `LINE_PATH_CSV`, a fixed file that
  takes ingest's line path to csv.reader's records (a byte-order mark, CRLF
  ends, a quoted name with a comma and a line break, a whitespace-only line
  and a `""` line); so both of ingest's tiers and its line path are covered
- for each seed, under the name `featured`, every file that the CLI's
  pretrain, train and forecast write from the `FEATURED_WORKLOAD` config on
  its workload's CSV with one `feat_0` column (the timestamp mod 7): a
  recurrent decoder trained and sampled with an input feature, so the GRU's
  grads of a more than one-wide input are covered

`--src` names the latentcast source tree to import (default: this repo's
`src`). `--against DIR` digests that tree and DIR (a source tree, or a
checkout holding `src/latentcast`), each in its own subprocess, prints only
the artifacts whose digests differ or that one side lacks, and exits 1 on
any difference:

    python tools/output_digests.py --seeds 101 102 103 --against /path/to/parent
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ABLATION_VARIANTS = "full,e2e,no_reg,no_decomp,shared_only,no_cond,no_latent"
ABLATION_SEEDS = "0,1"
FEATURED_WORKLOAD = "recurrent-sample"
PYTHON_GRAMMAR_CSV = (
    "domain,series,timestamp,value,feat_0\n"
    " north , s1 ,2024-01-03,1_000.5,1\n"
    '"south, east",s1, 2024-01-01 ,-2.5e1,0\n'
    '"south, east","s ""2""",2024-01-02,3,4\n'
    "north,s1,2024-01-01,7,8\n"
    '"north",s2,738886,1_0,\u0663\n'
)
LINE_PATH_CSV = (
    "\ufeffdomain,series,timestamp,value\r\n"
    '"east, ""old""\r\nport",s1,3,1.5\r\n'
    "  \t\r\n"
    '""\r\n'
    "west,s1,1,2.5\r\n"
    '"east, ""old""\r\nport",s1,1,-0.25\r\n'
    "west, s2 ,2,4e1\r\n"
)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def pipeline_artifacts(result) -> dict[str, bytes]:
    record = result.record
    losses = {"stage1": record.stage1_losses, "stage2_train": record.stage2_train_losses,
              "stage2_val": record.stage2_val_losses, "selected_epoch": record.selected_epoch}
    quantiles = result.test_forecasts.quantiles
    out = {"report_train": result.report_train.to_json().encode(),
           "report_test": result.report_test.to_json().encode(),
           "test_quantiles": repr(quantiles.shape).encode() + quantiles.tobytes(),
           "losses": json.dumps(losses).encode()}
    for p in result.model.checkpoint_params():
        out[f"param:{p.name}"] = repr(p.data.shape).encode() + p.data.tobytes()
    return out


def window_artifacts(run) -> dict[str, bytes]:
    """The windows of each split role of a `PipelineRun`'s data and config,
    at the strides the run windows them at and at stride 1: each `WindowSet`
    array's dtype, shape and bytes."""
    from latentcast.data import split_domains, windows_for_role

    config = run.config
    split = split_domains(run.datasets, config.test_fraction, config.seed, config.val_fraction)
    out = {}
    for role, stride in (("train", config.stride), ("val", config.stride),
                         ("val", config.eval_stride), ("test", config.eval_stride),
                         ("train", 1), ("val", 1), ("test", 1)):
        windows = windows_for_role(run.datasets, split, role, config.lookback, config.horizon,
                                   stride)
        out[f"windows:{role}:stride{stride}"] = b"".join(
            repr((f.name, array.dtype.str, array.shape)).encode() + array.tobytes()
            for f in fields(windows) for array in [getattr(windows, f.name)])
    return out


def cli_artifacts(root: Path, exit_codes: dict[str, int]) -> dict[str, bytes]:
    out = {"exit_codes": json.dumps(exit_codes, sort_keys=True).encode()}
    for path in sorted(root.rglob("*")):
        if not path.is_file() or path.name == "manifest.json":
            continue
        data = path.read_bytes()
        if path.name.startswith("runrecord"):
            record = {k: v for k, v in json.loads(data).items() if not k.endswith("_seconds")}
            data = json.dumps(record, sort_keys=True).encode()
        out[f"cli:{path.relative_to(root).as_posix()}"] = data
    return out


def ablation_artifacts(run, out: Path) -> dict[str, bytes]:
    """`latentcast ablate` on a `CliRun`'s data and config: its exit code and
    the `ablation.json` it writes."""
    from latentcast import cli

    code = cli.main(["ablate", "--config", str(run.config_file), "--data", str(run.data),
                     "--out", str(out), "--variants", ABLATION_VARIANTS,
                     "--seeds", ABLATION_SEEDS])
    return {"ablate:exit_code": str(code).encode(),
            "ablate:ablation.json": (out / "ablation.json").read_bytes()}


def decompose_artifacts(run, out: Path) -> dict[str, bytes]:
    """`latentcast decompose` on a `CliRun`'s data and config: its exit code
    and the `decomposition.csv` it writes."""
    from latentcast import cli

    code = cli.main(["decompose", "--config", str(run.config_file), "--data", str(run.data),
                     "--out", str(out)])
    return {"decompose:exit_code": str(code).encode(),
            "decompose:decomposition.csv": (out / "decomposition.csv").read_bytes()}


def synth_artifacts(seed: int, out: Path) -> dict[str, bytes]:
    """`latentcast synth` of the default spec at `seed`: its exit code and
    the `data.csv` it writes."""
    from latentcast import cli

    code = cli.main(["synth", "--set", f"synthetic.seed={seed}", "--out", str(out)])
    return {"synth:exit_code": str(code).encode(),
            "synth:data.csv": (out / "data.csv").read_bytes()}


def ingest_artifacts(path: Path) -> dict[str, bytes]:
    """What `data.ingest_csv` reads from the CSV at `path`: each
    `DomainDataset`'s names, and its arrays' dtypes, shapes and bytes."""
    from latentcast.data import ingest_csv

    out = []
    for ds in ingest_csv(path):
        out.append(repr((ds.domain_id, ds.domain_name, ds.series_names)).encode())
        for array in ds.timestamps + ds.values + (ds.features or []):
            out.append(repr((array.dtype.str, array.shape)).encode() + array.tobytes())
    return {"ingest:datasets": b"".join(out)}


def featured_artifacts(workload, seed: int, tmp: Path) -> dict[str, bytes]:
    """The CLI's pretrain, train and forecast on `workload`'s CSV at `seed`
    with a `feat_0` column added: every file they write, as `cli_artifacts`."""
    from latentcast import cli
    from pipebench.workloads import CliRun

    run = CliRun(workload, seed, tmp)
    header, *rows = run.data.read_text(encoding="utf-8").splitlines()
    run.data = tmp / "featured.csv"
    run.data.write_text("".join([f"{header},feat_0\n"] + [
        f"{row},{int(row.split(',')[2]) % 7}\n" for row in rows]), encoding="utf-8")
    exit_codes = {command: cli.main(argv) for command, argv in run.commands(tmp / "iter0")
                  if command != "dump-latents"}
    return cli_artifacts(tmp / "iter0", exit_codes)


def source_tree(path: str) -> Path:
    """The directory holding the `latentcast` package: `path` itself or its `src`."""
    root = Path(path).resolve()
    for tree in (root, root / "src"):
        if (tree / "latentcast" / "__init__.py").is_file():
            return tree
    raise SystemExit(f"no latentcast package in {root} or {root / 'src'}")


def compare(src: Path, against: Path, seeds: list[int]) -> int:
    """Digest both trees, each in a subprocess of its own running this
    script, and print the artifacts that differ; 1 if any does."""
    procs = [subprocess.Popen([sys.executable, __file__, "--src", str(tree),
                               "--seeds", *map(str, seeds)], stdout=subprocess.PIPE, text=True)
             for tree in (src, against)]
    outs = [proc.communicate()[0] for proc in procs]
    if any(proc.returncode for proc in procs):
        raise SystemExit(f"digesting failed: exit codes {[proc.returncode for proc in procs]}")
    ours, theirs = (dict(line.rsplit(" ", 1) for line in out.splitlines()) for out in outs)
    keys = list(ours) + [k for k in theirs if k not in ours]
    differ = [k for k in keys if ours.get(k) != theirs.get(k)]
    for key in differ:
        print(key, ours.get(key, "-"), theirs.get(key, "-"))
    print(f"{len(differ)} of {len(keys)} artifacts differ between {src} and {against}",
          file=sys.stderr)
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--src", default=str(REPO / "src"),
                        help="latentcast source tree to import")
    parser.add_argument("--against", metavar="DIR",
                        help="a second source tree; print only the artifacts that differ")
    args = parser.parse_args(argv)
    if args.against is not None:
        return compare(source_tree(args.src), source_tree(args.against), args.seeds)
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(source_tree(args.src)), str(REPO)]
    from pipebench.workloads import WORKLOADS, CliRun, PipelineRun

    for seed in args.seeds:
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            artifacts = synth_artifacts(seed, Path(tmp) / "synth")
            csv_file = Path(tmp) / "python_grammar.csv"
            csv_file.write_text(PYTHON_GRAMMAR_CSV, encoding="utf-8")
            grammar = ingest_artifacts(csv_file)
            csv_file = Path(tmp) / "line_path.csv"
            csv_file.write_bytes(LINE_PATH_CSV.encode("utf-8"))
            line_path = ingest_artifacts(csv_file)
            (Path(tmp) / "featured").mkdir()
            featured = featured_artifacts(WORKLOADS[FEATURED_WORKLOAD], seed,
                                          Path(tmp) / "featured")
        for name, found in (("synth", artifacts), ("ingest", grammar),
                            ("ingest_lines", line_path), ("featured", featured)):
            for artifact, data in found.items():
                print(f"{name} {seed} {artifact} {digest(data)}", flush=True)
    for name, workload in WORKLOADS.items():
        for seed in args.seeds:
            # the commands' own stdout would mix with the digest lines
            with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
                tmp = Path(tmp)
                pipeline_run = PipelineRun(workload, seed, tmp)
                artifacts = pipeline_artifacts(pipeline_run.iterate(0).result)
                artifacts.update(window_artifacts(pipeline_run))
                cli_run = CliRun(workload, seed, tmp)
                artifacts.update(ingest_artifacts(cli_run.data))
                if workload.via_cli or workload.config.get("decoder") == "recurrent":
                    outcome = cli_run.iterate(0)
                    artifacts.update(cli_artifacts(tmp / "iter0", outcome.exit_codes))
                artifacts.update(ablation_artifacts(cli_run, tmp / "ablate"))
                artifacts.update(decompose_artifacts(cli_run, tmp / "decompose"))
            for artifact, data in artifacts.items():
                print(f"{name} {seed} {artifact} {digest(data)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
