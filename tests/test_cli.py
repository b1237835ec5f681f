"""CLI surface: the full synth -> pretrain -> train -> evaluate -> forecast
-> dump-latents flow on a tiny config, plus exit codes and manifests."""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentcast import evaluation, training
from latentcast.__main__ import BLAS_THREAD_VARS
from latentcast.cli import main, write_manifest
from latentcast.data import SyntheticSpec, ingest_csv, make_windows
from latentcast.evaluation import MetricError
from latentcast.forecaster import Forecasts, write_forecast_csv
from latentcast.tensor import Tensor
from latentcast.training import TrainConfig, TrainingError, load_full, run_pipeline

TINY_CONFIG = {
    "synthetic": {
        "num_domains": 4, "series_per_domain": 2, "length": 60,
        "shared_period": 12.0, "shared_amplitude": 2.0, "noise_std": 0.05,
        "seed": 11,
    },
    "train": {
        "lookback": 12, "horizon": 4, "d_z": 4, "hidden": 8, "kernel": 5,
        "batch_size": 16, "dropout": 0.0, "learning_rate": 3e-3, "beta": 1.0,
        "alpha": 0.5, "epochs_stage1": 2, "epochs_stage2": 2, "patience": 2,
        "seed": 3, "decoder": "linear", "encoder": "mlp", "sample_paths": 10,
        "test_fraction": 0.25, "val_fraction": 0.25,
    },
}


@pytest.fixture
def workdir(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TINY_CONFIG), encoding="utf-8")
    return tmp_path, cfg


def run(*argv):
    return main([str(a) for a in argv])


def test_the_cli_imports_no_scipy():
    # numpy is the one runtime dependency: a fresh interpreter that imports
    # the CLI has loaded no scipy module
    src = Path(training.__file__).resolve().parents[1]
    code = ("import sys, latentcast.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert out.stdout == "[]\n"


def test_the_command_runs_blas_on_one_thread_unless_told(tmp_path, monkeypatch):
    # at OpenBLAS's default of a thread per core, the GRU's weight gradients
    # on the recurrent-sample workload's data take other bits on a
    # multi-core host; the command pins one thread unless its caller set one
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from pipebench.workloads import WORKLOADS, CliRun

    inputs = CliRun(WORKLOADS["recurrent-sample"], 101, tmp_path)
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(Path(training.__file__).resolve().parents[1])
    outputs = []
    for side, blas in (("unset", {}), ("one", dict.fromkeys(BLAS_THREAD_VARS, "1"))):
        root = tmp_path / side
        for command, *extra in (("pretrain",),
                                ("train", "--pretrained", root / "pretrain" / "stage1.ckpt.json")):
            subprocess.run([sys.executable, "-m", "latentcast", command, "--config",
                            inputs.config_file, "--data", inputs.data, "--out", root / command,
                            *extra], env={**env, **blas}, capture_output=True, check=True)
        outputs.append({path.relative_to(root): path.read_bytes() for path in root.rglob("*")
                        if path.is_file() and path.name != "manifest.json"})
        for name, data in outputs[-1].items():   # a run record's seconds are the clock's
            if name.name.startswith("runrecord"):
                outputs[-1][name] = {k: v for k, v in json.loads(data).items()
                                     if not k.endswith("_seconds")}
    assert Path("train", "model.ckpt.json") in outputs[0]
    assert outputs[0] == outputs[1]


# domain counts and test fractions whose split has an empty side for any seed
SPLIT_FAULTS = ("domains,test_fraction", [(1, 0.25), (4, 0.1), (4, 0.9)])
SPLIT_FAULT_IDS = ["one_domain", "no_test_domain", "no_training_domain"]


class TestSynth:
    def test_writes_domains(self, workdir):
        root, cfg = workdir
        assert run("synth", "--config", cfg, "--out", root / "synth") == 0
        text = (root / "synth" / "data.csv").read_text()
        assert {f"dom{i}" for i in range(4)} <= {line.split(",")[0]
                                                 for line in text.splitlines()[1:]}
        assert (root / "synth" / "manifest.json").exists()

    def test_same_seed_byte_identical(self, workdir):
        root, cfg = workdir
        run("synth", "--config", cfg, "--out", root / "a")
        run("synth", "--config", cfg, "--out", root / "b")
        assert (root / "a" / "data.csv").read_bytes() == (root / "b" / "data.csv").read_bytes()

    def test_invalid_spec_names_field(self, workdir, capsys):
        root, cfg = workdir
        code = run("synth", "--config", cfg, "--out", root / "bad",
                   "--set", "synthetic.noise_std=-1")
        assert code == 2
        assert "noise_std" in capsys.readouterr().err

    @pytest.mark.parametrize("setting,named", [
        ("noise_std=Infinity", "noise_std"),
        ("length=2.5", "length"), ('num_domains="a"', "num_domains"),
        ("num_domains=true", "num_domains"), ("phase_range=3", "phase_range"),
        ("phase_range=[1,2,3]", "phase_range"), ("phase_range=[0,NaN]", "phase_range"),
        ("seed=-1", "seed"), ("shared_period=0", "shared_period"),
        ("domain_period_range=[-1,1]", "domain_period_range"), ("noise_std=1e308", "overflow")])
    def test_bad_setting_is_a_data_error_before_any_write(self, workdir, capsys, setting,
                                                          named):
        root, cfg = workdir
        code = run("synth", "--config", cfg, "--out", root / "bad",
                   "--set", f"synthetic.{setting}")
        assert code == 2
        assert named in capsys.readouterr().err
        assert not (root / "bad").exists()

    def test_overwrite_required(self, workdir):
        root, cfg = workdir
        assert run("synth", "--config", cfg, "--out", root / "s") == 0
        assert run("synth", "--config", cfg, "--out", root / "s") == 1
        assert run("synth", "--config", cfg, "--out", root / "s", "--overwrite") == 0


class TestPipelineFlow:
    @pytest.fixture
    def data_csv(self, workdir):
        root, cfg = workdir
        run("synth", "--config", cfg, "--out", root / "synth")
        return root / "synth" / "data.csv"

    def test_full_flow(self, workdir, data_csv):
        root, cfg = workdir
        assert run("pretrain", "--config", cfg, "--data", data_csv,
                   "--out", root / "pre") == 0
        ckpt = root / "pre" / "stage1.ckpt.json"
        assert ckpt.exists()

        assert run("train", "--config", cfg, "--data", data_csv,
                   "--pretrained", ckpt, "--out", root / "fit") == 0
        model = root / "fit" / "model.ckpt.json"
        assert model.exists()
        assert (root / "fit" / "report_train.json").exists()
        assert (root / "fit" / "report_test.json").exists()
        assert (root / "fit" / "forecasts_test.csv").exists()

        assert run("evaluate", "--config", cfg, "--data", data_csv,
                   "--checkpoint", model, "--out", root / "eval") == 0
        train_rep = json.loads((root / "eval" / "report_train.json").read_text())
        test_rep = json.loads((root / "eval" / "report_test.json").read_text())
        assert train_rep["split"] == "train" and test_rep["split"] == "test"
        for rep in (train_rep, test_rep):
            assert all(np.isfinite(v) for v in rep["average"].values())

        assert run("forecast", "--config", cfg, "--data", data_csv,
                   "--checkpoint", model, "--out", root / "fc") == 0
        lines = (root / "fc" / "forecasts_test.csv").read_text().splitlines()
        assert lines[0] == ("domain,series,origin_timestamp,step,"
                            "q10,q20,q30,q40,q50,q60,q70,q80,q90,point")
        assert len(lines) > 1

        assert run("dump-latents", "--config", cfg, "--data", data_csv,
                   "--checkpoint", model, "--out", root / "lat") == 0
        assert (root / "lat" / "latents_test.csv").exists()
        assert "rows=" in (root / "lat" / "separation.txt").read_text()

    def test_train_without_pretrain_checkpoint_fails(self, workdir, data_csv, capsys):
        root, cfg = workdir
        assert run("train", "--config", cfg, "--data", data_csv,
                   "--out", root / "fit") == 1
        assert "pretrained" in capsys.readouterr().err.lower()

    def test_missing_checkpoint_path_named(self, workdir, data_csv, capsys):
        root, cfg = workdir
        code = run("train", "--config", cfg, "--data", data_csv,
                   "--pretrained", root / "nope.ckpt.json", "--out", root / "fit")
        assert code == 1
        assert "nope.ckpt.json" in capsys.readouterr().err

    def test_e2e_variant_skips_pretrain(self, workdir, data_csv):
        root, cfg = workdir
        assert run("train", "--config", cfg, "--data", data_csv, "--variant", "e2e",
                   "--out", root / "e2e") == 0
        manifest = json.loads((root / "e2e" / "manifest.json").read_text())
        assert manifest["config"]["variant"] == "e2e"

    def test_variant_recorded_in_manifest(self, workdir, data_csv):
        root, cfg = workdir
        run("pretrain", "--config", cfg, "--data", data_csv, "--variant", "no_reg",
            "--out", root / "p2")
        manifest = json.loads((root / "p2" / "manifest.json").read_text())
        assert manifest["config"]["variant"] == "no_reg"

    def test_decompose_csv(self, workdir, data_csv):
        root, cfg = workdir
        assert run("decompose", "--config", cfg, "--data", data_csv,
                   "--kernel", "5", "--out", root / "dec") == 0
        lines = (root / "dec" / "decomposition.csv").read_text().splitlines()
        assert lines[0] == "value,trend,seasonal"
        v, t, s = (float(x) for x in lines[1].split(","))
        assert abs(v - (t + s)) < 1e-12

    @pytest.mark.parametrize("kernel", ["4", "0", "-3"])
    def test_decompose_kernel_not_odd_and_positive_is_a_usage_error(self, workdir, capsys,
                                                                    kernel):
        # refused before the data is read: this file would be a data error
        root, cfg = workdir
        data = root / "bad.csv"
        data.write_text("not,a,schema\n", encoding="utf-8")
        code = run("decompose", "--config", cfg, "--data", data, "--kernel", kernel,
                   "--out", root / "dec")
        assert code == 1
        assert f"--kernel must be odd and at least 1, got {kernel}" in capsys.readouterr().err
        assert not (root / "dec").exists()

    def test_decompose_kernel_longer_than_the_series_is_a_data_error(self, workdir, data_csv,
                                                                    capsys):
        root, cfg = workdir
        code = run("decompose", "--config", cfg, "--data", data_csv, "--kernel", "61",
                   "--out", root / "dec")
        assert code == 2
        assert "kernel 61 outside [1, 60]" in capsys.readouterr().err
        assert not (root / "dec").exists()

    def test_ablate_table(self, workdir, data_csv):
        root, cfg = workdir
        code = run("ablate", "--config", cfg, "--data", data_csv,
                   "--variants", "full,no_reg", "--seeds", "1,2",
                   "--out", root / "abl")
        assert code == 0
        table = json.loads((root / "abl" / "ablation.json").read_text())
        assert set(table) == {"full", "no_reg"}
        for row in table.values():
            assert row["n_seeds"] == 2
            assert "q50_mean" in row and "q50_std" in row
        assert (root / "abl" / "ablation.txt").exists()
        # a rerun writes the same bytes
        assert run("ablate", "--config", cfg, "--data", data_csv, "--variants", "full,no_reg",
                   "--seeds", "1,2", "--out", root / "abl2") == 0
        assert ((root / "abl" / "ablation.json").read_bytes()
                == (root / "abl2" / "ablation.json").read_bytes())

    def test_ablate_failed_seed_is_listed_with_the_training_exit_code(
            self, workdir, data_csv, monkeypatch):
        def fail_seed_2(datasets, config, **kwargs):
            if config.seed == 2:
                raise TrainingError("stage 1 loss non-finite")
            return run_pipeline(datasets, config, **kwargs)

        monkeypatch.setattr(training, "run_pipeline", fail_seed_2)
        root, cfg = workdir
        code = run("ablate", "--config", cfg, "--data", data_csv, "--variants", "full",
                   "--seeds", "1,2", "--out", root / "abl")
        assert code == 3
        row = json.loads((root / "abl" / "ablation.json").read_text())["full"]
        assert row["failed_seeds"] == {"2": "stage 1 loss non-finite"}
        assert row["n_seeds"] == 1

    def test_ablate_undefined_metric_is_a_data_error(self, workdir, data_csv, capsys):
        # an all-zero domain leaves the quantile loss undefined for every seed
        # that holds it out: the run ends, and no seed is dropped from the row
        root, cfg = workdir
        lines = data_csv.read_text().splitlines()
        zeroed = root / "zeroed.csv"
        zeroed.write_text("\n".join([lines[0]] + [
            line.rsplit(",", 1)[0] + ",0.0" if line.startswith("dom0,") else line
            for line in lines[1:]]) + "\n")
        code = run("ablate", "--config", cfg, "--data", zeroed, "--variants", "full",
                   "--seeds", "0,1,2,3,4,5", "--out", root / "abl")
        assert code == 2
        assert "test split, domain 0" in capsys.readouterr().err
        assert not (root / "abl").exists()

    @staticmethod
    def _few_domains_csv(root, domains):
        data = root / "few.csv"
        data.write_text("domain,series,timestamp,value\n" + "".join(
            f"d{d},s,{t},{t % 7}.0\n" for d in range(domains) for t in range(60)))
        return data

    @pytest.mark.parametrize(*SPLIT_FAULTS, ids=SPLIT_FAULT_IDS)
    def test_ablate_data_fault_no_seed_escapes_ends_before_the_output_dir(
            self, workdir, capsys, domains, test_fraction):
        # the domain counts of a split do not depend on its seed, so no seed
        # can run, and ablate ends with a data error before making --out
        root, cfg = workdir
        code = run("ablate", "--config", cfg, "--data", self._few_domains_csv(root, domains),
                   "--variants", "full", "--seeds", "1",
                   "--set", f"train.test_fraction={test_fraction}", "--out", root / "abl")
        assert code == 2
        assert "data error" in capsys.readouterr().err
        assert not (root / "abl").exists()

    @pytest.mark.parametrize("command", [["pretrain"], ["train", "--variant", "e2e"]],
                             ids=["pretrain", "train"])
    @pytest.mark.parametrize(*SPLIT_FAULTS, ids=SPLIT_FAULT_IDS)
    def test_fit_data_fault_no_seed_escapes_ends_before_the_output_dir(
            self, workdir, capsys, command, domains, test_fraction):
        root, cfg = workdir
        code = run(*command, "--config", cfg, "--data", self._few_domains_csv(root, domains),
                   "--set", f"train.test_fraction={test_fraction}", "--out", root / "fit")
        assert code == 2
        assert "data error" in capsys.readouterr().err
        assert not (root / "fit").exists()

    @staticmethod
    def _pretrain_and_train(root, cfg, data_csv, decoder):
        dec = f"train.decoder={decoder}"
        assert run("pretrain", "--config", cfg, "--data", data_csv, "--set", dec,
                   "--out", root / "pre") == 0
        assert run("train", "--config", cfg, "--data", data_csv, "--set", dec,
                   "--pretrained", root / "pre" / "stage1.ckpt.json",
                   "--out", root / "fit") == 0

    @pytest.mark.parametrize("decoder", ["linear", "recurrent"])
    def test_cli_report_equals_run_pipeline(self, workdir, data_csv, decoder):
        # pretrain + train --pretrained, through a stage-1 checkpoint, writes
        # what one in-memory run_pipeline holds: reports, forecasts, parameters
        root, cfg = workdir
        self._pretrain_and_train(root, cfg, data_csv, decoder)
        config = TrainConfig(**{**TINY_CONFIG["train"], "decoder": decoder})
        result = run_pipeline(ingest_csv(data_csv), config)
        for name, report in (("train", result.report_train), ("test", result.report_test)):
            assert ((root / "fit" / f"report_{name}.json").read_text(encoding="utf-8")
                    == report.to_json() + "\n")
        expected = root / "expected.csv"
        write_forecast_csv(expected, result.test_windows, result.test_forecasts)
        assert (root / "fit" / "forecasts_test.csv").read_bytes() == expected.read_bytes()
        _, model, _, _ = load_full(root / "fit" / "model.ckpt.json")
        saved, held = model.checkpoint_params(), result.model.checkpoint_params()
        assert [p.name for p in saved] == [p.name for p in held]
        for p, q in zip(saved, held):
            assert np.array_equal(p.data, q.data), p.name

    def test_pretrained_encoder_is_compared_as_the_pair_resolves_it(self, workdir, data_csv):
        # unset, the linear decoder's encoder is the BiGRU: the same pair
        root, cfg = workdir
        assert run("pretrain", "--config", cfg, "--data", data_csv,
                   "--set", "train.encoder=null", "--out", root / "pre") == 0
        assert run("train", "--config", cfg, "--data", data_csv, "--set", "train.encoder=bigru",
                   "--pretrained", root / "pre" / "stage1.ckpt.json", "--out", root / "fit") == 0

    def test_pretrained_val_fraction_must_match(self, workdir, data_csv, capsys):
        # stage 1 trained on the validation tails stage 2 would select on
        root, cfg = workdir
        assert run("pretrain", "--config", cfg, "--data", data_csv, "--out", root / "pre") == 0
        code = run("train", "--config", cfg, "--data", data_csv,
                   "--set", "train.val_fraction=0.5",
                   "--pretrained", root / "pre" / "stage1.ckpt.json", "--out", root / "fit")
        assert code == 2
        assert "val_fraction=0.25 does not match config val_fraction=0.5" in (
            capsys.readouterr().err)
        assert not (root / "fit").exists()

    @pytest.mark.parametrize("pretrain, train, refused", [
        (("--variant", "no_reg", "--set", "train.beta=9"), ("--variant", "full"),
         "beta=9 does not match config beta=1.0"),
        (("--variant", "full"), ("--variant", "shared_only"), None),
        (("--set", "train.decoder=linear"), ("--set", "train.decoder=recurrent"), None),
        (("--set", "train.fill_missing=-1.5"), (),
         "fill_missing=-1.5 does not match config fill_missing=0.0"),
        (("--set", "train.value_scale=2.5"), (),
         "value_scale=2.5 does not match config value_scale=1.0"),
    ], ids=["objective_differs", "variant_pretrained_alike", "decoder_only",
            "gap_fill_differs", "value_scale_differs"])
    def test_pretrained_stage1_objective_must_match(self, workdir, data_csv, capsys,
                                                    pretrain, train, refused):
        # stage 1's windows and objective must be the run's; the variant and
        # the decoder matter only where they change those
        root, cfg = workdir
        assert run("pretrain", "--config", cfg, "--data", data_csv, *pretrain,
                   "--out", root / "pre") == 0
        code = run("train", "--config", cfg, "--data", data_csv, *train,
                   "--pretrained", root / "pre" / "stage1.ckpt.json", "--out", root / "fit")
        if refused is None:
            assert code == 0
        else:
            assert code == 2
            assert refused in capsys.readouterr().err
            assert not (root / "fit").exists()

    def test_forecast_matches_train_for_recurrent_decoder(self, workdir, data_csv):
        root, cfg = workdir
        self._pretrain_and_train(root, cfg, data_csv, "recurrent")
        assert run("forecast", "--config", cfg, "--data", data_csv,
                   "--checkpoint", root / "fit" / "model.ckpt.json",
                   "--out", root / "fc") == 0
        assert ((root / "fc" / "forecasts_test.csv").read_bytes()
                == (root / "fit" / "forecasts_test.csv").read_bytes())

    @pytest.mark.parametrize("argv, field", [
        (("pretrain", "--set", "train.epochs_stage1=0"), "epochs_stage1"),
        (("train", "--variant", "e2e", "--set", "train.epochs_stage2=0"), "epochs_stage2"),
        (("pretrain", "--variant", "no_reg", "--set", "train.batch_size=0"), "batch_size"),
        (("train", "--variant", "e2e", "--set", "train.decoder=recurrent",
          "--set", "train.sample_paths=0"), "sample_paths"),
        (("pretrain", "--set", "train.d_z=1"), "d_z"),
        (("pretrain", "--set", "train.learning_rate=-1"), "learning_rate"),
        (("pretrain", "--set", "train.value_scale=0"), "value_scale"),
        (("pretrain", "--set", "train.learning_rate=abc"), "learning_rate"),
        (("pretrain", "--set", 'train.batch_size="x"'), "batch_size"),
        (("pretrain", "--set", "train.epochs_stage1=1.5"), "epochs_stage1"),
        (("pretrain", "--set", "train.seed=-1"), "seed"),
        (("pretrain", "--set", "train.test_fraction=-3"), "test_fraction"),
        (("pretrain", "--set", "train.val_fraction=1"), "val_fraction"),
        (("pretrain", "--set", "train.kernel=8"), "kernel"),
        (("pretrain", "--set", "train.kernel=0"), "kernel"),
        (("pretrain", "--set", "train.kernel=-3"), "kernel"),
        (("pretrain", "--set", "train.kernel=99"), "kernel"),
        (("pretrain", "--set", "train.stride=0"), "stride"),
        (("pretrain", "--set", "train.eval_stride=0"), "eval_stride"),
        (("train", "--variant", "e2e", "--set", "train.eval_stride=0"), "eval_stride"),
        (("pretrain", "--set", "train.patience=-1"), "patience"),
        (("train", "--variant", "e2e", "--set", "train.beta=-1"), "beta"),
        (("train", "--variant", "e2e", "--set", "train.reg_weight=-1"), "reg_weight"),
        (("ablate", "--set", "train.variant=no_reg", "--set", "train.batch_size=1",
          "--variants", "full", "--seeds", "0"), "--variants full: batch_size must be >= 2"),
        (("pretrain", "--set", "train.beta=0"), "beta must be > 0 while the domain "
                                                 "regularizer is on (reg_weight=1.0)"),
        (("ablate", "--set", "train.variant=no_reg", "--set", "train.beta=0",
          "--variants", "full", "--seeds", "0"), "--variants full: beta must be > 0"),
    ], ids=["epochs_stage1", "epochs_stage2", "batch_size", "sample_paths", "latent_split",
            "learning_rate", "value_scale", "text_for_float", "text_for_int",
            "fraction_for_int", "negative_seed", "test_fraction_range", "val_fraction_range",
            "even_kernel", "zero_kernel", "negative_kernel", "kernel_over_lookback",
            "zero_stride", "zero_eval_stride", "zero_eval_stride_e2e", "negative_patience",
            "negative_beta", "negative_reg_weight", "ablate_listed_variant",
            "zero_beta_regularized", "ablate_zero_beta_regularized"])
    def test_empty_training_loop_is_a_usage_error(self, workdir, data_csv, capsys,
                                                  argv, field):
        # a loop that would run no epoch or no batch, a setting that would
        # crash after training, train uphill or on a loss unbounded below
        # (a negative rate, or beta 0 under the regularizer's push), divide
        # every value by zero or hold out no domain, a kernel, stride or
        # patience out of range, and a value of the wrong type, are refused
        # before any data loads; ablate refuses so a listed variant whose
        # config fails these checks, though the file's config passes
        root, cfg = workdir
        code = run(*argv, "--config", cfg, "--data", data_csv, "--out", root / "bad")
        assert code == 1
        assert field in capsys.readouterr().err
        assert not (root / "bad").exists()

    @pytest.mark.parametrize("setting", [("--variant", "no_reg"),
                                         ("--set", "train.reg_weight=0")],
                             ids=["no_reg", "zero_reg_weight"])
    def test_zero_beta_trains_without_the_regularizer(self, workdir, data_csv, setting):
        # without the push nothing drives the latents apart, so stage 1 at
        # beta 0 is a bounded objective: the components' reconstruction alone
        root, cfg = workdir
        assert run("pretrain", *setting, "--set", "train.beta=0", "--config", cfg,
                   "--data", data_csv, "--out", root / "pre") == 0
        assert (root / "pre" / "stage1.ckpt.json").exists()

    @pytest.mark.parametrize("argv, role", [
        (("pretrain", "--set", "train.lookback=60"), "train"),
        (("train", "--variant", "e2e", "--set", "train.stride=60"), "val"),
        (("ablate", "--variants", "full", "--seeds", "0", "--set", "train.lookback=46"),
         "train"),
    ], ids=["lookback", "stride", "ablate_lookback"])
    def test_setting_that_leaves_no_window_is_a_data_error(self, workdir, data_csv, capsys,
                                                          argv, role):
        # 60-step series: no window fits a 64-step span, with stride 60 each
        # series has one window, which ends inside the training period, and
        # a 45-step training period holds no 50-step window
        root, cfg = workdir
        code = run(*argv, "--config", cfg, "--data", data_csv, "--out", root / "bad")
        assert code == 2
        assert f"no {role} window" in capsys.readouterr().err
        assert not (root / "bad").exists()

    def test_undefined_metric_is_a_data_error(self, workdir, data_csv, capsys, monkeypatch):
        # nrmse fails as it does on all-zero predictions; the run ends with the
        # data exit code and a message naming the split and the domain
        def all_zero(y, yhat):
            raise MetricError("nrmse: all-zero predictions make the denominator undefined")

        monkeypatch.setattr(evaluation, "nrmse", all_zero)
        root, cfg = workdir
        code = run("train", "--variant", "e2e", "--config", cfg, "--data", data_csv,
                   "--out", root / "fit")
        assert code == 2
        assert "train split, domain" in capsys.readouterr().err
        assert not (root / "fit").exists()

    @pytest.mark.parametrize("command", [["pretrain"], ["train", "--variant", "e2e"]],
                             ids=["pretrain", "train"])
    def test_training_failure_leaves_no_output_dir(self, workdir, data_csv, capsys,
                                                   monkeypatch, command):
        # the latent objective of stage 1 and of e2e turns non-finite
        monkeypatch.setattr(training, "_latent_objective",
                            lambda *args: (Tensor(math.nan), {}))
        root, cfg = workdir
        code = run(*command, "--config", cfg, "--data", data_csv, "--out", root / "fit")
        assert code == 3
        assert "loss non-finite" in capsys.readouterr().err
        assert not (root / "fit").exists()

    @pytest.mark.parametrize("command", [["pretrain"], ["train", "--variant", "e2e"]],
                             ids=["pretrain", "train"])
    def test_one_training_domain_is_refused_by_both_latent_objectives(self, workdir, capsys,
                                                                      command):
        # two domains at test_fraction 0.5 leave one: the domain regularizer
        # of stage 1 and of e2e has no cross-domain pair
        root, cfg = workdir
        code = run(*command, "--config", cfg, "--data", self._few_domains_csv(root, 2),
                   "--set", "train.test_fraction=0.5", "--out", root / "fit")
        assert code == 3
        assert ("stage 1: domain regularization needs at least 2 training domains"
                in capsys.readouterr().err)
        assert not (root / "fit").exists()

    def test_unknown_variant_lists_valid_names(self, workdir, data_csv, capsys):
        root, cfg = workdir
        code = run("ablate", "--config", cfg, "--data", data_csv,
                   "--variants", "full,bogus", "--seeds", "1", "--out", root / "abl2")
        assert code == 1
        err = capsys.readouterr().err
        assert "bogus" in err and "no_decomp" in err


class TestAtomicWrites:
    """A writer that fails mid-write leaves the previous file and no
    temporary file behind."""

    def _check(self, path, write_ok, write_bad, error):
        write_ok()
        before = path.read_bytes()
        with pytest.raises(error):
            write_bad()
        assert path.read_bytes() == before
        assert [p.name for p in path.parent.iterdir()] == [path.name]

    def test_manifest(self, tmp_path):
        # json.dump has written the keys sorted before "config" when it fails
        args = argparse.Namespace(command="synth", argv=["synth"])
        self._check(tmp_path / "manifest.json",
                    lambda: write_manifest(tmp_path, args, {"ok": 1}, {}),
                    lambda: write_manifest(tmp_path, args, {"bad": object()}, {}),
                    TypeError)

    def test_forecast_csv(self, tmp_path, tiny_datasets):
        # three quantile rows instead of nine: the header and the row keys are
        # out before the missing median row fails
        windows, _ = make_windows(tiny_datasets[:1], 12, 4, stride=10)
        path = tmp_path / "forecasts_test.csv"
        self._check(path,
                    lambda: write_forecast_csv(path, windows,
                                               Forecasts(np.zeros((9, len(windows), 4)))),
                    lambda: write_forecast_csv(path, windows,
                                               Forecasts(np.zeros((3, len(windows), 4)))),
                    IndexError)


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run("frobnicate") == 1

    @pytest.mark.parametrize("argv", [
        ("synth", "--seed", "7"),
        ("synth", "--variant", "no_reg"),
        ("decompose", "--data", "d.csv", "--seed", "7"),
        ("decompose", "--data", "d.csv", "--variant", "no_reg"),
        ("evaluate", "--data", "d.csv", "--checkpoint", "m.json", "--seed", "7"),
        ("forecast", "--data", "d.csv", "--checkpoint", "m.json", "--variant", "no_reg"),
        ("dump-latents", "--data", "d.csv", "--checkpoint", "m.json", "--seed", "7"),
        ("evaluate", "--data", "d.csv", "--checkpoint", "m.json", "--set", "train.seed=7"),
        ("forecast", "--data", "d.csv", "--checkpoint", "m.json", "--set", "train.horizon=99"),
        ("dump-latents", "--data", "d.csv", "--checkpoint", "m.json", "--set", "train.d_z=2"),
        ("train", "--data", "d.csv", "--variant", "e2e", "--pretrained", "s.json"),
        ("train", "--data", "d.csv", "--variant", "no_latent", "--pretrained", "s.json"),
        ("ablate", "--data", "d.csv", "--seed", "3"),
        ("ablate", "--data", "d.csv", "--variant", "no_reg"),
        ("train", "--data", "d.csv", "--pre", "X"),
    ], ids=["synth_seed", "synth_variant", "decompose_seed", "decompose_variant",
            "evaluate_seed", "forecast_variant", "dump_latents_seed", "evaluate_set",
            "forecast_set", "dump_latents_set", "e2e_pretrained", "no_latent_pretrained",
            "ablate_seed", "ablate_variant", "train_abbreviation"])
    def test_flag_the_command_would_ignore_is_a_usage_error(self, workdir, capsys, argv):
        # these commands never read the flag: the checkpoint commands take
        # every setting from the checkpoint, a one-stage variant has no
        # stage-1 checkpoint to load, ablate takes its seeds and variants
        # from --seeds and --variants, and no flag is read as an abbreviation.
        # The files named do not exist, so the refusal must come before they
        # are looked for
        root, cfg = workdir
        assert run(*argv, "--config", cfg, "--out", root / "x") == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "not found" not in err
        assert not (root / "x").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--seeds", "x"), ("--seeds", ""), ("--seeds", "-1"), ("--seeds", "0,1.5"),
        ("--seeds", "1,01"), ("--variants", ""), ("--variants", " , "),
        ("--variants", "full,nope"), ("--variants", "full,e2e,full")])
    def test_bad_ablate_list_is_a_usage_error(self, workdir, capsys, flag, value):
        # found before the data is read: the data file does not exist
        root, cfg = workdir
        code = run("ablate", "--config", cfg, "--data", root / "missing.csv", flag, value,
                   "--out", root / "x")
        assert code == 1
        err = capsys.readouterr().err
        assert flag in err or "unknown variants" in err
        assert not (root / "x").exists()

    def test_out_root_env_var(self, workdir, monkeypatch):
        root, cfg = workdir
        monkeypatch.setenv("LATENTCAST_OUT_ROOT", str(root))
        assert run("synth", "--config", cfg, "--out", "relative_dir") == 0
        assert (root / "relative_dir" / "data.csv").exists()

    def test_non_finite_data_is_a_data_error(self, workdir, capsys):
        root, cfg = workdir
        data = root / "nan.csv"
        data.write_text("domain,series,timestamp,value\na,s0,0,1.0\na,s0,1,nan\n",
                        encoding="utf-8")
        code = run("pretrain", "--config", cfg, "--data", data, "--out", root / "x")
        assert code == 2
        assert "line 3: non-finite value" in capsys.readouterr().err

    def test_overlong_series_span_is_a_data_error(self, workdir, capsys):
        root, cfg = workdir
        data = root / "span.csv"
        data.write_text("domain,series,timestamp,value\na,s0,0,1.0\na,s0,1000000000,2.0\n",
                        encoding="utf-8")
        code = run("pretrain", "--config", cfg, "--data", data, "--out", root / "x")
        assert code == 2
        assert "series 's0'" in capsys.readouterr().err

    def test_missing_data_file(self, workdir, capsys):
        root, cfg = workdir
        code = run("pretrain", "--config", cfg, "--data", root / "missing.csv",
                   "--out", root / "x")
        assert code == 1
        assert "missing.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--config", "--data"])
    def test_directory_for_an_input_file_is_a_usage_error(self, workdir, capsys, flag):
        root, cfg = workdir
        (root / "adir").mkdir()
        paths = {"--config": cfg, "--data": root / "missing.csv", flag: root / "adir"}
        code = run("pretrain", *[a for item in paths.items() for a in item], "--out", root / "x")
        assert code == 1
        assert "adir is not a file" in capsys.readouterr().err
        assert not (root / "x").exists()

    def test_non_utf8_config_is_a_data_error(self, workdir, capsys):
        root, _ = workdir
        cfg = root / "latin1.json"
        cfg.write_bytes('{"train": {"variant": "é"}}'.encode("latin-1"))
        code = run("pretrain", "--config", cfg, "--data", root / "missing.csv",
                   "--out", root / "x")
        assert code == 2
        assert "not UTF-8 text" in capsys.readouterr().err
        assert not (root / "x").exists()

    def test_config_with_a_utf8_byte_order_mark_is_read_as_without(self, workdir):
        root, cfg = workdir
        marked = root / "marked.json"
        marked.write_bytes(b"\xef\xbb\xbf" + cfg.read_bytes())
        assert run("synth", "--config", marked, "--out", root / "a") == 0
        assert run("synth", "--config", cfg, "--out", root / "b") == 0
        assert (root / "a" / "data.csv").read_bytes() == (root / "b" / "data.csv").read_bytes()

    @pytest.mark.parametrize("out", ["taken", "taken/run"], ids=["file", "under_file"])
    def test_out_that_cannot_be_a_directory_is_a_usage_error(self, workdir, capsys, out):
        root, cfg = workdir
        (root / "taken").write_text("not a directory", encoding="utf-8")
        code = run("synth", "--config", cfg, "--out", root / out)
        assert code == 1
        assert "cannot make output dir" in capsys.readouterr().err
        assert (root / "taken").read_text(encoding="utf-8") == "not a directory"

    def test_decompose_of_a_file_without_series_is_a_data_error(self, workdir, capsys):
        root, cfg = workdir
        data = root / "header.csv"
        data.write_text("domain,series,timestamp,value\n", encoding="utf-8")
        code = run("decompose", "--config", cfg, "--data", data, "--out", root / "x")
        assert code == 2
        assert "holds no series" in capsys.readouterr().err
        assert not (root / "x").exists()

    @pytest.mark.parametrize("flag", ["--domain", "--series"])
    def test_decompose_reads_an_empty_name_as_a_name(self, workdir, capsys, flag):
        # an empty name is looked up like any other, not read as "the first"
        root, cfg = workdir
        data = root / "named.csv"
        data.write_text("domain,series,timestamp,value\n"
                        + "".join(f"a,s0,{t},{t % 3}.0\n" for t in range(8)), encoding="utf-8")
        code = run("decompose", "--config", cfg, "--data", data, flag, "", "--out", root / "x")
        assert code == 2
        assert "'' not in" in capsys.readouterr().err
        assert not (root / "x").exists()
        unnamed = root / "unnamed.csv"
        unnamed.write_text("domain,series,timestamp,value\n"
                           + "".join(f"a,s0,{t},1.0\n,,{t},{t % 3}.0\n" for t in range(8)),
                           encoding="utf-8")
        assert run("decompose", "--config", cfg, "--data", unnamed, "--domain", "",
                   "--series", "", "--out", root / "y") == 0
        manifest = json.loads((root / "y" / "manifest.json").read_text())
        assert (manifest["config"]["domain"], manifest["config"]["series"]) == ("", "")

    def test_manifest_records_the_argv_main_parsed(self, workdir, monkeypatch):
        root, cfg = workdir
        monkeypatch.setattr(sys, "argv", ["pytest", "-q", "x.py"])
        argv = ["synth", "--config", str(cfg), "--out", str(root / "s")]
        assert main(argv) == 0
        assert json.loads((root / "s" / "manifest.json").read_text())["argv"] == argv


# ---------------------------------------------------------------------------
# CLI on mutated settings
# ---------------------------------------------------------------------------

FUZZ_TRAIN = {"lookback": 6, "horizon": 2, "d_z": 2, "hidden": 4, "kernel": 3,
              "batch_size": 8, "epochs_stage1": 1, "epochs_stage2": 1, "encoder": "mlp",
              "test_fraction": 0.34, "val_fraction": 0.3, "sample_paths": 5}
FUZZ_DATA = "domain,series,timestamp,value\n" + "".join(
    f"d{d},s,{t},{10 + d + math.sin(t):.3f}\n" for d in range(3) for t in range(16))
FUZZ_VALUES = (st.integers(-3, 40) | st.booleans() | st.none() | st.text("ab1.e", max_size=3)
               | st.sampled_from((-1.0, 0.0, 0.25, 1.5, math.nan, math.inf, [1], {"a": 1},
                                  "mlp", "bigru", "recurrent", "e2e")))


@settings(max_examples=100)
@given(where=st.sampled_from(("set", "file", "section")),
       field=st.sampled_from([f.name for f in fields(TrainConfig)] + ["nope"]),
       value=FUZZ_VALUES, as_json=st.booleans(),
       command=st.sampled_from((("pretrain",), ("train", "--variant", "e2e"))))
def test_cli_ends_with_an_exit_code_on_mutated_settings(where, field, value, as_json, command):
    # one setting of a valid config gets a drawn value, through --set or the
    # config file, or the whole "train" section is replaced; a setting that
    # leaves no window to train on or to evaluate is a data error (exit code 2)
    train = dict(FUZZ_TRAIN)
    sets = []
    if where == "set":
        sets = ["--set", f"train.{field}={json.dumps(value) if as_json else value}"]
    elif where == "file":
        train[field] = value
    else:
        train = value
    with tempfile.TemporaryDirectory() as tmp:
        config, data = Path(tmp) / "config.json", Path(tmp) / "data.csv"
        config.write_text(json.dumps({"train": train}), encoding="utf-8")
        data.write_text(FUZZ_DATA, encoding="utf-8")
        code = run(*command, "--config", config, "--data", data, *sets,
                   "--out", Path(tmp) / "out")
    assert code in (0, 1, 2, 3)


FUZZ_SYNTH = {"num_domains": 3, "series_per_domain": 2, "length": 20}
FUZZ_RANGES = st.sampled_from(([1, 2], [2, 1], [0, 0], [-3, -1], [1.5, math.inf], [1, 2, 3]))


@settings(max_examples=100)
@given(where=st.sampled_from(("set", "file", "section")),
       field=st.sampled_from([f.name for f in fields(SyntheticSpec)] + ["nope"]),
       value=FUZZ_VALUES | FUZZ_RANGES, as_json=st.booleans())
def test_synth_ends_with_an_exit_code_on_mutated_settings(where, field, value, as_json):
    # as above, for the "synthetic" section: a refused spec writes nothing,
    # and an accepted one writes a CSV that ingest accepts
    synthetic = dict(FUZZ_SYNTH)
    sets = []
    if where == "set":
        sets = ["--set", f"synthetic.{field}={json.dumps(value) if as_json else value}"]
    elif where == "file":
        synthetic[field] = value
    else:
        synthetic = value
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "out"
        config.write_text(json.dumps({"synthetic": synthetic}), encoding="utf-8")
        code = run("synth", "--config", config, *sets, "--out", out)
        assert code in (0, 1, 2)
        if code == 0:
            assert ingest_csv(out / "data.csv")
        else:
            assert not out.exists()


# ---------------------------------------------------------------------------
# CLI on mutated checkpoints and on another domain split
# ---------------------------------------------------------------------------

def fuzz_csv(domains: int) -> str:
    return "domain,series,timestamp,value\n" + "".join(
        f"d{d},s,{t},{10 + d + math.sin(t):.3f}\n" for d in range(domains) for t in range(16))


@pytest.fixture(scope="module")
def fuzz_run(tmp_path_factory):
    """Config, data and the stage-1 and full checkpoints of a valid run on
    FUZZ_DATA; the full checkpoint evaluates cleanly."""
    root = tmp_path_factory.mktemp("fuzz_run")
    config, data = root / "config.json", root / "data.csv"
    config.write_text(json.dumps({"train": FUZZ_TRAIN}), encoding="utf-8")
    data.write_text(FUZZ_DATA, encoding="utf-8")
    common = ("--config", config, "--data", data)
    assert run("pretrain", *common, "--out", root / "pre") == 0
    stage1 = root / "pre" / "stage1.ckpt.json"
    assert run("train", *common, "--pretrained", stage1, "--out", root / "fit") == 0
    full = root / "fit" / "model.ckpt.json"
    assert run("evaluate", *common, "--checkpoint", full, "--out", root / "eval") == 0
    return {"common": common, "stage1": stage1, "full": full}


@pytest.mark.parametrize("argv", [
    ("train", "--variant", "e2e", "--set", "train.eval_stride=1000"),
    ("evaluate",), ("forecast", "--split", "train"), ("dump-latents", "--split", "train"),
], ids=["train", "evaluate", "forecast", "dump_latents"])
def test_eval_stride_that_leaves_no_evaluation_window_is_a_data_error(fuzz_run, tmp_path,
                                                                      capsys, argv):
    # 16-step series: at eval_stride 1000 each series has one window, whose
    # target starts in the training period; train finds it after training,
    # the other commands in the checkpoint's config
    blob = json.loads(fuzz_run["full"].read_text(encoding="utf-8"))
    blob["config"]["eval_stride"] = 1000
    checkpoint = tmp_path / "model.ckpt.json"
    checkpoint.write_text(json.dumps(blob), encoding="utf-8")
    model = () if argv[0] == "train" else ("--checkpoint", checkpoint)
    code = run(*argv, *fuzz_run["common"], *model, "--out", tmp_path / "out")
    assert code == 2
    err = capsys.readouterr().err
    assert ("data error: no train evaluation window: no val period holds lookback + horizon "
            "= 8 steps at eval_stride 1000") in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["evaluate", "forecast", "dump-latents"])
def test_post_training_commands_refuse_another_domain_split(fuzz_run, tmp_path, capsys,
                                                            command):
    # the model was trained on 3 domains; these data have 5
    data = tmp_path / "five.csv"
    data.write_text(fuzz_csv(5), encoding="utf-8")
    code = run(command, "--data", data, "--checkpoint", fuzz_run["full"],
               "--out", tmp_path / "out")
    assert code == 2
    assert "different domain split" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["evaluate", "forecast", "dump-latents"])
def test_post_training_commands_refuse_other_feature_columns(tmp_path, capsys, command):
    # a recurrent decoder reads the feature columns; run on data without
    # them, its prediction ended in a broadcast traceback
    with_feat = tmp_path / "feat.csv"
    with_feat.write_text("domain,series,timestamp,value,feat_a\n" + "".join(
        f"d{d},s,{t},{10 + d + math.sin(t):.3f},{t % 3}\n" for d in range(3)
        for t in range(16)), encoding="utf-8")
    without = tmp_path / "plain.csv"
    without.write_text(FUZZ_DATA, encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"train": dict(FUZZ_TRAIN, decoder="recurrent")}),
                      encoding="utf-8")
    assert run("train", "--variant", "e2e", "--config", config, "--data", with_feat,
               "--out", tmp_path / "fit") == 0
    checkpoint = tmp_path / "fit" / "model.ckpt.json"
    code = run(command, "--data", without, "--checkpoint", checkpoint,
               "--out", tmp_path / "out")
    assert code == 2
    assert "does not hold the data's feature width 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("which, edit", [
    ("full", None),
    ("full", lambda blob: blob["config"].update(zz=1)),
    ("full", lambda blob: blob["config"].update(hidden="4")),
    ("full", lambda blob: blob.pop("domain_map")),
    ("full", lambda blob: blob["domain_map"][0].pop()),
    ("full", lambda blob: blob["params"]["aug.b"]["data"].pop()),
    ("full", lambda blob: blob["params"]["aug.b"]["data"].__setitem__(0, None)),
    ("full", lambda blob: blob.update(format_version=1)),
    ("full", lambda blob: blob["extra"].update(feat_dim=10**9)),
    ("stage1", None),
    ("stage1", lambda blob: blob["config"].update(encoder=None)),
    ("full", lambda blob: blob["config"].update(beta=0.0)),
], ids=["not_json", "unknown_config_key", "config_type", "no_domain_map", "short_domain_row",
        "short_data", "non_finite_data", "version_1", "huge_feat_dim", "stage1_not_json",
        "stage1_other_encoder", "zero_beta_regularized"])
def test_malformed_checkpoint_is_a_data_error(fuzz_run, tmp_path, capsys, which, edit):
    # each case ended in a traceback, or trained on, before checkpoints were checked
    text = fuzz_run[which].read_text(encoding="utf-8")
    if edit is None:
        text = text[:len(text) // 2]
    else:
        blob = json.loads(text)
        edit(blob)
        text = json.dumps(blob)
    path = tmp_path / "bad.ckpt.json"
    path.write_text(text, encoding="utf-8")
    if which == "full":
        argv = ("evaluate", *fuzz_run["common"], "--checkpoint", path)
    else:
        argv = ("train", *fuzz_run["common"], "--pretrained", path)
    assert run(*argv, "--out", tmp_path / "out") == 2
    assert str(path) in capsys.readouterr().err


def _kind(value) -> str:
    """A JSON value's kind; numpy reads a bool as a number, so it counts as one."""
    return "number" if isinstance(value, (bool, int, float)) else type(value).__name__


CKPT_VALUES = ("x", [1], {"a": 1}, None, 7)


@settings(max_examples=100)
@given(which=st.sampled_from(("full", "stage1")),
       mutation=st.sampled_from(("truncate", "delete", "retype", "add")), data=st.data())
def test_cli_ends_with_an_exit_code_on_mutated_checkpoints(fuzz_run, which, mutation, data):
    # the text is cut short, or, at a drawn place in the blob, a key or list
    # item is deleted, a value is replaced by one of another JSON kind, or a
    # key or item is added; each leaves a faulty checkpoint
    text = fuzz_run[which].read_text(encoding="utf-8")
    if mutation == "truncate":
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    else:
        blob = node = json.loads(text)
        while True:
            key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                            else range(len(node))))
            parent, node = node, node[key]
            if not (isinstance(node, (dict, list)) and node and data.draw(st.integers(0, 3))):
                break
        if mutation == "delete":
            del parent[key]
        elif mutation == "retype":
            parent[key] = data.draw(st.sampled_from(
                [v for v in CKPT_VALUES if _kind(v) != _kind(node)]))
        else:
            target = node if isinstance(node, (dict, list)) else parent
            if isinstance(target, dict):
                target["zz"] = 1
            else:
                target.append(target[0] if target else 1)
        text = json.dumps(blob)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.ckpt.json"
        path.write_text(text, encoding="utf-8")
        flag = "--checkpoint" if which == "full" else "--pretrained"
        command = "evaluate" if which == "full" else "train"
        code = run(command, *fuzz_run["common"], flag, path, "--out", Path(tmp) / "out")
    assert code in (1, 2)
