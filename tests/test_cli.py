"""CLI surface: the full synth -> pretrain -> train -> evaluate -> forecast
-> dump-latents flow on a tiny config, plus exit codes and manifests."""

import json

import numpy as np
import pytest

from latentcast.cli import main
from latentcast.data import ingest_csv
from latentcast.training import TrainConfig, run_pipeline

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
        root, cfg = workdir
        self._pretrain_and_train(root, cfg, data_csv, decoder)
        config = TrainConfig(**{**TINY_CONFIG["train"], "decoder": decoder})
        result = run_pipeline(ingest_csv(data_csv), config)
        assert ((root / "fit" / "report_test.json").read_text(encoding="utf-8")
                == result.report_test.to_json() + "\n")

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
    ], ids=["epochs_stage1", "epochs_stage2", "batch_size", "sample_paths", "latent_split",
            "learning_rate"])
    def test_empty_training_loop_is_a_usage_error(self, workdir, data_csv, capsys,
                                                  argv, field):
        # a loop that would run no epoch or no batch, and a setting that would
        # crash after training or train uphill, are refused before any data loads
        root, cfg = workdir
        code = run(*argv, "--config", cfg, "--data", data_csv, "--out", root / "bad")
        assert code == 1
        assert field in capsys.readouterr().err
        assert not (root / "bad").exists()

    def test_unknown_variant_lists_valid_names(self, workdir, data_csv, capsys):
        root, cfg = workdir
        code = run("ablate", "--config", cfg, "--data", data_csv,
                   "--variants", "full,bogus", "--seeds", "1", "--out", root / "abl2")
        assert code == 1
        err = capsys.readouterr().err
        assert "bogus" in err and "no_decomp" in err


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run("frobnicate") == 1

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

    def test_missing_data_file(self, workdir, capsys):
        root, cfg = workdir
        code = run("pretrain", "--config", cfg, "--data", root / "missing.csv",
                   "--out", root / "x")
        assert code == 1
        assert "missing.csv" in capsys.readouterr().err
