import argparse
import os

import numpy as np
import pytest

from vortexao.cli import _dataset_config, _epoch_from_name, build_parser, main
from vortexao.dataset import OBSERVATIONS, desk_config, read_config_file
from vortexao.images import import_pgm
from vortexao.network import MODES


@pytest.fixture(scope="module")
def cli_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("clids")
    out = str(root / "data")
    rc = main(
        [
            "gen-dataset",
            "--out",
            out,
            "--seed",
            "7",
            "--grid",
            "16",
            "--count",
            "6",
            "--train-count",
            "4",
            "--levels",
            "0,3",
        ]
    )
    assert rc == 0
    return out


class TestGenDataset:
    def test_deterministic_manifests(self, tmp_path):
        args = ["gen-dataset", "--seed", "7", "--grid", "16", "--count", "4", "--train-count", "2"]
        rc1 = main(args + ["--out", str(tmp_path / "a")])
        rc2 = main(args + ["--out", str(tmp_path / "b")])
        assert rc1 == rc2 == 0
        a = (tmp_path / "a" / "manifest.txt").read_bytes()
        b = (tmp_path / "b" / "manifest.txt").read_bytes()
        assert a == b

    def test_no_levels_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "data"
        args = ["gen-dataset", "--grid", "16", "--count", "6", "--train-count", "4"]
        rc = main(args + ["--levels", "", "--out", str(out)])
        assert rc == 1
        assert "level" in capsys.readouterr().err
        assert not out.exists()

    def test_count_zero_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen-dataset", "--out", str(tmp_path), "--count", "0"])
        assert exc.value.code == 2

    def test_paper_scale_manifest_declares_protocol(self, tmp_path, monkeypatch):
        # intercept before any sample is synthesized: the preset must ask for
        # 256 x 256 grids and 12000 samples per level
        import vortexao.cli as cli

        captured = {}

        def fake_generate(config, out_dir, workers=None):
            captured["config"] = config
            raise RuntimeError("stop")

        monkeypatch.setattr(cli, "generate_dataset", fake_generate)
        with pytest.raises(RuntimeError):
            main(["gen-dataset", "--out", str(tmp_path), "--paper-scale"])
        config = captured["config"]
        assert config.grid.n == 256
        assert config.count_per_level == 12000
        assert config.train_per_level == 10000

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("count_per_level = 4\ntrain_per_level = 2\nbase_seed = 9\n")
        out = tmp_path / "data"
        rc = main(
            ["gen-dataset", "--out", str(out), "--config", str(cfg), "--grid", "16", "--seed", "3"]
        )
        assert rc == 0
        text = (out / "manifest.txt").read_text()
        assert "base_seed = 3" in text  # flag wins over file
        assert "count_per_level = 4" in text

    def test_config_file_error_names_path_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\ncount_per_level = 4\ntrain_per_level 2\n")
        rc = main(["gen-dataset", "--out", str(tmp_path / "data"), "--config", str(cfg)])
        assert rc == 1
        assert f"{cfg}:3:" in capsys.readouterr().err


    def test_large_charge_uses_the_eval_mode_range(self, tmp_path, capsys):
        # |ell| = 12 lies outside the default (-10, 10) decomposition range;
        # the generation summary must widen it exactly as eval does
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ell = 12\nwaist = 0.001\n")
        out = str(tmp_path / "data")
        args = ["--grid", "64", "--count", "4", "--train-count", "2", "--levels", "0"]
        rc = main(["gen-dataset", "--out", out, "--config", str(cfg)] + args)
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert "mean distorted MP(12)" in captured.out
        report = str(tmp_path / "zero.csv")
        assert main(["eval", "--data", out, "--level", "0", "--stub", "zero", "--report", report]) == 0

    @pytest.mark.parametrize(
        "text, key",
        [(b"grid_n = abc\n", "grid_n"), (b"count_per_level = 4\xe9\n", "count_per_level")],
    )
    def test_config_file_bad_value_exits_1(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"# comment\n" + text)
        rc = main(["gen-dataset", "--out", str(tmp_path / "data"), "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ")
        assert str(cfg) in err and key in err
        assert not (tmp_path / "data").exists()


    # 2**80 is a grid no machine can hold, and 2**1100 overflows a float division
    @pytest.mark.parametrize(
        "value",
        ["0", "-4", pytest.param(str(2**80), id="2**80"), pytest.param(str(2**1100), id="2**1100")],
    )
    def test_config_file_bad_grid_size_exits_1(self, tmp_path, capsys, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"grid_n = {value}\n")
        rc = main(["gen-dataset", "--out", str(tmp_path / "data"), "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: grid size must be")
        assert "Traceback" not in err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize(
        "line, key",
        [
            ("gridn = 16", "gridn"),
            ("waist_m = 0.5", "waist_m"),
            # manifest keys a config file does not take: it sets grid_side, and --levels
            ("grid_dx = 0.0001", "grid_dx"),
            ("levels = 2", "levels"),
        ],
    )
    def test_config_file_unknown_key_exits_1(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"count_per_level = 4\ntrain_per_level = 2\n{line}\n")
        out = tmp_path / "data"
        rc = main(["gen-dataset", "--out", str(out), "--config", str(cfg), "--grid", "16"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {cfg}: unknown key '{key}', expected one of base_seed,")
        assert "Traceback" not in err
        assert not out.exists()

    def test_config_file_repeated_key_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("base_seed = 9\ncount_per_level = 4\ntrain_per_level = 2\nbase_seed = 11\n")
        out = tmp_path / "data"
        rc = main(["gen-dataset", "--out", str(out), "--config", str(cfg), "--grid", "16"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {cfg}:4: repeated key 'base_seed'\n"
        assert not out.exists()

    def test_config_file_value_checked_under_its_flag(self, tmp_path, capsys):
        # the file is read whole: --grid overrides grid_n, but a bad grid_n is still an error
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid_n = abc\n")
        out = tmp_path / "data"
        rc = main(["gen-dataset", "--out", str(out), "--config", str(cfg), "--grid", "16"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {cfg}: grid_n = 'abc' is not a valid int\n"
        assert not out.exists()

    def test_config_file_takes_ten_keys(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "grid_n = 16\ngrid_side = 0.02\nwavelength = 5.32e-07\ncount_per_level = 6\n"
            "train_per_level = 4\nbase_seed = 9\nell = 2\nwaist = 0.002\nz_obs = 0.3\n"
            "observation = free\n"
        )
        values = read_config_file(cfg)
        assert values == {
            "grid_n": 16,
            "grid_side": 0.02,
            "wavelength": 5.32e-07,
            "count_per_level": 6,
            "train_per_level": 4,
            "base_seed": 9,
            "ell": 2,
            "waist": 0.002,
            "z_obs": 0.3,
            "observation": "free",
        }
        types = [int, float, float, int, int, int, int, float, float, str]
        assert [type(v) for v in values.values()] == types
        args = build_parser().parse_args(["gen-dataset", "--out", "x", "--config", str(cfg)])
        config = _dataset_config(args)
        assert (config.grid.n, config.grid.side, config.grid.wavelength) == (16, 0.02, 5.32e-07)
        assert (config.count_per_level, config.train_per_level, config.base_seed) == (6, 4, 9)
        beam = (config.ell, config.waist, config.z_obs, config.observation)
        assert beam == (2, 0.002, 0.3, "free")


@pytest.mark.parametrize(
    "path, epoch",
    [
        ("epoch_010.ckpt", 10),
        ("run/epoch_050.ckpt", 50),
        ("run2/epoch_003.ckpt", 3),
        ("run2_epoch_010.ckpt", 10),
        ("epoch_1200.ckpt", 1200),
        ("ckpt-e10-lr0.01.ckpt", 0),
        ("model3.ckpt", 0),
        ("epoch.ckpt", 0),
    ],
)
def test_epoch_read_from_the_name_train_writes(path, epoch):
    assert _epoch_from_name(path) == epoch


class TestTrainEval:
    def test_train_writes_checkpoints_and_loss_csv(self, cli_dataset, tmp_path):
        out = tmp_path / "run"
        rc = main(
            [
                "train",
                "--data",
                cli_dataset,
                "--level",
                "1",
                "--epochs",
                "4",
                "--batch",
                "2",
                "--layers",
                "2",
                "--checkpoint-every",
                "2",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert (out / "epoch_002.ckpt").exists()
        assert (out / "epoch_004.ckpt").exists()
        lines = (out / "loss.csv").read_text().strip().split("\n")
        assert lines[0] == "epoch,loss"
        assert len(lines) == 5  # header + one row per epoch
        losses = [float(row.split(",")[1]) for row in lines[1:]]
        assert all(np.isfinite(v) and v > 0 for v in losses)

    def test_eval_checkpoint_writes_report(self, cli_dataset, tmp_path):
        run = tmp_path / "run"
        main(
            [
                "train",
                "--data",
                cli_dataset,
                "--level",
                "1",
                "--epochs",
                "2",
                "--batch",
                "2",
                "--layers",
                "2",
                "--checkpoint-every",
                "2",
                "--out",
                str(run),
            ]
        )
        report = tmp_path / "report.csv"
        rc = main(
            [
                "eval",
                "--data",
                cli_dataset,
                "--level",
                "1",
                "--checkpoint",
                str(run / "epoch_002.ckpt"),
                "--report",
                str(report),
            ]
        )
        assert rc == 0
        lines = report.read_text().strip().split("\n")
        assert lines[0] == "sample_id,level,mp_distorted,mp_compensated,psnr,epoch"
        assert len(lines) == 3  # two test samples in that level
        assert all(row.split(",")[-1] == "2" for row in lines[1:])

    def test_eval_oracle_stub_and_dump_images(self, cli_dataset, tmp_path):
        report = tmp_path / "oracle.csv"
        dump = tmp_path / "panels"
        rc = main(
            [
                "eval",
                "--data",
                cli_dataset,
                "--level",
                "1",
                "--stub",
                "oracle",
                "--report",
                str(report),
                "--dump-images",
                str(dump),
            ]
        )
        assert rc == 0
        for sid in (10, 11):
            for kind in ("gt", "pred", "dist", "comp"):
                path = dump / f"{sid}_{kind}.pgm"
                assert path.exists()
                img = import_pgm(path)
                assert img.shape == (16, 16)

    def test_eval_zero_stub_matches_distorted(self, cli_dataset, tmp_path):
        report = tmp_path / "zero.csv"
        rc = main(
            ["eval", "--data", cli_dataset, "--level", "0", "--stub", "zero", "--report", str(report)]
        )
        assert rc == 0
        rows = report.read_text().strip().split("\n")[1:]
        for row in rows:
            cols = row.split(",")
            assert float(cols[2]) == pytest.approx(float(cols[3]), abs=1e-9)

    def test_eval_missing_checkpoint_runtime_error(self, cli_dataset, tmp_path):
        rc = main(
            [
                "eval",
                "--data",
                cli_dataset,
                "--level",
                "0",
                "--checkpoint",
                str(tmp_path / "nope.ckpt"),
                "--report",
                str(tmp_path / "r.csv"),
            ]
        )
        assert rc == 1

    @pytest.mark.parametrize("lr", ["nan", "inf", "0", "-0.01"])
    def test_train_bad_learning_rate_runtime_error(self, cli_dataset, tmp_path, capsys, lr):
        out = tmp_path / "run"
        args = ["train", "--data", cli_dataset, "--level", "1", "--epochs", "1"]
        rc = main(args + ["--lr", lr, "--out", str(out)])
        assert rc == 1
        assert "learning rate" in capsys.readouterr().err
        assert list(out.glob("*.ckpt")) == []

    def test_train_missing_dataset_runtime_error(self, tmp_path):
        rc = main(
            [
                "train",
                "--data",
                str(tmp_path / "missing"),
                "--level",
                "0",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 1


class TestInspect:
    def test_beam_dump_with_spectrum(self, tmp_path):
        out = tmp_path / "beam.pgm"
        csv = tmp_path / "spec.csv"
        rc = main(
            [
                "inspect",
                "--beam",
                "--ell",
                "-3",
                "--grid",
                "64",
                "--out",
                str(out),
                "--spectrum-csv",
                str(csv),
            ]
        )
        assert rc == 0
        img = import_pgm(out)
        assert img.shape == (64, 64)
        # doughnut: dark center
        assert img[31:33, 31:33].max() < 0.01
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "ell,weight"
        weights = {int(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
        assert weights[-3] == pytest.approx(1.0, abs=1e-5)
        assert weights[0] < 1e-5

    def test_spectrum_of_large_charge_covers_its_mode(self, tmp_path):
        csv = tmp_path / "spec.csv"
        args = ["inspect", "--beam", "--ell", "12", "--grid", "64"]
        rc = main(args + ["--out", str(tmp_path / "beam.pgm"), "--spectrum-csv", str(csv)])
        assert rc == 0
        rows = [line.split(",") for line in csv.read_text().split()[1:]]
        weights = {int(ell): float(w) for ell, w in rows}
        assert min(weights) == -17 and max(weights) == 17
        assert weights[12] > 0.99

    @pytest.mark.parametrize("n", ["12", str(2**1100)], ids=["12", "2**1100"])
    def test_bad_grid_size_exits_1(self, tmp_path, capsys, n):
        rc = main(["inspect", "--beam", "--grid", n, "--out", str(tmp_path / "beam.pgm")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: grid size must be")
        assert "Traceback" not in err
        assert not (tmp_path / "beam.pgm").exists()

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["inspect", "--out", "x.pgm"])
        assert exc.value.code == 2

    def test_defaults_to_the_desk_grid(self, tmp_path):
        desk = desk_config().grid
        assert option("inspect", "--grid").default == desk.n
        out = tmp_path / "beam.pgm"
        assert main(["inspect", "--beam", "--out", str(out)]) == 0
        assert import_pgm(out).shape == (desk.n, desk.n)


def option(command: str, flag: str) -> argparse.Action:
    """The parser's action for ``flag`` of ``command``."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[command]._actions if flag in a.option_strings)


def test_choices_come_from_the_package():
    assert option("train", "--mode").choices is MODES
    assert option("gen-dataset", "--observation").choices is OBSERVATIONS
