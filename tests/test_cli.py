import hashlib
import json
import multiprocessing
import os
import re
import shutil
import warnings

import numpy as np
import pytest

from conftest import (LINE_CORRUPTIONS, SIDECAR_CORRUPTIONS, corrupt_line, corrupt_sidecar,
                      run_fresh)
from conftest import time_limit as _time_limit
from phyres import cli, evaluation, serialize
from phyres.cli import main, read_records
from phyres.domain import DatasetConfig
from phyres.errors import NumericError
from phyres.evaluation import SweepConfig, run_sweep
from phyres.ingest import read_samples, sidecar_path
from phyres.neuralnet import NetConfig, gradient_check
from phyres.predictors import PredictionBatch, PredictionRecord, write_records


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small end-to-end pipeline run shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.csv"
    samples = root / "samples.jsonl"
    assert run(["synth", "--out", str(corpus), "--seed", "11",
                "--platoons", "4"]) == 0
    assert run(["extract", "--input", str(corpus), "--out", str(samples)]) == 0
    return root, corpus, samples


class TestExitCodes:
    def test_no_command_is_usage_error(self):
        assert run([]) == 1

    def test_unknown_flag_is_usage_error(self):
        assert run(["synth", "--out", "x.csv", "--seed", "1", "--frob", "2"]) == 1

    def test_missing_seed_is_usage_error(self, tmp_path):
        assert run(["synth", "--out", str(tmp_path / "x.csv")]) == 1

    def test_missing_input_file_is_data_error(self, tmp_path):
        assert run(["extract", "--input", str(tmp_path / "nope.csv"),
                    "--out", str(tmp_path / "s.jsonl")]) == 2

    @pytest.mark.parametrize("argv", [
        ["extract", "--input", "{dir}", "--out", "{tmp}/s.jsonl"],
        ["extract", "--input", "{file}/x.csv", "--out", "{tmp}/s.jsonl"],
        ["synth", "--out", "{dir}", "--seed", "1", "--platoons", "1"],
        ["predict", "--weights", "{dir}", "--samples", "{samples}", "--out", "{tmp}/p.jsonl",
         "--variant", "nn"],
    ], ids=["extract-input-folder", "extract-input-under-a-file", "synth-out-folder",
            "predict-weights-folder"])
    def test_path_error_is_data_error_in_one_line(self, workspace, tmp_path, capsys, argv):
        # a folder given as a file, or a file given as a folder
        (tmp_path / "d").mkdir()
        (tmp_path / "f.csv").write_text("")
        argv = [a.format(tmp=tmp_path, dir=tmp_path / "d", file=tmp_path / "f.csv",
                         samples=workspace[2]) for a in argv]
        capsys.readouterr()
        assert run(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and re.fullmatch(r"error: \[Errno \d+\] .+", err[0]), err

    def test_bad_data_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        assert run(["extract", "--input", str(bad),
                    "--out", str(tmp_path / "s.jsonl")]) == 2

    @pytest.mark.parametrize("argv", [
        ["synth", "--out", "{tmp}/c.csv"],
        ["calibrate", "--samples", "{tmp}/s.jsonl", "--out", "{tmp}/c.json", "--model", "newell"],
        ["train", "--samples", "{tmp}/s.jsonl", "--out", "{tmp}/t", "--variant", "nn"],
    ], ids=["synth", "calibrate", "train"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, argv):
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert run(argv + ["--seed", "-1"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["usage error: argument --seed: must be at least 0, got -1"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["extract", "--input", "{tmp}/c.csv", "--out", "{tmp}/s.jsonl", "--delta", "nan"],
        ["synth", "--out", "{tmp}/c.csv", "--seed", "1", "--noise-sigma", "nan"],
        ["synth", "--out", "{tmp}/c.csv", "--seed", "1", "--generator", "newell_shift",
         "--wave-speed", "inf"],
        ["synth", "--out", "{tmp}/c.csv", "--seed", "1", "--initial-gap", "inf"],
        ["train", "--samples", "{tmp}/s.jsonl", "--out", "{tmp}/t", "--seed", "1",
         "--variant", "nn", "--lr", "inf"],
        ["sweep", "--samples", "{tmp}/s.jsonl", "--out", "{tmp}/w", "--seed", "1",
         "--dropout", "NaN"],
    ], ids=["extract-delta", "synth-noise-sigma", "synth-wave-speed", "synth-initial-gap",
            "train-lr", "sweep-dropout"])
    def test_non_finite_float_flag_is_usage_error(self, tmp_path, capsys, argv):
        flag, value = argv[-2:]
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert run(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"usage error: argument {flag}: must be a finite number, "
                       f"got {float(value)}"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("platoons", ["0", "-3"])
    def test_no_platoons_is_usage_error(self, tmp_path, capsys, platoons):
        assert run(["synth", "--out", str(tmp_path / "c.csv"), "--seed", "1",
                    "--platoons", platoons]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"usage error: argument --platoons: must be at least 1, got {platoons}"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("delta", ["0", "-0.1"])
    def test_non_positive_synth_delta_is_config_error(self, tmp_path, capsys, delta):
        assert run(["synth", "--out", str(tmp_path / "c.csv"), "--seed", "1",
                    "--delta", delta]) == 2
        assert _one_error_line(capsys) == "error: delta must be positive"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("lr", ["0", "-0.001", "-1", "1e39", "1e300"])
    def test_non_positive_lr_is_config_error(self, workspace, tmp_path, capsys, command, lr):
        """Also an lr beyond float32's range, which float32 training would
        cast to inf."""
        argv = [command, "--samples", str(workspace[2]), "--out", str(tmp_path / "o"),
                "--seed", "1", "--max-epochs", "1", "--lr", lr]
        argv += ["--variant", "nn"] if command == "train" else ["--data-sizes", "50"]
        capsys.readouterr()
        assert run(argv) == 2
        assert _one_error_line(capsys) == (
            f"error: lr must be > 0 and at most 3.4028234663852886e+38, got {float(lr)}")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cell, lr", [("lstm", "3e38"), ("gru", "1e30")])
    def test_diverging_training_is_one_line(self, workspace, tmp_path, capsys, cell, lr):
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["train", "--samples", str(workspace[2]), "--out", str(tmp_path / "t"),
                        "--seed", "1", "--variant", "nn", "--cell", cell, "--lr", lr,
                        "--max-epochs", "3"]) == 3
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("numeric error: non-finite values in "), err

    # at 1e308 the second follower starts at -inf, so the third one's gap is
    # -inf - (-inf), a NaN
    @pytest.mark.parametrize("gap", ["0", "1e308"])
    def test_failed_platoon_leaves_no_corpus(self, gap, tmp_path, capsys):
        assert run(["synth", "--out", str(tmp_path / "c.csv"), "--seed", "1",
                    "--generator", "newell_shift", "--initial-gap", gap]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["numeric error: persistent gap violation; could not generate platoon"]
        assert list(tmp_path.iterdir()) == []

    def test_failed_platoon_leaves_no_folder(self, tmp_path, capsys):
        assert run(["synth", "--out", str(tmp_path / "new" / "c.csv"), "--seed", "1",
                    "--generator", "newell_shift", "--initial-gap", "0"]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["numeric error: persistent gap violation; could not generate platoon"]
        assert list(tmp_path.iterdir()) == []

    def test_gradcheck_success(self, capsys):
        assert run(["gradcheck", "--cell", "gru"]) == 0
        assert "max relative gradient error" in capsys.readouterr().out


class TestFixedSettings:
    """The synthetic corpus's vehicles, steps, IDM parameters and lead
    profile, and gradcheck's toy net, are constants, not flags."""

    @pytest.mark.parametrize("argv", [
        ["synth", "--seed", "1", "--out", "{tmp}/c.csv", "--v-free", "20"],
        ["synth", "--seed", "1", "--out", "{tmp}/c.csv", "--steps", "50"],
        ["gradcheck", "--units1", "5"],
    ], ids=lambda argv: argv[0] + argv[-2])
    def test_removed_flag_is_usage_error(self, tmp_path, capsys, argv):
        assert run([a.format(tmp=tmp_path) for a in argv]) == 1
        out, err = capsys.readouterr()
        assert err.strip().splitlines() == [
            f"usage error: unrecognized arguments: {argv[-2]} {argv[-1]}"]
        assert out == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cell", ["lstm", "gru"])
    def test_gradcheck_checks_the_old_default_net(self, capsys, cell):
        cfg = NetConfig(cell=cell, units1=4, units2=3, dense_units=4, output_dim=3,
                        input_dim=6, dropout=0.0, output_activation="linear", seed=12345)
        want = f"max relative gradient error: {gradient_check(cfg, t_steps=5):.3e}\n"
        assert run(["gradcheck", "--cell", cell]) == 0
        assert capsys.readouterr().out == want

    def test_settable_value_count(self):
        commands = cli.build_parser()._subparsers._group_actions[0].choices.values()
        options = [a for p in commands for a in p._actions if a.dest not in ("help", "config")]
        assert len(options) == 69


class TestManifests:
    def test_synth_manifest(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["synth", "--out", str(out), "--seed", "11",
                    "--platoons", "2"]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["config"]["seed"] == 11
        assert manifest["outputs"] == ["c.csv"]
        assert manifest["wall_clock_s"] >= 0.0
        assert "tool_version" in manifest

    def test_calibrate_manifest_digests_inputs(self, workspace, tmp_path):
        _, _, samples = workspace
        out = tmp_path / "calib" / "report.json"
        assert run(["calibrate", "--samples", str(samples), "--out", str(out),
                    "--seed", "3", "--model", "idm", "--sample-size", "50",
                    "--repetitions", "1"]) == 0
        manifest = json.loads((out.parent / "manifest.json").read_text())
        assert manifest["command"] == "calibrate"
        digest = manifest["input_digests"]["samples.jsonl"]
        assert digest == hashlib.sha256(samples.read_bytes()).hexdigest()
        report = json.loads(out.read_text())
        assert report["model"] == "idm"
        assert set(report["param_mean"]) == {"v_free", "a_max", "b_comf",
                                             "s0", "t_gap"}

    def test_every_command_manifest(self, workspace, tmp_path, monkeypatch):
        """Each command, run in a folder of its own, leaves one manifest
        there: its command, the sha256 of each input file in flag order
        (input, samples, params_file, weights, records), and every file it
        wrote.  gradcheck writes none."""
        _, corpus, samples = workspace
        net = ["--units1", "4", "--units2", "3", "--dense-units", "4", "--max-epochs", "1"]
        d = {name: tmp_path / name for name in (
            "synth", "extract", "calibrate", "nn", "perl", "predict", "evaluate", "sweep")}
        params, weights, records = (d["calibrate"] / "newell.json", d["perl"] / "weights.json",
                                    d["predict"] / "p.jsonl")
        runs = [
            (["synth", "--out", str(d["synth"] / "c.csv"), "--seed", "1", "--platoons", "1"], []),
            (["extract", "--input", str(corpus), "--out", str(d["extract"] / "s.jsonl")],
             [corpus]),
            (["calibrate", "--samples", str(samples), "--out", str(params), "--seed", "1",
              "--model", "newell", "--sample-size", "20", "--repetitions", "1"], [samples]),
            (["train", "--samples", str(samples), "--out", str(d["nn"]), "--seed", "1",
              "--variant", "nn", *net], [samples]),
            (["train", "--samples", str(samples), "--out", str(d["perl"]), "--seed", "1",
              "--variant", "perl", "--params-file", str(params), *net], [samples, params]),
            (["predict", "--samples", str(samples), "--out", str(records), "--variant", "perl",
              "--weights", str(weights), "--params-file", str(params)],
             [samples, params, weights]),
            (["evaluate", "--samples", str(samples), "--records", str(records),
              "--out", str(d["evaluate"] / "m.json")], [samples, records]),
            (["sweep", "--samples", str(samples), "--out", str(d["sweep"]), "--seed", "1",
              "--variants", "physics,nn", "--data-sizes", "20", *net], [samples]),
        ]
        for (argv, inputs), folder in zip(runs, d.values()):
            assert run(argv) == 0
            manifest = json.loads((folder / "manifest.json").read_text())
            assert list(manifest) == ["tool_version", "command", "config", "input_digests",
                                      "outputs", "wall_clock_s"]
            assert manifest["command"] == argv[0]
            assert list(manifest["input_digests"].items()) == [
                (p.name, hashlib.sha256(p.read_bytes()).hexdigest()) for p in inputs]
            assert manifest["outputs"] == sorted(
                str(p.relative_to(folder)) for p in folder.rglob("*")
                if p.is_file() and p.name != "manifest.json")
        (tmp_path / "gradcheck").mkdir()
        monkeypatch.chdir(tmp_path / "gradcheck")
        assert run(["gradcheck"]) == 0
        assert list((tmp_path / "gradcheck").iterdir()) == []
        assert len(list(tmp_path.rglob("manifest.json"))) == len(runs)


# per command: its flags, then a config file holding one of its own settings
# (and the seed of each command that requires one)
CONFIG_RUNS = {
    "synth": (["--out", "{tmp}/c.csv"], {"seed": 11, "platoons": 2, "noise-sigma": 0.0}),
    "extract": (["--input", "{corpus}", "--out", "{tmp}/s.jsonl"], {"t_fwd": 3}),
    "calibrate": (["--samples", "{samples}", "--out", "{tmp}/c.json", "--sample-size", "20"],
                  {"seed": 4, "model": "newell", "repetitions": 1}),
    "train": (["--samples", "{samples}", "--out", "{tmp}", "--variant", "nn", "--units1", "4",
               "--units2", "3", "--dense-units", "4"], {"seed": 4, "max_epochs": 1}),
    "predict": (["--samples", "{samples}", "--out", "{tmp}/p.jsonl", "--variant", "physics",
                 "--params-file", "{params}"], {"subset": "all"}),
    "evaluate": (["--samples", "{samples}", "--out", "{tmp}/m.json"], {"records": "{records}"}),
    "sweep": (["--samples", "{samples}", "--out", "{tmp}", "--variants", "physics"],
              {"seed": 4, "data_sizes": "20"}),
    "gradcheck": ([], {"cell": "gru"}),
}


class TestConfigFile:
    @pytest.fixture(scope="class")
    def inputs(self, workspace, tmp_path_factory):
        """The paths the commands of CONFIG_RUNS read: the workspace's
        corpus and samples, a Newell report and its test-split records."""
        _, corpus, samples = workspace
        folder = tmp_path_factory.mktemp("config-inputs")
        params, records = folder / "newell.json", folder / "p.jsonl"
        params.write_text(json.dumps({"model": "newell", "param_mean": {"w": 4.0}}))
        assert run(["predict", "--samples", str(samples), "--out", str(records),
                    "--variant", "physics", "--params-file", str(params)]) == 0
        return dict(corpus=corpus, samples=samples, params=params, records=records)

    @pytest.mark.parametrize("command", CONFIG_RUNS)
    def test_config_supplies_defaults_and_seed(self, inputs, tmp_path, monkeypatch, command):
        """A config file supplies a setting of each command, and --config
        stays the first of its flags: the first key after the command in
        the manifest's config."""
        flags, settings = CONFIG_RUNS[command]
        paths = dict(inputs, tmp=tmp_path)
        settings = {k: v.format(**paths) if isinstance(v, str) else v for k, v in settings.items()}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings))
        checked = []
        monkeypatch.setattr(cli, "gradient_check",
                            lambda net, t_steps: checked.append(net.cell) or 0.0)
        assert run([command, "--config", str(cfg), *(f.format(**paths) for f in flags)]) == 0
        if command == "gradcheck":  # it writes no manifest
            assert checked == [settings["cell"]]
            return
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert list(manifest["config"])[:2] == ["command", "config"]
        assert manifest["config"]["config"] == str(cfg)
        for key, value in settings.items():
            assert manifest["config"][key.replace("-", "_")] == value

    def test_explicit_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 11, "platoons": 2}))
        out = tmp_path / "c.csv"
        assert run(["synth", "--config", str(cfg), "--out", str(out),
                    "--platoons", "3"]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["platoons"] == 3

    def test_config_equals_form_is_read(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"platoons": 2}))
        out = tmp_path / "c.csv"
        assert run(["synth", f"--config={cfg}", "--seed", "1", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["platoons"] == 2

    def test_abbreviated_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"platoons": 2}))
        capsys.readouterr()
        assert run(["synth", "--conf", str(cfg), "--seed", "1",
                    "--out", str(tmp_path / "c.csv")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"usage error: unrecognized arguments: --conf {cfg}"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_malformed_config_is_data_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{broken")
        assert run(["synth", "--config", str(cfg),
                    "--out", str(tmp_path / "c.csv")]) == 2

    def test_non_object_config_is_data_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert run(["synth", "--config", str(cfg),
                    "--out", str(tmp_path / "c.csv")]) == 2

    @pytest.mark.parametrize("argv, key", [
        (["synth", "--out", "{tmp}/c.csv"], "seed"),
        (["train", "--samples", "{samples}", "--out", "{tmp}/t", "--seed", "1",
          "--variant", "nn", "--max-epochs", "1"], "lr"),
    ], ids=["synth-seed", "train-lr"])
    def test_nan_config_value_is_data_error(self, workspace, tmp_path, capsys, argv, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"{key}": NaN}}')
        capsys.readouterr()
        argv = [a.format(tmp=tmp_path, samples=workspace[2]) for a in argv]
        assert run(argv + ["--config", str(cfg)]) == 2
        assert f"{cfg}: malformed JSON: NaN is not a finite number" in _one_error_line(capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("config, message", [
        ('{"platoons": 2.5, "seed": 1}', "platoons: invalid int value: '2.5'"),
        ('{"seed": 1e999}', "seed: invalid int value: 'inf'"),
        ('{"seed": "x"}', "seed: invalid int value: 'x'"),
        ('{"seed": 1, "generator": "bogus"}',
         "generator: invalid choice: 'bogus' (choose from idm, newell_shift)"),
        ('{"seed": null}', "seed: expected a string or a number, got null"),
        ('{"seed": -3}', "seed: must be at least 0, got -3"),
        ('{"seed": 1, "noise_sigma": 1e999}', "noise_sigma: must be a finite number, got inf"),
    ], ids=["fractional-int", "overflow", "string", "bad-choice", "null", "negative-seed",
            "overflow-float"])
    def test_ill_typed_config_value_is_usage_error(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        capsys.readouterr()
        assert run(["synth", "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"usage error: config {cfg}: {message}"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("argv, config", [
        (["synth", "--out", "{tmp}/c.csv"], '{"v_free": 20, "seed": 1}'),
        (["gradcheck"], '{"t-steps": 7}'),
        (["synth", "--out", "{tmp}/c.csv"], '{"config": "other.json", "seed": 1}'),
    ], ids=["synth-v-free", "gradcheck-t-steps", "synth-config"])
    def test_key_of_no_command_is_usage_error(self, tmp_path, capsys, argv, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        capsys.readouterr()
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert run(argv + ["--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        key = next(iter(json.loads(config))).replace("-", "_")
        assert captured.err.splitlines() == [
            f"usage error: config {cfg}: {key}: no phyres command has this setting"]
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_key_of_another_command_is_allowed(self, tmp_path):
        # one file can serve several commands: model, max_epochs and units1 are sweep's
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, "platoons": 2, "model": "idm",
                                   "max_epochs": 3, "units1": 5}))
        assert run(["synth", "--config", str(cfg), "--out", str(tmp_path / "c.csv")]) == 0
        assert run(["gradcheck", "--config", str(cfg)]) == 0


class TestDeterminism:
    def test_synth_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run(["synth", "--out", str(out), "--seed", "7",
                        "--platoons", "2", "--noise-sigma", "0.1"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_extract_byte_identical(self, workspace, tmp_path):
        _, corpus, _ = workspace
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert run(["extract", "--input", str(corpus), "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_extract_sidecar_byte_identical_and_listed(self, workspace, tmp_path):
        _, corpus, _ = workspace
        sidecars = []
        for run_dir in (tmp_path / "a", tmp_path / "b"):
            out = run_dir / "samples.jsonl"
            assert run(["extract", "--input", str(corpus), "--out", str(out)]) == 0
            sidecar = sidecar_path(out, hashlib.sha256(out.read_bytes()).hexdigest())
            manifest = json.loads((run_dir / "manifest.json").read_text())
            assert manifest["outputs"] == sorted(["samples.jsonl", sidecar.split("/")[-1]])
            sidecars.append(sidecar)
        with open(sidecars[0], "rb") as a, open(sidecars[1], "rb") as b:
            assert a.read() == b.read()

    def test_samples_hashed_once_per_command(self, workspace, tmp_path, monkeypatch):
        _, _, samples = workspace
        hashed = []
        sha256 = cli._sha256
        monkeypatch.setattr(cli, "_sha256", lambda p: hashed.append(str(p)) or sha256(p))
        out = tmp_path / "calib" / "report.json"
        assert run(["calibrate", "--samples", str(samples), "--out", str(out),
                    "--seed", "3", "--model", "newell", "--sample-size", "50",
                    "--repetitions", "1"]) == 0
        manifest = json.loads((out.parent / "manifest.json").read_text())
        assert manifest["input_digests"] == {
            "samples.jsonl": hashlib.sha256(samples.read_bytes()).hexdigest()}
        assert hashed == []


def _dumps_records(records, path):
    """Reference: the per-record ``serialize.dumps`` writer that the template
    writer replaced."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(serialize.dumps({
                "sample_id": r.sample_id,
                "predicted_accel": r.predicted_accel,
                "predicted_speed": r.predicted_speed,
                "physics_component": r.physics_component,
                "residual_component": r.residual_component,
                "collision_in_rollout": r.collision_in_rollout,
            }))
            fh.write("\n")


class TestRecordWriter:
    EDGE = [-0.0, 5e-324, -5e-324, 1e300, -1e300, 3.0, -7.0, 0.0]

    def _records(self, variant, n=12):
        t_fwd = 5
        rng = np.random.default_rng(len(variant))
        records = []
        for i in range(n):
            accel, speed = rng.normal(size=t_fwd), rng.uniform(0, 30, size=t_fwd)
            accel[i % t_fwd] = self.EDGE[i % len(self.EDGE)]
            speed[(i + 1) % t_fwd] = self.EDGE[(i + 3) % len(self.EDGE)]
            phys = resid = None
            if variant == "perl":
                phys = rng.normal(size=t_fwd)
                phys[i % t_fwd] = self.EDGE[(i + 5) % len(self.EDGE)]
                resid = accel - phys
            records.append(PredictionRecord(
                sample_id=100 + i, predicted_accel=accel, predicted_speed=speed,
                physics_component=phys, residual_component=resid,
                collision_in_rollout=variant == "physics" and i % 3 == 0))
        return records

    @pytest.mark.parametrize("variant", ["physics", "nn", "perl"])
    def test_bytes_match_per_record_dumps(self, variant, tmp_path):
        records = self._records(variant)
        want, got = tmp_path / "want.jsonl", tmp_path / "got.jsonl"
        _dumps_records(records, want)
        write_records(PredictionBatch.of(records), got)
        assert got.read_bytes() == want.read_bytes()
        # and the reader returns the written doubles, -0.0 included
        for a, b in zip(records, read_records(got)):
            assert a.predicted_accel.tobytes() == b.predicted_accel.tobytes()

    @pytest.mark.parametrize("variant", ["nn", "perl"])
    def test_read_back_bit_exact(self, variant, tmp_path):
        # EDGE puts -0.0, 5e-324 and 1e300 into the accel, speed and physics arrays;
        # nn writes null components
        written = PredictionBatch.of(self._records(variant))
        write_records(written, tmp_path / "p.jsonl")
        read = read_records(tmp_path / "p.jsonl")
        for name, col in vars(written).items():
            got = getattr(read, name)
            if col is None:
                assert got is None, name
            else:
                assert (got.dtype, got.shape, got.tobytes()) == (col.dtype, col.shape, col.tobytes())

    def test_non_finite_prediction_is_numeric_error(self, tmp_path):
        records = self._records("perl", 3)
        records[1].residual_component[2] = np.nan
        with pytest.raises(NumericError, match="sample 101$"):
            write_records(PredictionBatch.of(records), tmp_path / "out" / "p.jsonl")
        assert list(tmp_path.iterdir()) == []  # no file, and no folder


class TestPipeline:
    def test_train_predict_evaluate(self, workspace, tmp_path):
        _, _, samples = workspace
        calib = tmp_path / "calib" / "report.json"
        assert run(["calibrate", "--samples", str(samples), "--out", str(calib),
                    "--seed", "3", "--model", "newell", "--sample-size", "50",
                    "--repetitions", "1"]) == 0

        train_dir = tmp_path / "train"
        assert run(["train", "--samples", str(samples), "--out", str(train_dir),
                    "--seed", "1", "--variant", "perl",
                    "--params-file", str(calib), "--units1", "6",
                    "--units2", "4", "--dense-units", "6",
                    "--max-epochs", "3", "--patience", "3"]) == 0
        report = json.loads((train_dir / "train_report.json").read_text())
        assert len(report["per_epoch"]) == 3

        preds = tmp_path / "preds.jsonl"
        assert run(["predict", "--samples", str(samples), "--out", str(preds),
                    "--variant", "perl", "--params-file", str(calib),
                    "--weights", str(train_dir / "weights.json")]) == 0
        records = read_records(preds)
        assert records and records[0].physics_component is not None

        metrics = tmp_path / "metrics.json"
        assert run(["evaluate", "--samples", str(samples),
                    "--records", str(preds), "--out", str(metrics)]) == 0
        obj = json.loads(metrics.read_text())
        assert obj["n_samples"] == len(records)
        assert obj["mse_a_test"] >= 0.0

    def test_train_without_params_file_is_config_error(self, workspace, tmp_path, capsys):
        _, _, samples = workspace
        capsys.readouterr()
        assert run(["train", "--samples", str(samples),
                    "--out", str(tmp_path / "t"), "--seed", "1",
                    "--variant", "pinn", "--max-epochs", "1"]) == 2
        assert "pinn variant needs calibrated params" in _one_error_line(capsys)
        assert not (tmp_path / "t").exists()

    def test_zero_max_epochs_is_config_error(self, workspace, tmp_path, capsys):
        _, _, samples = workspace
        capsys.readouterr()
        assert run(["train", "--samples", str(samples),
                    "--out", str(tmp_path / "t"), "--seed", "1",
                    "--variant", "nn", "--max-epochs", "0"]) == 2
        assert "max_epochs must be >= 1" in _one_error_line(capsys)
        assert not (tmp_path / "t" / "weights.json").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--data-sizes", "20,abc"), ("--seeds", "1,x"), ("--variants", "physics,foo"),
        ("--data-sizes", "-5"), ("--data-sizes", "20,0"), ("--seeds", "1,-1"),
        ("--split-seed", "-1"),
    ])
    def test_bad_sweep_list_is_usage_error(self, tmp_path, capsys, flag, value):
        # the lists are checked before the (here missing) samples file is read
        out = tmp_path / "sweep"
        assert run(["sweep", "--samples", str(tmp_path / "none.jsonl"),
                    "--out", str(out), "--seed", "0", flag, value]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: "), err
        assert flag in err[0] and not out.exists()

    def test_bad_config_variant_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"variants": "physics,foo"}')
        out = tmp_path / "sweep"
        assert run(["sweep", "--config", str(cfg), "--samples", str(tmp_path / "none.jsonl"),
                    "--out", str(out), "--seed", "0"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"usage error: config {cfg}: variants: invalid choice: 'foo' "
                       "(choose from physics, nn, pinn, perl)"]
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, repeated", [
        ("--variants", "physics,nn,physics", "'physics'"),
        ("--data-sizes", "20,40,20", "20"),
        ("--seeds", "1,2,01", "1"),
    ])
    def test_repeated_sweep_list_value_is_usage_error(self, workspace, tmp_path, capsys,
                                                      monkeypatch, flag, value, repeated):
        def no_fit(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli, "run_sweep", no_fit)
        _, _, samples = workspace
        out = tmp_path / "sweep"
        lists = {"--variants": "physics", "--data-sizes": "20", flag: value}
        capsys.readouterr()
        assert run(["sweep", "--samples", str(samples), "--out", str(out), "--seed", "0",
                    *(a for item in lists.items() for a in item)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"usage error: argument {flag}: repeated value {repeated}"]
        assert not out.exists()

    def test_sweep_outputs_and_exit_code(self, workspace, tmp_path, capsys):
        _, _, samples = workspace
        out = tmp_path / "sweep"
        capsys.readouterr()
        assert run(["sweep", "--samples", str(samples), "--out", str(out),
                    "--seed", "0", "--variants", "physics,nn",
                    "--data-sizes", "20,40", "--model", "idm",
                    "--units1", "6", "--units2", "4", "--dense-units", "6",
                    "--max-epochs", "2", "--patience", "2"]) == 0
        agg = json.loads((out / "aggregate.json").read_text())
        assert len(agg) == 4
        assert (out / "summary_long.csv").exists()
        assert (out / "sweep" / "physics" / "20" / "0" / "report.json").exists()
        # one stderr line per cell, as it finishes
        lines = capsys.readouterr().err.splitlines()
        cells = sorted(re.fullmatch(r"cell (\w+)/(\d+)/0 in \d+\.\d\d s: "
                                    r"mse_a_test (\S+)", line).group(1, 2, 3)
                       for line in lines)
        assert cells == sorted((r["variant"], str(r["data_size"]),
                                format(r["mse_a_test"], ".6g")) for r in agg)

    def test_all_cells_failed_exits_4_with_manifest(self, workspace, tmp_path, capsys,
                                                    monkeypatch):
        def failing(*args):
            raise RuntimeError("training diverged")

        # the forked worker inherits the patched module
        monkeypatch.setattr(evaluation, "train", failing)
        _, _, samples = workspace
        out = tmp_path / "sweep"
        capsys.readouterr()
        assert run(["sweep", "--samples", str(samples), "--out", str(out), "--seed", "0",
                    "--variants", "nn", "--data-sizes", "20", "--max-epochs", "1"]) == 4
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["sweep: 0/1 cells succeeded"]
        assert re.fullmatch(r"cell nn/20/0 in \S+ s: failed\n", captured.err)
        manifest = json.loads((out / "manifest.json").read_text())
        assert "summary_long.csv" in manifest["outputs"]
        assert "convergence.csv" in manifest["outputs"]

    def test_dead_worker_fails_its_cells(self, workspace, tmp_path, capsys, monkeypatch):
        _, _, samples = workspace
        parent = os.getpid()

        def die(*args):
            if os.getpid() == parent:
                raise AssertionError("a learned cell ran in the sweep's own process")
            os._exit(9)

        monkeypatch.setattr(evaluation, "train", die)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        out = tmp_path / "sweep"
        capsys.readouterr()
        with _time_limit(120):
            code = run(["sweep", "--samples", str(samples), "--out", str(out),
                        "--seed", "0", "--variants", "physics,nn,perl",
                        "--data-sizes", "20", "--model", "idm", "--max-epochs", "1"])
        assert code == 4
        assert multiprocessing.active_children() == []
        lines = sorted(capsys.readouterr().err.splitlines())
        assert lines[:2] == ["cell nn/20/0: failed", "cell perl/20/0: failed"]
        assert re.fullmatch(r"cell physics/20/0 in \S+ s: mse_a_test \S+", lines[2])
        for variant in ("nn", "perl", "physics"):
            report = json.loads((out / "sweep" / variant / "20" / "0" / "report.json")
                                .read_text())
            assert (report["error"] is None) == (variant == "physics"), variant
            if variant != "physics":
                assert "BrokenProcessPool" in report["error"]

    def test_sweep_bad_training_setting_fails_before_any_fit(self, workspace, tmp_path,
                                                              capsys, monkeypatch):
        _, _, samples = workspace
        fits = []
        monkeypatch.setattr(evaluation, "monte_carlo_calibrate", lambda *a: fits.append(a))
        out = tmp_path / "sweep"
        capsys.readouterr()
        assert run(["sweep", "--samples", str(samples), "--out", str(out),
                    "--seed", "0", "--data-sizes", "40", "--max-epochs", "0"]) == 2
        assert "max_epochs must be >= 1" in _one_error_line(capsys)
        assert not fits and not out.exists()

    def test_sweep_bad_net_setting_fails_before_any_fit(self, workspace, tmp_path, capsys,
                                                         monkeypatch):
        _, _, samples = workspace
        fits = []
        monkeypatch.setattr(evaluation, "monte_carlo_calibrate", lambda *a: fits.append(a))
        out = tmp_path / "sweep"
        capsys.readouterr()
        assert run(["sweep", "--samples", str(samples), "--out", str(out),
                    "--seed", "0", "--data-sizes", "40", "--units1", "0"]) == 2
        assert _one_error_line(capsys) == "error: units1 must be >= 1"
        assert not fits and not out.exists()

    def test_sweep_partial_failure_exit_code(self, workspace, tmp_path, capsys, monkeypatch):
        _, _, samples = workspace

        def failing(*args):
            raise RuntimeError("training diverged")

        monkeypatch.setattr(evaluation, "train", failing)  # the forked workers inherit it
        out = tmp_path / "sweep_fail"
        capsys.readouterr()
        assert run(["sweep", "--samples", str(samples), "--out", str(out),
                    "--seed", "0", "--variants", "physics,nn",
                    "--data-sizes", "20", "--model", "idm", "--max-epochs", "1"]) == 4
        lines = sorted(capsys.readouterr().err.splitlines())
        assert re.fullmatch(r"cell nn/20/0 in \S+ s: failed", lines[0])
        assert re.fullmatch(r"cell physics/20/0 in \S+ s: mse_a_test \S+", lines[1])
        assert len(lines) == 2


    def test_sweep_scores_with_the_samples_delta(self, tmp_path):
        corpus, samples = tmp_path / "c.csv", tmp_path / "s.jsonl"
        assert run(["synth", "--out", str(corpus), "--seed", "3", "--platoons", "4",
                    "--delta", "0.2", "--generator", "newell_shift"]) == 0
        assert run(["extract", "--input", str(corpus), "--out", str(samples),
                    "--delta", "0.2"]) == 0
        out = tmp_path / "sweep"
        assert run(["sweep", "--samples", str(samples), "--out", str(out),
                    "--seed", "0", "--variants", "physics",
                    "--data-sizes", "40"]) == 0
        got = json.loads((out / "sweep" / "physics" / "40" / "0" / "report.json")
                         .read_text())["eval"]
        dcfg = DatasetConfig(delta=0.2, k_vehicles=4, t_back=20, t_fwd=5,
                             omega_train=0.6, omega_val=0.2, seed=0)
        [cell] = run_sweep(read_samples(samples)[0], dcfg,
                           SweepConfig(variants=("physics",), data_sizes=(40,)))
        assert got["mse_a_test"] == cell.eval_report.mse_a_test
        assert got["mse_v_test"] == cell.eval_report.mse_v_test


def _with_out_b(weights: dict, value) -> dict:
    """A weights object whose output biases all hold ``value``."""
    out_b = weights["tensors"]["out_b"]
    return dict(weights, tensors=dict(weights["tensors"], out_b=dict(
        out_b, values=[value] * len(out_b["values"]))))


def _one_error_line(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


class TestGeometryFlags:
    """The sample geometry is extract's to set; later commands read it from
    the samples header and have no flags for it."""

    @pytest.mark.parametrize("flag, value", [
        ("--delta", "0.2"), ("--k-vehicles", "3"), ("--t-back", "10"), ("--t-fwd", "3")])
    @pytest.mark.parametrize("argv", [
        ["calibrate", "--seed", "0", "--model", "newell"],
        ["train", "--seed", "0", "--variant", "nn"],
        ["predict", "--variant", "nn"],
        ["sweep", "--seed", "0"],
    ], ids=lambda argv: argv[0])
    def test_reading_commands_reject_geometry_flags(self, workspace, tmp_path, capsys,
                                                    argv, flag, value):
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(argv + ["--samples", str(workspace[2]), "--out", str(out),
                           flag, value]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: "), err
        assert flag in err[0] and not out.exists()

    def test_extract_sets_the_header_geometry(self, workspace, tmp_path):
        samples = tmp_path / "samples.jsonl"
        assert run(["extract", "--input", str(workspace[1]), "--out", str(samples),
                    "--t-fwd", "3"]) == 0
        assert read_samples(samples)[1]["t_fwd"] == 3
        assert json.loads(samples.read_text().splitlines()[0])["t_fwd"] == 3


class TestArtifactMismatch:
    @pytest.fixture(scope="class")
    def artifacts(self, workspace):
        """A net trained on 5-step samples, hand-written Newell params and
        the same corpus extracted with a 3-step horizon."""
        root, corpus, samples = workspace
        out = root / "mismatch"
        params = out / "params.json"
        out.mkdir()
        params.write_text(json.dumps({"model": "newell", "param_mean": {"w": 4.0}}))
        assert run(["train", "--samples", str(samples), "--out", str(out / "nn"),
                    "--seed", "1", "--variant", "nn", "--units1", "4",
                    "--units2", "3", "--dense-units", "4", "--max-epochs", "1"]) == 0
        short = out / "samples_t3.jsonl"
        assert run(["extract", "--input", str(corpus), "--out", str(short),
                    "--t-fwd", "3"]) == 0
        return samples, short, params, out / "nn" / "weights.json"

    @pytest.mark.parametrize("variant", ["nn", "perl"])
    def test_predict_horizon_mismatch(self, artifacts, variant, tmp_path, capsys):
        _, short, params, weights = artifacts
        capsys.readouterr()
        assert run(["predict", "--samples", str(short), "--out", str(tmp_path / "p.jsonl"),
                    "--variant", variant, "--params-file", str(params),
                    "--weights", str(weights)]) == 2
        assert "horizon" in _one_error_line(capsys)

    @pytest.mark.parametrize("variant", ["nn", "perl"])
    def test_overflowing_prediction_is_one_line(self, artifacts, variant, tmp_path, capsys):
        """Output biases of 1e308 take the predicted speeds past the float
        range: exit 3 with one line, no numpy warning and no output folder."""
        samples, _, params, weights = artifacts
        big = tmp_path / "weights.json"
        big.write_text(json.dumps(_with_out_b(json.loads(weights.read_text()), 1e308)))
        out = tmp_path / "pred" / "preds.jsonl"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["predict", "--samples", str(samples), "--out", str(out),
                        "--variant", variant, "--params-file", str(params),
                        "--weights", str(big)]) == 3
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and re.fullmatch(
            r"numeric error: non-finite prediction for sample \d+", err[0]), err
        assert not out.parent.exists()

    def test_overflowing_score_is_one_line(self, artifacts, tmp_path, capsys):
        """A predicted acceleration of 1e200 squares past the float range:
        exit 3 with one line naming the metrics file, no numpy warning, and
        no metrics, manifest or folder."""
        samples, _, _, weights = artifacts
        preds = tmp_path / "p.jsonl"
        assert run(["predict", "--samples", str(samples), "--out", str(preds),
                    "--variant", "nn", "--weights", str(weights)]) == 0
        lines = preds.read_text().splitlines()
        obj = json.loads(lines[0])
        obj["predicted_accel"][0] = 1e200
        lines[0] = json.dumps(obj)
        preds.write_text("\n".join(lines) + "\n")
        metrics = tmp_path / "eval" / "metrics.json"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["evaluate", "--samples", str(samples), "--records", str(preds),
                        "--out", str(metrics)]) == 3
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err.strip().splitlines() == [
            f"numeric error: {metrics}: infinity is not representable in the file formats"]
        assert not metrics.parent.exists()

    def test_evaluate_horizon_mismatch(self, artifacts, tmp_path, capsys):
        samples, short, _, weights = artifacts
        preds = tmp_path / "p.jsonl"
        assert run(["predict", "--samples", str(samples), "--out", str(preds),
                    "--variant", "nn", "--weights", str(weights)]) == 0
        capsys.readouterr()
        assert run(["evaluate", "--samples", str(short), "--records", str(preds),
                    "--out", str(tmp_path / "m.json")]) == 2
        assert "horizon" in _one_error_line(capsys)

    def test_sample_shape_mismatch_is_data_error(self, artifacts, tmp_path, capsys):
        lines = artifacts[0].read_text().splitlines()
        obj = json.loads(lines[5])
        obj["hist_speed"] = obj["hist_speed"][:-1]
        lines[5] = json.dumps(obj)
        bad = tmp_path / "samples.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["calibrate", "--samples", str(bad), "--out", str(tmp_path / "c.json"),
                    "--seed", "0", "--model", "newell"]) == 2
        assert ":6: hist_speed has shape" in _one_error_line(capsys)

    def test_spacing_position_mismatch_is_data_error(self, artifacts, tmp_path, capsys):
        lines = artifacts[0].read_text().splitlines()
        obj = json.loads(lines[5])
        obj["hist_spacing"][1][0] += 0.5
        lines[5] = json.dumps(obj)
        bad = tmp_path / "samples.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["calibrate", "--samples", str(bad), "--out", str(tmp_path / "c.json"),
                    "--seed", "0", "--model", "newell"]) == 2
        assert ":6: hist_spacing differs" in _one_error_line(capsys)

    def test_repeated_sample_id_is_data_error(self, artifacts, tmp_path, capsys):
        lines = artifacts[0].read_text().splitlines()
        assert lines[5].startswith('{"sample_id":4,')
        lines[5] = lines[5].replace('{"sample_id":4,', '{"sample_id":3,', 1)
        bad = tmp_path / "samples.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["calibrate", "--samples", str(bad), "--out", str(tmp_path / "c.json"),
                    "--seed", "0", "--model", "newell"]) == 2
        assert _one_error_line(capsys) == f"error: {bad}:6: sample_id 3 repeats line 5"
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize("case", list(LINE_CORRUPTIONS))
    def test_corrupt_sample_line_is_data_error(self, workspace, case, tmp_path, capsys):
        samples = tmp_path / "samples.jsonl"
        shutil.copy(workspace[2], samples)  # no sidecar: the lines are parsed
        corrupt_line(samples, case, 3)  # sample 1, so an id read as 1 repeats no other
        capsys.readouterr()
        assert run(["calibrate", "--samples", str(samples), "--out", str(tmp_path / "c.json"),
                    "--seed", "0", "--model", "newell"]) == 2
        assert _one_error_line(capsys).startswith(f"error: {samples}:3: ")
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize("case", list(SIDECAR_CORRUPTIONS))
    def test_corrupt_sidecar_is_data_error(self, workspace, case, tmp_path, capsys):
        samples = tmp_path / "samples.jsonl"
        shutil.copy(workspace[2], samples)
        sidecar = sidecar_path(samples, hashlib.sha256(samples.read_bytes()).hexdigest())
        shutil.copy(sidecar_path(workspace[2], sidecar.split(".")[-2]), sidecar)
        corrupt_sidecar(sidecar, case, k=4, tb=20)
        capsys.readouterr()
        assert run(["calibrate", "--samples", str(samples), "--out", str(tmp_path / "c.json"),
                    "--seed", "0", "--model", "newell"]) == 2
        assert _one_error_line(capsys).startswith(f"error: {sidecar}: ")
        assert not (tmp_path / "c.json").exists()

    def test_non_finite_csv_value_is_data_error(self, workspace, tmp_path, capsys):
        rows = workspace[1].read_text().splitlines()
        cells = rows[40].split(",")
        cells[3] = "nan"  # speed
        rows[40] = ",".join(cells)
        corpus = tmp_path / "corpus.csv"
        corpus.write_text("\n".join(rows) + "\n")
        out = tmp_path / "samples.jsonl"
        capsys.readouterr()
        assert run(["extract", "--input", str(corpus), "--out", str(out)]) == 2
        assert f"{corpus}:41: non-finite value" in _one_error_line(capsys)
        assert not out.exists()

    def test_non_finite_sample_token_is_data_error(self, artifacts, tmp_path, capsys):
        samples, _, _, weights = artifacts
        preds = tmp_path / "p.jsonl"
        assert run(["predict", "--samples", str(samples), "--out", str(preds),
                    "--variant", "nn", "--weights", str(weights)]) == 0
        lines = samples.read_text().splitlines()
        obj = json.loads(lines[5])
        obj["ego_future_accel"][2] = float("nan")
        lines[5] = json.dumps(obj)  # writes the bare NaN token
        bad = tmp_path / "samples.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        metrics = tmp_path / "m.json"
        capsys.readouterr()
        assert run(["evaluate", "--samples", str(bad), "--records", str(preds),
                    "--out", str(metrics)]) == 2
        assert f"{bad}:6: malformed sample: NaN" in _one_error_line(capsys)
        assert not metrics.exists()

    @pytest.mark.parametrize("edit", [
        lambda obj: [obj],
        lambda obj: {k: v for k, v in obj.items() if k != "predicted_speed"},
        lambda obj: dict(obj, predicted_accel=["x"] * len(obj["predicted_accel"])),
        lambda obj: dict(obj, sample_id=float("inf")),  # written as Infinity
        lambda obj: dict(obj, sample_id=obj["sample_id"] + 0.5),
        lambda obj: dict(obj, sample_id=1e300),  # integral, but beyond an int64 id
        lambda obj: dict(obj, sample_id=str(obj["sample_id"])),
        lambda obj: dict(obj, collision_in_rollout="no"),
        lambda obj: dict(obj, collision_in_rollout=0),
        lambda obj: dict(obj, predicted_speed=[str(v) for v in obj["predicted_speed"]]),
        lambda obj: dict(obj, predicted_accel=[True] + obj["predicted_accel"][1:]),
        lambda obj: dict(obj, predicted_accel=None),
    ], ids=["not-object", "missing-key", "non-numeric", "infinite-id", "fractional-id",
            "huge-id", "string-id", "string-collision", "number-collision", "numeric-string",
            "bool-value", "null-array"])
    def test_malformed_record_is_data_error(self, artifacts, edit, tmp_path, capsys):
        samples, _, _, weights = artifacts
        preds = tmp_path / "p.jsonl"
        assert run(["predict", "--samples", str(samples), "--out", str(preds),
                    "--variant", "nn", "--weights", str(weights)]) == 0
        lines = preds.read_text().splitlines()
        lines[2] = json.dumps(edit(json.loads(lines[2])))
        preds.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(["evaluate", "--samples", str(samples), "--records", str(preds),
                    "--out", str(tmp_path / "m.json")]) == 2
        assert f"{preds}:3: malformed record" in _one_error_line(capsys)
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("token, message", [
        ("NaN", ":3: malformed record: ValueError('NaN is not a finite number')"),
        ("1e999", ":3: malformed record: predicted_accel holds inf, not a finite JSON number"),
    ], ids=["nan-token", "overflow"])
    def test_non_finite_record_is_data_error(self, artifacts, token, message,
                                             tmp_path, capsys):
        samples, _, _, weights = artifacts
        preds = tmp_path / "p.jsonl"
        assert run(["predict", "--samples", str(samples), "--out", str(preds),
                    "--variant", "nn", "--weights", str(weights)]) == 0
        lines = preds.read_text().splitlines()
        obj = json.loads(lines[2])
        obj["predicted_accel"][1] = "TOKEN"
        lines[2] = json.dumps(obj).replace('"TOKEN"', token)
        preds.write_text("\n".join(lines) + "\n")
        metrics = tmp_path / "m.json"
        capsys.readouterr()
        assert run(["evaluate", "--samples", str(samples), "--records", str(preds),
                    "--out", str(metrics)]) == 2
        assert f"{preds}{message}" in _one_error_line(capsys)
        assert not metrics.exists()

    def test_empty_records_is_data_error(self, artifacts, tmp_path, capsys):
        samples = artifacts[0]
        preds, metrics = tmp_path / "p.jsonl", tmp_path / "m.json"
        preds.write_text("")
        capsys.readouterr()
        assert run(["evaluate", "--samples", str(samples), "--records", str(preds),
                    "--out", str(metrics)]) == 2
        assert _one_error_line(capsys) == "error: no prediction records to score"
        assert not metrics.exists()

    def _perl_records(self, artifacts, tmp_path):
        samples, _, params, weights = artifacts
        preds = tmp_path / "p.jsonl"
        assert run(["predict", "--samples", str(samples), "--out", str(preds),
                    "--variant", "perl", "--params-file", str(params),
                    "--weights", str(weights)]) == 0
        return preds, preds.read_text().splitlines()

    def test_records_of_mixed_layouts_are_data_error(self, artifacts, tmp_path, capsys):
        """Three records without a physics part, then full perl records: each
        column is all null or all arrays."""
        preds, lines = self._perl_records(artifacts, tmp_path)
        lines[:3] = [json.dumps(dict(json.loads(line), physics_component=None))
                     for line in lines[:3]]
        preds.write_text("\n".join(lines) + "\n")
        metrics = tmp_path / "m.json"
        capsys.readouterr()
        assert run(["evaluate", "--samples", str(artifacts[0]), "--records", str(preds),
                    "--out", str(metrics)]) == 2
        assert _one_error_line(capsys) == (f"error: {preds}:4: malformed record: "
                                           "physics_component is 5 numbers, line 1's is null")
        assert not metrics.exists()

    def test_repeated_record_id_is_data_error(self, artifacts, tmp_path, capsys):
        preds, lines = self._perl_records(artifacts, tmp_path)
        sid = json.loads(lines[1])["sample_id"]
        lines[4] = json.dumps(dict(json.loads(lines[4]), sample_id=sid))
        preds.write_text("\n".join(lines) + "\n")
        metrics = tmp_path / "m.json"
        capsys.readouterr()
        assert run(["evaluate", "--samples", str(artifacts[0]), "--records", str(preds),
                    "--out", str(metrics)]) == 2
        assert _one_error_line(capsys) == f"error: {preds}:5: sample_id {sid} repeats line 2"
        assert not metrics.exists()

    @pytest.mark.parametrize("edit", [
        lambda obj: [obj],
        lambda obj: {k: v for k, v in obj.items() if k != "net_config"},
        lambda obj: {k: v for k, v in obj.items() if k != "tensors"},
        lambda obj: dict(obj, tensors={
            name: dict(t, values=t["values"][:-1]) for name, t in obj["tensors"].items()}),
        lambda obj: _with_out_b(obj, float("nan")),  # written as NaN
        lambda obj: _with_out_b(obj, "1e999"),
        lambda obj: dict(obj, norm_stats=dict(obj["norm_stats"], speed_std="1e999")),
        lambda obj: _with_out_b(obj, "0.5"),
        lambda obj: _with_out_b(obj, True),
        lambda obj: dict(obj, norm_stats=dict(obj["norm_stats"], accel_std="0.5")),
        lambda obj: dict(obj, norm_stats=dict(obj["norm_stats"], accel_std=True)),
        lambda obj: dict(obj, net_config=dict(obj["net_config"], units1="4")),
        lambda obj: dict(obj, net_config=dict(obj["net_config"], units1=4.5)),
        lambda obj: dict(obj, net_config=dict(obj["net_config"], seed=True)),
        lambda obj: dict(obj, net_config=dict(obj["net_config"], dropout="0.2")),
        lambda obj: dict(obj, net_config=dict(obj["net_config"], dropout=False)),
        lambda obj: dict(obj, format_version=True),
        lambda obj: dict(obj, format_version=1.0),
    ], ids=["not-object", "no-net-config", "no-tensors", "values-misfit-shape",
            "nan-token", "overflow", "overflow-norm-stat", "string-value", "bool-value",
            "string-norm-stat", "bool-norm-stat", "string-int-config", "fractional-int-config",
            "bool-int-config", "string-float-config", "bool-float-config",
            "bool-format-version", "float-format-version"])
    def test_malformed_weights_is_data_error(self, artifacts, edit, tmp_path, capsys):
        samples, _, _, weights = artifacts
        bad = tmp_path / "weights.json"
        # the quoted "1e999" becomes a literal that json reads as infinity
        bad.write_text(json.dumps(edit(json.loads(weights.read_text())))
                       .replace('"1e999"', "1e999"))
        capsys.readouterr()
        assert run(["predict", "--samples", str(samples), "--out", str(tmp_path / "p.jsonl"),
                    "--variant", "nn", "--weights", str(bad)]) == 2
        assert str(bad) in _one_error_line(capsys)

    @pytest.mark.parametrize("key, value", [
        ("delta", '"0.10000000000000001"'), ("t_fwd", '"5"'), ("t_back", "true"),
        ("k_vehicles", "4.0"), ("format_version", "true"), ("format_version", "1.0"),
        ("k_vehicles", str(10**30))])  # no matrix that wide can be allocated
    def test_non_number_header_is_data_error(self, workspace, key, value, tmp_path, capsys):
        _, _, samples = workspace
        header, rest = samples.read_text().split("\n", 1)
        obj = json.loads(header)
        obj[key] = "VALUE"
        bad = tmp_path / "samples.jsonl"
        bad.write_text(json.dumps(obj).replace('"VALUE"', value) + "\n" + rest)
        capsys.readouterr()
        assert run(["calibrate", "--samples", str(bad), "--out", str(tmp_path / "c.json"),
                    "--seed", "0", "--model", "newell", "--sample-size", "20",
                    "--repetitions", "1"]) == 2
        line = _one_error_line(capsys)
        assert f"{bad}:1: bad header" in line and f"{key} is " in line
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize("content, detail", [
        ('{"model": "newell"}', "not a calibration report"),
        ('{"param_mean": {"w": 4.0}}', "not a calibration report"),
        ('{"model": "idm", "param_mean": {"v_free": 20.0}}', "param_mean lacks a_max"),
        ('{"model": "newell", "param_mean": ', "malformed JSON"),
        ('{"model": "newell", "param_mean": {"w": null}}', "param_mean.w is None"),
        ('{"model": "newell", "param_mean": {"w": "4"}}', "param_mean.w is '4'"),
        ('{"model": "newell", "param_mean": {"w": true}}', "param_mean.w is True"),
        ('{"model": "newell", "param_mean": {"w": 1e999}}', "param_mean.w is inf"),
    ], ids=["no-param-mean", "no-model", "missing-name", "malformed", "null-value",
            "string-value", "bool-value", "overflow"])
    def test_bad_params_file_is_data_error(self, artifacts, content, detail, tmp_path,
                                           capsys):
        samples = artifacts[0]
        bad = tmp_path / "params.json"
        bad.write_text(content)
        capsys.readouterr()
        assert run(["predict", "--samples", str(samples), "--out", str(tmp_path / "p.jsonl"),
                    "--variant", "physics", "--params-file", str(bad)]) == 2
        assert f"{bad}: {detail}" in _one_error_line(capsys)


# Runs the commands given as a JSON list of argv lists, in a new interpreter in
# which any import of scipy fails, after checking that phyres.cli loads none.
NO_SCIPY_SCRIPT = """
import json, sys
import phyres.cli
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, f"import phyres.cli loaded {loaded}"
sys.modules["scipy"] = None  # an import of scipy, or of any part of it, now fails
for argv in json.loads(sys.argv[1]):
    assert phyres.cli.main(argv) == 0, argv
"""


def test_commands_never_load_scipy(tmp_path):
    net = ["--units1", "4", "--units2", "3", "--dense-units", "4",
           "--max-epochs", "2", "--patience", "2"]
    commands = [
        ["synth", "--out", "c.csv", "--seed", "3", "--platoons", "4",
         "--generator", "newell_shift"],
        ["extract", "--input", "c.csv", "--out", "s.jsonl"],
        *(["calibrate", "--samples", "s.jsonl", "--out", f"{model}.json", "--seed", "3",
           "--model", model, "--sample-size", "50", "--repetitions", "2"]
          for model in ("idm", "fvd")),
        ["calibrate", "--samples", "s.jsonl", "--out", "calib.json", "--seed", "3",
         "--model", "newell", "--sample-size", "50", "--repetitions", "2"],
        ["train", "--samples", "s.jsonl", "--out", "t", "--seed", "1", "--variant", "perl",
         "--params-file", "calib.json", *net],
        ["predict", "--samples", "s.jsonl", "--out", "p.jsonl", "--variant", "perl",
         "--params-file", "calib.json", "--weights", "t/weights.json"],
        ["evaluate", "--samples", "s.jsonl", "--records", "p.jsonl", "--out", "m.json"],
        ["sweep", "--samples", "s.jsonl", "--out", "w", "--seed", "0", "--model", "newell",
         "--variants", "physics,perl", "--data-sizes", "40", *net],
        ["sweep", "--samples", "s.jsonl", "--out", "wi", "--seed", "0", "--model", "idm",
         "--variants", "physics", "--data-sizes", "40"],
        ["gradcheck", "--cell", "gru"],
    ]
    run_fresh(NO_SCIPY_SCRIPT, json.dumps(commands), cwd=tmp_path)
    assert (tmp_path / "m.json").exists()
    assert len(json.loads((tmp_path / "w" / "aggregate.json").read_text())) == 2
    assert len(json.loads((tmp_path / "wi" / "aggregate.json").read_text())) == 1
    for model in ("idm", "fvd"):
        assert json.loads((tmp_path / f"{model}.json").read_text())["model"] == model
