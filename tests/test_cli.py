"""Exit-code contract, config-file merging, the run-key schema, echo
reparsing, output-dir guards and names, and end-to-end command workflows
(in-process via main(argv))."""

import csv
import dataclasses
import json
import math
import pathlib
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gnnpeft import cli
from gnnpeft.cli import (RUN_KEYS, UsageError, _fmt, build_parser,
                         build_run_configs, canonical_echo, main, merge_config,
                         parse_config_file)
from gnnpeft.config import config_fingerprint
from gnnpeft.config import PEFT_MODES, ModelConfig, PeftConfig, TrainConfig
from gnnpeft.graphs import generate_synthetic, save_jsonl
from gnnpeft.registry import ParamRegistry, load_checkpoint, save_checkpoint
from gnnpeft.training import TrainingDivergedError

from child_env import child_env

DATA_ARGS = ["--nodes", "6,12", "--edge-prob", "0.5", "--node-vocab", "2,2",
             "--edge-vocab", "2,2", "--tasks", "2", "--seed", "3"]
SMALL_MODEL = ["--emb", "8", "--layers", "2", "--node-vocab", "2,2",
               "--edge-vocab", "2,2", "--dropout", "0.0"]
FAST_TRAIN = ["--epochs", "2", "--batch-size", "8", "--lr", "0.01",
              "--seed", "0"]


@pytest.fixture()
def dataset(tmp_path):
    path = tmp_path / "data.jsonl"
    assert main(["gen-data", "--out", str(path), "--n", "60"] + DATA_ARGS) == 0
    return path


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def grep_value(out: str, key: str) -> str:
    for line in out.splitlines():
        if line.startswith(key + " "):
            return line.split(" ", 1)[1]
    raise AssertionError(f"no {key!r} line in output:\n{out}")


class TestBound:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, ["bound", "--logH", "0", "--delta",
                                    "0.2706705664732254", "--n", "1"])
        assert code == 0
        assert grep_value(out, "gap") == "1.0"

    def test_param_count_form(self, capsys):
        code, out, _ = run(capsys, ["bound", "--params", "10", "--delta",
                                    "0.05", "--n", "100"])
        assert code == 0
        expected = math.sqrt((10 * math.log(2) + math.log(2 / 0.05)) / 200)
        assert float(grep_value(out, "gap")) == pytest.approx(expected,
                                                              rel=1e-12)

    def test_logh_and_params_conflict(self, capsys):
        code, _, err = run(capsys, ["bound", "--logH", "0", "--params", "5",
                                    "--delta", "0.05", "--n", "1"])
        assert code == 1
        assert "exactly one" in err

    def test_bad_delta_is_usage_error(self, capsys):
        code, _, _ = run(capsys, ["bound", "--logH", "0", "--delta", "1.5",
                                  "--n", "1"])
        assert code == 1

    def test_with_train_error_prints_bound(self, capsys):
        code, out, _ = run(capsys, ["bound", "--logH", "0", "--delta",
                                    "0.2706705664732254", "--n", "1",
                                    "--train-error", "0.25"])
        assert code == 0
        assert grep_value(out, "bound") == "1.25"

    def test_console_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gnnpeft", "bound", "--logH", "0",
             "--delta", "0.2706705664732254", "--n", "1"],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0
        assert "gap 1.0" in proc.stdout


class TestCountParams:
    def test_bitfit_pinned_count(self, capsys):
        code, out, _ = run(capsys, ["count-params", "--mode", "bitfit",
                                    "--emb", "300", "--layers", "5",
                                    "--tasks", "1"])
        assert code == 0
        assert grep_value(out, "trainable") == "4801"
        assert grep_value(out, "total") == "1814101"

    def test_unknown_mode_usage_error(self, capsys):
        code, _, err = run(capsys, ["count-params", "--mode", "blorp",
                                    "--emb", "8", "--layers", "1",
                                    "--tasks", "1"])
        assert code == 1

    @pytest.mark.parametrize("flag", [["--tune-backbone-bias", "true"],
                                      ["--tune-backbone-bias", "false"],
                                      ["--tune-backbone-bn", "true"]])
    def test_adapter_flags_refused_by_other_modes(self, capsys, flag):
        argv = ["count-params", "--mode", "lora", "--emb", "16", "--layers", "2"]
        code, _, err = run(capsys, argv + flag)
        assert code == 1
        assert "apply only to mode adaptergnn, not 'lora'" in err
        # the values a config.txt echo carries for every mode stay accepted
        code, out, _ = run(capsys, argv + ["--tune-backbone-bias", "none",
                                           "--tune-backbone-bn", "false"])
        assert code == 0
        assert grep_value(out, "trainable") == "1937"

    def test_writes_json_with_out(self, capsys, tmp_path):
        code, _, _ = run(capsys, ["count-params", "--mode", "bitfit",
                                  "--emb", "300", "--layers", "5",
                                  "--tasks", "1", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "count_params.json").read_text())
        assert payload["trainable"] == 4801


class TestGenData:
    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["gen-data", "--out", str(a), "--n", "20"] + DATA_ARGS) == 0
        assert main(["gen-data", "--out", str(b), "--n", "20"] + DATA_ARGS) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_overwrite_guard(self, tmp_path, capsys):
        path = tmp_path / "d.jsonl"
        args = ["gen-data", "--out", str(path), "--n", "5"] + DATA_ARGS
        assert main(args) == 0
        assert main(args) == 1            # refuses
        assert main(args + ["--force"]) == 0

    def test_defaults_are_the_librarys(self, tmp_path, capsys):
        # the flags hold no defaults of their own, only what was given
        args = build_parser().parse_args(["gen-data", "--out", "x"])
        assert {k: v for k, v in vars(args).items() if v is not None} == {
            "command": "gen-data", "out": "x", "n": 200, "force": False,
            "func": args.func}
        explicit = ["--nodes", "6,16", "--edge-prob", "0.25", "--attr-affinity",
                    "0.0", "--node-vocab", "8,4", "--edge-vocab", "4,3",
                    "--tasks", "1", "--seed", "0"]
        a, b, lib = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "lib.jsonl"
        assert main(["gen-data", "--out", str(a), "--n", "12"]) == 0
        assert main(["gen-data", "--out", str(b), "--n", "12"] + explicit) == 0
        save_jsonl(generate_synthetic(12), lib)
        assert a.read_bytes() == b.read_bytes() == lib.read_bytes()


class TestTrainGuards:
    def test_peft_without_backbone_is_usage_error(self, dataset, capsys,
                                                  tmp_path):
        code, _, err = run(capsys, ["train", "--mode", "adaptergnn", "--data",
                                    str(dataset), "--out",
                                    str(tmp_path / "runs")])
        assert code == 1
        assert "allow-random-backbone" in err

    def test_allow_random_backbone_runs(self, dataset, capsys, tmp_path):
        code, out, _ = run(capsys, ["train", "--mode", "adaptergnn",
                                    "--bottleneck", "3", "--data",
                                    str(dataset), "--out",
                                    str(tmp_path / "runs"),
                                    "--allow-random-backbone"]
                           + SMALL_MODEL + FAST_TRAIN)
        assert code == 0
        grep_value(out, "final_test_auc")

    def test_full_mode_needs_no_backbone(self, dataset, capsys, tmp_path):
        code, _, _ = run(capsys, ["train", "--mode", "full", "--data",
                                  str(dataset), "--out", str(tmp_path / "runs")]
                         + SMALL_MODEL + FAST_TRAIN)
        assert code == 0

    def test_missing_data_file_is_runtime_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, ["train", "--mode", "full", "--data",
                                  str(tmp_path / "nope.jsonl"), "--out",
                                  str(tmp_path / "runs")]
                         + SMALL_MODEL + FAST_TRAIN)
        assert code == 2

    def test_malformed_data_is_runtime_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"nodes": "what"}\n')
        code, _, _ = run(capsys, ["train", "--mode", "full", "--data",
                                  str(bad), "--out", str(tmp_path / "runs")]
                         + SMALL_MODEL + FAST_TRAIN)
        assert code == 2

    @pytest.mark.parametrize("command", ["train", "pretrain"])
    def test_malformed_data_leaves_no_run_directory(self, command, dataset,
                                                    capsys, tmp_path):
        good = dataset.read_text()
        lines = good.splitlines(keepends=True)
        data = tmp_path / "fixable.jsonl"
        data.write_text("".join(lines[:3] + ['{"nodes": "what"}\n'] + lines[3:]))
        runs = tmp_path / "runs"
        args = [command, "--data", str(data), "--out", str(runs)] \
            + SMALL_MODEL + FAST_TRAIN
        code, _, err = run(capsys, args)
        assert code == 2 and err.count("\n") == 1, err
        assert f"{data}:4" in err
        assert not runs.exists()
        data.write_text(good)             # the fixed file reruns without --force
        code, _, err = run(capsys, args)
        assert code == 0, err

    @pytest.mark.parametrize("command,stage", [("train", "train_supervised"),
                                               ("pretrain", "pretrain_edgepred")])
    def test_failed_run_leaves_no_run_directory(self, command, stage, dataset,
                                                capsys, tmp_path, monkeypatch):
        def diverge(*args, **kwargs):
            raise TrainingDivergedError(1, float("nan"))
        monkeypatch.setattr(cli, stage, diverge)
        runs = tmp_path / "runs"
        code, _, err = run(capsys, [command, "--data", str(dataset), "--out",
                                    str(runs)] + SMALL_MODEL + FAST_TRAIN)
        assert code == 2 and err == "error: training diverged at epoch 1: loss=nan\n"
        assert not list(runs.glob("*"))

    # a finite lr this large makes the one step of each epoch non-finite:
    # training stays quiet, and the final evaluation refuses NaN scores
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_run_fails_in_one_line(self, dataset, capsys, tmp_path):
        runs = tmp_path / "runs"
        code, out, err = run(capsys, ["train", "--data", str(dataset), "--out",
                                      str(runs), "--mode", "full", "--batch-size", "64",
                                      "--lr", "1e300"] + SMALL_MODEL)
        assert code == 2 and out == "", err
        assert err == "error: ROC-AUC of NaN scores is undefined\n"
        assert not list(runs.glob("*"))

    @pytest.mark.parametrize("command", ["train", "pretrain"])
    def test_task_count_comes_from_the_data(self, command, dataset, capsys,
                                            tmp_path):
        names = set()
        for i, tasks in enumerate((["--tasks", "1"], ["--tasks", "7"], [])):
            out = tmp_path / f"runs{i}"
            code, stdout, err = run(capsys, [command, "--data", str(dataset),
                                             "--out", str(out)] + tasks
                                    + SMALL_MODEL + FAST_TRAIN)
            assert code == 0, err
            fp = grep_value(stdout, "fingerprint")
            names.add(fp)
            assert parse_config_file(out / fp / "config.txt")["num_tasks"] == "2"
        assert len(names) == 1

    def test_rerun_same_fingerprint_refused_then_forced(self, dataset,
                                                        capsys, tmp_path):
        args = ["train", "--mode", "full", "--data", str(dataset), "--out",
                str(tmp_path / "runs")] + SMALL_MODEL + FAST_TRAIN
        assert main(args) == 0
        assert main(args) == 1
        assert main(args + ["--force"]) == 0


class TestTimings:
    def test_train_writes_timings_outside_the_reproduced_files(self, dataset,
                                                               capsys, tmp_path):
        args = ["train", "--mode", "full", "--data", str(dataset)] + SMALL_MODEL \
            + ["--epochs", "3", "--batch-size", "8", "--lr", "0.01", "--seed", "0"]
        dirs = []
        for out in ("t1", "t2"):
            code, out_text, _ = run(capsys, args + ["--out", str(tmp_path / out)])
            assert code == 0
            dirs.append(tmp_path / out / grep_value(out_text, "fingerprint"))
        for d in dirs:
            assert sorted(p.name for p in d.iterdir()) == [
                "config.txt", "record.csv", "summary.json", "task.ckpt",
                "timings.json"]
            timings = json.loads((d / "timings.json").read_text())
            assert [e["epoch"] for e in timings["epochs"]] == [1, 2, 3]
            for e in timings["epochs"]:
                assert e["train_s"] > 0 and e["eval_s"] > 0
            assert timings["peak_rss_mb"] > 0
            env = timings["environment"]
            assert env["numpy"] == np.__version__
            assert set(env["blas"]) == {"name", "version"}
            assert "OPENBLAS_NUM_THREADS" in env["threads"]
        for name in ("config.txt", "record.csv", "summary.json"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        summary = json.loads((dirs[0] / "summary.json").read_text())
        assert sorted(summary) == sorted([
            "fingerprint", "epochs", "final_train_loss", "final_train_auc",
            "final_test_auc", "final_train_err", "final_test_err", "gap_auc",
            "gap_err", "epoch1_train_loss", "config"])
        assert (dirs[0] / "record.csv").read_text().splitlines()[0] == \
            "epoch,train_loss,train_auc,test_auc,gap"


class TestWorkflow:
    def test_pretrain_train_eval_roundtrip(self, dataset, capsys, tmp_path):
        runs = str(tmp_path / "runs")
        code, out, _ = run(capsys, ["pretrain", "--data", str(dataset),
                                    "--out", runs] + SMALL_MODEL + FAST_TRAIN)
        assert code == 0
        ckpt = grep_value(out, "checkpoint")

        code, out, _ = run(capsys, ["train", "--mode", "adaptergnn",
                                    "--bottleneck", "3", "--data",
                                    str(dataset), "--out", runs,
                                    "--backbone-ckpt", ckpt]
                           + SMALL_MODEL + FAST_TRAIN)
        assert code == 0
        fp = grep_value(out, "fingerprint")
        test_auc = grep_value(out, "final_test_auc")
        task = f"{runs}/{fp}/task.ckpt"

        code, out, _ = run(capsys, ["eval", "--data", str(dataset), "--ckpt",
                                    task, "--backbone-ckpt", ckpt,
                                    "--part", "test"])
        assert code == 0
        assert float(grep_value(out, "auc")) == pytest.approx(
            float(test_auc), abs=1e-9)

    def test_eval_replays_the_recorded_split(self, dataset, capsys, tmp_path):
        runs, out = tmp_path / "runs", tmp_path / "eval"
        code, stdout, _ = run(capsys, ["train", "--mode", "full", "--data",
                                       str(dataset), "--out", str(runs),
                                       "--split", "random", "--fractions",
                                       "0.6,0.2,0.2"] + SMALL_MODEL + FAST_TRAIN)
        assert code == 0
        test_auc = float(grep_value(stdout, "final_test_auc"))
        task = runs / grep_value(stdout, "fingerprint") / "task.ckpt"
        code, stdout, _ = run(capsys, ["eval", "--data", str(dataset), "--ckpt",
                                       str(task), "--part", "test", "--out",
                                       str(out)])
        assert code == 0
        assert float(grep_value(stdout, "auc")) == pytest.approx(test_auc, abs=1e-9)
        assert json.loads((out / "eval.json").read_text()) == {
            "auc": pytest.approx(test_auc, abs=1e-9), "part": "test",
            "split": "random", "fractions": [0.6, 0.2, 0.2], "n_graphs": 12,
            "checkpoint": str(task)}

    def test_task_checkpoint_refused_as_backbone(self, dataset, capsys,
                                                 tmp_path):
        runs = str(tmp_path / "runs")
        code, out, _ = run(capsys, ["train", "--mode", "full", "--data",
                                    str(dataset), "--out", runs]
                           + SMALL_MODEL + FAST_TRAIN)
        assert code == 0
        task = f"{runs}/{grep_value(out, 'fingerprint')}/task.ckpt"
        code, _, err = run(capsys, ["train", "--mode", "adaptergnn",
                                    "--bottleneck", "3", "--data",
                                    str(dataset), "--out", runs,
                                    "--backbone-ckpt", task]
                           + SMALL_MODEL + FAST_TRAIN)
        assert code == 2
        assert f"{task} is not an encoder checkpoint (kind 'task')" in err

    def test_eval_without_required_backbone(self, dataset, capsys, tmp_path):
        runs = str(tmp_path / "runs")
        code, out, _ = run(capsys, ["pretrain", "--data", str(dataset),
                                    "--out", runs] + SMALL_MODEL + FAST_TRAIN)
        ckpt = grep_value(out, "checkpoint")
        code, out, _ = run(capsys, ["train", "--mode", "bitfit", "--data",
                                    str(dataset), "--out", runs,
                                    "--backbone-ckpt", ckpt]
                           + SMALL_MODEL + FAST_TRAIN)
        fp = grep_value(out, "fingerprint")
        code, _, err = run(capsys, ["eval", "--data", str(dataset), "--ckpt",
                                    f"{runs}/{fp}/task.ckpt"])
        assert code == 1
        assert "backbone" in err

    def test_eval_corrupt_checkpoint_runtime_error(self, dataset, capsys,
                                                   tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint\n")
        code, _, _ = run(capsys, ["eval", "--data", str(dataset), "--ckpt",
                                  str(bad)])
        assert code == 2

    def test_eval_ill_typed_task_meta_names_file(self, dataset, capsys,
                                                 tmp_path):
        runs = str(tmp_path / "runs")
        code, out, _ = run(capsys, ["train", "--mode", "full", "--data",
                                    str(dataset), "--out", runs]
                           + SMALL_MODEL + FAST_TRAIN)
        assert code == 0
        meta, params, buffers = load_checkpoint(
            f"{runs}/{grep_value(out, 'fingerprint')}/task.ckpt")
        reg = ParamRegistry()
        for name, arr in params.items():
            reg.add(name, arr, True, "backbone")
        for name, arr in buffers.items():
            reg.add_buffer(name, arr)
        broken = {"config": {k: v for k, v in meta.items() if k != "config"},
                  "seed": {k: v for k, v in meta.items() if k != "seed"}}
        for key, value in (("seed", "0"), ("seed", True), ("seed", 1.5),
                           ("config", ["emb_dim"]), ("backbone_ref", 7),
                           ("backbone_ref", None),
                           ("config", {**meta["config"], "emb_dim": "-1"}),
                           ("config", {**meta["config"], "dropout": "high"}),
                           ("config", {**meta["config"], "emb_dim": [8]})):
            broken[f"{key}={value!r}"] = {**meta, key: value}
        for label, bad_meta in broken.items():
            path = tmp_path / "bad_meta.ckpt"
            save_checkpoint(path, reg, bad_meta)
            code, _, err = run(capsys, ["eval", "--data", str(dataset),
                                        "--ckpt", str(path)])
            assert code == 2, (label, err)
            assert str(path) in err and label.split("=")[0] in err, (label, err)

    def test_eval_bad_recorded_split_names_file(self, dataset, capsys, tmp_path):
        runs = tmp_path / "runs"
        code, out, _ = run(capsys, ["train", "--mode", "full", "--data",
                                    str(dataset), "--out", str(runs)]
                           + SMALL_MODEL + FAST_TRAIN)
        assert code == 0
        meta, params, buffers = load_checkpoint(
            runs / grep_value(out, "fingerprint") / "task.ckpt")
        reg = ParamRegistry()
        for name, arr in params.items():
            reg.add(name, arr, True, "backbone")
        for name, arr in buffers.items():
            reg.add_buffer(name, arr)
        cfg = meta["config"]
        cases = [("split", {k: v for k, v in cfg.items() if k != "split"}),
                 ("fractions", {k: v for k, v in cfg.items() if k != "fractions"})]
        cases += [(key, {**cfg, key: value}) for key, value in (
            ("split", "diagonal"), ("split", 3), ("fractions", "a,b,c"),
            ("fractions", "0.5,0.5"), ("fractions", "0.5,0.5,0.5"),
            ("fractions", [0.8, 0.1, 0.1]))]
        for key, bad in cases:
            path = tmp_path / "bad_split.ckpt"
            save_checkpoint(path, reg, {**meta, "config": bad})
            code, _, err = run(capsys, ["eval", "--data", str(dataset),
                                        "--ckpt", str(path)])
            assert code == 2, (bad, err)
            assert err.count("\n") == 1 and str(path) in err and key in err, err


class TestConfigFile:
    def test_flags_override_file(self, dataset, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("# experiment defaults\nemb_dim=8\nnum_layers=2\n"
                       "node_vocab=2,2\nedge_vocab=2,2\ndropout=0.0\n"
                       "epochs=2\nbatch_size=8\nlr=0.5  # overridden\n"
                       "seed=0\n")
        runs = str(tmp_path / "runs")
        code, out, _ = run(capsys, ["train", "--mode", "full", "--data",
                                    str(dataset), "--out", runs, "--config",
                                    str(cfg), "--lr", "0.01"])
        assert code == 0
        fp = grep_value(out, "fingerprint")
        echo = parse_config_file(f"{runs}/{fp}/config.txt")
        assert echo["lr"] == "0.01"
        assert echo["emb_dim"] == "8"

    def test_unknown_key_rejected(self, dataset, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("embdim=8\n")
        code, _, err = run(capsys, ["train", "--mode", "full", "--data",
                                    str(dataset), "--out",
                                    str(tmp_path / "runs"), "--config",
                                    str(cfg)])
        assert code == 1
        assert "unknown config keys" in err

    def test_malformed_line_rejected(self, dataset, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("emb_dim\n")
        code, _, _ = run(capsys, ["train", "--mode", "full", "--data",
                                  str(dataset), "--out",
                                  str(tmp_path / "runs"), "--config",
                                  str(cfg)])
        assert code == 1

    def test_echo_reparses_to_same_configs(self, dataset, capsys, tmp_path):
        runs = str(tmp_path / "runs")
        code, out, _ = run(capsys, ["train", "--mode", "lora", "--lora-rank",
                                    "2", "--data", str(dataset), "--out",
                                    runs, "--allow-random-backbone"]
                           + SMALL_MODEL + FAST_TRAIN)
        assert code == 0
        fp = grep_value(out, "fingerprint")
        echo = parse_config_file(f"{runs}/{fp}/config.txt")
        run_keys = {k: v for k, v in echo.items()
                    if k not in ("command", "data", "split", "fractions",
                                 "backbone_ckpt")}
        model, peft, train = build_run_configs(run_keys)
        # the task count is the dataset's, as the run used it
        assert model == ModelConfig(emb_dim=8, num_layers=2, num_tasks=2,
                                    dropout=0.0, vocab=model.vocab)
        assert model.vocab.node == (2, 2) and model.vocab.edge == (2, 2)
        assert peft == PeftConfig(mode="lora", lora_rank=2)
        assert train == TrainConfig(epochs=2, batch_size=8, lr=0.01, seed=0)
        # round-trip: echoing the reparsed configs reproduces the echo
        assert canonical_echo(model, peft, train) == run_keys


def _oracle_canonical_echo(model, peft, train):
    """The echo as written before unread tuning fields were reset, kept
    verbatim (renamed, ``extra`` dropped)."""
    return {
        "emb_dim": _fmt(model.emb_dim), "mlp_hidden": _fmt(model.mlp_hidden),
        "num_layers": _fmt(model.num_layers), "num_tasks": _fmt(model.num_tasks),
        "dropout": _fmt(model.dropout), "node_vocab": _fmt(model.vocab.node),
        "edge_vocab": _fmt(model.vocab.edge),
        "mode": peft.mode, "bottleneck": _fmt(peft.bottleneck),
        "lora_rank": _fmt(peft.lora_rank),
        "scaling_init": _fmt(peft.scaling_init),
        "tune_backbone_bias": _fmt(peft.tune_backbone_bias),
        "tune_backbone_bn": _fmt(peft.tune_backbone_bn), "k": _fmt(peft.k),
        "epochs": _fmt(train.epochs), "batch_size": _fmt(train.batch_size),
        "lr": _fmt(train.lr), "weight_decay": _fmt(train.weight_decay),
        "seed": _fmt(train.seed),
    }


class TestOneFingerprintPerExperiment:
    @pytest.mark.parametrize("flags", [["--lora-rank", "4"], ["--bottleneck", "7"],
                                       ["--k", "2"], ["--scaling-init", "0.5"],
                                       ["--lora-rank", "4", "--k", "2"]])
    def test_unread_fields_share_the_run_directory(self, dataset, capsys,
                                                   tmp_path, flags):
        base = ["train", "--mode", "full", "--data", str(dataset)] \
            + SMALL_MODEL + FAST_TRAIN
        code, out, _ = run(capsys, base + ["--out", str(tmp_path / "a")])
        assert code == 0
        plain = grep_value(out, "fingerprint")
        code, out, _ = run(capsys, base + flags + ["--out", str(tmp_path / "b")])
        assert code == 0
        assert grep_value(out, "fingerprint") == plain
        assert (parse_config_file(tmp_path / "b" / plain / "config.txt")
                == parse_config_file(tmp_path / "a" / plain / "config.txt"))
        # into the same root, the second request is the same run
        assert main(base + flags + ["--out", str(tmp_path / "a")]) == 1

    @pytest.mark.parametrize("mode", PEFT_MODES)
    def test_default_runs_keep_their_fingerprints(self, mode):
        model, train = ModelConfig(emb_dim=8, num_layers=2), TrainConfig()
        read = {"adaptergnn": dict(bottleneck=3, scaling_init=0.5,
                                   tune_backbone_bias=False,
                                   tune_backbone_bn=True),
                "adapter_seq": dict(bottleneck=3), "adapter_par": dict(bottleneck=3),
                "lora": dict(lora_rank=4), "partial_k": dict(k=2)}
        # defaults, and every field the mode reads set away from its default
        for peft in (PeftConfig(mode=mode), PeftConfig(mode=mode, **read.get(mode, {}))):
            old = _oracle_canonical_echo(model, peft, train)
            assert canonical_echo(model, peft, train) == old
            assert (config_fingerprint(canonical_echo(model, peft, train))
                    == config_fingerprint(old))

    def test_old_echoes_with_unread_fields_still_reload(self, dataset, capsys,
                                                        tmp_path):
        runs = str(tmp_path / "runs")
        code, out, _ = run(capsys, ["train", "--mode", "full", "--data",
                                    str(dataset), "--out", runs]
                           + SMALL_MODEL + FAST_TRAIN)
        assert code == 0
        test_auc = float(grep_value(out, "final_test_auc"))
        fp = grep_value(out, "fingerprint")
        meta, params, buffers = load_checkpoint(f"{runs}/{fp}/task.ckpt")
        # an echo written before the reset carries the user's unread values
        old = {**meta["config"], "lora_rank": "4", "bottleneck": "7", "k": "2",
               "scaling_init": "0.5"}
        model, peft, _ = build_run_configs(
            {k: v for k, v in old.items() if k in canonical_echo(
                ModelConfig(), PeftConfig(), TrainConfig())})
        assert peft == PeftConfig(mode="full", bottleneck=7, lora_rank=4,
                                  scaling_init=0.5, k=2)
        reg = ParamRegistry()
        for name, arr in params.items():
            reg.add(name, arr, True, "backbone")
        for name, arr in buffers.items():
            reg.add_buffer(name, arr)
        path = tmp_path / "old_echo.ckpt"
        save_checkpoint(path, reg, {**meta, "config": old})
        code, out, _ = run(capsys, ["eval", "--data", str(dataset), "--ckpt",
                                    str(path), "--part", "test"])
        assert code == 0
        assert float(grep_value(out, "auc")) == pytest.approx(test_auc, abs=1e-9)


def _pretrain(capsys, dataset, out, flags=()) -> str:
    code, stdout, err = run(capsys, ["pretrain", "--data", str(dataset), "--out",
                                     str(out)] + SMALL_MODEL + FAST_TRAIN + list(flags))
    assert code == 0, err
    return grep_value(stdout, "checkpoint")


def _with_echo(path, out, edit) -> pathlib.Path:
    """A copy of checkpoint ``path`` at ``out`` whose meta echo is ``edit(echo)``."""
    meta, params, buffers = load_checkpoint(path)
    reg = ParamRegistry()
    for name, arr in params.items():
        reg.add(name, arr, True, "backbone")
    for name, arr in buffers.items():
        reg.add_buffer(name, arr)
    save_checkpoint(out, reg, {**meta, "config": edit(meta["config"])})
    return out


class TestSpelledOutDefaultWidth:
    """``--hidden`` at twice ``--emb`` is the default width: one run, one
    fingerprint, and either spelling loads an encoder of the other."""

    def test_train_shares_the_run_directory(self, dataset, capsys, tmp_path):
        base = ["train", "--mode", "full", "--data", str(dataset)] \
            + SMALL_MODEL + FAST_TRAIN
        code, out, _ = run(capsys, base + ["--out", str(tmp_path / "a")])
        assert code == 0
        plain, auc = grep_value(out, "fingerprint"), grep_value(out, "final_test_auc")
        code, out, _ = run(capsys, base + ["--hidden", "16", "--out", str(tmp_path / "b")])
        assert code == 0
        assert (grep_value(out, "fingerprint"), grep_value(out, "final_test_auc")) \
            == (plain, auc)
        config = (tmp_path / "a" / plain / "config.txt").read_text()
        assert "mlp_hidden=none\n" in config
        assert (tmp_path / "b" / plain / "config.txt").read_text() == config
        assert main(base + ["--hidden", "16", "--out", str(tmp_path / "a")]) == 1

    def test_pretrain_shares_the_run_directory(self, dataset, capsys, tmp_path):
        plain = _pretrain(capsys, dataset, tmp_path / "pre")
        spelled = _pretrain(capsys, dataset, tmp_path / "pre2", ["--hidden", "16"])
        assert pathlib.Path(plain).parent.name == pathlib.Path(spelled).parent.name

    # the encoder's echo as this code writes it (none), and as it was written
    # for a spelled-out width before the width was made canonical (16)
    @pytest.mark.parametrize("echoed", ["none", "16"])
    def test_either_spelling_loads_the_encoder(self, echoed, dataset, capsys,
                                               tmp_path):
        encoder = _with_echo(_pretrain(capsys, dataset, tmp_path / "pre"),
                             tmp_path / "encoder.ckpt",
                             lambda echo: {**echo, "mlp_hidden": echoed})
        base = ["train", "--mode", "adaptergnn", "--bottleneck", "3", "--data",
                str(dataset), "--backbone-ckpt", str(encoder)] + SMALL_MODEL + FAST_TRAIN
        got = []
        for i, spelling in enumerate(([], ["--hidden", "16"])):
            code, out, err = run(capsys, base + spelling + ["--out", str(tmp_path / f"r{i}")])
            assert code == 0, err
            got.append((grep_value(out, "fingerprint"), grep_value(out, "final_test_auc")))
        assert got[0] == got[1]

    def test_another_width_is_still_refused(self, dataset, capsys, tmp_path):
        encoder = _pretrain(capsys, dataset, tmp_path / "pre")
        runs = tmp_path / "runs"
        code, out, err = run(capsys, ["train", "--mode", "adaptergnn", "--bottleneck",
                                      "3", "--data", str(dataset), "--out", str(runs),
                                      "--backbone-ckpt", encoder, "--hidden", "12"]
                             + SMALL_MODEL + FAST_TRAIN)
        assert code == 2 and out == ""
        assert err == ("error: backbone checkpoint was built with mlp_hidden=none, "
                       "this run uses mlp_hidden=12\n")
        assert not runs.exists()

    def test_encoder_echo_lacking_a_key_still_loads(self, dataset, capsys, tmp_path):
        encoder = _with_echo(_pretrain(capsys, dataset, tmp_path / "pre"),
                             tmp_path / "encoder.ckpt", lambda echo: {
                                 k: v for k, v in echo.items()
                                 if k not in ("mlp_hidden", "emb_dim")})
        code, _, err = run(capsys, ["train", "--mode", "bitfit", "--data", str(dataset),
                                    "--out", str(tmp_path / "runs"), "--backbone-ckpt",
                                    str(encoder)] + SMALL_MODEL + FAST_TRAIN)
        assert code == 0, err

    @pytest.mark.parametrize("edit,message", [
        (lambda echo: {**echo, "emb_dim": "eight"},
         "encoder checkpoint config: emb_dim: expected integer, got 'eight'"),
        (lambda echo: ["x"], "encoder checkpoint meta 'config' must be an object, "
                             "got ['x']")])
    def test_malformed_encoder_echo_names_the_file(self, edit, message, dataset,
                                                   capsys, tmp_path):
        encoder = _with_echo(_pretrain(capsys, dataset, tmp_path / "pre"),
                             tmp_path / "encoder.ckpt", edit)
        code, _, err = run(capsys, ["train", "--mode", "bitfit", "--data", str(dataset),
                                    "--out", str(tmp_path / "runs"), "--backbone-ckpt",
                                    str(encoder)] + SMALL_MODEL + FAST_TRAIN)
        assert code == 2 and err.count("\n") == 1, err
        assert err == f"error: {encoder}: {message}\n"


SWEEP_COMMON = ["mode=full", "seed=0", "layers=1", "epochs=2", "batch_size=8",
                "lr=0.01", "dropout=0.0", "node_vocab=2,2", "edge_vocab=2,2"]


class TestSweepCommand:
    def test_csv_stdout_deterministic(self, dataset, capsys):
        argv = ["sweep", "--kind", "model_size", "--data", str(dataset),
                "--csv", "emb=6,8"] + SWEEP_COMMON
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        header = out1.splitlines()[0]
        assert header.startswith("fingerprint,mode,d,b,n_train,seed")
        assert len(out1.splitlines()) == 3

    def test_jobs_parallel_identical_output(self, dataset, capsys):
        argv = ["sweep", "--kind", "model_size", "--data", str(dataset),
                "--csv", "emb=6,8"] + SWEEP_COMMON
        _, serial, _ = run(capsys, argv)
        code, parallel, _ = run(capsys, argv + ["--jobs", "2"])
        assert code == 0
        assert serial == parallel

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_progress_line_per_run_on_stderr(self, dataset, capsys, tmp_path,
                                             jobs):
        out_root = tmp_path / "sweeps"
        argv = ["sweep", "--kind", "model_size", "--data", str(dataset),
                "--out", str(out_root), "--jobs", jobs, "emb=6,8"] + SWEEP_COMMON
        code, out, err = run(capsys, argv)
        assert code == 0 and out == ""
        progress = [l for l in err.splitlines() if l.startswith("sweep ")]
        assert len(progress) == 2, err
        for k, line in enumerate(progress, 1):
            assert re.fullmatch(
                rf"sweep {k}/2 done \(mode=full d=[68] b=15 seed=0\): "
                r"elapsed \d+\.\d+s, ETA \d+\.\d+s", line), line
        (run_dir,) = out_root.iterdir()
        for name in ("sweep.csv", "config.txt"):
            assert "elapsed" not in (run_dir / name).read_text()

    def test_out_dir_gets_csv_and_echo(self, dataset, capsys, tmp_path):
        out_root = tmp_path / "sweeps"
        argv = ["sweep", "--kind", "model_size", "--data", str(dataset),
                "--out", str(out_root), "emb=6"] + SWEEP_COMMON
        code, _, err = run(capsys, argv)
        assert code == 0
        run_dirs = list(out_root.iterdir())
        assert len(run_dirs) == 1
        assert (run_dirs[0] / "sweep.csv").exists()
        assert (run_dirs[0] / "config.txt").exists()
        assert main(argv) == 1              # same fingerprint: refused
        assert main(argv + ["--force"]) == 0

    def test_echo_is_the_plan(self, dataset, capsys, tmp_path):
        out_root = tmp_path / "sweeps"
        argv = ["sweep", "--kind", "model_size", "--data", str(dataset),
                "--out", str(out_root), "emb=6,8"] + SWEEP_COMMON
        assert main(argv) == 0
        (run_dir,) = out_root.iterdir()
        echo = parse_config_file(run_dir / "config.txt")
        rows = list(csv.DictReader((run_dir / "sweep.csv").read_text().splitlines()))
        assert echo == {
            "data": str(dataset), "node_vocab": "2,2", "edge_vocab": "2,2",
            "kind": "model_size", "init": "scratch", "mode": "full", "b": "15",
            "seed": "0", "layers": "1", "epochs": "2", "batch_size": "8",
            "lr": "0.01", "dropout": "0.0",
            "rows": ",".join(sorted(r["fingerprint"] for r in rows))}
        assert run_dir.name == config_fingerprint(echo)

    @pytest.mark.parametrize("kind,first,second", [
        ("model_size", ["emb=8"], ["emb=8", "b=15", "batch_size=32"]),
        ("model_size", ["emb=6", "b=3"], ["emb=6", "b=15"]),  # full reads no b
        ("data_size", ["emb=8", "seed=0", "frac=0.5"],
         ["emb=8", "seed=0,0", "frac=0.5", "b=3"])])
    def test_spellings_of_one_plan_share_a_directory(self, kind, first, second,
                                                     dataset, capsys, tmp_path):
        common = ["mode=full", "seed=0", "layers=1", "epochs=1", "dropout=0.0",
                  "node_vocab=2,2", "edge_vocab=2,2"]
        dirs = []
        for i, grid in enumerate((first, second)):
            code, _, err = run(capsys, ["sweep", "--kind", kind, "--data",
                                        str(dataset), "--out", str(tmp_path / f"s{i}")]
                               + common + grid)
            assert code == 0, err
            (d,) = (tmp_path / f"s{i}").iterdir()
            dirs.append(d)
        assert dirs[0].name == dirs[1].name
        assert (dirs[0] / "sweep.csv").read_bytes() == (dirs[1] / "sweep.csv").read_bytes()

    def test_failed_sweep_leaves_no_run_directory(self, dataset, capsys, tmp_path):
        out_root = tmp_path / "sweeps"
        code, _, err = run(capsys, ["sweep", "--kind", "data_size", "--data",
                                    str(dataset), "--out", str(out_root), "emb=6",
                                    "frac=0.001"] + SWEEP_COMMON)
        assert code == 1 and "leaves no training graphs" in err
        assert not list(out_root.glob("*"))

    def test_rerun_refused_before_any_task(self, dataset, capsys, tmp_path):
        argv = ["sweep", "--kind", "model_size", "--data", str(dataset),
                "--out", str(tmp_path / "sweeps"), "emb=6"] + SWEEP_COMMON
        assert main(argv) == 0
        capsys.readouterr()
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert err.startswith("usage error: output directory") and err.count("\n") == 1

    def test_needs_out_or_csv(self, dataset, capsys):
        code, _, err = run(capsys, ["sweep", "--kind", "model_size", "--data",
                                    str(dataset), "emb=6"] + SWEEP_COMMON)
        assert code == 1

    def test_run_count_guard(self, dataset, capsys):
        seeds = "seed=" + ",".join(str(s) for s in range(60))
        code, _, err = run(capsys, ["sweep", "--kind", "model_size", "--data",
                                    str(dataset), "--csv", "emb=6", seeds,
                                    "mode=full", "layers=1", "epochs=1"])
        assert code == 1
        assert "--yes" in err

    def test_unknown_grid_key(self, dataset, capsys):
        code, _, err = run(capsys, ["sweep", "--kind", "model_size", "--data",
                                    str(dataset), "--csv", "width=6"]
                           + SWEEP_COMMON)
        assert code == 1
        assert "unknown sweep key" in err

    def test_tasks_is_not_a_sweep_key(self, dataset, capsys):
        # the task count comes from the dataset; a ``tasks`` scalar would
        # only fork the run fingerprint of one experiment
        code, _, err = run(capsys, ["sweep", "--kind", "model_size", "--data",
                                    str(dataset), "--csv", "emb=6", "tasks=9"]
                           + SWEEP_COMMON)
        assert code == 1
        assert "unknown sweep key 'tasks'" in err

    def test_bad_grid_value_fails_before_running(self, dataset, capsys):
        code, _, _ = run(capsys, ["sweep", "--kind", "model_size", "--data",
                                  str(dataset), "--csv", "emb=-4"]
                         + SWEEP_COMMON)
        assert code == 1


class TestFlopsCommand:
    def test_breakdown_and_variants(self, capsys):
        code, out, _ = run(capsys, ["flops", "--mode", "adaptergnn", "--emb",
                                    "8", "--layers", "1", "--tasks", "1",
                                    "--bottleneck", "2", "--batch", "2",
                                    "--breakdown"])
        assert code == 0
        total = int(grep_value(out, "total"))
        fwd = int(grep_value(out, "forward"))
        bwd = int(grep_value(out, "backward"))
        assert total == fwd + bwd
        assert "variant bias_tuned" in out
        items = [l for l in out.splitlines() if l.startswith("item ")]
        assert sum(int(l.rsplit(" ", 1)[1]) for l in items) == total

    @pytest.mark.parametrize("mode", PEFT_MODES)
    def test_breakdown_sums_to_total_in_every_mode(self, mode, capsys):
        code, out, _ = run(capsys, ["flops", "--mode", mode, "--emb", "8",
                                    "--layers", "2", "--tasks", "1",
                                    "--bottleneck", "2", "--batch", "2",
                                    "--breakdown"])
        assert code == 0
        items = [l for l in out.splitlines() if l.startswith("item ")]
        assert sum(int(l.rsplit(" ", 1)[1]) for l in items) == \
            int(grep_value(out, "total"))

    def test_bad_phase_rejected(self, capsys):
        code, _, _ = run(capsys, ["flops", "--mode", "full", "--phase",
                                  "maybe"])
        assert code == 1


SWEEP_ONE = ["sweep", "--kind", "model_size", "--csv", "emb=6", "mode=full",
             "epochs=1"]


class TestBadFlagValues:
    """A value a constructor refuses is a one-line usage error, raised
    before any output is written."""

    CASES = {
        "train-node-vocab": (["train", "--mode", "full"] + SMALL_MODEL + FAST_TRAIN
                             + ["--node-vocab", "0,2"],
                             "vocab sizes must be two positive ints"),
        "train-fractions-not-numbers": (["train", "--mode", "full"] + SMALL_MODEL
                                        + FAST_TRAIN + ["--fractions", "a,b,c"],
                                        "fractions: expected number, got 'a'"),
        "train-fractions-two-parts": (["train", "--mode", "full"] + SMALL_MODEL
                                      + FAST_TRAIN + ["--fractions", "0.5,0.5"],
                                      "fractions must be three"),
        "gen-data-nodes": (["gen-data", "--nodes", "2,5"],
                           "node_range must lie within [3, 64]"),
        "flops-batch": (["flops", "--batch", "0"], "batch_size must be positive"),
        "sweep-node-vocab": (["sweep", "--kind", "model_size", "--csv", "emb=6",
                              "mode=full", "epochs=1", "node_vocab=0,2"],
                             "vocab sizes must be two positive ints"),
        "sweep-init": (SWEEP_ONE + ["init=bogus"],
                       "model_size sweep takes init scratch|pretrained, got 'bogus'"),
        "sweep-pretrain-epochs-from-scratch": (SWEEP_ONE + ["pretrain_epochs=3"],
                                               "pretrain_epochs needs init=pretrained"),
        "sweep-expressivity-pretrained": (
            ["sweep", "--kind", "expressivity", "--csv", "emb=8", "b=2", "dfull=4",
             "epochs=1", "init=pretrained"],
            "expressivity sweep takes init scratch, got 'pretrained'"),
        # 0 and -1 start no worker process
        "sweep-jobs-0": (SWEEP_ONE + ["--jobs", "0"], "jobs must be >= 1, got 0"),
        "sweep-jobs-negative": (SWEEP_ONE + ["--jobs", "-1"], "jobs must be >= 1, got -1"),
        "flops-avg-nodes": (["flops", "--avg-nodes", "-5", "--emb", "8", "--layers", "1"],
                            "avg_nodes must be positive"),
        "flops-avg-edges": (["flops", "--avg-edges", "nan", "--emb", "8"],
                            "avg_edges non-negative, both finite"),
        # flags nothing reads are refused
        "count-params-seed": (["count-params", "--emb", "8", "--seed", "7"],
                              "unrecognized arguments: --seed 7"),
        "flops-seed": (["flops", "--seed", "7"], "unrecognized arguments: --seed 7"),
        "eval-seed-config": (["eval", "--data", "d.jsonl", "--ckpt", "t.ckpt",
                              "--config", "none.cfg", "--seed", "5"],
                             "unrecognized arguments: --config none.cfg --seed 5"),
        "bound-seed-config": (["bound", "--n", "10", "--delta", "0.1", "--params", "3",
                               "--seed", "1", "--config", "none.cfg"],
                              "unrecognized arguments: --seed 1 --config none.cfg"),
        "gen-data-config": (["gen-data", "--config", "none.cfg"],
                            "unrecognized arguments: --config none.cfg"),
        "sweep-seed": (SWEEP_ONE + ["--seed", "3"], "unrecognized arguments: --seed 3"),
        # eval replays the split its checkpoint records
        "eval-split-fractions": (["eval", "--data", "d.jsonl", "--ckpt", "t.ckpt",
                                  "--split", "random", "--fractions", "0.6,0.2,0.2"],
                                 "unrecognized arguments: --split random "
                                 "--fractions 0.6,0.2,0.2"),
        # grid keys a kind does not read are refused rather than ignored
        "sweep-unread-grid-keys": (
            ["sweep", "--kind", "bottleneck", "--csv", "emb=8", "b=0,2",
             "mode=lora", "frac=0.5", "dfull=3"],
            "a bottleneck sweep does not read mode, frac, dfull"),
        "sweep-model-size-frac": (SWEEP_ONE + ["frac=0.5"],
                                  "a model_size sweep does not read frac"),
        # non-finite floats are refused before any data is read
        "train-lr-inf": (["train", "--mode", "full"] + SMALL_MODEL + FAST_TRAIN
                         + ["--lr", "inf"], "lr must be finite and >= 0, got inf"),
        "train-weight-decay-nan": (["train", "--mode", "full"] + SMALL_MODEL
                                   + FAST_TRAIN + ["--weight-decay", "nan"],
                                   "weight_decay must be finite and >= 0, got nan"),
        "train-weight-decay-inf": (["train", "--mode", "full"] + SMALL_MODEL
                                   + FAST_TRAIN + ["--weight-decay", "inf"],
                                   "weight_decay must be finite and >= 0, got inf"),
        "train-scaling-init-nan": (["train", "--mode", "adaptergnn", "--bottleneck", "4",
                                    "--allow-random-backbone", "--scaling-init", "nan"]
                                   + SMALL_MODEL + FAST_TRAIN,
                                   "scaling_init must be finite, got nan"),
        "train-scaling-init-inf": (["train", "--mode", "adaptergnn", "--bottleneck", "4",
                                    "--allow-random-backbone", "--scaling-init", "inf"]
                                   + SMALL_MODEL + FAST_TRAIN,
                                   "scaling_init must be finite, got inf"),
        "sweep-lr-inf": (SWEEP_ONE + ["lr=inf"], "lr must be finite and >= 0, got inf"),
        "train-fractions-nan": (["train", "--mode", "full"] + SMALL_MODEL + FAST_TRAIN
                                + ["--fractions", "nan,0.5,0.5"], "fractions must be three"),
        "bound-logh-nan": (["bound", "--n", "10", "--delta", "0.1", "--logH", "nan"],
                           "log hypothesis size must be >= 0, got nan"),
        # found by tests/test_cli_fuzz.py: both ended in a traceback
        "bound-negative-params": (["bound", "--n", "10", "--delta", "0.1",
                                   "--params", "-1"],
                                  "parameter count cannot be negative"),
        "bound-train-error": (["bound", "--n", "10", "--delta", "0.1", "--logH", "1",
                               "--train-error", "2"],
                              "train_error must be in [0, 1], got 2.0"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_usage_error_before_any_output(self, case, dataset, capsys, tmp_path):
        argv, message = self.CASES[case]
        out = tmp_path / "out"
        if argv[0] in ("train", "sweep"):
            argv = argv + ["--data", str(dataset), "--out", str(out)]
        elif argv[0] == "gen-data":
            argv = argv + ["--out", str(out)]
        code, stdout, err = run(capsys, argv)
        assert code == 1, err
        assert err.startswith("usage error: ") and err.count("\n") == 1, err
        assert message in err
        assert stdout == "" and not out.exists()

    # a split that leaves a part empty is the data's fault: one error line
    # at run time, exit 2, and no run directory (--fractions 1,0,0, or the
    # default fractions splitting 5 graphs 4/0/1)
    EMPTY_SPLIT_CASES = {
        "train-fractions": (["train", "--mode", "full", "--fractions", "1,0,0"]
                            + SMALL_MODEL + FAST_TRAIN, 60, "60 graphs by "
                            "(1.0, 0.0, 0.0) leaves an empty part (60/0/0)"),
        "train-5-graphs": (["train", "--mode", "full"] + SMALL_MODEL + FAST_TRAIN, 5,
                           "5 graphs by (0.8, 0.1, 0.1) leaves an empty part (4/0/1)"),
        "sweep-5-graphs": (SWEEP_ONE, 5,
                           "5 graphs by (0.8, 0.1, 0.1) leaves an empty part (4/0/1)"),
    }

    @pytest.mark.parametrize("case", sorted(EMPTY_SPLIT_CASES))
    def test_empty_split_part_fails_in_one_line(self, case, capsys, tmp_path):
        argv, n, message = self.EMPTY_SPLIT_CASES[case]
        data = tmp_path / "few.jsonl"
        assert run(capsys, ["gen-data", "--out", str(data), "--n", str(n)]
                   + DATA_ARGS)[0] == 0
        out = tmp_path / "out"
        code, stdout, err = run(capsys, argv + ["--data", str(data), "--out", str(out)])
        assert code == 2 and stdout == "", err
        assert err == f"error: split of {message}\n"
        assert not list(out.glob("*"))

    def test_eval_of_a_split_leaving_an_empty_part(self, dataset, capsys, tmp_path):
        code, stdout, _ = run(capsys, ["train", "--mode", "full", "--data", str(dataset),
                                       "--out", str(tmp_path / "runs")]
                              + SMALL_MODEL + FAST_TRAIN)
        assert code == 0
        task = tmp_path / "runs" / grep_value(stdout, "fingerprint") / "task.ckpt"
        data = tmp_path / "few.jsonl"
        assert run(capsys, ["gen-data", "--out", str(data), "--n", "5"] + DATA_ARGS)[0] == 0
        out = tmp_path / "eval"
        code, stdout, err = run(capsys, ["eval", "--data", str(data), "--ckpt", str(task),
                                         "--out", str(out)])
        assert code == 2 and stdout == "", err
        assert err == ("error: split of 5 graphs by (0.8, 0.1, 0.1) leaves an empty "
                       "part (4/0/1)\n")
        assert not out.exists()

    # every subcommand that takes --out, given a file there: refused
    # before any data is read, any training runs or any result is printed
    OUT_FILE_CASES = {
        "gen-data": ["gen-data"],
        "pretrain": ["pretrain", "--epochs", "1"],
        "train": ["train", "--mode", "full"] + SMALL_MODEL + FAST_TRAIN,
        "eval": ["eval", "--ckpt", "t.ckpt"],
        "sweep": SWEEP_ONE,
        "count-params": ["count-params", "--emb", "8"],
        "flops": ["flops", "--emb", "8"],
        "bound": ["bound", "--n", "10", "--delta", "0.1", "--logH", "1"],
    }

    @pytest.mark.parametrize("command", sorted(OUT_FILE_CASES))
    def test_out_naming_a_file(self, command, dataset, capsys, tmp_path):
        occupied = tmp_path / "occupied"
        occupied.write_text("kept\n")
        argv = self.OUT_FILE_CASES[command] + ["--out", str(occupied)]
        if command in ("pretrain", "train", "eval", "sweep"):
            argv += ["--data", str(dataset)]
        code, stdout, err = run(capsys, argv)
        assert code == 1, err
        assert err.startswith("usage error: ") and err.count("\n") == 1, err
        message = ("exists; pass --force" if command == "gen-data"
                   else "is a file, not a directory")
        assert message in err
        assert stdout == "" and occupied.read_text() == "kept\n"


# The flag -> key map as it stood when argparse dests were flag names,
# copied verbatim: the oracle for the schema that replaced it.
PARENT_FLAG_TO_KEY = {
    "emb": "emb_dim", "hidden": "mlp_hidden", "layers": "num_layers",
    "tasks": "num_tasks", "dropout": "dropout", "node_vocab": "node_vocab",
    "edge_vocab": "edge_vocab", "mode": "mode", "bottleneck": "bottleneck",
    "lora_rank": "lora_rank", "scaling_init": "scaling_init",
    "tune_backbone_bias": "tune_backbone_bias",
    "tune_backbone_bn": "tune_backbone_bn", "k": "k", "epochs": "epochs",
    "batch_size": "batch_size", "lr": "lr", "weight_decay": "weight_decay",
    "seed": "seed",
}
PARENT_MODEL_KEYS = ("emb_dim", "mlp_hidden", "num_layers", "num_tasks",
                     "dropout", "node_vocab", "edge_vocab")
PARENT_PEFT_KEYS = ("mode", "bottleneck", "lora_rank", "scaling_init",
                    "tune_backbone_bias", "tune_backbone_bn", "k")
PARENT_TRAIN_KEYS = ("epochs", "batch_size", "lr", "weight_decay", "seed")
# every command with run flags: its required arguments and the keys it reads
RUN_COMMANDS = {
    "pretrain": (["--data", "d", "--out", "o"], PARENT_MODEL_KEYS + PARENT_TRAIN_KEYS),
    "train": (["--data", "d", "--out", "o"],
              PARENT_MODEL_KEYS + PARENT_PEFT_KEYS + PARENT_TRAIN_KEYS),
    "count-params": ([], PARENT_MODEL_KEYS + PARENT_PEFT_KEYS),
    "flops": ([], PARENT_MODEL_KEYS + PARENT_PEFT_KEYS),
}
# a canonical, non-default value per key
SAMPLE = {"emb_dim": "8", "mlp_hidden": "12", "num_layers": "2", "num_tasks": "3",
          "dropout": "0.25", "node_vocab": "2,3", "edge_vocab": "3,2",
          "mode": "lora", "bottleneck": "3", "lora_rank": "4",
          "scaling_init": "0.5", "tune_backbone_bias": "false",
          "tune_backbone_bn": "true", "k": "2", "epochs": "7",
          "batch_size": "5", "lr": "0.02", "weight_decay": "0.001", "seed": "9"}


def _flag(key: str) -> str:
    dest = {v: k for k, v in PARENT_FLAG_TO_KEY.items()}[key]
    return "--" + dest.replace("_", "-")


class TestRunKeySchema:
    def test_every_config_field_is_a_run_key(self):
        fields = {f.name for cls in (ModelConfig, PeftConfig, TrainConfig)
                  for f in dataclasses.fields(cls)}
        assert set(RUN_KEYS) == fields - {"vocab"} | {"node_vocab", "edge_vocab"}
        assert set(RUN_KEYS) == set(PARENT_FLAG_TO_KEY.values())

    @pytest.mark.parametrize("command", sorted(RUN_COMMANDS))
    @pytest.mark.parametrize("key", sorted(SAMPLE))
    def test_each_flag_sets_the_parents_key(self, command, key):
        required, keys = RUN_COMMANDS[command]
        argv = [command] + required + [_flag(key), SAMPLE[key]]
        if key not in keys:
            # a flag the command does not read is refused, --seed included
            with pytest.raises(UsageError, match="unrecognized arguments"):
                build_parser().parse_args(argv)
            return
        assert merge_config(build_parser().parse_args(argv)) == {key: SAMPLE[key]}

    @pytest.mark.parametrize("command", sorted(RUN_COMMANDS))
    def test_file_keys_outside_the_command_are_refused(self, command, tmp_path):
        required, keys = RUN_COMMANDS[command]
        cfg = tmp_path / "run.cfg"
        for key in SAMPLE:
            cfg.write_text(f"{key}={SAMPLE[key]}\n")
            args = build_parser().parse_args([command] + required
                                              + ["--config", str(cfg)])
            if key in keys:
                assert merge_config(args) == {key: SAMPLE[key]}
            else:
                with pytest.raises(UsageError, match="unknown config keys"):
                    merge_config(args)

    @pytest.mark.parametrize("key", sorted(SAMPLE))
    def test_flag_and_file_give_the_same_configs(self, key, tmp_path):
        # a base mode that reads the key, so the echo shows its value
        base = {} if key == "mode" else {
            "mode": {"lora_rank": "lora", "k": "partial_k"}.get(key, "adaptergnn")}
        given = {**base, key: SAMPLE[key]}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k}={v}\n" for k, v in given.items()))
        required = RUN_COMMANDS["train"][0]
        via_flags = [x for k, v in given.items() for x in (_flag(k), v)]
        configs = [build_run_configs(merge_config(build_parser().parse_args(
            ["train"] + required + extra))) for extra in
            (via_flags, ["--config", str(cfg)])]
        assert configs[0] == configs[1]
        assert configs[0] != build_run_configs(base)
        assert canonical_echo(*configs[0])[key] == SAMPLE[key]


class TestSweepWidth:
    # a kind that reads emb or b as one value refuses a list of them before
    # the data loads (the data file is missing) and before --out is made;
    # one value is the model width or the adapter bottleneck
    @pytest.mark.parametrize("kind,grid,key", [
        ("bottleneck", ["emb=8,16", "b=0,2"], "emb"),
        ("data_size", ["emb=8,16", "frac=0.5", "mode=adaptergnn", "b=2"], "emb"),
        ("expressivity", ["emb=8,16", "b=2", "dfull=4"], "emb"),
        ("model_size", ["emb=8", "b=2,3", "mode=adaptergnn"], "b"),
        ("expressivity", ["emb=8", "b=2,3", "dfull=4"], "b")])
    def test_one_value_keys_refuse_a_list(self, kind, grid, key, dataset, capsys,
                                          tmp_path):
        common = [w for w in SWEEP_COMMON if not w.startswith("mode=")]
        out = tmp_path / "out"
        code, stdout, err = run(capsys, ["sweep", "--kind", kind, "--data",
                                         str(tmp_path / "missing.jsonl"), "--out",
                                         str(out)] + grid + common)
        assert code == 1 and stdout == "" and not out.exists()
        assert err.startswith("usage error: ") and err.count("\n") == 1, err
        values = next(w for w in grid if w.startswith(key + "=")).split("=")[1]
        assert f"{key} takes one value in a {kind} sweep, got '{values}'" in err
        one = [f"{key}={values.split(',')[0]}" if w.startswith(key + "=") else w
               for w in grid]
        code, stdout, err = run(capsys, ["sweep", "--kind", kind, "--data",
                                         str(dataset), "--csv"] + one + common)
        assert code == 0, err
        rows = list(csv.DictReader(stdout.splitlines()))
        adapters = [r for r in rows if r["mode"] == "adaptergnn"]
        assert adapters and all(r["d"] == "8" for r in adapters)
        if kind != "bottleneck":
            assert all(r["b"] == "2" for r in adapters)


# one spelling of each default a sweep request may state or leave out
SWEEP_DEFAULTS = {"b": "15", "batch_size": "32", "lr": "1e-3", "init": "scratch"}
SWEEP_KIND_GRIDS = {"model_size": ["mode=full", "emb=6"],
                    "data_size": ["mode=full", "frac=0.5"],
                    "bottleneck": ["b=0,2"]}


@pytest.fixture(scope="module")
def shared_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "data.jsonl"
    assert main(["gen-data", "--out", str(path), "--n", "60"] + DATA_ARGS) == 0
    return path


@st.composite
def sweep_spellings(draw):
    """Two spellings of one sweep request: the kind's grid, its seeds and
    scalars, then the same with explicit defaults, seeds repeated and
    reordered."""
    kind = draw(st.sampled_from(sorted(SWEEP_KIND_GRIDS)))
    seeds = draw(st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=2,
                          unique=True))
    base = SWEEP_KIND_GRIDS[kind] + ["layers=1", "epochs=1", "dropout=0.0",
                                     "node_vocab=2,2", "edge_vocab=2,2"]
    if kind != "model_size":  # its width is emb, one value
        base.append("emb=6")
    stated = {k: v for k, v in SWEEP_DEFAULTS.items()
              if not (kind == "bottleneck" and k == "b")}  # b is its grid
    plain = base + ["seed=" + ",".join(map(str, sorted(seeds)))]
    again = draw(st.lists(st.sampled_from(seeds), max_size=2))
    respelled = draw(st.permutations(seeds + again))
    extra = [f"{k}={v}" for k, v in stated.items() if draw(st.booleans())]
    spelled = draw(st.permutations(base + extra
                                   + ["seed=" + ",".join(map(str, respelled))]))
    return kind, plain, spelled


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(request=sweep_spellings())
def test_sweep_spellings_share_a_directory(request, shared_dataset, capsys):
    kind, plain, spelled = request
    with tempfile.TemporaryDirectory() as tmp:
        dirs = []
        for i, grid in enumerate((plain, spelled)):
            out = pathlib.Path(tmp) / f"s{i}"
            code, _, err = run(capsys, ["sweep", "--kind", kind, "--data",
                                        str(shared_dataset), "--out", str(out)] + grid)
            assert code == 0, (grid, err)
            (d,) = out.iterdir()
            dirs.append(d)
        assert dirs[0].name == dirs[1].name, (plain, spelled)
        assert (dirs[0] / "sweep.csv").read_bytes() == (dirs[1] / "sweep.csv").read_bytes()
        assert (dirs[0] / "config.txt").read_bytes() == (dirs[1] / "config.txt").read_bytes()
