"""Smoke runs of the experiment scripts at tiny settings: each starts,
runs its whole recipe and prints its table."""

import pathlib
import subprocess
import sys

import pytest

from gnnpeft.config import PEFT_MODES

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, args, expected", [
    ("run_transfer_gain.py",
     ["--epochs", "1", "--pretrain-epochs", "1", "--seeds", "0"],
     ["seed 0: epoch-1 loss", "median transfer gain", "median epoch-1 loss reduction"]),
    # the bottleneck is fixed at 15, so the width must exceed it
    ("run_peft_comparison.py",
     ["--emb", "16", "--epochs", "1", "--pretrain-epochs", "1",
      "--modes", "full,adaptergnn"],
     ["edge-prediction pre-training loss", " full ", " adaptergnn "]),
    ("run_model_size_sweep.py",
     ["--widths", "4,8", "--seeds", "0", "--epochs", "1"],
     ["median test err", "best width:"]),
    ("run_peft_comparison.py",  # every mode, the default --modes
     ["--emb", "16", "--epochs", "1", "--pretrain-epochs", "1"],
     [f" {mode} " for mode in PEFT_MODES]),
])
def test_script_runs(script, args, expected, tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, cwd=tmp_path,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    for text in expected:
        assert text in proc.stdout, (text, proc.stdout)


@pytest.mark.parametrize("args, message", [
    (["--emb", "8", "--modes", "adaptergnn"],
     "adapter bottleneck 15 must be < emb_dim 8"),
    (["--modes", "full,lorax"], "unknown tuning mode 'lorax'"),
], ids=["bottleneck-too-wide", "unknown-mode"])
def test_peft_comparison_rejects_modes_before_pretraining(args, message,
                                                          tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_peft_comparison.py"), *args],
        capture_output=True, text=True, cwd=tmp_path, timeout=300)
    assert proc.returncode != 0
    assert proc.stdout == ""  # nothing ran, pre-training included
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert message in proc.stderr
