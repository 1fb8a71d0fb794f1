"""Smoke runs of the experiment scripts at tiny settings: each starts,
runs its whole recipe and prints its table."""

import pathlib
import subprocess
import sys

import pytest

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
])
def test_script_runs(script, args, expected, tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, cwd=tmp_path,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    for text in expected:
        assert text in proc.stdout, (text, proc.stdout)
