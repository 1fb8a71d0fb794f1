"""Fuzzing every subcommand's argv through ``cli.main`` in process.

Each example starts from a valid command line of one of the eight
subcommands and mutates it: a value is replaced, a flag is dropped,
repeated with another value, or added from the parser's own flags.
Values come from a pool of edge cases and plausible ones, and path flags
from good, bad and missing files. Whatever the argv, a command exits 0,
1 or 2, a failure is one line on stderr and never a traceback, and a
usage error (exit 1) leaves nothing at ``--out``.
"""

import argparse

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gnnpeft.cli import GRID_KEYS, PLAN_KEYS, SCALAR_KEYS, build_parser, main
from gnnpeft.config import PEFT_MODES

FUZZ = settings(max_examples=300, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                        HealthCheck.too_slow])

# values a flag or sweep key might plausibly take (small integers unless
# listed), and edge cases
FRACTIONS = ["0.5", "0.1", "0.01", "1", "0"]
PLAUSIBLE = {
    **dict.fromkeys(["--dropout", "--lr", "--weight-decay", "--scaling-init",
                     "--edge-prob", "--attr-affinity", "--avg-nodes", "--avg-edges",
                     "--logH", "--delta", "--train-error", "lr", "dropout", "frac"],
                    FRACTIONS),
    **dict.fromkeys(["--nodes", "--node-vocab", "--edge-vocab", "node_vocab",
                     "edge_vocab"], ["2,2", "3,3", "2,3"]),
    "--mode": list(PEFT_MODES), "mode": ["full", "adaptergnn", "full,lora"],
    # 1,0,0 leaves a part of the split empty; 8 is twice the base --emb
    "--fractions": ["1,0,0", "0.6,0.2,0.2", "0.8,0.1,0.1"],
    "--hidden": ["8", "none", "4"],
    "--tune-backbone-bias": ["true", "false", "none"],
    "--tune-backbone-bn": ["true", "false"], "init": ["scratch", "pretrained"],
    "emb": ["4", "4,6"], "seed": ["0", "0,1"], "b": ["0", "2", "2,3"],
    "dfull": ["4"],
}
SMALL_INTS = ["1", "2", "3"]
EDGE = ["0", "-1", "2", "", " ", "x", "nan", "inf", "-inf", "1e400", "1e-3", "3,2",
        "2,", ",", "1,2,3", "0.8,0.1", "1,0,0", "none", "true"]
PATHS = {"--data": ("data", "task", "garbage", "dir", "missing"),
         "--ckpt": ("task", "encoder", "garbage", "data", "missing"),
         "--backbone-ckpt": ("encoder", "task", "garbage", "missing"),
         "--config": ("small_config", "bad_config", "missing"),
         "--out": ("fresh", "garbage", "dir")}
GRID_WORDS = [*GRID_KEYS, *SCALAR_KEYS, *PLAN_KEYS, "bogus"]
SMALL = [("--emb", "4"), ("--layers", "1"), ("--epochs", "1"),
         ("--node-vocab", "2,2"), ("--edge-vocab", "2,2")]
# valid command lines as (flag, value) items, value None for a switch;
# a sweep grid word is an item whose key has no leading dash. A training
# command also reads a small model from its config file, so dropping a
# size flag does not train at the default width
BASE = {
    "gen-data": [("--out", "fresh"), ("--n", "20"), ("--nodes", "6,9"),
                 ("--tasks", "2"), ("--seed", "3")],
    "pretrain": [("--data", "data"), ("--out", "fresh"),
                 ("--config", "small_config")] + SMALL,
    "train": [("--data", "data"), ("--out", "fresh"), ("--config", "small_config"),
              ("--mode", "full"), ("--batch-size", "8"),
              ("--fractions", "0.8,0.1,0.1")] + SMALL,
    "eval": [("--data", "data"), ("--ckpt", "task"), ("--backbone-ckpt", "encoder"),
             ("--out", "fresh")],
    "sweep": [("--kind", "model_size"), ("--data", "data"), ("--out", "fresh"),
              ("emb", "4"), ("b", "2"), ("mode", "full,adaptergnn"), ("layers", "1"),
              ("epochs", "1"), ("node_vocab", "2,2"), ("edge_vocab", "2,2")],
    "count-params": [("--emb", "8"), ("--mode", "adaptergnn"), ("--bottleneck", "2"),
                     ("--out", "fresh")],
    "flops": [("--emb", "8"), ("--layers", "1"), ("--mode", "lora"), ("--out", "fresh")],
    "bound": [("--n", "100"), ("--delta", "0.05"), ("--params", "10"),
              ("--train-error", "0.1"), ("--out", "fresh")],
}


def _subcommands():
    """name -> [(flag, takes a value, choices)] from the parser."""
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return {name: [(a.option_strings[-1], a.nargs != 0, a.choices)
                   for a in p._actions if a.option_strings and a.dest != "help"]
            for name, p in sub.choices.items()}


SUBCOMMANDS = _subcommands()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "data.jsonl"
    assert main(["gen-data", "--out", str(data), "--n", "60", "--nodes", "6,12",
                 "--node-vocab", "2,2", "--edge-vocab", "2,2", "--tasks", "2",
                 "--seed", "3"]) == 0
    small = [w for item in SMALL for w in item]
    assert main(["pretrain", "--data", str(data), "--out", str(root / "pre")]
                + small) == 0
    (encoder,) = (root / "pre").glob("*/*.ckpt")
    assert main(["train", "--data", str(data), "--out", str(root / "train"),
                 "--mode", "adaptergnn", "--bottleneck", "2",
                 "--backbone-ckpt", str(encoder)] + small) == 0
    (task,) = (root / "train").glob("*/task.ckpt")
    garbage = root / "garbage.bin"
    garbage.write_bytes(b"\x00\xffnot a file of ours\n{\n")
    (root / "dir").mkdir()
    small_config = root / "small.cfg"
    small_config.write_text("emb_dim=3\nnum_layers=1\nepochs=1\n")
    bad_config = root / "bad.cfg"
    bad_config.write_text("emb_dim\n=3\nepochs==\n\xe9=1\n")
    return {"data": data, "task": task, "encoder": encoder, "garbage": garbage,
            "dir": root / "dir", "small_config": small_config,
            "bad_config": bad_config, "missing": root / "missing.jsonl"}


def _value(data, key, choices=None):
    if key in PATHS:
        return data.draw(st.sampled_from(PATHS[key]))
    if data.draw(st.booleans()):
        return data.draw(st.sampled_from(EDGE))
    return data.draw(st.sampled_from(list(choices or PLAUSIBLE.get(key, SMALL_INTS))))


def _mutate(data, name, items):
    """Replace a value, drop or repeat an item, or add a flag or grid word."""
    kind = data.draw(st.sampled_from(["value", "value", "value", "drop", "repeat", "add"]))
    if kind == "add" or not items:
        words = [(k, True, None) for k in GRID_WORDS] if name == "sweep" else []
        key, takes_value, choices = data.draw(st.sampled_from(SUBCOMMANDS[name] + words))
        items.append((key, _value(data, key, choices) if takes_value else None))
        return
    i = data.draw(st.integers(0, len(items) - 1))
    key, value = items[i]
    if kind == "drop":
        del items[i]
    elif value is not None:
        new = (key, _value(data, key))
        if kind == "value":
            items[i] = new
        else:
            items.append(new)


def _argv(name, items, files, out):
    """The command line of ``items``: flags first, then sweep grid words (an
    argparse positional list must not be split by flags)."""
    argv = [name]
    for key, value in items:
        if key in PATHS:
            value = str(out if value == "fresh" else files[value])
        if key.startswith("-"):
            argv += [key] if value is None else [key, value]
    return argv + [f"{k}={v}" for k, v in items if not k.startswith("-")]


# a numpy RuntimeWarning would be a stderr line a user sees, which pytest
# collects instead; as an error it ends in main's traceback and fails here
@pytest.mark.filterwarnings("error::RuntimeWarning")
@FUZZ
@given(data=st.data())
def test_any_argv_exits_cleanly(files, tmp_path_factory, capsys, data):
    name = data.draw(st.sampled_from(sorted(BASE)))
    items = list(BASE[name])
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, name, items)
    out = tmp_path_factory.mktemp("out") / "out"
    argv = _argv(name, items, files, out)
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, (argv, err)
    if code:
        assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
    if code == 1:
        assert not out.exists() or (out.is_dir() and not any(out.iterdir())), argv


def test_every_fuzzed_command_line_starts_valid(files, tmp_path, capsys):
    assert sorted(BASE) == sorted(SUBCOMMANDS)
    for name, items in BASE.items():
        argv = _argv(name, items, files, tmp_path / name)
        assert main(argv) == 0, (argv, capsys.readouterr().err)
