"""Command-line harness: data generation, pre-training, fine-tuning,
evaluation, sweeps, and the paper-and-pencil calculators.

Exit codes: 0 success, 1 usage error (bad flags, bad config values,
refused overwrites), 2 runtime failure (bad files, divergence, undefined
metrics). Every run directory receives a flat ``config.txt`` echo that
reparses to the exact configuration used, and is named by the config
fingerprint so identical requests collide instead of duplicating.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import shutil
import sys
from typing import Optional, Sequence

import numpy as np

from .analysis import (bound, BoundInput, compute_gaps, count_params,
                       estimate_flops, hoeffding_gap, log_hypothesis_size_for,
                       sweep, sweep_csv, sweep_plan, SWEEP_COLUMNS)
from .config import (ConfigError, ModelConfig, PeftConfig, TrainConfig,
                     config_fingerprint)
from .graphs import (DatasetFormatError, SplitSpec, Vocab,
                     generate_synthetic, load_jsonl, save_jsonl, split)
from .model import init_params
from .peft import ModeError, apply_peft, canonical_peft
from .registry import (CheckpointFormatError, file_hash, load_checkpoint,
                       save_checkpoint)
from .training import (MetricUndefinedError, TrainingDivergedError,
                       UnlabelledEpochError, encoder_param_names, evaluate_auc,
                       pretrain_edgepred, train_supervised)

CONFIRM_LIMIT = 50  # sweeps above this many runs need --yes


class UsageError(Exception):
    """Invalid invocation; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


# ---------------------------------------------------------------------------
# config files and value casting
# ---------------------------------------------------------------------------

def parse_config_file(path) -> dict:
    """Flat ``key=value`` lines, UTF-8, ``#`` comments."""
    out: dict[str, str] = {}
    try:
        text = pathlib.Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def _cast_bool(key, v):
    low = v.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise UsageError(f"{key}: expected true/false, got {v!r}")


def _cast_opt(key, v, caster):
    return None if v.lower() == "none" else caster(key, v)


def _cast_int(key, v):
    try:
        return int(v)
    except ValueError:
        raise UsageError(f"{key}: expected integer, got {v!r}") from None


def _cast_float(key, v):
    try:
        return float(v)
    except ValueError:
        raise UsageError(f"{key}: expected number, got {v!r}") from None


def _cast_pair(key, v):
    parts = v.split(",")
    if len(parts) != 2:
        raise UsageError(f"{key}: expected two comma-separated integers, got {v!r}")
    return (_cast_int(key, parts[0]), _cast_int(key, parts[1]))


MODEL_KEYS = {
    "emb_dim": _cast_int, "mlp_hidden": lambda k, v: _cast_opt(k, v, _cast_int),
    "num_layers": _cast_int, "num_tasks": _cast_int, "dropout": _cast_float,
    "node_vocab": _cast_pair, "edge_vocab": _cast_pair,
}
PEFT_KEYS = {
    "mode": lambda k, v: v, "bottleneck": _cast_int, "lora_rank": _cast_int,
    "scaling_init": _cast_float,
    "tune_backbone_bias": lambda k, v: _cast_opt(k, v, _cast_bool),
    "tune_backbone_bn": _cast_bool, "k": _cast_int,
}
TRAIN_KEYS = {
    "epochs": _cast_int, "batch_size": _cast_int, "lr": _cast_float,
    "weight_decay": _cast_float, "seed": _cast_int,
}
RUN_KEYS = {**MODEL_KEYS, **PEFT_KEYS, **TRAIN_KEYS}

# command-line flag destinations that mirror config-file keys
FLAG_TO_KEY = {
    "emb": "emb_dim", "hidden": "mlp_hidden", "layers": "num_layers",
    "tasks": "num_tasks", "dropout": "dropout", "node_vocab": "node_vocab",
    "edge_vocab": "edge_vocab", "mode": "mode", "bottleneck": "bottleneck",
    "lora_rank": "lora_rank", "scaling_init": "scaling_init",
    "tune_backbone_bias": "tune_backbone_bias",
    "tune_backbone_bn": "tune_backbone_bn", "k": "k", "epochs": "epochs",
    "batch_size": "batch_size", "lr": "lr", "weight_decay": "weight_decay",
    "seed": "seed",
}


def _add_run_flags(p: _Parser, include=("model", "peft", "train")) -> None:
    if "model" in include:
        p.add_argument("--emb", metavar="D")
        p.add_argument("--hidden", metavar="H")
        p.add_argument("--layers", metavar="L")
        p.add_argument("--tasks", metavar="T")
        p.add_argument("--dropout")
        p.add_argument("--node-vocab", dest="node_vocab", metavar="V0,V1")
        p.add_argument("--edge-vocab", dest="edge_vocab", metavar="V0,V1")
    if "peft" in include:
        p.add_argument("--mode")
        p.add_argument("--bottleneck", metavar="B")
        p.add_argument("--lora-rank", dest="lora_rank")
        p.add_argument("--scaling-init", dest="scaling_init")
        p.add_argument("--tune-backbone-bias", dest="tune_backbone_bias",
                       metavar="true|false|none")
        p.add_argument("--tune-backbone-bn", dest="tune_backbone_bn",
                       metavar="true|false")
        p.add_argument("--k")
    if "train" in include:
        p.add_argument("--epochs")
        p.add_argument("--batch-size", dest="batch_size")
        p.add_argument("--lr")
        p.add_argument("--weight-decay", dest="weight_decay")
    p.add_argument("--seed")


def merge_config(args, allowed: dict) -> dict:
    """Config file first, explicit flags override; unknown keys rejected."""
    merged: dict[str, str] = {}
    if getattr(args, "config", None):
        file_cfg = parse_config_file(args.config)
        unknown = set(file_cfg) - set(allowed)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_cfg)
    for dest, key in FLAG_TO_KEY.items():
        if key not in allowed:
            continue
        val = getattr(args, dest, None)
        if val is not None:
            merged[key] = val
    return merged


def build_run_configs(merged: dict) -> tuple[ModelConfig, PeftConfig, TrainConfig]:
    cast: dict = {}
    for key, raw in merged.items():
        cast[key] = RUN_KEYS[key](key, raw) if isinstance(raw, str) else raw
    vocab_kw = {}
    if "node_vocab" in cast or "edge_vocab" in cast:
        vocab_kw["vocab"] = Vocab(node=cast.pop("node_vocab", Vocab().node),
                                  edge=cast.pop("edge_vocab", Vocab().edge))
    else:
        cast.pop("node_vocab", None)
        cast.pop("edge_vocab", None)
    model = ModelConfig(**{k: cast[k] for k in MODEL_KEYS
                           if k in cast and not k.endswith("_vocab")},
                        **vocab_kw)
    peft = PeftConfig(**{k: cast[k] for k in PEFT_KEYS if k in cast})
    train = TrainConfig(**{k: cast[k] for k in TRAIN_KEYS if k in cast})
    return model, peft, train


def _fmt(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (tuple, list)):
        return ",".join(str(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def canonical_echo(model: ModelConfig, peft: PeftConfig, train: TrainConfig,
                   extra: Optional[dict] = None) -> dict:
    """Fully resolved flat config: every known key in canonical string
    form, so the fingerprint ignores which subset was passed explicitly.
    Tuning fields the mode does not read echo their defaults, so they do
    not fork the fingerprint either."""
    peft = canonical_peft(peft)
    echo = {
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
    if extra:
        echo.update({k: _fmt(v) for k, v in extra.items()})
    return echo


def write_echo(directory: pathlib.Path, echo: dict) -> None:
    lines = [f"{k}={echo[k]}" for k in sorted(echo)]
    (directory / "config.txt").write_text("\n".join(lines) + "\n",
                                          encoding="utf-8")


def prepare_run_dir(out_root, fingerprint: str, force: bool) -> pathlib.Path:
    d = pathlib.Path(out_root) / fingerprint
    if d.exists():
        if not force:
            raise UsageError(f"output directory {d} already exists for this "
                             "config fingerprint; pass --force to overwrite")
        shutil.rmtree(d)
    d.mkdir(parents=True)
    return d


def _split_spec(args) -> SplitSpec:
    fractions = tuple(float(x) for x in args.fractions.split(","))
    return SplitSpec(fractions=fractions, mode=args.split)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    out = pathlib.Path(args.out)
    if out.exists() and not args.force:
        raise UsageError(f"{out} exists; pass --force to overwrite")
    nodes = _cast_pair("nodes", args.nodes)
    vocab = Vocab(node=_cast_pair("node_vocab", args.node_vocab),
                  edge=_cast_pair("edge_vocab", args.edge_vocab))
    ds = generate_synthetic(args.n, node_range=nodes,
                            edge_prob=args.edge_prob, vocab=vocab,
                            n_tasks=args.tasks, seed=args.seed,
                            attr_affinity=args.attr_affinity)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_jsonl(ds, out)
    print(f"wrote {len(ds)} graphs to {out}")
    return 0


def cmd_pretrain(args) -> int:
    merged = merge_config(args, {**MODEL_KEYS, **TRAIN_KEYS})
    model, _, train = build_run_configs(merged)
    echo = canonical_echo(model, PeftConfig(mode="full"), train,
                          extra={"command": "pretrain", "data": args.data})
    fp = config_fingerprint(echo)
    run_dir = prepare_run_dir(args.out, fp, args.force)
    write_echo(run_dir, echo)
    ds = load_jsonl(args.data, vocab=model.vocab)
    model = dataclasses.replace(model, num_tasks=ds.num_tasks)
    reg, losses = pretrain_edgepred(ds, model, train)
    meta = {"kind": "encoder", "fingerprint": fp, "seed": train.seed,
            "config": echo}
    ckpt = run_dir / "encoder.ckpt"
    save_checkpoint(ckpt, reg, meta, param_names=encoder_param_names(reg))
    lines = ["epoch,loss"] + [f"{i + 1},{v:.10g}" for i, v in enumerate(losses)]
    (run_dir / "losses.csv").write_text("\n".join(lines) + "\n")
    print(f"fingerprint {fp}")
    print(f"checkpoint {ckpt}")
    print(f"final_loss {losses[-1]:.10g}")
    return 0


def _load_backbone(reg, path, model: ModelConfig) -> None:
    """Load an encoder checkpoint built for ``model``'s shapes into ``reg``."""
    meta, params, buffers = load_checkpoint(path)
    if meta.get("kind") != "encoder":
        raise CheckpointFormatError(
            f"{path} is not an encoder checkpoint (kind {meta.get('kind')!r})")
    cfg = meta.get("config", {})
    for key, want in (("emb_dim", model.emb_dim),
                      ("num_layers", model.num_layers),
                      ("node_vocab", _fmt(model.vocab.node)),
                      ("edge_vocab", _fmt(model.vocab.edge)),
                      ("mlp_hidden", _fmt(model.mlp_hidden))):
        got = cfg.get(key)
        if got is not None and str(got) != str(want):
            raise CheckpointFormatError(
                f"backbone checkpoint was built with {key}={got}, "
                f"this run uses {key}={want}")
    reg.load_state(params, buffers)


def cmd_train(args) -> int:
    merged = merge_config(args, RUN_KEYS)
    model, peft, train = build_run_configs(merged)
    if peft.mode != "full" and not args.backbone_ckpt \
            and not args.allow_random_backbone:
        raise UsageError(
            f"mode {peft.mode!r} fine-tunes a frozen backbone, but no "
            "--backbone-ckpt was given. Parameter-efficient tuning of a "
            "random backbone is only meaningful for the expressivity "
            "experiment; pass --allow-random-backbone to do it anyway.")
    extra = {"command": "train", "data": args.data, "split": args.split,
             "fractions": args.fractions,
             "backbone_ckpt": args.backbone_ckpt or "none"}
    echo = canonical_echo(model, peft, train, extra=extra)
    fp = config_fingerprint(echo)
    run_dir = prepare_run_dir(args.out, fp, args.force)
    write_echo(run_dir, echo)
    ds = load_jsonl(args.data, vocab=model.vocab)
    model = dataclasses.replace(model, num_tasks=ds.num_tasks)
    train_ds, _, test_ds = split(ds, _split_spec(args), seed=train.seed)

    reg = init_params(model, seed=train.seed)
    if args.backbone_ckpt:
        _load_backbone(reg, args.backbone_ckpt, model)
        backbone_ref = file_hash(args.backbone_ckpt)
    else:
        backbone_ref = f"random:{train.seed}"
    apply_peft(reg, model, peft, seed=train.seed)

    record = train_supervised(train_ds, test_ds, reg, model, peft, train,
                              fingerprint=fp, config_echo=echo)
    record.write(run_dir)
    meta = {"kind": "task", "fingerprint": fp, "seed": train.seed,
            "backbone_ref": backbone_ref, "config": echo}
    if peft.mode == "full":
        names = None  # everything
    else:
        names = [n for n, p in reg.items() if p.trainable]
    save_checkpoint(run_dir / "task.ckpt", reg, meta, param_names=names)
    print(f"fingerprint {fp}")
    print(f"final_train_auc {record.train_auc[-1]:.10g}")
    print(f"final_test_auc {record.test_auc[-1]:.10g}")
    print(f"gap {record.gap:.10g}")
    return 0


def _task_meta(path, meta: dict) -> tuple[dict, int, str]:
    """(config echo, seed, backbone ref) from a task checkpoint's meta."""
    cfg, seed = meta.get("config"), meta.get("seed")
    ref = meta.get("backbone_ref", "")
    for key, value, ok, want in (
            ("config", cfg, isinstance(cfg, dict), "an object"),
            ("seed", seed, isinstance(seed, int) and not isinstance(seed, bool),
             "an integer"),
            ("backbone_ref", ref, isinstance(ref, str), "a string")):
        if not ok:
            raise CheckpointFormatError(
                f"{path}: task checkpoint meta {key!r} must be {want}, got {value!r}")
    return cfg, seed, ref


def cmd_eval(args) -> int:
    meta, params, buffers = load_checkpoint(args.ckpt)
    if meta.get("kind") != "task":
        raise CheckpointFormatError(f"{args.ckpt} is not a task checkpoint")
    cfg, seed, ref = _task_meta(args.ckpt, meta)
    model, peft, train = build_run_configs(
        {k: v for k, v in cfg.items() if k in RUN_KEYS})
    ds = load_jsonl(args.data, vocab=model.vocab)
    model = dataclasses.replace(model, num_tasks=ds.num_tasks)
    reg = init_params(model, seed=seed)
    if peft.mode != "full" and not ref.startswith("random:"):
        if not args.backbone_ckpt:
            raise UsageError("this checkpoint fine-tuned a pre-trained "
                             "backbone; pass --backbone-ckpt")
        if file_hash(args.backbone_ckpt) != ref:
            raise CheckpointFormatError(
                "backbone checkpoint hash does not match the one recorded "
                "at training time")
        _load_backbone(reg, args.backbone_ckpt, model)
    apply_peft(reg, model, peft, seed=seed)
    reg.load_state(params, buffers)

    spec = _split_spec(args)
    if args.part == "all":
        part = ds
    else:
        idx = {"train": 0, "valid": 1, "test": 2}[args.part]
        part = split(ds, spec, seed=seed)[idx]
    auc = evaluate_auc(part, reg, model, peft)
    print(f"auc {auc:.10g}")
    if args.out:
        out = pathlib.Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "eval.json").write_text(json.dumps(
            {"auc": auc, "part": args.part, "n_graphs": len(part),
             "checkpoint": str(args.ckpt)}, indent=2, sort_keys=True) + "\n")
    return 0


GRID_KEYS = {"emb": _cast_int, "b": _cast_int, "frac": _cast_float,
             "dfull": _cast_int, "mode": lambda k, v: v, "seed": _cast_int}
SCALAR_KEYS = {"layers": _cast_int, "epochs": _cast_int,
               "batch_size": _cast_int, "lr": _cast_float,
               "dropout": _cast_float, "init": lambda k, v: v,
               "pretrain_epochs": _cast_int, "node_vocab": _cast_pair,
               "edge_vocab": _cast_pair}


def _parse_sweep_grid(pairs: Sequence[str], config_path) -> tuple[dict, dict]:
    raw: dict[str, str] = {}
    if config_path:
        raw.update(parse_config_file(config_path))
    for item in pairs:
        if "=" not in item:
            raise UsageError(f"sweep grid entries look like key=value, got {item!r}")
        key, val = item.split("=", 1)
        raw[key.strip()] = val.strip()
    grids: dict[str, list] = {}
    scalars: dict = {}
    for key, val in raw.items():
        if key in GRID_KEYS:
            grids[key] = [GRID_KEYS[key](key, p) for p in val.split(",")]
        elif key in SCALAR_KEYS:
            if "," in val and key not in ("node_vocab", "edge_vocab"):
                raise UsageError(f"{key} does not sweep; got list {val!r}")
            scalars[key] = SCALAR_KEYS[key](key, val)
        else:
            raise UsageError(f"unknown sweep key {key!r}")
    return grids, scalars


def cmd_sweep(args) -> int:
    if not args.out and not args.csv:
        raise UsageError("sweep needs --out and/or --csv")
    grids, scalars = _parse_sweep_grid(args.grid, args.config)
    vocab = Vocab(node=scalars.get("node_vocab", Vocab().node),
                  edge=scalars.get("edge_vocab", Vocab().edge))
    embs = grids.get("emb", [ModelConfig().emb_dim])
    model = ModelConfig(emb_dim=embs[0], num_layers=scalars.get("layers", 5),
                        dropout=scalars.get("dropout", 0.5), vocab=vocab)
    train = TrainConfig(epochs=scalars.get("epochs", 100),
                        batch_size=scalars.get("batch_size", 32),
                        lr=scalars.get("lr", 1e-3),
                        seed=grids.get("seed", [0])[0])
    kw = dict(model=model, train=train,
              bottleneck=grids.get("b", [15])[0],
              d_grid=tuple(grids.get("emb", ())),
              b_grid=tuple(grids.get("b", ())),
              frac_grid=tuple(grids.get("frac", ())),
              d_full_grid=tuple(grids.get("dfull", ())),
              modes=tuple(grids.get("mode", ("full", "adaptergnn"))),
              init=scalars.get("init", "scratch"),
              seeds=tuple(grids.get("seed", (0,))))
    plan = sweep_plan(args.kind, **kw)
    if len(plan) > CONFIRM_LIMIT and not args.yes:
        raise UsageError(f"sweep expands to {len(plan)} runs "
                         f"(> {CONFIRM_LIMIT}); pass --yes to confirm")
    echo = {"command": "sweep", "kind": args.kind, "data": args.data,
            **{k: _fmt(v) for k, v in sorted(scalars.items())},
            **{k: _fmt(v) for k, v in sorted(grids.items())}}
    fp = config_fingerprint(echo)
    ds = load_jsonl(args.data, vocab=vocab)
    rows = sweep(args.kind, ds, jobs=args.jobs,
                 pretrain_epochs=scalars.get("pretrain_epochs"), **kw)
    text = sweep_csv(rows)
    if args.out:
        run_dir = prepare_run_dir(args.out, fp, args.force)
        write_echo(run_dir, echo)
        (run_dir / "sweep.csv").write_text(text)
        print(f"fingerprint {fp}", file=sys.stderr)
        print(f"wrote {run_dir / 'sweep.csv'} ({len(rows)} rows)",
              file=sys.stderr)
    if args.csv:
        sys.stdout.write(text)
    return 0


def cmd_count_params(args) -> int:
    merged = merge_config(args, {**MODEL_KEYS, **PEFT_KEYS})
    model, peft, _ = build_run_configs(merged)
    reg = init_params(model, seed=0)
    apply_peft(reg, model, peft, seed=0)
    counts = count_params(reg)
    print(f"trainable {counts.trainable}")
    print(f"total {counts.total}")
    print(f"fraction {counts.fraction:.10g}")
    for group, (tot, tr) in counts.by_group.items():
        print(f"group {group} total {tot} trainable {tr}")
    if args.out:
        out = pathlib.Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "count_params.json").write_text(json.dumps(
            {"trainable": counts.trainable, "total": counts.total,
             "fraction": counts.fraction,
             "by_group": {k: list(v) for k, v in counts.by_group.items()}},
            indent=2, sort_keys=True) + "\n")
    return 0


def cmd_flops(args) -> int:
    merged = merge_config(args, {**MODEL_KEYS, **PEFT_KEYS})
    model, peft, _ = build_run_configs(merged)
    est = estimate_flops(model, peft, args.batch, phase=args.phase,
                         avg_nodes=args.avg_nodes, avg_edges=args.avg_edges)
    print(f"total {est.total}")
    print(f"forward {est.forward}")
    print(f"backward {est.backward}")
    for label, val in est.variants.items():
        print(f"variant {label} {val}")
    if args.breakdown:
        for label, val in est.items:
            print(f"item {label} {val}")
    if args.out:
        out = pathlib.Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "flops.json").write_text(json.dumps(
            {"total": est.total, "forward": est.forward,
             "backward": est.backward, "variants": est.variants,
             "items": list(est.items), "constants": est.constants},
            indent=2, sort_keys=True) + "\n")
    return 0


def cmd_bound(args) -> int:
    if (args.logH is None) == (args.params is None):
        raise UsageError("pass exactly one of --logH or --params")
    logh = args.logH if args.logH is not None \
        else log_hypothesis_size_for(args.params)
    try:
        gap = hoeffding_gap(logh, args.n, args.delta)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    print(f"gap {gap!r}")
    payload = {"gap": gap, "log_hypothesis_size": logh, "n": args.n,
               "delta": args.delta}
    if args.train_error is not None:
        b = bound(BoundInput(train_error=args.train_error,
                             log_hypothesis_size=logh, n=args.n,
                             delta=args.delta))
        print(f"bound {b!r}")
        payload["train_error"] = args.train_error
        payload["bound"] = b
    if args.out:
        out = pathlib.Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "bound.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    top = _Parser(prog="gnnpeft",
                  description="GNN parameter-efficient fine-tuning workbench")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", parents=[], help="write a synthetic JSONL dataset",
                       add_help=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--nodes", default="6,16")
    p.add_argument("--edge-prob", dest="edge_prob", type=float, default=0.25)
    p.add_argument("--attr-affinity", dest="attr_affinity", type=float,
                   default=0.0)
    p.add_argument("--node-vocab", dest="node_vocab", default="8,4")
    p.add_argument("--edge-vocab", dest="edge_vocab", default="4,3")
    p.add_argument("--tasks", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force", action="store_true")
    p.add_argument("--config", default=None, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("pretrain", help="edge-prediction pre-training")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--force", action="store_true")
    _add_run_flags(p, include=("model", "train"))
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train", help="supervised training / fine-tuning")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--force", action="store_true")
    p.add_argument("--backbone-ckpt", dest="backbone_ckpt")
    p.add_argument("--allow-random-backbone", dest="allow_random_backbone",
                   action="store_true")
    p.add_argument("--split", choices=("structure", "random"),
                   default="structure")
    p.add_argument("--fractions", default="0.8,0.1,0.1")
    _add_run_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a task checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--backbone-ckpt", dest="backbone_ckpt")
    p.add_argument("--part", choices=("train", "valid", "test", "all"),
                   default="test")
    p.add_argument("--split", choices=("structure", "random"),
                   default="structure")
    p.add_argument("--fractions", default="0.8,0.1,0.1")
    p.add_argument("--out")
    p.add_argument("--config", default=None, help=argparse.SUPPRESS)
    p.add_argument("--seed", default=None, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="run an experiment grid")
    p.add_argument("--kind", required=True,
                   choices=("model_size", "data_size", "bottleneck",
                            "expressivity"))
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.add_argument("--csv", action="store_true",
                   help="also print the CSV to stdout")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--yes", action="store_true")
    p.add_argument("--force", action="store_true")
    p.add_argument("--config")
    p.add_argument("--seed", default=None, help=argparse.SUPPRESS)
    p.add_argument("grid", nargs="*", metavar="key=value",
                   help="grid keys: emb, b, frac, dfull, mode, seed "
                        "(comma lists); scalars: layers, epochs, batch_size, "
                        "lr, dropout, init, pretrain_epochs")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("count-params", help="exact parameter counts")
    p.add_argument("--out")
    p.add_argument("--config")
    _add_run_flags(p, include=("model", "peft"))
    p.set_defaults(func=cmd_count_params)

    p = sub.add_parser("flops", help="analytic FLOPs estimate")
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--phase", choices=("train", "infer"), default="train")
    p.add_argument("--avg-nodes", dest="avg_nodes", type=float, default=12.0)
    p.add_argument("--avg-edges", dest="avg_edges", type=float, default=13.0)
    p.add_argument("--breakdown", action="store_true")
    p.add_argument("--out")
    p.add_argument("--config")
    _add_run_flags(p, include=("model", "peft"))
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("bound", help="finite-hypothesis generalization bound")
    p.add_argument("--logH", type=float, default=None)
    p.add_argument("--params", type=int, default=None,
                   help="trainable-parameter count; ln|H| = ln2 * params")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--train-error", dest="train_error", type=float,
                   default=None)
    p.add_argument("--out")
    p.add_argument("--config", default=None, help=argparse.SUPPRESS)
    p.add_argument("--seed", default=None, help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_bound)
    return top


RUNTIME_ERRORS = (DatasetFormatError, CheckpointFormatError,
                  TrainingDivergedError, MetricUndefinedError, ModeError,
                  UnlabelledEpochError, OSError)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (UsageError, ConfigError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # unexpected bug: still a runtime failure
        import traceback
        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
