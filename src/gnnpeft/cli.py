"""Command-line harness: data generation, pre-training, fine-tuning,
evaluation, sweeps, and the paper-and-pencil calculators.

Exit codes: 0 success, 1 usage error (bad flags, bad config values,
refused overwrites), 2 runtime failure (bad files, divergence, undefined
metrics). ``open_run_dir`` opens each run directory once the data has
loaded, names it by the fingerprint of the run's echo (identical requests
collide), writes the echo there as ``config.txt`` and removes it if the run
fails; the echo's run keys rebuild the configs via ``build_run_configs``.

``RUN_KEYS`` is the one schema of a run's configuration: each key is a
``ModelConfig``/``PeftConfig``/``TrainConfig`` field (``vocab`` is split into
``node_vocab``/``edge_vocab``), a config-file key, a ``config.txt`` line and
its flag's argparse dest; a sweep's scalar keys set run keys (``SCALAR_KEYS``)
or ``sweep_plan`` keywords. Defaults live only in those dataclasses.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import pathlib
import shutil
import sys
from typing import Optional, Sequence

from .analysis import (SWEEP_KINDS, bound, BoundInput, count_params,
                       estimate_flops, hoeffding_gap, log_hypothesis_size_for,
                       sweep, sweep_csv, sweep_plan)
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


@contextlib.contextmanager
def _as_usage_error():
    """Report a constructor's refusal of a flag value as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# ---------------------------------------------------------------------------
# config files, value casting and the run-key schema
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


def _cast_str(key, v):
    return v


def _cast_bool(key, v):
    low = v.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise UsageError(f"{key}: expected true/false, got {v!r}")


def _number(kind, name):
    def cast(key, v):
        try:
            return kind(v)
        except ValueError:
            raise UsageError(f"{key}: expected {name}, got {v!r}") from None
    return cast


_cast_int, _cast_float = _number(int, "integer"), _number(float, "number")


def _cast_pair(key, v):
    parts = v.split(",")
    if len(parts) != 2:
        raise UsageError(f"{key}: expected two comma-separated integers, got {v!r}")
    return (_cast_int(key, parts[0]), _cast_int(key, parts[1]))


def _optional(caster):
    """``caster`` that also reads ``none`` as None."""
    return lambda key, v: None if v.lower() == "none" else caster(key, v)


_cast_opt_int, _cast_opt_bool = _optional(_cast_int), _optional(_cast_bool)
_METAVARS = {_cast_pair: "V0,V1", _cast_bool: "true|false",
             _cast_opt_bool: "true|false|none"}

# run key -> (command-line flag, caster from its string form); the order
# is the echo's, which checkpoint metas and summary.json keep
RUN_KEYS = {
    "emb_dim": ("--emb", _cast_int), "mlp_hidden": ("--hidden", _cast_opt_int),
    "num_layers": ("--layers", _cast_int), "num_tasks": ("--tasks", _cast_int),
    "dropout": ("--dropout", _cast_float),
    "node_vocab": ("--node-vocab", _cast_pair),
    "edge_vocab": ("--edge-vocab", _cast_pair),
    "mode": ("--mode", _cast_str), "bottleneck": ("--bottleneck", _cast_int),
    "lora_rank": ("--lora-rank", _cast_int),
    "scaling_init": ("--scaling-init", _cast_float),
    "tune_backbone_bias": ("--tune-backbone-bias", _cast_opt_bool),
    "tune_backbone_bn": ("--tune-backbone-bn", _cast_bool),
    "k": ("--k", _cast_int), "epochs": ("--epochs", _cast_int),
    "batch_size": ("--batch-size", _cast_int), "lr": ("--lr", _cast_float),
    "weight_decay": ("--weight-decay", _cast_float),
    "seed": ("--seed", _cast_int),
}
VOCAB_KEYS = {"node_vocab": "node", "edge_vocab": "edge"}  # Vocab's fields
CONFIGS = (ModelConfig, PeftConfig, TrainConfig)


def _add_run_flags(p: _Parser, *configs) -> None:
    """``--config`` and one flag per run key of the config classes ``configs``."""
    fields = {f.name for cls in configs for f in dataclasses.fields(cls)}
    keys = [k for k in RUN_KEYS if ("vocab" if k in VOCAB_KEYS else k) in fields]
    p.add_argument("--config")
    for key in keys:
        flag, cast = RUN_KEYS[key]
        p.add_argument(flag, dest=key, metavar=_METAVARS.get(cast))
    p.set_defaults(run_keys=keys)


def merge_config(args) -> dict:
    """Config file first, explicit flags override; keys outside the
    command's run keys are rejected."""
    merged = parse_config_file(args.config) if args.config else {}
    unknown = set(merged) - set(args.run_keys)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for key in args.run_keys:
        if getattr(args, key) is not None:
            merged[key] = getattr(args, key)
    return merged


def build_run_configs(merged: dict) -> tuple[ModelConfig, PeftConfig, TrainConfig]:
    """The three configs from run keys (string values are cast); absent
    keys take the dataclass defaults."""
    cast = {k: RUN_KEYS[k][1](k, v) if isinstance(v, str) else v
            for k, v in merged.items()}
    with _as_usage_error():
        cast["vocab"] = Vocab(**{part: cast.pop(k) for k, part in VOCAB_KEYS.items()
                                 if k in cast})
        return tuple(cls(**{f.name: cast[f.name] for f in dataclasses.fields(cls)
                            if f.name in cast}) for cls in CONFIGS)


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
    """Fully resolved flat config: every run key in canonical string
    form, so the fingerprint ignores which subset was passed explicitly.
    Tuning fields the mode does not read echo their defaults, so they do
    not fork the fingerprint either."""
    values = {f.name: getattr(c, f.name)
              for c in (model, canonical_peft(peft), train)
              for f in dataclasses.fields(c)}
    values.update({k: getattr(model.vocab, part) for k, part in VOCAB_KEYS.items()})
    echo = {k: _fmt(values[k]) for k in RUN_KEYS}
    if extra:
        echo.update({k: _fmt(v) for k, v in extra.items()})
    return echo


@contextlib.contextmanager
def open_run_dir(out_root, echo: dict, force: bool):
    """Yield the fingerprint of ``echo`` and a fresh directory of that name
    under ``out_root`` holding the echo as ``config.txt``. An existing one
    is refused unless ``force``; a run that fails inside the block leaves
    none behind."""
    fp = config_fingerprint(echo)
    d = pathlib.Path(out_root) / fp
    if d.exists():
        if not force:
            raise UsageError(f"output directory {d} already exists for this "
                             "config fingerprint; pass --force to overwrite")
        shutil.rmtree(d)
    d.mkdir(parents=True)
    lines = [f"{k}={echo[k]}" for k in sorted(echo)]
    (d / "config.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        yield fp, d
    except BaseException:
        shutil.rmtree(d)
        raise


def _out_dir(v: str) -> str:
    """An ``--out`` directory flag's value, checked as it is parsed, so a
    file in its place is a usage error before any work or output."""
    if pathlib.Path(v).exists() and not pathlib.Path(v).is_dir():
        raise UsageError(f"--out {v} is a file, not a directory")
    return v


def _write_json(out, name: str, payload: dict) -> None:
    """``payload`` as indented JSON with sorted keys in ``out/name``, if ``out``."""
    if out:
        out = pathlib.Path(out)
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _split_spec(mode: str, fractions: str) -> SplitSpec:
    parts = tuple(_cast_float("fractions", x) for x in fractions.split(","))
    with _as_usage_error():
        return SplitSpec(fractions=parts, mode=mode)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_data(args) -> int:
    out = pathlib.Path(args.out)
    if out.exists() and not args.force:
        raise UsageError(f"{out} exists; pass --force to overwrite")
    # only the values given: the defaults are generate_synthetic's and Vocab's
    given = {k: v for k, v in vars(args).items() if v is not None}
    with _as_usage_error():
        vocab = Vocab(**{part: given[k] for k, part in VOCAB_KEYS.items() if k in given})
        ds = generate_synthetic(args.n, vocab=vocab, **{k: given[k] for k in (
            "node_range", "edge_prob", "attr_affinity", "n_tasks", "seed") if k in given})
    out.parent.mkdir(parents=True, exist_ok=True)
    save_jsonl(ds, out)
    print(f"wrote {len(ds)} graphs to {out}")
    return 0


def cmd_pretrain(args) -> int:
    model, _, train = build_run_configs(merge_config(args))
    ds = load_jsonl(args.data, vocab=model.vocab)
    model = dataclasses.replace(model, num_tasks=ds.num_tasks)
    echo = canonical_echo(model, PeftConfig(), train,
                          extra={"command": "pretrain", "data": args.data})
    with open_run_dir(args.out, echo, args.force) as (fp, run_dir):
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
    want = canonical_echo(model, PeftConfig(), TrainConfig())
    for key in ("emb_dim", "num_layers", "node_vocab", "edge_vocab", "mlp_hidden"):
        got = cfg.get(key)
        if got is not None and str(got) != want[key]:
            raise CheckpointFormatError(
                f"backbone checkpoint was built with {key}={got}, "
                f"this run uses {key}={want[key]}")
    reg.load_state(params, buffers)


def cmd_train(args) -> int:
    model, peft, train = build_run_configs(merge_config(args))
    spec = _split_spec(args.split, args.fractions)
    if peft.mode != "full" and not args.backbone_ckpt \
            and not args.allow_random_backbone:
        raise UsageError(
            f"mode {peft.mode!r} fine-tunes a frozen backbone, but no "
            "--backbone-ckpt was given. Parameter-efficient tuning of a "
            "random backbone is only meaningful for the expressivity "
            "experiment; pass --allow-random-backbone to do it anyway.")
    ds = load_jsonl(args.data, vocab=model.vocab)
    model = dataclasses.replace(model, num_tasks=ds.num_tasks)
    train_ds, _, test_ds = split(ds, spec, seed=train.seed)

    reg = init_params(model, seed=train.seed)
    if args.backbone_ckpt:
        _load_backbone(reg, args.backbone_ckpt, model)
        backbone_ref = file_hash(args.backbone_ckpt)
    else:
        backbone_ref = f"random:{train.seed}"
    apply_peft(reg, model, peft, seed=train.seed)
    extra = {"command": "train", "data": args.data, "split": spec.mode,
             "fractions": spec.fractions,
             "backbone_ckpt": args.backbone_ckpt or "none"}
    echo = canonical_echo(model, peft, train, extra=extra)
    with open_run_dir(args.out, echo, args.force) as (fp, run_dir):
        record = train_supervised(train_ds, test_ds, reg, model, peft, train,
                                  fingerprint=fp, config_echo=echo)
        record.write(run_dir)
        meta = {"kind": "task", "fingerprint": fp, "seed": train.seed,
                "backbone_ref": backbone_ref, "config": echo}
        names = None if peft.mode == "full" else [  # None: every parameter
            n for n, p in reg.items() if p.trainable]
        save_checkpoint(run_dir / "task.ckpt", reg, meta, param_names=names)
    print(f"fingerprint {fp}")
    print(f"final_train_auc {record.train_auc[-1]:.10g}")
    print(f"final_test_auc {record.test_auc[-1]:.10g}")
    print(f"gap {record.gap:.10g}")
    return 0


def _task_meta(path, meta: dict) -> tuple[ModelConfig, PeftConfig, SplitSpec, int, str]:
    """(model config, tuning config, split, seed, backbone ref) from a task
    checkpoint's meta; a config value that is missing or fails casting or
    validation is the file's fault."""
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
    try:
        for key in ("split", "fractions"):
            if key not in cfg:
                raise UsageError(f"no {key!r}")
        model, peft, _ = build_run_configs({k: str(v) for k, v in cfg.items()
                                            if k in RUN_KEYS})
        spec = _split_spec(str(cfg["split"]), str(cfg["fractions"]))
    except UsageError as exc:
        raise CheckpointFormatError(f"{path}: task checkpoint config: {exc}") from None
    return model, peft, spec, seed, ref


def cmd_eval(args) -> int:
    meta, params, buffers = load_checkpoint(args.ckpt)
    if meta.get("kind") != "task":
        raise CheckpointFormatError(f"{args.ckpt} is not a task checkpoint")
    model, peft, spec, seed, ref = _task_meta(args.ckpt, meta)
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

    # a part of the split the run trained on, as its checkpoint records it
    part = ds if args.part == "all" else split(ds, spec, seed=seed)[
        ("train", "valid", "test").index(args.part)]
    auc = evaluate_auc(part, reg, model, peft)
    print(f"auc {auc:.10g}")
    _write_json(args.out, "eval.json", {
        "auc": auc, "part": args.part, "split": spec.mode,
        "fractions": list(spec.fractions), "n_graphs": len(part),
        "checkpoint": str(args.ckpt)})
    return 0


# sweep grid key -> (caster of each list item, the sweep_plan arguments it
# can feed); a kind's SWEEP_KINDS entry reads at most one of them
GRID_KEYS = {"emb": (_cast_int, "d_grid", "emb_dim"), "frac": (_cast_float, "frac_grid"),
             "b": (_cast_int, "b_grid", "bottleneck"), "mode": (_cast_str, "modes"),
             "dfull": (_cast_int, "d_full_grid"), "seed": (_cast_int, "seeds")}
# sweep scalar key -> the run key it sets (and whose caster it uses)
SCALAR_KEYS = {"layers": "num_layers", "epochs": "epochs", "batch_size": "batch_size",
               "lr": "lr", "dropout": "dropout", **{k: k for k in VOCAB_KEYS}}
# sweep scalar key -> caster, for sweep_plan's own scalar keywords
PLAN_KEYS = {"init": _cast_str, "pretrain_epochs": _cast_int}


def _sweep_request(kind: str, pairs: Sequence[str], config_path) -> tuple[dict, dict]:
    """(run keys, ``sweep_plan`` keywords) of a sweep's ``key=value`` words: a
    grid key feeds the argument of its own that the kind's ``SWEEP_KINDS``
    entry reads, a list if varied, else one run key's value as a scalar does."""
    raw = parse_config_file(config_path) if config_path else {}
    for item in pairs:
        if "=" not in item:
            raise UsageError(f"sweep grid entries look like key=value, got {item!r}")
        key, val = item.split("=", 1)
        raw[key.strip()] = val.strip()
    varies, once = SWEEP_KINDS[kind][:2]
    fed = {k: set(GRID_KEYS[k][1:]) & {*varies, *once} for k in raw if k in GRID_KEYS}
    unread = [k for k, args in fed.items() if not args]
    if unread:  # refused rather than ignored
        raise UsageError(f"a {kind} sweep does not read {', '.join(unread)}")
    given, kw = {}, {}
    for key, val in raw.items():
        if key in GRID_KEYS:
            (arg,), cast = fed[key], GRID_KEYS[key][0]
        elif key in SCALAR_KEYS:
            arg, cast = SCALAR_KEYS[key], RUN_KEYS[SCALAR_KEYS[key]][1]
        elif key in PLAN_KEYS:
            arg, cast = key, PLAN_KEYS[key]
        else:
            raise UsageError(f"unknown sweep key {key!r}")
        if arg in varies:
            kw[arg] = tuple(cast(key, p) for p in val.split(","))
        elif "," in val and key not in VOCAB_KEYS:
            raise UsageError(f"{key} takes one value in a {kind} sweep, got {val!r}")
        else:
            (kw if key in PLAN_KEYS else given)[arg] = cast(key, val)
    return given, kw


def cmd_sweep(args) -> int:
    if not args.out and not args.csv:
        raise UsageError("sweep needs --out and/or --csv")
    if args.jobs < 1:  # refused before the run directory opens, as sweep does
        raise UsageError(f"jobs must be >= 1, got {args.jobs}")
    given, kw = _sweep_request(args.kind, args.grid, args.config)
    model, peft, train = build_run_configs(given)
    kw.update(model=model, train=train, bottleneck=peft.bottleneck)
    plan = sweep_plan(args.kind, **kw)
    if len(plan) > CONFIRM_LIMIT and not args.yes:
        raise UsageError(f"sweep expands to {len(plan)} runs "
                         f"(> {CONFIRM_LIMIT}); pass --yes to confirm")
    ds = load_jsonl(args.data, vocab=model.vocab)
    # named by its plan: the values all its rows share, and each row
    shared = set(plan[0].items()).intersection(*(t.items() for t in plan))
    echo = {"data": args.data, **{k: _fmt(v) for k, v in shared},
            **{k: _fmt(getattr(model.vocab, part)) for k, part in VOCAB_KEYS.items()},
            "rows": ",".join(sorted(config_fingerprint(t) for t in plan))}
    opened = (open_run_dir(args.out, echo, args.force) if args.out
              else contextlib.nullcontext((None, None)))
    with opened as (fp, run_dir):
        rows = sweep(args.kind, ds, jobs=args.jobs, **kw)
        text = sweep_csv(rows)
        if run_dir:
            (run_dir / "sweep.csv").write_text(text)
    if run_dir:
        print(f"fingerprint {fp}", file=sys.stderr)
        print(f"wrote {run_dir / 'sweep.csv'} ({len(rows)} rows)",
              file=sys.stderr)
    if args.csv:
        sys.stdout.write(text)
    return 0


def cmd_count_params(args) -> int:
    model, peft, _ = build_run_configs(merge_config(args))
    reg = init_params(model, seed=0)
    apply_peft(reg, model, peft, seed=0)
    counts = count_params(reg)
    print(f"trainable {counts.trainable}")
    print(f"total {counts.total}")
    print(f"fraction {counts.fraction:.10g}")
    for group, (tot, tr) in counts.by_group.items():
        print(f"group {group} total {tot} trainable {tr}")
    _write_json(args.out, "count_params.json", {
        "trainable": counts.trainable, "total": counts.total,
        "fraction": counts.fraction,
        "by_group": {k: list(v) for k, v in counts.by_group.items()}})
    return 0


def cmd_flops(args) -> int:
    model, peft, _ = build_run_configs(merge_config(args))
    with _as_usage_error():
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
    _write_json(args.out, "flops.json", {
        "total": est.total, "forward": est.forward, "backward": est.backward,
        "variants": est.variants, "items": list(est.items),
        "constants": est.constants})
    return 0


def cmd_bound(args) -> int:
    if (args.logH is None) == (args.params is None):
        raise UsageError("pass exactly one of --logH or --params")
    with _as_usage_error():
        logh = args.logH if args.logH is not None \
            else log_hypothesis_size_for(args.params)
        gap = hoeffding_gap(logh, args.n, args.delta)
        b = None if args.train_error is None else bound(BoundInput(
            train_error=args.train_error, log_hypothesis_size=logh, n=args.n,
            delta=args.delta))
    print(f"gap {gap!r}")
    payload = {"gap": gap, "log_hypothesis_size": logh, "n": args.n,
               "delta": args.delta}
    if b is not None:
        print(f"bound {b!r}")
        payload["train_error"] = args.train_error
        payload["bound"] = b
    _write_json(args.out, "bound.json", payload)
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    top = _Parser(prog="gnnpeft",
                  description="GNN parameter-efficient fine-tuning workbench")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic JSONL dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--nodes", dest="node_range", metavar="LO,HI",
                   type=functools.partial(_cast_pair, "nodes"))
    p.add_argument("--edge-prob", type=float)
    p.add_argument("--attr-affinity", type=float)
    for key in VOCAB_KEYS:
        p.add_argument(RUN_KEYS[key][0], dest=key, metavar="V0,V1",
                       type=functools.partial(_cast_pair, key))
    p.add_argument("--tasks", dest="n_tasks", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("pretrain", help="edge-prediction pre-training")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, type=_out_dir)
    p.add_argument("--force", action="store_true")
    _add_run_flags(p, ModelConfig, TrainConfig)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train", help="supervised training / fine-tuning")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, type=_out_dir)
    p.add_argument("--force", action="store_true")
    p.add_argument("--backbone-ckpt")
    p.add_argument("--allow-random-backbone", action="store_true")
    p.add_argument("--split", choices=("structure", "random"),
                   default="structure")
    p.add_argument("--fractions", default="0.8,0.1,0.1")
    _add_run_flags(p, *CONFIGS)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a task checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--backbone-ckpt")
    p.add_argument("--part", choices=("train", "valid", "test", "all"),
                   default="test")
    p.add_argument("--out", type=_out_dir)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="run an experiment grid")
    p.add_argument("--kind", required=True, choices=tuple(SWEEP_KINDS))
    p.add_argument("--data", required=True)
    p.add_argument("--out", type=_out_dir)
    p.add_argument("--csv", action="store_true",
                   help="also print the CSV to stdout")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--yes", action="store_true")
    p.add_argument("--force", action="store_true")
    p.add_argument("--config")
    p.add_argument("grid", nargs="*", metavar="key=value",
                   help=f"grid keys: {', '.join(GRID_KEYS)} (comma lists); "
                        f"scalars: {', '.join([*SCALAR_KEYS, *PLAN_KEYS])}")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("count-params", help="exact parameter counts")
    p.add_argument("--out", type=_out_dir)
    _add_run_flags(p, ModelConfig, PeftConfig)
    p.set_defaults(func=cmd_count_params)

    p = sub.add_parser("flops", help="analytic FLOPs estimate")
    p.add_argument("--batch", type=int, default=32)
    p.add_argument("--phase", choices=("train", "infer"), default="train")
    p.add_argument("--avg-nodes", type=float, default=12.0)
    p.add_argument("--avg-edges", type=float, default=13.0)
    p.add_argument("--breakdown", action="store_true")
    p.add_argument("--out", type=_out_dir)
    _add_run_flags(p, ModelConfig, PeftConfig)
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("bound", help="finite-hypothesis generalization bound")
    p.add_argument("--logH", type=float, default=None)
    p.add_argument("--params", type=int, default=None,
                   help="trainable-parameter count; ln|H| = ln2 * params")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--train-error", type=float, default=None)
    p.add_argument("--out", type=_out_dir)
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
