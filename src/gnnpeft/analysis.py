"""Generalization-bound arithmetic, parameter counting, FLOPs estimation,
gap measurement, and the sweep experiment runners.

The finite-hypothesis bound used throughout: with probability 1−δ,
test error ≤ train error + sqrt((ln|H| + ln(2/δ)) / (2n)). The
log-hypothesis-size of a model with |P| trainable parameters is proxied
by ln|H| = c·|P| with c = ln 2 by default (one bit per parameter).
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import math
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .config import (ConfigError, ModelConfig, PeftConfig, TrainConfig,
                     config_fingerprint)
from .graphs import Dataset, SplitSpec, split
from .model import init_params
from .peft import (ADAPTER_SLOTS, apply_peft, backbone_trainable, canonical_peft,
                   check_fits)
from .registry import ParamRegistry
from .rng import RngStream
from .training import (RunRecord, encoder_state, pretrain_edgepred,
                       train_supervised)

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# bound calculator
# ---------------------------------------------------------------------------

def hoeffding_gap(log_hypothesis_size: float, n: int, delta: float) -> float:
    """sqrt((ln|H| + ln(2/δ)) / (2n)) — the uniform-convergence margin."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if log_hypothesis_size < 0.0:
        raise ValueError(f"log hypothesis size must be >= 0, got {log_hypothesis_size}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return math.sqrt((log_hypothesis_size + math.log(2.0 / delta)) / (2.0 * n))


@dataclass(frozen=True)
class BoundInput:
    train_error: float
    log_hypothesis_size: float
    n: int
    delta: float

    def __post_init__(self):
        if not 0.0 <= self.train_error <= 1.0:
            raise ValueError(f"train_error must be in [0, 1], got {self.train_error}")


def bound(inp: BoundInput) -> float:
    """Upper bound on test error: train error plus the margin."""
    return inp.train_error + hoeffding_gap(inp.log_hypothesis_size, inp.n, inp.delta)


def log_hypothesis_size_for(trainable_params: int, bits_per_param: float = LN2) -> float:
    """ln|H| proxy: c·|P| (default one bit of capacity per parameter)."""
    if trainable_params < 0:
        raise ValueError("parameter count cannot be negative")
    return bits_per_param * trainable_params


# ---------------------------------------------------------------------------
# parameter counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamCounts:
    total: int
    trainable: int
    by_group: dict
    """group -> (total, trainable)"""

    @property
    def fraction(self) -> float:
        return self.trainable / self.total


def count_params(reg: ParamRegistry) -> ParamCounts:
    """Exact counts by registry enumeration."""
    total = 0
    trainable = 0
    by_group: dict[str, list[int]] = {}
    for _, p in reg.items():
        size = p.tensor.data.size
        total += size
        g = by_group.setdefault(p.group, [0, 0])
        g[0] += size
        if p.trainable:
            trainable += size
            g[1] += size
    return ParamCounts(total, trainable,
                       {k: tuple(v) for k, v in sorted(by_group.items())})


# ---------------------------------------------------------------------------
# FLOPs estimation
# ---------------------------------------------------------------------------

# Per-element cost constants (multiply-add = 2). These are conventions,
# not silicon truth; they are reported with every estimate.
FLOP_COSTS = {
    "madd": 2,              # per multiply-add inside matrix products
    "bias_add": 1,          # per output element
    "add": 1,               # per element; backward adds 1 per grad-carrying input
    "relu_fwd": 1, "relu_bwd": 1,
    "bn_fwd_train": 8, "bn_fwd_eval": 4, "bn_bwd": 10,
    "dropout_fwd": 2, "dropout_bwd": 1,
    "scale_fwd": 1, "scale_bwd_input": 1, "scale_bwd_scalar": 2,
    "mp_fwd": 2,            # per directed-edge element: message add + scatter add
    "mp_bwd": 1,            # per directed-edge element routed back to inputs
    "emb_fwd": 1,           # two-table sum, per gathered element
    "emb_bwd": 1,           # per element per trainable table
    "ia3_fwd": 1, "ia3_bwd_input": 1, "ia3_bwd_vec": 2,
    "pool_fwd": 1, "pool_bwd": 1,
    "loss_fwd": 5, "loss_bwd": 3,   # per label element
}


@dataclass(frozen=True)
class FlopsEstimate:
    total: int
    forward: int
    backward: int
    items: tuple
    """(label, flops) pairs in forward order."""
    constants: dict
    variants: dict
    """dual-adapter mode only: totals for both backbone-bias treatments."""


class _FlopWalker:
    """Mirrors the forward graph symbolically, tracking which tensors
    would require gradients, and accrues documented per-op costs."""

    def __init__(self, train_phase: bool):
        self.train = train_phase
        self.fwd = 0
        self.bwd = 0
        self.items: list[tuple[str, int]] = []

    def _log(self, label: str, fwd: int, bwd: int) -> None:
        self.fwd += fwd
        if self.train:
            self.bwd += bwd
        self.items.append((label, fwd + (bwd if self.train else 0)))

    def linear(self, label: str, rows: int, n_in: int, n_out: int,
               w_train: bool, b_train: bool, x_rg: bool,
               with_bias: bool = True) -> bool:
        c = FLOP_COSTS
        fwd = c["madd"] * rows * n_in * n_out
        if with_bias:
            fwd += c["bias_add"] * rows * n_out
        bwd = 0
        if x_rg:
            bwd += c["madd"] * rows * n_in * n_out
        if w_train:
            bwd += c["madd"] * rows * n_in * n_out
        if b_train and with_bias:
            bwd += c["bias_add"] * rows * n_out
        self._log(label, fwd, bwd)
        return x_rg or w_train or (b_train and with_bias)

    def elementwise(self, label: str, elems: int, c_fwd: int, c_bwd: int,
                    rg: bool) -> bool:
        self._log(label, c_fwd * elems, c_bwd * elems if rg else 0)
        return rg

    def add(self, label: str, elems: int, rg_inputs: int) -> bool:
        self._log(label, FLOP_COSTS["add"] * elems,
                  FLOP_COSTS["add"] * elems * rg_inputs)
        return rg_inputs > 0

    def bn(self, label: str, elems: int, affine_train: bool, x_rg: bool) -> bool:
        c = FLOP_COSTS
        fwd = (c["bn_fwd_train"] if self.train else c["bn_fwd_eval"]) * elems
        bwd = c["bn_bwd"] * elems if (x_rg or affine_train) else 0
        self._log(label, fwd, bwd)
        return x_rg or affine_train


def _adapter_cost(w: _FlopWalker, label: str, rows: int, d: int, b: int,
                  x_rg: bool) -> bool:
    """Bottleneck adapter (all its parameters trainable); b=0 is identity."""
    if b == 0:
        return x_rg
    h_rg = w.linear(f"{label}.down", rows, d, b, True, True, x_rg)
    h_rg = w.elementwise(f"{label}.relu", rows * b,
                         FLOP_COSTS["relu_fwd"], FLOP_COSTS["relu_bwd"], h_rg)
    h_rg = w.linear(f"{label}.up", rows, b, d, True, True, h_rg)
    return w.bn(f"{label}.bn", rows * d, True, h_rg)


def _mlp_linear_cost(w: _FlopWalker, label: str, rows: int, n_in: int,
                     n_out: int, peft: PeftConfig, w_train: bool, b_train: bool,
                     x_rg: bool) -> bool:
    """One MLP linear as ``model._mlp_linear`` runs it: IA³ → linear → LoRA."""
    c = FLOP_COSTS
    h_rg = x_rg
    if peft.mode == "ia3":
        h_rg = w.elementwise(f"{label}.ia3", rows * n_in, c["ia3_fwd"],
                             c["ia3_bwd_input"] if x_rg else 0, True)
        w._log(f"{label}.ia3_vec_grad", 0, c["ia3_bwd_vec"] * rows * n_in)
    out_rg = w.linear(label, rows, n_in, n_out, w_train, b_train, h_rg)
    if peft.mode == "lora":
        r = peft.lora_rank
        w.linear(f"{label}.lora_a", rows, n_in, r, True, False, x_rg,
                 with_bias=False)
        w.linear(f"{label}.lora_b", rows, r, n_out, True, False, True,
                 with_bias=False)
        out_rg = w.add(f"{label}.lora_add", rows * n_out, int(out_rg) + 1)
    return out_rg


def _walk(model: ModelConfig, peft: PeftConfig, batch_size: int,
          train_phase: bool, avg_nodes: float, avg_edges: float) -> _FlopWalker:
    d, H, L, T = model.emb_dim, model.hidden, model.num_layers, model.num_tasks
    G = batch_size
    n = int(round(G * avg_nodes))
    m = int(round(G * avg_edges)) * 2 + n  # directed copies + self-loops
    mode = peft.mode
    w = _FlopWalker(train_phase)
    c = FLOP_COSTS

    def trains(name: str) -> bool:
        return backbone_trainable(name, peft, L)

    enc_train = trains("encoder.node_emb.0.weight")
    x_rg = enc_train
    w.elementwise("encoder.node_emb", n * d, c["emb_fwd"],
                  2 * c["emb_bwd"], enc_train)
    if mode == "prompt_feat":
        x_rg = w.add("encoder.prompt_add", n * d, int(x_rg) + 1)
    e_rg = enc_train
    w.elementwise("encoder.edge_emb", m * d, c["emb_fwd"],
                  2 * c["emb_bwd"], enc_train)

    for l in range(L):
        wt = trains(f"layer.{l}.mlp.0.weight")
        bias_t = trains(f"layer.{l}.mlp.0.bias")
        bn_t = trains(f"layer.{l}.bn.gamma")
        m_rg = w.elementwise(f"layer.{l}.mp", m * d, c["mp_fwd"], c["mp_bwd"],
                             x_rg or e_rg)
        if mode == "prompt_node":
            m_rg = w.add(f"layer.{l}.prompt_add", n * d, int(m_rg) + 1)

        h_rg = _mlp_linear_cost(w, f"layer.{l}.mlp.0", n, d, H, peft, wt,
                                bias_t, m_rg)
        h_rg = w.elementwise(f"layer.{l}.mlp.relu", n * H,
                             c["relu_fwd"], c["relu_bwd"], h_rg)
        h_rg = _mlp_linear_cost(w, f"layer.{l}.mlp.1", n, H, d, peft, wt,
                                bias_t, h_rg)
        h_rg = w.bn(f"layer.{l}.bn", n * d, bn_t, h_rg)

        slots = ADAPTER_SLOTS.get(mode)
        if slots is not None:
            input_rg = {"x": x_rg, "m": m_rg, "h": h_rg}
            outs_rg = [_adapter_cost(w, f"layer.{l}.{slot}", n, d,
                                     peft.bottleneck, input_rg[src])
                       for slot, src, _ in slots]
            for i, (_, _, scale) in enumerate(slots):
                if scale is not None:
                    outs_rg[i] = w.elementwise(
                        f"layer.{l}.{scale}", n * d, c["scale_fwd"],
                        c["scale_bwd_input"] if outs_rg[i] else 0, True)
                    w._log(f"layer.{l}.{scale}_grad", 0,
                           c["scale_bwd_scalar"] * n * d)
            h_rg = w.add(f"layer.{l}.combine", n * d, int(h_rg) + sum(outs_rg))

        if l < L - 1:
            h_rg = w.elementwise(f"layer.{l}.act", n * d,
                                 c["relu_fwd"], c["relu_bwd"], h_rg)
            if train_phase and model.dropout > 0.0:
                h_rg = w.elementwise(f"layer.{l}.dropout", n * d,
                                     c["dropout_fwd"], c["dropout_bwd"], h_rg)
        x_rg = h_rg

    emb_rg = w.elementwise("readout.mean_pool", n * d,
                           c["pool_fwd"], c["pool_bwd"], x_rg)
    w.linear("classifier", G, d, T, True, True, emb_rg)
    if train_phase:
        w._log("loss", c["loss_fwd"] * G * T, c["loss_bwd"] * G * T)
    return w


def estimate_flops(model: ModelConfig, peft: PeftConfig, batch_size: int,
                   phase: str = "train", avg_nodes: float = 12.0,
                   avg_edges: float = 13.0) -> FlopsEstimate:
    """Analytic FLOPs for one batch under the documented cost constants.

    Backward costs follow gradient reachability, as the tape does: a
    weight gradient is charged only for trainable weights, and an input
    gradient only where some trainable parameter sits upstream of that
    input. The per-op costs are conventions, not a count of the tape's
    arithmetic: message passing and embedding lookups are charged per
    gathered edge or node element (``mp_*``, ``emb_*``), while the tape
    computes them with a padded block-diagonal matmul and count-times-table
    matmuls, and the batch's shape is taken from ``avg_nodes`` and
    ``avg_edges``. Layer 0 is still charged as dense n×d work, although
    the forward pass runs its linear maps on code counts as Z·(S·W) with
    r ≪ d rows in S, so the estimate overstates layer 0's arithmetic and
    its values do not depend on which path runs. Likewise the "infer"
    phase charges the last layer's tail (mlp.1, BN, adapter
    up-projections) on all n node rows, although evaluation pools before
    it and runs it on one row per graph. For the dual-adapter
    mode the estimate also reports both backbone-bias treatments (tuned
    vs. frozen).
    """
    if phase not in ("train", "infer"):
        raise ValueError(f"phase must be train|infer, got {phase!r}")
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    if not (0 < avg_nodes < math.inf and 0 <= avg_edges < math.inf):
        raise ValueError("avg_nodes must be positive and avg_edges non-negative, "
                         f"both finite; got {avg_nodes} and {avg_edges}")
    train_phase = phase == "train"
    w = _walk(model, peft, batch_size, train_phase, avg_nodes, avg_edges)
    variants = {}
    if peft.mode == "adaptergnn":
        for label, flag in (("bias_tuned", True), ("bias_frozen", False)):
            v = _walk(model, replace(peft, tune_backbone_bias=flag),
                      batch_size, train_phase, avg_nodes, avg_edges)
            variants[label] = v.fwd + v.bwd
    return FlopsEstimate(total=w.fwd + w.bwd, forward=w.fwd, backward=w.bwd,
                         items=tuple(w.items), constants=dict(FLOP_COSTS),
                         variants=variants)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = ("fingerprint", "mode", "d", "b", "n_train", "seed",
                 "train_err", "test_err", "test_auc", "gap", "trainable_frac")


def _task_configs(task: dict, data) -> tuple[ModelConfig, PeftConfig, TrainConfig]:
    """A sweep run's configs on the vocab and task count of a dataset or model."""
    return (ModelConfig(emb_dim=task["d"], num_layers=task["layers"],
                        num_tasks=data.num_tasks, dropout=task["dropout"],
                        vocab=data.vocab),
            PeftConfig(mode=task["mode"], bottleneck=task["b"]),
            TrainConfig(epochs=task["epochs"], batch_size=task["batch_size"],
                        lr=task["lr"], seed=task["seed"]))


def _run_sweep_task(task: dict, train_ds: Dataset, test_ds: Dataset,
                    pretrained_state: Optional[tuple[dict, dict]]) -> dict:
    """One sweep row from its task dict, the sweep's split and, for a
    pretrained task, the backbone staged for its (d, seed)."""
    if "frac" in task:
        train_ds = _subsample(train_ds, task["frac"], task["seed"])
    model, peft, tcfg = _task_configs(task, train_ds)
    reg = init_params(model, seed=task["seed"])
    if pretrained_state is not None:
        reg.load_state(*pretrained_state)
    apply_peft(reg, model, peft, seed=task["seed"])
    fp = config_fingerprint(task)
    # a row reads only the final epoch's AUCs, so only that epoch is evaluated
    record = train_supervised(train_ds, test_ds, reg, model, peft, tcfg,
                              fingerprint=fp, config_echo=task,
                              eval_every_epoch=False)
    counts = count_params(reg)
    return {
        "fingerprint": fp, "mode": task["mode"], "d": task["d"], "b": task["b"],
        "n_train": len(train_ds), "seed": task["seed"],
        "train_err": record.final_train_err, "test_err": record.final_test_err,
        "test_auc": record.test_auc[-1], "gap": record.gap,
        "trainable_frac": counts.fraction,
        "trainable_count": counts.trainable,
        "record": record,
    }


def _subsample(ds: Dataset, frac: float, seed: int) -> Dataset:
    k = int(round(frac * len(ds)))
    if k < 1:
        raise ConfigError(f"data fraction {frac} leaves no training graphs")
    order = RngStream(seed, ("datasize",)).permutation(len(ds))
    return ds.subset([int(i) for i in order[:k]])


# kind -> (the grid argument it varies, the inits it takes, the runs at grid
# value v as (mode, d, b, extra task keys) given the request's width d and
# bottleneck b); expressivity's adapter arm recurs and is planned once
SWEEP_KINDS = {
    "model_size": ("d_grid", ("scratch", "pretrained"),
                   lambda v, d, b, modes: [(m, v, b, {}) for m in modes]),
    "data_size": ("frac_grid", ("scratch", "pretrained"),
                  lambda v, d, b, modes: [(m, d, b, {"frac": v}) for m in modes]),
    "bottleneck": ("b_grid", ("scratch", "pretrained"),
                   lambda v, d, b, modes: [("adaptergnn", d, v, {})]),
    "expressivity": ("d_full_grid", ("scratch",),
                     lambda v, d, b, modes: [("adaptergnn", d, b, {}),
                                             ("full", v, b, {})]),
}


def sweep_plan(kind: str, *, model: ModelConfig = ModelConfig(),
               train: TrainConfig = TrainConfig(),
               bottleneck: int = PeftConfig.bottleneck,
               d_grid: Sequence[int] = (), b_grid: Sequence[int] = (),
               frac_grid: Sequence[float] = (), d_full_grid: Sequence[int] = (),
               modes: Sequence[str] = ("full", "adaptergnn"),
               init: str = "scratch", pretrain_epochs: Optional[int] = None,
               seeds: Sequence[int] = (0,)) -> list[dict]:
    """Expand a sweep request into per-run task dicts, validating every
    grid point up front so bad grids fail before any work starts. A task
    holds every value its run reads but the data (a pretrained one its
    pre-training epochs, ``train.epochs`` by default), and the default
    ``b`` when its mode reads no bottleneck; a request value no task
    carries is refused, not dropped."""
    if kind not in SWEEP_KINDS:
        raise ConfigError(f"unknown sweep kind {kind!r}")
    grid_arg, inits, runs = SWEEP_KINDS[kind]
    grid = dict(d_grid=d_grid, b_grid=b_grid, frac_grid=frac_grid,
                d_full_grid=d_full_grid)[grid_arg]
    if not grid or not seeds:
        raise ConfigError(f"{kind} sweep needs {grid_arg} and at least one seed")
    if init not in inits:
        raise ConfigError(f"{kind} sweep takes init {'|'.join(inits)}, got {init!r}")
    if pretrain_epochs is not None and init != "pretrained":
        raise ConfigError("pretrain_epochs needs init=pretrained")
    if (model.mlp_hidden, train.weight_decay) != (ModelConfig.mlp_hidden,
                                                  TrainConfig.weight_decay):
        raise ConfigError("sweep runs keep the default mlp_hidden and weight_decay")
    base = {"layers": model.num_layers, "dropout": model.dropout,
            "epochs": train.epochs, "batch_size": train.batch_size,
            "lr": train.lr, "kind": kind, "init": init}
    if init == "pretrained":
        base["pretrain_epochs"] = (train.epochs if pretrain_epochs is None
                                   else pretrain_epochs)
    tasks: list[dict] = []
    for v in grid:
        for mode, d, b, extra in runs(v, model.emb_dim, bottleneck, modes):
            # a mode that reads no bottleneck holds the default, as
            # canonical_peft gives it, so b cannot fork its fingerprint
            b = canonical_peft(PeftConfig(mode=mode, bottleneck=b)).bottleneck
            for s in seeds:
                task = dict(base, mode=mode, d=d, b=b, seed=s, **extra)
                if task not in tasks:
                    tasks.append(task)
    for t in tasks:
        if not 0.0 < t.get("frac", 1.0) <= 1.0:
            raise ConfigError(f"data fraction must be in (0, 1], got {t['frac']}")
        check_fits(*_task_configs(t, model)[:2])
    return tasks


def sweep(kind: str, dataset: Dataset, *, jobs: int = 1,
          split_spec: SplitSpec = SplitSpec(mode="structure"),
          **plan) -> list[dict]:
    """Run one of the four experiment recipes and return result rows;
    ``plan`` holds ``sweep_plan``'s keywords.

    model_size — vary embedding width d (MLP hidden stays 2d) for each
        mode; ``init="pretrained"`` first runs edge-prediction
        pre-training per (d, seed) and all modes share that backbone.
    data_size  — subsample the train split to each fraction.
    bottleneck — vary the adapter width b (0 = identity) in the
        dual-adapter mode.
    expressivity — dual-adapter structure over a frozen random backbone
        vs. plain full training at the widths in ``d_full_grid``.

    Rows are sorted by fingerprint, the hash of the row's task dict
    (``row["record"].config``); ``_run_sweep_task`` regenerates the row
    bitwise from that dict. Each finished run prints one progress line
    (k/N, elapsed time, ETA) to stderr.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    tasks = sweep_plan(kind, **plan)
    train_ds, _, test_ds = split(dataset, split_spec, seed=0)
    start = time.perf_counter()

    # stage pre-trained backbones, shared across modes per (d, seed)
    staged: dict[tuple[int, int], tuple[dict, dict]] = {}
    for t in tasks:
        if t["init"] == "pretrained" and (t["d"], t["seed"]) not in staged:
            mcfg, _, tcfg = _task_configs(t, train_ds)
            pre = pretrain_edgepred(train_ds, mcfg,
                                    replace(tcfg, epochs=t["pretrain_epochs"]))
            staged[t["d"], t["seed"]] = encoder_state(pre[0])

    jobs_args = [(t, train_ds, test_ds, staged.get((t["d"], t["seed"])))
                 for t in tasks]
    rows: list[dict] = []
    runs_start = time.perf_counter()

    def finished(row: dict) -> None:
        rows.append(row)
        now, k = time.perf_counter(), len(rows)
        eta = (now - runs_start) / k * (len(tasks) - k)
        print(f"sweep {k}/{len(tasks)} done (mode={row['mode']} d={row['d']} "
              f"b={row['b']} seed={row['seed']}): elapsed {now - start:.1f}s, "
              f"ETA {eta:.1f}s", file=sys.stderr, flush=True)

    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_run_sweep_task, *a) for a in jobs_args]
            for future in concurrent.futures.as_completed(futures):
                finished(future.result())
    else:
        for a in jobs_args:
            finished(_run_sweep_task(*a))
    rows.sort(key=lambda r: r["fingerprint"])
    return rows


def sweep_csv(rows: Iterable[dict]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(SWEEP_COLUMNS)
    for r in rows:
        w.writerow([r["fingerprint"], r["mode"], r["d"], r["b"], r["n_train"],
                    r["seed"], f"{r['train_err']:.10g}", f"{r['test_err']:.10g}",
                    f"{r['test_auc']:.10g}", f"{r['gap']:.10g}",
                    f"{r['trainable_frac']:.10g}"])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# transfer / overfitting gains
# ---------------------------------------------------------------------------

class PairingError(ValueError):
    """Run records passed as a pair do not describe comparable runs."""


@dataclass(frozen=True)
class GapReport:
    tg_values: tuple
    tg_epoch1_loss_values: tuple
    og_measured: Optional[float]
    og_theoretical: Optional[float]
    og_by_d: dict
    notes: str
    provenance: dict

    @property
    def tg_median(self) -> Optional[float]:
        return float(np.median(self.tg_values)) if self.tg_values else None

    @property
    def tg_epoch1_loss_median(self) -> Optional[float]:
        vals = self.tg_epoch1_loss_values
        return float(np.median(vals)) if vals else None


def _pair_key(cfg: dict) -> dict:
    return {k: v for k, v in cfg.items() if k != "init"}


def compute_gaps(run_pairs: Sequence[tuple[RunRecord, RunRecord]] = (),
                 sweep_rows: Sequence[dict] = (), delta: float = 0.05,
                 bits_per_param: float = LN2) -> GapReport:
    """Measure transfer gain and overfitting-mitigation gain.

    ``run_pairs`` are (scratch, pretrained) records of otherwise
    identical runs: TG = scratch train error − pretrained train error at
    the final epoch (an epoch-1 loss-difference variant is reported too,
    since "training error" admits both readings).

    ``sweep_rows`` are from-scratch model-size rows of a single mode:
    for each seed the bound-with-measured-gap at width d is
    train_err + measured gap = test error, so
    OG = test_err(largest d) − min over d of test_err (median over
    seeds). The theoretical variant replaces the measured gap with the
    finite-hypothesis margin at each width.
    """
    tg_vals: list[float] = []
    tg_loss_vals: list[float] = []
    prov: dict = {"tg_pairs": [], "og_fingerprints": []}
    for scratch, pre in run_pairs:
        if _pair_key(scratch.config) != _pair_key(pre.config):
            raise PairingError(
                f"paired runs differ beyond init: {scratch.config} vs {pre.config}")
        if scratch.config.get("init") == pre.config.get("init"):
            raise PairingError("a TG pair needs one scratch and one pretrained run")
        tg_vals.append(scratch.final_train_err - pre.final_train_err)
        tg_loss_vals.append(scratch.train_loss[0] - pre.train_loss[0])
        prov["tg_pairs"].append((scratch.fingerprint, pre.fingerprint))

    og_measured = None
    og_theoretical = None
    og_by_d: dict = {}
    if sweep_rows:
        modes = {r["mode"] for r in sweep_rows}
        if len(modes) != 1:
            raise PairingError(f"overfitting-gain rows must share a mode, got {modes}")
        ds_sorted = sorted({r["d"] for r in sweep_rows})
        largest = ds_sorted[-1]
        seeds = sorted({r["seed"] for r in sweep_rows})
        measured, theoretical = [], []
        for s in seeds:
            by_d = {r["d"]: r for r in sweep_rows if r["seed"] == s}
            if set(by_d) != set(ds_sorted):
                raise PairingError(f"seed {s} is missing some widths")
            meas = {d: by_d[d]["test_err"] for d in ds_sorted}
            theo = {d: by_d[d]["train_err"] +
                    hoeffding_gap(bits_per_param * by_d[d]["trainable_count"],
                                  by_d[d]["n_train"], delta)
                    for d in ds_sorted}
            measured.append(meas[largest] - min(meas.values()))
            theoretical.append(theo[largest] - min(theo.values()))
        og_measured = float(np.median(measured))
        og_theoretical = float(np.median(theoretical))
        for d in ds_sorted:
            errs = [r["test_err"] for r in sweep_rows if r["d"] == d]
            og_by_d[d] = float(np.median(errs))
        prov["og_fingerprints"] = [r["fingerprint"] for r in sweep_rows]

    return GapReport(
        tg_values=tuple(tg_vals), tg_epoch1_loss_values=tuple(tg_loss_vals),
        og_measured=og_measured, og_theoretical=og_theoretical,
        og_by_d=og_by_d,
        notes=("overfitting gain uses the empirically measured gap in place "
               "of the O(sqrt(|P|/n)) capacity term; the theoretical variant "
               "uses the finite-hypothesis margin with ln|H| = c*|P|"),
        provenance=prov)
