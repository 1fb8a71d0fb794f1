"""Optimization loop, edge-prediction pre-training, ranking metrics,
and run recording. Fine-tuning and pre-training share one fitting loop,
``_fit``, and differ only in their batch loss; ``encoder_state`` is the
one hand-off of a pre-trained backbone to another registry.

Runs are deterministic functions of (configs, seed): batch order, dropout
masks, edge hiding, and negative sampling all draw from named streams
derived from the training seed. Reported "training error" is 1 − train
ROC-AUC (a ranking proxy for the 0/1 loss; the raw loss is recorded per
epoch alongside it).
"""

from __future__ import annotations

import csv
import io
import json
import os
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .config import ModelConfig, PeftConfig, TrainConfig
from .graphs import Dataset, Graph, batch as make_batch
from .model import forward_logits, gin_node_states, init_params
from .registry import ParamRegistry
from .rng import RngStream
from .tensor import (EmptyLossError, Tape, Tensor, bce_with_logits, gather_rows,
                     row_dot)


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; carries the epoch where it happened."""

    def __init__(self, epoch: int, loss: float):
        super().__init__(f"training diverged at epoch {epoch}: loss={loss}")
        self.epoch = epoch


class UnlabelledEpochError(ValueError):
    """Every training label of an epoch is missing, so there is no loss to
    fit; carries the epoch."""

    def __init__(self, epoch: int):
        super().__init__(f"epoch {epoch}: every training label is missing; "
                         "nothing to fit")
        self.epoch = epoch


class MetricUndefinedError(ValueError):
    """No task had both positive and negative labels; AUC is undefined."""


# Adam updates this many elements at a time, so a chunk of the parameter,
# its gradient, both moments and two scratch rows stay in cache.
ADAM_CHUNK = 1 << 14
# moment decay rates and denominator offset, the textbook values; no run varies them
ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
# evaluation forwards graphs in chunks whose widest activation holds at most
# this many floats (8 MB): 1,024 rows at d=512, a whole trend split at d<=128
EVAL_BUDGET = 1 << 20


def _flat(a: np.ndarray) -> np.ndarray:
    """A 1-D view of ``a``; raises rather than hand back a copy that
    in-place updates would never reach."""
    if not a.flags.c_contiguous:
        raise ValueError(f"array of shape {a.shape} has no flat view")
    return a.reshape(-1)


class Adam:
    """Adam over the registry's trainable tensors (weight_decay as plain L2).

    The update runs in place over flat views of each parameter, its
    gradient and both moments, ``ADAM_CHUNK`` elements at a time, through
    two preallocated scratch rows; it performs the same floating-point
    operations in the same order as the textbook whole-array form. A
    parameter that got no gradient (``grad`` is None) is updated through
    the same operations with a gradient of zeros, read from a preallocated
    row of them.

    A step may be split: ``update(t)`` applies the pending step to one
    parameter as soon as its gradient is complete (``Tape.backward``'s
    ``on_leaf``) and drops that gradient, and ``step()`` applies it to
    every parameter not yet updated, then ends the step. Each element
    goes through the same operations either way.
    """

    def __init__(self, registry: ParamRegistry, cfg: TrainConfig):
        self.registry = registry
        self.cfg = cfg
        self.slots = [(name, t) for name, t in registry.trainable_tensors()]
        self.m = {name: np.zeros_like(t.data) for name, t in self.slots}
        self.v = {name: np.zeros_like(t.data) for name, t in self.slots}
        self.t = 0
        self._slot_of = {id(t): i for i, (_, t) in enumerate(self.slots)}
        self._updated = [False] * len(self.slots)  # in the pending step
        width = min(ADAM_CHUNK, max((t.data.size for _, t in self.slots), default=0))
        self._scratch = np.empty((2, width))
        self._zeros = np.zeros(width)

    def update(self, tensor: Tensor) -> None:
        """Apply the pending step to ``tensor`` now and drop its gradient;
        a tensor that is not a slot, or was already updated, is left alone."""
        i = self._slot_of.get(id(tensor))
        if i is not None and not self._updated[i]:
            self._apply(i)
            self._updated[i] = True
            tensor.grad = None

    def step(self) -> None:
        for i, done in enumerate(self._updated):
            if not done:
                self._apply(i)
        self._updated = [False] * len(self.slots)
        self.t += 1

    def _apply(self, i: int) -> None:
        """Step ``t + 1`` for slot i."""
        b1, b2 = ADAM_BETAS
        bc1 = 1.0 - b1 ** (self.t + 1)
        bc2 = 1.0 - b2 ** (self.t + 1)
        lr, eps, wd = self.cfg.lr, ADAM_EPS, self.cfg.weight_decay
        name, tensor = self.slots[i]
        p = _flat(tensor.data)
        grad = None if tensor.grad is None else _flat(tensor.grad)
        m, v = _flat(self.m[name]), _flat(self.v[name])
        for lo in range(0, p.size, ADAM_CHUNK):
            hi = min(lo + ADAM_CHUNK, p.size)
            pc, mc, vc = p[lo:hi], m[lo:hi], v[lo:hi]
            s, u = self._scratch[0, :hi - lo], self._scratch[1, :hi - lo]
            g = self._zeros[:hi - lo] if grad is None else grad[lo:hi]
            if wd:
                np.multiply(pc, wd, out=s)
                s += g  # g + wd·p
                g = s
            mc *= b1
            np.multiply(g, 1.0 - b1, out=u)
            mc += u
            vc *= b2
            np.multiply(g, 1.0 - b2, out=u)
            u *= g
            vc += u
            # p -= lr·(m/bc1) / (sqrt(v/bc2) + eps); g is no longer read
            np.divide(mc, bc1, out=s)
            s *= lr
            np.divide(vc, bc2, out=u)
            np.sqrt(u, out=u)
            u += eps
            s /= u
            pc -= s

    def zero_grad(self) -> None:
        self.registry.zero_grads()


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _rank_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Exact AUC by tie-averaged ranks: equals pairwise
    (#correct + 0.5·#ties)/#pairs because all intermediate values are
    half-integers representable in float64."""
    n = scores.shape[0]
    order = np.argsort(scores, kind="mergesort")
    s = scores[order]
    ranks = np.empty(n)
    i = 0
    while i < n:
        j = i
        while j < n and s[j] == s[i]:
            j += 1
        ranks[order[i:j]] = 0.5 * ((i + 1) + j)  # average of ranks i+1..j
        i = j
    pos = labels == 1
    p = int(pos.sum())
    q = n - p
    num = ranks[pos].sum() - 0.5 * p * (p + 1)
    return num / (p * q)


def roc_auc(scores: np.ndarray, labels: np.ndarray,
            mask: Optional[np.ndarray] = None) -> float:
    """Mean ROC-AUC over tasks that have at least one positive and one
    negative unmasked label; raises if no task qualifies.

    ``scores``/``labels`` are (G, T); a 1-D input is treated as one task.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.ndim == 1:
        s = s[:, None]
        y = y[:, None]
        mask = None if mask is None else np.asarray(mask, dtype=bool)[:, None]
    m = np.ones(s.shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if s.shape != y.shape or s.shape != m.shape:
        raise ValueError(f"scores {s.shape}, labels {y.shape}, mask {m.shape} differ")
    per_task = []
    for t in range(s.shape[1]):
        sel = m[:, t]
        yt = y[sel, t]
        if sel.sum() == 0 or yt.min() == yt.max():
            continue  # needs both classes
        per_task.append(_rank_auc(s[sel, t], yt))
    if not per_task:
        raise MetricUndefinedError(
            "no task has both positive and negative unmasked labels")
    return float(np.mean(per_task))


# ---------------------------------------------------------------------------
# run records
# ---------------------------------------------------------------------------

THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def environment_stamp() -> dict:
    """numpy's version, the BLAS it was built against, and the thread-count
    environment variables (None where unset)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        blas = {"name": None, "version": None}
    return {"numpy": np.__version__, "blas": blas,
            "threads": {v: os.environ.get(v) for v in THREAD_ENV_VARS}}


def peak_rss_mb() -> float:
    """This process's peak resident set size in MB (``ru_maxrss`` counts
    kilobytes on Linux, bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


@dataclass
class RunRecord:
    """Per-epoch metrics plus the config fingerprint that reproduces them,
    and per-epoch wall times, which it does not reproduce.

    An epoch that was trained but not evaluated (``train_supervised`` with
    ``eval_every_epoch=False``) holds NaN train and test AUC; its loss and
    wall times are recorded as usual."""
    train_loss: list[float] = field(default_factory=list)
    train_auc: list[float] = field(default_factory=list)
    test_auc: list[float] = field(default_factory=list)
    fingerprint: str = ""
    config: dict = field(default_factory=dict)
    train_s: list[float] = field(default_factory=list, compare=False)
    eval_s: list[float] = field(default_factory=list, compare=False)

    @property
    def final_train_err(self) -> float:
        return 1.0 - self.train_auc[-1]

    @property
    def final_test_err(self) -> float:
        return 1.0 - self.test_auc[-1]

    @property
    def gap(self) -> float:
        """train AUC − test AUC at the final epoch; equals
        test error − train error (up to rounding) under err = 1 − AUC."""
        return self.train_auc[-1] - self.test_auc[-1]

    def summary(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "epochs": len(self.train_loss),
            "final_train_loss": self.train_loss[-1],
            "final_train_auc": self.train_auc[-1],
            "final_test_auc": self.test_auc[-1],
            "final_train_err": self.final_train_err,
            "final_test_err": self.final_test_err,
            "gap_auc": self.gap,
            "gap_err": self.final_test_err - self.final_train_err,
            "epoch1_train_loss": self.train_loss[0],
            "config": self.config,
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["epoch", "train_loss", "train_auc", "test_auc", "gap"])
        for e in range(len(self.train_loss)):
            w.writerow([e + 1, f"{self.train_loss[e]:.10g}",
                        f"{self.train_auc[e]:.10g}", f"{self.test_auc[e]:.10g}",
                        f"{self.train_auc[e] - self.test_auc[e]:.10g}"])
        return buf.getvalue()

    def timings(self) -> dict:
        """Per-epoch train and evaluation seconds, the process's peak RSS so
        far, and the environment."""
        return {"epochs": [{"epoch": e + 1, "train_s": t, "eval_s": v}
                           for e, (t, v) in enumerate(zip(self.train_s, self.eval_s))],
                "peak_rss_mb": peak_rss_mb(),
                "environment": environment_stamp()}

    def write(self, directory) -> None:
        """record.csv and summary.json, which the fingerprint reproduces
        byte for byte, and timings.json, which it does not."""
        import pathlib
        d = pathlib.Path(directory)
        (d / "record.csv").write_text(self.to_csv())
        (d / "summary.json").write_text(
            json.dumps(self.summary(), indent=2, sort_keys=True) + "\n")
        (d / "timings.json").write_text(
            json.dumps(self.timings(), indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# the fitting loop; supervised fine-tuning / from-scratch training
# ---------------------------------------------------------------------------

def _batches(graphs: Sequence[Graph], order: np.ndarray, size: int):
    for start in range(0, len(order), size):
        idx = order[start:start + size]
        yield [graphs[i] for i in idx]


def _fit(reg: ParamRegistry, cfg: TrainConfig, stream: str,
         graphs: Sequence[Graph], batch_loss: Callable,
         ) -> Iterator[tuple[int, Optional[float]]]:
    """Adam over ``reg``'s trainable tensors, one tape per batch.

    ``batch_loss(graphs, rng)`` returns (scalar loss, weight), or None to
    skip the batch. Yields (epoch, weighted mean loss, or None if every
    batch was skipped) after each epoch; raises TrainingDivergedError on a
    non-finite loss.

    The backward sweep steps each parameter as soon as its gradient is
    complete (``Adam.update`` as ``on_leaf``) and drops that gradient, so
    gradients do not pile up until the step; ``Adam.step`` then steps the
    parameters no rule reached. After the final epoch's last step the
    optimizer is dropped before that epoch is yielded, so its moments are
    freed before the caller evaluates.
    """
    opt = Adam(reg, cfg)
    root = RngStream(cfg.seed, (stream,))
    for epoch in range(1, cfg.epochs + 1):
        order = root.child(f"epoch{epoch}.order").permutation(len(graphs))
        losses, weights = [], []
        for bi, chunk in enumerate(_batches(graphs, order, cfg.batch_size)):
            with Tape() as tape:
                out = batch_loss(chunk, root.child(f"epoch{epoch}.batch{bi}"))
                if out is None:
                    continue
                loss, weight = out
                val = float(loss.data)
                if not np.isfinite(val):
                    raise TrainingDivergedError(epoch, val)
                tape.backward(loss, on_leaf=opt.update)
            opt.step()
            opt.zero_grad()
            losses.append(val)
            weights.append(weight)
        if epoch == cfg.epochs:
            opt = None
        yield epoch, float(np.average(losses, weights=weights)) if weights else None


def eval_chunks(sizes: Sequence[int], max_rows: int) -> list[tuple[int, int]]:
    """[start, stop) runs of graphs, with ``sizes`` their node counts: the
    fewest runs of at most ``max_rows`` rows, a larger graph a run of its
    own, with the largest run as small as that count allows.

    Filling runs greedily up to a cap gives the fewest runs for that cap,
    and never more for a larger one; the cap is the smallest that keeps the
    count ``max_rows`` gives, so no run is left as a small tail.
    """
    def cuts(cap):
        bounds, rows = [0], 0
        for i, n in enumerate(sizes):
            if rows and rows + n > cap:
                bounds.append(i)
                rows = 0
            rows += n
        return bounds + [len(sizes)]

    if not sizes:
        return []
    fewest = len(cuts(max_rows))
    lo, hi = 1, max_rows
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if len(cuts(mid)) == fewest else (mid + 1, hi)
    bounds = cuts(lo)
    return list(zip(bounds[:-1], bounds[1:]))


def evaluate_auc(dataset: Dataset, reg: ParamRegistry, model: ModelConfig,
                 peft: PeftConfig, budget: int = EVAL_BUDGET) -> float:
    """Eval-mode ROC-AUC over a whole dataset, forwarded in ``eval_chunks``
    whose widest activation (rows × the wider of d and the MLP width)
    holds at most ``budget`` floats, so its memory does not grow with the
    dataset. Eval-mode rows do not interact, so the logits equal one
    whole-dataset forward's wherever the BLAS rounds a row the same way
    whatever the number of rows: chunks stay wide, and OpenBLAS rounds
    differently only for narrow products (M·N·K below about 10^6)."""
    graphs = dataset.graphs
    max_rows = max(1, budget // max(model.emb_dim, model.hidden))
    scores, labels, masks = [], [], []
    for start, stop in eval_chunks([g.num_nodes for g in graphs], max_rows):
        b = make_batch(list(graphs[start:stop]), dataset.vocab)
        logits = forward_logits(b, reg, model, peft, "eval")
        scores.append(logits.data)
        labels.append(b.labels)
        masks.append(b.label_mask)
    return roc_auc(np.concatenate(scores), np.concatenate(labels),
                   np.concatenate(masks))


def train_supervised(train_ds: Dataset, test_ds: Dataset, reg: ParamRegistry,
                     model: ModelConfig, peft: PeftConfig, cfg: TrainConfig,
                     fingerprint: str = "", config_echo: Optional[dict] = None,
                     eval_every_epoch: bool = True) -> RunRecord:
    """Adam fine-tuning on the train split with per-epoch train/test AUC,
    or with ``eval_every_epoch=False`` the final epoch's only (see
    ``RunRecord``). Evaluation does not touch what training reads (eval BN
    keeps its running statistics, dropout is the identity, and no random
    stream is drawn), so skipping it changes nothing trained.

    Updates only trainable tensors (frozen ones are bitwise untouched by
    construction). Raises TrainingDivergedError on a non-finite loss and
    UnlabelledEpochError when no batch of an epoch has a label.
    """
    def batch_loss(chunk, rng):
        b = make_batch(chunk, train_ds.vocab)
        logits = forward_logits(b, reg, model, peft, "train", rng)
        try:
            loss = bce_with_logits(logits, b.labels, b.label_mask)
        except EmptyLossError:
            return None  # every label in this batch is missing
        return loss, int(b.label_mask.sum())

    record = RunRecord(fingerprint=fingerprint, config=config_echo or {})
    start = time.perf_counter()
    for epoch, loss in _fit(reg, cfg, "train", train_ds.graphs, batch_loss):
        trained = time.perf_counter()
        if loss is None:
            raise UnlabelledEpochError(epoch)
        record.train_loss.append(loss)
        if eval_every_epoch or epoch == cfg.epochs:
            record.train_auc.append(evaluate_auc(train_ds, reg, model, peft))
            record.test_auc.append(evaluate_auc(test_ds, reg, model, peft))
        else:
            record.train_auc.append(float("nan"))
            record.test_auc.append(float("nan"))
        record.train_s.append(trained - start)
        start = time.perf_counter()
        record.eval_s.append(start - trained)
    return record


# ---------------------------------------------------------------------------
# edge-prediction pre-training
# ---------------------------------------------------------------------------

def _hidden_edge_count(num_edges: int) -> int:
    """Hide ~15% of undirected edges; graphs with fewer than two edges
    contribute none (they still participate in message passing)."""
    if num_edges < 2:
        return 0
    return max(1, int(round(0.15 * num_edges)))


def _sample_negatives(g: Graph, count: int, rng: RngStream) -> np.ndarray:
    """Uniform non-edge pairs (u < v), at most ``count`` of them."""
    n = g.num_nodes
    adj = np.zeros((n, n), dtype=bool)
    if g.num_edges:
        adj[g.edges[:, 0], g.edges[:, 1]] = True
        adj[g.edges[:, 1], g.edges[:, 0]] = True
    iu, iv = np.triu_indices(n, k=1)
    free = ~adj[iu, iv]
    candidates = np.stack([iu[free], iv[free]], axis=1)
    if candidates.shape[0] == 0 or count == 0:
        return np.zeros((0, 2), dtype=np.int64)
    take = min(count, candidates.shape[0])
    pick = rng.choice(candidates.shape[0], size=take, replace=False)
    return candidates[np.sort(pick)]


def pretrain_edgepred(dataset: Dataset, model: ModelConfig, cfg: TrainConfig,
                      ) -> tuple[ParamRegistry, list[float]]:
    """Self-supervised edge prediction: hide ~15% of undirected edges per
    graph, run the encoder on the thinned graph, and score each candidate
    pair by the inner product of its two final node embeddings — BCE
    against 1 for hidden edges, 0 for an equal number of sampled
    non-edges (resampled every epoch).

    Returns the registry (classifier untouched and meant to be discarded)
    plus per-epoch mean losses (NaN for an epoch with no graph of two or
    more edges).
    """
    reg = init_params(model, seed=cfg.seed)
    peft = PeftConfig(mode="full")
    # classifier gets no gradient from the pair loss; keep optimizer on
    # encoder + layers only so its Adam state stays empty.
    for name in ("classifier.weight", "classifier.bias"):
        reg.set_trainable(name, False)
    # the last batch's node states live until the next batch's replace them:
    # freed at batch end, they let glibc trim the heap top, and re-faulting
    # it takes 1.3-2x the minor page faults and up to ~7% of the time of
    # pre-training at d=512
    x = None

    def batch_loss(chunk, rng):
        nonlocal x
        drop: dict[int, np.ndarray] = {}
        pos_pairs: list[np.ndarray] = []
        neg_pairs: list[np.ndarray] = []
        offset = 0
        for gi, g in enumerate(chunk):
            k = _hidden_edge_count(g.num_edges)
            if k:
                grng = rng.child(f"graph{gi}")
                hide = grng.choice(g.num_edges, size=k, replace=False)
                keep = np.ones(g.num_edges, dtype=bool)
                keep[hide] = False
                drop[gi] = keep
                pos_pairs.append(g.edges[np.sort(hide)] + offset)
                negs = _sample_negatives(g, k, grng.child("neg"))
                if negs.shape[0]:
                    neg_pairs.append(negs + offset)
            offset += g.num_nodes
        b = make_batch(chunk, dataset.vocab, drop_edges=drop)
        pairs = pos_pairs + neg_pairs
        if not pairs:
            return None
        all_pairs = np.concatenate(pairs, axis=0)
        n_pos = sum(p.shape[0] for p in pos_pairs)
        targets = np.zeros(all_pairs.shape[0])
        targets[:n_pos] = 1.0
        x = gin_node_states(b, reg, model, peft, "train", rng.child("fwd"))
        scores = row_dot(gather_rows(x, all_pairs[:, 0]),
                         gather_rows(x, all_pairs[:, 1]))
        return bce_with_logits(scores, targets), all_pairs.shape[0]

    losses = [float("nan") if loss is None else loss
              for _, loss in _fit(reg, cfg, "pretrain", dataset.graphs, batch_loss)]
    return reg, losses


def encoder_param_names(reg: ParamRegistry) -> list[str]:
    """All parameter names except the task classifier (checkpointing a
    pre-trained backbone discards the task head)."""
    return [n for n in reg.names() if not n.startswith("classifier.")]


def encoder_state(reg: ParamRegistry) -> tuple[dict, dict]:
    """Copies of the ``encoder_param_names`` parameters and of every buffer,
    as ``ParamRegistry.load_state`` takes them."""
    return ({n: reg.get(n).data.copy() for n in encoder_param_names(reg)},
            {n: b.copy() for n, b in reg.buffers.items()})
