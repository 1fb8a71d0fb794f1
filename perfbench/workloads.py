"""The benchmark workloads: set-up, one round of work, and its checks.

Both workloads are single-process, scaled-down slices of acceptance
criteria 8 and 9 at their widest point (d=512) on the criteria's trend
dataset (300 graphs of 8-16 nodes, edge_prob 0.55, node vocab (4, 2),
edge vocab (2, 2), 4 tasks), generated here from the benchmark's seed and
handed to the program as graphs. The structure split 0.7/0.1/0.2 gives
210 train and 60 test graphs. L=2, dropout 0, batch 32, lr 1e-3
throughout; training seeds are fixed, so the dataset seed is the only
input that varies between runs.

A round repeats the same operations with the same seeds, so every round
of a run must produce the same result digest.
"""

from __future__ import annotations

import hashlib
import inspect
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from gnnpeft import analysis, graphs, model, peft, registry, training
from gnnpeft.config import ModelConfig, PeftConfig, TrainConfig

import reference
from tracing import patch, restore

VOCAB = graphs.Vocab((4, 2), (2, 2))
TREND_SPLIT = graphs.SplitSpec(fractions=(0.7, 0.1, 0.2), mode="structure")
LAYERS, BATCH, LR = 2, 32, 1e-3
WIDE, BOTTLENECK = 512, 15
FINETUNE_EPOCHS, PRETRAIN_EPOCHS = 1, 1
LOGIT_RTOL = 1e-9

# workload -> tuning mode of the first model it trains, for set-up timing
FIRST_MODE = {"scratch-full-d512": "full", "pretrain-adapt-d512": "adaptergnn"}


def model_config(d=WIDE):
    return ModelConfig(emb_dim=d, num_layers=LAYERS, num_tasks=4,
                       dropout=0.0, vocab=VOCAB)


def peft_config(mode):
    return PeftConfig(mode=mode, bottleneck=BOTTLENECK)


def train_config(epochs, seed=0):
    return TrainConfig(epochs=epochs, batch_size=BATCH, lr=LR, seed=seed)


class Setup:
    """Dataset and split; initialising the workload's first model is part
    of set-up time, but the model itself is not kept."""

    def __init__(self, workload, seed):
        self.dataset = graphs.generate_synthetic(
            300, node_range=(8, 16), edge_prob=0.55, vocab=VOCAB, n_tasks=4,
            seed=seed)
        self.train, _, self.test = graphs.split(self.dataset, TREND_SPLIT, seed=0)
        first = model.init_params(model_config(), seed=0)
        peft.apply_peft(first, model_config(), peft_config(FIRST_MODE[workload]), seed=0)
        g = self.dataset.graphs
        self.avg_nodes = float(np.mean([x.num_nodes for x in g]))
        self.avg_edges = float(np.mean([x.num_edges for x in g]))


class EntryCalls:
    """Times calls into ``train_supervised`` and ``pretrain_edgepred``,
    including those made inside ``analysis.sweep``, and keeps what the
    checks and the FLOP count need from each fine-tuning call."""

    def __init__(self):
        self.seconds = {"finetune": 0.0, "pretrain": 0.0}
        self.graphs = {"finetune": 0, "pretrain": 0}  # graphs x epochs
        self.finetunes = []  # (model, peft, epochs, train graphs)
        self.trained = None  # registry of the latest fine-tuning call
        self._patches = []

    def _timed(self, kind, fn):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.seconds[kind] += time.perf_counter() - t0
            a = signature.bind(*args, **kwargs).arguments
            if kind == "finetune":
                train_ds, cfg = a["train_ds"], a["cfg"]
                self.finetunes.append((a["model"], a["peft"], cfg.epochs,
                                       len(train_ds)))
                self.trained = a["reg"]
            else:
                train_ds, cfg = a["dataset"], a["cfg"]
            self.graphs[kind] += len(train_ds) * cfg.epochs
            return out
        return wrapper

    def __enter__(self):
        self._patches = (
            patch("gnnpeft.training", "train_supervised",
                  lambda fn: self._timed("finetune", fn))
            + patch("gnnpeft.training", "pretrain_edgepred",
                    lambda fn: self._timed("pretrain", fn)))
        return self

    def __exit__(self, *exc):
        restore(self._patches)


class Round:
    """Operations, timings, checks and digest of one round."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.planned = 0
        self.passed = 0
        self.raised = False
        self.check_failures = 0
        self.problems: list[str] = []
        self.phases: dict[str, float] = {}
        self.checkpoint_bytes = 0
        self.digest = hashlib.sha256()
        self.calls = EntryCalls()

    @contextmanager
    def timed(self, phase):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phases[phase] = self.phases.get(phase, 0.0) + time.perf_counter() - t0

    @contextmanager
    def untraced(self):
        """Program calls made by the checks stay out of the trace."""
        if self.tracer is not None:
            self.tracer.uninstall()
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.install()

    def op(self, name, problems, count=1):
        """Close ``count`` operations; any problem fails them all."""
        if problems:
            self.check_failures += count
            self.problems += [f"{name}: {p}" for p in problems]
        else:
            self.passed += count

    def feed(self, *arrays):
        for a in arrays:
            self.digest.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())


# ---------------------------------------------------------------------------
# checks shared by the workloads
# ---------------------------------------------------------------------------

def _trainable(reg):
    return {n for n, p in reg.items() if p.trainable}


def _count(reg, names):
    return sum(reg.get(n).data.size for n in names)


def check_trainable(reg, mode):
    problems = []
    names = _trainable(reg)
    if mode == "adaptergnn":
        expected = {n for n in reg.names() if reference.adaptergnn_trainable(n)}
    else:
        expected = set(reg.names())
    if names != expected:
        problems.append(f"trainable set differs by {sorted(names ^ expected)[:4]}")
    want = reference.trainable_count(mode, WIDE, LAYERS, VOCAB.node, VOCAB.edge, 4,
                                     BOTTLENECK)
    if _count(reg, names) != want:
        problems.append(f"{_count(reg, names)} trainable, closed form {want}")
    return problems


def check_record(record, epochs):
    problems = []
    values = record.train_loss + record.train_auc + record.test_auc
    if len(record.train_loss) != epochs or len(record.test_auc) != epochs:
        problems.append(f"record has {len(record.train_loss)} epochs, wanted {epochs}")
    if not np.all(np.isfinite(values)):
        problems.append("non-finite loss or AUC")
    return problems


def frozen_snapshot(reg):
    return {n: reg.get(n).data.tobytes() for n, p in reg.items() if not p.trainable}


def check_frozen(reg, snapshot):
    moved = [n for n, raw in snapshot.items() if reg.get(n).data.tobytes() != raw]
    return [f"frozen parameters changed: {moved[:4]}"] if moved else []


def standalone_eval(r, s, reg, mode, record):
    """One evaluation of the train and test splits, with the model's
    logits checked against the dense reference."""
    problems = []
    before = reg.state_hash()
    mcfg, pcfg = model_config(), peft_config(mode)
    with r.timed("eval"):
        train_auc = training.evaluate_auc(s.train, reg, mcfg, pcfg)
        test_auc = training.evaluate_auc(s.test, reg, mcfg, pcfg)
    with r.untraced():
        if reg.state_hash() != before:
            problems.append("evaluation changed the model state")
        if (train_auc, test_auc) != (record.train_auc[-1], record.test_auc[-1]):
            problems.append(f"standalone AUC ({train_auc}, {test_auc}) differs "
                            f"from the final epoch's")
        b = graphs.batch(list(s.test.graphs), VOCAB)
        logits = model.forward_logits(b, reg, mcfg, pcfg, "eval").data
    arrays = {n: p.tensor.data for n, p in reg.items()} | dict(reg.buffers)
    ref = reference.dataset_logits(s.test.graphs, arrays, LAYERS, VOCAB.edge, mode)
    err = float(np.max(np.abs(logits - ref)) / np.max(np.abs(ref)))
    if not err <= LOGIT_RTOL:
        problems.append(f"logits differ from the dense reference by {err:.3g} relative")
    labels = np.stack([g.labels for g in s.test.graphs]).astype(np.int64)
    auc = reference.pair_count_auc(logits, labels)
    if auc != record.test_auc[-1]:
        problems.append(f"pair-counting AUC {auc!r} != final test AUC "
                        f"{record.test_auc[-1]!r}")
    r.feed(logits, [train_auc, test_auc])
    r.op("eval", problems)


def finetune(r, s, reg, mode):
    """apply_peft, then one fine-tuning run with its checks."""
    with r.timed("init"):
        peft.apply_peft(reg, model_config(), peft_config(mode), seed=0)
    problems = check_trainable(reg, mode)
    frozen = frozen_snapshot(reg)
    with r.timed("finetune"):
        record = training.train_supervised(s.train, s.test, reg, model_config(),
                                           peft_config(mode), train_config(FINETUNE_EPOCHS))
    problems += check_record(record, FINETUNE_EPOCHS) + check_frozen(reg, frozen)
    r.feed(record.train_loss, record.train_auc, record.test_auc)
    r.op("finetune", problems)
    return record


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def scratch_full_d512(r, s, scratch_dir):
    """Criterion 8's widest point, run as criterion 8 runs it: one
    ``analysis.sweep`` task, full fine-tuning from a random init."""
    r.planned = 2
    with r.timed("sweep"):
        rows = analysis.sweep(
            "model_size", s.dataset,
            model=ModelConfig(num_layers=LAYERS, dropout=0.0, num_tasks=4, vocab=VOCAB),
            train=train_config(FINETUNE_EPOCHS), d_grid=(WIDE,), modes=("full",),
            init="scratch", seeds=(0,), jobs=1, split_spec=TREND_SPLIT)
    (row,) = rows
    reg = r.calls.trained
    record = row["record"]
    problems = check_trainable(reg, "full") + check_record(record, FINETUNE_EPOCHS)
    if row["test_err"] != 1.0 - row["test_auc"] or row["test_auc"] != record.test_auc[-1]:
        problems.append("sweep row: test_err != 1 - test_auc")
    if row["gap"] != record.train_auc[-1] - record.test_auc[-1]:
        problems.append("sweep row: gap != train_auc - test_auc")
    want = reference.trainable_count("full", WIDE, LAYERS, VOCAB.node, VOCAB.edge, 4)
    if row["trainable_count"] != want:
        problems.append(f"sweep row: {row['trainable_count']} trainable, closed form {want}")
    r.feed(record.train_loss, record.train_auc, record.test_auc)
    r.op("finetune", problems)
    standalone_eval(r, s, reg, "full", record)


def pretrain_adapt_d512(r, s, scratch_dir):
    """Criterion 9's adapter arm as the CLI runs it: ``pretrain``, save
    and reload of the encoder checkpoint, ``train --backbone-ckpt``."""
    r.planned = 4
    with r.timed("pretrain"):
        pre, losses = training.pretrain_edgepred(s.train, model_config(),
                                                 train_config(PRETRAIN_EPOCHS))
    r.feed(losses)
    r.op("pretrain", [] if len(losses) == PRETRAIN_EPOCHS and np.all(np.isfinite(losses))
         else [f"pre-training losses {losses}"])

    path = Path(scratch_dir) / "encoder.ckpt"
    names = training.encoder_param_names(pre)
    with r.timed("checkpoint"):
        registry.save_checkpoint(path, pre, {"kind": "encoder"}, param_names=names)
        _, params, buffers = registry.load_checkpoint(path)
    with r.timed("init"):
        reg = model.init_params(model_config(), seed=0)
        reg.load_state(params, buffers)
    r.checkpoint_bytes += path.stat().st_size
    problems = []
    if sorted(params) != sorted(names) or sorted(buffers) != sorted(pre.buffers):
        problems.append("checkpoint entries differ from the encoder's")
    for name, saved in list(params.items()) + list(buffers.items()):
        source = pre.get(name).data if name in params else pre.buffer(name)
        loaded = reg.get(name).data if name in params else reg.buffer(name)
        if not (np.array_equal(saved, source.astype(np.float32))
                and np.array_equal(loaded, saved)):
            problems.append(f"{name} does not round-trip at float32")
    r.digest.update(path.read_bytes())
    r.op("checkpoint", problems)
    del pre, params, buffers  # `pretrain` and `train` are separate CLI processes

    record = finetune(r, s, reg, "adaptergnn")
    standalone_eval(r, s, reg, "adaptergnn", record)


WORKLOADS = {
    "scratch-full-d512": scratch_full_d512,
    "pretrain-adapt-d512": pretrain_adapt_d512,
}


def run_round(workload, s, scratch_dir, tracer=None):
    """One round; an exception fails every operation not yet passed."""
    r = Round(tracer)
    with r.calls:
        if tracer is not None:
            tracer.install()
        try:
            WORKLOADS[workload](r, s, scratch_dir)
        except Exception:  # counted as failed operations, reported
            r.problems.append(traceback.format_exc())
            r.raised = True
        finally:
            r.calls.trained = None  # rounds are kept; their models are not
            if tracer is not None:
                tracer.uninstall()
    return r


def train_gflop(s, calls):
    """GFLOPs ``estimate_flops`` assigns to the fine-tuning steps run."""
    total = 0
    for mcfg, pcfg, epochs, n in calls.finetunes:
        sizes = [BATCH] * (n // BATCH) + ([n % BATCH] if n % BATCH else [])
        per_epoch = sum(analysis.estimate_flops(mcfg, pcfg, b, "train", s.avg_nodes,
                                                s.avg_edges).total for b in sizes)
        total += per_epoch * epochs
    return total / 1e9
