"""Spans around calls into the program's public functions, from outside.

``Tracer.install`` swaps each traced function for a wrapper in every
``gnnpeft`` module namespace that holds it (modules import functions by
name, so patching the defining module alone would miss most calls), and
``uninstall`` puts the originals back. Nothing under ``src/`` changes.

A span is (name, start, end, parent) kept in flat arrays in memory; the
arrays are written out once, at the end of the run. Self time is a span's
duration minus the durations of its direct children (calls are nested on
one thread, so children never overlap).
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# (span name, module, attribute); "Class.method" patches the class. The two
# model entry points share one name, split by their ``mode`` argument, so a
# forward pass is one outermost span whichever entry point it came through.
TRACED = (
    ("graphs.batch", "gnnpeft.graphs", "batch"),
    ("rng.stream_init", "gnnpeft.rng", "RngStream.__init__"),
    ("tensor.backward", "gnnpeft.tensor", "Tape.backward"),
    ("tensor.scatter_sum", "gnnpeft.tensor", "scatter_sum"),
    ("tensor.gather_rows", "gnnpeft.tensor", "gather_rows"),
    ("tensor.segment_mean_pool", "gnnpeft.tensor", "segment_mean_pool"),
    ("tensor.matmul", "gnnpeft.tensor", "matmul"),
    ("tensor.batchnorm1d", "gnnpeft.tensor", "batchnorm1d"),
    ("model.message_pass", "gnnpeft.model", "message_pass"),
    ("model.forward", "gnnpeft.model", "forward_logits"),
    ("model.forward", "gnnpeft.model", "gin_node_states"),
    ("peft.adapter_forward", "gnnpeft.peft", "adapter_forward"),
    ("peft.apply_peft", "gnnpeft.peft", "apply_peft"),
    ("registry.zero_grads", "gnnpeft.registry", "ParamRegistry.zero_grads"),
    ("registry.save_checkpoint", "gnnpeft.registry", "save_checkpoint"),
    ("registry.load_checkpoint", "gnnpeft.registry", "load_checkpoint"),
    ("training.adam_step", "gnnpeft.training", "Adam.step"),
    ("training.evaluate_auc", "gnnpeft.training", "evaluate_auc"),
    ("training.roc_auc", "gnnpeft.training", "roc_auc"),
    ("training.train_supervised", "gnnpeft.training", "train_supervised"),
    ("training.pretrain_edgepred", "gnnpeft.training", "pretrain_edgepred"),
    ("analysis.sweep", "gnnpeft.analysis", "sweep"),
)

# spans of this name are split by their ``mode`` argument (5th positional)
# into model.forward_train and model.forward_eval
BY_MODE = "model.forward"

# counted, not spanned: one call per recorded tape node
COUNTED = (("tensor.tape_nodes", "gnnpeft.tensor", "Tape.record"),)


def patch(module_name, attr, make_wrapper):
    """Replace ``module.attr`` (or ``module.Class.method``) by
    ``make_wrapper(original)`` wherever the program holds it; returns what
    ``restore`` needs to undo the swap."""
    owner = sys.modules[module_name]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    original = getattr(owner, attr)
    wrapped = make_wrapper(original)
    targets = [(owner, attr)]
    if owner is sys.modules[module_name]:
        targets = [(m, k) for n, m in list(sys.modules.items())
                   if n == "gnnpeft" or n.startswith("gnnpeft.")
                   for k, v in vars(m).items() if v is original]
    for target, key in targets:
        setattr(target, key, wrapped)
    return [(target, key, original) for target, key in targets]


def restore(patches):
    for target, key, original in reversed(patches):
        setattr(target, key, original)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.outermost = array("b")  # no enclosing span of the same name
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {name: 0 for name, _, _ in COUNTED}
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def _span_wrapper(self, name, fn):
        by_mode = name == BY_MODE
        fixed = -1 if by_mode else self._id(name)
        train_id = self._id(f"{name}_train") if by_mode else -1
        eval_id = self._id(f"{name}_eval") if by_mode else -1
        clock = time.perf_counter
        stack, depth = self._stack, self._depth

        def wrapper(*args, **kwargs):
            nid = fixed
            if by_mode:
                mode = args[4] if len(args) > 4 else kwargs.get("mode")
                nid = train_id if mode == "train" else eval_id
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.outermost.append(depth[nid] == 0)
            self.end.append(0.0)
            depth[nid] += 1
            stack.append(i)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
                depth[nid] -= 1
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for table, make in ((TRACED, self._span_wrapper),
                            (COUNTED, self._count_wrapper)):
            for name, module_name, attr in table:
                self._patches += patch(module_name, attr,
                                       lambda fn, name=name: make(name, fn))

    def uninstall(self):
        restore(self._patches)
        self._patches = []

    # -- summaries ----------------------------------------------------------
    def arrays(self):
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "outermost": np.frombuffer(self.outermost, dtype=np.int8).astype(bool),
                "start": np.frombuffer(self.start).copy(),
                "end": np.frombuffer(self.end).copy()}

    def totals(self):
        """name -> {"calls", "incl_s", "self_s"}; ``incl_s`` sums the
        outermost spans of a name only, so recursion is not counted twice."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        incl = np.bincount(a["name_id"], weights=dur * a["outermost"], minlength=k)
        own = np.bincount(a["name_id"], weights=self_time, minlength=k)
        return {name: {"calls": int(calls[i]), "incl_s": float(incl[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def child_incl(self, parent_name, child_name):
        """Summed duration of ``child_name`` spans whose direct parent is a
        ``parent_name`` span."""
        a = self.arrays()
        ids = {n: i for i, n in enumerate(self.names)}
        if parent_name not in ids or child_name not in ids:
            return 0.0
        parent_name_id = np.where(a["parent"] >= 0, a["name_id"][a["parent"]], -1)
        sel = (a["name_id"] == ids[child_name]) & (parent_name_id == ids[parent_name])
        return float((a["end"] - a["start"])[sel].sum())

    def write(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
