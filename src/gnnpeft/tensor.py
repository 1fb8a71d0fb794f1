"""Dense float64 tensors with reverse-mode automatic differentiation.

The op set is exactly what a small message-passing network needs: matmul,
a block-diagonal matmul over a padded stack of per-graph matrices, segment
scatter/gather, row concatenation, batch normalization, and an elementwise
suite including a masked binary-cross-entropy loss. Segment sums sort
rows by segment id (sorted ids skip the sort) and sum each contiguous
run. Forward values are numpy arrays; gradients are computed by walking
a :class:`Tape` of recorded operations in reverse. ``matmul`` takes an
optional bias row, added into the product's buffer, so an affine layer
is one recorded op. A :class:`LowRank` left operand Z·S (a constant
count matrix times a tensor) stays factored through ``matmul``,
``mul_elementwise`` and ``segment_mean_pool``, so a linear map of it
costs Z·(S·W).

Conventions:
  * everything is float64 (checkpoints downcast to float32 on disk);
  * an op is recorded only while a tape is active and at least one input
    has ``requires_grad``, so frozen subgraphs cost no backward work;
  * a recorded op's tape node is a gradient route, not an owner: it holds
    the op's backward rule, its output's shape and the gradient arriving
    for that output, never the output tensor. The rule closes over one
    route per input (the input's node, the leaf tensor itself, or None
    when the input needs no gradient) and over exactly the arrays it
    reads: ``matmul`` the other operand of each gradient it produces,
    ``mul_elementwise`` and ``row_dot`` their factors, ``sigmoid`` its
    output, batch norm x̂, 1/σ and γ, ``relu`` its mask and ``dropout``
    its keep mask. So a forward value no rule reads (a pre-ReLU affine
    output, a BN input or output, a sum) is freed as soon as the forward
    stops naming it, with no reference cycle to break;
  * a leaf tensor that requires grad has a ``grad`` buffer only from its
    first gradient in a sweep until the optimizer has read it: a sweep
    given ``on_leaf`` hands each leaf over as soon as its gradient is
    complete, and the optimizer steps it and drops the buffer there;
    otherwise ``zero_grad`` drops it after the step. Later gradients are
    added into it in place. An op output has no ``grad``: its gradient
    lives on its node during the reverse sweep, from the first incoming
    gradient until the node's rule has run;
  * a rule reads a trainable leaf's array only if it also routes a
    gradient to that leaf (``matmul`` reads W to form its input's gradient
    only when W trains, and so do batch norm with γ, ``mul_elementwise``
    and ``row_dot``), so once the earliest-recorded rule routing to a leaf
    has run, nothing in the sweep reads that leaf again;
  * one sweep consumes a tape, and an output of a swept or released tape
    is a leaf to any later tape;
  * stochastic ops take an explicit :class:`~gnnpeft.rng.RngStream`.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .rng import RngStream


class ShapeMismatchError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class DegenerateBatchError(ValueError):
    """Batch statistics were requested over fewer than two rows."""


class EmptyLossError(ValueError):
    """A loss was requested over zero unmasked elements."""


class Tensor:
    """A dense array plus an optional gradient buffer and tape handle.

    ``grad`` is None until a sweep delivers a gradient; None reads as zeros.
    ``tape_node`` is the node of the op that made this tensor; later ops
    read it while they are recorded, to route their gradients to it.
    """

    __slots__ = ("data", "requires_grad", "grad", "tape_node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.tape_node: Optional["TapeNode"] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def set_requires_grad(self, flag: bool) -> None:
        self.requires_grad = bool(flag)
        if not flag:
            self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class TapeNode:
    """One recorded operation as a gradient route: its backward rule, its
    output's shape, and the gradient that has arrived for its output.

    The rule is None once it has run or its tape was released; the node
    is then dead, and its output is a leaf to any later op.
    """

    __slots__ = ("backward_fn", "shape", "grad")

    def __init__(self, backward_fn: Callable[[np.ndarray], None],
                 shape: tuple[int, ...]):
        self.backward_fn: Optional[Callable[[np.ndarray], None]] = backward_fn
        self.shape = shape
        self.grad: Optional[np.ndarray] = None


class TapeConsumedError(RuntimeError):
    """``backward`` was called on a tape that was already swept or released."""


class Tape:
    """Ordered record of operations; supports a single reverse sweep.

    Operations are appended in execution order, which is a topological
    order by construction. ``backward`` visits each node exactly once in
    reverse and drops its rule and gradient as soon as the rule has run:
    by then every consumer of that output has been visited, so the arrays
    the rule kept and the gradients are freed during the sweep. A leaf's
    first gradient creates its ``grad`` buffer and later ones accumulate
    into it in place. The sweep consumes the tape; a second ``backward``
    raises :class:`TapeConsumedError`.

    A node holds no tensor and a rule holds only arrays and routes (input
    nodes and leaf tensors), so nothing recorded forms a reference cycle:
    plain refcounting frees a forward value once neither the forward nor
    a rule reads it. Leaving the ``with`` block releases whatever rules a
    sweep did not run.

    While ops are recorded the tape notes, for each leaf some rule routes
    a gradient to, the earliest-recorded such node. ``backward(loss,
    on_leaf)`` calls ``on_leaf(t)`` once per noted leaf t, right after
    that node is visited (whether its rule ran or was skipped because no
    gradient reached it): no later rule adds to t's gradient, and since a
    rule reads a trainable leaf's array only if it also routes a gradient
    to that leaf, none reads t's array either. So ``on_leaf`` may update
    t in place and drop its ``grad``.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []
        # id(leaf) -> (leaf, index of the earliest node routing to it)
        self.leaves: dict[int, tuple[Tensor, int]] = {}
        self.consumed = False

    def record(self, node: TapeNode) -> None:
        self.nodes.append(node)

    def release(self) -> None:
        for node in self.nodes:
            node.backward_fn = node.grad = None
        self.nodes.clear()
        self.leaves.clear()
        self.consumed = True

    def backward(self, loss: Tensor,
                 on_leaf: Optional[Callable[[Tensor], None]] = None) -> None:
        if self.consumed:
            raise TapeConsumedError(
                "this tape was already swept or released; record a new one")
        if loss.data.size != 1:
            raise ShapeMismatchError(
                f"backward needs a scalar loss, got shape {loss.data.shape}")
        if not loss.requires_grad:
            raise ValueError("loss does not require grad; nothing to backpropagate")
        self.consumed = True
        due: dict[int, list[Tensor]] = {}
        if on_leaf is not None:
            for leaf, i in self.leaves.values():
                due.setdefault(i, []).append(leaf)
        self.leaves.clear()
        _accumulate(_route(loss), np.ones_like(loss.data))
        nodes = self.nodes
        while nodes:
            node = nodes.pop()
            rule, g = node.backward_fn, node.grad
            node.backward_fn = node.grad = None
            if g is not None:
                rule(g)
            for leaf in due.pop(len(nodes), ()):
                on_leaf(leaf)

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _TAPE_STACK.pop()
        self.release()


_TAPE_STACK: list[Tape] = []


def active_tape() -> Optional[Tape]:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _route(t: Tensor) -> "TapeNode | Tensor | None":
    """Where t's gradient goes: its node while that node's rule is live,
    else t itself as a leaf; None when t needs no gradient."""
    if not t.requires_grad:
        return None
    node = t.tape_node
    return node if node is not None and node.backward_fn is not None else t


def _record(inputs: Sequence[Tensor], out_data: np.ndarray, make_backward) -> Tensor:
    """Create the output tensor and record it if a tape is listening and
    some input needs a gradient. ``make_backward`` is called with one
    route per input and returns the rule; it runs only when the op is
    recorded, so it is where a rule takes the arrays it reads. The tape
    notes the first node to route to each leaf (see :class:`Tape`)."""
    out = Tensor(out_data)
    tape = active_tape()
    if tape is None:
        return out
    routes = [_route(t) for t in inputs]
    if any(r is not None for r in routes):
        out.requires_grad = True
        out.tape_node = TapeNode(make_backward(*routes), out_data.shape)
        for r in routes:
            if isinstance(r, Tensor) and id(r) not in tape.leaves:
                tape.leaves[id(r)] = (r, len(tape.nodes))
        tape.record(out.tape_node)
    return out


def _accumulate(to: "TapeNode | Tensor", g: np.ndarray,
                rows: Optional[np.ndarray] = None, owned: bool = False) -> None:
    """Add gradient ``g`` into ``to.grad``, or into its ``rows`` when given;
    a missing ``to.grad`` is zeros.

    A leaf's first gradient becomes a buffer of its own: ``g + 0.0``, or g
    itself plus 0.0 in place when the caller ``owned`` it (a fresh product
    no other tensor sees); either rounds as adding g into zeros, -0.0
    included. Later ones are added into that buffer in place. A node takes
    its first whole gradient as is; later ones, and row updates, are
    added out of place. So an array that also reached another route
    (``add`` hands the same ``g`` to both inputs) is never written or kept
    by a leaf.
    """
    leaf = isinstance(to, Tensor)
    if to.grad is None and rows is None:
        to.grad = np.add(g, 0.0, out=g if owned else None) if leaf else g
    elif rows is None:
        if leaf:
            to.grad += g
        else:
            to.grad = to.grad + g
    else:
        if to.grad is None:
            to.grad = np.zeros(to.shape)
        elif not leaf:
            to.grad = to.grad.copy()
        to.grad[rows] += g


class LowRank:
    """An (n×d) operand kept factored as Z·S: a constant (n×r) count matrix
    Z times an (r×d) tensor S, for r much smaller than n and d.

    ``matmul`` of it computes Z·(S·W), a row-vector or scalar
    ``mul_elementwise`` scales S, ``segment_mean_pool`` pools Z, and
    ``add`` takes its dense product.
    """

    __slots__ = ("counts", "factor")

    def __init__(self, counts: np.ndarray, factor: Tensor):
        self.counts = np.asarray(counts, dtype=np.float64)
        _check_2d(factor, "low-rank factor")
        if self.counts.ndim != 2 or self.counts.shape[1] != factor.data.shape[0]:
            raise ShapeMismatchError(
                f"count matrix {self.counts.shape} does not match factor "
                f"{factor.data.shape}")
        self.factor = factor

    @property
    def shape(self) -> tuple[int, int]:
        return self.counts.shape[0], self.factor.data.shape[1]

    def dense(self) -> Tensor:
        return matmul(Tensor(self.counts), self.factor)


def _check_2d(t: Tensor, name: str) -> None:
    if t.data.ndim != 2:
        raise ShapeMismatchError(f"{name} must be 2-D, got shape {t.data.shape}")


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def _matmul_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y, with a 1-row x multiplied as row 0 of a 2-row product.

    numpy runs a 1-row product as gemv, which rounds differently from the
    gemm that computes every row of a taller x; duplicating the row keeps
    it on gemm, so a row's product does not depend on how many rows came
    with it.
    """
    if x.shape[0] == 1:
        return (np.concatenate((x, x)) @ y)[:1]
    return x @ y


def matmul(a: "Tensor | LowRank", b: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Matrix product of a (m×k) and b (k×n), plus an optional (n,) bias
    row added in place into the product's buffer. A :class:`LowRank` a = Z·S
    gives Z·(S·b), so no m×k by k×n product is formed. A 1-row a, in the
    forward product and in its input gradient, is multiplied as the first
    row of a 2-row product, so it rounds as it would inside a taller a."""
    if isinstance(a, LowRank):
        return matmul(Tensor(a.counts), matmul(a.factor, b), bias)
    _check_2d(a, "matmul lhs")
    _check_2d(b, "matmul rhs")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatchError(
            f"matmul inner extents differ: {a.data.shape} vs {b.data.shape}")
    out_data = _matmul_rows(a.data, b.data)
    if bias is not None:
        if bias.data.shape != (b.data.shape[1],):
            raise ShapeMismatchError(
                f"matmul bias shape {bias.data.shape} does not match "
                f"{b.data.shape[1]} output columns")
        out_data += bias.data

    def make_backward(to_a, to_b, to_bias=None):
        a_data = a.data if to_b is not None else None
        b_data = b.data if to_a is not None else None

        def backward(g):
            if to_bias is not None:
                _accumulate(to_bias, g.sum(axis=0))
            if to_a is not None:
                _accumulate(to_a, _matmul_rows(g, b_data.T))
            if to_b is not None:
                _accumulate(to_b, a_data.T @ g, owned=True)
        return backward

    inputs = (a, b) if bias is None else (a, b, bias)
    return _record(inputs, out_data, make_backward)


def block_diag_matmul(blocks: np.ndarray, x: Tensor, block_ids: np.ndarray,
                      block_rows: np.ndarray) -> Tensor:
    """Product of a block-diagonal matrix with x (n×d), the blocks stored
    as a zero-padded (G, N, N) stack of constants.

    Row i of x is row ``block_rows[i]`` of block ``block_ids[i]``; padding
    rows enter as zeros and their outputs are dropped. The whole product is
    one batched matmul; backward multiplies by the transposed blocks.
    """
    _check_2d(x, "block_diag_matmul input")
    blocks = np.asarray(blocks, dtype=np.float64)
    if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2]:
        raise ShapeMismatchError(
            f"blocks must be a (G, N, N) stack, got shape {blocks.shape}")
    g_count, n_max, _ = blocks.shape
    ids = np.asarray(block_ids, dtype=np.int64)
    pos = np.asarray(block_rows, dtype=np.int64)
    if ids.shape != (x.data.shape[0],) or pos.shape != ids.shape:
        raise ShapeMismatchError(
            f"block ids {ids.shape} and rows {pos.shape} do not match "
            f"{x.data.shape[0]} rows")
    if ids.size and (min(ids.min(), pos.min()) < 0 or ids.max() >= g_count
                     or pos.max() >= n_max):
        raise IndexError(f"block position outside the ({g_count}, {n_max}) stack")
    slot = ids * n_max + pos

    def apply(mats, rows):
        padded = np.zeros((g_count * n_max, rows.shape[1]))
        padded[slot] = rows
        out = np.matmul(mats, padded.reshape(g_count, n_max, rows.shape[1]))
        return out.reshape(g_count * n_max, rows.shape[1])[slot]

    out_data = apply(blocks, x.data)

    def make_backward(to_x):
        def backward(g):
            _accumulate(to_x, apply(blocks.transpose(0, 2, 1), g))
        return backward

    return _record((x,), out_data, make_backward)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack (k_i×d) tensors, and (d,) tensors as single rows, into one
    (Σk_i×d) tensor; backward splits the gradient back into the parts."""
    rows = [p.data.reshape(1, -1) if p.data.ndim == 1 else p.data for p in parts]
    for r in rows:
        if r.ndim != 2 or r.shape[1] != rows[0].shape[1]:
            raise ShapeMismatchError(
                f"concat_rows parts differ in width: {[p.data.shape for p in parts]}")
    bounds = np.cumsum([0] + [r.shape[0] for r in rows]).tolist()
    shapes = [p.data.shape for p in parts]
    out_data = np.concatenate(rows, axis=0)

    def make_backward(*routes):
        def backward(g):
            for to, shape, s, e in zip(routes, shapes, bounds[:-1], bounds[1:]):
                if to is not None:
                    _accumulate(to, g[s:e].reshape(shape))
        return backward

    return _record(parts, out_data, make_backward)


def _sum_rows_by_id(values: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct ids ascending, per-id row sums) for a non-empty ``ids``.

    Rows are stably sorted by id unless they already are; each contiguous
    run is then one slice sum, in the original row order. (A slice sum
    streams whole rows; ``np.add.reduceat`` along axis 0 walks each
    column separately and is several times slower on short runs of wide
    rows.)
    """
    if np.any(ids[1:] < ids[:-1]):
        order = np.argsort(ids, kind="stable")
        values, ids = values[order], ids[order]
    bounds = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1], True]).tolist()
    sums = np.stack([values[s:e].sum(axis=0) for s, e in zip(bounds[:-1], bounds[1:])])
    return ids[bounds[:-1]], sums


def gather_rows(x: Tensor, indices: np.ndarray) -> Tensor:
    """Select rows of x (table lookup); backward scatter-adds into x."""
    _check_2d(x, "gather_rows input")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= x.data.shape[0]):
        raise IndexError(
            f"gather index out of range [0, {x.data.shape[0]}): "
            f"min={idx.min()}, max={idx.max()}")
    out_data = x.data[idx]

    def make_backward(to_x):
        def backward(g):
            if idx.size:
                rows, sums = _sum_rows_by_id(g, idx)
                _accumulate(to_x, sums, rows)
        return backward

    return _record((x,), out_data, make_backward)


def scatter_sum(values: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of values into num_segments output rows by segment id.

    Segments with no entries are zero rows. Backward routes the output
    gradient back by gather.
    """
    _check_2d(values, "scatter_sum values")
    ids = np.asarray(segment_ids, dtype=np.int64)
    if ids.shape != (values.data.shape[0],):
        raise ShapeMismatchError(
            f"segment_ids shape {ids.shape} does not match {values.data.shape[0]} rows")
    if ids.size and (ids.min() < 0 or ids.max() >= num_segments):
        raise IndexError(
            f"segment id out of range [0, {num_segments}): "
            f"min={ids.min()}, max={ids.max()}")
    out_data = np.zeros((num_segments, values.data.shape[1]))
    if ids.size:
        rows, sums = _sum_rows_by_id(values.data, ids)
        out_data[rows] = sums

    def make_backward(to_values):
        def backward(g):
            _accumulate(to_values, g[ids])
        return backward

    return _record((values,), out_data, make_backward)


def segment_mean_pool(x: "Tensor | LowRank", segment_ids: np.ndarray,
                      num_segments: int) -> "Tensor | LowRank":
    """Per-segment mean of rows; empty segments pool to zero rows. Sorted
    ids (a batch's ``graph_ids``) make every segment one contiguous sum.
    A :class:`LowRank` x = Z·S pools as P·Z times the same S."""
    if isinstance(x, LowRank):
        pooled = segment_mean_pool(Tensor(x.counts), segment_ids, num_segments)
        return LowRank(pooled.data, x.factor)
    _check_2d(x, "segment_mean_pool input")
    ids = np.asarray(segment_ids, dtype=np.int64)
    if ids.shape != (x.data.shape[0],):
        raise ShapeMismatchError(
            f"segment_ids shape {ids.shape} does not match {x.data.shape[0]} rows")
    if ids.size and (ids.min() < 0 or ids.max() >= num_segments):
        raise IndexError(
            f"segment id out of range [0, {num_segments}): "
            f"min={ids.min()}, max={ids.max()}")
    counts = np.bincount(ids, minlength=num_segments).astype(np.float64)
    denom = np.maximum(counts, 1.0)[:, None]
    out_data = np.zeros((num_segments, x.data.shape[1]))
    if ids.size:
        rows, sums = _sum_rows_by_id(x.data, ids)
        out_data[rows] = sums / denom[rows]

    def make_backward(to_x):
        def backward(g):
            _accumulate(to_x, (g / denom)[ids])
        return backward

    return _record((x,), out_data, make_backward)


# ---------------------------------------------------------------------------
# elementwise suite
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; the only broadcast allowed is (B×d) + (d,) bias.
    A :class:`LowRank` operand enters as its dense product."""
    a, b = (t.dense() if isinstance(t, LowRank) else t for t in (a, b))
    if a.data.shape == b.data.shape:
        bias_mode = False
    elif a.data.ndim == 2 and b.data.shape == (a.data.shape[1],):
        bias_mode = True
    else:
        raise ShapeMismatchError(
            f"add shapes incompatible: {a.data.shape} vs {b.data.shape}")
    out_data = a.data + b.data

    def make_backward(to_a, to_b):
        def backward(g):
            if to_a is not None:
                _accumulate(to_a, g)
            if to_b is not None:
                _accumulate(to_b, g.sum(axis=0) if bias_mode else g)
        return backward

    return _record((a, b), out_data, make_backward)


def mul_scalar(x: Tensor, c: float) -> Tensor:
    """Multiply by a python constant (not differentiable in c)."""
    c = float(c)
    out_data = x.data * c

    def make_backward(to_x):
        def backward(g):
            _accumulate(to_x, g * c)
        return backward

    return _record((x,), out_data, make_backward)


def mul_elementwise(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product. b may also be a single-element tensor (scalar
    scaling, differentiable in both factors) or a (d,) row vector applied
    to a (B×d) input. A :class:`LowRank` a = Z·S takes only those two and
    stays factored as Z·(S∘b)."""
    if isinstance(a, LowRank):
        if b.data.size != 1 and b.data.shape != (a.shape[1],):
            raise ShapeMismatchError(
                f"a low-rank operand scales by a scalar or a row, not {b.data.shape}")
        return LowRank(a.counts, mul_elementwise(a.factor, b))
    if a.data.shape == b.data.shape:
        mode = "same"
    elif b.data.size == 1:
        mode = "scalar"
    elif a.data.ndim == 2 and b.data.shape == (a.data.shape[1],):
        mode = "row"
    else:
        raise ShapeMismatchError(
            f"mul shapes incompatible: {a.data.shape} vs {b.data.shape}")
    out_data = a.data * b.data

    def make_backward(to_a, to_b):
        a_data = a.data if to_b is not None else None
        b_data = b.data if to_a is not None else None
        b_shape = b.data.shape

        def backward(g):
            if to_a is not None:
                _accumulate(to_a, g * b_data)
            if to_b is not None:
                if mode == "same":
                    _accumulate(to_b, g * a_data)
                elif mode == "scalar":
                    _accumulate(to_b, np.asarray(np.vdot(g, a_data)).reshape(b_shape))
                else:
                    _accumulate(to_b, (g * a_data).sum(axis=0))
        return backward

    return _record((a, b), out_data, make_backward)


def relu(x: Tensor, overwrite_input: bool = False) -> Tensor:
    """max(x, 0). With ``overwrite_input`` the result is written into x's
    array, which the caller must own: a fresh op output that nothing else
    reads, such as an affine output (``matmul`` keeps its operands, never
    its output), and that the caller does not read again. The rule keeps
    only the mask, taken from the output: max(x, 0) > 0 exactly where
    x > 0, NaN included."""
    out_data = np.maximum(x.data, 0.0, out=x.data if overwrite_input else None)

    def make_backward(to_x):
        mask = out_data > 0.0

        def backward(g):
            _accumulate(to_x, g * mask)
        return backward

    return _record((x,), out_data, make_backward)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic function."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sigmoid(x: Tensor) -> Tensor:
    out_data = _sigmoid(x.data)

    def make_backward(to_x):
        def backward(g):
            _accumulate(to_x, g * out_data * (1.0 - out_data))
        return backward

    return _record((x,), out_data, make_backward)


def dropout(x: Tensor, p: float, rng: Optional[RngStream], mode: str) -> Tensor:
    """Inverted dropout: train mode zeroes with probability p and rescales
    survivors by 1/(1-p); eval mode is the identity."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown dropout mode {mode!r}")
    if mode == "eval":
        return x
    if p == 0.0:
        return x
    if rng is None:
        raise ValueError("train-mode dropout needs an explicit rng stream")
    keep = (rng.random(x.data.shape) >= p)
    scale = 1.0 / (1.0 - p)
    out_data = x.data * keep * scale

    def make_backward(to_x):
        def backward(g):
            _accumulate(to_x, g * keep * scale)
        return backward

    return _record((x,), out_data, make_backward)


def row_dot(a: Tensor, b: Tensor) -> Tensor:
    """Per-row inner product of two (K×d) tensors, returning shape (K,)."""
    _check_2d(a, "row_dot lhs")
    if a.data.shape != b.data.shape:
        raise ShapeMismatchError(
            f"row_dot shapes differ: {a.data.shape} vs {b.data.shape}")
    out_data = np.einsum("ij,ij->i", a.data, b.data)

    def make_backward(to_a, to_b):
        a_data = a.data if to_b is not None else None
        b_data = b.data if to_a is not None else None

        def backward(g):
            if to_a is not None:
                _accumulate(to_a, g[:, None] * b_data)
            if to_b is not None:
                _accumulate(to_b, g[:, None] * a_data)
        return backward

    return _record((a, b), out_data, make_backward)


def sum_all(x: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    out_data = np.asarray(x.data.sum())

    shape = x.data.shape

    def make_backward(to_x):
        def backward(g):
            _accumulate(to_x, np.full(shape, g))
        return backward

    return _record((x,), out_data, make_backward)


def bce_with_logits(pred: Tensor, target: np.ndarray,
                    mask: Optional[np.ndarray] = None) -> Tensor:
    """Mean binary cross entropy from logits, over unmasked entries only.

    Uses the stable form max(z,0) - z*y + log1p(exp(-|z|)); finite inputs
    can never produce NaN/Inf.
    """
    y = np.asarray(target, dtype=np.float64)
    if y.shape != pred.data.shape:
        raise ShapeMismatchError(
            f"target shape {y.shape} does not match logits {pred.data.shape}")
    if mask is None:
        m = np.ones(pred.data.shape, dtype=bool)
    else:
        m = np.asarray(mask, dtype=bool)
        if m.shape != pred.data.shape:
            raise ShapeMismatchError(
                f"mask shape {m.shape} does not match logits {pred.data.shape}")
    n = int(m.sum())
    if n == 0:
        raise EmptyLossError("all labels are masked; loss is undefined")
    z = pred.data
    per_elem = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    out_data = np.asarray(np.sum(per_elem * m) / n)

    def make_backward(to_pred):
        def backward(g):
            _accumulate(to_pred, g * m * (_sigmoid(z) - y) / n)
        return backward

    return _record((pred,), out_data, make_backward)


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

class BatchNormState:
    """Affine parameters plus running statistics for one BN instance.

    gamma/beta are tensors (possibly trainable); running_mean/var are
    plain buffers mutated in train mode. Running variance is updated with
    the unbiased batch variance; normalization itself uses the biased one.
    """

    def __init__(self, gamma: Tensor, beta: Tensor,
                 running_mean: np.ndarray, running_var: np.ndarray,
                 momentum: float = 0.1, eps: float = 1e-5):
        self.gamma = gamma
        self.beta = beta
        self.running_mean = running_mean
        self.running_var = running_var
        self.momentum = momentum
        self.eps = eps

    @classmethod
    def fresh(cls, dim: int, momentum: float = 0.1, eps: float = 1e-5) -> "BatchNormState":
        return cls(Tensor(np.ones(dim), requires_grad=True),
                   Tensor(np.zeros(dim), requires_grad=True),
                   np.zeros(dim), np.ones(dim), momentum, eps)


def batchnorm1d(x: Tensor, state: BatchNormState, mode: str) -> Tensor:
    """Batch normalization over rows of a (B×d) input.

    Train mode normalizes by the biased batch variance, applies the
    affine transform, and updates running statistics in place. Eval mode
    normalizes by the running statistics. The backward pass includes the
    mean and variance paths.

    The input is centred once; the variance is taken from the centred
    buffer (the same operations, in the same order, as ``np.var``), which
    is then scaled in place into x̂. The affine is written in place into
    one output buffer, and the backward pass works in two buffers of its
    own, reusing x̂ once it is no longer read.
    """
    _check_2d(x, "batchnorm input")
    d = x.data.shape[1]
    if state.gamma.data.shape != (d,) or state.beta.data.shape != (d,):
        raise ShapeMismatchError(
            f"BN affine shape {state.gamma.data.shape} does not match width {d}")
    gamma, beta = state.gamma, state.beta

    if mode == "train":
        B = x.data.shape[0]
        if B < 2:
            raise DegenerateBatchError(
                f"train-mode batchnorm needs at least 2 rows, got {B}")
        mean = x.data.mean(axis=0)
        xhat = x.data - mean
        out_data = np.multiply(xhat, xhat)
        var = out_data.sum(axis=0)
        var /= B  # biased
        inv_std = 1.0 / np.sqrt(var + state.eps)
        xhat *= inv_std
        np.multiply(xhat, gamma.data, out=out_data)
        out_data += beta.data
        mom = state.momentum
        unbiased = var * B / (B - 1)
        state.running_mean *= 1.0 - mom
        state.running_mean += mom * mean
        state.running_var *= 1.0 - mom
        state.running_var += mom * unbiased

        def make_backward(to_x, to_gamma, to_beta):
            gamma_data = gamma.data

            def backward(g):
                scratch = None
                if to_gamma is not None:
                    scratch = np.multiply(g, xhat)
                    _accumulate(to_gamma, scratch.sum(axis=0))
                if to_beta is not None:
                    _accumulate(to_beta, g.sum(axis=0))
                if to_x is not None:
                    # (inv_std/B)·(B·dx̂ − Σdx̂ − x̂·Σ(dx̂·x̂)), in place
                    dxhat = g * gamma_data
                    dot = np.multiply(dxhat, xhat, out=scratch).sum(axis=0)
                    total = dxhat.sum(axis=0)
                    dxhat *= B
                    dxhat -= total
                    dxhat -= np.multiply(xhat, dot, out=xhat)  # x̂'s last read
                    dxhat *= inv_std / B
                    _accumulate(to_x, dxhat)
            return backward

        return _record((x, gamma, beta), out_data, make_backward)

    if mode == "eval":
        inv_std = 1.0 / np.sqrt(state.running_var + state.eps)
        xhat = x.data - state.running_mean
        xhat *= inv_std
        # x̂ is overwritten by the affine unless gamma's gradient needs it
        keep = gamma.requires_grad and active_tape() is not None
        out_data = np.multiply(xhat, gamma.data, out=None if keep else xhat)
        out_data += beta.data

        def make_backward(to_x, to_gamma, to_beta):
            gamma_data = gamma.data
            kept_xhat = xhat if to_gamma is not None else None  # else the output

            def backward(g):
                if to_gamma is not None:
                    _accumulate(to_gamma, (g * kept_xhat).sum(axis=0))
                if to_beta is not None:
                    _accumulate(to_beta, g.sum(axis=0))
                if to_x is not None:
                    dx = g * gamma_data
                    dx *= inv_std
                    _accumulate(to_x, dx)
            return backward

        return _record((x, gamma, beta), out_data, make_backward)

    raise ValueError(f"unknown batchnorm mode {mode!r}")
