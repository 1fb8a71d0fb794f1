"""Graph data model: JSONL persistence, synthetic generation, splits, batching.

Graphs are small attributed undirected graphs with two categorical codes
per node and per edge, and a per-task binary label vector where -1 marks
a missing label. Datasets are immutable after construction; generation,
splitting, and batching are pure functions of their arguments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .rng import RngStream

DEFAULT_NODE_VOCAB = (8, 4)
DEFAULT_EDGE_VOCAB = (4, 3)


class DatasetFormatError(ValueError):
    """A dataset file violates the JSONL graph format; message names the line."""


@dataclass(frozen=True)
class Vocab:
    """Categorical vocabulary sizes for the two node and two edge attributes."""
    node: tuple[int, int] = DEFAULT_NODE_VOCAB
    edge: tuple[int, int] = DEFAULT_EDGE_VOCAB

    def __post_init__(self):
        for sizes in (self.node, self.edge):
            if len(sizes) != 2 or any(int(s) < 1 for s in sizes):
                raise ValueError(f"vocab sizes must be two positive ints, got {sizes}")


@dataclass(frozen=True)
class Graph:
    """One undirected attributed graph with a (possibly partial) label vector.

    ``edges`` stores each undirected pair once (u < v not required); self
    pairs are forbidden here — the backbone adds self-loops at batch time.
    ``labels`` holds int8 values in {0, 1, -1}, -1 meaning missing.
    """
    node_attrs: np.ndarray   # (N, 2) int64 codes
    edges: np.ndarray        # (E, 2) int64 endpoints
    edge_attrs: np.ndarray   # (E, 2) int64 codes
    labels: np.ndarray       # (T,) int8 in {0, 1, -1}

    @property
    def num_nodes(self) -> int:
        return self.node_attrs.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]


@dataclass(frozen=True)
class Dataset:
    graphs: tuple[Graph, ...]
    vocab: Vocab
    num_tasks: int

    def __len__(self) -> int:
        return len(self.graphs)

    def subset(self, indices: Sequence[int]) -> "Dataset":
        return Dataset(tuple(self.graphs[i] for i in indices), self.vocab, self.num_tasks)


@dataclass(frozen=True)
class SplitSpec:
    """Train/valid/test fractions and ordering mode.

    ``structure`` mode sorts graphs by cyclomatic number and slices
    contiguously, putting the most cycle-rich graphs in the test split —
    a controlled distribution shift. ``random`` shuffles by seed.
    """
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)
    mode: str = "random"

    def __post_init__(self):
        if self.mode not in ("random", "structure"):
            raise ValueError(f"split mode must be random|structure, got {self.mode!r}")
        if (len(self.fractions) != 3 or abs(sum(self.fractions) - 1.0) > 1e-9
                or any(not f >= 0 for f in self.fractions)):
            raise ValueError("fractions must be three nonnegative train,valid,test "
                             f"shares summing to 1, got {self.fractions}")


@dataclass(frozen=True)
class GraphBatch:
    """A list of graphs flattened for vectorized message passing.

    Undirected pairs are expanded to both directions and one self-loop per
    node is appended with the reserved edge code (= vocab size) in both
    edge-attribute slots. Edges are sorted by (dst, src). ``graph_ids``
    are contiguous and sorted because nodes are concatenated in order, and
    ``node_pos`` is each node's index inside its own graph.

    ``node_codes[k]`` is the (n, V_k) one-hot of node attribute k, and
    ``edge_codes[k]`` the (n, V_k+1) count of incoming edges per code of
    edge attribute k, self-loop code included, so an embedding lookup or
    an edge-embedding sum is one matmul with the table.
    """
    node_attrs: np.ndarray   # (n, 2)
    edge_src: np.ndarray     # (m,)
    edge_dst: np.ndarray     # (m,)
    edge_attrs: np.ndarray   # (m, 2)
    graph_ids: np.ndarray    # (n,)
    node_pos: np.ndarray     # (n,)
    node_codes: tuple[np.ndarray, np.ndarray]
    edge_codes: tuple[np.ndarray, np.ndarray]
    labels: np.ndarray       # (G, T) float64, 0 where missing
    label_mask: np.ndarray   # (G, T) bool, False where missing
    num_graphs: int
    max_nodes: int

    @property
    def num_nodes(self) -> int:
        return self.node_attrs.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edge_src.shape[0]

    @cached_property
    def adjacency(self) -> np.ndarray:
        """(G, N, N) stack of per-graph adjacency matrices with self-loops,
        zero-padded to N = ``max_nodes``; entry [g, i, j] counts the edges
        j -> i. Built on first use and kept, so a batch that never asks for
        it never allocates its G·N² floats."""
        n_max = self.max_nodes
        flat = ((self.graph_ids[self.edge_dst] * n_max + self.node_pos[self.edge_dst])
                * n_max + self.node_pos[self.edge_src])
        counts = np.bincount(flat, minlength=self.num_graphs * n_max * n_max)
        return counts.astype(np.float64).reshape(self.num_graphs, n_max, n_max)

    @cached_property
    def neighbour_codes(self) -> tuple[np.ndarray, ...]:
        """Per node attribute k, the (n, V_k) count of codes among each
        node's in-neighbours, self-loop included; edges hidden by
        ``drop_edges`` are not counted."""
        return tuple(_code_counts(self.edge_dst, self.node_attrs[self.edge_src, k],
                                  self.num_nodes, c.shape[1])
                     for k, c in enumerate(self.node_codes))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _validate_graph(g: Graph, vocab: Vocab, where: str) -> None:
    n = g.num_nodes
    if n < 1:
        raise DatasetFormatError(f"{where}: graph has no nodes")
    if g.node_attrs.shape != (n, 2):
        raise DatasetFormatError(f"{where}: node attrs must be N×2")
    for dim in (0, 1):
        col = g.node_attrs[:, dim]
        if col.size and (col.min() < 0 or col.max() >= vocab.node[dim]):
            raise DatasetFormatError(
                f"{where}: node attribute {dim} outside vocab [0, {vocab.node[dim]})")
    if g.num_edges:
        u, v = g.edges[:, 0], g.edges[:, 1]
        if (u == v).any():
            bad = int(u[(u == v).argmax()])
            raise DatasetFormatError(f"{where}: self-pair on node {bad} not allowed")
        if u.min() < 0 or v.min() < 0 or u.max() >= n or v.max() >= n:
            worst = int(max(u.max(), v.max()))
            raise DatasetFormatError(
                f"{where}: edge endpoint {worst} outside [0, {n})")
        for dim in (0, 1):
            col = g.edge_attrs[:, dim]
            if col.min() < 0 or col.max() >= vocab.edge[dim]:
                raise DatasetFormatError(
                    f"{where}: edge attribute {dim} outside vocab [0, {vocab.edge[dim]})")
    if not np.isin(g.labels, (-1, 0, 1)).all():
        raise DatasetFormatError(f"{where}: labels must be in {{-1, 0, 1}}")


# ---------------------------------------------------------------------------
# JSONL persistence
# ---------------------------------------------------------------------------

def _graph_to_obj(g: Graph) -> dict:
    return {
        "nodes": g.node_attrs.tolist(),
        "edges": [[int(u), int(v), int(b0), int(b1)]
                  for (u, v), (b0, b1) in zip(g.edges, g.edge_attrs)],
        "labels": g.labels.tolist(),
    }


def _graph_from_obj(obj: dict, where: str) -> Graph:
    try:
        nodes = np.asarray(obj["nodes"], dtype=np.int64).reshape(-1, 2)
        raw_edges = obj["edges"]
        if raw_edges:
            arr = np.asarray(raw_edges, dtype=np.int64)
            if arr.ndim != 2 or arr.shape[1] != 4:
                raise ValueError("edges must be [u, v, attr0, attr1] quadruples")
            edges, edge_attrs = arr[:, :2], arr[:, 2:]
        else:
            edges = np.zeros((0, 2), dtype=np.int64)
            edge_attrs = np.zeros((0, 2), dtype=np.int64)
        labels = np.asarray(obj["labels"], dtype=np.int8)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DatasetFormatError(f"{where}: bad graph object ({exc})") from exc
    if labels.ndim != 1:
        raise DatasetFormatError(
            f"{where}: labels must be a flat list, got shape {labels.shape}")
    return Graph(nodes, edges, edge_attrs, labels)


def save_jsonl(dataset: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for g in dataset.graphs:
            fh.write(json.dumps(_graph_to_obj(g), separators=(",", ":")) + "\n")


def load_jsonl(path, vocab: Vocab = Vocab()) -> Dataset:
    """Parse a one-graph-per-line dataset, validating every invariant.

    Errors mention the 1-based line number of the offending graph.
    """
    graphs: list[Graph] = []
    num_tasks: int | None = None
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            where = f"{path}:{lineno}"
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DatasetFormatError(f"{where}: not UTF-8 ({exc.reason})") from exc
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(f"{where}: malformed JSON ({exc.msg})") from exc
            except RecursionError as exc:
                raise DatasetFormatError(f"{where}: JSON nested too deeply") from exc
            g = _graph_from_obj(obj, where)
            _validate_graph(g, vocab, where)
            if num_tasks is None:
                num_tasks = g.labels.shape[0]
            elif g.labels.shape[0] != num_tasks:
                raise DatasetFormatError(
                    f"{where}: expected {num_tasks} labels, got {g.labels.shape[0]}")
            graphs.append(g)
    if not graphs:
        raise DatasetFormatError(f"{path}: dataset is empty")
    return Dataset(tuple(graphs), vocab, int(num_tasks))


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------

def _has_monochrome_triangle(g: Graph, color: int) -> bool:
    """True iff some triangle has node-attribute-0 == color on all corners."""
    n = g.num_nodes
    if g.num_edges == 0:
        return False
    colored = g.node_attrs[:, 0] == color
    adj = np.zeros((n, n), dtype=bool)
    u, v = g.edges[:, 0], g.edges[:, 1]
    keep = colored[u] & colored[v]
    adj[u[keep], v[keep]] = True
    adj[v[keep], u[keep]] = True
    # triangle exists iff some edge's endpoints share a common neighbor
    for a, b in zip(u[keep], v[keep]):
        if (adj[a] & adj[b]).any():
            return True
    return False


def generate_synthetic(n_graphs: int, node_range: tuple[int, int] = (6, 16),
                       edge_prob: float = 0.25,
                       vocab: Vocab = Vocab(), n_tasks: int = 1,
                       seed: int = 0, attr_affinity: float = 0.0) -> Dataset:
    """Random attributed graphs with planted triangle-motif labels.

    Each graph draws its node count uniformly from ``node_range``
    (inclusive), includes every unordered pair independently with
    probability ``edge_prob``, and draws all attribute codes uniformly.
    Task t's label is 1 iff the graph contains a triangle whose three
    nodes all have node-attribute-0 equal to ``t % vocab.node[0]``.
    Roughly 10% of labels are then masked to missing (-1). Output is a
    deterministic function of the arguments.

    ``attr_affinity`` > 0 wires nodes sharing attribute-0 more densely:
    matching pairs connect with probability p + a·(1−p) instead of p.
    That plants a structure–attribute correlation, so self-supervised
    edge prediction has something task-relevant to learn; at the default
    0.0 the wiring is attribute-independent and bitwise identical to
    earlier outputs for the same seed.
    """
    lo, hi = int(node_range[0]), int(node_range[1])
    if lo > hi:
        raise ValueError(f"node_range is empty: {node_range}")
    if not (3 <= lo and hi <= 64):
        raise ValueError(f"node_range must lie within [3, 64], got {node_range}")
    if n_graphs < 1:
        raise ValueError("n_graphs must be positive")
    if n_tasks < 1:
        raise ValueError("n_tasks must be positive")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError(f"edge_prob must be in [0, 1], got {edge_prob}")
    if not 0.0 <= attr_affinity <= 1.0:
        raise ValueError(f"attr_affinity must be in [0, 1], got {attr_affinity}")

    root = RngStream(seed, ("synthetic",))
    graphs = []
    for i in range(n_graphs):
        rng = root.child(f"graph{i}")
        n = int(rng.integers(lo, hi + 1))
        node_attrs = np.stack([rng.integers(0, vocab.node[d], size=n)
                               for d in (0, 1)], axis=1)
        iu, iv = np.triu_indices(n, k=1)
        same = node_attrs[iu, 0] == node_attrs[iv, 0]
        p_pair = np.where(same, edge_prob + attr_affinity * (1.0 - edge_prob),
                          edge_prob)
        present = rng.random(iu.shape[0]) < p_pair
        edges = np.stack([iu[present], iv[present]], axis=1).astype(np.int64)
        e = edges.shape[0]
        edge_attrs = np.stack([rng.integers(0, vocab.edge[d], size=e)
                               for d in (0, 1)], axis=1)
        g = Graph(node_attrs, edges, edge_attrs,
                  np.zeros(n_tasks, dtype=np.int8))
        colors_hit = [_has_monochrome_triangle(g, c) for c in range(vocab.node[0])]
        labels = np.array([1 if colors_hit[t % vocab.node[0]] else 0
                           for t in range(n_tasks)], dtype=np.int8)
        missing = rng.random(n_tasks) < 0.10
        labels[missing] = -1
        graphs.append(Graph(node_attrs, edges, edge_attrs, labels))
    return Dataset(tuple(graphs), vocab, n_tasks)


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

def num_components(g: Graph) -> int:
    """Connected components by union-find over the undirected edges."""
    parent = list(range(g.num_nodes))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in g.edges:
        ru, rv = find(int(u)), find(int(v))
        if ru != rv:
            parent[ru] = rv
    return sum(1 for i, p in enumerate(parent) if find(i) == i)


def cyclomatic_number(g: Graph) -> int:
    """Independent cycles: |E| - N + number of connected components."""
    return g.num_edges - g.num_nodes + num_components(g)


def split(dataset: Dataset, spec: SplitSpec = SplitSpec(),
          seed: int = 0) -> tuple[Dataset, Dataset, Dataset]:
    """Partition a dataset into train/valid/test per the spec'd fractions.

    Sizes are round(f·n) for train and valid with test taking the rest.
    Raises if any split would be empty.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot split an empty dataset")
    n_train = int(round(spec.fractions[0] * n))
    n_valid = int(round(spec.fractions[1] * n))
    n_test = n - n_train - n_valid
    if min(n_train, n_valid, n_test) <= 0:
        raise ValueError(
            f"split of {n} graphs by {spec.fractions} leaves an empty part "
            f"({n_train}/{n_valid}/{n_test})")
    if spec.mode == "structure":
        keys = [cyclomatic_number(g) for g in dataset.graphs]
        order = np.argsort(np.asarray(keys), kind="stable")
    else:
        order = RngStream(seed, ("split",)).permutation(n)
    order = [int(i) for i in order]
    return (dataset.subset(order[:n_train]),
            dataset.subset(order[n_train:n_train + n_valid]),
            dataset.subset(order[n_train + n_valid:]))


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def batch(graphs: Sequence[Graph], vocab: Vocab,
          drop_edges: dict[int, np.ndarray] | None = None) -> GraphBatch:
    """Flatten graphs into one directed-edge batch with self-loops.

    ``drop_edges`` optionally maps a graph's position in ``graphs`` to a
    boolean keep-mask over its undirected edges; dropped edges are hidden
    from message passing (used by the edge-prediction pretraining task).
    """
    if len(graphs) == 0:
        raise ValueError("cannot batch zero graphs")
    loop_code = np.asarray(vocab.edge, dtype=np.int64)  # reserved per-slot code
    node_blocks, id_blocks, pos_blocks = [], [], []
    src_parts, dst_parts, attr_parts = [], [], []
    labels = np.zeros((len(graphs), graphs[0].labels.shape[0]))
    mask = np.zeros(labels.shape, dtype=bool)
    offset = 0
    for gi, g in enumerate(graphs):
        n = g.num_nodes
        if n == 0:  # the readout's mean pool needs a row per graph
            raise ValueError(f"graph {gi} has no nodes")
        node_blocks.append(g.node_attrs)
        id_blocks.append(np.full(n, gi, dtype=np.int64))
        pos_blocks.append(np.arange(n, dtype=np.int64))
        edges, attrs = g.edges, g.edge_attrs
        if drop_edges is not None and gi in drop_edges:
            keep = np.asarray(drop_edges[gi], dtype=bool)
            if keep.shape != (g.num_edges,):
                raise ValueError(
                    f"keep-mask shape {keep.shape} does not match {g.num_edges} edges")
            edges, attrs = edges[keep], attrs[keep]
        u = edges[:, 0] + offset
        v = edges[:, 1] + offset
        loops = pos_blocks[-1] + offset
        src_parts.append(np.concatenate([u, v, loops]))
        dst_parts.append(np.concatenate([v, u, loops]))
        attr_parts.append(np.concatenate(
            [attrs, attrs, np.tile(loop_code, (n, 1))], axis=0))
        lab = g.labels.astype(np.float64)
        mask[gi] = g.labels >= 0
        labels[gi] = np.where(mask[gi], lab, 0.0)
        offset += n
    src = np.concatenate(src_parts)
    dst = np.concatenate(dst_parts)
    attrs = np.concatenate(attr_parts, axis=0)
    order = np.lexsort((src, dst))  # sort by (dst, src) for determinism
    src, dst, attrs = src[order], dst[order], attrs[order]
    node_attrs = np.concatenate(node_blocks, axis=0)
    n = node_attrs.shape[0]
    return GraphBatch(
        node_attrs=node_attrs, edge_src=src, edge_dst=dst, edge_attrs=attrs,
        graph_ids=np.concatenate(id_blocks),
        node_pos=np.concatenate(pos_blocks),
        node_codes=tuple(_code_counts(np.arange(n), node_attrs[:, k], n, size)
                         for k, size in enumerate(vocab.node)),
        edge_codes=tuple(_code_counts(dst, attrs[:, k], n, size + 1)
                         for k, size in enumerate(vocab.edge)),
        labels=labels, label_mask=mask, num_graphs=len(graphs),
        max_nodes=max(g.num_nodes for g in graphs))


def _code_counts(rows: np.ndarray, codes: np.ndarray, n: int, size: int) -> np.ndarray:
    """(n, size) float matrix counting, per row id, the codes listed for it."""
    if codes.size and (codes.min() < 0 or codes.max() >= size):
        raise IndexError(f"attribute code outside [0, {size}): "
                         f"min={codes.min()}, max={codes.max()}")
    return np.bincount(rows * size + codes, minlength=n * size).reshape(
        n, size).astype(np.float64)
