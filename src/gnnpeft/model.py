"""GIN backbone: encoders, message-passing layers, readout, classifier.

Layer recurrence: h_l = BN(MLP(MP(x_l))), x_{l+1} = Dropout(ReLU(h_l)).
The final layer's h feeds the mean-pool readout directly (no trailing
ReLU/Dropout). Message passing is non-parametric: for each node i it
sums x_j + e_{ji} over incoming directed edges, including a self-loop
carrying the reserved edge code. Node and edge embedding tables live in
the encoder and are shared by all layers.

In matrix form MP(x) = A·x + Σ_k C_k·E_k, with A the adjacency including
self-loops and C_k the per-node counts of incoming codes of edge
attribute k. A·x is one batched matmul over the batch's zero-padded
(G, N, N) stack of per-graph adjacency blocks. When that stack would hold
more floats than the m×d edge messages of a gather + scatter-sum, as for
one large graph, A·x takes the gather + scatter-sum path instead. The
edge term Σ_k C_k·E_k depends only on the batch and the tables, so it is
computed once per forward pass as n×d and no per-edge tensor is built.
Node embeddings are the same counts-times-table product with one-hot
counts.

Layer 0 reads only embeddings, so its input and message sum are exact
low-rank products: x0 = Z_x·S and m0 = Z_m·S, where S stacks the node
and edge tables (and any prompt rows) into r rows and Z_m counts each
node's neighbour node codes (itself included) and incoming edge codes.
Everything that reads them is linear (the first MLP linear, its low-rank
factors and rescaling, the adapter down-projections), so layer 0 computes
Z·(S·W) and never forms x0, m0 or m0·W at full width. The factored form
is used whenever it is smaller, r·(n+d) < n·d; otherwise layer 0 runs
the dense path above, as every later layer does.

At evaluation the readout pools inside the last layer. Everything after
each branch's last ReLU is affine per row (mlp.1 with its low-rank and
rescaling terms, eval BN with running statistics, the adapter
up-projections, the scalings and the sum), and every mean-pool row sums
to 1 (graphs are never empty), so pool(R·W + b) = pool(R)·W + b. The
backbone pools after ReLU(mlp.0), an adapter after its down-projection's
ReLU and an identity adapter at its input, so that tail runs on one row
per graph. Train mode pools last: its BN needs batch statistics over
node rows.

Tuning-mode insertions (adapters, low-rank factors, rescaling vectors,
prompts) are looked up by registry name, so a registry without them runs
the plain backbone.
"""

from __future__ import annotations

from functools import partial, reduce
from typing import Callable, Optional

import numpy as np

from .config import ModelConfig, PeftConfig
from .graphs import GraphBatch
from .peft import ADAPTER_SLOTS, AdapterModule, adapter_forward
from .registry import ParamRegistry
from .rng import RngStream
from .tensor import (BatchNormState, LowRank, Tensor, add, batchnorm1d,
                     block_diag_matmul, concat_rows, dropout, gather_rows,
                     matmul, mul_elementwise, relu, scatter_sum,
                     segment_mean_pool)


def init_params(config: ModelConfig, seed: int = 0) -> ParamRegistry:
    """Fresh registry: linear weights ~ U(±1/√fan_in), biases 0,
    embedding tables ~ N(0, 0.02), BN affine at identity.

    Every tensor draws from a stream keyed by its own name, so the result
    is deterministic per seed and independent of insertion order.
    """
    d, h, t = config.emb_dim, config.hidden, config.num_tasks
    reg = ParamRegistry()
    root = RngStream(seed, ("init",))

    def emb(name: str, rows: int) -> None:
        reg.add(name, root.child(name).normal(0.0, 0.02, size=(rows, d)),
                True, "backbone")

    def linear(prefix: str, n_in: int, n_out: int, group: str = "backbone") -> None:
        bound = 1.0 / np.sqrt(n_in)
        reg.add(f"{prefix}.weight",
                root.child(f"{prefix}.weight").uniform(-bound, bound, size=(n_in, n_out)),
                True, group)
        reg.add(f"{prefix}.bias", np.zeros(n_out), True, group)

    for i, size in enumerate(config.vocab.node):
        emb(f"encoder.node_emb.{i}.weight", size)
    for i, size in enumerate(config.vocab.edge):
        emb(f"encoder.edge_emb.{i}.weight", size + 1)  # +1: self-loop code
    for l in range(config.num_layers):
        linear(f"layer.{l}.mlp.0", d, h)
        linear(f"layer.{l}.mlp.1", h, d)
        reg.add(f"layer.{l}.bn.gamma", np.ones(d), True, "backbone")
        reg.add(f"layer.{l}.bn.beta", np.zeros(d), True, "backbone")
        reg.add_buffer(f"layer.{l}.bn.running_mean", np.zeros(d))
        reg.add_buffer(f"layer.{l}.bn.running_var", np.ones(d))
    linear("classifier", d, t, group="classifier")
    return reg


def _bn_state(reg: ParamRegistry, prefix: str) -> BatchNormState:
    return BatchNormState(reg.get(f"{prefix}.gamma"), reg.get(f"{prefix}.beta"),
                          reg.buffer(f"{prefix}.running_mean"),
                          reg.buffer(f"{prefix}.running_var"))


def _counts_times_tables(counts, reg: ParamRegistry, table: str) -> Tensor:
    """Σ_k counts[k] @ table k: an embedding lookup and sum as matmuls."""
    out = [matmul(Tensor(c), reg.get(f"{table}.{k}.weight")) for k, c in enumerate(counts)]
    return add(out[0], out[1])


def encode_nodes(batch: GraphBatch, reg: ParamRegistry) -> Tensor:
    """Initial node states: sum of the two node-attribute embeddings,
    plus the feature prompt when one is installed."""
    x = _counts_times_tables(batch.node_codes, reg, "encoder.node_emb")
    if "prompt.feature" in reg:
        x = add(x, reg.get("prompt.feature"))
    return x


def edge_embeddings(batch: GraphBatch, reg: ParamRegistry) -> Tensor:
    """Edge term of message passing (n×d): for each node, the sum of the
    two edge-attribute embeddings over its incoming edges and self-loop."""
    return _counts_times_tables(batch.edge_codes, reg, "encoder.edge_emb")


def message_pass(x: Tensor, batch: GraphBatch, edge_term: Tensor) -> Tensor:
    """MP(x)_i = Σ_{j→i, incl. self-loop} (x_j + e_{ji}) = (A·x)_i + edge_term_i;
    non-parametric."""
    n, d = x.shape
    if batch.num_graphs * batch.max_nodes ** 2 <= batch.num_edges * d:
        neighbours = block_diag_matmul(batch.adjacency, x, batch.graph_ids,
                                       batch.node_pos)
    else:  # the padded stack would outgrow the per-edge messages
        neighbours = scatter_sum(gather_rows(x, batch.edge_src), batch.edge_dst, n)
    return add(neighbours, edge_term)


def layer0_low_rank(batch: GraphBatch, reg: ParamRegistry,
                    d: int) -> Optional[tuple[LowRank, LowRank]]:
    """Layer 0's input and message sum as (Z_x·S, Z_m·S) over one stack S
    of the embedding tables, or None when r·(n+d) ≥ n·d.

    S's rows are the node tables, the feature prompt (x0 gets a column of
    ones, m0 each node's in-degree with self-loop), the edge tables (x0
    gets zeros, m0 the incoming edge-code counts) and layer 0's node
    prompt (x0 gets zeros, m0 ones).
    """
    n = batch.num_nodes
    feat, node = "prompt.feature" in reg, "layer.0.prompt" in reg
    r = sum(c.shape[1] for c in batch.node_codes + batch.edge_codes) + feat + node
    if r * (n + d) >= n * d:
        return None
    rows = [reg.get(f"encoder.node_emb.{k}.weight") for k in range(len(batch.node_codes))]
    zx, zm = list(batch.node_codes), list(batch.neighbour_codes)
    ones, zeros = np.ones((n, 1)), np.zeros((n, 1))
    if feat:
        rows.append(reg.get("prompt.feature"))
        zx.append(ones)
        zm.append(zm[0].sum(axis=1, keepdims=True))
    for k, c in enumerate(batch.edge_codes):
        rows.append(reg.get(f"encoder.edge_emb.{k}.weight"))
        zx.append(np.zeros_like(c))
        zm.append(c)
    if node:
        rows.append(reg.get("layer.0.prompt"))
        zx.append(zeros)
        zm.append(ones)
    s = concat_rows(rows)
    return LowRank(np.hstack(zx), s), LowRank(np.hstack(zm), s)


def _mlp_linear(x: Tensor, reg: ParamRegistry, name: str) -> Tensor:
    """One MLP linear, honoring installed input-rescaling or low-rank factors."""
    if f"{name}.ia3" in reg:
        x = mul_elementwise(x, reg.get(f"{name}.ia3"))
    out = matmul(x, reg.get(f"{name}.weight"), reg.get(f"{name}.bias"))
    if f"{name}.lora_a" in reg:
        out = add(out, matmul(matmul(x, reg.get(f"{name}.lora_a")),
                              reg.get(f"{name}.lora_b")))
    return out


def backbone_layer(m: Tensor, reg: ParamRegistry, l: int, mode: str,
                   readout: Optional[Callable] = None) -> Tensor:
    """BN(MLP(m)) for layer l; m is the message-passing output. An
    eval-mode ``readout`` pools the rows right after the MLP's ReLU."""
    # the affine output is fresh and read by nothing else, so ReLU reuses it
    h = relu(_mlp_linear(m, reg, f"layer.{l}.mlp.0"), overwrite_input=True)
    if readout is not None:
        h = readout(h)
    h = _mlp_linear(h, reg, f"layer.{l}.mlp.1")
    return batchnorm1d(h, _bn_state(reg, f"layer.{l}.bn"), mode)


def _adapter_out(x: Tensor, reg: ParamRegistry, prefix: str, bottleneck: int,
                 mode: str, readout: Optional[Callable] = None) -> Tensor:
    if bottleneck == 0:  # width-0 bottleneck degenerates to the identity mapping
        return x if readout is None else readout(x)
    return adapter_forward(x, AdapterModule.from_registry(reg, prefix), mode,
                           readout)


def layer_forward(x: Tensor, m: Tensor, reg: ParamRegistry, l: int,
                  peft: PeftConfig, mode: str,
                  readout: Optional[Callable] = None) -> Tensor:
    """Layer l's output, h = BN(MLP(m)) + Σ s·A(input) over the mode's
    ``ADAPTER_SLOTS``: x is the layer input, m its message-passing output,
    each slot's adapter A reads x, m or BN(MLP(m)), and s is the slot's
    learnable scalar scaling (1 without one). For the dual-adapter mode,
    h = BN(MLP(m)) + s1·A1(x) + s2·A2(m).

    With an eval-mode ``readout`` (a mean pool, whose rows sum to 1) the
    layer returns readout(h). Each branch pools at its last ReLU, since
    all that follows it is affine per row (a linear, eval BN, scalings,
    sums): the backbone after ReLU(mlp.0), an adapter after its
    down-projection's ReLU, an identity adapter at its input. An adapter
    that reads h gets h per node, and h is pooled after it.
    """
    slots = ADAPTER_SLOTS.get(peft.mode, ())
    reads_h = any(src == "h" for _, src, _ in slots)
    h = backbone_layer(m, reg, l, mode, None if reads_h else readout)
    if not slots:
        return h
    inputs = {"x": x, "m": m, "h": h}
    outs = [_adapter_out(inputs[src], reg, f"layer.{l}.{slot}",
                         peft.bottleneck, mode, readout) for slot, src, _ in slots]
    outs = [a if scale is None else mul_elementwise(a, reg.get(f"layer.{l}.{scale}"))
            for a, (_, _, scale) in zip(outs, slots)]
    if reads_h and readout is not None:
        h = readout(h)
    return add(h, reduce(add, outs))


def gin_node_states(batch: GraphBatch, reg: ParamRegistry, config: ModelConfig,
                    peft: PeftConfig, mode: str,
                    rng: Optional[RngStream] = None,
                    readout: Optional[Callable] = None) -> Tensor:
    """Run all layers and return final per-node states (n×d), or with an
    eval-mode ``readout`` the last layer's pooled states (see
    ``layer_forward``)."""
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be train|eval, got {mode!r}")
    if readout is not None and mode != "eval":
        raise ValueError("a readout inside the last layer needs eval mode: "
                         "train-mode BN normalizes over node rows")
    x, m = (layer0_low_rank(batch, reg, config.emb_dim)
            or (encode_nodes(batch, reg), None))
    e = None
    for l in range(config.num_layers):
        if m is None:
            if e is None:
                e = edge_embeddings(batch, reg)
            m = message_pass(x, batch, e)
            if f"layer.{l}.prompt" in reg:
                m = add(m, reg.get(f"layer.{l}.prompt"))
        last = l == config.num_layers - 1
        if last:
            e = None  # no later layer reads it, so an eval forward frees it here
        h = layer_forward(x, m, reg, l, peft, mode, readout if last else None)
        m = None  # an eval forward frees each layer's activations as it goes
        if not last:
            x = relu(h)
            del h
            stream = rng.child(f"layer{l}.dropout") if rng is not None else None
            x = dropout(x, config.dropout, stream, mode)
        else:
            x = h
    return x


def gin_forward(batch: GraphBatch, reg: ParamRegistry, config: ModelConfig,
                peft: PeftConfig, mode: str,
                rng: Optional[RngStream] = None) -> Tensor:
    """Graph embeddings (G×d): mean-pool readout over final node states.
    In eval mode the last layer pools at each branch's last ReLU, so its
    affine tail runs on one row per graph."""
    readout = partial(segment_mean_pool, segment_ids=batch.graph_ids,
                      num_segments=batch.num_graphs)
    if mode == "eval":
        return gin_node_states(batch, reg, config, peft, mode, rng, readout)
    return readout(gin_node_states(batch, reg, config, peft, mode, rng))


def classify(embeddings: Tensor, reg: ParamRegistry) -> Tensor:
    """Affine map from graph embeddings to per-task logits."""
    return matmul(embeddings, reg.get("classifier.weight"), reg.get("classifier.bias"))


def forward_logits(batch: GraphBatch, reg: ParamRegistry, config: ModelConfig,
                   peft: PeftConfig, mode: str,
                   rng: Optional[RngStream] = None) -> Tensor:
    return classify(gin_forward(batch, reg, config, peft, mode, rng), reg)
