"""The eval readout pools at each branch's last ReLU.

``_oracle_gin_forward`` and the functions it calls are the earlier forward
pass, kept verbatim (renamed only): every layer runs on node rows and the
mean pool comes last. The pooled path must give the same eval logits to
1e-12 relative, leave the BN running statistics alone, stay
differentiable, and leave the train path bit-identical.
"""

from functools import reduce
from typing import Optional

import numpy as np
import pytest

from gnnpeft import graphs as G
from gnnpeft.config import PEFT_MODES, ModelConfig, PeftConfig
from gnnpeft.graphs import GraphBatch
from gnnpeft.model import (_bn_state, _mlp_linear, classify, edge_embeddings,
                           encode_nodes, forward_logits, gin_forward,
                           gin_node_states, layer0_low_rank, message_pass)
from gnnpeft.peft import ADAPTER_SLOTS, AdapterModule
from gnnpeft.rng import RngStream
from gnnpeft.tensor import (LowRank, Tape, Tensor, add, batchnorm1d, dropout,
                            matmul, mul_elementwise, relu, segment_mean_pool,
                            sum_all)

from gradcheck import assert_grads_close
from test_layer0_counts import assert_rel_close, build, random_graphs

VOCAB = G.Vocab((3, 2), (2, 3))
RTOL = 1e-12


# ---------------------------------------------------------------------------
# oracle: the forward pass that pools after the last layer
# ---------------------------------------------------------------------------

def _oracle_adapter_forward(x: Tensor, module: AdapterModule, mode: str) -> Tensor:
    """A(x) = BN(W_up(ReLU(W_down(x)))), the bottleneck transform."""
    h = relu(matmul(x, module.down_w, module.down_b))
    h = matmul(h, module.up_w, module.up_b)
    return batchnorm1d(h, module.bn, mode)


def _oracle_backbone_layer(m: Tensor, reg, l: int, mode: str) -> Tensor:
    """BN(MLP(m)) for layer l; m is the message-passing output."""
    h = relu(_mlp_linear(m, reg, f"layer.{l}.mlp.0"))
    h = _mlp_linear(h, reg, f"layer.{l}.mlp.1")
    return batchnorm1d(h, _bn_state(reg, f"layer.{l}.bn"), mode)


def _oracle_adapter_out(x: Tensor, reg, prefix: str,
                        bottleneck: int, mode: str) -> Tensor:
    if bottleneck == 0:
        return x  # width-0 bottleneck degenerates to the identity mapping
    return _oracle_adapter_forward(x, AdapterModule.from_registry(reg, prefix), mode)


def _oracle_layer_forward(x: Tensor, m: Tensor, reg, l: int,
                          peft: PeftConfig, mode: str) -> Tensor:
    """Layer l's output, h = BN(MLP(m)) + Σ s·A(input) over the mode's
    ``ADAPTER_SLOTS``: x is the layer input, m its message-passing output,
    each slot's adapter A reads x, m or BN(MLP(m)), and s is the slot's
    learnable scalar scaling (1 without one). For the dual-adapter mode,
    h = BN(MLP(m)) + s1·A1(x) + s2·A2(m).
    """
    h = _oracle_backbone_layer(m, reg, l, mode)
    slots = ADAPTER_SLOTS.get(peft.mode)
    if slots is None:
        return h
    inputs = {"x": x, "m": m, "h": h}
    outs = [_oracle_adapter_out(inputs[src], reg, f"layer.{l}.{slot}",
                                peft.bottleneck, mode) for slot, src, _ in slots]
    outs = [a if scale is None else mul_elementwise(a, reg.get(f"layer.{l}.{scale}"))
            for a, (_, _, scale) in zip(outs, slots)]
    return add(h, reduce(add, outs))


def _oracle_gin_node_states(batch: GraphBatch, reg, config: ModelConfig,
                            peft: PeftConfig, mode: str,
                            rng: Optional[RngStream] = None) -> Tensor:
    """Run all layers and return final per-node states (n×d)."""
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be train|eval, got {mode!r}")
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
        if l == config.num_layers - 1:
            e = None  # no later layer reads it, so an eval forward frees it here
        h = _oracle_layer_forward(x, m, reg, l, peft, mode)
        m = None  # an eval forward frees each layer's activations as it goes
        if l < config.num_layers - 1:
            x = relu(h)
            del h
            stream = rng.child(f"layer{l}.dropout") if rng is not None else None
            x = dropout(x, config.dropout, stream, mode)
        else:
            x = h
    return x


def _oracle_gin_forward(batch: GraphBatch, reg, config: ModelConfig,
                        peft: PeftConfig, mode: str,
                        rng: Optional[RngStream] = None) -> Tensor:
    """Graph embeddings (G×d): mean-pool readout over final node states."""
    x = _oracle_gin_node_states(batch, reg, config, peft, mode, rng)
    return segment_mean_pool(x, batch.graph_ids, batch.num_graphs)


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

CASES = [PeftConfig(mode=m, bottleneck=7) for m in PEFT_MODES] + [
    PeftConfig(mode="adaptergnn", bottleneck=7, tune_backbone_bias=False),
    PeftConfig(mode="adaptergnn", bottleneck=0),
    PeftConfig(mode="adapter_seq", bottleneck=0),
    PeftConfig(mode="adapter_par", bottleneck=0),
]
CASE_IDS = [f"{p.mode}-b{p.bottleneck}"
            + ("-nobias" if p.tune_backbone_bias is False else "") for p in CASES]

# (width, graph sizes, whether layer 0 takes the factored path): a mixed
# batch with a 1-node graph, a 1-graph batch, and a lone 1-node graph, on
# both sides of the layer-0 size rule
BATCHES = [(48, [9, 1, 6, 12, 4], True), (48, [30], True),
           (4, [9, 1, 6, 12, 4], False), (48, [7], False), (48, [1], False)]


def model_for(d: int, layers: int) -> ModelConfig:
    return ModelConfig(emb_dim=d, num_layers=layers, num_tasks=2, dropout=0.3,
                       vocab=VOCAB)


def peft_for(peft: PeftConfig, d: int) -> PeftConfig:
    return PeftConfig(**{**peft.__dict__, "bottleneck": min(peft.bottleneck, d - 1)})


def build_eval(model: ModelConfig, peft: PeftConfig):
    """``build``'s registry with every BN's running statistics redrawn, so
    eval BN is a real per-column affine map and not the identity."""
    reg = build(model, peft)
    for name, buf in reg.buffers.items():
        draw = RngStream(13, ("stats", name))
        if name.endswith("running_mean"):
            buf[...] = draw.normal(0.0, 0.5, size=buf.shape)
        else:
            buf[...] = draw.uniform(0.5, 2.0, size=buf.shape)
    return reg


def logits_of(forward, batch, reg, model, peft, mode, rng=None):
    return classify(forward(batch, reg, model, peft, mode, rng), reg)


@pytest.mark.parametrize("layers", [1, 3])
@pytest.mark.parametrize("d,sizes,low", BATCHES,
                         ids=[f"d{d}-{len(s)}g{sum(s)}n" for d, s, _ in BATCHES])
@pytest.mark.parametrize("peft", CASES, ids=CASE_IDS)
def test_eval_logits_match_pooling_last(peft, d, sizes, low, layers):
    model, peft = model_for(d, layers), peft_for(peft, d)
    batch = G.batch(random_graphs(sizes, 0.4, seed=layers), VOCAB)
    reg = build_eval(model, peft)
    assert (layer0_low_rank(batch, reg, d) is not None) == low
    stats = {n: b.copy() for n, b in reg.buffers.items()}
    new = logits_of(gin_forward, batch, reg, model, peft, "eval").data
    for n, b in reg.buffers.items():  # eval reads the running statistics only
        np.testing.assert_array_equal(b, stats[n], err_msg=n)
    old = logits_of(_oracle_gin_forward, batch, reg, model, peft, "eval").data
    assert new.shape == (len(sizes), model.num_tasks)
    assert_rel_close(new, old, RTOL)


@pytest.mark.parametrize("layers", [1, 3])
@pytest.mark.parametrize("peft", CASES, ids=CASE_IDS)
def test_train_path_is_bit_identical(peft, layers):
    model = model_for(48, layers)
    batch = G.batch(random_graphs([9, 1, 6, 12, 4], 0.4, seed=layers), VOCAB)
    runs = []
    for forward in (gin_forward, _oracle_gin_forward):
        reg = build_eval(model, peft)
        with Tape() as tape:
            logits = logits_of(forward, batch, reg, model, peft, "train",
                               RngStream(11, ("dropout",)))
            w = RngStream(5, ("w",)).normal(size=logits.shape)
            tape.backward(sum_all(mul_elementwise(logits, Tensor(w))))
        runs.append((logits.data, {n: t.grad.copy() for n, t in reg.trainable_tensors()},
                     {n: b.copy() for n, b in reg.buffers.items()}))
    (logits, grads, bufs), (ref_logits, ref_grads, ref_bufs) = runs
    np.testing.assert_array_equal(logits, ref_logits)
    assert grads.keys() == ref_grads.keys()
    for n in grads:
        np.testing.assert_array_equal(grads[n], ref_grads[n], err_msg=n)
    for n in bufs:
        np.testing.assert_array_equal(bufs[n], ref_bufs[n], err_msg=n)


@pytest.mark.parametrize("mode", ["full", "adaptergnn", "adapter_seq", "lora", "ia3"])
@pytest.mark.parametrize("layers", [1, 2])
def test_pooled_eval_logits_gradients(mode, layers):
    model = ModelConfig(emb_dim=5, num_layers=layers, num_tasks=2, vocab=VOCAB)
    peft = PeftConfig(mode=mode, bottleneck=2)
    batch = G.batch(random_graphs([4, 1, 3], 0.5, seed=layers), VOCAB)
    reg = build_eval(model, peft)
    params = [t for _, t in reg.trainable_tensors()]
    w = Tensor(RngStream(5, ("w",)).normal(size=(3, model.num_tasks)))
    assert_grads_close(lambda _: sum_all(mul_elementwise(
        forward_logits(batch, reg, model, peft, "eval"), w)), params, h=1e-6)


def test_batch_refuses_a_graph_without_nodes():
    empty = G.Graph(np.zeros((0, 2), dtype=np.int64), np.zeros((0, 2), dtype=np.int64),
                    np.zeros((0, 2), dtype=np.int64), np.zeros(2, dtype=np.int8))
    with pytest.raises(ValueError, match="graph 1 has no nodes"):
        G.batch(random_graphs([3], 0.5, seed=0) + [empty], VOCAB)


def test_readout_inside_the_last_layer_refuses_train_mode():
    model = model_for(8, 1)
    batch = G.batch(random_graphs([3, 2], 0.5, seed=0), VOCAB)
    reg = build(model, PeftConfig(mode="full"))
    pool = lambda t: segment_mean_pool(t, batch.graph_ids, batch.num_graphs)
    with pytest.raises(ValueError, match="eval mode"):
        gin_node_states(batch, reg, model, PeftConfig(mode="full"), "train",
                        RngStream(1, ("d",)), pool)
    states = gin_node_states(batch, reg, model, PeftConfig(mode="full"), "eval")
    assert states.shape == (batch.num_nodes, model.emb_dim)


# ---------------------------------------------------------------------------
# the tensor ops
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k,n", [(1024, 512), (16, 8), (64, 32)])
def test_one_row_matmul_rounds_as_row_zero_of_two(k, n):
    rng = np.random.default_rng(k)
    rows, w = rng.normal(size=(2, k)), Tensor(rng.normal(size=(k, n)))
    bias, g = Tensor(rng.normal(size=n)), rng.normal(size=(2, n))
    outs, grads = [], []
    for x in (Tensor(rows[:1], requires_grad=True), Tensor(rows, requires_grad=True)):
        with Tape() as tape:
            out = matmul(x, w, bias)
            tape.backward(sum_all(mul_elementwise(out, Tensor(g[:x.shape[0]]))))
        outs.append(out.data[0])
        grads.append(x.grad[0])
    np.testing.assert_array_equal(outs[0], outs[1])
    np.testing.assert_array_equal(grads[0], grads[1])


def test_low_rank_pools_as_its_dense_product():
    rng = np.random.default_rng(3)
    z = rng.integers(0, 3, size=(7, 4)).astype(float)
    s = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    ids = np.array([0, 0, 0, 1, 2, 2, 2])
    pooled = segment_mean_pool(LowRank(z, s), ids, 3)
    assert isinstance(pooled, LowRank)
    assert pooled.factor is s
    assert_rel_close(pooled.dense().data,
                     segment_mean_pool(Tensor(z @ s.data), ids, 3).data, RTOL)
    w = Tensor(rng.normal(size=(3, 5)))
    assert_grads_close(lambda _: sum_all(mul_elementwise(
        segment_mean_pool(LowRank(z, s), ids, 3).dense(), w)), [s])


def test_last_layer_tail_runs_on_graph_rows(monkeypatch):
    import gnnpeft.model as model_mod
    import gnnpeft.peft as peft_mod
    rows = []

    def counting(x, state, mode):
        rows.append(x.shape[0])
        return batchnorm1d(x, state, mode)

    monkeypatch.setattr(model_mod, "batchnorm1d", counting)
    monkeypatch.setattr(peft_mod, "batchnorm1d", counting)
    model, peft = model_for(48, 2), PeftConfig(mode="adaptergnn", bottleneck=7)
    batch = G.batch(random_graphs([9, 1, 6, 12, 4], 0.4, seed=0), VOCAB)
    forward_logits(batch, build(model, peft), model, peft, "eval")
    n, g = batch.num_nodes, batch.num_graphs
    assert rows == [n, n, n, g, g, g]  # backbone, adapter1, adapter2 per layer
