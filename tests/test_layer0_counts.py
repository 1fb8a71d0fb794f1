"""Layer 0 on code counts: x0 = Z_x·S and m0 = Z_m·S kept factored.

``_oracle_gin_node_states`` is the earlier forward pass, kept verbatim
(renamed only): it builds layer 0's input with ``encode_nodes`` and its
message sum with ``message_pass`` at full width, as every later layer
still does. Each case runs it and ``gin_node_states`` on two registries
built alike and compares logits, every gradient (against the largest
one) and the BN running statistics to 1e-12 relative; where the size rule picks the dense path
the two must agree exactly.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gnnpeft import graphs as G
from gnnpeft.config import PEFT_MODES, ModelConfig, PeftConfig
from gnnpeft.model import (classify, edge_embeddings, encode_nodes,
                           gin_node_states, init_params, layer0_low_rank,
                           layer_forward, message_pass)
from gnnpeft.peft import apply_peft
from gnnpeft.rng import RngStream
from gnnpeft.tensor import (LowRank, Tape, Tensor, add, concat_rows, dropout,
                            matmul, mul_elementwise, relu, segment_mean_pool,
                            sum_all)

from gradcheck import assert_grads_close

VOCAB = G.Vocab((3, 2), (2, 3))
RTOL = 1e-12


def _oracle_gin_node_states(batch, reg, config, peft, mode, rng=None):
    """Run all layers and return final per-node states (n×d)."""
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be train|eval, got {mode!r}")
    x = encode_nodes(batch, reg)
    e = edge_embeddings(batch, reg)
    for l in range(config.num_layers):
        m = message_pass(x, batch, e)
        if f"layer.{l}.prompt" in reg:
            m = add(m, reg.get(f"layer.{l}.prompt"))
        h = layer_forward(x, m, reg, l, peft, mode)
        del m  # an eval forward frees each layer's activations as it goes
        if l < config.num_layers - 1:
            x = relu(h)
            del h
            stream = rng.child(f"layer{l}.dropout") if rng is not None else None
            x = dropout(x, config.dropout, stream, mode)
        else:
            x = h
    return x


def random_graphs(sizes, density, seed):
    rng = np.random.default_rng(seed)
    out = []
    for n in sizes:
        iu, iv = np.triu_indices(n, k=1)
        keep = rng.random(iu.size) < density
        edges = np.stack([iu[keep], iv[keep]], axis=1).astype(np.int64)
        out.append(G.Graph(
            np.stack([rng.integers(0, v, size=n) for v in VOCAB.node], axis=1),
            edges,
            np.stack([rng.integers(0, v, size=edges.shape[0]) for v in VOCAB.edge],
                     axis=1).reshape(-1, 2),
            np.zeros(2, dtype=np.int8)))
    return out


def random_batch(sizes, density, seed, drop):
    graphs = random_graphs(sizes, density, seed)
    drop_edges = None
    if drop:  # the edge-prediction path hides a random subset of edges
        rng = np.random.default_rng(seed + 1)
        drop_edges = {i: rng.random(g.num_edges) < 0.6
                      for i, g in enumerate(graphs) if g.num_edges}
    return G.batch(graphs, VOCAB, drop_edges=drop_edges)


def build(model, peft):
    """Registry with the mode applied; parameters a mode starts at zero
    (prompts, LoRA's B) and the scalings are redrawn so they matter."""
    reg = init_params(model, seed=3)
    apply_peft(reg, model, peft, seed=3)
    for name, p in reg.items():
        if "prompt" in name or name.endswith((".lora_b", ".scale1", ".scale2")):
            draw = RngStream(7, ("perturb", name)).normal(0.0, 0.3, size=p.tensor.shape)
            p.tensor.data[...] = draw
    return reg


def run(states_fn, batch, model, peft, mode):
    """Logits, gradients of a fixed random projection of them, and BN
    running statistics after one forward pass of ``states_fn``."""
    reg = build(model, peft)
    rng = RngStream(11, ("dropout",)) if mode == "train" else None
    with Tape() as tape:
        x = states_fn(batch, reg, model, peft, mode, rng)
        logits = classify(segment_mean_pool(x, batch.graph_ids, batch.num_graphs), reg)
        w = RngStream(5, ("w",)).normal(size=logits.shape)
        if mode == "train":
            tape.backward(sum_all(mul_elementwise(logits, Tensor(w))))
    grads = {n: np.zeros_like(t.data) if t.grad is None else t.grad.copy()
             for n, t in reg.trainable_tensors()}
    return logits.data, grads, {n: b.copy() for n, b in reg.buffers.items()}


def assert_rel_close(actual, expected, rtol, scale=None):
    if scale is None:
        scale = max(float(np.max(np.abs(expected))), 1e-300) if expected.size else 1.0
    err = float(np.max(np.abs(actual - expected))) if actual.size else 0.0
    assert err <= rtol * scale, f"relative error {err / scale:.3g} > {rtol}"


def assert_runs_agree(new, old, exact):
    (logits, grads, bufs), (ref_logits, ref_grads, ref_bufs) = new, old
    if exact:
        np.testing.assert_array_equal(logits, ref_logits)
        assert grads.keys() == ref_grads.keys()
        for n in grads:
            np.testing.assert_array_equal(grads[n], ref_grads[n], err_msg=n)
        for n in bufs:
            np.testing.assert_array_equal(bufs[n], ref_bufs[n], err_msg=n)
        return
    assert_rel_close(logits, ref_logits, RTOL)
    assert grads.keys() == ref_grads.keys()
    # Some gradients are 0 in exact arithmetic (a bias feeding a train-mode
    # BN; a bottleneck whose ReLU passes every row), so what either path
    # computes there is rounding noise of the terms that cancelled. Every
    # gradient is therefore held to the scale of the largest one.
    top = max(float(np.max(np.abs(g))) for g in ref_grads.values())
    for n in grads:
        assert_rel_close(grads[n], ref_grads[n], RTOL, top)
    for n in bufs:
        assert_rel_close(bufs[n], ref_bufs[n], RTOL)


CASES = [PeftConfig(mode=m, bottleneck=7) for m in PEFT_MODES] + [
    PeftConfig(mode="adaptergnn", bottleneck=7, tune_backbone_bias=False),
    PeftConfig(mode="adaptergnn", bottleneck=0),
]


@pytest.mark.parametrize("layers", [1, 3])
@pytest.mark.parametrize("peft", CASES, ids=lambda p: (
    f"{p.mode}-b{p.bottleneck}" + ("-nobias" if p.tune_backbone_bias is False else "")))
def test_every_mode_matches_the_dense_layer0(peft, layers):
    model = ModelConfig(emb_dim=48, num_layers=layers, num_tasks=2,
                        dropout=0.3, vocab=VOCAB)
    batch = random_batch([9, 1, 6, 12, 4], 0.4, seed=layers, drop=False)
    reg = build(model, peft)
    assert layer0_low_rank(batch, reg, model.emb_dim) is not None
    for mode in ("train", "eval"):
        new = run(gin_node_states, batch, model, peft, mode)
        old = run(_oracle_gin_node_states, batch, model, peft, mode)
        assert_runs_agree(new, old, exact=False)


@given(sizes=st.lists(st.integers(1, 9), min_size=1, max_size=6),
       density=st.sampled_from([0.0, 0.3, 1.0]),
       seed=st.integers(0, 2**31 - 1), drop=st.booleans(),
       d=st.sampled_from([4, 16, 48]), mode=st.sampled_from(PEFT_MODES))
@example(sizes=[1, 1], density=0.3, seed=0, drop=False, d=48, mode="prompt_feat")
@example(sizes=[5, 5, 5, 5], density=0.0, seed=1, drop=False, d=48, mode="full")
@example(sizes=[1, 9, 3, 6], density=0.5, seed=2, drop=True, d=48, mode="prompt_node")
@example(sizes=[9, 9], density=1.0, seed=3, drop=True, d=4, mode="adaptergnn")
@settings(max_examples=40, deadline=None)
def test_random_batches_on_both_sides_of_the_rule(sizes, density, seed, drop,
                                                  d, mode):
    if sum(sizes) < 2:
        sizes = sizes + [1]  # train-mode BN needs two rows
    batch = random_batch(sizes, density, seed, drop)
    model = ModelConfig(emb_dim=d, num_layers=2, num_tasks=2, dropout=0.3,
                        vocab=VOCAB)
    peft = PeftConfig(mode=mode, bottleneck=min(3, d - 1))
    reg = build(model, peft)
    r = sum(c.shape[1] for c in batch.node_codes + batch.edge_codes)
    r += ("prompt.feature" in reg) + ("layer.0.prompt" in reg)
    n = batch.num_nodes
    low = layer0_low_rank(batch, reg, d) is not None
    assert low == (r * (n + d) < n * d)
    new = run(gin_node_states, batch, model, peft, "train")
    old = run(_oracle_gin_node_states, batch, model, peft, "train")
    assert_runs_agree(new, old, exact=not low)


@given(sizes=st.lists(st.integers(1, 9), min_size=1, max_size=5),
       density=st.sampled_from([0.0, 0.5, 1.0]),
       seed=st.integers(0, 2**31 - 1), drop=st.booleans())
@settings(max_examples=30, deadline=None)
def test_neighbour_codes_are_adjacency_times_one_hot(sizes, density, seed, drop):
    b = random_batch(sizes, density, seed, drop)
    for onehot, counts in zip(b.node_codes, b.neighbour_codes):
        expected = np.zeros_like(onehot)
        np.add.at(expected, b.edge_dst, onehot[b.edge_src])
        np.testing.assert_array_equal(counts, expected)


def test_layer0_does_not_build_the_padded_stack_for_one_layer():
    model = ModelConfig(emb_dim=48, num_layers=1, num_tasks=2, vocab=VOCAB)
    batch = random_batch([9, 6, 12, 4], 0.4, seed=0, drop=False)
    peft = PeftConfig(mode="full")
    gin_node_states(batch, build(model, peft), model, peft, "eval")
    assert "adjacency" not in batch.__dict__


# ---------------------------------------------------------------------------
# the tensor ops
# ---------------------------------------------------------------------------

def test_concat_rows_gradients():
    rng = np.random.default_rng(0)
    parts = [Tensor(rng.normal(size=(3, 4)), requires_grad=True),
             Tensor(rng.normal(size=4), requires_grad=True),
             Tensor(rng.normal(size=(2, 4))),  # frozen part gets nothing
             Tensor(rng.normal(size=(1, 4)), requires_grad=True)]
    z = rng.normal(size=(5, 7))
    w = Tensor(rng.normal(size=(4, 3)))
    np.testing.assert_array_equal(
        concat_rows(parts).data,
        np.vstack([p.data.reshape(-1, 4) for p in parts]))
    assert_grads_close(
        lambda _: sum_all(mul_elementwise(
            relu(matmul(LowRank(z, concat_rows(parts)), w)), Tensor(z[:, :3]))),
        [parts[0], parts[1], parts[3]])
    assert parts[2].grad is None


def test_concat_rows_rejects_mixed_widths():
    with pytest.raises(ValueError, match="width"):
        concat_rows([Tensor(np.zeros((2, 3))), Tensor(np.zeros(4))])


def test_low_rank_ops_equal_their_dense_products():
    rng = np.random.default_rng(1)
    z = rng.integers(0, 3, size=(6, 4)).astype(float)
    s = Tensor(rng.normal(size=(4, 5)))
    low, dense = LowRank(z, s), Tensor(z @ s.data)
    row, scalar = Tensor(rng.normal(size=5)), Tensor(np.array([0.7]))
    w, bias = Tensor(rng.normal(size=(5, 3))), Tensor(rng.normal(size=3))
    other = Tensor(rng.normal(size=(6, 5)))
    assert low.shape == (6, 5)
    assert_rel_close(matmul(low, w, bias).data, matmul(dense, w, bias).data, RTOL)
    for b in (row, scalar):
        scaled = mul_elementwise(low, b)
        assert isinstance(scaled, LowRank)
        assert_rel_close(scaled.dense().data, mul_elementwise(dense, b).data, RTOL)
    with pytest.raises(ValueError, match="scalar or a row"):
        mul_elementwise(low, other)
    assert_rel_close(add(other, low).data, add(other, dense).data, RTOL)


def test_scalar_mul_backward_matches_the_summed_product():
    rng = np.random.default_rng(2)
    a = Tensor(rng.normal(size=(40, 64)), requires_grad=True)
    s = Tensor(np.array([0.3]), requires_grad=True)
    g = rng.normal(size=(40, 64))
    with Tape() as tape:
        out = mul_elementwise(a, s)
        tape.backward(sum_all(mul_elementwise(out, Tensor(g))))
    old = np.sum(g * a.data)  # the reduction the backward used to form
    assert_rel_close(s.grad, np.asarray([old]), RTOL)
    small = [Tensor(rng.normal(size=(3, 4)), requires_grad=True),
             Tensor(np.array([1.3]), requires_grad=True)]
    assert_grads_close(lambda ps: sum_all(mul_elementwise(
        mul_elementwise(ps[0], ps[1]), Tensor(g[:3, :4]))), small)
