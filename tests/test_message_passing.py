"""Message passing as A·x + Σ_k C_k·E_k: the padded block-diagonal op, its
scatter fallback, and agreement with two independent oracles — the
per-edge gather + scatter-sum formulation kept here, and the dense
per-graph model in ``perfbench/reference.py``."""

import importlib.util
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gnnpeft import graphs as G
from gnnpeft import model as M
from gnnpeft import tensor as T
from gnnpeft.config import ModelConfig, PeftConfig
from gnnpeft.peft import apply_peft
from gnnpeft.registry import ParamRegistry

from gradcheck import assert_grads_close

VOCAB = G.Vocab((3, 2), (2, 3))
MP_RTOL = 1e-12      # the new op only reorders an exact-count sum
LOGIT_RTOL = 1e-9    # perfbench's bound against the dense reference

_REF_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
_spec = importlib.util.spec_from_file_location("perfbench_reference", _REF_PATH)
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)


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
            np.zeros(1, dtype=np.int8)))
    return out


def random_batch(sizes, density, seed, drop):
    graphs = random_graphs(sizes, density, seed)
    drop_edges = None
    if drop:  # the edge-prediction path hides a random subset of edges
        rng = np.random.default_rng(seed + 1)
        drop_edges = {i: rng.random(g.num_edges) < 0.6
                      for i, g in enumerate(graphs) if g.num_edges}
    return G.batch(graphs, VOCAB, drop_edges=drop_edges)


def edge_tables(d, seed):
    """A registry holding only the two edge tables (self-loop row included)."""
    rng = np.random.default_rng(seed)
    reg = ParamRegistry()
    for k, v in enumerate(VOCAB.edge):
        reg.add(f"encoder.edge_emb.{k}.weight", rng.normal(size=(v + 1, d)),
                True, "backbone")
    return reg


def oracle_message_pass(x, b, reg):
    """The per-edge formulation: gather x_src + e_edge, scatter-sum by dst."""
    e = T.add(T.gather_rows(reg.get("encoder.edge_emb.0.weight"), b.edge_attrs[:, 0]),
              T.gather_rows(reg.get("encoder.edge_emb.1.weight"), b.edge_attrs[:, 1]))
    return T.scatter_sum(T.add(T.gather_rows(x, b.edge_src), e), b.edge_dst,
                         x.shape[0])


def new_message_pass(x, b, reg):
    return M.message_pass(x, b, M.edge_embeddings(b, reg))


def padded_path_expected(b, d):
    return b.num_graphs * b.max_nodes ** 2 <= b.num_edges * d


def assert_rel_close(actual, expected, rtol):
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    err = float(np.max(np.abs(actual - expected))) if actual.size else 0.0
    assert err <= rtol * scale, f"relative error {err / scale:.3g} > {rtol}"


def run_with_grads(fn, b, d, seed):
    """Forward + backward of <fn(x, b, tables), w> for a fixed random w."""
    rng = np.random.default_rng(seed)
    x = T.Tensor(rng.normal(size=(b.num_nodes, d)), requires_grad=True)
    reg = edge_tables(d, seed + 1)
    w = T.Tensor(rng.normal(size=(b.num_nodes, d)))
    with T.Tape() as tape:
        out = fn(x, b, reg)
        tape.backward(T.sum_all(T.mul_elementwise(out, w)))
    return out.data, [x.grad] + [t.grad for _, t in reg.trainable_tensors()]


class TestAgainstScatterOracle:
    @given(sizes=st.lists(st.integers(1, 9), min_size=1, max_size=5),
           density=st.sampled_from([0.0, 0.3, 1.0]),
           seed=st.integers(0, 2**31 - 1), drop=st.booleans(),
           d=st.sampled_from([3, 32]))
    @example(sizes=[1], density=0.3, seed=0, drop=False, d=3)
    @example(sizes=[4, 4, 2], density=0.0, seed=1, drop=False, d=32)
    @example(sizes=[1, 9, 3, 6], density=0.5, seed=2, drop=True, d=32)
    @settings(max_examples=40, deadline=None)
    def test_forward_and_backward_agree(self, sizes, density, seed, drop, d):
        b = random_batch(sizes, density, seed, drop)
        out, grads = run_with_grads(new_message_pass, b, d, seed)
        assert ("adjacency" in b.__dict__) == padded_path_expected(b, d)
        ref_out, ref_grads = run_with_grads(oracle_message_pass, b, d, seed)
        assert_rel_close(out, ref_out, MP_RTOL)
        for g, ref in zip(grads, ref_grads):
            assert_rel_close(g, ref, MP_RTOL)

    def test_node_embeddings_match_lookup(self):
        b = random_batch([5, 1, 7], 0.4, 3, False)
        reg = M.init_params(ModelConfig(emb_dim=4, num_layers=1, num_tasks=1,
                                        vocab=VOCAB), seed=0)
        lookup = sum(reg.get(f"encoder.node_emb.{k}.weight").data[b.node_attrs[:, k]]
                     for k in range(2))
        np.testing.assert_array_equal(M.encode_nodes(b, reg).data, lookup)

    def test_one_large_graph_takes_the_fallback(self):
        (g,) = random_graphs([2000], 0.002, 5)
        b = G.batch([g], VOCAB)
        d = 8
        assert not padded_path_expected(b, d)
        out, grads = run_with_grads(new_message_pass, b, d, 6)
        assert "adjacency" not in b.__dict__  # the G·N² stack was never built
        ref_out, ref_grads = run_with_grads(oracle_message_pass, b, d, 6)
        assert_rel_close(out, ref_out, MP_RTOL)
        for got, ref in zip(grads, ref_grads):
            assert_rel_close(got, ref, MP_RTOL)


class TestBlockDiagMatmul:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.sizes = [3, 1, 4]  # padded to 4: rows of the 3- and 1-node blocks pad
        self.ids = np.repeat(np.arange(3), self.sizes)
        self.pos = np.concatenate([np.arange(s) for s in self.sizes])
        self.blocks = rng.normal(size=(3, 4, 4))  # non-symmetric, padding non-zero
        self.dense = np.zeros((8, 8))
        start = 0
        for k, s in enumerate(self.sizes):
            self.dense[start:start + s, start:start + s] = self.blocks[k, :s, :s]
            start += s
        self.x = rng.normal(size=(8, 5))

    def test_forward_is_the_block_diagonal_product(self):
        out = T.block_diag_matmul(self.blocks, T.Tensor(self.x), self.ids, self.pos)
        assert_rel_close(out.data, self.dense @ self.x, MP_RTOL)

    def test_backward_is_the_transposed_product(self):
        x = T.Tensor(self.x, requires_grad=True)
        g = np.random.default_rng(12).normal(size=self.x.shape)
        with T.Tape() as tape:
            out = T.block_diag_matmul(self.blocks, x, self.ids, self.pos)
            tape.backward(T.sum_all(T.mul_elementwise(out, T.Tensor(g))))
        assert_rel_close(x.grad, self.dense.T @ g, MP_RTOL)

    def test_grads_close_with_padding(self):
        x = T.Tensor(self.x, requires_grad=True)
        assert_grads_close(
            lambda ps: T.sum_all(T.relu(T.block_diag_matmul(
                self.blocks, ps[0], self.ids, self.pos))), (x,))

    @pytest.mark.parametrize("shift_ids, shift_pos", [(0, 4), (1, 0)])
    def test_rejects_out_of_stack_positions(self, shift_ids, shift_pos):
        with pytest.raises(IndexError):
            T.block_diag_matmul(self.blocks, T.Tensor(self.x), self.ids + shift_ids,
                                self.pos + shift_pos)


class TestAgainstDenseReference:
    @given(sizes=st.lists(st.integers(1, 11), min_size=1, max_size=6),
           seed=st.integers(0, 2**31 - 1), mode=st.sampled_from(["full", "adaptergnn"]))
    @settings(max_examples=12, deadline=None)
    def test_eval_logits(self, sizes, seed, mode):
        graphs = random_graphs(sizes, 0.4, seed)
        cfg = ModelConfig(emb_dim=12, num_layers=2, num_tasks=2, dropout=0.0,
                          vocab=VOCAB)
        reg = M.init_params(cfg, seed=seed % 97)
        peft = PeftConfig(mode=mode, bottleneck=3)
        apply_peft(reg, cfg, peft, seed=1)
        rng = np.random.default_rng(seed)
        for name, p in reg.items():  # move every scale and BN statistic off its init
            if ".scale" in name:
                p.tensor.data[...] = rng.normal(size=p.tensor.data.shape)
        for name, buf in reg.buffers.items():
            buf[...] = (rng.uniform(0.5, 2.0, size=buf.shape) if name.endswith("var")
                        else rng.normal(size=buf.shape))
        logits = M.forward_logits(G.batch(graphs, VOCAB), reg, cfg, peft, "eval").data
        arrays = {n: p.tensor.data for n, p in reg.items()} | dict(reg.buffers)
        ref = reference.dataset_logits(graphs, arrays, cfg.num_layers, VOCAB.edge, mode)
        assert_rel_close(logits, ref, LOGIT_RTOL)
