"""Backbone: init contract, message passing, forward invariances,
classifier, and the end-to-end gradient check on a tiny model."""

import numpy as np
import pytest

from gnnpeft import graphs as G
from gnnpeft import model as M
from gnnpeft import tensor as T
from gnnpeft.config import ModelConfig, PeftConfig
from gnnpeft.peft import apply_peft
from gnnpeft.rng import RngStream

from gradcheck import assert_grads_close

FULL = PeftConfig(mode="full")


def tiny_cfg(**kw):
    base = dict(emb_dim=6, num_layers=2, num_tasks=2, dropout=0.5,
                vocab=G.Vocab((3, 2), (2, 2)))
    base.update(kw)
    return ModelConfig(**base)


def make_batch(n_graphs=3, seed=0, vocab=G.Vocab((3, 2), (2, 2)), n_tasks=2):
    ds = G.generate_synthetic(n_graphs, (4, 7), 0.4, vocab, n_tasks, seed=seed)
    return G.batch(list(ds.graphs), vocab), ds


def permute_graph(g: G.Graph, perm: np.ndarray) -> G.Graph:
    """Relabel nodes by perm: new id of old node i is perm[i]."""
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.shape[0])
    order = np.argsort(perm[g.edges[:, 0]] * 10_000 + perm[g.edges[:, 1]])
    return G.Graph(g.node_attrs[inv],
                   np.stack([perm[g.edges[:, 0]], perm[g.edges[:, 1]]], axis=1)[order],
                   g.edge_attrs[order], g.labels)


class TestInitParams:
    def test_deterministic_per_seed(self):
        a = M.init_params(tiny_cfg(), seed=5)
        b = M.init_params(tiny_cfg(), seed=5)
        c = M.init_params(tiny_cfg(), seed=6)
        assert a.state_hash() == b.state_hash() != c.state_hash()

    def test_unique_hierarchical_names(self):
        reg = M.init_params(ModelConfig(emb_dim=4, num_layers=3, num_tasks=1))
        names = reg.names()
        assert len(names) == len(set(names))
        assert "layer.2.mlp.0.weight" in names
        assert "encoder.node_emb.0.weight" in names
        assert "classifier.bias" in names

    def test_default_config_closed_form_count(self):
        # d=300, H=600, L=5, T=1, vocabs (8,4)/(4,3):
        #   embeddings (8+4)*300 + (5+4)*300          = 6300
        #   per layer  300*600+600 + 600*300+300 + 600 = 361500
        #   classifier 300+1                           = 301
        reg = M.init_params(ModelConfig(num_tasks=1))
        total = sum(p.tensor.data.size for _, p in reg.items())
        assert total == 6300 + 5 * 361500 + 301 == 1814101

    def test_init_distributions(self):
        reg = M.init_params(ModelConfig(emb_dim=64, num_layers=1, num_tasks=1), seed=1)
        w = reg.get("layer.0.mlp.0.weight").data
        bound = 1.0 / np.sqrt(64)
        assert np.abs(w).max() <= bound and np.abs(w).max() > 0.9 * bound
        assert np.all(reg.get("layer.0.mlp.0.bias").data == 0.0)
        assert np.all(reg.get("layer.0.bn.gamma").data == 1.0)
        e = reg.get("encoder.node_emb.0.weight").data
        assert abs(e.std() - 0.02) < 0.01

    def test_groups(self):
        reg = M.init_params(tiny_cfg())
        assert reg.params["classifier.weight"].group == "classifier"
        assert reg.params["layer.0.mlp.0.weight"].group == "backbone"


class TestMessagePass:
    def test_single_node_self_loop_identity(self):
        g = G.Graph(np.zeros((1, 2), dtype=np.int64),
                    np.zeros((0, 2), dtype=np.int64),
                    np.zeros((0, 2), dtype=np.int64),
                    np.zeros(1, dtype=np.int8))
        b = G.batch([g], G.Vocab((3, 2), (2, 2)))
        x = T.Tensor(np.array([[1.0, 2.0, 3.0]]))
        zero_e = T.Tensor(np.zeros((b.num_nodes, 3)))
        out = M.message_pass(x, b, zero_e)
        np.testing.assert_array_equal(out.data, x.data)

    def test_two_nodes_one_edge_hand_sum(self):
        g = G.Graph(np.zeros((2, 2), dtype=np.int64),
                    np.array([[0, 1]], dtype=np.int64),
                    np.zeros((1, 2), dtype=np.int64),
                    np.zeros(1, dtype=np.int8))
        b = G.batch([g], G.Vocab((3, 2), (2, 2)))
        x = T.Tensor(np.array([[1.0, 10.0], [2.0, 20.0]]))
        out = M.message_pass(x, b, T.Tensor(np.zeros((b.num_nodes, 2))))
        np.testing.assert_array_equal(out.data, [[3.0, 30.0], [3.0, 30.0]])

    def test_permutation_equivariance(self):
        _, ds = make_batch(1, seed=3)
        g = ds.graphs[0]
        rng = np.random.default_rng(0)
        perm = rng.permutation(g.num_nodes)
        gp = permute_graph(g, perm)
        reg = M.init_params(tiny_cfg(), seed=0)
        b1 = G.batch([g], ds.vocab)
        b2 = G.batch([gp], ds.vocab)
        x1 = M.encode_nodes(b1, reg)
        x2 = M.encode_nodes(b2, reg)
        m1 = M.message_pass(x1, b1, M.edge_embeddings(b1, reg))
        m2 = M.message_pass(x2, b2, M.edge_embeddings(b2, reg))
        np.testing.assert_allclose(m2.data[perm], m1.data, atol=1e-12)


class TestGinForward:
    def test_zero_weights_give_zero_embeddings(self):
        cfg = tiny_cfg(num_layers=1, dropout=0.0)
        reg = M.init_params(cfg, seed=0)
        for name, p in reg.items():
            if name.endswith(".weight"):
                p.tensor.data[...] = 0.0
        b, _ = make_batch(3, seed=1)
        out = M.gin_forward(b, reg, cfg, FULL, "train")
        np.testing.assert_array_equal(out.data, np.zeros_like(out.data))

    def test_eval_deterministic_and_batch_independent(self):
        cfg = tiny_cfg()
        reg = M.init_params(cfg, seed=2)
        b_all, ds = make_batch(4, seed=4)
        b_one = G.batch([ds.graphs[0]], ds.vocab)
        full = M.gin_forward(b_all, reg, cfg, FULL, "eval")
        solo = M.gin_forward(b_one, reg, cfg, FULL, "eval")
        np.testing.assert_allclose(solo.data[0], full.data[0], rtol=0, atol=0)

    def test_readout_permutation_invariance(self):
        cfg = tiny_cfg()
        reg = M.init_params(cfg, seed=7)
        _, ds = make_batch(1, seed=8)
        g = ds.graphs[0]
        perm = np.random.default_rng(1).permutation(g.num_nodes)
        e1 = M.gin_forward(G.batch([g], ds.vocab), reg, cfg, FULL, "eval")
        e2 = M.gin_forward(G.batch([permute_graph(g, perm)], ds.vocab),
                           reg, cfg, FULL, "eval")
        assert np.abs(e1.data - e2.data).max() < 1e-9

    def test_graph_order_permutes_outputs(self):
        cfg = tiny_cfg()
        reg = M.init_params(cfg, seed=9)
        _, ds = make_batch(4, seed=10)
        gs = list(ds.graphs)
        e1 = M.gin_forward(G.batch(gs, ds.vocab), reg, cfg, FULL, "eval")
        e2 = M.gin_forward(G.batch(gs[::-1], ds.vocab), reg, cfg, FULL, "eval")
        np.testing.assert_allclose(e2.data, e1.data[::-1], atol=1e-12)

    def test_train_mode_needs_rng_for_dropout(self):
        cfg = tiny_cfg()
        reg = M.init_params(cfg, seed=0)
        b, _ = make_batch(3, seed=0)
        with pytest.raises(ValueError, match="rng"):
            M.gin_forward(b, reg, cfg, FULL, "train", rng=None)

    def test_bad_mode_rejected(self):
        cfg = tiny_cfg()
        reg = M.init_params(cfg, seed=0)
        b, _ = make_batch(2, seed=0)
        with pytest.raises(ValueError, match="train|eval"):
            M.gin_forward(b, reg, cfg, FULL, "predict")


class TestClassify:
    def test_zero_classifier_gives_log2_loss(self):
        cfg = tiny_cfg()
        reg = M.init_params(cfg, seed=0)
        reg.get("classifier.weight").data[...] = 0.0
        reg.get("classifier.bias").data[...] = 0.0
        b, _ = make_batch(3, seed=2)
        emb = M.gin_forward(b, reg, cfg, FULL, "eval")
        logits = M.classify(emb, reg)
        np.testing.assert_array_equal(logits.data, np.zeros_like(logits.data))
        y = np.ones_like(logits.data)
        loss = T.bce_with_logits(logits, y)
        np.testing.assert_allclose(float(loss.data), np.log(2.0), rtol=1e-12)

    def test_identity_1x1(self):
        reg = M.init_params(
            ModelConfig(emb_dim=1, num_layers=1, num_tasks=1,
                        vocab=G.Vocab((2, 2), (2, 2))))
        reg.get("classifier.weight").data[...] = 1.0
        reg.get("classifier.bias").data[...] = 0.0
        emb = T.Tensor(np.array([[0.37], [-1.5]]))
        out = M.classify(emb, reg)
        np.testing.assert_array_equal(out.data, emb.data)


class TestEndToEndGradient:
    def test_full_mode_tiny_model_fd(self):
        cfg = tiny_cfg(dropout=0.5)
        reg = M.init_params(cfg, seed=3)
        b, _ = make_batch(3, seed=5)
        y = np.asarray(b.labels)
        mask = np.asarray(b.label_mask)
        if not mask.any():
            mask = np.ones_like(mask)
        params = [t for _, t in reg.trainable_tensors()]

        def build(ps):
            rng = RngStream(99, ("fd",))
            logits = M.forward_logits(b, reg, cfg, FULL, "train", rng)
            return T.bce_with_logits(logits, y, mask)

        assert_grads_close(build, params, rtol=1e-4, atol=1e-7)

    def test_adaptergnn_mode_tiny_model_fd(self):
        cfg = tiny_cfg(dropout=0.0)
        reg = M.init_params(cfg, seed=4)
        pc = PeftConfig(mode="adaptergnn", bottleneck=3)
        apply_peft(reg, cfg, pc, seed=1)
        b, _ = make_batch(3, seed=6)
        y, mask = np.asarray(b.labels), np.asarray(b.label_mask)
        if not mask.any():
            mask = np.ones_like(mask)
        params = [t for _, t in reg.trainable_tensors()]

        def build(ps):
            logits = M.forward_logits(b, reg, cfg, pc, "train")
            return T.bce_with_logits(logits, y, mask)

        assert_grads_close(build, params, rtol=1e-4, atol=1e-7)
