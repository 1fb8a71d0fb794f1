"""The optimizer step fused into the backward sweep.

``Tape.backward(loss, on_leaf)`` hands each leaf over once no later rule
adds to its gradient or reads its array, and ``Adam.update`` steps it
there. The tape tests log every rule that runs, with the leaves it routes
to, and check that each leaf is handed over exactly once, after all of
them, holding the gradient a plain sweep leaves. The optimizer tests
check that a step split between ``update`` and ``step`` computes what one
``step`` computes, bit for bit.
"""

import numpy as np
import pytest

from gnnpeft import graphs as G
from gnnpeft import tensor as T
from gnnpeft.config import PEFT_MODES, ModelConfig, PeftConfig, TrainConfig
from gnnpeft.model import forward_logits, init_params
from gnnpeft.peft import apply_peft
from gnnpeft.registry import ParamRegistry
from gnnpeft.rng import RngStream
from gnnpeft.training import ADAM_CHUNK, Adam

from test_lean_tape import GRAPHS, _fan_out_graphs

VOCAB = G.Vocab((4, 2), (2, 2))


class RuleLog:
    """Records, while installed, the leaves each recorded rule routes to,
    every rule that runs, and every ``on_leaf`` call, in one event list."""

    def __init__(self, monkeypatch):
        self.events = []  # ("rule", node index) or ("leaf", tensor)
        self.routes = []  # per recorded node, the leaf tensors it routes to
        original = T._record

        def spy(inputs, out_data, make_backward):
            def logged_make(*routes):
                rule = make_backward(*routes)
                index = len(self.routes)
                self.routes.append([r for r in routes if isinstance(r, T.Tensor)])

                def logged(g):
                    rule(g)
                    self.events.append(("rule", index))
                return logged
            return original(inputs, out_data, logged_make)
        monkeypatch.setattr(T, "_record", spy)

    def on_leaf(self, t):
        self.events.append(("leaf", t))

    def check(self):
        """Each routed leaf is handed over once, after every rule that
        routes to it ran; returns {id(leaf): routing node count}."""
        routed = {id(t): t for leaves in self.routes for t in leaves}
        handed = [t for kind, t in self.events if kind == "leaf"]
        assert sorted(map(id, handed)) == sorted(routed)
        at = {id(t): k for k, (kind, t) in enumerate(self.events) if kind == "leaf"}
        for k, (kind, index) in enumerate(self.events):
            if kind == "rule":
                for t in self.routes[index]:
                    assert k < at[id(t)], (index, t)
        counts = {}
        for leaves in self.routes:
            for t in {id(t) for t in leaves}:
                counts[t] = counts.get(t, 0) + 1
        return counts


def sweep(build, leaves, on_leaf=None):
    with T.Tape() as tape:
        tape.backward(build(leaves), on_leaf=on_leaf)


class TestOnLeaf:
    @pytest.mark.parametrize("name", GRAPHS)
    def test_once_after_every_rule_with_the_complete_gradient(self, name, monkeypatch):
        leaves, build = _fan_out_graphs(np.random.default_rng(3))[name]
        log = RuleLog(monkeypatch)
        seen = {}

        def on_leaf(t):
            log.on_leaf(t)
            seen[id(t)] = t.grad.copy()
        sweep(build, leaves, on_leaf)
        log.check()
        got = [seen[id(t)] for t in leaves]
        for t in leaves:
            t.zero_grad()
        sweep(build, leaves)  # plain
        for t, g in zip(leaves, got):
            assert np.array_equal(t.grad, g)

    def test_a_leaf_whose_routes_got_no_gradient_is_still_handed_over(self, monkeypatch):
        rng = np.random.default_rng(0)
        x = T.Tensor(rng.normal(size=(4, 3)))
        w = T.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        v = T.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        log = RuleLog(monkeypatch)
        with T.Tape() as tape:
            unused = T.matmul(x, w)  # recorded, never reaches the loss
            loss = T.sum_all(T.matmul(x, v))
            tape.backward(loss, on_leaf=log.on_leaf)
        del unused
        log.check()
        assert [t for kind, t in log.events if kind == "leaf"] == [v, w]
        assert w.grad is None  # its rule was skipped

    def test_leaves_of_a_released_tape_are_forgotten(self):
        w = T.Tensor(np.ones((2, 2)), requires_grad=True)
        with T.Tape() as tape:
            T.matmul(T.Tensor(np.ones((3, 2))), w)
            assert [t for t, _ in tape.leaves.values()] == [w]
        assert tape.leaves == {}

    @pytest.mark.parametrize("d", [8, 32])
    @pytest.mark.parametrize("mode", PEFT_MODES)
    def test_model_parameters(self, mode, d, monkeypatch):
        # d=32 takes layer 0's low-rank path, so the edge tables feed both
        # layer 0's stack and layer 1's edge term; d=8 is dense throughout
        ds = G.generate_synthetic(16, node_range=(8, 14), edge_prob=0.5,
                                  vocab=VOCAB, n_tasks=2, seed=5)
        b = G.batch(list(ds.graphs), ds.vocab)
        model = ModelConfig(emb_dim=d, num_layers=2, num_tasks=2, dropout=0.3,
                            vocab=VOCAB)
        peft = PeftConfig(mode=mode, bottleneck=3, lora_rank=2)
        reg = init_params(model, seed=0)
        apply_peft(reg, model, peft, seed=0)
        log = RuleLog(monkeypatch)
        with T.Tape() as tape:
            logits = forward_logits(b, reg, model, peft, "train", RngStream(0, ("t",)))
            tape.backward(T.bce_with_logits(logits, b.labels, b.label_mask),
                          on_leaf=log.on_leaf)
        counts = log.check()
        trainable = {id(t) for _, t in reg.trainable_tensors()}
        assert set(counts) == trainable
        edge = reg.get("encoder.edge_emb.0.weight")
        if id(edge) in trainable:
            assert counts[id(edge)] == (2 if d == 32 else 1)


class TestSplitStepMatchesOneStep:
    SHAPES = {"small": (3, 7), "vector": (5,), "scalar": (1,),
              "two_chunks": (2, ADAM_CHUNK), "ragged": (3, ADAM_CHUNK // 3 + 5)}

    def twins(self, cfg):
        regs = []
        for _ in range(2):
            rng = np.random.default_rng(11)
            reg = ParamRegistry()
            for name, shape in self.SHAPES.items():
                reg.add(name, rng.normal(size=shape), True, "backbone")
            reg.add("frozen", rng.normal(size=(4,)), False, "backbone")
            regs.append((reg, Adam(reg, cfg)))
        return regs

    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_bit_identical(self, weight_decay):
        cfg = TrainConfig(epochs=1, lr=3e-3, weight_decay=weight_decay, seed=0)
        (split_reg, split_opt), (whole_reg, whole_opt) = self.twins(cfg)
        rng = np.random.default_rng(5)
        names = sorted(self.SHAPES)
        for step in range(6):
            missing = set(names[step % 2::3])  # these get no gradient
            for name in names:
                if name not in missing:
                    g = rng.normal(scale=10.0 ** (step - 3), size=self.SHAPES[name])
                    split_reg.get(name).grad = g.copy()
                    whole_reg.get(name).grad = g
            early = rng.permutation(names)[:rng.integers(0, len(names) + 1)]
            for name in early:
                split_opt.update(split_reg.get(name))
                assert split_reg.get(name).grad is None
            split_opt.step()
            whole_opt.step()
            for opt in (split_opt, whole_opt):
                opt.zero_grad()
            for name in names:
                assert np.array_equal(split_reg.get(name).data,
                                      whole_reg.get(name).data), (name, step)
                assert np.array_equal(split_opt.m[name], whole_opt.m[name])
                assert np.array_equal(split_opt.v[name], whole_opt.v[name])
        assert split_opt.t == whole_opt.t == 6

    def test_foreign_frozen_and_repeated_updates_are_ignored(self):
        cfg = TrainConfig(epochs=1, lr=1e-2, seed=0)
        (reg, opt), (twin, twin_opt) = self.twins(cfg)
        foreign = T.Tensor(np.ones(3), requires_grad=True)
        foreign.grad = np.ones(3)
        opt.update(foreign)
        opt.update(reg.get("frozen"))
        assert foreign.grad is not None and np.array_equal(foreign.data, np.ones(3))
        reg.get("small").grad = np.ones((3, 7))
        opt.update(reg.get("small"))
        after = reg.get("small").data.copy()
        reg.get("small").grad = np.ones((3, 7))  # a late gradient is not applied
        opt.update(reg.get("small"))
        opt.step()
        assert np.array_equal(reg.get("small").data, after)
        twin.get("small").grad = np.ones((3, 7))
        twin_opt.step()
        for name in reg.names():
            assert np.array_equal(reg.get(name).data, twin.get(name).data), name
