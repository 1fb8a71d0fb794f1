"""Tuning modes: flag policies, parameter arithmetic, init transparency,
adapter math, and low-rank merging."""

import numpy as np
import pytest

from gnnpeft import graphs as G
from gnnpeft import model as M
from gnnpeft import tensor as T
from gnnpeft.analysis import count_params
from gnnpeft.config import PEFT_MODES, ConfigError, ModelConfig, PeftConfig
from gnnpeft.peft import (AdapterModule, ModeError, adapter_forward,
                          apply_peft, lora_merge)

VOCAB = G.Vocab((3, 2), (2, 2))


def small_cfg(**kw):
    base = dict(emb_dim=8, num_layers=2, num_tasks=2, dropout=0.0, vocab=VOCAB)
    base.update(kw)
    return ModelConfig(**base)


def fresh(mode, seed=0, cfg=None, **peft_kw):
    cfg = cfg or small_cfg()
    reg = M.init_params(cfg, seed=seed)
    pc = PeftConfig(mode=mode, **peft_kw)
    apply_peft(reg, cfg, pc, seed=seed)
    return reg, cfg, pc


def eval_logits(reg, cfg, pc, batch):
    return M.forward_logits(batch, reg, cfg, pc, "eval").data


def batch_for(cfg, n=4, seed=11):
    ds = G.generate_synthetic(n, (4, 7), 0.4, cfg.vocab, cfg.num_tasks, seed=seed)
    return G.batch(list(ds.graphs), cfg.vocab)


class TestFlagPolicies:
    def test_full_everything_trainable(self):
        reg, _, _ = fresh("full")
        assert all(p.trainable for _, p in reg.items())
        assert count_params(reg).fraction == 1.0

    @pytest.mark.parametrize("mode", ["adaptergnn", "adapter_seq", "adapter_par",
                                      "lora", "bitfit", "ia3", "prompt_feat",
                                      "prompt_node"])
    def test_backbone_weight_matrices_frozen(self, mode):
        reg, _, _ = fresh(mode, bottleneck=4)
        for name, p in reg.items():
            if p.group == "backbone" and name.endswith(".weight"):
                assert not p.trainable, name
        assert reg.params["classifier.weight"].trainable
        assert reg.params["classifier.bias"].trainable

    def test_bitfit_trainable_set(self):
        reg, _, _ = fresh("bitfit")
        trainable = {n for n, p in reg.items() if p.trainable}
        expect = {f"layer.{l}.mlp.{i}.bias" for l in range(2) for i in range(2)}
        expect |= {"classifier.weight", "classifier.bias"}
        assert trainable == expect

    def test_bitfit_count_d300(self):
        cfg = ModelConfig(num_tasks=1)
        reg = M.init_params(cfg, seed=0)
        apply_peft(reg, cfg, PeftConfig(mode="bitfit"))
        counts = count_params(reg)
        assert counts.trainable == 5 * (600 + 300) + 301 == 4801

    def test_partial_k_layers_from_output_side(self):
        reg, _, _ = fresh("partial_k", k=1)
        assert reg.params["layer.1.mlp.0.weight"].trainable
        assert reg.params["layer.1.bn.gamma"].trainable
        assert not reg.params["layer.0.mlp.0.weight"].trainable
        assert not reg.params["encoder.node_emb.0.weight"].trainable

    def test_partial_k_too_large_rejected(self):
        cfg = small_cfg()
        reg = M.init_params(cfg)
        with pytest.raises(ConfigError, match="exceeds"):
            apply_peft(reg, cfg, PeftConfig(mode="partial_k", k=3))

    def test_adaptergnn_bias_tuning_default_on(self):
        reg, _, pc = fresh("adaptergnn", bottleneck=3)
        assert pc.bias_tuning
        assert reg.params["layer.0.mlp.0.bias"].trainable
        assert not reg.params["layer.0.mlp.0.weight"].trainable
        assert not reg.params["layer.0.bn.gamma"].trainable  # backbone BN frozen

    def test_adaptergnn_bias_tuning_off(self):
        reg, _, _ = fresh("adaptergnn", bottleneck=3, tune_backbone_bias=False)
        assert not reg.params["layer.0.mlp.0.bias"].trainable

    def test_adaptergnn_bn_flag(self):
        reg, _, _ = fresh("adaptergnn", bottleneck=3, tune_backbone_bn=True)
        assert reg.params["layer.0.bn.gamma"].trainable
        assert reg.params["layer.1.bn.beta"].trainable

    def test_other_modes_do_not_tune_backbone_bias(self):
        for mode in ("lora", "ia3", "prompt_node", "adapter_seq", "adapter_par"):
            reg, _, pc = fresh(mode, bottleneck=4)
            assert not pc.bias_tuning
            assert not reg.params["layer.0.mlp.0.bias"].trainable, mode

    @pytest.mark.parametrize("mode", [m for m in PEFT_MODES if m != "adaptergnn"])
    @pytest.mark.parametrize("flag", [dict(tune_backbone_bias=True),
                                      dict(tune_backbone_bias=False),
                                      dict(tune_backbone_bn=True)])
    def test_adapter_flags_refused_by_other_modes(self, mode, flag):
        with pytest.raises(ConfigError, match="apply only to mode adaptergnn"):
            PeftConfig(mode=mode, **flag)
        PeftConfig(mode=mode, tune_backbone_bias=None, tune_backbone_bn=False)

    def test_prompt_feat_tunes_backbone_bn(self):
        reg, _, _ = fresh("prompt_feat")
        assert reg.params["layer.0.bn.gamma"].trainable
        assert reg.params["layer.1.bn.beta"].trainable
        assert "prompt.feature" in reg
        assert reg.params["prompt.feature"].group == "peft"

    def test_bottleneck_must_stay_below_width(self):
        cfg = small_cfg()
        reg = M.init_params(cfg)
        with pytest.raises(ConfigError, match="bottleneck"):
            apply_peft(reg, cfg, PeftConfig(mode="adaptergnn", bottleneck=8))

    def test_unknown_mode_rejected_at_config(self):
        with pytest.raises(ConfigError, match="unknown tuning mode"):
            PeftConfig(mode="adapters_everywhere")


class TestParamArithmetic:
    def test_adaptergnn_closed_form_b15(self):
        cfg = ModelConfig(num_tasks=1)
        reg = M.init_params(cfg, seed=0)
        apply_peft(reg, cfg, PeftConfig(mode="adaptergnn", bottleneck=15))
        c = count_params(reg)
        d, b, H = 300, 15, 600
        per_adapter = (d * b + b) + (b * d + d) + 2 * d
        per_layer = 2 * per_adapter + 2 + (H + d)  # adapters + scales + mlp biases
        assert c.trainable == 5 * per_layer + 301 == 103961
        assert c.total == 1814101 + 5 * 2 * per_adapter + 10 == 1913261
        assert 0.052 <= c.fraction <= 0.056

    def test_adaptergnn_closed_form_b5(self):
        cfg = ModelConfig(num_tasks=1)
        reg = M.init_params(cfg, seed=0)
        apply_peft(reg, cfg, PeftConfig(mode="adaptergnn", bottleneck=5))
        c = count_params(reg)
        assert 0.015 <= c.fraction <= 0.029

    def test_bottleneck_zero_is_identity_scalars_only(self):
        reg, _, _ = fresh("adaptergnn", bottleneck=0)
        peft_names = [n for n, p in reg.items() if p.group == "peft"]
        assert sorted(peft_names) == [f"layer.{l}.scale{i}"
                                      for l in range(2) for i in (1, 2)]

    def test_capacity_monotone_in_b_r_k(self):
        cfg = small_cfg()

        def trainable(mode, **kw):
            reg = M.init_params(cfg, seed=0)
            apply_peft(reg, cfg, PeftConfig(mode=mode, **kw))
            return count_params(reg).trainable

        bs = [trainable("adaptergnn", bottleneck=b) for b in (0, 2, 4, 6)]
        rs = [trainable("lora", lora_rank=r) for r in (1, 2, 5)]
        ks = [trainable("partial_k", k=k) for k in (1, 2)]
        assert bs == sorted(bs) and len(set(bs)) == len(bs)
        assert rs == sorted(rs) and len(set(rs)) == len(rs)
        assert ks == sorted(ks) and len(set(ks)) == len(ks)


class TestAdapterForward:
    def _module(self, d, b, seed=0):
        rng = np.random.default_rng(seed)
        return AdapterModule(
            down_w=T.Tensor(rng.normal(size=(d, b)) / np.sqrt(d)),
            down_b=T.Tensor(np.zeros(b)),
            up_w=T.Tensor(rng.normal(size=(b, d)) / np.sqrt(b)),
            up_b=T.Tensor(np.zeros(d)),
            bn=T.BatchNormState.fresh(d))

    def test_zero_up_projection_gives_zero(self):
        mod = self._module(5, 2)
        mod.up_w.data[...] = 0.0
        x = T.Tensor(np.random.default_rng(1).normal(size=(6, 5)))
        out = adapter_forward(x, mod, "train")
        np.testing.assert_array_equal(out.data, np.zeros((6, 5)))
        out_eval = adapter_forward(x, mod, "eval")
        np.testing.assert_allclose(out_eval.data, np.zeros((6, 5)), atol=1e-12)

    def test_identity_composition_at_b_equals_d(self):
        d = 4
        mod = self._module(d, d)
        mod.down_w.data[...] = np.eye(d)
        mod.up_w.data[...] = np.eye(d)
        x = np.abs(np.random.default_rng(2).normal(size=(5, d))) + 0.1
        out = adapter_forward(T.Tensor(x), mod, "eval")  # running stats are (0, 1)
        np.testing.assert_allclose(out.data, x / np.sqrt(1.0 + 1e-5), rtol=1e-12)
        assert np.abs(out.data - x).max() < 1e-4 * np.abs(x).max()

    def test_width_mismatch_raises(self):
        mod = self._module(5, 2)
        with pytest.raises(T.ShapeMismatchError):
            adapter_forward(T.Tensor(np.ones((3, 4))), mod, "eval")


class TestInitTransparency:
    def test_adaptergnn_zero_scaling_matches_backbone_bitwise(self):
        cfg = small_cfg()
        batch = batch_for(cfg)
        base_reg = M.init_params(cfg, seed=21)
        base = eval_logits(base_reg, cfg, PeftConfig(mode="full"), batch)
        reg, _, pc = fresh("adaptergnn", seed=21, bottleneck=3, scaling_init=0.0)
        got = eval_logits(reg, cfg, pc, batch)
        assert got.tobytes() == base.tobytes()

    def test_adaptergnn_small_scaling_triangle_bound(self):
        cfg = small_cfg()
        batch = batch_for(cfg)
        base_reg = M.init_params(cfg, seed=22)
        base = eval_logits(base_reg, cfg, PeftConfig(mode="full"), batch)
        reg, _, pc = fresh("adaptergnn", seed=22, bottleneck=3, scaling_init=0.01)
        got = eval_logits(reg, cfg, pc, batch)
        # per-layer deviation ≤ s·(|A1|∞+|A2|∞); compounding through the last
        # layer only (earlier layers feed through ReLU/MLP). Bound the final
        # embeddings instead: compare per-layer h against backbone h.
        x_base = M.gin_node_states(batch, base_reg, cfg, PeftConfig(mode="full"), "eval")
        x_ada = M.gin_node_states(batch, reg, cfg, pc, "eval")
        assert np.abs(got - base).max() < 1.0  # sanity: still close overall
        assert not np.array_equal(got, base)   # but not identical at s=0.01

    def test_lora_zero_b_matches_backbone_bitwise(self):
        cfg = small_cfg()
        batch = batch_for(cfg)
        base = eval_logits(M.init_params(cfg, seed=23), cfg,
                           PeftConfig(mode="full"), batch)
        reg, _, pc = fresh("lora", seed=23, lora_rank=3)
        got = eval_logits(reg, cfg, pc, batch)
        assert got.tobytes() == base.tobytes()

    def test_ia3_ones_matches_backbone_bitwise(self):
        cfg = small_cfg()
        batch = batch_for(cfg)
        base = eval_logits(M.init_params(cfg, seed=24), cfg,
                           PeftConfig(mode="full"), batch)
        reg, _, pc = fresh("ia3", seed=24)
        got = eval_logits(reg, cfg, pc, batch)
        assert got.tobytes() == base.tobytes()

    def test_prompt_zero_matches_backbone_bitwise(self):
        cfg = small_cfg()
        batch = batch_for(cfg)
        for mode in ("prompt_feat", "prompt_node"):
            base = eval_logits(M.init_params(cfg, seed=25), cfg,
                               PeftConfig(mode="full"), batch)
            reg, _, pc = fresh(mode, seed=25)
            got = eval_logits(reg, cfg, pc, batch)
            assert got.tobytes() == base.tobytes(), mode


class TestLoraMerge:
    def test_zero_b_merge_keeps_weights_bitwise(self):
        reg, cfg, pc = fresh("lora", seed=30, lora_rank=2)
        before = reg.get("layer.0.mlp.0.weight").data.copy()
        lora_merge(reg, pc)
        assert reg.get("layer.0.mlp.0.weight").data.tobytes() == before.tobytes()

    def test_merge_preserves_eval_logits(self):
        reg, cfg, pc = fresh("lora", seed=31, lora_rank=3)
        batch = batch_for(cfg)
        rng = np.random.default_rng(7)
        for name in reg.names():
            if name.endswith(".lora_a") or name.endswith(".lora_b"):
                t = reg.get(name)
                t.data[...] = rng.normal(0, 0.05, size=t.data.shape)
        before = eval_logits(reg, cfg, pc, batch)
        lora_merge(reg, pc)
        after = eval_logits(reg, cfg, pc, batch)
        assert np.abs(after - before).max() < 1e-9

    def test_merge_removes_all_peft_params(self):
        reg, cfg, pc = fresh("lora", seed=32, lora_rank=2)
        lora_merge(reg, pc)
        assert not [n for n, p in reg.items() if p.group == "peft"]

    def test_merge_rejected_outside_lora_mode(self):
        reg, cfg, pc = fresh("bitfit", seed=33)
        with pytest.raises(ModeError):
            lora_merge(reg, pc)
