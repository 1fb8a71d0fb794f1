"""The tuning-mode table against the three places it replaced.

``_oracle_apply_peft``, the dual-adapter layer with the per-mode branch of
``_oracle_gin_node_states``, and ``_oracle_walk`` / ``_oracle_estimate_flops``
are the earlier, separate encodings of each mode's trainability and adapter
placement, kept verbatim (renamed only; the two registry flag helpers they
called are the test functions ``_set_all_trainable`` and
``_set_trainable_where``). Every case builds both registries from one
backbone and compares their layout, train-mode logits, every gradient and
the FLOP estimates with exact equality.
"""

from typing import Optional

import numpy as np
import pytest

from gnnpeft.analysis import (FLOP_COSTS, FlopsEstimate, _adapter_cost,
                              _FlopWalker, estimate_flops)
from gnnpeft.config import PEFT_MODES, ConfigError, ModelConfig, PeftConfig
from gnnpeft.graphs import GraphBatch, Vocab, batch, generate_synthetic
from gnnpeft.model import (_adapter_out, backbone_layer, classify,
                           edge_embeddings, encode_nodes, gin_node_states,
                           init_params, message_pass)
from gnnpeft.peft import _insert_adapter, _mlp_linear_dims, apply_peft
from gnnpeft.registry import ParamRegistry
from gnnpeft.rng import RngStream
from gnnpeft.tensor import (Tape, Tensor, add, bce_with_logits, dropout,
                            mul_elementwise, relu, segment_mean_pool)

VOCAB = Vocab((3, 2), (2, 2))


# ---------------------------------------------------------------------------
# oracles: each mode decision as it was encoded in three modules
# ---------------------------------------------------------------------------

def _set_all_trainable(reg: ParamRegistry, flag: bool) -> None:
    for name in reg.params:
        reg.set_trainable(name, flag)


def _set_trainable_where(reg: ParamRegistry, predicate, flag: bool) -> int:
    hits = 0
    for name in reg.params:
        if predicate(name):
            reg.set_trainable(name, flag)
            hits += 1
    return hits


def _oracle_apply_peft(reg: ParamRegistry, model: ModelConfig,
                       peft: PeftConfig, seed: int = 0) -> ParamRegistry:
    """Insert mode-specific parameters and set all trainable flags.

    Deterministic per seed. Raises ConfigError for invariant violations
    (adapter bottleneck must stay strictly below the embedding dimension;
    partial_k cannot exceed the layer count).
    """
    mode = peft.mode
    d, L = model.emb_dim, model.num_layers
    rng = RngStream(seed, ("peft", mode))

    if mode == "full":
        _set_all_trainable(reg, True)
        return reg

    _set_all_trainable(reg, False)
    _set_trainable_where(reg, lambda n: n.startswith("classifier."), True)

    if mode in ("adaptergnn", "adapter_seq", "adapter_par"):
        b = peft.bottleneck
        if b >= d and b != 0:
            raise ConfigError(
                f"adapter bottleneck {b} must be < emb_dim {d} (or 0 for identity)")
        for l in range(L):
            if mode == "adaptergnn":
                if b > 0:
                    _insert_adapter(reg, rng, f"layer.{l}.adapter1", d, b)
                    _insert_adapter(reg, rng, f"layer.{l}.adapter2", d, b)
                reg.add(f"layer.{l}.scale1", np.full(1, peft.scaling_init), True, "peft")
                reg.add(f"layer.{l}.scale2", np.full(1, peft.scaling_init), True, "peft")
            elif b > 0:
                _insert_adapter(reg, rng, f"layer.{l}.adapter", d, b)
        if mode == "adaptergnn":
            if peft.bias_tuning:
                _set_trainable_where(reg,
                    lambda n: ".mlp." in n and n.endswith(".bias"), True)
            if peft.tune_backbone_bn:
                _set_trainable_where(reg,
                    lambda n: n.startswith("layer.") and
                    (n.endswith(".bn.gamma") or n.endswith(".bn.beta")) and
                    ".adapter" not in n, True)
        return reg

    if mode == "lora":
        r = peft.lora_rank
        for l in range(L):
            for i, n_in, n_out in _mlp_linear_dims(model):
                a_name = f"layer.{l}.mlp.{i}.lora_a"
                reg.add(a_name,
                        rng.child(a_name).normal(0.0, 0.02, size=(n_in, r)),
                        True, "peft")
                reg.add(f"layer.{l}.mlp.{i}.lora_b", np.zeros((r, n_out)),
                        True, "peft")
        return reg

    if mode == "bitfit":
        _set_trainable_where(reg, lambda n: ".mlp." in n and n.endswith(".bias"), True)
        return reg

    if mode == "ia3":
        for l in range(L):
            for i, n_in, _ in _mlp_linear_dims(model):
                reg.add(f"layer.{l}.mlp.{i}.ia3", np.ones(n_in), True, "peft")
        return reg

    if mode == "prompt_feat":
        reg.add("prompt.feature", np.zeros(d), True, "peft")
        _set_trainable_where(reg,
            lambda n: n.startswith("layer.") and
            (n.endswith(".bn.gamma") or n.endswith(".bn.beta")), True)
        return reg

    if mode == "prompt_node":
        for l in range(L):
            reg.add(f"layer.{l}.prompt", np.zeros(d), True, "peft")
        return reg

    if mode == "partial_k":
        if peft.k > L:
            raise ConfigError(f"partial_k k={peft.k} exceeds num_layers {L}")
        for l in range(L - peft.k, L):
            _set_trainable_where(reg, lambda n, l=l: n.startswith(f"layer.{l}."), True)
        return reg

    raise ConfigError(f"unknown tuning mode {mode!r}")



def _oracle_adaptergnn_layer_forward(x: Tensor, m: Tensor, reg: ParamRegistry,
                                     l: int, peft: PeftConfig,
                                     mode: str) -> Tensor:
    """Dual-adapter combination for layer l:

    h = BN(MLP(m)) + s1·A1(x) + s2·A2(m)

    where x is the layer input, m its message-passing output, A1/A2 the
    layer's two adapters, and s1/s2 the learnable scalar scalings.
    """
    h = backbone_layer(m, reg, l, mode)
    a1 = _adapter_out(x, reg, f"layer.{l}.adapter1", peft.bottleneck, mode)
    a2 = _adapter_out(m, reg, f"layer.{l}.adapter2", peft.bottleneck, mode)
    return add(h, add(mul_elementwise(a1, reg.get(f"layer.{l}.scale1")),
                      mul_elementwise(a2, reg.get(f"layer.{l}.scale2"))))


def _oracle_gin_node_states(batch: GraphBatch, reg: ParamRegistry,
                            config: ModelConfig, peft: PeftConfig, mode: str,
                            rng: Optional[RngStream] = None) -> Tensor:
    """Run all layers and return final per-node states (n×d)."""
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be train|eval, got {mode!r}")
    x = encode_nodes(batch, reg)
    e = edge_embeddings(batch, reg)
    for l in range(config.num_layers):
        m = message_pass(x, batch, e)
        if f"layer.{l}.prompt" in reg:
            m = add(m, reg.get(f"layer.{l}.prompt"))
        if peft.mode == "adaptergnn":
            h = _oracle_adaptergnn_layer_forward(x, m, reg, l, peft, mode)
        else:
            h = backbone_layer(m, reg, l, mode)
            if peft.mode == "adapter_par":
                h = add(h, _adapter_out(m, reg, f"layer.{l}.adapter",
                                        peft.bottleneck, mode))
            elif peft.mode == "adapter_seq":
                h = add(h, _adapter_out(h, reg, f"layer.{l}.adapter",
                                        peft.bottleneck, mode))
        del m  # an eval forward frees each layer's activations as it goes
        if l < config.num_layers - 1:
            x = relu(h)
            del h
            stream = rng.child(f"layer{l}.dropout") if rng is not None else None
            x = dropout(x, config.dropout, stream, mode)
        else:
            x = h
    return x


def _oracle_walk(model: ModelConfig, peft: PeftConfig, batch_size: int,
                 train_phase: bool, avg_nodes: float, avg_edges: float,
                 bias_tuning: bool) -> _FlopWalker:
    d, H, L, T = model.emb_dim, model.hidden, model.num_layers, model.num_tasks
    G = batch_size
    n = int(round(G * avg_nodes))
    m = int(round(G * avg_edges)) * 2 + n  # directed copies + self-loops
    mode = peft.mode
    w = _FlopWalker(train_phase)
    c = FLOP_COSTS

    def layer_w_train(l: int) -> bool:
        if mode == "full":
            return True
        if mode == "partial_k":
            return l >= L - peft.k
        return False

    enc_train = mode == "full"
    x_rg = enc_train
    w.elementwise("encoder.node_emb", n * d, c["emb_fwd"],
                  2 * c["emb_bwd"], enc_train)
    if mode == "prompt_feat":
        x_rg = w.add("encoder.prompt_add", n * d, int(x_rg) + 1)
    e_rg = enc_train
    w.elementwise("encoder.edge_emb", m * d, c["emb_fwd"],
                  2 * c["emb_bwd"], enc_train)

    for l in range(L):
        wt = layer_w_train(l)
        bias_t = wt or mode == "bitfit" or (mode == "adaptergnn" and bias_tuning)
        bn_t = wt or mode == "prompt_feat" or (mode == "adaptergnn"
                                               and peft.tune_backbone_bn)
        m_rg = w.elementwise(f"layer.{l}.mp", m * d, c["mp_fwd"], c["mp_bwd"],
                             x_rg or e_rg)
        if mode == "prompt_node":
            m_rg = w.add(f"layer.{l}.prompt_add", n * d, int(m_rg) + 1)

        h_rg = m_rg
        if mode == "ia3":
            h_rg = w.elementwise(f"layer.{l}.mlp.0.ia3", n * d, c["ia3_fwd"],
                                 c["ia3_bwd_input"] if h_rg else 0, True)
            w._log(f"layer.{l}.mlp.0.ia3_vec_grad", 0,
                   c["ia3_bwd_vec"] * n * d)
        h_rg = w.linear(f"layer.{l}.mlp.0", n, d, H, wt, bias_t, h_rg)
        if mode == "lora":
            r = peft.lora_rank
            w.linear(f"layer.{l}.mlp.0.lora_a", n, d, r, True, False, m_rg,
                     with_bias=False)
            w.linear(f"layer.{l}.mlp.0.lora_b", n, r, H, True, False, True,
                     with_bias=False)
            h_rg = w.add(f"layer.{l}.mlp.0.lora_add", n * H, int(h_rg) + 1)
        h_rg = w.elementwise(f"layer.{l}.mlp.relu", n * H,
                             c["relu_fwd"], c["relu_bwd"], h_rg)
        mid_rg = h_rg
        if mode == "ia3":
            h_rg = w.elementwise(f"layer.{l}.mlp.1.ia3", n * H, c["ia3_fwd"],
                                 c["ia3_bwd_input"] if h_rg else 0, True)
            w._log(f"layer.{l}.mlp.1.ia3_vec_grad", 0,
                   c["ia3_bwd_vec"] * n * H)
        h_rg = w.linear(f"layer.{l}.mlp.1", n, H, d, wt, bias_t, h_rg)
        if mode == "lora":
            r = peft.lora_rank
            w.linear(f"layer.{l}.mlp.1.lora_a", n, H, r, True, False, mid_rg,
                     with_bias=False)
            w.linear(f"layer.{l}.mlp.1.lora_b", n, r, d, True, False, True,
                     with_bias=False)
            h_rg = w.add(f"layer.{l}.mlp.1.lora_add", n * d, int(h_rg) + 1)
        h_rg = w.bn(f"layer.{l}.bn", n * d, bn_t, h_rg)

        if mode == "adaptergnn":
            a1_rg = _adapter_cost(w, f"layer.{l}.adapter1", n, d,
                                  peft.bottleneck, x_rg)
            a2_rg = _adapter_cost(w, f"layer.{l}.adapter2", n, d,
                                  peft.bottleneck, m_rg)
            a1_rg = w.elementwise(f"layer.{l}.scale1", n * d, c["scale_fwd"],
                                  c["scale_bwd_input"] if a1_rg else 0, True)
            w._log(f"layer.{l}.scale1_grad", 0, c["scale_bwd_scalar"] * n * d)
            a2_rg = w.elementwise(f"layer.{l}.scale2", n * d, c["scale_fwd"],
                                  c["scale_bwd_input"] if a2_rg else 0, True)
            w._log(f"layer.{l}.scale2_grad", 0, c["scale_bwd_scalar"] * n * d)
            h_rg = w.add(f"layer.{l}.combine", n * d,
                         int(h_rg) + int(a1_rg) + int(a2_rg))
        elif mode == "adapter_par":
            a_rg = _adapter_cost(w, f"layer.{l}.adapter", n, d,
                                 peft.bottleneck, m_rg)
            h_rg = w.add(f"layer.{l}.combine", n * d, int(h_rg) + int(a_rg))
        elif mode == "adapter_seq":
            a_rg = _adapter_cost(w, f"layer.{l}.adapter", n, d,
                                 peft.bottleneck, h_rg)
            h_rg = w.add(f"layer.{l}.combine", n * d, int(h_rg) + int(a_rg))

        if l < L - 1:
            h_rg = w.elementwise(f"layer.{l}.act", n * d,
                                 c["relu_fwd"], c["relu_bwd"], h_rg)
            if train_phase and model.dropout > 0.0:
                h_rg = w.elementwise(f"layer.{l}.dropout", n * d,
                                     c["dropout_fwd"], c["dropout_bwd"], h_rg)
        x_rg = h_rg

    emb_rg = w.elementwise("readout.mean_pool", n * d,
                           c["pool_fwd"], c["pool_bwd"], x_rg)
    w.linear("classifier", G, d, T, True, True, emb_rg)
    if train_phase:
        w._log("loss", c["loss_fwd"] * G * T, c["loss_bwd"] * G * T)
    return w


def _oracle_estimate_flops(model: ModelConfig, peft: PeftConfig,
                           batch_size: int, phase: str = "train",
                           avg_nodes: float = 12.0,
                           avg_edges: float = 13.0) -> FlopsEstimate:
    """Analytic FLOPs for one batch under the documented cost constants.

    Backward costs follow gradient reachability, as the tape does: a
    weight gradient is charged only for trainable weights, and an input
    gradient only where some trainable parameter sits upstream of that
    input. The per-op costs are conventions, not a count of the tape's
    arithmetic: message passing and embedding lookups are charged per
    gathered edge or node element (``mp_*``, ``emb_*``), while the tape
    computes them with a padded block-diagonal matmul and count-times-table
    matmuls, and the batch's shape is taken from ``avg_nodes`` and
    ``avg_edges``. For the dual-adapter mode the estimate also reports
    both backbone-bias treatments (tuned vs. frozen).
    """
    if phase not in ("train", "infer"):
        raise ValueError(f"phase must be train|infer, got {phase!r}")
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    train_phase = phase == "train"
    w = _oracle_walk(model, peft, batch_size, train_phase, avg_nodes,
                     avg_edges, peft.bias_tuning)
    variants = {}
    if peft.mode == "adaptergnn":
        for label, flag in (("bias_tuned", True), ("bias_frozen", False)):
            v = _oracle_walk(model, peft, batch_size, train_phase,
                             avg_nodes, avg_edges, flag)
            variants[label] = v.fwd + v.bwd
    return FlopsEstimate(total=w.fwd + w.bwd, forward=w.fwd, backward=w.bwd,
                         items=tuple(w.items), constants=dict(FLOP_COSTS),
                         variants=variants)


# ---------------------------------------------------------------------------
# cases: every mode, the dual-adapter flag variants and width-0 adapters
# ---------------------------------------------------------------------------

CASES = [dict(mode=m, bottleneck=3, lora_rank=2) for m in PEFT_MODES] + [
    dict(mode="adaptergnn", bottleneck=3, tune_backbone_bias=False),
    dict(mode="adaptergnn", bottleneck=3, tune_backbone_bn=True),
    dict(mode="adaptergnn", bottleneck=0),
    dict(mode="adapter_seq", bottleneck=0),
]


def _case_id(kw):
    return "-".join(f"{k}={v}" for k, v in kw.items() if k != "lora_rank")


def _model(layers: int) -> ModelConfig:
    return ModelConfig(emb_dim=8, num_layers=layers, num_tasks=2, dropout=0.3,
                       vocab=VOCAB)


def _registries(model: ModelConfig, peft: PeftConfig):
    old, new = init_params(model, seed=3), init_params(model, seed=3)
    _oracle_apply_peft(old, model, peft, seed=4)
    apply_peft(new, model, peft, seed=4)
    return old, new


def _train_step(reg, model, peft, b, node_states):
    """Train-mode logits of one batch; gradients land in ``reg``."""
    rng = RngStream(9, ("train",))
    with Tape() as tape:
        x = node_states(b, reg, model, peft, "train", rng)
        logits = classify(segment_mean_pool(x, b.graph_ids, b.num_graphs), reg)
        tape.backward(bce_with_logits(logits, b.labels, b.label_mask))
    return logits.data


@pytest.mark.parametrize("layers", [1, 3])
@pytest.mark.parametrize("kw", CASES, ids=_case_id)
class TestModeTable:
    def test_registry_layout(self, kw, layers):
        old, new = _registries(_model(layers), PeftConfig(**kw))
        assert old.names() == new.names()
        for (name, p), (_, q) in zip(old.items(), new.items()):
            assert (p.trainable, p.group) == (q.trainable, q.group), name
            assert p.tensor.requires_grad == q.tensor.requires_grad, name
            assert np.array_equal(p.tensor.data, q.tensor.data), name
        assert list(old.buffers) == list(new.buffers)
        assert old.state_hash() == new.state_hash()

    def test_logits_and_gradients(self, kw, layers):
        model, peft = _model(layers), PeftConfig(**kw)
        old, new = _registries(model, peft)
        ds = generate_synthetic(6, (4, 8), 0.4, VOCAB, 2, seed=11)
        b = batch(list(ds.graphs), VOCAB)
        lo = _train_step(old, model, peft, b, _oracle_gin_node_states)
        ln = _train_step(new, model, peft, b, gin_node_states)
        assert np.array_equal(lo, ln)
        assert old.state_hash() == new.state_hash()  # BN running statistics
        for (name, p), (_, q) in zip(old.items(), new.items()):
            if p.trainable:
                assert np.array_equal(p.tensor.grad, q.tensor.grad), name

    @pytest.mark.parametrize("phase", ["train", "infer"])
    def test_flops(self, kw, layers, phase):
        model, peft = _model(layers), PeftConfig(**kw)
        old = _oracle_estimate_flops(model, peft, 4, phase)
        new = estimate_flops(model, peft, 4, phase)
        assert (old.total, old.forward, old.backward) == \
            (new.total, new.forward, new.backward)
        assert old.items == new.items
        assert old.variants == new.variants
