"""Tuning modes: dual-adapter method plus the baseline zoo.

Every mode is realized the same way: ``apply_peft`` inserts any new
parameters into the registry (group ``peft``) and then sets trainable
flags. The forward pass consults the registry by name, so inserted
modules activate without touching backbone code paths.

Modes and their insertions:
  full         — nothing inserted; everything trainable.
  adaptergnn   — per layer two bottleneck adapters (one fed by the layer
                 input, one by the message-passing output), each with its
                 own BN, plus two learnable scalar scalings; backbone MLP
                 biases optionally trainable (default on for this mode).
  adapter_seq  — one adapter per layer consuming the layer output,
                 added residually to it.
  adapter_par  — one adapter per layer consuming the pre-MLP message sum,
                 added to the layer output.
  lora         — per MLP linear, low-rank factors A (normal 0.02 init)
                 and B (zero init) contributing x·A·B to the output;
                 mergeable into W for inference.
  bitfit       — MLP linear biases only.
  ia3          — per MLP linear, a width-n_in rescaling vector (init 1)
                 multiplied into the linear's input.
  prompt_feat  — one d-vector (init 0) added to every node embedding
                 after the encoder; backbone BN affine also trainable.
  prompt_node  — per layer a d-vector (init 0) added into every node's
                 message sum, acting as a fully connected virtual node.
  partial_k    — last k layers plus classifier trainable.

The classifier is trainable in every mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigError, ModelConfig, PeftConfig
from .registry import ParamRegistry
from .rng import RngStream
from .tensor import BatchNormState, Tensor, batchnorm1d, matmul, relu


class ModeError(ValueError):
    """An operation was invoked under the wrong tuning mode."""


@dataclass
class AdapterModule:
    """Bottleneck adapter: down-projection, ReLU, up-projection, own BN."""
    down_w: Tensor
    down_b: Tensor
    up_w: Tensor
    up_b: Tensor
    bn: BatchNormState

    @classmethod
    def from_registry(cls, reg: ParamRegistry, prefix: str) -> "AdapterModule":
        return cls(
            down_w=reg.get(f"{prefix}.down.weight"),
            down_b=reg.get(f"{prefix}.down.bias"),
            up_w=reg.get(f"{prefix}.up.weight"),
            up_b=reg.get(f"{prefix}.up.bias"),
            bn=BatchNormState(reg.get(f"{prefix}.bn.gamma"),
                              reg.get(f"{prefix}.bn.beta"),
                              reg.buffer(f"{prefix}.bn.running_mean"),
                              reg.buffer(f"{prefix}.bn.running_var")))


def adapter_forward(x: Tensor, module: AdapterModule, mode: str) -> Tensor:
    """A(x) = BN(W_up(ReLU(W_down(x)))), the bottleneck transform."""
    h = relu(matmul(x, module.down_w, module.down_b))
    h = matmul(h, module.up_w, module.up_b)
    return batchnorm1d(h, module.bn, mode)


# ---------------------------------------------------------------------------
# insertion helpers
# ---------------------------------------------------------------------------

def _uniform_fan_in(rng: RngStream, n_in: int, n_out: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(n_in)
    return rng.uniform(-bound, bound, size=(n_in, n_out))


def _insert_adapter(reg: ParamRegistry, rng: RngStream, prefix: str,
                    d: int, b: int) -> None:
    reg.add(f"{prefix}.down.weight",
            _uniform_fan_in(rng.child(f"{prefix}.down.weight"), d, b), True, "peft")
    reg.add(f"{prefix}.down.bias", np.zeros(b), True, "peft")
    reg.add(f"{prefix}.up.weight",
            _uniform_fan_in(rng.child(f"{prefix}.up.weight"), b, d), True, "peft")
    reg.add(f"{prefix}.up.bias", np.zeros(d), True, "peft")
    reg.add(f"{prefix}.bn.gamma", np.ones(d), True, "peft")
    reg.add(f"{prefix}.bn.beta", np.zeros(d), True, "peft")
    reg.add_buffer(f"{prefix}.bn.running_mean", np.zeros(d))
    reg.add_buffer(f"{prefix}.bn.running_var", np.ones(d))


def _mlp_linear_dims(model: ModelConfig) -> list[tuple[int, int, int]]:
    """(linear index, n_in, n_out) for the two linears of each layer MLP."""
    d, h = model.emb_dim, model.hidden
    return [(0, d, h), (1, h, d)]


# ---------------------------------------------------------------------------
# mode policies
# ---------------------------------------------------------------------------

def apply_peft(reg: ParamRegistry, model: ModelConfig, peft: PeftConfig,
               seed: int = 0) -> ParamRegistry:
    """Insert mode-specific parameters and set all trainable flags.

    Deterministic per seed. Raises ConfigError for invariant violations
    (adapter bottleneck must stay strictly below the embedding dimension;
    partial_k cannot exceed the layer count).
    """
    mode = peft.mode
    d, L = model.emb_dim, model.num_layers
    rng = RngStream(seed, ("peft", mode))

    if mode == "full":
        reg.set_all_trainable(True)
        return reg

    reg.set_all_trainable(False)
    reg.set_trainable_where(lambda n: n.startswith("classifier."), True)

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
                reg.set_trainable_where(
                    lambda n: ".mlp." in n and n.endswith(".bias"), True)
            if peft.tune_backbone_bn:
                reg.set_trainable_where(
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
        reg.set_trainable_where(lambda n: ".mlp." in n and n.endswith(".bias"), True)
        return reg

    if mode == "ia3":
        for l in range(L):
            for i, n_in, _ in _mlp_linear_dims(model):
                reg.add(f"layer.{l}.mlp.{i}.ia3", np.ones(n_in), True, "peft")
        return reg

    if mode == "prompt_feat":
        reg.add("prompt.feature", np.zeros(d), True, "peft")
        reg.set_trainable_where(
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
            reg.set_trainable_where(lambda n, l=l: n.startswith(f"layer.{l}."), True)
        return reg

    raise ConfigError(f"unknown tuning mode {mode!r}")


def lora_merge(reg: ParamRegistry, peft: PeftConfig) -> ParamRegistry:
    """Fold every low-rank update into its frozen weight: W <- W + A·B.

    Removes the factors afterwards, so inference carries no extra
    parameters; eval-mode outputs are preserved up to float rounding.
    """
    if peft.mode != "lora":
        raise ModeError(f"lora_merge requires lora mode, got {peft.mode!r}")
    factor_names = [n for n in reg.names() if n.endswith(".lora_a")]
    for a_name in factor_names:
        base = a_name[: -len(".lora_a")]
        b_name = base + ".lora_b"
        w = reg.get(base + ".weight")
        w.data += reg.get(a_name).data @ reg.get(b_name).data
        reg.remove(a_name)
        reg.remove(b_name)
    return reg
