"""Tuning modes: dual-adapter method plus the baseline zoo.

Each tuning decision lives once, in this module's mode table:
``backbone_trainable`` says which backbone and classifier parameters
train, ``ADAPTER_SLOTS`` says where each adapter mode's adapters join a
layer, ``MODE_FIELDS`` says which ``PeftConfig`` fields a mode reads,
and ``check_fits`` says which widths and depths a mode accepts.
``apply_peft`` sets the flags and inserts the new parameters (group
``peft``); ``model.layer_forward`` and the FLOP walker in ``analysis``
read the same table. The forward pass consults the registry by name, so
inserted modules activate without touching backbone code paths.

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

from dataclasses import dataclass, fields
from typing import Callable, Optional

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


def adapter_forward(x: Tensor, module: AdapterModule, mode: str,
                    readout: Optional[Callable] = None) -> Tensor:
    """A(x) = BN(W_up(ReLU(W_down(x)))), the bottleneck transform. An
    eval-mode ``readout`` pools the rows right after the ReLU, since the
    up-projection and eval BN after it are affine per row."""
    h = relu(matmul(x, module.down_w, module.down_b), overwrite_input=True)
    if readout is not None:
        h = readout(h)
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
# the tuning-mode table
# ---------------------------------------------------------------------------

# Per adapter mode, the adapters each layer gets: (slot under ``layer.{l}``,
# the input the adapter reads, its scalar scaling or None). The inputs are
# "x" (the layer input), "m" (the message-passing output) and "h"
# (BN(MLP(m))).
ADAPTER_SLOTS = {
    "adaptergnn": (("adapter1", "x", "scale1"), ("adapter2", "m", "scale2")),
    "adapter_par": (("adapter", "m", None),),
    "adapter_seq": (("adapter", "h", None),),
}


# Per mode, the PeftConfig fields besides ``mode`` that change what it
# computes; every other field is ignored under that mode.
MODE_FIELDS = {
    "full": (),
    "adaptergnn": ("bottleneck", "scaling_init", "tune_backbone_bias",
                   "tune_backbone_bn"),
    "adapter_seq": ("bottleneck",),
    "adapter_par": ("bottleneck",),
    "lora": ("lora_rank",),
    "bitfit": (),
    "ia3": (),
    "prompt_feat": (),
    "prompt_node": (),
    "partial_k": ("k",),
}


def canonical_peft(peft: PeftConfig) -> PeftConfig:
    """``peft`` with every field its mode does not read at its default, so
    configs that compute the same thing compare (and fingerprint) equal."""
    read = MODE_FIELDS[peft.mode]
    return PeftConfig(**{f.name: getattr(peft, f.name) for f in fields(peft)
                         if f.name == "mode" or f.name in read})


def backbone_trainable(name: str, peft: PeftConfig, num_layers: int) -> bool:
    """Whether backbone or classifier parameter ``name`` trains under
    ``peft``. Parameters a mode inserts always train."""
    mode = peft.mode
    if mode == "full" or name.startswith("classifier."):
        return True
    if mode == "partial_k":
        return (name.startswith("layer.")
                and int(name.split(".")[1]) >= num_layers - peft.k)
    if ".mlp." in name and name.endswith(".bias"):
        return mode == "bitfit" or peft.bias_tuning
    if name.startswith("layer.") and name.endswith((".bn.gamma", ".bn.beta")):
        return mode == "prompt_feat" or peft.tune_backbone_bn
    return False


def check_fits(model: ModelConfig, peft: PeftConfig) -> None:
    """Raise ConfigError unless ``peft`` applies to ``model``: an adapter
    bottleneck stays strictly below the embedding dimension (0 is the
    identity), and partial_k cannot exceed the layer count."""
    d, b = model.emb_dim, peft.bottleneck
    if peft.mode in ADAPTER_SLOTS and b >= d and b != 0:
        raise ConfigError(
            f"adapter bottleneck {b} must be < emb_dim {d} (or 0 for identity)")
    if peft.mode == "partial_k" and peft.k > model.num_layers:
        raise ConfigError(
            f"partial_k k={peft.k} exceeds num_layers {model.num_layers}")


def apply_peft(reg: ParamRegistry, model: ModelConfig, peft: PeftConfig,
               seed: int = 0) -> ParamRegistry:
    """Set every trainable flag by ``backbone_trainable``, then insert the
    mode's parameters layer by layer.

    Deterministic per seed. Raises ConfigError where ``check_fits`` does.
    """
    check_fits(model, peft)
    mode, d, b = peft.mode, model.emb_dim, peft.bottleneck
    rng = RngStream(seed, ("peft", mode))
    for n in reg.names():
        reg.set_trainable(n, backbone_trainable(n, peft, model.num_layers))
    if mode == "prompt_feat":
        reg.add("prompt.feature", np.zeros(d), True, "peft")
    slots = ADAPTER_SLOTS.get(mode, ())
    for l in range(model.num_layers):
        if b > 0:
            for slot, _, _ in slots:
                _insert_adapter(reg, rng, f"layer.{l}.{slot}", d, b)
        for _, _, scale in slots:
            if scale is not None:
                reg.add(f"layer.{l}.{scale}", np.full(1, peft.scaling_init),
                        True, "peft")
        if mode == "prompt_node":
            reg.add(f"layer.{l}.prompt", np.zeros(d), True, "peft")
        for i, n_in, n_out in _mlp_linear_dims(model):
            name = f"layer.{l}.mlp.{i}"
            if mode == "lora":
                reg.add(f"{name}.lora_a", rng.child(f"{name}.lora_a").normal(
                    0.0, 0.02, size=(n_in, peft.lora_rank)), True, "peft")
                reg.add(f"{name}.lora_b", np.zeros((peft.lora_rank, n_out)),
                        True, "peft")
            elif mode == "ia3":
                reg.add(f"{name}.ia3", np.ones(n_in), True, "peft")
    return reg


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
