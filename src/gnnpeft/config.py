"""Experiment configuration dataclasses: model, tuning mode, optimization.

These are the deterministic constructor inputs for every run; sweeps vary
their fields. Validation happens at construction so that bad grids fail
before any work starts. These defaults are the only ones: the CLI and the
sweep runners pass just the values a user gave. Every field but ``vocab``
(written ``node_vocab``/``edge_vocab``) is a CLI run key of the same name.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Optional

from .graphs import Vocab

PEFT_MODES = ("full", "adaptergnn", "adapter_seq", "adapter_par", "lora",
              "bitfit", "ia3", "prompt_feat", "prompt_node", "partial_k")


class ConfigError(ValueError):
    """A configuration value violates its declared invariant."""


@dataclass(frozen=True)
class ModelConfig:
    """Backbone architecture description.

    ``mlp_hidden=None`` resolves to twice the embedding dimension, the
    convention every sweep keeps when varying d.
    """
    emb_dim: int = 300
    num_layers: int = 5
    mlp_hidden: Optional[int] = None
    num_tasks: int = 1
    dropout: float = 0.5
    vocab: Vocab = field(default_factory=Vocab)

    def __post_init__(self):
        if self.emb_dim < 1:
            raise ConfigError(f"emb_dim must be >= 1, got {self.emb_dim}")
        if self.num_layers < 1:
            raise ConfigError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.mlp_hidden is not None and self.mlp_hidden < 1:
            raise ConfigError(f"mlp_hidden must be >= 1, got {self.mlp_hidden}")
        if self.num_tasks < 1:
            raise ConfigError(f"num_tasks must be >= 1, got {self.num_tasks}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def hidden(self) -> int:
        return self.mlp_hidden if self.mlp_hidden is not None else 2 * self.emb_dim


@dataclass(frozen=True)
class PeftConfig:
    """Tuning-mode selector plus the mode-relevant hyperparameters.

    ``tune_backbone_bias`` and ``tune_backbone_bn`` belong to the
    dual-adapter mode, the only one that reads them: ``None`` resolves to
    tuning the backbone MLP biases (its recipe), and backbone BN affine
    parameters stay frozen unless ``tune_backbone_bn`` is set. Any other
    mode refuses a set value, so one experiment has one fingerprint.
    """
    mode: str = "full"
    bottleneck: int = 15
    lora_rank: int = 10
    scaling_init: float = 0.01
    tune_backbone_bias: Optional[bool] = None
    tune_backbone_bn: bool = False
    k: int = 1

    def __post_init__(self):
        if self.mode not in PEFT_MODES:
            raise ConfigError(
                f"unknown tuning mode {self.mode!r}; choose from {', '.join(PEFT_MODES)}")
        if self.bottleneck < 0:
            raise ConfigError(f"bottleneck must be >= 0, got {self.bottleneck}")
        if self.lora_rank < 1:
            raise ConfigError(f"lora_rank must be >= 1, got {self.lora_rank}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if not math.isfinite(self.scaling_init):
            raise ConfigError(f"scaling_init must be finite, got {self.scaling_init}")
        if self.mode != "adaptergnn" and (self.tune_backbone_bias is not None
                                          or self.tune_backbone_bn):
            raise ConfigError(
                "tune_backbone_bias and tune_backbone_bn apply only to mode "
                f"adaptergnn, not {self.mode!r}")

    @property
    def bias_tuning(self) -> bool:
        if self.tune_backbone_bias is None:
            return self.mode == "adaptergnn"
        return self.tune_backbone_bias


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    lr: float = 1e-3
    weight_decay: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        for name, value in (("lr", self.lr), ("weight_decay", self.weight_decay)):
            if not 0.0 <= value < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")


def config_fingerprint(cfg: dict) -> str:
    """Short stable hash of a flat config dict.

    Callers pass only what fixes the computation (the CLI echo, a sweep
    task), never output plumbing, so re-running the same experiment into
    a different directory yields the same fingerprint.
    """
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
