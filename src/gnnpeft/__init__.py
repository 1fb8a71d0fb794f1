"""Toy-scale GNN workbench for parameter-efficient fine-tuning:
a dual-adapter tuning mechanism with a zoo of baseline PEFT modes,
an exact-autodiff GIN backbone, edge-prediction pre-training, and an
analysis suite (parameter counting, FLOPs, generalization bounds,
model-/data-size sweeps)."""

from .analysis import (BoundInput, FlopsEstimate, GapReport, ParamCounts,
                       bound, compute_gaps, count_params, estimate_flops,
                       hoeffding_gap, log_hypothesis_size_for, sweep,
                       sweep_csv, sweep_plan)
from .config import (ConfigError, ModelConfig, PeftConfig, TrainConfig,
                     PEFT_MODES, config_fingerprint)
from .graphs import (Dataset, DatasetFormatError, Graph, GraphBatch,
                     SplitSpec, Vocab, batch, cyclomatic_number,
                     generate_synthetic, load_jsonl, save_jsonl, split)
from .model import forward_logits, gin_forward, gin_node_states, init_params
from .peft import AdapterModule, ModeError, adapter_forward, apply_peft, lora_merge
from .registry import (CheckpointFormatError, ParamRegistry, load_checkpoint,
                       save_checkpoint)
from .rng import RngStream
from .tensor import Tape, Tensor
from .training import (Adam, MetricUndefinedError, RunRecord,
                       TrainingDivergedError, evaluate_auc, pretrain_edgepred,
                       roc_auc, train_supervised)

__version__ = "0.1.0"
