#!/usr/bin/env python3
"""Compare tuning modes: trainable budget vs downstream quality.

Pre-trains one backbone with edge prediction, then fine-tunes it under
every tuning mode on the same planted task. Prints one line per mode
with the trainable-parameter fraction, final test ROC-AUC, and the
train/test generalization gap.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from gnnpeft.analysis import count_params
from gnnpeft.config import (PEFT_MODES, ConfigError, ModelConfig, PeftConfig,
                            TrainConfig)
from gnnpeft.graphs import SplitSpec, Vocab, generate_synthetic, split
from gnnpeft.model import init_params
from gnnpeft.peft import apply_peft, check_fits
from gnnpeft.training import encoder_state, pretrain_edgepred, train_supervised

FAST_MODES = tuple(m for m in PEFT_MODES if m != "full") + ("full",)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--emb", type=int, default=64)
    ap.add_argument("--epochs", type=int, default=15)
    ap.add_argument("--pretrain-epochs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--modes", default=",".join(FAST_MODES))
    args = ap.parse_args()

    vocab = Vocab((4, 2), (2, 2))
    try:  # a mode that cannot run fails before pre-training
        model = ModelConfig(emb_dim=args.emb, num_layers=2, num_tasks=4,
                            dropout=0.0, vocab=vocab)
        pefts = [PeftConfig(mode=mode) for mode in args.modes.split(",")]
        for peft in pefts:
            check_fits(model, peft)
    except ConfigError as exc:
        sys.exit(f"error: {exc}")
    ds = generate_synthetic(300, node_range=(8, 16), edge_prob=0.55,
                            vocab=vocab, n_tasks=4, seed=101)
    tr, _, te = split(ds, SplitSpec(fractions=(0.7, 0.1, 0.2),
                                    mode="structure"), seed=0)
    pre_reg, losses = pretrain_edgepred(
        tr, model, TrainConfig(epochs=args.pretrain_epochs, batch_size=32,
                               lr=1e-3, seed=args.seed))
    print(f"edge-prediction pre-training loss: "
          f"{losses[0]:.3f} -> {losses[-1]:.3f}")
    backbone = encoder_state(pre_reg)

    tcfg = TrainConfig(epochs=args.epochs, batch_size=32, lr=1e-3,
                       seed=args.seed)
    print(f"{'mode':>12} {'trainable':>10} {'fraction':>9} "
          f"{'test auc':>9} {'gap':>7}")
    for peft in pefts:
        reg = init_params(model, seed=args.seed)
        reg.load_state(*backbone)
        apply_peft(reg, model, peft, seed=args.seed)
        counts = count_params(reg)
        # only the final epoch's AUCs are printed, so only it is evaluated
        rec = train_supervised(tr, te, reg, model, peft, tcfg, eval_every_epoch=False)
        print(f"{peft.mode:>12} {counts.trainable:>10} {counts.fraction:>9.4f} "
              f"{rec.test_auc[-1]:>9.4f} {rec.gap:>7.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
