#!/usr/bin/env python3
"""Transfer gain: does edge-prediction pre-training help downstream?

For each seed, trains the same architecture twice on the planted task —
once from random init, once from an edge-prediction-pre-trained
backbone — and reports the transfer gain (scratch training error minus
pre-trained training error) plus the epoch-1 loss difference.

The defaults pin the regime where the effect is measurable at toy
scale: a dataset whose wiring correlates with node attributes
(attr_affinity > 0, so edge prediction has something to learn), a
narrow model (d=8), and a small labeled subset. At comfortable widths a
random init catches up within the first epoch and the gain washes out.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from gnnpeft.analysis import compute_gaps
from gnnpeft.config import ModelConfig, PeftConfig, TrainConfig
from gnnpeft.graphs import Dataset, SplitSpec, Vocab, generate_synthetic, split
from gnnpeft.model import init_params
from gnnpeft.peft import apply_peft
from gnnpeft.training import encoder_state, pretrain_edgepred, train_supervised


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--emb", type=int, default=8)
    ap.add_argument("--epochs", type=int, default=1)
    ap.add_argument("--pretrain-epochs", type=int, default=40)
    ap.add_argument("--labeled", type=int, default=70,
                    help="labeled training graphs (rest pre-train only)")
    ap.add_argument("--affinity", type=float, default=0.4)
    ap.add_argument("--seeds", default="0,1,2,3,4")
    args = ap.parse_args()

    vocab = Vocab((3, 2), (2, 2))
    ds = generate_synthetic(300, node_range=(10, 20), edge_prob=0.08,
                            vocab=vocab, n_tasks=3, seed=202,
                            attr_affinity=args.affinity)
    tr, _, te = split(ds, SplitSpec(fractions=(0.7, 0.1, 0.2),
                                    mode="structure"), seed=0)
    labeled = Dataset(tr.graphs[:args.labeled], tr.vocab, tr.num_tasks)
    model = ModelConfig(emb_dim=args.emb, num_layers=2, num_tasks=3,
                        dropout=0.0, vocab=vocab)
    peft = PeftConfig(mode="full")

    pairs = []
    for seed in (int(s) for s in args.seeds.split(",")):
        tcfg = TrainConfig(epochs=args.epochs, batch_size=32, lr=1e-3,
                           seed=seed)
        scratch_reg = init_params(model, seed=seed)
        apply_peft(scratch_reg, model, peft, seed=seed)
        scratch = train_supervised(labeled, te, scratch_reg, model, peft, tcfg,
                                   config_echo={"seed": seed, "init": "scratch"})

        pre_reg, _ = pretrain_edgepred(
            tr, model, TrainConfig(epochs=args.pretrain_epochs, batch_size=32,
                                   lr=1e-2, seed=seed))
        warm_reg = init_params(model, seed=seed)
        warm_reg.load_state(*encoder_state(pre_reg))
        apply_peft(warm_reg, model, peft, seed=seed)
        warm = train_supervised(labeled, te, warm_reg, model, peft, tcfg,
                                config_echo={"seed": seed, "init": "pretrained"})
        pairs.append((scratch, warm))
        print(f"seed {seed}: epoch-1 loss {scratch.train_loss[0]:.4f} (scratch) "
              f"vs {warm.train_loss[0]:.4f} (pre-trained); "
              f"final train err {scratch.final_train_err:.4f} vs "
              f"{warm.final_train_err:.4f}", flush=True)

    report = compute_gaps(run_pairs=pairs)
    print(f"median transfer gain (final train err): {report.tg_median:+.4f}")
    print(f"median epoch-1 loss reduction:          "
          f"{report.tg_epoch1_loss_median:+.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
