"""Bound arithmetic against a high-precision oracle, parameter counting,
the FLOPs hand ledger, sweep plumbing, and gap-report assembly."""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnnpeft.analysis import (BoundInput, FLOP_COSTS, GapReport, PairingError,
                              _run_sweep_task, _task_configs, bound,
                              compute_gaps, count_params,
                              estimate_flops, hoeffding_gap,
                              log_hypothesis_size_for, sweep, sweep_csv,
                              sweep_plan, SWEEP_COLUMNS)
from gnnpeft.config import (ConfigError, ModelConfig, PeftConfig, TrainConfig,
                            config_fingerprint)
from gnnpeft.graphs import SplitSpec, Vocab, generate_synthetic, split
from gnnpeft.model import init_params
from gnnpeft.peft import apply_peft
from gnnpeft.training import RunRecord, encoder_state, pretrain_edgepred

VOCAB = Vocab((2, 2), (2, 2))
GEN = dict(node_range=(6, 12), edge_prob=0.5, vocab=VOCAB)


class TestHoeffdingGap:
    def test_worked_example_exact(self):
        # ln(2/(2e^-2)) = 2, so the margin is sqrt(2/2) = 1
        assert hoeffding_gap(0.0, 1, 2 * math.exp(-2)) == 1.0

    def test_quadrupling_n_halves_gap(self):
        g1 = hoeffding_gap(100.0, 50, 0.05)
        g2 = hoeffding_gap(100.0, 200, 0.05)
        assert g2 == pytest.approx(g1 / 2, rel=1e-15)

    @pytest.mark.parametrize("logh,n,delta", [(-1.0, 1, 0.05), (0.0, 0, 0.05),
                                              (0.0, 1, 0.0), (0.0, 1, 1.0),
                                              (0.0, 1, 2.0)])
    def test_domain_errors(self, logh, n, delta):
        with pytest.raises(ValueError):
            hoeffding_gap(logh, n, delta)

    def test_matches_mpmath_oracle_to_12_digits(self):
        mpmath.mp.dps = 50
        rng = np.random.default_rng(17)
        for _ in range(20):
            logh = float(rng.uniform(0.0, 1e6))
            n = int(rng.integers(1, 10**6))
            delta = float(rng.uniform(1e-6, 0.5))
            ours = hoeffding_gap(logh, n, delta)
            ref = mpmath.sqrt((mpmath.mpf(logh) + mpmath.log(2 / mpmath.mpf(delta)))
                              / (2 * n))
            assert abs(ours - float(ref)) <= 1e-12 * float(ref)

    def test_monotonicity_thousand_pairs(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            logh = float(rng.uniform(0.0, 1e4))
            n = int(rng.integers(1, 10**5))
            delta = float(rng.uniform(1e-5, 0.9))
            base = hoeffding_gap(logh, n, delta)
            assert hoeffding_gap(logh + rng.uniform(0.1, 10), n, delta) > base
            assert hoeffding_gap(logh, n + int(rng.integers(1, 100)), delta) < base
            d2 = delta + (0.999 - delta) * 0.5
            assert hoeffding_gap(logh, n, d2) < base

    def test_bound_adds_train_error(self):
        inp = BoundInput(train_error=0.25, log_hypothesis_size=0.0, n=1,
                         delta=2 * math.exp(-2))
        assert bound(inp) == 1.25

    def test_bound_input_validation(self):
        with pytest.raises(ValueError):
            BoundInput(train_error=1.5, log_hypothesis_size=0.0, n=1, delta=0.1)

    def test_log_hypothesis_proxy(self):
        assert log_hypothesis_size_for(10) == pytest.approx(10 * math.log(2))
        assert log_hypothesis_size_for(0) == 0.0
        with pytest.raises(ValueError):
            log_hypothesis_size_for(-1)


class TestCountParams:
    def test_matches_manual_enumeration(self):
        model = ModelConfig(emb_dim=8, num_layers=2, num_tasks=2, vocab=VOCAB)
        reg = init_params(model, seed=0)
        apply_peft(reg, model, PeftConfig(mode="adaptergnn", bottleneck=3),
                   seed=0)
        counts = count_params(reg)
        total = sum(p.tensor.data.size for _, p in reg.items())
        trainable = sum(p.tensor.data.size for _, p in reg.items()
                        if p.trainable)
        assert counts.total == total
        assert counts.trainable == trainable
        assert counts.fraction == trainable / total
        assert sum(v[0] for v in counts.by_group.values()) == total
        assert sum(v[1] for v in counts.by_group.values()) == trainable
        assert set(counts.by_group) == {"backbone", "peft", "classifier"}

    def test_full_mode_fraction_is_one(self):
        model = ModelConfig(emb_dim=8, num_layers=1, num_tasks=1, vocab=VOCAB)
        reg = init_params(model, seed=0)
        apply_peft(reg, model, PeftConfig(mode="full"), seed=0)
        assert count_params(reg).fraction == 1.0


def ledger_model():
    # d=4, hidden=8, one layer, two tasks; batch of two 3-node/3-edge graphs
    return ModelConfig(emb_dim=4, num_layers=1, num_tasks=2, vocab=VOCAB)


class TestFlops:
    def test_full_train_hand_ledger(self):
        # n = 2*3 = 6 node rows, m = 2*(2*3) + 6 = 18 directed+loop slots
        est = estimate_flops(ledger_model(), PeftConfig(mode="full"),
                             batch_size=2, phase="train", avg_nodes=3,
                             avg_edges=3)
        fwd = (24        # node emb two-table sum: 6*4
               + 72      # edge emb: 18*4
               + 144     # message passing: 2*18*4
               + 432     # mlp.0: 2*6*4*8 + 6*8
               + 48      # relu: 6*8
               + 408     # mlp.1: 2*6*8*4 + 6*4
               + 192     # bn train: 8*6*4
               + 24      # mean pool: 6*4
               + 36      # classifier: 2*2*4*2 + 2*2
               + 20)     # loss: 5*2*2
        bwd = (48        # node emb: two trainable tables
               + 144     # edge emb
               + 72      # message passing: 1*18*4
               + 816     # mlp.0: input 384 + weight 384 + bias 48
               + 48      # relu
               + 792     # mlp.1: 384 + 384 + 24
               + 240     # bn: 10*6*4
               + 24      # pool
               + 68      # classifier: 32 + 32 + 4
               + 12)     # loss: 3*2*2
        assert est.forward == fwd
        assert est.backward == bwd
        assert est.total == fwd + bwd

    def test_adapter_train_hand_ledger(self):
        est = estimate_flops(ledger_model(),
                             PeftConfig(mode="adaptergnn", bottleneck=2),
                             batch_size=2, phase="train", avg_nodes=3,
                             avg_edges=3)
        adapter_fwd = 108 + 12 + 120 + 192   # down, relu, up, bn (b=2)
        fwd = (24 + 72 + 144 + 432 + 48 + 408 + 192
               + 2 * adapter_fwd
               + 24 + 24                      # two scaling mults
               + 24                           # three-way combine add
               + 24 + 36 + 20)
        adapter1_bwd = 108 + 12 + 216 + 240   # input of x frozen: down bwd 108
        bwd = (0 + 0 + 0                      # frozen encoder, no mp grad
               + 48                           # mlp.0: bias only (default on)
               + 48                           # relu (bias made h grad-carrying)
               + 408                          # mlp.1: input 384 + bias 24
               + 240                          # backbone bn (input path)
               + 2 * adapter1_bwd
               + (24 + 48) + (24 + 48)        # scale: input + scalar grads
               + 72                           # combine: three grad inputs
               + 24 + 68 + 12)
        assert est.forward == fwd
        assert est.backward == bwd

    def test_full_infer_hand_ledger(self):
        est = estimate_flops(ledger_model(), PeftConfig(mode="full"),
                             batch_size=2, phase="infer", avg_nodes=3,
                             avg_edges=3)
        fwd = 24 + 72 + 144 + 432 + 48 + 408 + 96 + 24 + 36  # bn eval 4*24
        assert est.forward == fwd
        assert est.backward == 0
        assert est.total == fwd

    def test_linear_in_batch_size(self):
        for mode in ("full", "adaptergnn", "lora"):
            peft = PeftConfig(mode=mode, bottleneck=2)
            one = estimate_flops(ledger_model(), peft, 1, "train",
                                 avg_nodes=4, avg_edges=5)
            three = estimate_flops(ledger_model(), peft, 3, "train",
                                   avg_nodes=4, avg_edges=5)
            assert three.total == 3 * one.total

    def test_additive_over_layers(self):
        def total(layers):
            m = ModelConfig(emb_dim=4, num_layers=layers, num_tasks=2,
                            vocab=VOCAB, dropout=0.5)
            return estimate_flops(m, PeftConfig(mode="full"), 2, "train",
                                  avg_nodes=3, avg_edges=3).total
        # constant per-layer increment once inter-layer act/dropout appears
        assert total(3) - total(2) == total(4) - total(3)

    def test_paper_scale_directional_claims(self):
        model = ModelConfig(emb_dim=300, num_layers=5, num_tasks=1)
        full = PeftConfig(mode="full")
        ada = PeftConfig(mode="adaptergnn", bottleneck=15)
        f_tr = estimate_flops(model, full, 32, "train")
        a_tr = estimate_flops(model, ada, 32, "train")
        f_in = estimate_flops(model, full, 32, "infer")
        a_in = estimate_flops(model, ada, 32, "infer")
        assert a_tr.total < f_tr.total          # adapters skip most grads
        assert a_in.total > f_in.total          # but add inference work
        assert a_tr.variants["bias_frozen"] < a_tr.variants["bias_tuned"]
        assert a_tr.variants["bias_tuned"] == a_tr.total

    def test_constants_reported(self):
        est = estimate_flops(ledger_model(), PeftConfig(mode="full"), 1)
        assert est.constants == FLOP_COSTS
        assert any(label.startswith("layer.0.mlp.0") for label, _ in est.items)

    def test_phase_validation(self):
        with pytest.raises(ValueError):
            estimate_flops(ledger_model(), PeftConfig(mode="full"), 1,
                           phase="predict")
        with pytest.raises(ValueError):
            estimate_flops(ledger_model(), PeftConfig(mode="full"), 0)
        for nodes, edges in ((0.0, 13.0), (-5.0, 13.0), (math.nan, 13.0),
                             (math.inf, 13.0), (12.0, -1.0), (12.0, math.nan),
                             (12.0, math.inf)):
            with pytest.raises(ValueError, match="avg_nodes must be positive"):
                estimate_flops(ledger_model(), PeftConfig(mode="full"), 1,
                               avg_nodes=nodes, avg_edges=edges)


def tiny_dataset(n=60, seed=3, tasks=2):
    # at this size the structure-ordered split keeps both classes in the
    # test slice for every task (the top-cyclomatic slice runs motif-rich)
    return generate_synthetic(n, n_tasks=tasks, seed=seed, **GEN)


def fast_train():
    return TrainConfig(epochs=2, batch_size=8, lr=1e-2, seed=0)


class TestSweep:
    def test_model_size_row_schema_and_determinism(self):
        ds = tiny_dataset()
        model = ModelConfig(emb_dim=8, num_layers=2, num_tasks=2, dropout=0.0,
                            vocab=VOCAB)
        rows1 = sweep("model_size", ds, model=model, train=fast_train(),
                      bottleneck=3, d_grid=(8,), modes=("full",), seeds=(0,))
        rows2 = sweep("model_size", ds, model=model, train=fast_train(),
                      bottleneck=3, d_grid=(8,), modes=("full",), seeds=(0,))
        assert len(rows1) == 1
        row = rows1[0]
        assert set(SWEEP_COLUMNS) <= set(row)
        csv1, csv2 = sweep_csv(rows1), sweep_csv(rows2)
        assert csv1 == csv2  # byte-identical rerun
        assert csv1.splitlines()[0] == ",".join(SWEEP_COLUMNS)

    def test_rows_evaluate_only_the_final_epoch(self):
        ds = tiny_dataset()
        model = ModelConfig(emb_dim=8, num_layers=2, num_tasks=2, dropout=0.0,
                            vocab=VOCAB)
        (row,) = sweep("model_size", ds, model=model, train=fast_train(),
                       d_grid=(8,), modes=("full",), seeds=(0,))
        record = row["record"]
        assert len(record.train_loss) == fast_train().epochs
        assert np.isnan(record.train_auc[:-1]).all()
        assert np.isnan(record.test_auc[:-1]).all()
        assert row["test_auc"] == record.test_auc[-1]
        assert row["train_err"] == 1.0 - record.train_auc[-1]
        assert np.isfinite(row["gap"])

    def test_rows_sorted_by_fingerprint(self):
        ds = tiny_dataset()
        model = ModelConfig(emb_dim=6, num_layers=1, num_tasks=2, dropout=0.0,
                            vocab=VOCAB)
        rows = sweep("model_size", ds, model=model, train=fast_train(),
                     bottleneck=2, d_grid=(6, 8), modes=("full",), seeds=(0,))
        fps = [r["fingerprint"] for r in rows]
        assert fps == sorted(fps)
        assert len(set(fps)) == 2

    def test_data_size_exact_rounding(self):
        ds = tiny_dataset(n=60)
        model = ModelConfig(emb_dim=6, num_layers=1, num_tasks=2, dropout=0.0,
                            vocab=VOCAB)
        rows = sweep("data_size", ds, model=model, train=fast_train(),
                     bottleneck=2, frac_grid=(0.5,), modes=("full",),
                     seeds=(0,))
        # structure split of 60: train 48; half of that is 24
        assert rows[0]["n_train"] == 24

    def test_grid_validation_before_any_run(self):
        ds = tiny_dataset()
        with pytest.raises(ConfigError):
            sweep("model_size", ds, d_grid=(), modes=("full",))
        with pytest.raises(ConfigError):
            sweep("model_size", ds, d_grid=(-4,), modes=("full",))
        with pytest.raises(ConfigError):
            sweep("data_size", ds, frac_grid=(1.5,))
        with pytest.raises(ConfigError):
            sweep("bottleneck", ds,
                  model=ModelConfig(emb_dim=8, vocab=VOCAB), b_grid=(8,))
        with pytest.raises(ConfigError):
            sweep("nonsense", ds, d_grid=(8,))
        # values no task carries are refused, not dropped
        small = dict(model=ModelConfig(emb_dim=6, vocab=VOCAB), d_grid=(6,),
                     modes=("full",))
        for kind, kw, message in (
                ("model_size", dict(init="bogus"), "takes init scratch|pretrained"),
                ("model_size", dict(pretrain_epochs=3), "needs init=pretrained"),
                ("expressivity", dict(d_full_grid=(4,), init="pretrained"),
                 "expressivity sweep takes init scratch, got 'pretrained'"),
                ("model_size", dict(model=ModelConfig(mlp_hidden=3)), "mlp_hidden"),
                ("model_size", dict(train=TrainConfig(weight_decay=0.5)),
                 "weight_decay"),
                ("model_size", dict(jobs=0), "jobs must be >= 1"),
                ("model_size", dict(jobs=-1), "jobs must be >= 1")):
            with pytest.raises(ConfigError, match=message):
                sweep(kind, ds, **{**small, **kw})

    @pytest.mark.parametrize("kind, grid", [
        ("model_size", dict(d_grid=(32, 8), modes=("full", "adaptergnn"))),
        ("data_size", dict(frac_grid=(0.5,), modes=("full", "adapter_seq"))),
        ("bottleneck", dict(b_grid=(2, 8))),
        ("expressivity", dict(d_full_grid=(32,))),
    ])
    def test_plan_refuses_adapter_as_wide_as_model(self, kind, grid):
        # every kind plans an adapter run at emb_dim 8 with bottleneck >= 8
        model = ModelConfig(emb_dim=8, num_layers=2, vocab=VOCAB)
        with pytest.raises(ConfigError, match="must be < emb_dim 8"):
            sweep_plan(kind, model=model, bottleneck=15, **grid)

    # literal row fingerprints of one small scratch sweep per kind: a
    # fingerprint names a run, so how a plan is built must not move it.
    # The sweeps pass bottleneck=2, which only adaptergnn rows read; a full
    # row carries the default b=15, so its name is the one a sweep at the
    # default bottleneck gives it
    ORACLE = {
        "model_size": (dict(d_grid=(6, 8), modes=("full", "adaptergnn")),
                       ["020a3ec3b5ebd7ba", "1e0d0098f67e4ce3", "394255801f8a09b1",
                        "3b2d9e053c8759b9", "51ca99455e86237d", "af16de379b140f9a",
                        "f4ddb613f59b2d6b", "f9d504b0401fb463"]),
        "data_size": (dict(frac_grid=(0.5,), modes=("full", "adaptergnn")),
                      ["136de440b6dd9a46", "7191dac79f319fc8", "a58a5ddc07dd3ac8",
                       "b2b7116b9d83da2c"]),
        "bottleneck": (dict(b_grid=(0, 2)),
                       ["4aab2256b45970c2", "806c767f8185f88a", "cc0e697a4188c0c2",
                        "fc29200587eedc8d"]),
        "expressivity": (dict(d_full_grid=(4, 8)),
                         ["01f9b5ed6278184e", "17e1e052c0fbcfaf", "23e70053f485b8ba",
                          "49f966ec717555c1", "4b257e9abf937fe9", "bd777e281e25cbe3"]),
    }

    @staticmethod
    def assert_rows_regenerate(ds, rows):
        """Each row is rebuilt byte-identically from its task dict alone
        (plus, for a pretrained task, a backbone pre-trained from it)."""
        train_ds, _, test_ds = split(ds, SplitSpec(mode="structure"), seed=0)
        for row in rows:
            task = dict(row["record"].config)
            state = None
            if task["init"] == "pretrained":
                model, _, train = _task_configs(task, train_ds)
                state = encoder_state(pretrain_edgepred(
                    train_ds, model, replace(train, epochs=task["pretrain_epochs"]))[0])
            again = _run_sweep_task(task, train_ds, test_ds, state)
            assert sweep_csv([again]) == sweep_csv([row])

    @pytest.mark.parametrize("kind", sorted(ORACLE))
    def test_fingerprints_and_regeneration(self, kind):
        ds = tiny_dataset()
        grid, fingerprints = self.ORACLE[kind]
        model = ModelConfig(emb_dim=6, num_layers=1, num_tasks=2, dropout=0.0,
                            vocab=VOCAB)
        rows = sweep(kind, ds, model=model, train=fast_train(), bottleneck=2,
                     seeds=(0, 1), **grid)
        assert [r["fingerprint"] for r in rows] == fingerprints
        self.assert_rows_regenerate(ds, rows)

    @pytest.mark.parametrize("kind, grid", [
        ("model_size", dict(d_grid=(8,), modes=("full", "adaptergnn"))),
        ("data_size", dict(frac_grid=(0.5,), modes=("full", "adapter_par"))),
        ("expressivity", dict(d_full_grid=(4,)))])
    def test_unread_bottleneck_does_not_name_the_row(self, kind, grid):
        # a full row reads no bottleneck, so any requested b plans it with
        # the default and one name; an adapter row is named by its b
        model = ModelConfig(emb_dim=8, num_layers=1, num_tasks=2, vocab=VOCAB)
        plans = [sweep_plan(kind, model=model, bottleneck=b, **grid) for b in (3, 5)]
        full = [[t for t in p if t["mode"] == "full"] for p in plans]
        adapters = [[t for t in p if t["mode"] != "full"] for p in plans]
        assert full[0] == full[1] and full[0]
        assert all(t["b"] == PeftConfig.bottleneck for t in full[0])
        assert [t["b"] for t in adapters[0]] == [3] * len(adapters[0])
        assert ({config_fingerprint(t) for t in adapters[0]}
                .isdisjoint(config_fingerprint(t) for t in adapters[1]))

    def test_pretrain_epochs_name_the_row(self):
        ds = tiny_dataset()
        model = ModelConfig(emb_dim=6, num_layers=1, num_tasks=2, dropout=0.0,
                            vocab=VOCAB)
        runs = [sweep("model_size", ds, model=model, train=fast_train(),
                      bottleneck=2, d_grid=(6,), modes=("adaptergnn",),
                      init="pretrained", pretrain_epochs=pe) for pe in (1, 3)]
        assert runs[0][0]["record"].config["pretrain_epochs"] == 1
        assert runs[0][0]["fingerprint"] != runs[1][0]["fingerprint"]
        assert runs[0][0]["record"].train_loss != runs[1][0]["record"].train_loss
        self.assert_rows_regenerate(ds, runs[0] + runs[1])
        # unset, pre-training runs train.epochs, and the row says so
        (row,) = sweep("model_size", ds, model=model, train=fast_train(),
                       bottleneck=2, d_grid=(6,), modes=("adaptergnn",),
                       init="pretrained")
        assert row["record"].config["pretrain_epochs"] == fast_train().epochs

    def test_bottleneck_zero_allowed(self):
        ds = tiny_dataset()
        model = ModelConfig(emb_dim=6, num_layers=1, num_tasks=2, dropout=0.0,
                            vocab=VOCAB)
        rows = sweep("bottleneck", ds, model=model, train=fast_train(),
                     b_grid=(0,), seeds=(0,))
        assert rows[0]["b"] == 0


def record_for(init, d=8, seed=0, train_loss=(0.9, 0.5), train_auc=(0.6, 0.8),
               test_auc=(0.55, 0.7)):
    cfg = {"init": init, "d": d, "seed": seed, "mode": "adaptergnn"}
    return RunRecord(train_loss=list(train_loss), train_auc=list(train_auc),
                     test_auc=list(test_auc),
                     fingerprint=config_fingerprint(cfg), config=cfg)


class TestComputeGaps:
    def test_transfer_gain_arithmetic(self):
        scratch = record_for("scratch", train_auc=(0.6, 0.8),
                             train_loss=(0.9, 0.5))
        pre = record_for("pretrained", train_auc=(0.6, 0.9),
                         train_loss=(0.7, 0.4))
        report = compute_gaps(run_pairs=[(scratch, pre)])
        # (1 - 0.8) - (1 - 0.9) = 0.1 final-error reading
        assert report.tg_median == pytest.approx(0.1)
        # 0.9 - 0.7 epoch-1-loss reading
        assert report.tg_epoch1_loss_median == pytest.approx(0.2)
        assert report.provenance["tg_pairs"] == [
            (scratch.fingerprint, pre.fingerprint)]

    def test_pairing_rejects_mismatched_configs(self):
        with pytest.raises(PairingError):
            compute_gaps(run_pairs=[(record_for("scratch", d=8),
                                     record_for("pretrained", d=16))])

    def test_pairing_rejects_same_init(self):
        with pytest.raises(PairingError):
            compute_gaps(run_pairs=[(record_for("scratch"),
                                     record_for("scratch"))])

    def og_rows(self):
        rows = []
        # seed 0: errs 0.30, 0.20, 0.25 over d = 8, 16, 32
        # seed 1: errs 0.32, 0.22, 0.30
        errs = {(8, 0): 0.30, (16, 0): 0.20, (32, 0): 0.25,
                (8, 1): 0.32, (16, 1): 0.22, (32, 1): 0.30}
        for (d, s), e in errs.items():
            rows.append({"fingerprint": f"f{d}s{s}", "mode": "full", "d": d,
                         "b": 0, "n_train": 100, "seed": s, "train_err": 0.05,
                         "test_err": e, "test_auc": 1 - e, "gap": e - 0.05,
                         "trainable_frac": 1.0, "trainable_count": 100 * d})
        return rows

    def test_overfitting_gain_measured(self):
        report = compute_gaps(sweep_rows=self.og_rows())
        # per-seed: 0.25 - 0.20 = 0.05 and 0.30 - 0.22 = 0.08
        assert report.og_measured == pytest.approx(0.065)
        assert report.og_by_d[16] == pytest.approx(0.21)

    def test_overfitting_gain_theoretical_positive(self):
        # capacity term grows with d while train error is flat, so the
        # theoretical bound is worst at the largest width
        report = compute_gaps(sweep_rows=self.og_rows())
        assert report.og_theoretical > 0

    def test_rows_must_share_mode(self):
        rows = self.og_rows()
        rows[0] = dict(rows[0], mode="bitfit")
        with pytest.raises(PairingError):
            compute_gaps(sweep_rows=rows)

    def test_rows_must_cover_all_widths_per_seed(self):
        rows = self.og_rows()[:-1]  # drop (32, 1)
        with pytest.raises(PairingError):
            compute_gaps(sweep_rows=rows)

    def test_empty_report(self):
        report = compute_gaps()
        assert report.tg_median is None
        assert report.og_measured is None
