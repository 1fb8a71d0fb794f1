"""Acceptance gate: one test per release criterion, run in order.

Every test prints exactly one ``[PASS]``/``[FAIL]`` line (with its
runtime) even under pytest's output capture, so a plain ``pytest
tests/test_acceptance.py`` run ends with a 12-line scoreboard. The three
qualitative-trend criteria (capacity U-shape, adapter gap advantage,
positive transfer gain) train real models on pinned synthetic datasets
and take a few minutes each; everything else is near-instant.
"""

import math
import pathlib
import subprocess
import sys
import time

import mpmath
import numpy as np
import pytest

from gnnpeft import tensor as T
from gnnpeft.analysis import (compute_gaps, count_params, estimate_flops,
                              hoeffding_gap, sweep)
from gnnpeft.config import PEFT_MODES, ModelConfig, PeftConfig, TrainConfig
from gnnpeft.graphs import (Dataset, SplitSpec, Vocab, batch,
                            generate_synthetic, split)
from gnnpeft.model import (backbone_layer, edge_embeddings, encode_nodes,
                           forward_logits, gin_node_states, init_params,
                           layer_forward, message_pass)
from gnnpeft.peft import AdapterModule, adapter_forward, apply_peft, lora_merge
from gnnpeft.rng import RngStream
from gnnpeft.training import (MetricUndefinedError, encoder_state,
                              pretrain_edgepred, roc_auc, train_supervised)

from child_env import child_env
from gradcheck import assert_grads_close

V22 = Vocab((2, 2), (2, 2))


def _run(capsys, num: int, label: str, body, limit_s=None) -> None:
    """Execute one criterion body, print its scoreboard line, re-raise."""
    t0 = time.monotonic()
    try:
        detail = body() or ""
        dt = time.monotonic() - t0
        if limit_s is not None and dt > limit_s:
            raise AssertionError(
                f"runtime {dt:.1f}s exceeds the {limit_s:.0f}s limit")
    except BaseException as exc:
        dt = time.monotonic() - t0
        with capsys.disabled():
            print(f"[FAIL] criterion {num:2d}: {label} -- "
                  f"{type(exc).__name__}: {exc} ({dt:.1f}s)")
        raise
    with capsys.disabled():
        sep = f" -- {detail}" if detail else ""
        print(f"[PASS] criterion {num:2d}: {label}{sep} ({dt:.1f}s)")


def _tiny_batch(seed: int, n_graphs: int = 4):
    ds = generate_synthetic(n_graphs, node_range=(4, 7), edge_prob=0.5,
                            vocab=V22, n_tasks=2, seed=seed)
    b = batch(list(ds.graphs), ds.vocab)
    y = np.asarray(b.labels, dtype=np.float64)
    mask = np.asarray(b.label_mask, dtype=bool)
    if not mask.any():
        mask = np.ones_like(mask)
    return b, y, mask


# ---------------------------------------------------------------------------
# 1. gradient correctness: every differentiable op + the end-to-end tiny
#    model pass central finite differences (rel err < 1e-4), 100 trials
# ---------------------------------------------------------------------------

def _signed_away_from_zero(rng, shape):
    # keeps |x| >= 0.2 so the FD step never crosses the ReLU kink
    return rng.uniform(0.2, 1.0, shape) * rng.choice([-1.0, 1.0], shape)


def _op_trials():
    """(label, make) pairs; make(rng) returns (build, params)."""

    def t(data, rng=None):
        return T.Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)

    def mk_matmul(rng):
        a, b = t(rng.normal(size=(3, 4))), t(rng.normal(size=(4, 2)))
        return lambda ps: T.sum_all(T.matmul(a, b)), [a, b]

    def mk_add(rng):
        x, y, bias = (t(rng.normal(size=(4, 5))), t(rng.normal(size=(4, 5))),
                      t(rng.normal(size=5)))
        return lambda ps: T.sum_all(T.add(T.add(x, y), bias)), [x, y, bias]

    def mk_mul_scalar(rng):
        x = t(rng.normal(size=(4, 3)))
        return lambda ps: T.sum_all(T.mul_scalar(x, -1.7)), [x]

    def mk_mul_elementwise(rng):
        x, y, s = (t(rng.normal(size=(4, 3))), t(rng.normal(size=(4, 3))),
                   t(rng.normal(size=1)))
        return (lambda ps: T.sum_all(T.mul_elementwise(T.mul_elementwise(x, y), s)),
                [x, y, s])

    def mk_relu(rng):
        x = t(_signed_away_from_zero(rng, (5, 4)))
        return lambda ps: T.sum_all(T.relu(x)), [x]

    def mk_sigmoid(rng):
        x = t(rng.normal(size=(4, 3)))
        return lambda ps: T.sum_all(T.sigmoid(x)), [x]

    def mk_dropout(rng):
        x = t(rng.normal(size=(6, 4)))

        def build(ps):
            stream = RngStream(77, ("fd-drop",))  # same mask every call
            return T.sum_all(T.dropout(x, 0.4, stream, "train"))
        return build, [x]

    def mk_row_dot(rng):
        a, b = t(rng.normal(size=(5, 3))), t(rng.normal(size=(5, 3)))
        return lambda ps: T.sum_all(T.row_dot(a, b)), [a, b]

    def mk_sum_all(rng):
        x = t(rng.normal(size=(3, 5)))
        return lambda ps: T.sum_all(x), [x]

    def mk_gather(rng):
        table = t(rng.normal(size=(6, 3)))
        idx = np.array([0, 2, 2, 5, 1])
        return lambda ps: T.sum_all(T.gather_rows(table, idx)), [table]

    def mk_scatter(rng):
        v = t(rng.normal(size=(6, 3)))
        ids = np.array([0, 0, 1, 3, 3, 1])  # segments 2 and 4 stay empty
        return lambda ps: T.sum_all(T.scatter_sum(v, ids, 5)), [v]

    def mk_pool(rng):
        x = t(rng.normal(size=(7, 3)))
        ids = np.array([0, 0, 0, 1, 1, 2, 2])
        return lambda ps: T.sum_all(T.segment_mean_pool(x, ids, 3)), [x]

    def mk_bce(rng):
        pred = t(rng.normal(size=(5, 2)))
        y = rng.integers(0, 2, (5, 2)).astype(np.float64)
        mask = rng.random((5, 2)) < 0.8
        mask[0, 0] = True
        return lambda ps: T.bce_with_logits(pred, y, mask), [pred]

    def mk_bn_train(rng):
        x = t(rng.normal(size=(6, 4)))
        gamma = t(rng.uniform(0.5, 1.5, 4))
        beta = t(rng.normal(0.0, 0.3, 4))
        state = T.BatchNormState(gamma, beta, np.zeros(4), np.ones(4))
        return (lambda ps: T.sum_all(T.batchnorm1d(x, state, "train")),
                [x, gamma, beta])

    def mk_bn_eval(rng):
        x = t(rng.normal(size=(6, 4)))
        gamma = t(rng.uniform(0.5, 1.5, 4))
        beta = t(rng.normal(0.0, 0.3, 4))
        state = T.BatchNormState(gamma, beta, rng.normal(0.0, 0.5, 4),
                                 rng.uniform(0.5, 2.0, 4))
        return (lambda ps: T.sum_all(T.batchnorm1d(x, state, "eval")),
                [x, gamma, beta])

    return [
        ("matmul", mk_matmul), ("add", mk_add), ("mul_scalar", mk_mul_scalar),
        ("mul_elementwise", mk_mul_elementwise), ("relu", mk_relu),
        ("sigmoid", mk_sigmoid), ("dropout", mk_dropout),
        ("row_dot", mk_row_dot), ("sum_all", mk_sum_all),
        ("gather_rows", mk_gather), ("scatter_sum", mk_scatter),
        ("segment_mean_pool", mk_pool), ("bce_with_logits", mk_bce),
        ("batchnorm_train", mk_bn_train), ("batchnorm_eval", mk_bn_eval),
    ]


def test_c01_gradient_correctness(capsys):
    def body():
        trials = 0
        for oi, (label, make) in enumerate(_op_trials()):
            for seed in range(6):
                build, params = make(np.random.default_rng(1000 + 31 * oi + seed))
                assert_grads_close(build, params, rtol=1e-4, atol=1e-7)
                trials += 1
        for seed in range(10):
            mode = "full" if seed % 2 == 0 else "adaptergnn"
            cfg = ModelConfig(emb_dim=6, num_layers=2, num_tasks=2,
                              dropout=0.5 if mode == "full" else 0.0,
                              vocab=V22)
            reg = init_params(cfg, seed=seed)
            pc = PeftConfig(mode=mode, bottleneck=2)
            apply_peft(reg, cfg, pc, seed=seed + 100)
            b, y, mask = _tiny_batch(200 + seed)
            params = [t for _, t in reg.trainable_tensors()]

            def build(ps, b=b, y=y, mask=mask, reg=reg, cfg=cfg, pc=pc, s=seed):
                rng = RngStream(300 + s, ("fd",))
                return T.bce_with_logits(
                    forward_logits(b, reg, cfg, pc, "train", rng), y, mask)

            # smaller FD step: the deep composite has many ReLU kinks, and
            # a straddling step injects O(h) error unrelated to the tape
            assert_grads_close(build, params, rtol=1e-4, atol=1e-7, h=1e-6)
            trials += 1
        assert trials == 100, trials
        return "15 ops x 6 seeds + 10 end-to-end models, 100 FD trials"

    _run(capsys, 1, "finite-difference gradients (rel err < 1e-4)", body,
         limit_s=60)


# ---------------------------------------------------------------------------
# 2. freeze invariance: five optimizer epochs leave every frozen tensor
#    bitwise untouched, in each of the ten tuning modes
# ---------------------------------------------------------------------------

def test_c02_freeze_invariance(capsys):
    def body():
        ds = generate_synthetic(60, node_range=(6, 12), edge_prob=0.5,
                                vocab=V22, n_tasks=2, seed=3)
        tr, _, te = split(ds, SplitSpec(), seed=0)
        model = ModelConfig(emb_dim=12, num_layers=2, num_tasks=2,
                            dropout=0.0, vocab=V22)
        checked = 0
        for mode in PEFT_MODES:
            peft = PeftConfig(mode=mode, bottleneck=3, lora_rank=4, k=1)
            reg = init_params(model, seed=1)
            apply_peft(reg, model, peft, seed=2)
            frozen = {n: p.tensor.data.copy() for n, p in reg.items()
                      if not p.trainable}
            assert mode == "full" or frozen, f"{mode}: nothing is frozen"
            train_supervised(tr, te, reg, model, peft,
                             TrainConfig(epochs=5, batch_size=16, lr=1e-2,
                                         seed=0))
            for name, before in frozen.items():
                after = reg.get(name).data
                assert after.tobytes() == before.tobytes(), \
                    f"{mode}: frozen tensor {name} changed"
                checked += 1
        return f"10 modes x 5 epochs, {checked} frozen tensors bit-identical"

    _run(capsys, 2, "frozen tensors bitwise unchanged by training", body,
         limit_s=120)


# ---------------------------------------------------------------------------
# 3. init transparency: zero scalings reproduce the plain backbone
#    bitwise; at the default 0.01 init the per-layer deviation obeys the
#    triangle inequality |h_ad - h_bb| <= |s1||A1(x)| + |s2||A2(m)|
# ---------------------------------------------------------------------------

def test_c03_init_transparency(capsys):
    def body():
        model = ModelConfig(emb_dim=8, num_layers=2, num_tasks=2,
                            dropout=0.0, vocab=V22)
        b, _, _ = _tiny_batch(11, n_graphs=5)

        zeroed = PeftConfig(mode="adaptergnn", bottleneck=3, scaling_init=0.0)
        reg_a = init_params(model, seed=5)
        apply_peft(reg_a, model, zeroed, seed=6)
        reg_b = init_params(model, seed=5)  # same backbone, no insertions
        la = forward_logits(b, reg_a, model, zeroed, "eval").data
        lb = forward_logits(b, reg_b, model, PeftConfig(mode="full"),
                            "eval").data
        assert la.tobytes() == lb.tobytes(), "s=0 output differs from backbone"

        peft = PeftConfig(mode="adaptergnn", bottleneck=3)  # s0 = 0.01
        reg = init_params(model, seed=5)
        apply_peft(reg, model, peft, seed=6)
        x = encode_nodes(b, reg)
        e = edge_embeddings(b, reg)
        worst = 0.0
        for l in range(model.num_layers):
            m = message_pass(x, b, e)
            h_bb = backbone_layer(m, reg, l, "eval").data
            a1 = adapter_forward(
                x, AdapterModule.from_registry(reg, f"layer.{l}.adapter1"),
                "eval").data
            a2 = adapter_forward(
                m, AdapterModule.from_registry(reg, f"layer.{l}.adapter2"),
                "eval").data
            h_ad = layer_forward(x, m, reg, l, peft, "eval")
            s1 = abs(float(reg.get(f"layer.{l}.scale1").data[0]))
            s2 = abs(float(reg.get(f"layer.{l}.scale2").data[0]))
            dev = np.abs(h_ad.data - h_bb)
            ceiling = s1 * np.abs(a1) + s2 * np.abs(a2) + 1e-12
            assert np.all(dev <= ceiling), \
                f"layer {l}: deviation exceeds the runtime triangle bound"
            worst = max(worst, float(dev.max()))
            x = T.relu(h_ad) if l < model.num_layers - 1 else h_ad
        ref = gin_node_states(b, reg, model, peft, "eval")
        assert x.data.tobytes() == ref.data.tobytes(), "layer replay drifted"
        return f"s=0 bitwise; s0=0.01 worst per-layer deviation {worst:.2e}"

    _run(capsys, 3, "zeroed scalings reproduce the backbone", body)


# ---------------------------------------------------------------------------
# 4. low-rank merge: folding A.B into W preserves eval logits to 1e-9
# ---------------------------------------------------------------------------

def test_c04_lora_merge(capsys):
    def body():
        worst = 0.0
        for seed in range(5):
            model = ModelConfig(emb_dim=10, num_layers=2, num_tasks=2,
                                dropout=0.0, vocab=V22)
            peft = PeftConfig(mode="lora", lora_rank=3)
            reg = init_params(model, seed=seed)
            apply_peft(reg, model, peft, seed=seed + 50)
            rng = np.random.default_rng(900 + seed)
            for name in reg.names():  # give both factors nonzero weight
                if name.endswith(".lora_a") or name.endswith(".lora_b"):
                    t = reg.get(name)
                    t.data[...] = rng.normal(0.0, 0.3, t.data.shape)
            b, _, _ = _tiny_batch(400 + seed, n_graphs=5)
            pre = forward_logits(b, reg, model, peft, "eval").data.copy()
            lora_merge(reg, peft)
            assert not any(n.endswith((".lora_a", ".lora_b"))
                           for n in reg.names())
            post = forward_logits(b, reg, model, peft, "eval").data
            worst = max(worst, float(np.abs(pre - post).max()))
        assert worst <= 1e-9, worst
        return f"5 random models, worst logit drift {worst:.1e}"

    _run(capsys, 4, "merged low-rank factors preserve eval logits", body)


# ---------------------------------------------------------------------------
# 5. parameter ratios at d=300, H=600, L=5, T=1: closed-form counts are
#    exact and the dual-adapter trainable fractions land in the brackets
#    [4.0%, 6.7%] for b=15 and [1.5%, 2.9%] for b=5
# ---------------------------------------------------------------------------

def test_c05_parameter_ratios(capsys):
    def body():
        model = ModelConfig()  # d=300, H=2d=600, L=5, T=1, vocab (8,4)/(4,3)
        d, H, L, Tn = 300, 600, 5, 1
        node_tab = (8 + 4) * d
        edge_tab = ((4 + 1) + (3 + 1)) * d  # +1 row each: self-loop code
        per_layer = (d * H + H) + (H * d + d) + 2 * d
        backbone = node_tab + edge_tab + L * per_layer
        classifier = d * Tn + Tn

        def adapters(bk):
            # two per layer (down, up, BN affine) plus two scalar scalings
            return L * (2 * ((d * bk + bk) + (bk * d + d) + 2 * d) + 2)

        fractions = {}
        for bk, lo, hi in ((15, 0.040, 0.067), (5, 0.015, 0.029)):
            reg = init_params(model, seed=0)
            apply_peft(reg, model, PeftConfig(mode="adaptergnn", bottleneck=bk),
                       seed=0)
            counts = count_params(reg)
            assert counts.total == backbone + classifier + adapters(bk)
            # trainable: adapters + classifier + backbone MLP biases
            assert counts.trainable == adapters(bk) + classifier + L * (H + d)
            assert lo <= counts.fraction <= hi, \
                f"b={bk}: fraction {counts.fraction:.4%} outside [{lo:.1%}, {hi:.1%}]"
            fractions[bk] = counts.fraction
        return (f"b=15: {fractions[15]:.4%} in [4.0%, 6.7%]; "
                f"b=5: {fractions[5]:.4%} in [1.5%, 2.9%]")

    _run(capsys, 5, "exact parameter counts and trainable fractions", body)


# ---------------------------------------------------------------------------
# 6. bound calculator: 12-digit agreement with a 50-digit arbitrary-
#    precision oracle on 20 random inputs, monotonicity on 1000 pairs
# ---------------------------------------------------------------------------

def test_c06_bound_calculator(capsys):
    def body():
        mpmath.mp.dps = 50
        rng = np.random.default_rng(2024)
        for _ in range(20):
            logh = float(rng.uniform(0.0, 1e6))
            n = int(rng.integers(1, 10**6))
            delta = float(rng.uniform(1e-6, 0.5))
            ours = hoeffding_gap(logh, n, delta)
            ref = mpmath.sqrt(
                (mpmath.mpf(logh) + mpmath.log(2 / mpmath.mpf(delta)))
                / (2 * n))
            assert abs(ours - float(ref)) <= 1e-12 * float(ref)
        rng = np.random.default_rng(2025)
        for _ in range(1000):
            logh = float(rng.uniform(0.0, 1e4))
            n = int(rng.integers(1, 10**5))
            delta = float(rng.uniform(1e-5, 0.9))
            base = hoeffding_gap(logh, n, delta)
            assert hoeffding_gap(logh + float(rng.uniform(0.1, 10)), n,
                                 delta) > base
            assert hoeffding_gap(logh, n + int(rng.integers(1, 100)),
                                 delta) < base
            assert hoeffding_gap(logh, n, delta + (0.999 - delta) * 0.5) < base
        return "20 oracle inputs to 12 digits, 1000 monotone pairs"

    _run(capsys, 6, "margin matches the arbitrary-precision oracle", body)


# ---------------------------------------------------------------------------
# 7. ROC-AUC equals the O(n^2) pair-counting oracle exactly on 100
#    random instances, including ties and masked labels
# ---------------------------------------------------------------------------

def _pairwise_auc(s, y, m):
    per_task = []
    for t in range(s.shape[1]):
        sel = m[:, t]
        st, yt = s[sel, t], y[sel, t]
        pos, neg = st[yt == 1], st[yt == 0]
        if len(pos) == 0 or len(neg) == 0:
            continue
        wins = 0.0
        for a in pos:
            for bb in neg:
                wins += 1.0 if a > bb else (0.5 if a == bb else 0.0)
        per_task.append(wins / (len(pos) * len(neg)))
    return float(np.mean(per_task)) if per_task else None


def test_c07_roc_auc_oracle(capsys):
    def body():
        rng = np.random.default_rng(4242)
        undefined = 0
        for i in range(100):
            g = int(rng.integers(4, 40))
            t = int(rng.integers(1, 4))
            if i % 2 == 0:  # coarse grid forces plenty of ties
                scores = rng.integers(0, 4, (g, t)) / 2.0
            else:
                scores = np.round(rng.normal(size=(g, t)), 3)
            labels = rng.integers(0, 2, (g, t))
            mask = rng.random((g, t)) < 0.85
            oracle = _pairwise_auc(scores, labels, mask)
            if t == 1 and i % 10 == 0:  # exercise the 1-D entry point too
                args = (scores[:, 0], labels[:, 0], mask[:, 0])
            else:
                args = (scores, labels, mask)
            try:
                ours = roc_auc(*args)
            except MetricUndefinedError:
                assert oracle is None, "library undefined where oracle is not"
                undefined += 1
                continue
            assert ours == oracle, f"instance {i}: {ours!r} != {oracle!r}"
        assert undefined < 20  # the comparison must mostly be non-vacuous
        return f"100 instances exact ({undefined} correctly undefined)"

    _run(capsys, 7, "metric equals the pair-counting oracle exactly", body)


# ---------------------------------------------------------------------------
# pinned datasets for the qualitative-trend criteria
# ---------------------------------------------------------------------------

VOCAB_TREND = Vocab((4, 2), (2, 2))


def _trend_dataset():
    # dense planted-motif graphs; the structure-ordered split makes the
    # test slice distribution-shifted so capacity can genuinely overfit
    return generate_synthetic(300, node_range=(8, 16), edge_prob=0.55,
                              vocab=VOCAB_TREND, n_tasks=4, seed=101)


TREND_SPLIT = SplitSpec(fractions=(0.7, 0.1, 0.2), mode="structure")


# ---------------------------------------------------------------------------
# 8. capacity U-shape: from-scratch test error over d in {16..512} has
#    an interior minimum (median over 5 seeds)
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_c08_capacity_u_shape(capsys):
    def body():
        widths = (16, 32, 64, 128, 256, 512)
        rows = sweep("model_size", _trend_dataset(),
                     model=ModelConfig(num_layers=2, dropout=0.0,
                                       num_tasks=4, vocab=VOCAB_TREND),
                     train=TrainConfig(epochs=10, batch_size=32, lr=1e-3),
                     d_grid=widths, modes=("full",), init="scratch",
                     seeds=(0, 1, 2, 3, 4), split_spec=TREND_SPLIT)
        med = {d: float(np.median([r["test_err"] for r in rows
                                   if r["d"] == d])) for d in widths}
        best = min(widths, key=lambda d: med[d])
        curve = ", ".join(f"{d}:{med[d]:.3f}" for d in widths)
        assert best not in (widths[0], widths[-1]), \
            f"minimum sits at the boundary d={best} ({curve})"
        return f"median test error by width {{{curve}}}, argmin d={best}"

    _run(capsys, 8, "model-size sweep has an interior error minimum", body,
         limit_s=1800)


# ---------------------------------------------------------------------------
# 9. at the largest swept width, the dual-adapter mode generalizes with
#    a smaller median train-test gap than full fine-tuning (5 seeds,
#    both fine-tuned from the same edge-prediction backbones)
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_c09_adapter_gap_advantage(capsys):
    def body():
        rows = sweep("model_size", _trend_dataset(),
                     model=ModelConfig(num_layers=2, dropout=0.0,
                                       num_tasks=4, vocab=VOCAB_TREND),
                     train=TrainConfig(epochs=25, batch_size=32, lr=1e-3),
                     d_grid=(512,), modes=("full", "adaptergnn"),
                     init="pretrained", pretrain_epochs=5,
                     seeds=(0, 1, 2, 3, 4), split_spec=TREND_SPLIT)
        med = {m: float(np.median([r["gap"] for r in rows if r["mode"] == m]))
               for m in ("full", "adaptergnn")}
        assert med["adaptergnn"] < med["full"], med
        return (f"median gap at d=512: adapters {med['adaptergnn']:.4f} "
                f"< full {med['full']:.4f}")

    _run(capsys, 9, "dual adapters shrink the generalization gap", body,
         limit_s=1800)


# ---------------------------------------------------------------------------
# 10. positive transfer gain: edge-prediction pre-training lowers the
#     epoch-1 downstream training loss vs. a random init (median over
#     5 seeds, narrow model + small labeled set so features matter)
# ---------------------------------------------------------------------------

def test_c10_transfer_gain_positive(capsys):
    def body():
        vocab = Vocab((3, 2), (2, 2))
        ds = generate_synthetic(300, node_range=(10, 20), edge_prob=0.08,
                                vocab=vocab, n_tasks=3, seed=202,
                                attr_affinity=0.4)
        tr, _, te = split(ds, TREND_SPLIT, seed=0)
        labeled = Dataset(tr.graphs[:70], tr.vocab, tr.num_tasks)
        model = ModelConfig(emb_dim=8, num_layers=2, num_tasks=3,
                            dropout=0.0, vocab=vocab)
        peft = PeftConfig(mode="full")
        pairs = []
        for seed in range(5):
            down_cfg = TrainConfig(epochs=1, batch_size=32, lr=1e-3, seed=seed)
            reg_s = init_params(model, seed=seed)
            apply_peft(reg_s, model, peft, seed=seed)
            rec_s = train_supervised(labeled, te, reg_s, model, peft, down_cfg,
                                     config_echo={"seed": seed,
                                                  "init": "scratch"})
            pre_reg, _ = pretrain_edgepred(
                tr, model, TrainConfig(epochs=40, batch_size=32, lr=1e-2,
                                       seed=seed))
            reg_p = init_params(model, seed=seed)
            reg_p.load_state(*encoder_state(pre_reg))
            apply_peft(reg_p, model, peft, seed=seed)
            rec_p = train_supervised(labeled, te, reg_p, model, peft, down_cfg,
                                     config_echo={"seed": seed,
                                                  "init": "pretrained"})
            pairs.append((rec_s, rec_p))
        report = compute_gaps(run_pairs=pairs)
        tg = report.tg_epoch1_loss_median
        vals = ", ".join(f"{v:+.4f}" for v in report.tg_epoch1_loss_values)
        assert tg > 0.0, f"median epoch-1 loss drop {tg:+.4f} [{vals}]"
        return f"median epoch-1 loss drop {tg:+.4f} over seeds [{vals}]"

    _run(capsys, 10, "pre-trained init lowers early training loss", body,
         limit_s=1800)


# ---------------------------------------------------------------------------
# 11. FLOPs estimator: exact agreement with a hand-computed ledger on a
#     pinned config, plus the directional claims at production scale
#     (adapters cost extra at inference, save at training)
# ---------------------------------------------------------------------------

def test_c11_flops_estimator(capsys):
    def body():
        # d=4, H=8, L=1, T=2; two 3-node/3-edge graphs:
        # n = 6 node rows, m = 2*(2*3) + 6 = 18 edge slots
        pinned = ModelConfig(emb_dim=4, num_layers=1, num_tasks=2, vocab=V22)
        est = estimate_flops(pinned, PeftConfig(mode="full"), batch_size=2,
                             phase="train", avg_nodes=3, avg_edges=3)
        fwd = (24        # node embeddings: 6*4
               + 72      # edge embeddings: 18*4
               + 144     # message passing: 2*18*4
               + 432     # mlp.0: 2*6*4*8 + 6*8
               + 48      # relu: 6*8
               + 408     # mlp.1: 2*6*8*4 + 6*4
               + 192     # train-mode BN: 8*6*4
               + 24      # mean pool: 6*4
               + 36      # classifier: 2*2*4*2 + 2*2
               + 20)     # loss: 5*2*2
        bwd = (48        # node tables
               + 144     # edge tables
               + 72      # message passing: 18*4
               + 816     # mlp.0: input 384 + weight 384 + bias 48
               + 48      # relu
               + 792     # mlp.1: 384 + 384 + 24
               + 240     # BN: 10*6*4
               + 24      # pool
               + 68      # classifier: 32 + 32 + 4
               + 12)     # loss: 3*2*2
        assert est.forward == fwd and est.backward == bwd
        assert est.total == fwd + bwd
        infer = estimate_flops(pinned, PeftConfig(mode="full"), batch_size=2,
                               phase="infer", avg_nodes=3, avg_edges=3)
        assert infer.forward == fwd - 20 - 96  # no loss; eval BN 4*24 cheaper
        assert infer.backward == 0

        scale = ModelConfig()  # d=300, L=5, T=1
        full, ada = PeftConfig(mode="full"), PeftConfig(mode="adaptergnn",
                                                        bottleneck=15)
        f_tr = estimate_flops(scale, full, 32, "train").total
        a_tr = estimate_flops(scale, ada, 32, "train").total
        f_in = estimate_flops(scale, full, 32, "infer").total
        a_in = estimate_flops(scale, ada, 32, "infer").total
        assert a_tr < f_tr, (a_tr, f_tr)
        assert a_in > f_in, (a_in, f_in)
        return (f"pinned ledger exact; at d=300 train {a_tr/f_tr:.2f}x full, "
                f"infer {a_in/f_in:.2f}x full")

    _run(capsys, 11, "hand ledger exact and scaling directions hold", body)


# ---------------------------------------------------------------------------
# 12. determinism: re-running a command with the same fingerprint
#     reproduces byte-identical CSV outputs
# ---------------------------------------------------------------------------

def _cli(args, cwd):
    proc = subprocess.run([sys.executable, "-m", "gnnpeft", *args],
                          capture_output=True, text=True, cwd=cwd,
                          env=child_env())
    assert proc.returncode == 0, f"{args}: {proc.stderr}"
    return proc


def _only_child(root: pathlib.Path) -> pathlib.Path:
    children = list(root.iterdir())
    assert len(children) == 1, children
    return children[0]


def test_c12_cli_determinism(capsys, tmp_path):
    def body():
        data = tmp_path / "data.jsonl"
        _cli(["gen-data", "--out", str(data), "--n", "60", "--nodes", "6,12",
              "--edge-prob", "0.5", "--node-vocab", "2,2",
              "--edge-vocab", "2,2", "--tasks", "2", "--seed", "3"], tmp_path)

        sweep_args = ["sweep", "--kind", "model_size", "--data", str(data),
                      "emb=6,8", "mode=full", "seed=0", "epochs=2",
                      "batch_size=8", "lr=0.01", "layers=1", "dropout=0.0",
                      "node_vocab=2,2", "edge_vocab=2,2"]
        _cli(sweep_args + ["--out", str(tmp_path / "s1")], tmp_path)
        _cli(sweep_args + ["--out", str(tmp_path / "s2")], tmp_path)
        d1, d2 = _only_child(tmp_path / "s1"), _only_child(tmp_path / "s2")
        assert d1.name == d2.name, "sweep fingerprints differ across reruns"
        csv1 = (d1 / "sweep.csv").read_bytes()
        assert csv1 == (d2 / "sweep.csv").read_bytes()

        train_args = ["train", "--data", str(data), "--mode", "full",
                      "--emb", "8", "--layers", "2", "--tasks", "2",
                      "--dropout", "0.0", "--node-vocab", "2,2",
                      "--edge-vocab", "2,2", "--epochs", "3",
                      "--batch-size", "8", "--lr", "0.01", "--seed", "0",
                      "--split", "structure", "--fractions", "0.8,0.1,0.1"]
        _cli(train_args + ["--out", str(tmp_path / "t1")], tmp_path)
        _cli(train_args + ["--out", str(tmp_path / "t2")], tmp_path)
        e1, e2 = _only_child(tmp_path / "t1"), _only_child(tmp_path / "t2")
        assert e1.name == e2.name, "train fingerprints differ across reruns"
        rec1 = (e1 / "record.csv").read_bytes()
        assert rec1 == (e2 / "record.csv").read_bytes()
        assert (e1 / "config.txt").read_bytes() == (e2 / "config.txt").read_bytes()
        lines = len(csv1.splitlines()) - 1
        return (f"sweep ({lines} rows) and train reruns byte-identical "
                f"under fingerprint {e1.name[:12]}")

    _run(capsys, 12, "identical fingerprints reproduce identical CSVs", body)
