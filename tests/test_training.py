"""Optimizer mechanics, ranking-metric exactness, run determinism, the
edge-prediction pre-training recipe, and checkpoint round-trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnnpeft.config import ConfigError, ModelConfig, PeftConfig, TrainConfig
from gnnpeft.graphs import (SplitSpec, Vocab, batch as make_batch,
                            generate_synthetic, split)
from gnnpeft.model import forward_logits, init_params
from gnnpeft.peft import apply_peft
from gnnpeft.registry import file_hash, load_checkpoint, save_checkpoint
from gnnpeft.rng import RngStream
from gnnpeft.tensor import Tape, bce_with_logits
from gnnpeft.training import (Adam, MetricUndefinedError, RunRecord,
                              TrainingDivergedError, _hidden_edge_count,
                              _sample_negatives, encoder_param_names,
                              evaluate_auc, pretrain_edgepred, roc_auc,
                              train_supervised)

VOCAB = Vocab((2, 2), (2, 2))

# ~50% positive rate at these densities; sparser settings make the motif
# a rare event and tiny test slices go single-class (AUC undefined)
GEN = dict(node_range=(6, 12), edge_prob=0.5, vocab=VOCAB)


def small_setup(mode="full", seed=0, n_graphs=40, **peft_kw):
    ds = generate_synthetic(n_graphs, n_tasks=2, seed=11, **GEN)
    # random split: the structure-ordered one concentrates motif-rich
    # graphs in test, which can leave a tiny test slice single-class
    train_ds, _, test_ds = split(ds, SplitSpec(mode="random"), seed=0)
    model = ModelConfig(emb_dim=8, num_layers=2, num_tasks=2, dropout=0.0,
                        vocab=VOCAB)
    peft = PeftConfig(mode=mode, bottleneck=3, **peft_kw)
    reg = init_params(model, seed=seed)
    apply_peft(reg, model, peft, seed=seed)
    return train_ds, test_ds, reg, model, peft


@pytest.mark.parametrize("cls,field,value", [
    (TrainConfig, "lr", math.nan), (TrainConfig, "lr", math.inf),
    (TrainConfig, "lr", -1.0), (TrainConfig, "weight_decay", math.nan),
    (TrainConfig, "weight_decay", math.inf), (TrainConfig, "weight_decay", -1.0),
    (PeftConfig, "scaling_init", math.nan), (PeftConfig, "scaling_init", math.inf),
    (PeftConfig, "scaling_init", -math.inf)])
def test_config_floats_must_be_finite(cls, field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be finite"):
        cls(**{field: value})


class TestAdam:
    def test_lr_zero_is_bitwise_noop(self):
        train_ds, test_ds, reg, model, peft = small_setup()
        before = reg.tensor_hashes()
        cfg = TrainConfig(epochs=2, batch_size=8, lr=0.0, seed=0)
        train_supervised(train_ds, test_ds, reg, model, peft, cfg)
        after = reg.tensor_hashes()
        assert before == after

    def test_zero_grad_step_is_bitwise_noop(self):
        _, _, reg, model, peft = small_setup()
        opt = Adam(reg, TrainConfig(epochs=1, lr=1e-3, seed=0))
        before = reg.tensor_hashes()
        opt.zero_grad()
        opt.step()
        assert reg.tensor_hashes() == before

    @pytest.mark.parametrize("seed", range(5))
    def test_single_step_decreases_fixed_batch_loss(self, seed):
        train_ds, _, reg, model, peft = small_setup(seed=seed)
        b = make_batch(list(train_ds.graphs[:8]), VOCAB)
        cfg = TrainConfig(epochs=1, batch_size=8, lr=1e-3, seed=seed)
        opt = Adam(reg, cfg)
        rng = RngStream(seed, ("steptest",))

        def batch_loss(record):
            if record:
                with Tape() as tape:
                    logits = forward_logits(b, reg, model, peft, "train", rng)
                    loss = bce_with_logits(logits, b.labels, b.label_mask)
                    tape.backward(loss)
                return float(loss.data)
            logits = forward_logits(b, reg, model, peft, "train", rng)
            return float(bce_with_logits(logits, b.labels, b.label_mask).data)

        before = batch_loss(record=True)
        opt.step()
        opt.zero_grad()
        after = batch_loss(record=False)
        assert after < before

    def test_weight_decay_shrinks_unused_weights(self):
        # a parameter with zero gradient still decays under L2
        _, _, reg, model, peft = small_setup()
        w = reg.get("classifier.weight")
        w.data[:] = 1.0
        opt = Adam(reg, TrainConfig(epochs=1, lr=1e-2, weight_decay=0.1, seed=0))
        opt.zero_grad()
        opt.step()
        assert np.all(np.abs(w.data) < 1.0)


class TestFreezeInvariance:
    @pytest.mark.parametrize("mode,kw", [("adaptergnn", {}), ("bitfit", {}),
                                         ("prompt_node", {})])
    def test_frozen_tensors_bitwise_stable_under_training(self, mode, kw):
        train_ds, test_ds, reg, model, peft = small_setup(mode=mode, **kw)
        frozen = {name for name, p in reg.items() if not p.trainable}
        before = reg.tensor_hashes()
        cfg = TrainConfig(epochs=2, batch_size=8, lr=1e-2, seed=0)
        train_supervised(train_ds, test_ds, reg, model, peft, cfg)
        after = reg.tensor_hashes()
        assert all(after[n] == before[n] for n in frozen)
        trainable = set(reg.names()) - frozen
        assert any(after[n] != before[n] for n in trainable)


def pairwise_auc(scores, labels):
    """O(n^2) reference: (#correctly ordered + 0.5 * #ties) / #pairs."""
    num = 0.0
    pairs = 0
    for i in range(len(scores)):
        for j in range(len(scores)):
            if labels[i] == 1 and labels[j] == 0:
                pairs += 1
                if scores[i] > scores[j]:
                    num += 1.0
                elif scores[i] == scores[j]:
                    num += 0.5
    return num / pairs


class TestRocAuc:
    def test_perfect_ranking(self):
        assert roc_auc(np.array([0.9, 0.8, 0.1]), np.array([1, 1, 0])) == 1.0

    def test_reversed_ranking(self):
        assert roc_auc(np.array([0.1, 0.2, 0.9]), np.array([1, 1, 0])) == 0.0

    def test_all_tied_is_half(self):
        assert roc_auc(np.zeros(6), np.array([1, 0, 1, 0, 1, 0])) == 0.5

    def test_single_class_undefined(self):
        with pytest.raises(MetricUndefinedError):
            roc_auc(np.array([0.3, 0.4]), np.array([1, 1]))

    def test_nan_scores_undefined(self):
        # a NaN equals no score, not even itself, so ranking it by ties
        # looped forever; a masked NaN is not scored
        with pytest.raises(MetricUndefinedError, match="NaN scores"):
            roc_auc(np.array([0.3, np.nan, 0.4]), np.array([1, 0, 0]))
        assert roc_auc(np.array([0.3, np.nan, 0.4]), np.array([1, 0, 0]),
                       mask=np.array([True, False, True])) == 0.0

    def test_fully_masked_undefined(self):
        with pytest.raises(MetricUndefinedError):
            roc_auc(np.array([[0.3], [0.4]]), np.array([[1], [0]]),
                    mask=np.array([[False], [False]]))

    def test_masked_labels_ignored(self):
        scores = np.array([0.9, 0.5, 0.1, 0.99])
        labels = np.array([1, 0, 0, 0])
        mask = np.array([True, True, True, False])  # hide the confuser
        assert roc_auc(scores, labels, mask[:]) == pairwise_auc(
            scores[:3], labels[:3])

    def test_multitask_mean(self):
        scores = np.array([[0.9, 0.1], [0.1, 0.9]])
        labels = np.array([[1, 1], [0, 0]])
        assert roc_auc(scores, labels) == 0.5  # tasks give 1.0 and 0.0

    def test_task_without_both_classes_skipped(self):
        scores = np.array([[0.9, 0.7], [0.1, 0.3]])
        labels = np.array([[1, 1], [0, 1]])  # task 1 is all-positive
        assert roc_auc(scores, labels) == 1.0

    def test_matches_quadratic_oracle_with_ties(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            # coarse grid forces many exact ties
            scores = rng.integers(0, 5, size=n).astype(float) / 4.0
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert roc_auc(scores, labels) == pairwise_auc(scores, labels)

    @given(st.lists(st.integers(0, 6), min_size=2, max_size=25),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_transform_invariance(self, raw, data):
        scores = np.asarray(raw, dtype=float)
        labels = np.asarray(
            data.draw(st.lists(st.integers(0, 1), min_size=len(raw),
                               max_size=len(raw))))
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        a = roc_auc(scores, labels)
        b = roc_auc(3.0 * scores + 1.0, labels)  # strictly increasing map
        assert a == b


class TestRunRecord:
    def make(self):
        return RunRecord(train_loss=[0.7, 0.5], train_auc=[0.6, 0.9],
                         test_auc=[0.55, 0.8], fingerprint="abc123",
                         config={"train.lr": 0.001})

    def test_derived_metrics(self):
        r = self.make()
        assert r.final_train_err == pytest.approx(0.1)
        assert r.final_test_err == pytest.approx(0.2)
        assert r.gap == pytest.approx(0.1)
        assert r.gap == pytest.approx(r.final_test_err - r.final_train_err)

    def test_csv_layout(self):
        lines = self.make().to_csv().splitlines()
        assert lines[0] == "epoch,train_loss,train_auc,test_auc,gap"
        assert lines[1].startswith("1,0.7,0.6,0.55,")
        assert len(lines) == 3

    def test_write_creates_artifacts(self, tmp_path):
        self.make().write(tmp_path)
        assert (tmp_path / "record.csv").exists()
        summary = (tmp_path / "summary.json").read_text()
        assert '"fingerprint": "abc123"' in summary
        assert '"epoch1_train_loss": 0.7' in summary


class TestTrainLoop:
    def test_same_seed_bitwise_identical(self):
        records = []
        for _ in range(2):
            train_ds, test_ds, reg, model, peft = small_setup(seed=3)
            cfg = TrainConfig(epochs=3, batch_size=8, lr=1e-2, seed=3)
            records.append(train_supervised(train_ds, test_ds, reg, model,
                                            peft, cfg))
        a, b = records
        assert a.train_loss == b.train_loss
        assert a.train_auc == b.train_auc
        assert a.test_auc == b.test_auc

    def test_different_seed_differs(self):
        outs = []
        for seed in (0, 1):
            train_ds, test_ds, reg, model, peft = small_setup(seed=seed)
            cfg = TrainConfig(epochs=2, batch_size=8, lr=1e-2, seed=seed)
            outs.append(train_supervised(train_ds, test_ds, reg, model, peft,
                                         cfg).train_loss)
        assert outs[0] != outs[1]

    def test_divergence_raises_with_epoch(self):
        train_ds, test_ds, reg, model, peft = small_setup()
        reg.get("classifier.weight").data[0, 0] = float("nan")
        cfg = TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=0)
        with pytest.raises(TrainingDivergedError) as exc:
            train_supervised(train_ds, test_ds, reg, model, peft, cfg)
        assert exc.value.epoch == 1

    @pytest.mark.parametrize("mode", ["full", "adaptergnn"])
    def test_final_epoch_only_evaluation_changes_nothing_trained(self, mode):
        records, hashes = [], []
        for every in (True, False):
            train_ds, test_ds, reg, model, peft = small_setup(mode, seed=2)
            cfg = TrainConfig(epochs=3, batch_size=8, lr=1e-2, seed=2)
            records.append(train_supervised(train_ds, test_ds, reg, model, peft,
                                            cfg, eval_every_epoch=every))
            hashes.append(reg.state_hash())
        every, final = records
        assert hashes[0] == hashes[1]
        assert final.train_loss == every.train_loss
        for field in ("train_auc", "test_auc"):
            got, want = getattr(final, field), getattr(every, field)
            assert np.isnan(got[:-1]).all() and got[-1] == want[-1]
        assert final.summary() == every.summary()
        rows = final.to_csv().splitlines()
        assert len(rows) == 4 and rows[1].endswith(",nan,nan,nan")
        assert rows[-1] == every.to_csv().splitlines()[-1]

    def test_evaluate_auc_chunking_invariant(self):
        # the default budget holds the whole split (16 floats a row);
        # 40 rows cut it into chunks of about three graphs
        train_ds, _, reg, model, peft = small_setup()
        full = evaluate_auc(train_ds, reg, model, peft)
        small = evaluate_auc(train_ds, reg, model, peft, budget=40 * 16)
        assert full == small


class TestEdgePred:
    def test_hidden_edge_count_rule(self):
        expected = {0: 0, 1: 0, 2: 1, 3: 1, 7: 1, 10: 2, 20: 3, 100: 15}
        for e, k in expected.items():
            assert _hidden_edge_count(e) == k, e

    def test_negative_samples_are_nonedges(self):
        ds = generate_synthetic(10, node_range=(6, 9), edge_prob=0.4,
                                vocab=VOCAB, seed=2)
        rng = RngStream(0, ("neg",))
        for g in ds.graphs:
            negs = _sample_negatives(g, 5, rng.child(f"{g.num_nodes}"))
            edge_set = {(int(u), int(v)) for u, v in g.edges}
            edge_set |= {(v, u) for u, v in edge_set}
            for u, v in negs:
                assert u < v
                assert (int(u), int(v)) not in edge_set
            as_tuples = [tuple(p) for p in negs]
            assert len(set(as_tuples)) == len(as_tuples)

    def test_complete_graph_has_no_negatives(self):
        from gnnpeft.graphs import Graph
        edges = np.array([[0, 1], [0, 2], [1, 2]])
        g = Graph(node_attrs=np.zeros((3, 2), dtype=np.int64), edges=edges,
                  edge_attrs=np.zeros((3, 2), dtype=np.int64),
                  labels=np.array([1], dtype=np.int8))
        negs = _sample_negatives(g, 4, RngStream(0, ("x",)))
        assert negs.shape == (0, 2)

    def test_chance_level_loss_is_ln2(self):
        # all-zero node states score every pair 0 => BCE = ln 2 exactly
        from gnnpeft.tensor import Tensor, gather_rows, row_dot
        x = Tensor(np.zeros((5, 4)))
        pairs = np.array([[0, 1], [2, 3], [1, 4]])
        scores = row_dot(gather_rows(x, pairs[:, 0]), gather_rows(x, pairs[:, 1]))
        loss = bce_with_logits(scores, np.array([1.0, 0.0, 1.0]))
        assert float(loss.data) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_pretrain_deterministic_and_learns(self):
        ds = generate_synthetic(30, seed=4, **GEN)
        model = ModelConfig(emb_dim=8, num_layers=2, num_tasks=1, dropout=0.0,
                            vocab=VOCAB)
        cfg = TrainConfig(epochs=6, batch_size=8, lr=1e-2, seed=1)
        reg1, losses1 = pretrain_edgepred(ds, model, cfg)
        reg2, losses2 = pretrain_edgepred(ds, model, cfg)
        assert losses1 == losses2
        assert reg1.state_hash() == reg2.state_hash()
        assert losses1[-1] < losses1[0]

    def test_classifier_untouched_by_pretraining(self):
        ds = generate_synthetic(20, node_range=(5, 8), edge_prob=0.3,
                                vocab=VOCAB, seed=4)
        model = ModelConfig(emb_dim=6, num_layers=2, num_tasks=1, dropout=0.0,
                            vocab=VOCAB)
        cfg = TrainConfig(epochs=2, batch_size=8, lr=1e-2, seed=7)
        reg, _ = pretrain_edgepred(ds, model, cfg)
        fresh = init_params(model, seed=cfg.seed)
        for name in ("classifier.weight", "classifier.bias"):
            assert reg.get(name).data.tobytes() == fresh.get(name).data.tobytes()
        names = encoder_param_names(reg)
        assert names and not any(n.startswith("classifier.") for n in names)

    def test_hidden_edges_absent_from_batch(self):
        ds = generate_synthetic(1, node_range=(8, 8), edge_prob=0.5,
                                vocab=VOCAB, seed=9)
        g = ds.graphs[0]
        assert g.num_edges >= 2
        keep = np.ones(g.num_edges, dtype=bool)
        keep[0] = False
        b = make_batch([g], VOCAB, drop_edges={0: keep})
        assert b.edge_src.shape[0] == 2 * (g.num_edges - 1) + g.num_nodes


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        model = ModelConfig(emb_dim=6, num_layers=2, num_tasks=2, vocab=VOCAB)
        reg = init_params(model, seed=5)
        p1 = tmp_path / "a.ckpt"
        meta = {"purpose": "roundtrip", "seed": 5}
        save_checkpoint(p1, reg, meta)
        meta2, params, buffers = load_checkpoint(p1)
        assert meta2 == meta
        reg2 = init_params(model, seed=6)  # different init, then overwrite
        reg2.load_state(params, buffers)
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(p2, reg2, meta)
        assert file_hash(p1) == file_hash(p2)

    def test_load_upcasts_to_float64(self, tmp_path):
        model = ModelConfig(emb_dim=6, num_layers=1, num_tasks=1, vocab=VOCAB)
        reg = init_params(model, seed=0)
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, reg, {})
        _, params, _ = load_checkpoint(path)
        w = params["classifier.weight"]
        assert w.dtype == np.float64
        expected = reg.get("classifier.weight").data.astype(np.float32)
        np.testing.assert_array_equal(w, expected.astype(np.float64))

    def test_encoder_only_checkpoint_drops_classifier(self, tmp_path):
        model = ModelConfig(emb_dim=6, num_layers=1, num_tasks=1, vocab=VOCAB)
        reg = init_params(model, seed=0)
        path = tmp_path / "enc.ckpt"
        save_checkpoint(path, reg, {}, param_names=encoder_param_names(reg))
        _, params, buffers = load_checkpoint(path)
        assert not any(n.startswith("classifier.") for n in params)
        assert "layer.0.bn.running_mean" in buffers
