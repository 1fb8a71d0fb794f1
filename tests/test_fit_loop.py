"""The shared fitting loop against the two loops it replaced.

``_oracle_train_supervised`` and ``_oracle_pretrain_edgepred`` are the
earlier, separate loops of ``training.train_supervised`` and
``training.pretrain_edgepred``, kept verbatim (renamed only). Every case
runs both on identically built registries and compares losses, records,
raised epochs and the final ``state_hash`` with exact equality. Also
covers ``training.encoder_state``, the one backbone hand-off.
"""

from typing import Optional

import numpy as np
import pytest

from gnnpeft.config import PEFT_MODES, ModelConfig, PeftConfig, TrainConfig
from gnnpeft.graphs import (Dataset, Graph, SplitSpec, Vocab,
                            batch as make_batch, generate_synthetic, split)
from gnnpeft.model import forward_logits, gin_node_states, init_params
from gnnpeft.peft import apply_peft
from gnnpeft.registry import ParamRegistry
from gnnpeft.rng import RngStream
from gnnpeft.tensor import EmptyLossError, Tape, bce_with_logits, gather_rows, row_dot
from gnnpeft.training import (Adam, RunRecord, TrainingDivergedError,
                              UnlabelledEpochError, _batches,
                              _hidden_edge_count, _sample_negatives,
                              encoder_param_names, encoder_state, evaluate_auc,
                              pretrain_edgepred, train_supervised)

VOCAB = Vocab((2, 2), (2, 2))


# ---------------------------------------------------------------------------
# oracles: the two loops as they were before they shared ``_fit``
# ---------------------------------------------------------------------------

def _oracle_train_supervised(train_ds: Dataset, test_ds: Dataset, reg: ParamRegistry,
                             model: ModelConfig, peft: PeftConfig, cfg: TrainConfig,
                             fingerprint: str = "", config_echo: Optional[dict] = None,
                             ) -> RunRecord:
    opt = Adam(reg, cfg)
    root = RngStream(cfg.seed, ("train",))
    record = RunRecord(fingerprint=fingerprint, config=config_echo or {})
    graphs = train_ds.graphs
    for epoch in range(1, cfg.epochs + 1):
        order = root.child(f"epoch{epoch}.order").permutation(len(graphs))
        losses, weights = [], []
        for bi, chunk in enumerate(_batches(graphs, order, cfg.batch_size)):
            b = make_batch(chunk, train_ds.vocab)
            rng = root.child(f"epoch{epoch}.batch{bi}")
            with Tape() as tape:
                logits = forward_logits(b, reg, model, peft, "train", rng)
                try:
                    loss = bce_with_logits(logits, b.labels, b.label_mask)
                except EmptyLossError:
                    continue  # every label in this batch is missing
                val = float(loss.data)
                if not np.isfinite(val):
                    raise TrainingDivergedError(epoch, val)
                tape.backward(loss)
            opt.step()
            opt.zero_grad()
            losses.append(val)
            weights.append(int(b.label_mask.sum()))
        if not weights:
            raise UnlabelledEpochError(epoch)
        record.train_loss.append(float(np.average(losses, weights=weights)))
        record.train_auc.append(evaluate_auc(train_ds, reg, model, peft))
        record.test_auc.append(evaluate_auc(test_ds, reg, model, peft))
    return record


def _oracle_pretrain_edgepred(dataset: Dataset, model: ModelConfig, cfg: TrainConfig,
                              ) -> tuple[ParamRegistry, list[float]]:
    reg = init_params(model, seed=cfg.seed)
    peft = PeftConfig(mode="full")
    # classifier gets no gradient from the pair loss; keep optimizer on
    # encoder + layers only so its Adam state stays empty.
    for name in ("classifier.weight", "classifier.bias"):
        reg.set_trainable(name, False)
    opt = Adam(reg, cfg)
    root = RngStream(cfg.seed, ("pretrain",))
    graphs = dataset.graphs
    epoch_losses: list[float] = []
    for epoch in range(1, cfg.epochs + 1):
        order = root.child(f"epoch{epoch}.order").permutation(len(graphs))
        losses, weights = [], []
        for bi, chunk in enumerate(_batches(graphs, order, cfg.batch_size)):
            rng = root.child(f"epoch{epoch}.batch{bi}")
            drop: dict[int, np.ndarray] = {}
            pos_pairs: list[np.ndarray] = []
            neg_pairs: list[np.ndarray] = []
            offset = 0
            for gi, g in enumerate(chunk):
                k = _hidden_edge_count(g.num_edges)
                if k:
                    grng = rng.child(f"graph{gi}")
                    hide = grng.choice(g.num_edges, size=k, replace=False)
                    keep = np.ones(g.num_edges, dtype=bool)
                    keep[hide] = False
                    drop[gi] = keep
                    pos_pairs.append(g.edges[np.sort(hide)] + offset)
                    negs = _sample_negatives(g, k, grng.child("neg"))
                    if negs.shape[0]:
                        neg_pairs.append(negs + offset)
                offset += g.num_nodes
            b = make_batch(chunk, dataset.vocab, drop_edges=drop)
            pairs = pos_pairs + neg_pairs
            if not pairs:
                continue
            all_pairs = np.concatenate(pairs, axis=0)
            n_pos = sum(p.shape[0] for p in pos_pairs)
            targets = np.zeros(all_pairs.shape[0])
            targets[:n_pos] = 1.0
            with Tape() as tape:
                x = gin_node_states(b, reg, model, peft, "train", rng.child("fwd"))
                scores = row_dot(gather_rows(x, all_pairs[:, 0]),
                                 gather_rows(x, all_pairs[:, 1]))
                loss = bce_with_logits(scores, targets)
                val = float(loss.data)
                if not np.isfinite(val):
                    raise TrainingDivergedError(epoch, val)
                tape.backward(loss)
            opt.step()
            opt.zero_grad()
            losses.append(val)
            weights.append(all_pairs.shape[0])
        if losses:
            epoch_losses.append(float(np.average(losses, weights=weights)))
        else:
            epoch_losses.append(float("nan"))
    return reg, epoch_losses


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _splits(n_graphs=40, n_tasks=2, seed=11, **gen):
    gen = {"node_range": (6, 12), "edge_prob": 0.5, **gen}
    ds = generate_synthetic(n_graphs, vocab=VOCAB, n_tasks=n_tasks, seed=seed, **gen)
    train_ds, _, test_ds = split(ds, SplitSpec(mode="random"), seed=0)
    return train_ds, test_ds


def _model(num_tasks=2, dropout=0.0):
    return ModelConfig(emb_dim=8, num_layers=2, num_tasks=num_tasks,
                       dropout=dropout, vocab=VOCAB)


def _both_supervised(train_ds, test_ds, model, peft, cfg):
    """(outcome, state_hash) of the loop and of its oracle on twin
    registries; an outcome is the record or the raised exception."""
    results = []
    for fit in (train_supervised, _oracle_train_supervised):
        reg = init_params(model, seed=4)
        apply_peft(reg, model, peft, seed=4)
        try:
            outcome = fit(train_ds, test_ds, reg, model, peft, cfg)
        except (TrainingDivergedError, UnlabelledEpochError) as exc:
            outcome = exc
        results.append((outcome, reg.state_hash()))
    return results


def _assert_same_records(new, old):
    for field in ("train_loss", "train_auc", "test_auc"):
        assert np.array_equal(getattr(new, field), getattr(old, field)), field


def _relabel(graphs, labels_for):
    return tuple(Graph(g.node_attrs, g.edges, g.edge_attrs,
                       np.asarray(labels_for(i, g), dtype=np.int8))
                 for i, g in enumerate(graphs))


# ---------------------------------------------------------------------------
# the shared loop equals both oracles
# ---------------------------------------------------------------------------

class TestSupervisedMatchesOracle:
    @pytest.mark.parametrize("mode", PEFT_MODES)
    def test_modes_with_dropout_and_weight_decay(self, mode):
        train_ds, test_ds = _splits()
        cfg = TrainConfig(epochs=3, batch_size=8, lr=1e-2, weight_decay=0.01,
                          seed=3)
        peft = PeftConfig(mode=mode, bottleneck=3, lora_rank=2)
        (new, h_new), (old, h_old) = _both_supervised(
            train_ds, test_ds, _model(dropout=0.3), peft, cfg)
        _assert_same_records(new, old)
        assert h_new == h_old

    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_batches_without_labels_are_skipped(self, batch_size):
        train_ds, test_ds = _splits(n_tasks=3)
        # every third graph has no label, every other one lacks task 0
        def labels(i, g):
            if i % 3 == 0:
                return [-1, -1, -1]
            return [-1 if i % 2 else g.labels[0], g.labels[1], g.labels[2]]
        masked = Dataset(_relabel(train_ds.graphs, labels), VOCAB, 3)
        cfg = TrainConfig(epochs=2, batch_size=batch_size, lr=1e-2, seed=5)
        (new, h_new), (old, h_old) = _both_supervised(
            masked, test_ds, _model(num_tasks=3), PeftConfig(mode="full"), cfg)
        _assert_same_records(new, old)
        assert h_new == h_old

    def test_unlabelled_epoch_raises_at_the_same_epoch(self):
        train_ds, test_ds = _splits()
        masked = Dataset(_relabel(train_ds.graphs, lambda i, g: [-1, -1]), VOCAB, 2)
        cfg = TrainConfig(epochs=2, batch_size=8, lr=1e-2, seed=0)
        (new, h_new), (old, h_old) = _both_supervised(
            masked, test_ds, _model(), PeftConfig(mode="full"), cfg)
        assert isinstance(new, UnlabelledEpochError)
        assert isinstance(old, UnlabelledEpochError)
        assert new.epoch == old.epoch == 1
        assert h_new == h_old

    def test_divergence_raises_at_the_same_epoch(self):
        # this lr overflows the loss in the second epoch, not the first
        train_ds, test_ds = _splits()
        cfg = TrainConfig(epochs=4, batch_size=8, lr=1e101, seed=0)
        with np.errstate(all="ignore"):
            (new, h_new), (old, h_old) = _both_supervised(
                train_ds, test_ds, _model(), PeftConfig(mode="full"), cfg)
        assert isinstance(new, TrainingDivergedError)
        assert isinstance(old, TrainingDivergedError)
        assert new.epoch == old.epoch == 2
        assert h_new == h_old


class TestPretrainMatchesOracle:
    def _compare(self, dataset, model, cfg):
        reg_new, new = pretrain_edgepred(dataset, model, cfg)
        reg_old, old = _oracle_pretrain_edgepred(dataset, model, cfg)
        assert np.array_equal(new, old, equal_nan=True)
        assert reg_new.state_hash() == reg_old.state_hash()
        return new

    def test_dropout_and_weight_decay(self):
        train_ds, _ = _splits()
        cfg = TrainConfig(epochs=3, batch_size=8, lr=1e-2, weight_decay=0.01,
                          seed=1)
        self._compare(train_ds, _model(dropout=0.3), cfg)

    def test_batches_without_pairs_are_skipped(self):
        # graphs with fewer than two edges hide none; batches of one such
        # graph have no pairs, and an all-sparse dataset has NaN epochs
        sparse, _ = _splits(node_range=(3, 6), edge_prob=0.1, seed=2)
        assert any(g.num_edges < 2 for g in sparse.graphs)
        assert any(g.num_edges >= 2 for g in sparse.graphs)
        cfg = TrainConfig(epochs=2, batch_size=1, lr=1e-2, seed=6)
        self._compare(sparse, _model(), cfg)
        tiny = Dataset(tuple(g for g in sparse.graphs if g.num_edges < 2), VOCAB, 2)
        losses = self._compare(tiny, _model(), cfg)
        assert np.isnan(losses).all()

    def test_divergence_raises_at_the_same_epoch(self):
        train_ds, _ = _splits()
        cfg = TrainConfig(epochs=4, batch_size=8, lr=1e101, seed=0)
        epochs = []
        with np.errstate(all="ignore"):
            for fit in (pretrain_edgepred, _oracle_pretrain_edgepred):
                with pytest.raises(TrainingDivergedError) as exc:
                    fit(train_ds, _model(), cfg)
                epochs.append(exc.value.epoch)
        assert epochs == [2, 2]


# ---------------------------------------------------------------------------
# encoder_state
# ---------------------------------------------------------------------------

class TestEncoderState:
    def _pretrained(self):
        train_ds, _ = _splits(n_graphs=20)
        cfg = TrainConfig(epochs=1, batch_size=8, lr=1e-2, seed=7)
        reg, _ = pretrain_edgepred(train_ds, _model(), cfg)
        return reg, cfg

    def test_backbone_and_every_buffer_without_classifier(self):
        reg, _ = self._pretrained()
        params, buffers = encoder_state(reg)
        assert sorted(params) == sorted(encoder_param_names(reg))
        assert not any(n.startswith("classifier.") for n in params)
        assert sorted(buffers) == sorted(reg.buffers)
        for name, arr in params.items():
            assert np.array_equal(arr, reg.get(name).data)

    def test_returns_copies_not_views(self):
        reg, _ = self._pretrained()
        params, buffers = encoder_state(reg)
        for name, arr in params.items():
            assert not np.shares_memory(arr, reg.get(name).data), name
        for name, arr in buffers.items():
            assert not np.shares_memory(arr, reg.buffer(name)), name
        before = {n: a.copy() for n, a in params.items()}
        for name in params:
            reg.get(name).data += 1.0
        assert all(np.array_equal(params[n], before[n]) for n in params)

    def test_fresh_registry_matches_source_after_load_state(self):
        reg, cfg = self._pretrained()
        # pre-training leaves the classifier at its init, so a fresh model
        # with the same seed matches the source everywhere once loaded
        fresh = init_params(_model(), seed=cfg.seed)
        assert fresh.state_hash() != reg.state_hash()
        fresh.load_state(*encoder_state(reg))
        assert fresh.state_hash() == reg.state_hash()
        # a differently seeded model takes the backbone and keeps its head
        other = init_params(_model(), seed=cfg.seed + 1)
        head = other.get("classifier.weight").data.copy()
        other.load_state(*encoder_state(reg))
        for name in encoder_param_names(reg):
            assert np.array_equal(other.get(name).data, reg.get(name).data)
        assert np.array_equal(other.get("classifier.weight").data, head)
