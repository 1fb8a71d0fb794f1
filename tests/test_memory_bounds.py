"""Memory bounded by the batch, not the dataset, without changing a bit.

Evaluation forwards a dataset in chunks of whole graphs under a row
budget, so its logits must equal one whole-split forward and its peak
must not grow with the dataset. A leaf's gradient buffer lives only from
its first gradient in a sweep until the optimizer has stepped it, within
the sweep once its gradient is complete, so the optimizer must still
compute what it computed with preallocated buffers stepped after the
sweep: the literal state hashes below were taken from that code. The
optimizer's moments are freed before the final epoch is evaluated.
"""

import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from gnnpeft import graphs as G
from gnnpeft import training
from gnnpeft.config import PEFT_MODES, ModelConfig, PeftConfig, TrainConfig
from gnnpeft.model import forward_logits, init_params
from gnnpeft.peft import apply_peft
from gnnpeft.rng import RngStream
from gnnpeft.tensor import Tape, bce_with_logits
from gnnpeft.training import (EVAL_BUDGET, Adam, encoder_state, eval_chunks,
                              evaluate_auc, pretrain_edgepred, train_supervised)

from child_env import child_env
from test_message_passing import VOCAB as BIG_VOCAB, random_graphs

TREND_VOCAB = G.Vocab((4, 2), (2, 2))
TREND_SPLIT = G.SplitSpec(fractions=(0.7, 0.1, 0.2), mode="structure")


def trend_splits():
    ds = G.generate_synthetic(300, node_range=(8, 16), edge_prob=0.55,
                              vocab=TREND_VOCAB, n_tasks=4, seed=101)
    train, _, test = G.split(ds, TREND_SPLIT, seed=0)
    return train, test


def randomised(model, mode, seed=0):
    """A registry for ``mode`` with every parameter and BN statistic drawn
    at random, so zero-initialised adapter paths carry signal."""
    reg = init_params(model, seed=seed)
    apply_peft(reg, model, PeftConfig(mode=mode, bottleneck=5, lora_rank=4), seed=seed)
    rng = np.random.default_rng(seed)
    for _, p in reg.items():
        p.tensor.data[...] = rng.normal(scale=0.3, size=p.tensor.data.shape)
    for name, buf in reg.buffers.items():
        buf[...] = (rng.uniform(0.5, 2.0, size=buf.shape) if "var" in name
                    else rng.normal(scale=0.3, size=buf.shape))
    return reg


def evaluated_logits(monkeypatch, dataset, reg, model, peft, budget):
    """The logits ``evaluate_auc`` scores, as handed to ``roc_auc``."""
    seen = []
    original = training.roc_auc

    def spy(scores, labels, mask=None):
        seen.append(scores)
        return original(scores, labels, mask)
    with monkeypatch.context() as m:
        m.setattr(training, "roc_auc", spy)
        evaluate_auc(dataset, reg, model, peft, budget=budget)
    (scores,) = seen
    return scores


# ---------------------------------------------------------------------------
# chunk boundaries
# ---------------------------------------------------------------------------

class TestEvalChunks:
    def test_fewest_near_equal_chunks(self):
        # 1,030 rows under a 1,024-row budget: two halves, no 6-row tail
        chunks = eval_chunks([10] * 103, 1024)
        assert [b - a for a, b in chunks] == [52, 51]

    def test_a_graph_over_the_budget_is_a_chunk_of_its_own(self):
        sizes = [3, 4, 50, 2, 2, 60, 5]
        chunks = eval_chunks(sizes, 10)
        assert chunks == [(0, 2), (2, 3), (3, 5), (5, 6), (6, 7)]

    def test_whole_dataset_under_the_budget_is_one_chunk(self):
        assert eval_chunks([7, 9, 12], 28) == [(0, 3)]
        assert eval_chunks([], 28) == []

    @pytest.mark.parametrize("seed", range(20))
    def test_chunks_cover_in_order_and_keep_the_count(self, seed):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 40, size=rng.integers(1, 60)).tolist()
        cap = int(rng.integers(10, 200))
        chunks = eval_chunks(sizes, cap)
        assert chunks[0][0] == 0 and chunks[-1][1] == len(sizes)
        assert all(a < b for a, b in chunks)
        assert all(b == c for (_, b), (c, _) in zip(chunks, chunks[1:]))
        rows = [sum(sizes[a:b]) for a, b in chunks]
        assert all(r <= cap or b - a == 1 for r, (a, b) in zip(rows, chunks))
        # as few chunks as filling each up to the budget gives
        greedy, run = 1, 0
        for n in sizes:
            if run and run + n > cap:
                greedy, run = greedy + 1, 0
            run += n
        assert len(chunks) == greedy


# ---------------------------------------------------------------------------
# chunked evaluation computes what one whole-split forward computes
# ---------------------------------------------------------------------------

class TestChunkedEvaluationIsBitwise:
    """Eval-mode rows do not interact, so chunked logits equal a one-batch
    forward's as long as each chunk's GEMMs run on the BLAS kernel the
    whole split's do. OpenBLAS switches narrow products (M·N·K up to about
    10^6, such as a b=5 adapter's down-projection on 256 rows at d=512) to
    a small-matrix kernel that rounds differently, so the budget keeps
    chunks wide: 1,024 rows at d=512, and the whole split at d=16."""

    # budgets per width; at d=16 a small one also forces ~200-row chunks,
    # far above layer 0's 48-row switch between dense and factored
    CASES = {16: (EVAL_BUDGET, 200 * 32), 512: (EVAL_BUDGET,)}

    @pytest.fixture(scope="class")
    def train(self):
        return trend_splits()[0]

    @pytest.mark.parametrize("mode", PEFT_MODES)
    @pytest.mark.parametrize("d", sorted(CASES))
    def test_logits_equal_one_whole_split_forward(self, train, d, mode, monkeypatch):
        model = ModelConfig(emb_dim=d, num_layers=2, num_tasks=4, dropout=0.0,
                            vocab=TREND_VOCAB)
        peft = PeftConfig(mode=mode, bottleneck=5, lora_rank=4)
        reg = randomised(model, mode)
        whole = forward_logits(G.batch(list(train.graphs), train.vocab), reg,
                               model, peft, "eval").data
        sizes = [g.num_nodes for g in train.graphs]
        assert len(eval_chunks(sizes, min(self.CASES[d]) // (2 * d))) >= 3
        for budget in self.CASES[d]:
            got = evaluated_logits(monkeypatch, train, reg, model, peft, budget)
            assert np.array_equal(got, whole), (d, mode, budget)


# ---------------------------------------------------------------------------
# evaluation memory follows the budget, not the dataset
# ---------------------------------------------------------------------------

def big_graph_dataset(count):
    """``count`` of the 2,000-node graphs test_message_passing builds, with
    alternating labels so the AUC is defined."""
    base = random_graphs([2000] * 2, 0.002, 5)
    graphs = tuple(G.Graph(g.node_attrs, g.edges, g.edge_attrs,
                           np.array([i % 2], dtype=np.int8))
                   for i, g in enumerate(base * (count // 2)))
    return G.Dataset(graphs, BIG_VOCAB, 1)


def eval_peak_bytes(dataset, mode):
    model = ModelConfig(emb_dim=128, num_layers=2, num_tasks=1, dropout=0.0,
                        vocab=BIG_VOCAB)
    reg = init_params(model, seed=0)
    peft = PeftConfig(mode=mode)
    apply_peft(reg, model, peft, seed=0)
    tracemalloc.start()
    try:
        evaluate_auc(dataset, reg, model, peft)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mode", ["full", "adaptergnn"])
def test_eval_peak_is_bounded_by_the_budget(mode):
    # at d=128 (MLP width 256) a chunk holds two 2,000-node graphs; the
    # peak holds a few budget-sized activations plus the chunk's batch
    small = eval_peak_bytes(big_graph_dataset(4), mode)
    large = eval_peak_bytes(big_graph_dataset(8), mode)
    budget_bytes = EVAL_BUDGET * 8
    assert small < 8 * budget_bytes and large < 8 * budget_bytes, (small, large)
    assert large < 1.02 * small, (small, large)


# ---------------------------------------------------------------------------
# a training step holds only the forward values its backward rules read
# ---------------------------------------------------------------------------

def train_step_peak_bytes(mode):
    """Traced peak of one train-mode forward, backward and Adam step on 128
    trend graphs at d=128, L=2, and the batch's node count."""
    train, _ = trend_splits()
    b = G.batch(list(train.graphs[:128]), train.vocab)
    model = ModelConfig(emb_dim=128, num_layers=2, num_tasks=4, dropout=0.3,
                        vocab=TREND_VOCAB)
    peft = PeftConfig(mode=mode)
    reg = init_params(model, seed=0)
    apply_peft(reg, model, peft, seed=0)
    opt = Adam(reg, TrainConfig(epochs=1, seed=0))
    peaks = []
    for _ in range(2):  # the second step runs with Adam's moments in place
        tracemalloc.start()
        try:
            with Tape() as tape:
                logits = forward_logits(b, reg, model, peft, "train",
                                        RngStream(0, ("step",)))
                tape.backward(bce_with_logits(logits, b.labels, b.label_mask))
            opt.step()
            opt.zero_grad()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return max(peaks), b.num_nodes


@pytest.mark.parametrize("mode, activations", [("full", 6), ("adaptergnn", 10)])
def test_train_step_peak_holds_only_what_backward_reads(mode, activations):
    # in units of one n × 2d MLP activation: the step peaks at about 5.5
    # (full) and 9.3 (adaptergnn) of them; a tape whose nodes owned their
    # outputs peaked at 12.5 and 21.2, and a rule that captures one unread
    # n×d array per layer adds a unit
    peak, n = train_step_peak_bytes(mode)
    unit = n * 2 * 128 * 8
    assert peak < activations * unit, (peak / unit, mode)


# ---------------------------------------------------------------------------
# gradient buffers live from backward to the optimizer step
# ---------------------------------------------------------------------------

def small_model(mode):
    ds = G.generate_synthetic(40, node_range=(6, 12), edge_prob=0.5,
                              vocab=TREND_VOCAB, n_tasks=2, seed=2)
    model = ModelConfig(emb_dim=8, num_layers=2, num_tasks=2, dropout=0.2,
                        vocab=TREND_VOCAB)
    peft = PeftConfig(mode=mode, bottleneck=3)
    reg = init_params(model, seed=0)
    apply_peft(reg, model, peft, seed=0)
    return ds, reg, model, peft


@pytest.mark.parametrize("mode", PEFT_MODES)
def test_no_trainable_leaf_holds_a_buffer_after_step_and_zero_grad(mode):
    ds, reg, model, peft = small_model(mode)
    assert all(p.tensor.grad is None for _, p in reg.items())
    opt = Adam(reg, TrainConfig(epochs=1, lr=1e-2, seed=0))
    b = G.batch(list(ds.graphs), ds.vocab)
    with Tape() as tape:
        logits = forward_logits(b, reg, model, peft, "train", RngStream(0, ("t",)))
        tape.backward(bce_with_logits(logits, b.labels, b.label_mask))
    assert any(t.grad is not None for _, t in reg.trainable_tensors())
    assert all(p.tensor.grad is None for _, p in reg.items() if not p.trainable)
    opt.step()
    opt.zero_grad()
    assert all(p.tensor.grad is None for _, p in reg.items())


def test_training_leaves_no_buffer_behind():
    ds, reg, model, peft = small_model("adaptergnn")
    train, _, test = G.split(ds, G.SplitSpec(mode="random"), seed=0)
    train_supervised(train, test, reg, model, peft,
                     TrainConfig(epochs=2, batch_size=8, lr=1e-2, seed=0))
    assert all(p.tensor.grad is None for _, p in reg.items())


# state_hash after two epochs of each stage, taken from the code that kept a
# zero-filled gradient buffer per trainable leaf for the leaf's whole life
STATE_HASHES = {
    "pretrain": "d015267484c7ac02cb5adfe1cee689813c75270b164ec70cf188da92f0611bfa",
    "full": "b92f6b141ed10a6956ef4d4ea8e7d7a9493c0ef5d2435d5e02b8370bb4554e3c",
    "adaptergnn": "d3ff2638627ee2c3a31c94939b2729e27097d1f2ff204d2c78d9b3c6c784e4e4",
    "lora": "edae569c07c24e21074d0bbe31eaddec2d195e0f81fd668c637a94551caec428",
    "adapter_seq": "028470517dd3e82ec2a1c81fc1eeb91ea45dafc36dcf7591eabc08ac3e2518ba",
}


def state_hashes() -> dict:
    """Registry state hashes after pre-training and after fine-tuning the
    pre-trained backbone in four modes, the workload ``STATE_HASHES`` pins."""
    ds = G.generate_synthetic(60, node_range=(8, 16), edge_prob=0.55,
                              vocab=TREND_VOCAB, n_tasks=4, seed=3)
    train, _, test = G.split(ds, TREND_SPLIT, seed=0)
    model = ModelConfig(emb_dim=32, num_layers=2, num_tasks=4, dropout=0.3,
                        vocab=TREND_VOCAB)
    pre, _ = pretrain_edgepred(train, model,
                               TrainConfig(epochs=2, batch_size=16, lr=1e-3, seed=0))
    got = {"pretrain": pre.state_hash()}
    for mode in ("full", "adaptergnn", "lora", "adapter_seq"):
        reg = init_params(model, seed=0)
        reg.load_state(*encoder_state(pre))
        peft = PeftConfig(mode=mode)
        apply_peft(reg, model, peft, seed=0)
        train_supervised(train, test, reg, model, peft,
                         TrainConfig(epochs=2, batch_size=16, lr=1e-3,
                                     weight_decay=0.01, seed=0))
        got[mode] = reg.state_hash()
    return got


def test_state_hashes_after_pretraining_and_fine_tuning_are_unchanged():
    assert state_hashes() == STATE_HASHES


# the BLAS reads its thread count from the environment when numpy loads, so
# each count runs in a child process of its own; nproc is the most threads
# this machine gives the process, never more
THREAD_COUNTS = {"1": "1", "nproc": str(len(os.sched_getaffinity(0)))}


def run_at_threads(argv, threads: str, cwd=pathlib.Path(__file__).parent) -> str:
    """stdout of ``python argv`` in a child whose BLAS and OpenMP run
    ``threads`` threads."""
    env = dict(child_env(), OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    proc = subprocess.run([sys.executable, *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("threads", sorted(THREAD_COUNTS))
def test_state_hashes_at_either_blas_thread_count(threads):
    code = "import json, test_memory_bounds as t; print(json.dumps(t.state_hashes()))"
    stdout = run_at_threads(["-c", code], THREAD_COUNTS[threads])
    assert json.loads(stdout) == STATE_HASHES


def wide_state_hashes() -> dict:
    """Registry state hashes after one epoch of pre-training at d=512, then
    one epoch each of ``full`` and ``adaptergnn`` (b=15) on that backbone.
    An adapter output of a batch here has more than ``DOT_BLOCK`` elements,
    so each scale gradient sums several dot blocks."""
    train, test = trend_splits()
    model = ModelConfig(emb_dim=512, num_layers=2, num_tasks=4, dropout=0.0,
                        vocab=TREND_VOCAB)
    cfg = TrainConfig(epochs=1, batch_size=32, lr=1e-3, seed=0)
    pre, _ = pretrain_edgepred(train, model, cfg)
    got = {"pretrain": pre.state_hash()}
    for mode in ("full", "adaptergnn"):
        reg = init_params(model, seed=0)
        reg.load_state(*encoder_state(pre))
        peft = PeftConfig(mode=mode)
        apply_peft(reg, model, peft, seed=0)
        train_supervised(train, test, reg, model, peft, cfg, eval_every_epoch=False)
        got[mode] = reg.state_hash()
    return got


def test_wide_state_hashes_agree_across_blas_thread_counts():
    code = ("import json, test_memory_bounds as t; "
            "print(json.dumps(t.wide_state_hashes()))")
    got = [json.loads(run_at_threads(["-c", code], t)) for t in THREAD_COUNTS.values()]
    assert got[0] == got[1]


# c12's command chain: a data file, a model-size sweep and a training run
CLI_CHAIN = (
    ["gen-data", "--out", "data.jsonl", "--n", "60", "--nodes", "6,12",
     "--edge-prob", "0.5", "--node-vocab", "2,2", "--edge-vocab", "2,2",
     "--tasks", "2", "--seed", "3"],
    ["sweep", "--kind", "model_size", "--data", "data.jsonl", "--out", "sweeps",
     "emb=6,8", "mode=full", "seed=0", "epochs=2", "batch_size=8", "lr=0.01",
     "layers=1", "dropout=0.0", "node_vocab=2,2", "edge_vocab=2,2"],
    ["train", "--data", "data.jsonl", "--out", "runs", "--mode", "full",
     "--emb", "8", "--layers", "2", "--tasks", "2", "--dropout", "0.0",
     "--node-vocab", "2,2", "--edge-vocab", "2,2", "--epochs", "3",
     "--batch-size", "8", "--lr", "0.01", "--seed", "0", "--split", "structure",
     "--fractions", "0.8,0.1,0.1"],
)


def test_cli_outputs_are_byte_identical_across_blas_thread_counts(tmp_path):
    outputs = []
    for name, threads in THREAD_COUNTS.items():
        root = tmp_path / name
        root.mkdir()
        for argv in CLI_CHAIN:
            run_at_threads(["-m", "gnnpeft", *argv], threads, cwd=root)
        files = [*root.glob("sweeps/*/sweep.csv"), *root.glob("runs/*/record.csv"),
                 *root.glob("runs/*/config.txt")]
        assert len(files) == 3, files
        # keyed by the path below the root, so the run names must agree too
        outputs.append({str(f.relative_to(root)): f.read_bytes() for f in files})
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# optimizer state lives only while a step reads it
# ---------------------------------------------------------------------------

def test_weight_gradients_do_not_pile_up_until_the_step(monkeypatch):
    # each parameter is stepped, and its gradient dropped, as soon as the
    # sweep completes it: at most 4 gradients are held at once here (the
    # edge tables wait for layer 0, which reads them too), where stepping
    # after the sweep held all 18 by its end
    train, test = trend_splits()
    model = ModelConfig(emb_dim=128, num_layers=2, num_tasks=4, dropout=0.3,
                        vocab=TREND_VOCAB)
    reg = init_params(model, seed=0)
    held, update = [], Adam.update

    def spy(self, tensor):
        held.append(sum(p.tensor.grad is not None for _, p in reg.items()))
        update(self, tensor)
    monkeypatch.setattr(Adam, "update", spy)
    train_supervised(train, test, reg, model, PeftConfig(mode="full"),
                     TrainConfig(epochs=1, batch_size=128, seed=0))
    batches = -(-len(train) // 128)
    assert len(held) == batches * len(reg.trainable_tensors())
    assert max(held) <= 4, held


def test_final_evaluation_runs_with_the_moments_freed(monkeypatch):
    alive, refs = [], []

    class Tracked(Adam):
        def __init__(self, *args):
            super().__init__(*args)
            refs.extend(weakref.ref(a) for a in (self, *self.m.values(),
                                                 *self.v.values()))

    def spy(*args, **kwargs):
        alive.append(any(r() is not None for r in refs))
        return evaluate(*args, **kwargs)
    evaluate = training.evaluate_auc
    monkeypatch.setattr(training, "Adam", Tracked)
    monkeypatch.setattr(training, "evaluate_auc", spy)
    ds, reg, model, peft = small_model("adaptergnn")
    train, _, test = G.split(ds, G.SplitSpec(mode="random"), seed=0)
    train_supervised(train, test, reg, model, peft,
                     TrainConfig(epochs=3, batch_size=8, lr=1e-2, seed=0))
    # train and test splits per epoch; the moments live through epochs 1-2
    assert alive == [True] * 4 + [False] * 2
