"""The lean tape and optimizer against the whole-array forms they replace.

The oracles below are the earlier ``Adam.step``, ``batchnorm1d`` and
``add(matmul(x, w), b)`` written out in numpy with the same expressions;
the rewrites must reproduce them bit for bit. The lifetime tests build
graphs with fan-out and aliasing, check them against finite differences,
and check what a sweep leaves behind, and that a forward value no
backward rule reads is freed as soon as the forward moves past it.
"""

import gc
import weakref

import numpy as np
import pytest

from gnnpeft import tensor as T
from gnnpeft.config import TrainConfig
from gnnpeft.registry import ParamRegistry
from gnnpeft.rng import RngStream
from gnnpeft.training import ADAM_BETAS, ADAM_CHUNK, ADAM_EPS, Adam

from gradcheck import assert_grads_close


# ---------------------------------------------------------------------------
# oracles: the whole-array forms, expression for expression
# ---------------------------------------------------------------------------

def oracle_adam_step(params, grads, m, v, t, cfg):
    """One Adam step over dicts of arrays, updated in place; ``t`` is the
    step number after the increment."""
    b1, b2 = ADAM_BETAS
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for name, data in params.items():
        g = grads[name]
        if cfg.weight_decay:
            g = g + cfg.weight_decay * data
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        v[name] += (1.0 - b2) * g * g
        mhat = m[name] / bc1
        vhat = v[name] / bc2
        data -= cfg.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def oracle_batchnorm_train(x, gamma, beta, running_mean, running_var, g,
                           momentum=0.1, eps=1e-5):
    """(out, dx, dgamma, dbeta); running statistics updated in place."""
    B = x.shape[0]
    mean = x.mean(axis=0)
    var = x.var(axis=0)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv_std
    out = gamma * xhat + beta
    unbiased = var * B / (B - 1)
    running_mean *= 1.0 - momentum
    running_mean += momentum * mean
    running_var *= 1.0 - momentum
    running_var += momentum * unbiased
    dxhat = g * gamma
    dx = (inv_std / B) * (B * dxhat - dxhat.sum(axis=0)
                          - xhat * (dxhat * xhat).sum(axis=0))
    return out, dx, (g * xhat).sum(axis=0), g.sum(axis=0)


def oracle_batchnorm_eval(x, gamma, beta, running_mean, running_var, g, eps=1e-5):
    inv_std = 1.0 / np.sqrt(running_var + eps)
    xhat = (x - running_mean) * inv_std
    out = gamma * xhat + beta
    return out, g * gamma * inv_std, (g * xhat).sum(axis=0), g.sum(axis=0)


def oracle_affine(x, w, b, g):
    """add(matmul(x, w), b): (out, dx, dw, db)."""
    return x @ w + b, g @ w.T, x.T @ g, g.sum(axis=0)


def _sweep_with_upstream(build, g):
    """Run ``build()`` under a tape and backpropagate ``g`` into its output
    (sum of output ⊙ g: the output's gradient is exactly g)."""
    with T.Tape() as tape:
        out = build()
        tape.backward(T.sum_all(T.mul_elementwise(out, T.Tensor(g))))
    return out


# ---------------------------------------------------------------------------
# bit-for-bit differential tests
# ---------------------------------------------------------------------------

class TestAdamMatchesWholeArrayForm:
    SHAPES = {"small": (3, 7), "vector": (5,), "scalar": (1,),
              "one_chunk": (ADAM_CHUNK,), "two_chunks": (2, ADAM_CHUNK),
              "ragged": (3, (2 * ADAM_CHUNK + 7) // 3 + 1)}

    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_params_and_moments_bit_identical(self, weight_decay):
        rng = np.random.default_rng(7)
        cfg = TrainConfig(epochs=1, lr=3e-3, weight_decay=weight_decay, seed=0)
        reg = ParamRegistry()
        for name, shape in self.SHAPES.items():
            reg.add(name, rng.normal(size=shape), True, "backbone")
        reg.add("frozen", rng.normal(size=(4,)), False, "backbone")
        opt = Adam(reg, cfg)
        params = {n: reg.get(n).data.copy() for n in self.SHAPES}
        m = {n: np.zeros_like(a) for n, a in params.items()}
        v = {n: np.zeros_like(a) for n, a in params.items()}
        for step in range(1, 6):
            grads = {n: rng.normal(scale=10.0 ** (step - 3), size=a.shape)
                     for n, a in params.items()}
            # on even steps every other parameter got no gradient: the step
            # reads its missing buffer as the zeros the oracle is given
            missing = set(sorted(self.SHAPES)[::2]) if step % 2 == 0 else set()
            for n, g in grads.items():
                if n in missing:
                    g[...] = 0.0
                else:
                    reg.get(n).grad = g.copy()
            opt.step()
            oracle_adam_step(params, grads, m, v, step, cfg)
            for n in self.SHAPES:
                assert np.array_equal(reg.get(n).data, params[n]), (n, step)
                assert np.array_equal(opt.m[n], m[n]), (n, step)
                assert np.array_equal(opt.v[n], v[n]), (n, step)
            opt.zero_grad()
            assert all(reg.get(n).grad is None for n in reg.names())

    def test_ragged_size_is_not_a_chunk_multiple(self):
        size = int(np.prod(self.SHAPES["ragged"]))
        assert size > ADAM_CHUNK and size % ADAM_CHUNK

    def test_non_contiguous_parameter_is_refused(self):
        reg = ParamRegistry()
        t = reg.add("w", np.zeros((4, 6)), True, "backbone")
        opt = Adam(reg, TrainConfig(epochs=1, seed=0))
        t.data = np.zeros((6, 4)).T
        with pytest.raises(ValueError, match="flat view"):
            opt.step()


class TestBatchNormMatchesTwoPassForm:
    @pytest.mark.parametrize("rows", [2, 5, 64])
    def test_train_forward_backward_and_running_stats(self, rows):
        rng = np.random.default_rng(rows)
        x = rng.normal(loc=3.0, scale=2.0, size=(rows, 9))
        gamma, beta = rng.normal(size=9), rng.normal(size=9)
        g = rng.normal(size=(rows, 9))
        state = T.BatchNormState(T.Tensor(gamma.copy(), requires_grad=True),
                                 T.Tensor(beta.copy(), requires_grad=True),
                                 rng.normal(size=9), rng.uniform(0.5, 2, size=9))
        rm, rv = state.running_mean.copy(), state.running_var.copy()
        xt = T.Tensor(x, requires_grad=True)
        out = _sweep_with_upstream(lambda: T.batchnorm1d(xt, state, "train"), g)
        want = oracle_batchnorm_train(x, gamma, beta, rm, rv, g)
        got = (out.data, xt.grad, state.gamma.grad, state.beta.grad)
        for name, a, b in zip(("out", "dx", "dgamma", "dbeta"), got, want):
            assert np.array_equal(a, b), name
        assert np.array_equal(state.running_mean, rm)
        assert np.array_equal(state.running_var, rv)

    @pytest.mark.parametrize("trainable", [
        (True, True, True), (True, False, False), (False, True, True),
        (False, True, False)])
    def test_train_frozen_combinations(self, trainable):
        rng = np.random.default_rng(3)
        x, g = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        gamma, beta = rng.normal(size=4), rng.normal(size=4)
        fx, fg, fb = trainable
        state = T.BatchNormState(T.Tensor(gamma, requires_grad=fg),
                                 T.Tensor(beta, requires_grad=fb),
                                 np.zeros(4), np.ones(4))
        xt = T.Tensor(x, requires_grad=fx)
        out = _sweep_with_upstream(lambda: T.batchnorm1d(xt, state, "train"), g)
        want_out, dx, dgamma, dbeta = oracle_batchnorm_train(
            x, gamma, beta, np.zeros(4), np.ones(4), g)
        assert np.array_equal(out.data, want_out)
        for t, want in ((xt, dx), (state.gamma, dgamma), (state.beta, dbeta)):
            if t.requires_grad:
                assert np.array_equal(t.grad, want)

    @pytest.mark.parametrize("gamma_trainable", [True, False])
    def test_eval_forward_backward(self, gamma_trainable):
        rng = np.random.default_rng(11)
        x, g = rng.normal(size=(7, 5)), rng.normal(size=(7, 5))
        gamma, beta = rng.normal(size=5), rng.normal(size=5)
        rm, rv = rng.normal(size=5), rng.uniform(0.5, 2.0, size=5)
        state = T.BatchNormState(T.Tensor(gamma, requires_grad=gamma_trainable),
                                 T.Tensor(beta, requires_grad=True), rm, rv)
        xt = T.Tensor(x, requires_grad=True)
        out = _sweep_with_upstream(lambda: T.batchnorm1d(xt, state, "eval"), g)
        want_out, dx, dgamma, dbeta = oracle_batchnorm_eval(x, gamma, beta, rm, rv, g)
        assert np.array_equal(out.data, want_out)
        assert np.array_equal(xt.grad, dx)
        assert np.array_equal(state.beta.grad, dbeta)
        if gamma_trainable:
            assert np.array_equal(state.gamma.grad, dgamma)

    def test_eval_without_tape_matches(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(3, 4))
        gamma, beta = rng.normal(size=4), rng.normal(size=4)
        rm, rv = rng.normal(size=4), rng.uniform(0.5, 2.0, size=4)
        state = T.BatchNormState(T.Tensor(gamma, requires_grad=True),
                                 T.Tensor(beta, requires_grad=True), rm, rv)
        out = T.batchnorm1d(T.Tensor(x), state, "eval")
        want = oracle_batchnorm_eval(x, gamma, beta, rm, rv, np.zeros_like(x))[0]
        assert np.array_equal(out.data, want)


class TestMatmulBias:
    def test_matches_add_of_matmul_bit_for_bit(self):
        rng = np.random.default_rng(5)
        x, w, b = rng.normal(size=(6, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)
        g = rng.normal(size=(6, 3))
        xt, wt, bt = (T.Tensor(a, requires_grad=True) for a in (x, w, b))
        out = _sweep_with_upstream(lambda: T.matmul(xt, wt, bt), g)
        want = oracle_affine(x, w, b, g)
        for a, e in zip((out.data, xt.grad, wt.grad, bt.grad), want):
            assert np.array_equal(a, e)
        # and the two-op composition still agrees with both
        xs, ws, bs = (T.Tensor(a, requires_grad=True) for a in (x, w, b))
        composed = _sweep_with_upstream(lambda: T.add(T.matmul(xs, ws), bs), g)
        for a, e in zip((composed.data, xs.grad, ws.grad, bs.grad), want):
            assert np.array_equal(a, e)

    def test_one_node_instead_of_two(self):
        x = T.Tensor(np.ones((2, 3)), requires_grad=True)
        w, b = T.Tensor(np.ones((3, 4))), T.Tensor(np.ones(4))
        with T.Tape() as tape:
            T.matmul(x, w, b)
            assert len(tape.nodes) == 1

    @pytest.mark.parametrize("frozen", ["x", "w", "b"])
    def test_grads_with_each_input_frozen(self, frozen):
        rng = np.random.default_rng(9)
        ts = {"x": T.Tensor(rng.normal(size=(5, 4)), requires_grad=True),
              "w": T.Tensor(rng.normal(size=(4, 3)), requires_grad=True),
              "b": T.Tensor(rng.normal(size=3), requires_grad=True)}
        ts[frozen].set_requires_grad(False)
        weights = T.Tensor(rng.normal(size=(5, 3)))

        def build(_):
            y = T.matmul(ts["x"], ts["w"], ts["b"])
            return T.sum_all(T.mul_elementwise(T.sigmoid(y), weights))

        assert_grads_close(build, [t for n, t in ts.items() if n != frozen])

    def test_only_bias_trainable_is_recorded(self):
        x, w = T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((3, 4)))
        b = T.Tensor(np.zeros(4), requires_grad=True)
        with T.Tape() as tape:
            tape.backward(T.sum_all(T.matmul(x, w, b)))
        assert np.array_equal(b.grad, np.full(4, 2.0))

    def test_bias_shape_checked(self):
        x, w = T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((3, 4)))
        with pytest.raises(T.ShapeMismatchError, match="bias"):
            T.matmul(x, w, T.Tensor(np.ones(3)))
        with pytest.raises(T.ShapeMismatchError, match="bias"):
            T.matmul(x, w, T.Tensor(np.ones((1, 4))))


# ---------------------------------------------------------------------------
# gradient lifetime: fan-out, aliasing, what a sweep leaves behind
# ---------------------------------------------------------------------------

def _fan_out_graphs(rng):
    """name -> (leaves, build) graphs whose op outputs have several
    consumers or reach one consumer twice."""
    x = T.Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    v = T.Tensor(rng.normal(size=3), requires_grad=True)
    c = T.Tensor(rng.normal(size=(5, 3)))
    idx_a, idx_b = np.array([0, 2, 2, 4, 1]), np.array([3, 2, 0, 0, 4])

    def add_self(ps):
        y = T.sigmoid(T.matmul(ps[0], ps[1]))
        return T.sum_all(T.mul_elementwise(T.add(y, y), c))

    def add_and_mul(ps):
        y = T.matmul(ps[0], ps[1])
        z = T.add(y, T.mul_elementwise(y, c))
        return T.sum_all(T.mul_elementwise(T.sigmoid(z), c))

    def gather_twice(ps):
        y = T.relu(T.matmul(ps[0], ps[1]))
        return T.sum_all(T.row_dot(T.gather_rows(y, idx_a), T.gather_rows(y, idx_b)))

    def sum_all_into_vector(ps):
        s = T.sum_all(T.sigmoid(T.mul_elementwise(ps[0], ps[0])))
        return T.sum_all(T.mul_elementwise(T.sigmoid(ps[0]), s))

    def sum_all_into_matrix(ps):
        return T.sum_all(T.matmul(ps[0], ps[1]))

    def leaf_twice(ps):
        return T.sum_all(T.mul_elementwise(T.add(ps[0], ps[0]), c))

    return {"add_self": ([x, w], add_self), "add_and_mul": ([x, w], add_and_mul),
            "gather_twice": ([x, w], gather_twice),
            "sum_all_into_vector": ([v], sum_all_into_vector),
            "sum_all_into_matrix": ([x, w], sum_all_into_matrix),
            "leaf_twice": ([T.Tensor(rng.normal(size=(5, 3)), requires_grad=True)],
                           leaf_twice)}


GRAPHS = sorted(_fan_out_graphs(np.random.default_rng(0)))


class TestGradientLifetime:
    @pytest.mark.parametrize("name", GRAPHS)
    def test_against_finite_differences(self, name):
        leaves, build = _fan_out_graphs(np.random.default_rng(1))[name]
        assert_grads_close(build, leaves, h=1e-6)

    @pytest.mark.parametrize("name", GRAPHS)
    def test_sweep_consumes_tape_and_keeps_leaf_buffers(self, name, monkeypatch):
        # leaves start without a buffer; the sweep gives each one of its
        # own, which outlives the tape until zero_grad drops it
        leaves, build = _fan_out_graphs(np.random.default_rng(2))[name]
        assert all(p.grad is None for p in leaves)
        built = []  # every op output the graph builds
        original = T._record

        def spy(inputs, out_data, make_backward):
            built.append(original(inputs, out_data, make_backward))
            return built[-1]
        monkeypatch.setattr(T, "_record", spy)
        with T.Tape() as tape:
            loss = build(leaves)
            recorded = [out for out in built if out.tape_node is not None]
            assert len(recorded) == len(tape.nodes) > 0
            tape.backward(loss)
            assert tape.nodes == []
            for out in recorded:
                # no op output keeps a gradient, and its node is dead
                assert out.grad is None
                assert out.tape_node.grad is None and out.tape_node.backward_fn is None
            buffers = [p.grad for p in leaves]
            for p, buf in zip(leaves, buffers):
                assert buf.shape == p.data.shape and buf.base is None
                assert not any(np.shares_memory(buf, q.data) for q in leaves)
            for i, j in zip(*np.triu_indices(len(buffers), k=1)):
                assert not np.shares_memory(buffers[i], buffers[j])
            with pytest.raises(T.TapeConsumedError):
                tape.backward(loss)
        for p, buf in zip(leaves, buffers):
            assert p.grad is buf
            p.zero_grad()
            assert p.grad is None

    @pytest.mark.parametrize("name", GRAPHS)
    def test_first_gradient_is_not_an_upstream_array(self, name, monkeypatch):
        # a leaf's buffer is no array that also reached another tensor, so
        # adding a later gradient into it writes nothing another rule holds
        leaves, build = _fan_out_graphs(np.random.default_rng(3))[name]
        handed = []
        original = T._accumulate

        def spy(t, g, rows=None, owned=False):
            handed.append((t, g))
            original(t, g, rows, owned)
        monkeypatch.setattr(T, "_accumulate", spy)
        with T.Tape() as tape:
            tape.backward(build(leaves))
        for p in leaves:
            assert not any(np.shares_memory(p.grad, g) for t, g in handed if t is not p)

    def test_backward_after_release_raises(self):
        x = T.Tensor(np.ones((2, 2)), requires_grad=True)
        with T.Tape() as tape:
            loss = T.sum_all(x)
        with pytest.raises(T.TapeConsumedError):
            tape.backward(loss)
        assert x.grad is None

    def test_upstream_gradient_never_written(self):
        # add hands one array to both inputs; the op output that takes it
        # as its gradient must not write into it when a second one arrives
        x = T.Tensor(np.ones((2, 3)), requires_grad=True)
        w = T.Tensor(np.full((3, 3), 0.5), requires_grad=True)
        seen = []
        with T.Tape() as tape:
            y = T.matmul(x, w)
            s = T.add(y, y)
            t = T.add(s, y)
            loss = T.sum_all(t)
            node = t.tape_node
            original = node.backward_fn

            def spy(g):
                seen.append((g, g.copy()))
                original(g)
            node.backward_fn = spy
            tape.backward(loss)
        g, before = seen[0]
        assert np.array_equal(g, before)
        assert np.array_equal(x.grad, np.full((2, 3), 4.5))

    def test_registry_zero_grads_drops_buffers(self):
        reg = ParamRegistry()
        t = reg.add("w", np.ones((2, 2)), True, "backbone")
        assert t.grad is None
        with T.Tape() as tape:
            tape.backward(T.sum_all(T.mul_elementwise(t, t)))
        assert np.array_equal(t.grad, np.full((2, 2), 2.0))
        reg.zero_grads()
        assert t.grad is None
        with T.Tape() as tape:  # the next sweep starts from zero again
            tape.backward(T.sum_all(t))
        assert np.array_equal(t.grad, np.ones((2, 2)))

    def test_output_of_a_finished_tape_is_a_dead_end(self):
        x = T.Tensor(np.ones((2, 2)), requires_grad=True)
        with T.Tape() as tape:
            y = T.mul_scalar(x, 3.0)
            tape.backward(T.sum_all(y))
        with T.Tape() as tape:
            tape.backward(T.sum_all(T.mul_scalar(y, 2.0)))
        assert np.array_equal(y.grad, np.full((2, 2), 2.0))
        assert np.array_equal(x.grad, np.full((2, 2), 3.0))


# ---------------------------------------------------------------------------
# the tape keeps only what backward rules read
# ---------------------------------------------------------------------------

def _unread_graphs(rng):
    """name -> (leaves, build): each build(leaves, dropped) appends a weak
    reference to every intermediate array no backward rule reads, and
    returns the loss once the forward has moved past them."""
    x = T.Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    w2 = T.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    bias = T.Tensor(rng.normal(size=5), requires_grad=True)
    bn = T.BatchNormState(T.Tensor(rng.normal(size=5), requires_grad=True),
                          T.Tensor(rng.normal(size=5), requires_grad=True),
                          np.zeros(5), np.ones(5))
    c = T.Tensor(rng.normal(size=(6, 5)))
    edge_term = T.Tensor(rng.normal(size=(6, 5)))
    src, dst = np.array([0, 1, 2, 3, 4, 5, 1, 3]), np.array([1, 0, 3, 2, 5, 4, 2, 2])
    blocks = rng.normal(size=(2, 3, 3))
    block_ids, block_rows = np.repeat([0, 1], 3), np.tile([0, 1, 2], 2)

    def head(y):
        return T.sum_all(T.mul_elementwise(T.sigmoid(y), c))

    def relu_input(ps, dropped):
        h = T.matmul(ps[0], ps[1], ps[2])  # pre-ReLU affine output
        dropped.append(weakref.ref(h.data))
        return head(T.relu(h))

    def batchnorm_input_and_output(ps, dropped):
        h = T.matmul(ps[0], ps[1], ps[2])
        o = T.batchnorm1d(h, bn, "train")
        dropped += [weakref.ref(h.data), weakref.ref(o.data)]
        return head(T.relu(o))

    def add_inputs(ps, dropped):
        a, b = T.matmul(ps[0], ps[1]), T.matmul(ps[0], ps[2])
        s = T.add(a, b)
        dropped += [weakref.ref(a.data), weakref.ref(b.data), weakref.ref(s.data)]
        return head(s)

    def message_pass_sum(ps, dropped):
        h = T.matmul(ps[0], ps[1])
        rows = T.gather_rows(h, src)
        s = T.scatter_sum(rows, dst, 6)
        dropped += [weakref.ref(a.data) for a in (h, rows, s)]
        return head(T.relu(T.add(s, edge_term)))

    def block_message_pass_sum(ps, dropped):
        h = T.matmul(ps[0], ps[1])
        s = T.block_diag_matmul(blocks, h, block_ids, block_rows)
        dropped += [weakref.ref(h.data), weakref.ref(s.data)]
        return head(T.add(s, edge_term))

    def scalings_pool_and_dropout(ps, dropped):
        h = T.matmul(ps[0], ps[1])
        k = T.mul_scalar(h, 0.5)
        d = T.dropout(k, 0.3, RngStream(0, ("drop",)), "train")
        p = T.segment_mean_pool(d, np.array([0, 0, 1, 1, 1, 2]), 3)
        dropped += [weakref.ref(a.data) for a in (h, k, d)]
        return T.sum_all(T.sigmoid(p))

    three = [x, w, bias]
    return {"relu_input": (three, relu_input),
            "batchnorm_input_and_output": (three, batchnorm_input_and_output),
            "add_inputs": ([x, w, w2], add_inputs),
            "message_pass_sum": ([x, w], message_pass_sum),
            "block_message_pass_sum": ([x, w], block_message_pass_sum),
            "scalings_pool_and_dropout": ([x, w], scalings_pool_and_dropout)}


UNREAD = sorted(_unread_graphs(np.random.default_rng(0)))


class TestUnreadValuesAreFreed:
    @pytest.mark.parametrize("name", UNREAD)
    def test_dead_once_the_forward_moves_on(self, name):
        leaves, build = _unread_graphs(np.random.default_rng(4))[name]
        dropped = []
        gc.disable()  # refcounting alone must free them: no cycle to break
        try:
            with T.Tape() as tape:
                loss = build(leaves, dropped)
                assert dropped and all(r() is None for r in dropped)
                tape.backward(loss)
        finally:
            gc.enable()
        assert all(p.grad is not None for p in leaves)

    @pytest.mark.parametrize("name", UNREAD)
    def test_against_finite_differences(self, name):
        leaves, build = _unread_graphs(np.random.default_rng(5))[name]
        assert_grads_close(lambda ps: build(ps, []), leaves, h=1e-6)

    @pytest.mark.parametrize("recorded", [True, False])
    def test_relu_overwriting_its_input(self, recorded):
        rng = np.random.default_rng(6)
        x = T.Tensor(rng.normal(size=(7, 3)), requires_grad=recorded)
        w = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        c = T.Tensor(rng.normal(size=(7, 4)))
        want = np.maximum(x.data @ w.data, 0.0)
        with T.Tape() as tape:
            h = T.matmul(x, w)
            buffer = h.data
            y = T.relu(h, overwrite_input=True)
            assert y.data is buffer and np.array_equal(y.data, want)
            tape.backward(T.sum_all(T.mul_elementwise(y, c)))
        # the same gradients as a ReLU into a buffer of its own
        got = [t.grad for t in (x, w) if t.requires_grad]
        for t in (x, w):
            t.zero_grad()
        with T.Tape() as tape:
            tape.backward(T.sum_all(T.mul_elementwise(T.relu(T.matmul(x, w)), c)))
        for a, t in zip(got, [t for t in (x, w) if t.requires_grad]):
            assert np.array_equal(a, t.grad)

    def test_node_holds_no_tensor(self):
        x = T.Tensor(np.ones((2, 3)), requires_grad=True)
        w = T.Tensor(np.ones((3, 3)), requires_grad=True)
        with T.Tape() as tape:
            y = T.relu(T.matmul(x, w))
            node = y.tape_node
            assert node.shape == (2, 3) and node.grad is None
            assert not any(isinstance(v, T.Tensor) for v in
                           (getattr(node, slot) for slot in node.__slots__))
            tape.backward(T.sum_all(y))
        assert node.backward_fn is None and node.grad is None
