"""Autodiff engine: forward values, gradients vs central differences,
shape/index validation, and numerical-stability behavior."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gnnpeft import tensor as T
from gnnpeft.rng import RngStream

from gradcheck import assert_grads_close


def _rand(rng, *shape, guard=0.0):
    """Standard-normal array; |x| >= guard elementwise when guard > 0."""
    x = rng.normal(size=shape)
    if guard:
        x = np.where(np.abs(x) < guard, guard * np.sign(x) + (x == 0) * guard, x)
    return x


class TestTapeMechanics:
    def test_no_tape_no_recording(self):
        x = T.Tensor(np.ones((2, 2)), requires_grad=True)
        y = T.relu(x)
        assert y.requires_grad is False
        assert y.tape_node is None

    def test_frozen_inputs_not_recorded(self):
        x = T.Tensor(np.ones((2, 2)), requires_grad=False)
        with T.Tape() as tape:
            y = T.relu(x)
        assert y.requires_grad is False
        assert len(tape.nodes) == 0

    def test_backward_requires_scalar(self):
        x = T.Tensor(np.ones((2, 2)), requires_grad=True)
        with T.Tape() as tape:
            y = T.relu(x)
            with pytest.raises(T.ShapeMismatchError):
                tape.backward(y)

    def test_shared_input_accumulates(self):
        x = T.Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        with T.Tape() as tape:
            loss = T.sum_all(T.add(x, x))
            tape.backward(loss)
        np.testing.assert_allclose(x.grad, 2.0 * np.ones((1, 2)))

    def test_set_requires_grad_toggles_buffer(self):
        # turning gradients on allocates nothing; the first one creates the
        # buffer, and turning them off drops it
        x = T.Tensor(np.ones(3))
        assert x.grad is None
        x.set_requires_grad(True)
        assert x.grad is None
        with T.Tape() as tape:
            tape.backward(T.sum_all(x))
        assert np.array_equal(x.grad, np.ones(3))
        x.set_requires_grad(False)
        assert x.grad is None


class TestMatmul:
    def test_forward(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = T.Tensor([[5.0], [6.0]])
        np.testing.assert_allclose(T.matmul(a, b).data, [[17.0], [39.0]])

    def test_grad(self):
        rng = np.random.default_rng(0)
        a = T.Tensor(_rand(rng, 4, 3), requires_grad=True)
        b = T.Tensor(_rand(rng, 3, 5), requires_grad=True)
        assert_grads_close(lambda ps: T.sum_all(T.matmul(ps[0], ps[1])), (a, b))

    def test_inner_mismatch_names_both_shapes(self):
        a = T.Tensor(np.ones((2, 3)))
        b = T.Tensor(np.ones((4, 2)))
        with pytest.raises(T.ShapeMismatchError, match=r"\(2, 3\).*\(4, 2\)"):
            T.matmul(a, b)


class TestGatherScatter:
    def test_gather_forward_and_grad(self):
        rng = np.random.default_rng(1)
        table = T.Tensor(_rand(rng, 5, 3), requires_grad=True)
        idx = np.array([0, 2, 2, 4])
        out = T.gather_rows(table, idx)
        np.testing.assert_allclose(out.data, table.data[idx])
        assert_grads_close(lambda ps: T.sum_all(T.gather_rows(ps[0], idx)), (table,))

    def test_gather_out_of_range(self):
        table = T.Tensor(np.ones((3, 2)))
        with pytest.raises(IndexError):
            T.gather_rows(table, np.array([0, 3]))
        with pytest.raises(IndexError):
            T.gather_rows(table, np.array([-1]))

    def test_scatter_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        vals = _rand(rng, 7, 4)
        ids = np.array([0, 1, 1, 3, 0, 3, 3])
        out = T.scatter_sum(T.Tensor(vals), ids, 5)
        expect = np.zeros((5, 4))
        for i, s in enumerate(ids):
            expect[s] += vals[i]
        np.testing.assert_allclose(out.data, expect)
        assert np.all(out.data[2] == 0.0) and np.all(out.data[4] == 0.0)

    def test_scatter_grad(self):
        rng = np.random.default_rng(3)
        vals = T.Tensor(_rand(rng, 6, 3), requires_grad=True)
        ids = np.array([2, 0, 2, 1, 1, 2])
        assert_grads_close(
            lambda ps: T.sum_all(T.relu(T.scatter_sum(ps[0], ids, 3))), (vals,))

    def test_scatter_id_out_of_range(self):
        with pytest.raises(IndexError):
            T.scatter_sum(T.Tensor(np.ones((2, 2))), np.array([0, 5]), 3)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_scatter_preserves_total(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 20))
        vals = rng.normal(size=(n, 3))
        ids = rng.integers(0, 4, size=n)
        out = T.scatter_sum(T.Tensor(vals), ids, 4)
        np.testing.assert_allclose(out.data.sum(axis=0), vals.sum(axis=0), atol=1e-9)


class TestMeanPool:
    def test_forward_with_empty_segment(self):
        x = T.Tensor(np.array([[2.0, 4.0], [6.0, 8.0], [1.0, 1.0]]))
        ids = np.array([0, 0, 2])
        out = T.segment_mean_pool(x, ids, 3)
        np.testing.assert_allclose(out.data, [[4.0, 6.0], [0.0, 0.0], [1.0, 1.0]])

    def test_grad(self):
        rng = np.random.default_rng(4)
        x = T.Tensor(_rand(rng, 5, 3), requires_grad=True)
        ids = np.array([0, 1, 1, 1, 0])
        assert_grads_close(
            lambda ps: T.sum_all(T.relu(T.segment_mean_pool(ps[0], ids, 2))), (x,))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_constant_rows_pool_to_constant(self, seed):
        rng = np.random.default_rng(seed)
        c = rng.normal(size=3)
        n = int(rng.integers(1, 9))
        x = T.Tensor(np.tile(c, (n, 1)))
        out = T.segment_mean_pool(x, np.zeros(n, dtype=int), 1)
        np.testing.assert_allclose(out.data[0], c, rtol=1e-12)


class TestElementwise:
    def test_add_same_and_bias(self):
        rng = np.random.default_rng(5)
        a = T.Tensor(_rand(rng, 3, 4), requires_grad=True)
        b = T.Tensor(_rand(rng, 3, 4), requires_grad=True)
        bias = T.Tensor(_rand(rng, 4), requires_grad=True)
        assert_grads_close(lambda ps: T.sum_all(T.add(ps[0], ps[1])), (a, b))

        def build(ps):
            h = T.add(ps[0], ps[1])
            return T.sum_all(T.mul_elementwise(h, h))
        assert_grads_close(build, (a, bias))

    def test_add_shape_error(self):
        with pytest.raises(T.ShapeMismatchError, match=r"\(2, 3\).*\(3, 2\)"):
            T.add(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((3, 2))))

    def test_mul_scalar(self):
        x = T.Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
        assert_grads_close(lambda ps: T.sum_all(T.mul_scalar(ps[0], 2.5)), (x,))
        np.testing.assert_allclose(T.mul_scalar(x, 2.5).data, [[2.5, -5.0]])

    def test_mul_elementwise_variants(self):
        rng = np.random.default_rng(6)
        a = T.Tensor(_rand(rng, 3, 4), requires_grad=True)
        b = T.Tensor(_rand(rng, 3, 4), requires_grad=True)
        s = T.Tensor(np.array([0.7]), requires_grad=True)
        row = T.Tensor(_rand(rng, 4), requires_grad=True)
        assert_grads_close(lambda ps: T.sum_all(T.mul_elementwise(ps[0], ps[1])), (a, b))
        assert_grads_close(lambda ps: T.sum_all(T.mul_elementwise(ps[0], ps[1])), (a, s))
        assert_grads_close(lambda ps: T.sum_all(T.mul_elementwise(ps[0], ps[1])), (a, row))

    def test_relu_grad_away_from_kink(self):
        rng = np.random.default_rng(7)
        x = T.Tensor(_rand(rng, 4, 4, guard=1e-2), requires_grad=True)
        assert_grads_close(lambda ps: T.sum_all(T.relu(ps[0])), (x,))

    def test_sigmoid_grad_and_range(self):
        rng = np.random.default_rng(8)
        x = T.Tensor(_rand(rng, 3, 3), requires_grad=True)
        assert_grads_close(lambda ps: T.sum_all(T.sigmoid(ps[0])), (x,))
        big = T.sigmoid(T.Tensor(np.array([[-800.0, 800.0]])))
        assert np.all(np.isfinite(big.data))
        assert 0.0 <= big.data[0, 0] < 1e-300 and big.data[0, 1] == 1.0

    def test_row_dot(self):
        rng = np.random.default_rng(9)
        a = T.Tensor(_rand(rng, 5, 3), requires_grad=True)
        b = T.Tensor(_rand(rng, 5, 3), requires_grad=True)
        out = T.row_dot(a, b)
        np.testing.assert_allclose(out.data, (a.data * b.data).sum(axis=1))
        assert_grads_close(lambda ps: T.sum_all(T.row_dot(ps[0], ps[1])), (a, b))


class TestDropout:
    def test_eval_and_p0_are_identity(self):
        x = T.Tensor(np.ones((4, 4)), requires_grad=True)
        assert T.dropout(x, 0.5, None, "eval") is x
        assert T.dropout(x, 0.0, None, "train") is x

    def test_train_mask_and_scaling(self):
        x = T.Tensor(np.ones((200, 10)))
        out = T.dropout(x, 0.25, RngStream(3, ("drop",)), "train")
        vals = np.unique(out.data)
        np.testing.assert_allclose(vals, [0.0, 1.0 / 0.75])
        keep_frac = np.mean(out.data != 0.0)
        assert abs(keep_frac - 0.75) < 0.03

    def test_train_grad_with_deterministic_stream(self):
        rng = np.random.default_rng(10)
        x = T.Tensor(_rand(rng, 4, 5), requires_grad=True)

        def build(ps):
            return T.sum_all(T.dropout(ps[0], 0.5, RngStream(11, ("d",)), "train"))
        assert_grads_close(build, (x,))

    def test_bad_p_rejected(self):
        x = T.Tensor(np.ones((2, 2)))
        with pytest.raises(ValueError):
            T.dropout(x, 1.0, None, "train")
        with pytest.raises(ValueError):
            T.dropout(x, -0.1, None, "train")

    def test_missing_stream_rejected(self):
        with pytest.raises(ValueError, match="rng"):
            T.dropout(T.Tensor(np.ones((2, 2))), 0.5, None, "train")


class TestBceWithLogits:
    def test_matches_naive_formula(self):
        rng = np.random.default_rng(12)
        z = rng.normal(size=(4, 3)) * 3
        y = (rng.random((4, 3)) < 0.5).astype(float)
        loss = T.bce_with_logits(T.Tensor(z), y)
        p = 1.0 / (1.0 + np.exp(-z))
        naive = -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()
        np.testing.assert_allclose(float(loss.data), naive, rtol=1e-12)

    def test_extreme_logits_stay_finite(self):
        z = T.Tensor(np.array([[-500.0, 500.0]]))
        y = np.array([[1.0, 0.0]])
        loss = T.bce_with_logits(z, y)
        assert np.isfinite(loss.data)
        np.testing.assert_allclose(float(loss.data), 500.0, rtol=1e-12)

    def test_mask_selects_mean(self):
        z = np.array([[0.0, 100.0], [0.0, -100.0]])
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        mask = np.array([[True, False], [True, False]])
        loss = T.bce_with_logits(T.Tensor(z), y, mask)
        np.testing.assert_allclose(float(loss.data), np.log(2.0), rtol=1e-12)

    def test_all_masked_raises(self):
        with pytest.raises(T.EmptyLossError):
            T.bce_with_logits(T.Tensor(np.zeros((2, 2))), np.zeros((2, 2)),
                              np.zeros((2, 2), dtype=bool))

    def test_grad(self):
        rng = np.random.default_rng(13)
        z = T.Tensor(_rand(rng, 5, 2), requires_grad=True)
        y = (rng.random((5, 2)) < 0.5).astype(float)
        mask = rng.random((5, 2)) < 0.8
        if not mask.any():
            mask[0, 0] = True
        assert_grads_close(lambda ps: T.bce_with_logits(ps[0], y, mask), (z,))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_loss_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(3, 2)) * 10
        y = (rng.random((3, 2)) < 0.5).astype(float)
        loss = T.bce_with_logits(T.Tensor(z), y)
        assert float(loss.data) >= 0.0


class TestBatchNorm:
    def test_train_normalizes_batch(self):
        rng = np.random.default_rng(14)
        x = T.Tensor(rng.normal(2.0, 3.0, size=(64, 5)))
        st_ = T.BatchNormState.fresh(5)
        out = T.batchnorm1d(x, st_, "train")
        np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.data.var(axis=0), 1.0, atol=1e-4)

    def test_running_stats_update(self):
        rng = np.random.default_rng(15)
        x = rng.normal(1.0, 2.0, size=(32, 3))
        st_ = T.BatchNormState.fresh(3)
        T.batchnorm1d(T.Tensor(x), st_, "train")
        np.testing.assert_allclose(st_.running_mean, 0.1 * x.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(
            st_.running_var, 0.9 * 1.0 + 0.1 * x.var(axis=0, ddof=1), rtol=1e-12)

    def test_eval_uses_running_stats(self):
        st_ = T.BatchNormState.fresh(2)
        st_.running_mean[:] = [1.0, -1.0]
        st_.running_var[:] = [4.0, 0.25]
        x = T.Tensor(np.array([[3.0, 0.0]]))
        out = T.batchnorm1d(x, st_, "eval")
        expect = (x.data - st_.running_mean) / np.sqrt(st_.running_var + 1e-5)
        np.testing.assert_allclose(out.data, expect, rtol=1e-12)

    def test_eval_allows_single_row_train_does_not(self):
        st_ = T.BatchNormState.fresh(2)
        x = T.Tensor(np.ones((1, 2)))
        T.batchnorm1d(x, st_, "eval")
        with pytest.raises(T.DegenerateBatchError):
            T.batchnorm1d(x, st_, "train")

    def test_train_grad_all_paths(self):
        rng = np.random.default_rng(16)
        x = T.Tensor(_rand(rng, 6, 3), requires_grad=True)
        st_ = T.BatchNormState.fresh(3)
        st_.gamma.data[:] = rng.normal(1.0, 0.2, size=3)
        st_.beta.data[:] = rng.normal(0.0, 0.2, size=3)

        def build(ps):
            # fresh running buffers each call so repeated forwards are pure
            s2 = T.BatchNormState(st_.gamma, st_.beta, np.zeros(3), np.ones(3))
            h = T.batchnorm1d(ps[0], s2, "train")
            return T.sum_all(T.mul_elementwise(h, h))
        assert_grads_close(build, (x, st_.gamma, st_.beta))

    def test_eval_grad(self):
        rng = np.random.default_rng(17)
        x = T.Tensor(_rand(rng, 4, 3), requires_grad=True)
        st_ = T.BatchNormState.fresh(3)
        st_.running_mean[:] = rng.normal(size=3)
        st_.running_var[:] = 0.5 + rng.random(3)

        def build(ps):
            h = T.batchnorm1d(ps[0], st_, "eval")
            return T.sum_all(T.mul_elementwise(h, h))
        assert_grads_close(build, (x, st_.gamma, st_.beta))

    def test_affine_shape_check(self):
        st_ = T.BatchNormState.fresh(3)
        with pytest.raises(T.ShapeMismatchError):
            T.batchnorm1d(T.Tensor(np.ones((4, 2))), st_, "train")

    def test_unknown_mode(self):
        st_ = T.BatchNormState.fresh(2)
        with pytest.raises(ValueError):
            T.batchnorm1d(T.Tensor(np.ones((4, 2))), st_, "predict")
