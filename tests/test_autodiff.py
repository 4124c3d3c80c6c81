"""Engine tests: operator values, gradients, tape mechanics, invariants."""

import math

import numpy as np
import pytest

from attrembed import autodiff as ad
from attrembed.autodiff import Parameter, Tape, Tensor, backward, grad_check, recording
from attrembed.errors import (
    ContractError,
    DegenerateVectorError,
    DimensionError,
    NumericalError,
)


def run_backward(build):
    """Record `build` on a fresh tape, backpropagate, return its output."""
    tape = Tape()
    with recording(tape):
        loss = build()
    backward(tape, loss)
    return loss


class TestTensorBasics:
    def test_int_input_promoted_to_float64(self):
        t = Tensor([1, 2, 3])
        assert t.dtype == np.float64

    def test_float32_preserved(self):
        t = Tensor(np.zeros(3, dtype=np.float32))
        assert t.dtype == np.float32

    def test_rank_limit(self):
        with pytest.raises(DimensionError):
            Tensor(np.zeros((1, 1, 1, 1, 1)))

    def test_grad_accumulates_additively(self):
        t = Tensor([1.0, 2.0])
        t.accumulate_grad(np.array([1.0, 1.0]))
        t.accumulate_grad(np.array([0.5, -1.0]))
        np.testing.assert_array_equal(t.grad, [1.5, 0.0])


class TestOperatorValues:
    def test_conv_1x1(self):
        inp = Tensor([[[1.0, 2.0]], [[3.0, 4.0]]])
        kernel = Tensor([[1.0, 2.0], [0.5, -1.0]])
        out = ad.conv_1x1(inp, kernel)
        np.testing.assert_allclose(out.data, [[[7.0, 10.0]], [[-2.5, -3.0]]])

    def test_conv_1x1_bias(self):
        inp = Tensor([[[1.0, 2.0]], [[3.0, 4.0]]])
        kernel = Tensor([[1.0, 2.0], [0.5, -1.0]])
        out = ad.conv_1x1(inp, kernel, Tensor([1.0, -1.0]))
        np.testing.assert_allclose(out.data, [[[8.0, 11.0]], [[-3.5, -4.0]]])

    def test_conv_1x1_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ad.conv_1x1(Tensor(np.zeros((3, 2, 2))), Tensor(np.zeros((4, 2))))

    def test_fully_connected(self):
        out = ad.fully_connected(
            Tensor([0.5, 1.0]), Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([0.25, -0.25])
        )
        np.testing.assert_allclose(out.data, [2.75, 5.25])

    def test_activations(self):
        x = Tensor([-2.0, 0.0, 3.0])
        np.testing.assert_allclose(ad.pointwise_activation(x, "relu").data, [0.0, 0.0, 3.0])
        np.testing.assert_allclose(
            ad.pointwise_activation(Tensor([0.0]), "tanh").data, [0.0]
        )
        np.testing.assert_allclose(
            ad.pointwise_activation(Tensor([math.log(3.0)]), "sigmoid").data, [0.75]
        )

    def test_sigmoid_extreme_inputs_stay_finite(self):
        out = ad.pointwise_activation(Tensor([-1000.0, 1000.0]), "sigmoid")
        np.testing.assert_allclose(out.data, [0.0, 1.0])

    def test_unknown_activation(self):
        with pytest.raises(ContractError):
            ad.pointwise_activation(Tensor([1.0]), "swish")

    def test_softmax_flat(self):
        scores = Tensor(np.array([[math.log(2.0), 0.0], [0.0, 0.0]])[None])
        out = ad.softmax_flat(scores)
        np.testing.assert_allclose(out.data, [[0.4, 0.2], [0.2, 0.2]])

    def test_weighted_spatial_sum(self):
        features = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]])[None])
        hot = ad.weighted_spatial_sum(features, Tensor([[1.0, 0.0], [0.0, 0.0]]))
        np.testing.assert_allclose(hot.data, [1.0])
        uniform = ad.weighted_spatial_sum(features, Tensor(np.full((2, 2), 0.25)))
        np.testing.assert_allclose(uniform.data, [2.5])

    def test_mean_pool_equals_uniform_weighted_sum_bitwise(self, rng):
        features = Tensor(rng.normal(size=(5, 3, 4)))
        uniform = Tensor(np.full((3, 4), 1.0 / 12.0))
        a = ad.mean_pool_spatial(features).data
        b = ad.weighted_spatial_sum(features, uniform).data
        assert a.tobytes() == b.tobytes()

    def test_elementwise_mul(self):
        out = ad.elementwise_combine(Tensor([1.0, -3.0]), Tensor([2.0, 2.0]), "mul")
        np.testing.assert_allclose(out.data, [2.0, -6.0])

    def test_concat(self):
        out = ad.elementwise_combine(Tensor([1.0, 2.0]), Tensor([3.0]), "concat")
        np.testing.assert_allclose(out.data, [1.0, 2.0, 3.0])

    def test_cosine_similarity(self):
        out = ad.cosine_similarity(Tensor([1.0, 0.0]), Tensor([1.0, 1.0]))
        np.testing.assert_allclose(float(out.data), 1.0 / math.sqrt(2.0))

    def test_cosine_degenerate(self):
        with pytest.raises(DegenerateVectorError):
            ad.cosine_similarity(Tensor([0.0, 0.0]), Tensor([1.0, 0.0]))

    def test_matrix_column(self):
        out = ad.matrix_column(Tensor([[1.0, 2.0], [3.0, 4.0]]), 1)
        np.testing.assert_allclose(out.data, [2.0, 4.0])

    def test_matrix_column_out_of_range(self):
        with pytest.raises(ContractError):
            ad.matrix_column(Tensor([[1.0, 2.0]]), 2)

    def test_broadcast_spatial(self):
        out = ad.broadcast_spatial(Tensor([1.0, 2.0]), 2, 3)
        assert out.shape == (2, 2, 3)
        np.testing.assert_allclose(out.data[1], np.full((2, 3), 2.0))

    def test_batch_item(self):
        batch = Tensor(np.arange(12.0).reshape(3, 4))
        np.testing.assert_allclose(ad.batch_item(batch, 2).data, [8.0, 9.0, 10.0, 11.0])

    def test_scalar_reducers(self):
        assert float(ad.scalar_mean(Tensor([1.0, 2.0, 6.0])).data) == 3.0
        assert float(ad.tensor_sum(Tensor([[1.0, 2.0], [3.0, 4.0]])).data) == 10.0

    def test_arithmetic(self):
        a, b = Tensor([3.0]), Tensor([1.0])
        np.testing.assert_allclose(ad.subtract(a, b).data, [2.0])
        np.testing.assert_allclose(ad.add_constant(a, 0.5).data, [3.5])


class TestOperatorGradients:
    """Each operator, wrapped to a scalar, against central differences."""

    def check(self, build_loss, arrays):
        params = [Parameter(a.copy(), name=f"p{i}") for i, a in enumerate(arrays)]
        report = grad_check(lambda: build_loss(*[p.tensor for p in params]), params)
        assert report.passed, report.summary()

    def test_conv_1x1(self, rng):
        self.check(
            lambda x, k, b: ad.tensor_sum(
                ad.pointwise_activation(ad.conv_1x1(x, k, b), "tanh")
            ),
            [rng.normal(size=(3, 4, 2)), rng.normal(size=(5, 3)), rng.normal(size=5)],
        )

    def test_fully_connected(self, rng):
        self.check(
            lambda x, w, b: ad.tensor_sum(
                ad.pointwise_activation(ad.fully_connected(x, w, b), "sigmoid")
            ),
            [rng.normal(size=6), rng.normal(size=(4, 6)), rng.normal(size=4)],
        )

    @pytest.mark.parametrize("kind", ["tanh", "relu", "sigmoid"])
    def test_activations(self, rng, kind):
        # keep clear of the relu kink, where the subgradient convention
        # makes finite differences disagree by design
        x = rng.normal(size=(3, 3)) + np.where(rng.normal(size=(3, 3)) > 0, 0.1, -0.1)
        self.check(lambda t: ad.tensor_sum(ad.pointwise_activation(t, kind)), [x])

    def test_softmax(self, rng):
        weights = rng.normal(size=(3, 4))

        def loss(s):
            return ad.tensor_sum(
                ad.elementwise_combine(ad.softmax_flat(s), Tensor(weights.copy()), "mul")
            )

        self.check(loss, [rng.normal(size=(1, 3, 4))])

    def test_weighted_spatial_sum(self, rng):
        self.check(
            lambda f, w: ad.tensor_sum(ad.weighted_spatial_sum(f, w)),
            [rng.normal(size=(4, 2, 3)), rng.normal(size=(2, 3))],
        )

    def test_mean_pool(self, rng):
        self.check(
            lambda f: ad.tensor_sum(ad.mean_pool_spatial(f)), [rng.normal(size=(4, 3, 3))]
        )

    def test_mul_and_concat(self, rng):
        self.check(
            lambda a, b: ad.tensor_sum(ad.elementwise_combine(a, b, "mul")),
            [rng.normal(size=5), rng.normal(size=5)],
        )
        self.check(
            lambda a, b: ad.tensor_sum(
                ad.pointwise_activation(ad.elementwise_combine(a, b, "concat"), "tanh")
            ),
            [rng.normal(size=3), rng.normal(size=4)],
        )

    def test_cosine(self, rng):
        self.check(
            lambda u, v: ad.cosine_similarity(u, v),
            [rng.normal(size=6), rng.normal(size=6)],
        )

    def test_column_and_broadcast(self, rng):
        def loss(w):
            col = ad.matrix_column(w, 1)
            grid = ad.broadcast_spatial(col, 2, 2)
            return ad.tensor_sum(ad.pointwise_activation(grid, "tanh"))

        self.check(loss, [rng.normal(size=(3, 4))])

    def test_batch_item(self, rng):
        def loss(b):
            return ad.tensor_sum(
                ad.elementwise_combine(ad.batch_item(b, 0), ad.batch_item(b, 2), "mul")
            )

        self.check(loss, [rng.normal(size=(3, 5))])

    def test_fan_out_accumulation(self):
        # y = sum of x concatenated with itself: dy/dx = 2 exactly
        p = Parameter(np.array([3.0]), name="x")
        tape = Tape()
        with recording(tape):
            y = ad.tensor_sum(ad.elementwise_combine(p.tensor, p.tensor, "concat"))
        backward(tape, y)
        np.testing.assert_array_equal(p.grad, [2.0])

    def test_negative_control_catches_wrong_gradient(self, rng):
        p = Parameter(rng.normal(size=4), name="x")
        wrong = {"x": np.full(4, 17.0)}
        report = grad_check(
            lambda: ad.tensor_sum(ad.pointwise_activation(p.tensor, "tanh")),
            [p],
            analytic=wrong,
        )
        assert not report.passed
        assert "x" in report.failures


class TestInvariants:
    def test_softmax_properties_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            h, w = rng.integers(1, 6, size=2)
            scores = rng.normal(scale=3.0, size=(1, h, w))
            out = ad.softmax_flat(Tensor(scores)).data
            assert abs(out.sum() - 1.0) < 1e-12
            assert np.all(out > 0.0)
            shifted = ad.softmax_flat(Tensor(scores + 123.456)).data
            assert np.max(np.abs(out - shifted)) < 1e-12

    def test_sigmoid_open_interval(self):
        rng = np.random.default_rng(8)
        out = ad.pointwise_activation(Tensor(rng.normal(scale=5.0, size=500)), "sigmoid")
        assert np.all(out.data > 0.0) and np.all(out.data < 1.0)

    def test_relu_subgradient_zero_at_kink(self):
        p = Parameter(np.array([0.0, -1.0, 2.0]), name="x")
        tape = Tape()
        with recording(tape):
            y = ad.tensor_sum(ad.pointwise_activation(p.tensor, "relu"))
        backward(tape, y)
        np.testing.assert_array_equal(p.grad, [0.0, 0.0, 1.0])


class TestTapeMechanics:
    def test_no_recording_outside_context(self):
        out = ad.subtract(Tensor([1.0]), Tensor([2.0]))
        assert out.node_id is None

    def test_nested_recording_restores_previous(self):
        outer, inner = Tape(), Tape()
        with recording(outer):
            ad.subtract(Tensor([1.0]), Tensor([1.0]))
            with recording(inner):
                ad.subtract(Tensor([2.0]), Tensor([2.0]))
            ad.subtract(Tensor([3.0]), Tensor([3.0]))
        assert len(outer) == 2 and len(inner) == 1

    def test_backward_rejects_nonscalar(self):
        tape = Tape()
        with recording(tape):
            out = ad.subtract(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        with pytest.raises(ContractError):
            backward(tape, out)

    def test_backward_rejects_detached_loss(self):
        tape = Tape()
        with pytest.raises(ContractError):
            backward(tape, Tensor(np.asarray(1.0)))

    def test_backward_rejects_foreign_loss(self):
        tape_a, tape_b = Tape(), Tape()
        with recording(tape_a):
            loss = ad.scalar_mean(Tensor([1.0, 2.0]))
        with recording(tape_b):
            ad.scalar_mean(Tensor([3.0, 4.0]))
        with pytest.raises(ContractError):
            backward(tape_b, loss)

    def test_clear_empties_tape(self):
        tape = Tape()
        with recording(tape):
            ad.subtract(Tensor([1.0]), Tensor([1.0]))
        tape.clear()
        assert len(tape) == 0

    def test_finite_check_toggle(self):
        big = Tensor(np.array([1e308]))
        previous = ad.set_finite_checks(True)
        try:
            with np.errstate(over="ignore"):
                with pytest.raises(NumericalError):
                    ad.add_constant(big, 1e308)  # overflows to inf
                ad.set_finite_checks(False)
                out = ad.add_constant(big, 1e308)
            assert np.isinf(out.data[0])
        finally:
            ad.set_finite_checks(previous)


def weighted_total(t, rng):
    """Scalar sum of t against fixed random weights, so every entry of t
    reaches the loss with its own coefficient."""
    weights = Tensor(rng.normal(size=t.shape))
    return ad.tensor_sum(ad.elementwise_combine(t, weights, "mul"))


class TestBatchedOps:
    """The head operations on a leading batch axis: float64 gradients
    against central differences, and each row equal to the unbatched op."""

    def check(self, build_loss, arrays):
        params = [Parameter(a.copy(), name=f"p{i}") for i, a in enumerate(arrays)]
        report = grad_check(lambda: build_loss(*[p.tensor for p in params]), params)
        assert report.passed, report.summary()

    def test_conv_1x1(self, rng):
        self.check(
            lambda x, k, b: weighted_total(ad.conv_1x1(x, k, b), np.random.default_rng(1)),
            [rng.normal(size=(3, 4, 2, 3)), rng.normal(size=(5, 4)), rng.normal(size=5)],
        )
        x, k = rng.normal(size=(3, 4, 2, 3)), Tensor(rng.normal(size=(5, 4)))
        batched = ad.conv_1x1(Tensor(x), k).data
        for i in range(3):
            np.testing.assert_allclose(batched[i], ad.conv_1x1(Tensor(x[i]), k).data, atol=1e-14)

    def test_fully_connected(self, rng):
        self.check(
            lambda x, w, b: weighted_total(ad.fully_connected(x, w, b), np.random.default_rng(2)),
            [rng.normal(size=(4, 6)), rng.normal(size=(3, 6)), rng.normal(size=3)],
        )

    @pytest.mark.parametrize("kind", ["tanh", "relu", "sigmoid"])
    def test_activations(self, rng, kind):
        x = rng.normal(size=(3, 2, 2, 2))
        x += np.where(x > 0, 0.1, -0.1)  # clear of the relu kink
        self.check(
            lambda t: weighted_total(ad.pointwise_activation(t, kind), np.random.default_rng(3)),
            [x],
        )

    def test_softmax(self, rng):
        self.check(
            lambda s: weighted_total(ad.softmax_flat(s), np.random.default_rng(4)),
            [rng.normal(size=(3, 1, 2, 3))],
        )
        scores = rng.normal(size=(3, 1, 2, 3))
        batched = ad.softmax_flat(Tensor(scores)).data
        assert batched.shape == (3, 2, 3)
        np.testing.assert_allclose(batched.sum(axis=(1, 2)), 1.0, atol=1e-12)
        for i in range(3):
            np.testing.assert_allclose(
                batched[i], ad.softmax_flat(Tensor(scores[i])).data, atol=1e-15
            )

    def test_weighted_spatial_sum_and_mean_pool(self, rng):
        self.check(
            lambda f, w: weighted_total(ad.weighted_spatial_sum(f, w), np.random.default_rng(5)),
            [rng.normal(size=(3, 4, 2, 3)), rng.normal(size=(3, 2, 3))],
        )
        self.check(
            lambda f: weighted_total(ad.mean_pool_spatial(f), np.random.default_rng(6)),
            [rng.normal(size=(3, 4, 2, 3))],
        )
        f = rng.normal(size=(3, 4, 2, 3))
        np.testing.assert_allclose(
            ad.mean_pool_spatial(Tensor(f)).data, f.mean(axis=(2, 3)), atol=1e-15
        )

    def test_mul_and_concat(self, rng):
        self.check(
            lambda a, b: weighted_total(ad.elementwise_combine(a, b, "mul"), np.random.default_rng(7)),
            [rng.normal(size=(3, 5)), rng.normal(size=(3, 5))],
        )
        self.check(
            lambda a, b: weighted_total(
                ad.elementwise_combine(a, b, "concat"), np.random.default_rng(8)
            ),
            [rng.normal(size=(3, 2)), rng.normal(size=(3, 4))],
        )

    def test_cosine(self, rng):
        self.check(
            lambda u, v: weighted_total(ad.cosine_similarity(u, v), np.random.default_rng(9)),
            [rng.normal(size=(4, 6)), rng.normal(size=(4, 6))],
        )
        u, v = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
        rows = ad.cosine_similarity(Tensor(u), Tensor(v)).data
        assert rows.shape == (4,)
        for i in range(4):
            assert math.isclose(
                rows[i], float(ad.cosine_similarity(Tensor(u[i]), Tensor(v[i])).data), abs_tol=1e-15
            )

    def test_cosine_degenerate_row(self, rng):
        u = rng.normal(size=(3, 4))
        v = rng.normal(size=(3, 4))
        v[2] = 1e-14
        with pytest.raises(DegenerateVectorError, match="row 2"):
            ad.cosine_similarity(Tensor(u), Tensor(v))
        u[1] = 0.0
        with pytest.raises(DegenerateVectorError, match="row 1"):
            ad.cosine_similarity(Tensor(u), Tensor(rng.normal(size=(3, 4))))

    def test_matrix_column_gather_with_repeats(self, rng):
        columns = np.array([2, 0, 2, 2, 1])
        self.check(
            lambda w: weighted_total(
                ad.pointwise_activation(ad.matrix_column(w, columns), "tanh"),
                np.random.default_rng(10),
            ),
            [rng.normal(size=(3, 4))],
        )
        w = rng.normal(size=(3, 4))
        np.testing.assert_array_equal(ad.matrix_column(Tensor(w), columns).data, w[:, columns].T)

    def test_matrix_column_repeats_accumulate(self):
        w = Parameter(np.zeros((2, 3)), name="w")
        tape = Tape()
        with recording(tape):
            loss = ad.tensor_sum(ad.matrix_column(w.tensor, np.array([1, 1, 1, 0])))
        backward(tape, loss)
        np.testing.assert_array_equal(w.grad, [[1.0, 3.0, 0.0], [1.0, 3.0, 0.0]])

    def test_gather_indices_checked(self):
        with pytest.raises(ContractError):
            ad.matrix_column(Tensor(np.zeros((2, 3))), np.array([0, 3]))
        with pytest.raises(ContractError):
            ad.batch_item(Tensor(np.zeros((2, 3))), np.array([-1, 0]))
        with pytest.raises(ContractError):
            ad.batch_item(Tensor(np.zeros((2, 3))), np.array([0.0]))

    def test_batch_item_gather_with_repeats(self, rng):
        rows = np.array([3, 0, 3, 1, 3])
        self.check(
            lambda b: weighted_total(ad.batch_item(b, rows), np.random.default_rng(11)),
            [rng.normal(size=(4, 2, 3))],
        )
        b = Parameter(np.zeros((3, 2)), name="b")
        tape = Tape()
        with recording(tape):
            loss = ad.tensor_sum(ad.batch_item(b.tensor, np.array([2, 2, 0])))
        backward(tape, loss)
        np.testing.assert_array_equal(b.grad, [[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]])

    def test_broadcast_spatial(self, rng):
        self.check(
            lambda v: weighted_total(ad.broadcast_spatial(v, 2, 3), np.random.default_rng(12)),
            [rng.normal(size=(3, 4))],
        )
        out = ad.broadcast_spatial(Tensor(np.arange(6.0).reshape(2, 3)), 2, 2)
        assert out.shape == (2, 3, 2, 2)
        np.testing.assert_array_equal(out.data[1, 2], np.full((2, 2), 5.0))

    def test_rowwise_hinge_and_mean(self, rng):
        def loss(pos, neg):
            gap = ad.add_constant(ad.subtract(neg, pos), 0.3)
            return ad.scalar_mean(ad.pointwise_activation(gap, "relu"))

        pos = rng.uniform(-1.0, 1.0, size=6)
        neg = rng.uniform(-1.0, 1.0, size=6)
        neg[np.abs(neg - pos + 0.3) < 0.05] += 0.2  # clear of the relu kink
        self.check(loss, [pos, neg])
        expected = np.maximum(0.0, 0.3 - pos + neg).mean()
        assert math.isclose(float(loss(Tensor(pos), Tensor(neg)).data), expected, abs_tol=1e-15)

    def test_scalar_mean_rejects_non_vectors(self):
        with pytest.raises(DimensionError):
            ad.scalar_mean(Tensor(np.zeros((2, 2))))
        with pytest.raises(DimensionError):
            ad.scalar_mean(Tensor(np.zeros(0)))
