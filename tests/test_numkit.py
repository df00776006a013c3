import functools
import math
import operator
import os

import numpy as np
import pytest

from fusecast.numkit import (
    AdamState,
    TrainingDiverged,
    adam_step,
    block_views,
    check_real,
    finite_diff_grad,
    fit_epochs,
    mlp_backward,
    mlp_forward,
    row_sums,
    usable_cpus,
)


class TestAdam:
    def test_zero_gradient_noop(self):
        p = np.array([1.0, -2.0])
        state = AdamState.init(p, eta=0.01)
        assert adam_step(p, np.zeros(2), state) is None
        assert np.array_equal(p, [1.0, -2.0])
        assert state.step == 1

    def test_first_step_magnitude(self):
        # fresh state, grad 1: bias correction gives mhat=g, vhat=g^2, step ~ eta
        p = np.array([0.0])
        adam_step(p, np.array([1.0]), AdamState.init(p, eta=0.001))
        assert float(p[0]) == pytest.approx(-0.001, rel=1e-6)

    def test_second_identical_gradient_similar_magnitude(self):
        p = np.array([0.0])
        state = AdamState.init(p, eta=0.001)
        adam_step(p, np.array([1.0]), state)
        step1 = abs(float(p[0]))
        p1 = float(p[0])
        adam_step(p, np.array([1.0]), state)
        step2 = abs(float(p[0]) - p1)
        assert abs(step2 - step1) <= 0.1 * step1

    def test_two_step_hand_values(self):
        # step 1: mhat = g and vhat = g^2, so each entry moves by ~eta*sign(g);
        # step 2: m = [0.14, -0.13], v = [0.001249, 0.004246], corrected by
        # 1 - 0.9^2 and 1 - 0.999^2
        p = np.array([0.0, 1.0])
        state = AdamState.init(p, eta=0.1)
        adam_step(p, np.array([1.0, -2.0]), state)
        assert p == pytest.approx([-0.1, 1.1], rel=1e-7)
        adam_step(p, np.array([0.5, 0.5]), state)
        assert state.m == pytest.approx([0.14, -0.13], rel=1e-12)
        assert state.v == pytest.approx([0.001249, 0.004246], rel=1e-12)
        assert p == pytest.approx([-0.19321796, 1.14694682], rel=1e-7)

    def test_steps_the_parameters_in_place_and_leaves_the_gradient(self):
        p, g = np.array([1.0, -2.0, 3.0]), np.array([0.5, 0.0, -1.0])
        buffer = p
        adam_step(p, g, AdamState.init(p, eta=0.01))
        assert p is buffer and p == pytest.approx([0.99, -2.0, 3.01], rel=1e-7)
        assert np.array_equal(g, [0.5, 0.0, -1.0])

    def test_shape_mismatch(self):
        state = AdamState.init(np.zeros(2), eta=0.01)
        with pytest.raises(ValueError, match=r"^parameter shape \(2,\), gradient \(2, 1\), moments \(2,\)$"):
            adam_step(np.zeros(2), np.zeros((2, 1)), state)


class TestFiniteDiff:
    def test_quadratic(self):
        grads = finite_diff_grad(lambda ps: float(ps[0]) ** 2, [np.array(3.0)], 1e-5)
        assert abs(float(grads[0]) - 6.0) < 1e-6

    def test_constant(self):
        grads = finite_diff_grad(lambda ps: 7.5, [np.arange(4.0)], 1e-5)
        assert np.array_equal(grads[0], np.zeros(4))

    def test_relu_away_from_kink(self):
        grads = finite_diff_grad(lambda ps: max(float(ps[0]), 0.0), [np.array(1.0)], 1e-5)
        assert abs(float(grads[0]) - 1.0) < 1e-6

    def test_nonfinite_objective_rejected(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda ps: float("nan"), [np.array(1.0)], 1e-5)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda ps: 0.0, [np.array(1.0)], 0.0)


def _composite_loss(params, x, y):
    """(y - (w2 . max(0, W1 x + b1) + b2))^2 evaluated from raw arrays."""
    w1, b1, w2, b2 = params
    h = np.maximum(w1 @ x + b1, 0.0)
    return (y - (float(w2 @ h) + float(b2))) ** 2


def _composite_grad(params, x, y):
    """Hand chain rule for the composite above, independent of model code."""
    w1, b1, w2, b2 = params
    a = w1 @ x + b1
    h = np.maximum(a, 0.0)
    yhat = float(w2 @ h) + float(b2)
    g = 2.0 * (yhat - y)
    dh = g * w2
    da = dh * (a > 0)
    return [np.outer(da, x), da, g * h, np.array(g)]


def test_composite_gradients_match_oracle_at_random_points():
    """Analytic gradients of a one-hidden-layer ReLU net's squared error
    agree with the central-difference oracle at 1000 random non-kink points."""
    rng = np.random.default_rng(12345)
    checked = 0
    while checked < 1000:
        w1 = rng.standard_normal((3, 2))
        b1 = rng.standard_normal(3)
        w2 = rng.standard_normal(3)
        b2 = np.array(rng.standard_normal())
        x = rng.standard_normal(2)
        y = float(rng.standard_normal())
        if np.any(np.abs(w1 @ x + b1) <= 1e-3):
            continue
        params = [w1, b1, w2, b2]
        analytic = _composite_grad(params, x, y)
        numeric = finite_diff_grad(lambda ps: _composite_loss(ps, x, y), params, 1e-6)
        for a, n in zip(analytic, numeric):
            a, n = np.asarray(a), np.asarray(n)
            assert np.all(np.abs(a - n) <= 1e-8 + 1e-5 * np.maximum(np.abs(a), np.abs(n)))
        checked += 1


def test_bitwise_determinism():
    rng = np.random.default_rng(5)
    p = rng.standard_normal(4)
    g = rng.standard_normal(4)
    q = p.copy()
    adam_step(p, g, AdamState.init(p, eta=0.01))
    adam_step(q, g, AdamState.init(q, eta=0.01))
    assert p.tobytes() == q.tobytes()


class TestFitEpochs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_validation_loss_raises(self, bad):
        losses = iter([2.0, 1.0, bad])
        with pytest.raises(TrainingDiverged, match=r"^epoch 2: non-finite validation loss$"):
            fit_epochs(np.zeros(3), 4, lambda rows, epoch: 0.0, lambda epoch: next(losses), 10, None, 10, None)

    def test_numpy_overflow_warnings_are_off_in_the_loop(self):
        # the checks catch divergence, so an overflow in an update is no error
        def update(rows, epoch):
            return float(np.float64(1e300) * 1e300)

        _, history = fit_epochs(np.zeros(3), 4, update, lambda epoch: 1.0, 2, None, 2, None)
        assert history == [(np.inf, 1.0), (np.inf, 1.0)]

    def test_returns_a_copy_of_the_vector_of_the_lowest_validation_loss(self):
        # each epoch adds 1 to the vector; the validation loss is lowest
        # after epoch 1, and the patience lets every epoch run
        def update(rows, epoch):
            vector[:] += 1.0
            return 0.0

        vector = np.zeros(3)
        losses = iter([3.0, 1.0, 2.0, 4.0])
        best, history = fit_epochs(vector, 4, update, lambda epoch: next(losses), 4, None, 4, None)
        assert [val for _, val in history] == [3.0, 1.0, 2.0, 4.0]
        assert np.array_equal(best, [2.0, 2.0, 2.0]) and np.array_equal(vector, [4.0, 4.0, 4.0])
        assert not np.shares_memory(best, vector)

    def test_validate_is_required(self):
        # there is no mode that trains without a validation loss
        with pytest.raises(TypeError, match="validate"):
            fit_epochs(
                np.zeros(3), 4, lambda rows, epoch: 0.0,
                max_epochs=2, batch_size=None, patience=2, rng=None,
            )


class TestAdamStateInit:
    @pytest.mark.parametrize("eta", [float("nan"), float("inf"), 0.0, -1e-3])
    def test_rejects_non_finite_or_non_positive_eta(self, eta):
        with pytest.raises(ValueError, match="learning rate must be finite and positive"):
            AdamState.init(np.zeros(3), eta=eta)

    def test_eta_has_no_default(self):
        # every caller names its own learning rate
        with pytest.raises(TypeError, match="eta"):
            AdamState.init(np.zeros(3))

    def test_moments_are_flat_zeros(self):
        state = AdamState.init(np.ones(5), eta=0.1)
        assert state.m.shape == state.v.shape == (5,) and not np.any(state.m) and not np.any(state.v)


class TestFlatSteps:
    def test_in_place_adam_matches_the_textbook_update_bit_for_bit(self):
        rng = np.random.default_rng(7)
        p = rng.standard_normal(50)
        state = AdamState.init(p, eta=0.01)
        ref, m, v = p.copy(), np.zeros(50), np.zeros(50)
        for t in (1, 2, 3):
            g = rng.standard_normal(50)
            adam_step(p, g, state)
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g * g
            ref = ref - 0.01 * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
            assert p.tobytes() == ref.tobytes()
            assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes() and state.step == t

    def test_block_views_share_memory_and_cover_vector(self):
        vec = np.arange(7.0)
        a, b, c = block_views(vec, [(2, 2), (), (2,)])
        assert a.shape == (2, 2) and b.shape == () and c.shape == (2,)
        assert np.shares_memory(a, vec) and float(b) == 4.0 and np.array_equal(c, [5.0, 6.0])
        c[0] = -1.0
        assert vec[5] == -1.0
        with pytest.raises(ValueError, match="^blocks hold 4 values but the vector has 7$"):
            block_views(vec, [(2, 2)])


class TestRowSums:
    @staticmethod
    def cancelling_columns(rng, shape):
        """Columns of [1e16, x, -1e16, x, ...] (shifted by one row per
        column, x uniform in [0.5, 1.5)): terms that cancel, so the order
        of the adds shows in the sum's bits."""
        *_, rows, width = shape
        r, j = np.ogrid[:rows, :width]
        phase = (r + j) % 4
        return np.where(phase == 0, 1e16, np.where(phase == 2, -1e16, rng.uniform(0.5, 1.5, size=shape)))

    @pytest.mark.parametrize("stacked", [True, False], ids=["stacked", "one-stream"])
    @pytest.mark.parametrize("rows", [1, 7, 128, 5241])
    @pytest.mark.parametrize("width", [1, 2, 32])
    def test_rows_added_in_order_and_pairwise_at_one_column(self, width, rows, stacked):
        # the kernels' bias gradients: a row sum of the first rows of a
        # larger (2, rows, width) workspace buffer, both streams at once or
        # one, into a view of a flat gradient vector
        rng = np.random.default_rng(500 + 7 * rows + width)
        workspace = np.full((2, rows + 5, width), np.nan)
        a = workspace[:, :rows] if stacked else workspace[1, :rows]
        a[...] = self.cancelling_columns(rng, a.shape)
        flat = np.full(2 * width + 1, np.nan)
        out = flat[1:].reshape(2, width) if stacked else flat[1 : width + 1]
        assert row_sums(a, out=out) is out
        columns = a.reshape(-1, rows, width).swapaxes(-1, -2).reshape(-1, rows)
        in_order = np.array([functools.reduce(operator.add, col.tolist(), 0.0) for col in columns])
        pairwise = np.array([np.add.reduce(np.ascontiguousarray(col)) for col in columns])
        if rows >= 128:
            # the data tells the two orders apart
            assert in_order.tobytes() != pairwise.tobytes()
        # at one column the kernels' reference sums (``sum(axis=0)``) add
        # the rows pairwise, as numpy does along a contiguous axis
        want = in_order if width >= 2 else pairwise
        assert out.reshape(-1).tobytes() == want.tobytes()
        assert out.tobytes() == np.add.reduce(a, axis=-2).tobytes()


def mlp_shapes(n0, n1, n2, stack=()):
    """The shapes of (w1, b1, w2, b2, w3, b3), with leading axes ``stack``."""
    return [(*stack, *shape) for shape in ((n1, n0), (n1,), (n2, n1), (n2,), (n2,), ())]


class TestMlpKernel:
    @pytest.mark.parametrize("m", [1, 7, 128])
    @pytest.mark.parametrize("widths", [(2, 3, 4), (29, 32, 32), (2, 1, 1)], ids=["small", "baseline", "width-one"])
    def test_stacked_call_equals_two_calls_byte_for_byte(self, widths, m):
        # the fusion model runs its two streams as one (2, m, d) call or as
        # two calls on two threads; both must give the same bits.  The
        # streams share their output gradient, as the model's do
        rng = np.random.default_rng(600 + m + sum(widths))
        n0, n1, n2 = widths
        shapes = mlp_shapes(*widths, (2,))
        size = sum(math.prod(shape) for shape in shapes)
        weights = block_views(rng.standard_normal(size), shapes)
        x = rng.standard_normal((2, m, n0))
        stacked_grads = np.full(size, np.nan)
        h1, h2, out = np.full((2, m, n1), np.nan), np.full((2, m, n2), np.nan), np.full((2, m), np.nan)
        on1, on2 = np.ones(h1.shape, bool), np.ones(h2.shape, bool)
        dout = rng.standard_normal(m)
        mlp_forward(x, weights, h1, h2, out)
        stacked_out = out.copy()
        stacked_sz = mlp_backward(x, weights, h1, h2, dout, 1.5, block_views(stacked_grads, shapes), on1, on2).copy()
        split_grads = np.full(size, np.nan)
        g = block_views(split_grads, shapes)
        for s in (0, 1):
            w_s = [w[s, ...] for w in weights]
            g_s = [gw[s, ...] for gw in g]  # [s, ...] keeps the 0-d b3 a view
            h1s, h2s, outs = np.full((m, n1), np.nan), np.full((m, n2), np.nan), np.full(m, np.nan)
            on1s, on2s = np.ones(h1s.shape, bool), np.ones(h2s.shape, bool)
            assert mlp_forward(x[s], w_s, h1s, h2s, outs) is outs
            assert outs.tobytes() == stacked_out[s].tobytes()
            sz = mlp_backward(x[s], w_s, h1s, h2s, dout, 1.5, g_s, on1s, on2s)
            assert sz is g_s[3]
            assert sz.tobytes() == stacked_sz[s].tobytes()
        assert not np.isnan(stacked_grads).any()
        assert split_grads.tobytes() == stacked_grads.tobytes()

    @pytest.mark.parametrize("widths", [(3, 4, 5), (1, 1, 1), (2, 1, 3), (4, 3, 1)])
    def test_gradients_match_finite_differences(self, widths):
        # width 1 runs row_sums' add.reduce branch
        rng = np.random.default_rng(610 + sum(widths))
        m = 6
        n0, n1, n2 = widths
        x, y = rng.standard_normal((m, n0)), rng.standard_normal(m)
        shapes = mlp_shapes(*widths)
        weights = [rng.standard_normal(shape) for shape in shapes]

        def loss(ws):
            h1 = np.maximum(x @ ws[0].T + ws[1], 0.0)
            h2 = np.maximum(h1 @ ws[2].T + ws[3], 0.0)
            return float(np.sum((h2 @ ws[4] + ws[5] - y) ** 2))

        grads = np.full(sum(math.prod(shape) for shape in shapes), np.nan)
        h1, h2, out = np.empty((m, n1)), np.empty((m, n2)), np.empty(m)
        mlp_forward(x, weights, h1, h2, out)
        assert math.isclose(float(np.sum((out - y) ** 2)), loss(weights), rel_tol=1e-12)
        dout = 2.0 * (out - y)
        on1, on2 = np.empty((m, n1), bool), np.empty((m, n2), bool)
        sz = mlp_backward(x, weights, h1, h2, dout, float(np.sum(dout)), block_views(grads, shapes), on1, on2)
        want = finite_diff_grad(loss, weights, h=1e-6)
        for got, ref in zip(block_views(grads, shapes), want, strict=True):
            np.testing.assert_allclose(got, ref, rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(sz, want[3], rtol=1e-6, atol=1e-6)

    def test_zero_d_head_bias_gradient_written_through_its_view(self):
        rng = np.random.default_rng(620)
        shapes = mlp_shapes(2, 3, 4)
        weights = [rng.standard_normal(shape) for shape in shapes]
        weights[5] = np.float64(0.25)  # a scalar head bias, as a fitted baseline holds
        grads = np.full(sum(math.prod(shape) for shape in shapes), np.nan)
        g = block_views(grads, shapes)
        assert g[5].ndim == 0 and np.shares_memory(g[5], grads)
        m = 5
        x, h1, h2, out = rng.standard_normal((m, 2)), np.empty((m, 3)), np.empty((m, 4)), np.empty(m)
        mlp_forward(x, weights, h1, h2, out)
        on1, on2 = np.empty((m, 3), bool), np.empty((m, 4), bool)
        mlp_backward(x, weights, h1, h2, rng.standard_normal(m), -3.5, g, on1, on2)
        assert grads[-1] == -3.5
        assert not np.isnan(grads).any()


class TestUsableCpus:
    def test_counts_the_affinity_mask(self):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no affinity mask on this OS")
        assert usable_cpus() == len(os.sched_getaffinity(0)) >= 1

    def test_falls_back_to_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cpus() == 1


class TestCheckReal:
    @pytest.mark.parametrize("value", [0, -3, 0.5, np.float64(2.0), np.float32(1.5), np.int64(4)])
    def test_accepts_finite_reals(self, value):
        check_real("field", value)

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), "1", None, 1j, np.nan, np.inf, -np.inf])
    def test_rejects_a_bool_a_non_number_and_a_non_finite_value(self, value):
        # a bool is an integer to Python, so an unchecked True would pass as 1
        with pytest.raises(ValueError, match=r"field must be finite and a real number, got "):
            check_real("field", value)
