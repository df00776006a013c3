import numpy as np
import pytest

from fusecast.numkit import (
    AdamState,
    ShapeMismatch,
    adam_step,
    block_views,
    finite_diff_grad,
    sgd_step,
)


class TestSgd:
    def test_zero_gradient(self):
        out = sgd_step(np.array([1.0]), np.array([0.0]), 0.1)
        assert float(out[0]) == 1.0

    def test_hand_values(self):
        assert float(sgd_step(np.array([1.0]), np.array([2.0]), 0.1)[0]) == pytest.approx(0.8)
        assert float(sgd_step(np.array([-0.5]), np.array([-1.0]), 0.5)[0]) == pytest.approx(0.0)

    def test_twice_equals_double_gradient(self):
        rng = np.random.default_rng(1)
        p = np.concatenate([rng.standard_normal((3, 2)).ravel(), rng.standard_normal(4)])
        g = np.concatenate([rng.standard_normal((3, 2)).ravel(), rng.standard_normal(4)])
        once_twice = sgd_step(sgd_step(p, g, 0.05), g, 0.05)
        doubled = sgd_step(p, 2 * g, 0.05)
        for a, b in zip(once_twice, doubled):
            assert np.allclose(a, b, rtol=1e-14, atol=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            sgd_step(np.zeros(2), np.zeros(3), 0.1)


class TestAdam:
    def test_zero_gradient_noop(self):
        p = np.array([1.0, -2.0])
        state = AdamState.init(p, eta=0.01)
        out, state2 = adam_step(p, np.zeros(2), state)
        assert np.array_equal(out, p)
        assert state2.step == 1

    def test_first_step_magnitude(self):
        # fresh state, grad 1: bias correction gives mhat=g, vhat=g^2, step ~ eta
        p = np.array([0.0])
        state = AdamState.init(p, eta=0.001)
        out, _ = adam_step(p, np.array([1.0]), state)
        assert float(out[0]) == pytest.approx(-0.001, rel=1e-6)

    def test_second_identical_gradient_similar_magnitude(self):
        p = np.array([0.0])
        state = AdamState.init(p, eta=0.001)
        p1, state = adam_step(p, np.array([1.0]), state)
        p2, _ = adam_step(p1, np.array([1.0]), state)
        step1 = abs(float(p1[0]) - 0.0)
        step2 = abs(float(p2[0]) - float(p1[0]))
        assert abs(step2 - step1) <= 0.1 * step1

    def test_shape_mismatch(self):
        state = AdamState.init(np.zeros(2))
        with pytest.raises(ShapeMismatch):
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
    s1 = AdamState.init(p, eta=0.01)
    s2 = AdamState.init(p, eta=0.01)
    o1, _ = adam_step(p, g, s1)
    o2, _ = adam_step(p, g, s2)
    assert np.array_equal(o1, o2)


class TestAdamStateInit:
    @pytest.mark.parametrize("eta", [float("nan"), float("inf"), 0.0, -1e-3])
    def test_rejects_non_finite_or_non_positive_eta(self, eta):
        with pytest.raises(ValueError, match="learning rate must be finite and positive"):
            AdamState.init(np.zeros(3), eta=eta)

    def test_moments_are_flat_zeros(self):
        state = AdamState.init(np.ones(5), eta=0.1)
        assert state.m.shape == state.v.shape == (5,) and not np.any(state.m) and not np.any(state.v)


class TestFlatSteps:
    def test_in_place_adam_matches_out_of_place(self):
        rng = np.random.default_rng(7)
        p, g = rng.standard_normal(50), rng.standard_normal(50)
        s1, s2 = AdamState.init(p, eta=0.01), AdamState.init(p, eta=0.01)
        fresh, _ = adam_step(p, g, s1)
        q = p.copy()
        out, _ = adam_step(q, g, s2, out=q)
        assert out is q and np.array_equal(q, fresh)
        assert np.array_equal(s1.m, s2.m) and np.array_equal(s1.v, s2.v) and s1.step == s2.step == 1

    def test_in_place_sgd(self):
        p = np.array([1.0, 2.0])
        out = sgd_step(p, np.array([1.0, -1.0]), 0.5, out=p)
        assert out is p and np.array_equal(p, [0.5, 2.5])

    def test_sgd_rejects_non_finite_eta(self):
        with pytest.raises(ValueError):
            sgd_step(np.zeros(2), np.zeros(2), float("nan"))

    def test_block_views_share_memory_and_cover_vector(self):
        vec = np.arange(7.0)
        a, b, c = block_views(vec, [(2, 2), (), (2,)])
        assert a.shape == (2, 2) and b.shape == () and c.shape == (2,)
        assert np.shares_memory(a, vec) and float(b) == 4.0 and np.array_equal(c, [5.0, 6.0])
        c[0] = -1.0
        assert vec[5] == -1.0
        with pytest.raises(ShapeMismatch):
            block_views(vec, [(2, 2)])
