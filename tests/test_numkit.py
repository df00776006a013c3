import os

import numpy as np
import pytest

from fusecast.numkit import (
    AdamState,
    ShapeMismatch,
    adam_step,
    block_views,
    finite_diff_grad,
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
    q = p.copy()
    adam_step(p, g, AdamState.init(p, eta=0.01))
    adam_step(q, g, AdamState.init(q, eta=0.01))
    assert p.tobytes() == q.tobytes()


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
        with pytest.raises(ShapeMismatch):
            block_views(vec, [(2, 2)])


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
