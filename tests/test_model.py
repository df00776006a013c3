import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusecast import model as M
from fusecast.numkit import AdamState, adam_step, finite_diff_grad
from fusecast.pipeline import NormStats, SampleBatch


def manual_params(dims, fill=1.0, memory=None):
    """Every weight ``fill``, every bias zero, the memory ``memory`` (zeros
    by default)."""
    p = M.FusionParams(dims)
    for weight in (p.w, p.w_hid, p.w_head, p.w_head_mem):
        weight[...] = fill
    if memory is not None:
        p.memory[...] = memory
    return p


def params_of(dims, arrays):
    """The FusionParams holding ``arrays`` in ``flatten`` order."""
    p = M.FusionParams(dims)
    for view, a in zip(p.flatten(), arrays, strict=True):
        view[...] = a
    return p


def init_with_memory(dims, seed):
    """``init_params`` plus a memory drawn like a weight: the stream's next
    draws after the seven weight tensors."""
    p = M.init_params(dims, seed)
    rng = np.random.default_rng(seed)
    rng.uniform(size=sum(w.size for w in (p.w, p.w_hid, p.w_head, p.w_head_mem)))  # init_params' draws
    bound = np.sqrt(1.0 / max(dims.mem_width, 1))
    p.memory[...] = rng.uniform(-bound, bound, size=dims.mem_width)
    return p


def sample_batch(dl, ep, target=0.0, dl_mask=1, ep_mask=1):
    """A SampleBatch from columns; a scalar applies to every row, so
    scalars alone make one row."""
    return SampleBatch(*np.broadcast_arrays(*map(np.atleast_1d, (dl, dl_mask, ep, ep_mask, target))))


def random_batch(rng, n=1, masks=(1, 1)):
    """n rows of standard normal dl, ep and target, drawn row by row."""
    dl, ep, target = rng.normal(size=(n, 3)).T
    return sample_batch(dl, ep, target, *masks)


def run_kernel(batch, p, backward=True):
    """A workspace holding the kernel's forward pass over ``batch``: the
    intermediates of row i of stream k (0 = data, 1 = physics) are
    ``a_h[k, i]`` (the embedding h, after its ReLU), ``z[k, i]`` and
    ``part[k, i]``, and ``zb[k]`` is stream k's mixer bias with the memory
    folded in."""
    ws = M._Workspace(p.dims, len(batch), backward)
    M._batch_forward(M._fill_inputs(batch, ws.x), p, ws)
    return ws


def kernel_grads(batch, p):
    """The kernel's summed squared-error loss and gradients over ``batch``,
    and the workspace of that pass (its ``a_h`` and ``z`` now hold
    gradients)."""
    ws = run_kernel(batch, p)
    grads = M.FusionParams(p.dims)
    losses = M._batch_backward(ws.x, batch.target, p, ws, grads)
    return float(np.sum(losses)), grads, ws


def near_relu_kink(batch, p):
    """Whether a pre-activation of the forward pass over ``batch`` lies
    within 1e-3 of a ReLU kink, where a central difference straddles it.
    The workspace keeps each layer's ReLU, not its pre-activation, so those
    are recomputed from the layer's input."""
    ws = run_kernel(batch, p, backward=False)
    a_h = np.matmul(ws.x, p.w.transpose(0, 2, 1)) + p.b[:, None]
    a_z = np.matmul(ws.a_h, p.w_hid[..., : p.dims.embed_dim].transpose(0, 2, 1)) + ws.zb[:, None]
    return bool(np.any(np.abs(a_h) <= 1e-3) or np.any(np.abs(a_z) <= 1e-3))


def loss_fn(batch, dims):
    y = batch.target

    def f(arrays):
        return float(np.sum((y - M.predict(batch, params_of(dims, arrays))) ** 2))
    return f


class TestInitParams:
    def test_memory_starts_at_zero(self):
        p = M.init_params(M.FusionDims(1, 1, 1), seed=123)
        assert np.array_equal(p.memory, np.zeros(1))

    def test_same_seed_bit_identical(self):
        a = M.init_params(M.FusionDims(5, 3, 7), seed=9)
        b = M.init_params(M.FusionDims(5, 3, 7), seed=9)
        for x, y in zip(a.flatten(), b.flatten()):
            assert np.array_equal(x, y)

    def test_hidden_mixer_shape(self):
        p = M.init_params(M.FusionDims(4, 2, 8), seed=0)
        assert p.w_hid[0].shape == (8, 6)
        assert p.w_hid[1].shape == (8, 6)

    def test_biases_zero_and_weight_bounds(self):
        dims = M.FusionDims(6, 4, 5)
        p = M.init_params(dims, seed=3)
        assert np.all(p.b[0] == 0) and np.all(p.b_hid[1] == 0)
        assert p.b_head[0] == 0.0 and p.b_head_mem == 0.0
        assert np.all(np.abs(p.w[0]) <= np.sqrt(0.5))
        assert np.all(np.abs(p.w_hid[0]) <= np.sqrt(1.0 / 10))

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            M.FusionDims(0, 1, 1)


def embeddings(p, dl=0.0, dl_mask=1, ep=0.0, ep_mask=1):
    """(h_dl, h_ep) of one sample, read from the kernel's workspace."""
    ws = run_kernel(sample_batch(dl, ep, dl_mask=dl_mask, ep_mask=ep_mask), p)
    return ws.a_h[0, 0], ws.a_h[1, 0]


def memory_read(p):
    """The memory as both mixers read it, (2, mem_width): the kernel's
    folded mixer biases for a copy of ``p`` whose mixers have identity
    memory columns and zero biases (hidden_dim must equal memory_dim)."""
    q = p.copy()
    q.w_hid[..., p.dims.embed_dim:] = np.eye(p.dims.mem_width)
    q.b_hid[...] = 0.0
    return run_kernel(sample_batch(0.0, 0.0), q).zb


class TestProjections:
    def test_zero_weights_zero_embedding(self):
        dims = M.FusionDims(2, 1, 1)
        p = manual_params(dims, fill=0.0)
        assert np.array_equal(embeddings(p, dl=123.0)[0], np.zeros(2))

    def test_hand_case_dl(self):
        dims = M.FusionDims(1, 1, 1)
        p = manual_params(dims)
        p.w[0] = np.array([[1.0, -1.0]])
        assert embeddings(p, dl=3.0)[0][0] == pytest.approx(2.0)
        assert embeddings(p, dl=0.0)[0][0] == 0.0  # relu clips -1

    def test_hand_case_ep(self):
        dims = M.FusionDims(1, 1, 1)
        p = manual_params(dims)
        p.w[1] = np.array([[2.0, 0.0]])
        p.b[1] = np.array([1.0])
        assert embeddings(p, ep=2.0, ep_mask=0)[1][0] == pytest.approx(5.0)

    def test_mask_is_a_real_input_channel(self):
        dims = M.FusionDims(1, 1, 1)
        p = manual_params(dims)
        p.w[1] = np.array([[0.0, 3.0]])
        p.b[1] = np.array([0.0])
        assert embeddings(p, ep=7.0, ep_mask=0)[1][0] == 0.0
        assert embeddings(p, ep=7.0, ep_mask=1)[1][0] == pytest.approx(3.0)


class TestReadMemory:
    def test_identity_read(self):
        dims = M.FusionDims(1, 2, 2)
        p = manual_params(dims, memory=[0.0, 0.0])
        assert np.array_equal(memory_read(p), np.zeros((2, 2)))
        p2 = manual_params(dims, memory=[1.5, -2.0])
        assert np.array_equal(memory_read(p2), [[1.5, -2.0], [1.5, -2.0]])

    def test_reflects_optimizer_updates(self):
        dims = M.FusionDims(1, 2, 2)
        p = manual_params(dims, memory=[1.0, 1.0])
        grads = M.FusionParams(dims)
        grads.memory[...] = [2.0, -2.0]
        # a fresh Adam step moves each entry by eta against its gradient's sign
        adam_step(p.vector, grads.vector, AdamState.init(p.vector, eta=0.5))
        assert p.memory == pytest.approx([0.5, 1.5], rel=1e-8)
        assert np.array_equal(memory_read(p), [p.memory, p.memory])


class TestForward:
    def test_zero_network(self):
        dims = M.FusionDims(3, 2, 4)
        p = manual_params(dims, fill=0.0)
        assert M.predict(sample_batch(5.0, -2.0), p)[0] == 0.0

    def test_constant_path_through_head_biases(self):
        dims = M.FusionDims(3, 2, 4)
        p = manual_params(dims, fill=0.0)
        p.b_head[...], p.b_head_mem[...] = [2.0, 3.0], -1.0
        assert M.predict(sample_batch(9.0, 9.0), p)[0] == pytest.approx(4.0)

    def test_full_hand_trace(self):
        dims = M.FusionDims(1, 1, 1)
        p = manual_params(dims, fill=1.0)
        ws = run_kernel(sample_batch(1.0, 1.0), p)
        assert ws.a_h[0, 0, 0] == 2.0 and ws.a_h[1, 0, 0] == 2.0  # h_dl, h_ep
        assert ws.zb[0, 0] == 0.0 and ws.zb[1, 0] == 0.0  # the memory read, folded into the mixer bias
        assert ws.z[0, 0, 0] == 2.0 and ws.z[1, 0, 0] == 2.0
        assert ws.part[0, 0] == 2.0 and ws.part[1, 0] == 2.0 and ws.offset == 0.0
        assert ws.yhat[0] == 4.0

    def test_additivity_bit_exact(self):
        rng = np.random.default_rng(11)
        dims = M.FusionDims(4, 3, 5)
        p = M.init_params(dims, 1)
        for _ in range(100):
            ws = run_kernel(random_batch(rng), p)
            assert ws.yhat[0] == ws.part[0, 0] + ws.part[1, 0] + ws.offset

    def test_post_relu_nonnegative(self):
        rng = np.random.default_rng(12)
        p = M.init_params(M.FusionDims(6, 2, 6), 2)
        for _ in range(50):
            ws = run_kernel(random_batch(rng), p)
            assert np.all(ws.a_h >= 0)
            assert np.all(ws.z >= 0)

    def test_mask_sensitivity(self):
        rng = np.random.default_rng(13)
        dims = M.FusionDims(4, 2, 4)
        p = M.init_params(dims, 5)
        # nonzero mask column: flipping the mask changes the embedding
        assert not np.array_equal(embeddings(p, dl=0.7, ep=0.1)[0], embeddings(p, dl=0.7, dl_mask=0, ep=0.1)[0])
        # zero mask column: the mask can never influence the output
        p.w[0, :, 1] = 0.0
        for _ in range(20):
            s1 = random_batch(rng, masks=(1, 1))
            s0 = sample_batch(s1.dl, s1.ep, s1.target, dl_mask=0, ep_mask=s1.ep_mask)
            assert M.predict(s1, p)[0] == M.predict(s0, p)[0]

    def test_nonfinite_intermediate_fails_predict(self):
        dims = M.FusionDims(1, 1, 1)
        p = manual_params(dims, fill=1e308)
        batch = sample_batch(1e308, 0.0)
        assert not np.isfinite(run_kernel(batch, p).a_h[0, 0, :1]).all()  # h_dl overflows
        with pytest.raises(ValueError, match="1 of 1 outputs are non-finite"):
            M.predict(batch, p)


class TestBackward:
    def test_perfect_prediction_zero_gradients(self):
        dims = M.FusionDims(3, 2, 3)
        p = M.init_params(dims, 7)
        yhat = M.predict(sample_batch(0.4, -0.2), p)[0]
        loss, grads, _ = kernel_grads(sample_batch(0.4, -0.2, yhat), p)
        assert loss == 0.0
        for g in grads.flatten():
            assert np.all(np.asarray(g) == 0.0)

    def test_head_bias_gradients_equal_2_residual(self):
        rng = np.random.default_rng(21)
        dims = M.FusionDims(4, 3, 5)
        p = M.init_params(dims, 3)
        for _ in range(25):
            s = random_batch(rng)
            _, grads, ws = kernel_grads(s, p)
            expected = 2.0 * (ws.yhat[0] - s.target[0])
            assert grads.b_head[0] == pytest.approx(expected, rel=1e-12)
            assert grads.b_head[1] == pytest.approx(expected, rel=1e-12)
            assert grads.b_head_mem == pytest.approx(expected, rel=1e-12)

    def test_matches_finite_difference_oracle(self):
        rng = np.random.default_rng(31)
        dims = M.FusionDims(3, 2, 4)
        checked = 0
        while checked < 20:
            p = M.init_params(dims, int(rng.integers(1 << 30)))
            arrays = [a + 0.3 * rng.standard_normal(a.shape) for a in p.flatten()]
            p = params_of(dims, arrays)
            s = random_batch(rng, masks=(int(rng.integers(0, 2)), int(rng.integers(0, 2))))
            _, grads, _ = kernel_grads(s, p)
            if near_relu_kink(s, p):
                continue
            numeric = finite_diff_grad(loss_fn(s, dims), p.flatten(), 1e-5)
            for a, n in zip(grads.flatten(), numeric):
                a = np.asarray(a)
                assert np.all(np.abs(a - n) <= 1e-8 + 1e-5 * np.maximum(np.abs(a), np.abs(n)))
            checked += 1

    def test_missing_target_rejected(self):
        with pytest.raises(ValueError, match="target"):
            sample_batch(1.0, 1.0, target=np.nan)


class TestBatchEquivalence:
    def test_batch_gradients_equal_sum_of_per_sample(self):
        rng = np.random.default_rng(41)
        dims = M.FusionDims(5, 3, 6)
        p = M.init_params(dims, 17)
        batch = random_batch(rng, 64)
        batch_loss, batch_grads, _ = kernel_grads(batch, p)

        total = None
        loss_total = 0.0
        for i in range(len(batch)):
            loss, g, _ = kernel_grads(batch[i : i + 1], p)
            loss_total += loss
            flat = g.flatten()
            total = flat if total is None else [a + b for a, b in zip(total, flat)]
        assert batch_loss == pytest.approx(loss_total, rel=1e-12)
        for a, b in zip(total, batch_grads.flatten()):
            scale = np.maximum(np.abs(np.asarray(a)), 1.0)
            assert np.all(np.abs(np.asarray(a) - np.asarray(b)) <= 1e-9 * scale)

    def test_predict_matches_forward(self):
        rng = np.random.default_rng(42)
        p = M.init_params(M.FusionDims(4, 2, 4), 9)
        batch = random_batch(rng, 10)
        preds = M.predict(batch, p)
        for i, v in enumerate(preds):
            assert run_kernel(batch[i : i + 1], p).yhat[0] == pytest.approx(v, rel=1e-14)

    def test_zero_params_predict_zero(self):
        dims = M.FusionDims(3, 2, 3)
        p = manual_params(dims, fill=0.0)
        rng = np.random.default_rng(43)
        preds = M.predict(random_batch(rng, 8), p)
        assert np.array_equal(preds, np.zeros(8))

    def test_predict_is_pure(self):
        rng = np.random.default_rng(44)
        p = M.init_params(M.FusionDims(4, 2, 4), 10)
        batch = random_batch(rng, 12)
        a = M.predict(batch, p)
        b = M.predict(batch, p)
        assert np.array_equal(a, b)


class TestMemoryAblation:
    def test_disabled_memory_has_zero_width(self):
        dims = M.FusionDims(4, 8, 4, memory_enabled=False)
        p = M.init_params(dims, 1)
        assert p.memory.shape == (0,)
        assert p.w_head_mem.shape == (0,)
        assert p.w_hid[0].shape == (4, 4)

    def test_ablated_forward_never_reads_memory(self):
        # equivalence: the full model with memory frozen at zero, offset head
        # weight zeroed, and memory mixer columns zeroed predicts exactly what
        # the structurally ablated model predicts with the same core weights.
        rng = np.random.default_rng(51)
        d, dm, dz = 4, 3, 5
        ablated = M.init_params(M.FusionDims(d, dm, dz, memory_enabled=False), seed=8)
        full = M.init_params(M.FusionDims(d, dm, dz, memory_enabled=True), seed=8)
        full.w[...], full.b[...] = ablated.w, ablated.b
        full.w_hid[:, :, :d] = ablated.w_hid
        full.w_hid[0, :, d:] = rng.standard_normal((dz, dm))  # inert columns
        full.w_hid[1, :, d:] = rng.standard_normal((dz, dm))
        full.b_hid[...] = ablated.b_hid
        full.w_head[...], full.b_head[...] = ablated.w_head, ablated.b_head
        full.w_head_mem[...] = np.zeros(dm)
        full.b_head_mem[...] = ablated.b_head_mem
        full.memory[...] = np.zeros(dm)
        for _ in range(30):
            s = random_batch(rng)
            assert M.predict(s, ablated)[0] == pytest.approx(M.predict(s, full)[0], rel=1e-14)

    def test_ablated_offset_is_pure_bias(self):
        p = M.init_params(M.FusionDims(2, 2, 2, memory_enabled=False), seed=2)
        p.b_head_mem[...] = -3.25
        assert run_kernel(sample_batch(0.3, 0.4), p).offset == -3.25

    def test_ablated_gradients_also_exact(self):
        rng = np.random.default_rng(61)
        dims = M.FusionDims(3, 4, 3, memory_enabled=False)
        checked = 0
        while checked < 5:
            p = M.init_params(dims, int(rng.integers(1 << 30)))
            arrays = [a + 0.3 * rng.standard_normal(a.shape) for a in p.flatten()]
            p = params_of(dims, arrays)
            s = random_batch(rng)
            _, grads, _ = kernel_grads(s, p)
            if near_relu_kink(s, p):
                continue
            numeric = finite_diff_grad(loss_fn(s, dims), p.flatten(), 1e-5)
            for a, n in zip(grads.flatten(), numeric):
                a = np.asarray(a)
                assert np.all(np.abs(a - n) <= 1e-8 + 1e-5 * np.maximum(np.abs(a), np.abs(n)))
            checked += 1

    def _assert_fold_agrees(self, p, batch):
        folded = M.fold_memory(p)
        assert folded.dims.mem_width == 0
        want = M.predict(batch, p)
        # the kernel folds the memory with the same helper, so bit for bit
        assert np.array_equal(M.predict(batch, folded), want)
        # the memory moves the predictions, so the agreement is not vacuous
        no_memory = p.copy()
        no_memory.memory[...] = np.zeros(p.dims.mem_width)
        assert np.abs(M.predict(batch, no_memory) - want).max() > 1e-3

    def test_memory_folds_into_biases_on_random_params(self):
        rng = np.random.default_rng(71)
        for seed in range(5):
            dims = M.FusionDims(*(int(rng.integers(1, 12)) for _ in range(3)))
            p = init_with_memory(dims, seed)
            p.vector[:] += 0.5 * rng.standard_normal(dims.size)
            self._assert_fold_agrees(p, random_batch(rng, 50, masks=rng.integers(0, 2, (2, 50))))

    def test_a_memory_less_model_folds_to_itself(self):
        p = M.init_params(M.FusionDims(4, 3, 5, memory_enabled=False), 9)
        p.vector[:] += np.random.default_rng(73).standard_normal(p.dims.size)
        folded = M.fold_memory(p)
        assert folded.dims == p.dims and np.array_equal(folded.vector, p.vector)
        assert not np.shares_memory(folded.vector, p.vector)

    def test_memory_folds_into_biases_after_training(self):
        # a constant bias for the memory to absorb
        rng = np.random.default_rng(72)
        v = rng.standard_normal(120)
        data = sample_batch(v, v, v + 0.5)
        cfg = M.TrainConfig(eta=3e-3, max_epochs=30, batch_size=32, early_stop_patience=30, seed=1)
        trained, _ = M.train(data, M.init_params(M.FusionDims(8, 4, 8), 3), cfg, data)
        assert np.any(trained.memory != 0.0)
        self._assert_fold_agrees(trained, data)


class TestUnboundedOutput:
    def test_exhibited_offsets_escape_the_input_interval(self):
        # no search: the offset head bias alone can push the output above or
        # below both forecast inputs for a fixed sample
        dims = M.FusionDims(3, 2, 3)
        sample = sample_batch(0.4, 0.9)
        high = M.init_params(dims, 1)
        high.b_head_mem[...] = 1000.0
        low = M.init_params(dims, 1)
        low.b_head_mem[...] = -1000.0
        assert M.predict(sample, high)[0] > max(0.4, 0.9)
        assert M.predict(sample, low)[0] < min(0.4, 0.9)


class TestShapes:
    def test_flatten_round_trips_through_the_constructor(self):
        p = M.init_params(M.FusionDims(3, 2, 4), 5)
        q = params_of(p.dims, p.flatten())
        for a, b in zip(p.flatten(), q.flatten()):
            assert np.array_equal(np.asarray(a), np.asarray(b))

    def test_flatten_keeps_the_name_order(self):
        dims = M.FusionDims(3, 2, 4)
        p = init_with_memory(dims, 5)
        names = [
            "w_dl", "b_dl", "w_ep", "b_ep", "memory",
            "w_hid_dl", "b_hid_dl", "w_hid_ep", "b_hid_ep",
            "w_head_dl", "b_head_dl", "w_head_ep", "b_head_ep",
            "w_head_mem", "b_head_mem",
        ]
        assert list(M._TENSOR_FIELDS) == names
        flat = p.flatten()
        assert len(flat) == 15
        halves = [
            p.w[0], p.b[0], p.w[1], p.b[1], p.memory,
            p.w_hid[0], p.b_hid[0], p.w_hid[1], p.b_hid[1],
            p.w_head[0], p.b_head[0, ...], p.w_head[1], p.b_head[1, ...],
            p.w_head_mem, p.b_head_mem,
        ]
        for name, a, want in zip(names, flat, halves):
            assert a.size == 0 or np.shares_memory(a, want), name
            assert a.shape == want.shape and a.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("memory_enabled", [True, False])
    def test_shapes_name_every_tensor_in_order(self, memory_enabled):
        dims = M.FusionDims(3, 2, 4, memory_enabled=memory_enabled)
        mw = 2 if memory_enabled else 0
        assert [(name, a.shape) for name, a in zip(M._TENSOR_FIELDS, M.FusionParams(dims).flatten())] == [
            ("w_dl", (3, 2)), ("b_dl", (3,)), ("w_ep", (3, 2)), ("b_ep", (3,)),
            ("memory", (mw,)),
            ("w_hid_dl", (4, 3 + mw)), ("b_hid_dl", (4,)),
            ("w_hid_ep", (4, 3 + mw)), ("b_hid_ep", (4,)),
            ("w_head_dl", (4,)), ("b_head_dl", ()),
            ("w_head_ep", (4,)), ("b_head_ep", ()),
            ("w_head_mem", (mw,)), ("b_head_mem", ()),
        ]

    @pytest.mark.parametrize("memory_enabled", [True, False])
    def test_stream_pairs_are_halves_of_one_block(self, memory_enabled):
        dims = M.FusionDims(3, 2, 4, memory_enabled=memory_enabled)
        p = init_with_memory(dims, 5)

        def offset(a):  # in float64 elements from the start of the vector
            return (a.__array_interface__["data"][0] - p.vector.__array_interface__["data"][0]) // 8

        named = dict(zip(M._TENSOR_FIELDS, p.flatten()))
        for pair in ("w", "b", "w_hid", "b_hid", "w_head", "b_head"):
            block, dl, ep = getattr(p, pair), named[pair + "_dl"], named[pair + "_ep"]
            assert block.shape == (2, *dl.shape) and block.flags.c_contiguous
            assert np.shares_memory(block, p.vector)
            assert np.shares_memory(dl, block[0, ...]) and np.shares_memory(ep, block[1, ...])
            assert not np.shares_memory(dl, ep)
            assert offset(block) == offset(dl) and offset(ep) == offset(dl) + dl.size
        # the blocks tile the vector in FusionDims.blocks order
        start = 0
        for name, shape in dims.blocks.items():
            block = getattr(p, name)
            assert block.shape == shape
            if block.size:
                assert offset(block) == start, name
            start += block.size
        assert start == dims.size == sum(a.size for a in p.flatten())
        assert offset(named["w_dl"]) == 0 and offset(p.b_head_mem) == dims.size - 1

    @pytest.mark.parametrize("memory_enabled", [True, False])
    def test_pickle_round_trip_keeps_fields_views_of_vector(self, memory_enabled):
        dims = M.FusionDims(3, 2, 4, memory_enabled=memory_enabled)
        p = init_with_memory(dims, 5)
        q = pickle.loads(pickle.dumps(p))
        assert q.dims == p.dims
        assert q.vector.tobytes() == p.vector.tobytes()
        for a, b in zip(p.flatten(), q.flatten()):
            assert b.tobytes() == a.tobytes()
            assert b.size == 0 or np.shares_memory(b, q.vector)
        q.vector[...] = 0.0
        assert not any(np.any(field) for field in q.flatten())
        q.w_hid[1] = np.full(q.w_hid[1].shape, 2.0)
        q.b_head_mem[...] = 3.0
        assert np.count_nonzero(q.vector == 2.0) == q.w_hid[1].size
        assert np.count_nonzero(q.vector == 3.0) == 1
        assert not np.any(p.vector == 2.0)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        p = M.init_params(M.FusionDims(6, 4, 5), 77)
        p.memory[...] = np.array([0.1, -0.2, 0.3, 1e-17])
        norm = NormStats(1.25, 2.5, -0.5, 3.75, 100.0, 12.125)
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, p, norm)
        q, norm2 = M.load_checkpoint(path)
        assert q.dims == p.dims
        for a, b in zip(p.flatten(), q.flatten()):
            assert np.array_equal(np.asarray(a), np.asarray(b))
        assert norm2 == norm

    def test_text_is_pinned_and_round_trips(self, tmp_path):
        # written by the per-stream layout's save_checkpoint: the text names
        # every tensor, so the order of the flat vector never reaches it
        p = M.init_params(M.FusionDims(2, 1, 2), seed=5)
        p.b[0], p.b[1], p.memory[...] = [0.5, -0.25], [0.125, 1.5], [-0.75]
        p.b_hid[0], p.b_hid[1] = [2.0, -3.0], [0.0625, -0.5]
        p.b_head[0], p.b_head[1], p.b_head_mem[...] = 1.25, -2.5, 4.0
        path = tmp_path / "m.ckpt"
        M.save_checkpoint(path, p, NormStats(1.5, 2.25, -0.75, 3.0, 120.5, 17.125))
        assert path.read_text(encoding="utf-8") == _PINNED_CKPT
        q, norm = M.load_checkpoint(path)
        assert q.vector.tobytes() == p.vector.tobytes()
        again = tmp_path / "again.ckpt"
        M.save_checkpoint(again, q, norm)
        assert again.read_text(encoding="utf-8") == _PINNED_CKPT

    def test_round_trip_without_memory(self, tmp_path):
        # the memory and its head weight are empty: their value lines are blank
        p = M.init_params(M.FusionDims(3, 2, 2, memory_enabled=False), 8)
        path, again = tmp_path / "m.ckpt", tmp_path / "again.ckpt"
        M.save_checkpoint(path, p, NormStats(1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
        lines = path.read_text().splitlines()
        assert lines[_line_of(lines, "tensor memory 1 0") + 1] == ""
        q, norm = M.load_checkpoint(path)
        assert q.dims == p.dims and q.vector.tobytes() == p.vector.tobytes()
        M.save_checkpoint(again, q, norm)
        assert again.read_bytes() == path.read_bytes()

    def test_file_without_norm_rejected(self, tmp_path):
        # a checkpoint serves requests only with its normalization
        p = M.init_params(M.FusionDims(2, 2, 2, memory_enabled=False), 1)
        path = tmp_path / "m.ckpt"
        M.save_checkpoint(path, p, NormStats(1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
        lines = path.read_text().splitlines()
        assert lines[2].startswith("norm ")
        for kept in (lines[:2], lines[:2] + lines[3:]):
            path.write_text("\n".join(kept) + "\n")
            with pytest.raises(ValueError, match=re.escape(f"{path}:3: expected the norm line")):
                M.load_checkpoint(path)

    def test_version_tag_checked(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("some-other-format\n")
        with pytest.raises(ValueError, match="pgmn-ckpt-1"):
            M.load_checkpoint(path)

    def test_undecodable_file_named(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"pgmn-ckpt-1\n\xff\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: not a pgmn-ckpt-1 checkpoint: 'utf-8' codec")):
            M.load_checkpoint(path)

    def test_trailing_blank_lines_accepted(self, tmp_path):
        p = M.init_params(M.FusionDims(2, 1, 2), 3)
        path = tmp_path / "m.ckpt"
        M.save_checkpoint(path, p, NormStats(1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
        path.write_text(path.read_text() + "\n  \n")
        assert M.load_checkpoint(path)[0].vector.tobytes() == p.vector.tobytes()

    def test_tag_is_first_line(self, tmp_path):
        p = M.init_params(M.FusionDims(1, 1, 1), 0)
        path = tmp_path / "m.ckpt"
        M.save_checkpoint(path, p, NormStats(1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
        assert path.read_text().splitlines()[0] == "pgmn-ckpt-1"


_PINNED_CKPT = """\
pgmn-ckpt-1
dims 2 1 2 1
norm 0x1.8000000000000p+0 0x1.2000000000000p+1 -0x1.8000000000000p-1 0x1.8000000000000p+1 0x1.e200000000000p+6 0x1.1200000000000p+4
tensor w_dl 2 2 2
0x1.b9b1007f45612p-2 0x1.bdf22663245aap-2 0x1.6319bc46112a0p-6 -0x1.3631571e21c78p-2
tensor b_dl 1 2
0x1.0000000000000p-1 -0x1.0000000000000p-2
tensor w_ep 2 2 2
-0x1.42fd199f90418p-1 -0x1.51ccbff5dfd60p-3 -0x1.0917048e69244p-3 -0x1.4941849de10fbp-1
tensor b_ep 1 2
0x1.0000000000000p-3 0x1.8000000000000p+0
tensor memory 1 1
-0x1.8000000000000p-1
tensor w_hid_dl 2 2 3
-0x1.0ac707358e944p-1 0x1.271dc2a964314p-1 0x1.6853985ec5c44p-3 -0x1.39eb2ec15cf71p-2 -0x1.33acef9bc4718p-4 0x1.185790208deb2p-1
tensor b_hid_dl 1 2
0x1.0000000000000p+1 -0x1.8000000000000p+1
tensor w_hid_ep 2 2 3
0x1.d63824eb4a0bcp-2 0x1.9705fbe413e90p-2 -0x1.fce37e49123b0p-4 -0x1.07fd581c41140p-7 0x1.a1d6f66690060p-3 -0x1.03a807bc2893ap-1
tensor b_hid_ep 1 2
0x1.0000000000000p-4 -0x1.0000000000000p-1
tensor w_head_dl 1 2
0x1.420c0f5c51a00p-4 -0x1.4af932ba7c87bp-2
scalar b_head_dl 0x1.4000000000000p+0
tensor w_head_ep 1 2
0x1.12e5958cf048dp-1 -0x1.3b8ade2f0f95ep-1
scalar b_head_ep -0x1.4000000000000p+1
tensor w_head_mem 1 1
0x1.6ef6ba42fdc2cp-2
scalar b_head_mem 0x1.0000000000000p+2
"""


def _ckpt_lines(tmp_path):
    p = M.init_params(M.FusionDims(2, 2, 2), 5)
    path = tmp_path / "m.ckpt"
    M.save_checkpoint(path, p, NormStats(1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
    return path, path.read_text().splitlines()


def _line_of(lines, prefix):
    return next(i for i, line in enumerate(lines) if line.startswith(prefix))


class TestCheckpointRejects:
    """Malformed checkpoints raise ValueError naming the file and the line."""

    def _load_fails(self, path, lines, lineno, match):
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:{lineno}: ") + match):
            M.load_checkpoint(path)

    def test_tag_line_only(self, tmp_path):
        path, lines = _ckpt_lines(tmp_path)
        self._load_fails(path, lines[:1], 1, "file ends before the dims line")

    def test_tensor_header_without_data_line(self, tmp_path):
        path, lines = _ckpt_lines(tmp_path)
        i = _line_of(lines, "tensor w_hid_ep")
        self._load_fails(path, lines[: i + 1], i + 1, "tensor 'w_hid_ep' has no data line")

    def test_truncated_before_last_tensors(self, tmp_path):
        path, lines = _ckpt_lines(tmp_path)
        i = _line_of(lines, "tensor w_head_mem")
        self._load_fails(path, lines[:i], i, r"file ends without tensors \['w_head_mem', 'b_head_mem'\]")

    def test_unknown_tensor_name(self, tmp_path):
        path, lines = _ckpt_lines(tmp_path)
        self._load_fails(path, lines + ["tensor bogus 1 1", "0x1.0p+0"], len(lines) + 1, "unexpected line 'tensor bogus 1 1'")

    def test_unknown_scalar_name(self, tmp_path):
        path, lines = _ckpt_lines(tmp_path)
        self._load_fails(path, lines + ["scalar b_head_bogus 0x0.0p+0"], len(lines) + 1, "unexpected line")

    def test_duplicate_tensor_name(self, tmp_path):
        path, lines = _ckpt_lines(tmp_path)
        i = _line_of(lines, "tensor b_dl")
        self._load_fails(path, lines + lines[i : i + 2], len(lines) + 1, "unexpected line 'tensor b_dl 1 2'")

    def test_duplicate_scalar_name(self, tmp_path):
        path, lines = _ckpt_lines(tmp_path)
        i = _line_of(lines, "scalar b_head_ep")
        self._load_fails(path, lines + [lines[i]], len(lines) + 1, "unexpected line 'scalar b_head_ep ")

    def test_value_count_short_of_declared_shape(self, tmp_path):
        path, lines = _ckpt_lines(tmp_path)
        i = _line_of(lines, "tensor w_dl") + 1
        lines[i] = " ".join(lines[i].split()[:-1])
        self._load_fails(path, lines, i + 1, "expected 4 values, got 3")

    def test_value_count_beyond_declared_shape(self, tmp_path):
        path, lines = _ckpt_lines(tmp_path)
        i = _line_of(lines, "tensor memory") + 1
        lines[i] += " 0x1.0p+0"
        self._load_fails(path, lines, i + 1, "expected 2 values, got 3")

    def test_declared_shape_that_does_not_fit_dims(self, tmp_path):
        path, lines = _ckpt_lines(tmp_path)
        i = _line_of(lines, "tensor b_dl")
        lines[i : i + 2] = ["tensor b_dl 1 3", "0x0.0p+0 0x0.0p+0 0x0.0p+0"]
        self._load_fails(path, lines, i + 1, "expected 'tensor b_dl 1 2', got 'tensor b_dl 1 3'")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_scalar(self, tmp_path, bad):
        path, lines = _ckpt_lines(tmp_path)
        i = _line_of(lines, "scalar b_head_dl")
        lines[i] = f"scalar b_head_dl {bad}"
        self._load_fails(path, lines, i + 1, "non-finite value")

    def test_non_finite_tensor_entry(self, tmp_path):
        path, lines = _ckpt_lines(tmp_path)
        i = _line_of(lines, "tensor w_ep") + 1
        lines[i] = " ".join(["nan"] + lines[i].split()[1:])
        self._load_fails(path, lines, i + 1, "non-finite value")

    def test_non_finite_norm_entry(self, tmp_path):
        path, lines = _ckpt_lines(tmp_path)
        lines[2] = " ".join(lines[2].split()[:-1] + ["inf"])
        self._load_fails(path, lines, 3, "non-finite value")

    @pytest.mark.parametrize("token, name, value", [(2, "dl_std", 0.0), (4, "ep_std", -1.0), (6, "y_std", -0.0)])
    def test_non_positive_norm_std(self, tmp_path, token, name, value):
        # a zero std divides by zero on the first request, and a negative
        # one flips the sign of its stream
        path, lines = _ckpt_lines(tmp_path)
        tokens = lines[2].split()
        tokens[token] = value.hex()
        lines[2] = " ".join(tokens)
        self._load_fails(path, lines, 3, f"{name} must be positive")

    def test_swapped_tensors(self, tmp_path):
        # every name and shape is right, but a reader that walks the fields
        # in order meets b_dl where w_dl belongs
        path, lines = _ckpt_lines(tmp_path)
        i, j = _line_of(lines, "tensor w_dl"), _line_of(lines, "tensor b_dl")
        lines[i : j + 2] = lines[j : j + 2] + lines[i:j]
        self._load_fails(path, lines, i + 1, "expected 'tensor w_dl 2 2 2', got 'tensor b_dl 1 2'")

    def test_blank_line_between_tensors(self, tmp_path):
        path, lines = _ckpt_lines(tmp_path)
        i = _line_of(lines, "tensor w_ep")
        lines.insert(i, "")
        self._load_fails(path, lines, i + 1, "expected 'tensor w_ep 2 2 2', got ''")

    def test_dims_larger_than_the_file_can_hold(self, tmp_path):
        # rejected before the parameter vector is allocated, so a damaged
        # width raises ValueError, not MemoryError
        path, lines = _ckpt_lines(tmp_path)
        lines[1] = "dims 2 2 999999 1"
        self._load_fails(path, lines, 2, "dims need 12000007 values")

    def test_malformed_hex_value(self, tmp_path):
        path, lines = _ckpt_lines(tmp_path)
        i = _line_of(lines, "scalar b_head_mem")
        lines[i] = "scalar b_head_mem 0x1p99999"
        self._load_fails(path, lines, i + 1, "malformed hex float")


_DAMAGE_TOKENS = st.sampled_from(
    ["nan", "inf", "-inf", "0x1p99999", "", "bogus", "1.5", "-1", "0", "2", "3", "tensor", "scalar",
     "norm", "dims", "w_dl", "b_head_dl", "memory", "0x1.8p+1", "١", "²"]
)


@st.composite
def _damaged_checkpoint(draw, text):
    """A valid checkpoint truncated and/or with lines or tokens mutated."""
    for _ in range(draw(st.integers(1, 3))):
        lines = text.split("\n")
        op = draw(st.sampled_from(["truncate", "token", "drop_line", "repeat_line", "swap_lines"]))
        i = draw(st.integers(0, len(lines) - 1))
        if op == "truncate":
            text = text[: draw(st.integers(0, len(text)))]
            continue
        if op == "token":
            tokens = lines[i].split(" ")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_DAMAGE_TOKENS | st.text(max_size=6))
            lines[i] = " ".join(tokens)
        elif op == "drop_line":
            del lines[i]
        elif op == "repeat_line":
            lines.insert(i, lines[i])
        else:
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        text = "\n".join(lines)
    return text


_VALID_CKPT = (
    "pgmn-ckpt-1\ndims 2 2 2 1\n"
    "norm 0x1.0p+0 0x1.0p+1 0x1.8p+1 0x1.0p+2 0x1.4p+2 0x1.8p+2\n"
    "tensor w_dl 2 2 2\n0x1.0p-1 -0x1.0p-2 0x1.8p-1 0x0.0p+0\n"
    "tensor b_dl 1 2\n0x0.0p+0 0x1.0p-4\n"
    "tensor w_ep 2 2 2\n0x1.0p-1 0x1.0p-2 -0x1.8p-1 0x1.0p+0\n"
    "tensor b_ep 1 2\n0x0.0p+0 0x0.0p+0\n"
    "tensor memory 1 2\n0x1.0p-3 -0x1.0p-3\n"
    "tensor w_hid_dl 2 2 4\n0x1.0p-1 0x1.0p-2 0x1.0p-3 0x1.0p-4 0x1.0p-5 0x1.0p-6 0x1.0p-7 0x1.0p-8\n"
    "tensor b_hid_dl 1 2\n0x0.0p+0 0x0.0p+0\n"
    "tensor w_hid_ep 2 2 4\n-0x1.0p-1 0x1.0p-2 0x1.0p-3 0x1.0p-4 0x1.0p-5 0x1.0p-6 0x1.0p-7 0x1.0p-8\n"
    "tensor b_hid_ep 1 2\n0x0.0p+0 0x0.0p+0\n"
    "tensor w_head_dl 1 2\n0x1.0p-1 0x1.0p-2\nscalar b_head_dl 0x1.0p+0\n"
    "tensor w_head_ep 1 2\n0x1.0p-1 0x1.0p-2\nscalar b_head_ep -0x1.0p+0\n"
    "tensor w_head_mem 1 2\n0x1.0p-1 0x1.0p-2\nscalar b_head_mem 0x1.8p+0\n"
)


def test_valid_fixture_checkpoint_loads():
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "ok.ckpt"
        path.write_text(_VALID_CKPT)
        params, norm = M.load_checkpoint(path)
    assert params.dims == M.FusionDims(2, 2, 2) and params.b_head_mem == 1.5
    assert norm == NormStats(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)


@settings(max_examples=300, deadline=None)
@given(text=_damaged_checkpoint(_VALID_CKPT))
def test_damaged_checkpoints_load_whole_or_raise_value_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("ckpt") / "damaged.ckpt"
    path.write_text(text, encoding="utf-8")
    try:
        params, norm = M.load_checkpoint(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}:"), str(exc)
        return
    assert params.vector.shape == (params.dims.size,)
    assert np.all(np.isfinite(params.vector))
    for got, view in zip(params.flatten(), M.FusionParams(params.dims).flatten(), strict=True):
        assert got.shape == view.shape
    assert isinstance(norm, NormStats)
    assert np.all(np.isfinite(list(norm.as_dict().values())))


class TestConstructorBoundaries:
    @pytest.mark.parametrize("eta", [float("nan"), float("inf"), -float("inf")])
    def test_train_config_rejects_non_finite_eta(self, eta):
        with pytest.raises(ValueError, match="eta must be finite"):
            M.TrainConfig(eta=eta)

    @pytest.mark.parametrize("eta", ["1", True, None])
    def test_train_config_rejects_an_eta_that_is_not_a_real_number(self, eta):
        # True would train at a learning rate of 1
        with pytest.raises(ValueError, match="eta must be finite and a real number"):
            M.TrainConfig(eta=eta)

    @pytest.mark.parametrize("eta", [0, 0.0, -1e-3])
    def test_train_config_rejects_an_eta_that_is_not_positive(self, eta):
        with pytest.raises(ValueError, match="eta must be positive"):
            M.TrainConfig(eta=eta)

    @pytest.mark.parametrize("field", ["batch_size", "max_epochs", "early_stop_patience"])
    @pytest.mark.parametrize("value", [12.5, 3.0, True, "8"])
    def test_train_config_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ValueError, match=f"{field}.* must be an integer"):
            M.TrainConfig(**{field: value})

    @pytest.mark.parametrize("seed", [None, -1, 1.5, True, "3"])
    def test_train_config_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed):
        # None would train unseeded, so two runs would differ
        with pytest.raises(ValueError, match="seed must be"):
            M.TrainConfig(seed=seed)

    def test_train_config_accepts_numpy_integers(self):
        cfg = M.TrainConfig(batch_size=np.int64(16), max_epochs=np.int32(3), early_stop_patience=2, seed=np.uint32(0))
        assert cfg.batch_size == 16 and cfg.seed == 0

    @pytest.mark.parametrize("field", ["embed_dim", "memory_dim", "hidden_dim"])
    @pytest.mark.parametrize("value", [2.5, 2.0, False])
    def test_fusion_dims_rejects_non_integer_widths(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            M.FusionDims(**{field: value})

    @pytest.mark.parametrize("value", [2, 1, "no", None, np.bool_(True)])
    def test_fusion_dims_rejects_a_memory_flag_that_is_not_a_bool(self, value):
        # a checkpoint stores the flag as 0 or 1
        with pytest.raises(ValueError, match="memory_enabled must be a bool"):
            M.FusionDims(memory_enabled=value)


class TestPredictEmptyBatch:
    @pytest.mark.parametrize("memory_enabled", [True, False])
    def test_zero_rows_give_an_empty_float64_array(self, memory_enabled):
        # the general path, with no early return: a 0-row workspace
        p = M.init_params(M.FusionDims(2, 3, 2, memory_enabled=memory_enabled), 1)
        yhat = M.predict(SampleBatch([], [], [], [], []), p)
        assert yhat.dtype == np.float64 and yhat.shape == (0,)


class TestPredictNonFinite:
    def test_nan_weight_raises_with_count(self):
        p = M.init_params(M.FusionDims(2, 2, 2), 1)
        batch = sample_batch(np.arange(5.0), 0.5)
        assert np.all(np.isfinite(M.predict(batch, p)))
        p.b_head[1] = float("nan")
        with pytest.raises(ValueError, match="5 of 5 outputs are non-finite"):
            M.predict(batch, p)

    def test_count_names_only_the_bad_outputs(self):
        dims = M.FusionDims(1, 1, 1)
        p = manual_params(dims, fill=2.0)  # 2 * 1e308 overflows to inf
        with pytest.raises(ValueError, match="1 of 3 outputs are non-finite"):
            M.predict(sample_batch([1.0, 1e308, 2.0], 0.0), p)
