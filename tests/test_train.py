import multiprocessing
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest

from fusecast import model as M
from fusecast.harness import DEFAULT_DIMS
from fusecast.pipeline import SampleBatch, SplitSpec, split_samples


def measured(dl, ep, target):
    """A SampleBatch of the given columns, both streams present and every
    target a measured one."""
    n = len(dl)
    return SampleBatch(dl, np.ones(n, np.int64), ep, np.ones(n, np.int64), target, np.ones(n, bool))


def make_dataset(rng, n=80):
    v = rng.standard_normal(n)
    return measured(v, v, v)


def params_of(dims, arrays):
    """The FusionParams holding ``arrays`` in ``flatten`` order."""
    return M.FusionParams(dims, **dict(zip(M._TENSOR_FIELDS, arrays)))


def init_with_memory(dims, seed):
    """``init_params`` plus a memory drawn like a weight: the stream's next
    draws after the seven weight tensors."""
    p = M.init_params(dims, seed)
    rng = np.random.default_rng(seed)
    weights = ("w_dl", "w_ep", "w_hid_dl", "w_hid_ep", "w_head_dl", "w_head_ep", "w_head_mem")
    rng.uniform(size=sum(getattr(p, name).size for name in weights))  # init_params' draws
    bound = np.sqrt(1.0 / max(dims.mem_width, 1))
    p.memory = rng.uniform(-bound, bound, size=dims.mem_width)
    return p


class TestTrainBasics:
    def test_empty_dataset_rejected(self):
        p = M.init_params(M.FusionDims(2, 2, 2), 0)
        with pytest.raises(ValueError):
            empty = measured([], [], [])
            M.train(empty, p, M.TrainConfig(max_epochs=1), empty)

    def test_zero_gradient_fixed_point(self):
        # targets equal to the untrained predictions: nothing should move
        rng = np.random.default_rng(1)
        dims = M.FusionDims(3, 2, 3)
        p = M.init_params(dims, 5)
        dl, ep = rng.standard_normal((12, 2)).T
        preds = M.predict(measured(dl, ep, np.zeros(12)), p)
        fixed = measured(dl, ep, preds)
        cfg = M.TrainConfig(eta=0.01, max_epochs=25, early_stop_patience=25, seed=0)
        trained, history = M.train(fixed, p, cfg, None)
        for a, b in zip(p.flatten(), trained.flatten()):
            assert np.array_equal(np.asarray(a), np.asarray(b))
        assert history[0][0] == 0.0

    def test_history_lengths_and_values(self):
        rng = np.random.default_rng(2)
        samples = make_dataset(rng)
        p = M.init_params(M.FusionDims(4, 2, 4), 3)
        cfg = M.TrainConfig(eta=1e-3, max_epochs=10, early_stop_patience=10, seed=1)
        _, history = M.train(samples, p, cfg, None)
        assert len(history) == 10
        assert all(np.isfinite(tr) for tr, _ in history)
        assert all(np.isnan(va) for _, va in history)  # no validation split given

    def test_first_epoch_loss_is_pre_update_mse(self):
        rng = np.random.default_rng(3)
        samples = make_dataset(rng, n=30)
        p = M.init_params(M.FusionDims(3, 2, 3), 4)
        preds = M.predict(samples, p)
        expected = float(np.mean((samples.target - preds) ** 2))
        cfg = M.TrainConfig(eta=1e-3, max_epochs=1, early_stop_patience=1, seed=0)
        _, history = M.train(samples, p, cfg, None)
        assert history[0][0] == pytest.approx(expected, rel=1e-12)

    def test_training_reduces_loss(self):
        rng = np.random.default_rng(4)
        samples = make_dataset(rng, n=120)
        p = M.init_params(M.FusionDims(8, 4, 8), 6)
        cfg = M.TrainConfig(eta=3e-3, max_epochs=150, batch_size=32, early_stop_patience=150, seed=2)
        _, history = M.train(samples, p, cfg, None)
        assert history[-1][0] < 0.05 * history[0][0]


class TestBiasCorrection:
    def test_first_step_decreases_total_mse_on_offset_dataset(self):
        # constant target offset; eta = 1e-4
        rng = np.random.default_rng(6)
        base = rng.standard_normal(60)
        samples = measured(base, base, base + 0.5)
        p = M.init_params(M.FusionDims(8, 4, 8), 11)
        y = samples.target
        before = float(np.sum((y - M.predict(samples, p)) ** 2))
        cfg = M.TrainConfig(eta=1e-4, max_epochs=1, early_stop_patience=1, seed=0)
        trained, _ = M.train(samples, p, cfg, None)
        after = float(np.sum((y - M.predict(samples, trained)) ** 2))
        assert after < before

    def test_constant_bias_driven_toward_zero(self):
        # y = x + c for both streams: converged mean error well under 0.1|c|
        rng = np.random.default_rng(7)
        c = 0.5
        vals = rng.standard_normal(240)
        samples = measured(vals, vals, vals + c)
        train_s, val_s, test_s = split_samples(samples, SplitSpec())
        p = M.init_params(M.FusionDims(16, 8, 16), 13)
        cfg = M.TrainConfig(eta=3e-3, max_epochs=200, batch_size=32, early_stop_patience=200, seed=3)
        trained, _ = M.train(train_s, p, cfg, val_s)
        preds = M.predict(test_s, trained)
        me = float(np.mean(test_s.target - preds))
        assert abs(me) < 0.1 * abs(c)


class TestEarlyStopping:
    def test_stops_when_validation_stalls(self):
        rng = np.random.default_rng(8)
        samples = make_dataset(rng, n=60)
        # validation targets are pure noise: no real improvement possible
        val = measured(samples.dl[:20], samples.ep[:20], rng.standard_normal(20) * 100)
        p = M.init_params(M.FusionDims(4, 2, 4), 9)
        cfg = M.TrainConfig(eta=1e-2, max_epochs=500, early_stop_patience=5, seed=1)
        _, history = M.train(samples, p, cfg, val)
        assert len(history) < 500

    def test_restores_best_validation_params(self):
        rng = np.random.default_rng(9)
        samples = make_dataset(rng, n=60)
        val = make_dataset(rng, n=20)
        p = M.init_params(M.FusionDims(4, 2, 4), 10)
        cfg = M.TrainConfig(eta=1e-2, max_epochs=120, early_stop_patience=8, seed=2)
        trained, history = M.train(samples, p, cfg, val)
        vals = [va for _, va in history]
        preds = M.predict(val, trained)
        got = float(np.mean((val.target - preds) ** 2))
        assert got == pytest.approx(min(vals), rel=1e-9)


class TestDeterminismAndFailure:
    def test_identical_seed_bit_identical_params(self):
        rng = np.random.default_rng(10)
        samples = make_dataset(rng, n=50)
        p = M.init_params(M.FusionDims(5, 3, 5), 12)
        cfg = M.TrainConfig(eta=2e-3, max_epochs=30, batch_size=16, early_stop_patience=30, seed=77)
        a, _ = M.train(samples, p, cfg, None)
        b, _ = M.train(samples, p, cfg, None)
        for x, y in zip(a.flatten(), b.flatten()):
            assert np.array_equal(np.asarray(x), np.asarray(y))

    def test_different_seed_changes_minibatch_run(self):
        rng = np.random.default_rng(11)
        samples = make_dataset(rng, n=50)
        p = M.init_params(M.FusionDims(5, 3, 5), 12)
        cfg_a = M.TrainConfig(eta=2e-3, max_epochs=10, batch_size=16, early_stop_patience=10, seed=1)
        cfg_b = M.TrainConfig(eta=2e-3, max_epochs=10, batch_size=16, early_stop_patience=10, seed=2)
        a, _ = M.train(samples, p, cfg_a, None)
        b, _ = M.train(samples, p, cfg_b, None)
        assert any(not np.array_equal(np.asarray(x), np.asarray(y)) for x, y in zip(a.flatten(), b.flatten()))

    def test_divergence_reported_with_epoch_index(self):
        rng = np.random.default_rng(12)
        samples = make_dataset(rng, n=40)
        p = M.init_params(M.FusionDims(4, 2, 4), 1)
        cfg = M.TrainConfig(eta=1e300, max_epochs=50, early_stop_patience=50, seed=0)
        with pytest.raises(M.TrainingDiverged, match=r"epoch 1: non-finite training loss"):
            M.train(samples, p, cfg, None)

    @pytest.mark.parametrize("batch_size", [None, 40], ids=["fullbatch", "one-minibatch"])
    def test_overflowing_last_loss_raises_before_the_step(self, batch_size):
        # the epoch-1 predictions are finite but their squared errors
        # overflow; without a validation split nothing else would catch it,
        # and the step on those gradients would leave NaN parameters
        rng = np.random.default_rng(12)
        dl, ep = rng.standard_normal(40), rng.standard_normal(40)
        p = M.init_params(M.FusionDims(4, 2, 4), 1)
        cfg = M.TrainConfig(eta=1e80, max_epochs=2, batch_size=batch_size, early_stop_patience=2)
        with pytest.raises(M.TrainingDiverged, match=r"epoch 1: non-finite training loss"):
            M.train(measured(dl, ep, dl + ep), p, cfg, None)

    def test_overflowing_gradient_raises_before_the_step(self):
        # dead data-stream ReLUs keep yhat and the loss finite, but the
        # backward pass forms g * w_head = inf and then inf * 0 = NaN; the
        # step would write NaN into 15 of the 37 parameters
        p = M.init_params(M.FusionDims(2, 1, 2), 0)
        p.w_head_dl[...] = 1e300
        p.b_hid_dl[...] = -1e3
        v = np.random.default_rng(0).standard_normal(8)
        batch = measured(v, v, v + 1e10)
        assert np.isfinite(M.predict(batch, p)).all()
        with pytest.raises(M.TrainingDiverged, match=r"epoch 0: non-finite gradient"):
            M.train(batch, p, M.TrainConfig(eta=1e-3, max_epochs=1), None)

    def test_unobserved_targets_train_like_observed_ones(self):
        # scenario-3 rows hold the physics value as target with observed =
        # False; training reads the target and never the flag
        rng = np.random.default_rng(13)
        dl, ep = rng.standard_normal(30), rng.standard_normal(30)
        n = len(dl)
        ones = np.ones(n, np.int64)
        batches = [SampleBatch(dl, ones, ep, ones, ep, np.full(n, flag)) for flag in (True, False)]
        p = M.init_params(M.FusionDims(4, 2, 4), 2)
        cfg = M.TrainConfig(eta=1e-2, max_epochs=8, batch_size=8, early_stop_patience=8, seed=3)
        (a, hist_a), (b, hist_b) = (M.train(batch, p, cfg, None) for batch in batches)
        assert np.array_equal(np.array(hist_a), np.array(hist_b), equal_nan=True)
        assert a.vector.tobytes() == b.vector.tobytes()

    def test_optimizer_is_not_configurable(self):
        # training is Adam only
        assert [f.name for f in fields(M.TrainConfig)] == ["eta", "max_epochs", "batch_size", "early_stop_patience", "seed"]
        with pytest.raises(TypeError):
            M.TrainConfig(optimizer="adam")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            M.TrainConfig(eta=0.0)
        with pytest.raises(ValueError):
            M.TrainConfig(max_epochs=0)
        with pytest.raises(ValueError):
            M.TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            M.TrainConfig(early_stop_patience=0)


# ---------------------------------------------------------------------------
# Bit-identity oracles: the workspace kernel against the allocating kernel it
# replaced (copied below unchanged), and the flat-vector Adam against a
# per-tensor reference loop (the list-based Adam the flat buffer replaced)
# running on those reference kernels.
# ---------------------------------------------------------------------------

def _reference_pack_inputs(batch):
    x_dl = np.array([[v, float(m)] for v, m in zip(batch.dl, batch.dl_mask)])
    x_ep = np.array([[v, float(m)] for v, m in zip(batch.ep, batch.ep_mask)])
    return x_dl, x_ep


def _reference_batch_forward(x_dl, x_ep, params):
    n = x_dl.shape[0]
    mem = params.memory
    # divergence is caught via isfinite checks, so let overflow pass silently
    with np.errstate(over="ignore", invalid="ignore"):
        a_h_dl = x_dl @ params.w_dl.T + params.b_dl
        a_h_ep = x_ep @ params.w_ep.T + params.b_ep
        h_dl = np.maximum(a_h_dl, 0.0)
        h_ep = np.maximum(a_h_ep, 0.0)
        mem_rows = np.broadcast_to(mem, (n, mem.shape[0]))
        # C order, as the kernel's mixer input: at embed_dim 1, concatenate
        # returns an F-ordered array, which flips BLAS's transpose flag and
        # with it the last bit of the mixer product
        c_dl = np.ascontiguousarray(np.concatenate([h_dl, mem_rows], axis=1))
        c_ep = np.ascontiguousarray(np.concatenate([h_ep, mem_rows], axis=1))
        a_z_dl = c_dl @ params.w_hid_dl.T + params.b_hid_dl
        a_z_ep = c_ep @ params.w_hid_ep.T + params.b_hid_ep
        z_dl = np.maximum(a_z_dl, 0.0)
        z_ep = np.maximum(a_z_ep, 0.0)
        part_dl = z_dl @ params.w_head_dl + params.b_head_dl
        part_ep = z_ep @ params.w_head_ep + params.b_head_ep
        offset = float(params.w_head_mem @ mem) + params.b_head_mem
        yhat = part_dl + part_ep + offset
    return {
        "x_dl": x_dl, "x_ep": x_ep, "a_h_dl": a_h_dl, "a_h_ep": a_h_ep,
        "h_dl": h_dl, "h_ep": h_ep, "c_dl": c_dl, "c_ep": c_ep,
        "a_z_dl": a_z_dl, "a_z_ep": a_z_ep, "z_dl": z_dl, "z_ep": z_ep,
        "yhat": yhat,
    }


def _reference_batch_backward(cache, y, params, out=None):
    """Per-sample losses and the summed gradients over the batch, in ``out``."""
    d = params.dims.embed_dim
    yhat = cache["yhat"]
    losses = (y - yhat) ** 2
    g = 2.0 * (yhat - y)
    g_sum = float(np.sum(g))

    g_w_head_dl = cache["z_dl"].T @ g
    g_w_head_ep = cache["z_ep"].T @ g
    g_w_head_mem = g_sum * params.memory

    da_z_dl = np.outer(g, params.w_head_dl) * (cache["a_z_dl"] > 0)
    da_z_ep = np.outer(g, params.w_head_ep) * (cache["a_z_ep"] > 0)
    g_w_hid_dl = da_z_dl.T @ cache["c_dl"]
    g_w_hid_ep = da_z_ep.T @ cache["c_ep"]

    dc_dl = da_z_dl @ params.w_hid_dl
    dc_ep = da_z_ep @ params.w_hid_ep
    g_memory = dc_dl[:, d:].sum(axis=0) + dc_ep[:, d:].sum(axis=0) + g_sum * params.w_head_mem

    da_h_dl = dc_dl[:, :d] * (cache["a_h_dl"] > 0)
    da_h_ep = dc_ep[:, :d] * (cache["a_h_ep"] > 0)

    grads = out if out is not None else M.FusionParams(params.dims)
    grads.w_dl, grads.b_dl = da_h_dl.T @ cache["x_dl"], da_h_dl.sum(axis=0)
    grads.w_ep, grads.b_ep = da_h_ep.T @ cache["x_ep"], da_h_ep.sum(axis=0)
    grads.memory = g_memory
    grads.w_hid_dl, grads.b_hid_dl = g_w_hid_dl, da_z_dl.sum(axis=0)
    grads.w_hid_ep, grads.b_hid_ep = g_w_hid_ep, da_z_ep.sum(axis=0)
    grads.w_head_dl, grads.w_head_ep, grads.w_head_mem = g_w_head_dl, g_w_head_ep, g_w_head_mem
    grads.b_head_dl = grads.b_head_ep = grads.b_head_mem = g_sum
    return losses, grads


def _random_rows(rng, m):
    """Kernel inputs for m rows: (x_dl, x_ep) with random values and masks, and targets."""
    xs = tuple(np.column_stack([rng.standard_normal(m), rng.integers(0, 2, m)]).astype(np.float64) for _ in range(2))
    return xs, rng.standard_normal(m)


class TestWorkspaceKernelOracle:
    @pytest.mark.parametrize("memory_enabled", [True, False], ids=["memory", "no-memory"])
    @pytest.mark.parametrize("seed", range(6))
    def test_kernel_matches_reference_bit_for_bit(self, seed, memory_enabled):
        rng = np.random.default_rng(300 + seed)
        dims = M.FusionDims(*(int(rng.integers(1, 12)) for _ in range(3)), memory_enabled=memory_enabled)
        p = init_with_memory(dims, seed)
        p.vector[:] += 0.5 * rng.standard_normal(dims.size)
        ws = M._Workspace(dims, 128)
        # full size, a small batch, one row, a ragged tail, then full again:
        # rows left over from a larger batch must not reach a smaller one
        for m in (128, 7, 1, 121, 128):
            xs, y = _random_rows(rng, m)
            x = np.stack(xs)
            yhat = M._batch_forward(x, p, ws).copy()
            grads = M.FusionParams(dims, np.full(dims.size, np.nan))  # every entry must be written
            losses = M._batch_backward(x, y, p, ws, grads)
            ref_losses, ref_grads = _reference_batch_backward(_reference_batch_forward(*xs, p), y, p)
            ref_yhat = _reference_batch_forward(*xs, p)["yhat"]
            # tobytes compares sign bits too (0.0 vs -0.0), which array_equal does not
            assert yhat.tobytes() == ref_yhat.tobytes(), m
            assert losses.tobytes() == ref_losses.tobytes(), m
            assert grads.vector.tobytes() == ref_grads.vector.tobytes(), m

    @pytest.mark.parametrize("memory_enabled", [True, False], ids=["memory", "no-memory"])
    @pytest.mark.parametrize("seed", range(3))
    def test_kernel_reads_no_buffer_before_writing_it(self, seed, memory_enabled):
        # the backward pass writes gradients over spent forward values, so a
        # buffer read before this call writes it would carry stale data: a
        # NaN-filled arena and all-True masks make any such read show
        rng = np.random.default_rng(350 + seed)
        dims = M.FusionDims(*(int(rng.integers(1, 12)) for _ in range(3)), memory_enabled=memory_enabled)
        p = init_with_memory(dims, seed)
        p.vector[:] += 0.5 * rng.standard_normal(dims.size)
        ws = M._Workspace(dims, 128)
        for m in (128, 7, 1, 121, 128):
            ws.x.base[:] = np.nan
            ws.on_z.base[:] = True
            ws.offset = np.nan
            xs, y = _random_rows(rng, m)
            x = ws.x[:, :m]
            x[...] = np.stack(xs)
            yhat = M._batch_forward(x, p, ws).copy()
            grads = M.FusionParams(dims, np.full(dims.size, np.nan))
            losses = M._batch_backward(x, y, p, ws, grads)
            ref = _reference_batch_forward(*xs, p)
            ref_losses, ref_grads = _reference_batch_backward(ref, y, p)
            assert yhat.tobytes() == ref["yhat"].tobytes(), m
            assert losses.tobytes() == ref_losses.tobytes(), m
            assert grads.vector.tobytes() == ref_grads.vector.tobytes(), m

    @pytest.mark.parametrize("memory_enabled", [True, False], ids=["memory", "no-memory"])
    @pytest.mark.parametrize("m", [24, 5241], ids=["day-ahead-request", "full-year-train-split"])
    def test_kernel_matches_reference_at_serving_and_fullbatch_sizes(self, m, memory_enabled):
        # the experiment's widths at one day-ahead request and at one
        # full-batch update over the full-year training split
        rng = np.random.default_rng(320 + m)
        dims = replace(DEFAULT_DIMS, memory_enabled=memory_enabled)
        p = init_with_memory(dims, m)
        p.vector[:] += 0.1 * rng.standard_normal(dims.size)
        ws = M._Workspace(dims, m)
        for _ in range(2):
            xs, y = _random_rows(rng, m)
            yhat = M._batch_forward(np.stack(xs), p, ws).copy()
            grads = M.FusionParams(dims, np.full(dims.size, np.nan))
            losses = M._batch_backward(np.stack(xs), y, p, ws, grads)
            ref = _reference_batch_forward(*xs, p)
            ref_losses, ref_grads = _reference_batch_backward(ref, y, p)
            assert yhat.tobytes() == ref["yhat"].tobytes()
            assert losses.tobytes() == ref_losses.tobytes()
            assert grads.vector.tobytes() == ref_grads.vector.tobytes()

    @pytest.mark.parametrize("memory_enabled", [True, False], ids=["memory", "no-memory"])
    def test_kernel_matches_reference_at_embed_dim_one(self, memory_enabled):
        # a one-column embedding: the width at which a reference that built
        # its mixer input in F order parted from the kernel in the last bit
        rng = np.random.default_rng(340)
        dims = M.FusionDims(1, 34, 11, memory_enabled=memory_enabled)
        p = init_with_memory(dims, 7)
        p.vector[:] += 0.5 * rng.standard_normal(dims.size)
        ws = M._Workspace(dims, 46)
        for m in (46, 9, 46):
            xs, y = _random_rows(rng, m)
            yhat = M._batch_forward(np.stack(xs), p, ws).copy()
            grads = M.FusionParams(dims, np.full(dims.size, np.nan))
            losses = M._batch_backward(np.stack(xs), y, p, ws, grads)
            ref = _reference_batch_forward(*xs, p)
            ref_losses, ref_grads = _reference_batch_backward(ref, y, p)
            assert yhat.tobytes() == ref["yhat"].tobytes(), m
            assert losses.tobytes() == ref_losses.tobytes(), m
            assert grads.vector.tobytes() == ref_grads.vector.tobytes(), m

    @pytest.mark.parametrize("rows", [37, 5])
    def test_kernel_matches_reference_in_odd_sized_workspaces(self, rows):
        # an odd row count puts the physics half of every buffer at an
        # offset that is not a multiple of the data half's alignment
        rng = np.random.default_rng(330 + rows)
        for seed in range(4):
            dims = M.FusionDims(*(int(rng.integers(1, 12)) for _ in range(3)), memory_enabled=seed % 2 == 0)
            p = init_with_memory(dims, seed)
            p.vector[:] += 0.5 * rng.standard_normal(dims.size)
            ws = M._Workspace(dims, rows)
            for m in (rows, 3, rows):
                xs, y = _random_rows(rng, m)
                yhat = M._batch_forward(np.stack(xs), p, ws).copy()
                grads = M.FusionParams(dims, np.full(dims.size, np.nan))
                losses = M._batch_backward(np.stack(xs), y, p, ws, grads)
                ref = _reference_batch_forward(*xs, p)
                ref_losses, ref_grads = _reference_batch_backward(ref, y, p)
                assert yhat.tobytes() == ref["yhat"].tobytes(), (dims, m)
                assert losses.tobytes() == ref_losses.tobytes(), (dims, m)
                assert grads.vector.tobytes() == ref_grads.vector.tobytes(), (dims, m)

    @pytest.mark.parametrize("backward", [True, False], ids=["train", "forward-only"])
    @pytest.mark.parametrize("memory_enabled", [True, False], ids=["memory", "no-memory"])
    def test_float_buffers_are_blocks_of_one_allocation(self, backward, memory_enabled):
        # one block per workspace stays in the heap between calls, where
        # many smaller ones are trimmed and page-faulted in again
        dims = M.FusionDims(3, 4, 5, memory_enabled=memory_enabled)
        ws = M._Workspace(dims, 17, backward=backward)
        floats = {k: v for k, v in vars(ws).items() if isinstance(v, np.ndarray) and v.dtype == np.float64}
        names = {"x", "a_h", "c", "z", "part", "yhat"}
        assert set(floats) == (names | {"losses", "g", "dmem"} if backward else names)
        arena = floats["x"].base
        assert arena is not None and arena.base is None and arena.ndim == 1
        assert all(buf.base is arena for buf in floats.values())
        assert arena.size == sum(buf.size for buf in floats.values())
        if backward:
            masks = [ws.on_z, ws.on_h]
            assert all(buf.dtype == bool and buf.base is masks[0].base for buf in masks)

        # per row: x 4, a_h 2d, c 2(d + mw), z 2dz, part 2, yhat 1, and for
        # training losses 1 and g 1; plus dmem 2mw once
        def arena_size(dims, rows):
            d, mw, dz = dims.embed_dim, dims.mem_width, dims.hidden_dim
            per_row = 7 + 4 * d + 2 * mw + 2 * dz + (2 if backward else 0)
            return per_row * rows + (2 * mw if backward else 0)

        assert arena.size == arena_size(dims, 17)
        experiment = replace(DEFAULT_DIMS, memory_enabled=memory_enabled)
        size = M._Workspace(experiment, 29, backward=backward).x.base.size
        assert size == arena_size(experiment, 29)
        if memory_enabled:
            assert size == (233 * 29 + 2 * experiment.memory_dim if backward else 231 * 29)

    def test_one_row_workspace_matches_reference(self):
        rng = np.random.default_rng(310)
        dims = M.FusionDims(5, 4, 6)
        p = init_with_memory(dims, 3)
        data = make_dataset(rng, n=20)
        for i in range(len(data)):
            s = data[i : i + 1]
            ws = M._Workspace(dims, 1)
            x = M._fill_inputs(s, ws.x)
            M._batch_forward(x, p, ws)
            grads = M.FusionParams(dims)
            losses = M._batch_backward(x, s.target, p, ws, grads)
            ref_losses, ref_grads = _reference_batch_backward(_reference_batch_forward(*_reference_pack_inputs(s), p), s.target, p)
            assert losses.tobytes() == ref_losses.tobytes()
            assert grads.vector.tobytes() == ref_grads.vector.tobytes()


# ---------------------------------------------------------------------------
# The two-thread path: forced on any machine by claiming a second CPU and
# lowering the row threshold to one row.
# ---------------------------------------------------------------------------

@pytest.fixture
def split_always(monkeypatch):
    """Every kernel call that has a helper splits; returns the set of
    threads ("caller", "helper") that ran a stream's layers."""
    monkeypatch.setattr(M, "usable_cpus", lambda: 2)
    monkeypatch.setattr(M, "_SPLIT_ROWS", 1)
    monkeypatch.setattr(M, "_FORWARD_SPLIT_ROWS", 1)
    seen = set()
    for name in ("_forward_layers", "_backward_layers"):
        def spy(*args, _layers=getattr(M, name)):
            seen.add("caller" if threading.current_thread() is threading.main_thread() else "helper")
            _layers(*args)

        monkeypatch.setattr(M, name, spy)
    return seen


class TestStreamSplit:
    @pytest.mark.parametrize("memory_enabled", [True, False], ids=["memory", "no-memory"])
    @pytest.mark.parametrize("seed", range(4))
    def test_split_kernel_matches_reference_bit_for_bit(self, split_always, seed, memory_enabled):
        rng = np.random.default_rng(360 + seed)
        dims = M.FusionDims(*(int(rng.integers(1, 12)) for _ in range(3)), memory_enabled=memory_enabled)
        p = init_with_memory(dims, seed)
        p.vector[:] += 0.5 * rng.standard_normal(dims.size)
        with M._StreamThread() as helper:
            ws = M._Workspace(dims, 128, helper=helper)
            for m in (1, 7, 121, 128):
                xs, y = _random_rows(rng, m)
                x = np.stack(xs)
                yhat = M._batch_forward(x, p, ws).copy()
                grads = M.FusionParams(dims, np.full(dims.size, np.nan))  # every entry must be written
                losses = M._batch_backward(x, y, p, ws, grads)
                ref = _reference_batch_forward(*xs, p)
                ref_losses, ref_grads = _reference_batch_backward(ref, y, p)
                assert yhat.tobytes() == ref["yhat"].tobytes(), m
                assert losses.tobytes() == ref_losses.tobytes(), m
                assert grads.vector.tobytes() == ref_grads.vector.tobytes(), m
        assert split_always == {"caller", "helper"}

    def test_split_training_matches_stacked_training(self, split_always):
        rng = np.random.default_rng(370)
        samples, val = make_dataset(rng, n=50), make_dataset(rng, n=20)
        p = init_with_memory(M.FusionDims(4, 3, 5), 5)
        for batch_size in (None, 16):
            cfg = M.TrainConfig(eta=5e-3, max_epochs=6, batch_size=batch_size, early_stop_patience=6, seed=2)
            split = M.train(samples, p, cfg, val)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(M, "usable_cpus", lambda: 1)
                stacked = M.train(samples, p, cfg, val)
            assert split[0].vector.tobytes() == stacked[0].vector.tobytes()
            assert np.array_equal(split[1], stacked[1])
        assert split_always == {"caller", "helper"}

    @pytest.mark.parametrize("layers", ["_forward_layers", "_backward_layers"])
    def test_helper_exception_reaches_the_caller(self, split_always, monkeypatch, layers):
        real = getattr(M, layers)

        def failing_off_the_calling_thread(*args):
            if threading.current_thread() is not threading.main_thread():
                raise FloatingPointError("injected in the helper")
            real(*args)

        monkeypatch.setattr(M, layers, failing_off_the_calling_thread)
        rng = np.random.default_rng(371)
        samples = make_dataset(rng, n=30)
        p = M.init_params(M.FusionDims(3, 2, 3), 1)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="injected in the helper"):
            M.train(samples, p, M.TrainConfig(max_epochs=2, early_stop_patience=2))
        if layers == "_forward_layers":
            with pytest.raises(FloatingPointError, match="injected in the helper"):
                M.predict(samples, p)
        assert threading.active_count() == before

    def test_overflow_in_the_helper_raises_no_runtime_warning(self, split_always):
        # the suite turns RuntimeWarning into an error, so a helper that ran
        # under numpy's default error state would fail this with one; only
        # the physics stream (the helper's) overflows
        rng = np.random.default_rng(372)
        samples = make_dataset(rng, n=40)
        p = M.init_params(M.FusionDims(3, 2, 3), 2)
        p.w_hid_ep = np.full((3, 5), 1e300)
        p.w_head_ep = np.full(3, 1e300)
        with M._StreamThread() as helper:
            ws = M._Workspace(p.dims, 40, backward=False, helper=helper)
            M._batch_forward(M._fill_inputs(samples, ws.x), p, ws)
        assert np.isinf(ws.part[1]).any() and np.isfinite(ws.part[0]).all()
        with pytest.raises(M.TrainingDiverged):
            M.train(samples, p, M.TrainConfig(max_epochs=2, early_stop_patience=2))
        with pytest.raises(ValueError, match="non-finite"):
            M.predict(samples, p)
        assert split_always == {"caller", "helper"}

    def test_no_helper_outlives_train_or_predict(self, split_always):
        # the harness forks its pool after training in this process, so a
        # helper left running would be forked along
        rng = np.random.default_rng(373)
        samples, val = make_dataset(rng, n=30), make_dataset(rng, n=10)
        p = M.init_params(M.FusionDims(3, 2, 3), 3)
        before = threading.active_count()
        for batch_size in (None, 8):
            M.train(samples, p, M.TrainConfig(max_epochs=3, batch_size=batch_size, early_stop_patience=3), val)
            assert threading.active_count() == before
        M.predict(samples, p)
        assert threading.active_count() == before
        assert split_always == {"caller", "helper"}

    def test_split_needs_enough_rows_and_a_second_cpu(self, monkeypatch):
        monkeypatch.setattr(M, "usable_cpus", lambda: 2)
        assert M._split(M._SPLIT_ROWS, M._SPLIT_ROWS) and not M._split(M._SPLIT_ROWS - 1, M._SPLIT_ROWS)
        monkeypatch.setattr(M, "usable_cpus", lambda: 1)
        assert not M._split(10 * M._SPLIT_ROWS, M._SPLIT_ROWS)

    def test_forward_only_calls_split_from_more_rows(self):
        # a forward-only call does a third of a training pass's work per
        # handoff, so it needs more rows to gain from the helper
        dims = M.FusionDims(3, 2, 3)
        assert M._Workspace(dims, 1).split_rows == M._SPLIT_ROWS
        assert M._Workspace(dims, 1, backward=False).split_rows == M._FORWARD_SPLIT_ROWS > M._SPLIT_ROWS

    def test_fork_child_takes_the_stacked_path(self, split_always):
        # a pool's workers already fill the CPUs
        assert M._split(1, 1)
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
            assert pool.submit(M._split, 1, 1).result(timeout=60) is False

    def test_stacked_path_without_a_helper(self, split_always):
        rng = np.random.default_rng(374)
        dims = M.FusionDims(3, 2, 3)
        p = init_with_memory(dims, 4)
        xs, y = _random_rows(rng, 9)
        ws = M._Workspace(dims, 9)
        M._batch_forward(np.stack(xs), p, ws)
        M._batch_backward(np.stack(xs), y, p, ws, M.FusionParams(dims))
        assert split_always == {"caller"}


def _reference_adam(params, grads, m, v, step, eta, beta1=0.9, beta2=0.999, eps=1e-8):
    t = step + 1
    new_m, new_v, new_p = [], [], []
    for p, g, m0, v0 in zip(params, grads, m, v):
        m1 = beta1 * m0 + (1.0 - beta1) * g
        v1 = beta2 * v0 + (1.0 - beta2) * g * g
        mhat = m1 / (1.0 - beta1**t)
        vhat = v1 / (1.0 - beta2**t)
        new_p.append(p - eta * mhat / (np.sqrt(vhat) + eps))
        new_m.append(m1)
        new_v.append(v1)
    return new_p, new_m, new_v, t


def _reference_train(dataset, params, cfg, validation):
    """Per-tensor copy of the training loop on the reference kernels."""
    x_dl, x_ep = _reference_pack_inputs(dataset)
    y = dataset.target
    if validation:
        xv_dl, xv_ep = _reference_pack_inputs(validation)
        yv = validation.target
    arrays = [np.array(a) for a in params.flatten()]
    m = [np.zeros_like(a) for a in arrays]
    v = [np.zeros_like(a) for a in arrays]
    step = 0
    rng = np.random.default_rng(cfg.seed)
    n = len(dataset)
    batches = [np.arange(n)] if cfg.batch_size is None else None

    def update(idx):
        nonlocal arrays, m, v, step
        p = params_of(params.dims, arrays)
        losses, grads = _reference_batch_backward(_reference_batch_forward(x_dl[idx], x_ep[idx], p), y[idx], p)
        g = [np.array(a) for a in grads.flatten()]
        arrays, m, v, step = _reference_adam(arrays, g, m, v, step, cfg.eta)
        return losses

    history, best_val, best, stall = [], np.inf, None, 0
    for _ in range(cfg.max_epochs):
        if batches is not None:
            train_mse = float(np.mean(update(batches[0])))
        else:
            perm = rng.permutation(n)
            loss_sum = 0.0
            for start in range(0, n, cfg.batch_size):
                loss_sum += float(np.sum(update(perm[start : start + cfg.batch_size])))
            train_mse = loss_sum / n
        val_mse = float("nan")
        if validation:
            p = params_of(params.dims, arrays)
            val_mse = float(np.mean((yv - _reference_batch_forward(xv_dl, xv_ep, p)["yhat"]) ** 2))
        history.append((train_mse, val_mse))
        if validation:
            if val_mse < best_val:
                best_val, best, stall = val_mse, [np.array(a) for a in arrays], 0
            else:
                stall += 1
                if stall >= cfg.early_stop_patience:
                    break
    return (best if validation else arrays), history


class TestFlatOptimizerOracle:
    @pytest.mark.parametrize(
        "batch_size,with_val",
        [(16, True), (None, True), (7, False), (5, True), (None, False)],
        ids=["minibatch-adam", "fullbatch-adam", "ragged-adam-noval", "small-batches-adam", "fullbatch-adam-noval"],
    )
    def test_train_matches_per_tensor_reference_exactly(self, batch_size, with_val):
        rng = np.random.default_rng(20)
        samples = make_dataset(rng, n=60)
        val = make_dataset(rng, n=20) if with_val else None
        p = init_with_memory(M.FusionDims(4, 3, 5), 21)
        cfg = M.TrainConfig(eta=5e-3, max_epochs=40, batch_size=batch_size, early_stop_patience=6, seed=4)
        trained, history = M.train(samples, p, cfg, val)
        ref_arrays, ref_history = _reference_train(samples, p, cfg, val)
        assert len(history) == len(ref_history)
        assert np.array_equal(np.array(history), np.array(ref_history), equal_nan=True)
        for name, a, b in zip(M._TENSOR_FIELDS, trained.flatten(), ref_arrays):
            assert np.array_equal(a, b), name


class TestBufferAliasing:
    def test_train_leaves_callers_params_untouched(self):
        rng = np.random.default_rng(22)
        samples = make_dataset(rng, n=40)
        p = M.init_params(M.FusionDims(3, 2, 3), 23)
        before = p.vector.copy()
        views = [a.copy() for a in p.flatten()]
        cfg = M.TrainConfig(eta=1e-2, max_epochs=5, batch_size=8, early_stop_patience=5, seed=1)
        trained, _ = M.train(samples, p, cfg, make_dataset(rng, n=10))
        assert np.array_equal(p.vector, before)
        for a, b in zip(p.flatten(), views):
            assert np.array_equal(a, b)
        assert not np.array_equal(trained.vector, before)
        assert not np.shares_memory(trained.vector, p.vector)

    @pytest.mark.parametrize("with_val", [True, False])
    def test_result_shares_no_memory_with_training_buffers(self, monkeypatch, with_val):
        seen = []
        real_step = M.adam_step

        def spy(params, grads, state):
            seen.extend([params, grads, state.m, state.v])
            real_step(params, grads, state)

        monkeypatch.setattr(M, "adam_step", spy)
        rng = np.random.default_rng(24)
        samples = make_dataset(rng, n=30)
        val = make_dataset(rng, n=10) if with_val else None
        p = M.init_params(M.FusionDims(3, 2, 3), 25)
        cfg = M.TrainConfig(eta=1e-2, max_epochs=4, batch_size=10, early_stop_patience=4, seed=2)
        trained, _ = M.train(samples, p, cfg, val)
        assert len(seen) == 4 * 3 * 4  # four buffers per update, three updates per epoch
        for buf in seen:
            assert not np.shares_memory(trained.vector, buf)
        assert not np.shares_memory(trained.vector, p.vector)

    def test_field_assignment_is_visible_through_vector(self):
        dims = M.FusionDims(2, 2, 2)
        p = M.init_params(dims, 3)
        p.w_dl = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(p.vector[:4], [1.0, 2.0, 3.0, 4.0])
        p.w_hid_dl[:, :2] = 7.0  # in-place slice writes reach the vector too
        assert np.array_equal(p.vector, params_of(dims, p.flatten()).vector)
        p.b_head_mem = -3.25
        assert p.vector[-1] == -3.25 and p.b_head_mem == -3.25
        p.memory = np.array([0.5, -0.5])
        offset = sum(a.size for a in p.flatten()[:4])
        assert np.array_equal(p.vector[offset : offset + 2], [0.5, -0.5])
        with pytest.raises(M.ShapeMismatch):
            p.b_dl = np.zeros(3)
        with pytest.raises(AttributeError):
            p.dims = M.FusionDims(3, 3, 3)

    def test_copy_is_one_independent_vector(self):
        p = M.init_params(M.FusionDims(2, 2, 2), 4)
        q = p.copy()
        assert np.array_equal(p.vector, q.vector) and not np.shares_memory(p.vector, q.vector)
        q.b_head_dl = 9.0
        assert p.b_head_dl == 0.0
