import contextlib
import math
import multiprocessing
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest

from fusecast import model as M
from fusecast.harness import DEFAULT_DIMS
from fusecast.pipeline import SampleBatch, SplitSpec, split_samples


def measured(dl, ep, target):
    """A SampleBatch of the given columns, both streams present."""
    n = len(dl)
    return SampleBatch(dl, np.ones(n, np.int64), ep, np.ones(n, np.int64), target)


def make_dataset(rng, n=80):
    v = rng.standard_normal(n)
    return measured(v, v, v)


# The blocks of FusionParams that stack the data stream on the physics stream.
STACKED = ("w", "b", "w_hid", "b_hid", "w_head", "b_head")


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


class TestTrainBasics:
    def test_empty_dataset_rejected(self):
        p = M.init_params(M.FusionDims(2, 2, 2), 0)
        with pytest.raises(ValueError):
            empty = measured([], [], [])
            M.train(empty, p, M.TrainConfig(max_epochs=1), empty)

    def test_validation_split_required(self):
        # every training early-stops on a validation split; there is no
        # mode that trains to max_epochs and keeps the last parameters
        samples = make_dataset(np.random.default_rng(0), n=10)
        p = M.init_params(M.FusionDims(2, 2, 2), 0)
        for validation in (None, samples[:0]):
            with pytest.raises(ValueError, match="^empty validation dataset$"):
                M.train(samples, p, M.TrainConfig(max_epochs=1), validation)
        with pytest.raises(TypeError, match="validation"):
            M.train(samples, p, M.TrainConfig(max_epochs=1))

    def test_zero_gradient_fixed_point(self):
        # targets equal to the untrained predictions: nothing should move
        rng = np.random.default_rng(1)
        dims = M.FusionDims(3, 2, 3)
        p = M.init_params(dims, 5)
        dl, ep = rng.standard_normal((12, 2)).T
        preds = M.predict(measured(dl, ep, np.zeros(12)), p)
        fixed = measured(dl, ep, preds)
        cfg = M.TrainConfig(eta=0.01, max_epochs=25, early_stop_patience=25, seed=0)
        trained, history = M.train(fixed, p, cfg, fixed)
        for a, b in zip(p.flatten(), trained.flatten()):
            assert np.array_equal(np.asarray(a), np.asarray(b))
        assert history[0] == (0.0, 0.0)

    def test_history_lengths_and_values(self):
        rng = np.random.default_rng(2)
        samples = make_dataset(rng)
        p = M.init_params(M.FusionDims(4, 2, 4), 3)
        val = make_dataset(rng, n=20)
        cfg = M.TrainConfig(eta=1e-3, max_epochs=10, early_stop_patience=10, seed=1)
        _, history = M.train(samples, p, cfg, val)
        assert len(history) == 10  # patience equals max_epochs, so no early stop
        assert all(np.isfinite(tr) and np.isfinite(va) for tr, va in history)

    def test_first_epoch_loss_is_pre_update_mse(self):
        rng = np.random.default_rng(3)
        samples = make_dataset(rng, n=30)
        p = M.init_params(M.FusionDims(3, 2, 3), 4)
        preds = M.predict(samples, p)
        expected = float(np.mean((samples.target - preds) ** 2))
        cfg = M.TrainConfig(eta=1e-3, max_epochs=1, early_stop_patience=1, seed=0)
        _, history = M.train(samples, p, cfg, samples)
        assert history[0][0] == pytest.approx(expected, rel=1e-12)

    def test_training_reduces_loss(self):
        rng = np.random.default_rng(4)
        samples = make_dataset(rng, n=120)
        p = M.init_params(M.FusionDims(8, 4, 8), 6)
        cfg = M.TrainConfig(eta=3e-3, max_epochs=150, batch_size=32, early_stop_patience=150, seed=2)
        _, history = M.train(samples, p, cfg, make_dataset(rng, n=40))
        assert len(history) == 150
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
        trained, _ = M.train(samples, p, cfg, samples)
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
        val = make_dataset(rng, n=20)
        cfg = M.TrainConfig(eta=2e-3, max_epochs=30, batch_size=16, early_stop_patience=30, seed=77)
        a, _ = M.train(samples, p, cfg, val)
        b, _ = M.train(samples, p, cfg, val)
        for x, y in zip(a.flatten(), b.flatten()):
            assert np.array_equal(np.asarray(x), np.asarray(y))

    def test_different_seed_changes_minibatch_run(self):
        rng = np.random.default_rng(11)
        samples = make_dataset(rng, n=50)
        p = M.init_params(M.FusionDims(5, 3, 5), 12)
        cfg_a = M.TrainConfig(eta=2e-3, max_epochs=10, batch_size=16, early_stop_patience=10, seed=1)
        cfg_b = M.TrainConfig(eta=2e-3, max_epochs=10, batch_size=16, early_stop_patience=10, seed=2)
        val = make_dataset(rng, n=20)
        a, _ = M.train(samples, p, cfg_a, val)
        b, _ = M.train(samples, p, cfg_b, val)
        assert any(not np.array_equal(np.asarray(x), np.asarray(y)) for x, y in zip(a.flatten(), b.flatten()))

    def test_divergence_reported_with_epoch_index(self):
        # eta = 1e51: after the first step the one validation row's squared
        # error (about 1e307) is still finite, and the sum of 40 such
        # training errors overflows in epoch 1
        rng = np.random.default_rng(12)
        samples = make_dataset(rng, n=40)
        p = M.init_params(M.FusionDims(4, 2, 4), 1)
        cfg = M.TrainConfig(eta=1e51, max_epochs=50, early_stop_patience=50, seed=0)
        with pytest.raises(M.TrainingDiverged, match=r"epoch 1: non-finite training loss"):
            M.train(samples, p, cfg, make_dataset(rng, n=1))
        cfg = M.TrainConfig(eta=1e300, max_epochs=50, early_stop_patience=50, seed=0)
        with pytest.raises(M.TrainingDiverged, match=r"epoch 0: non-finite validation loss"):
            M.train(samples, p, cfg, make_dataset(rng, n=1))

    @pytest.mark.parametrize("batch_size", [None, 40], ids=["fullbatch", "one-minibatch"])
    def test_overflowing_last_loss_raises_before_the_step(self, batch_size):
        # the epoch-1 predictions are finite but their squared errors
        # overflow when summed over 40 rows, while the epoch-0 validation
        # MSE of one row stays finite; nothing else would catch it, and the
        # step on those gradients would leave NaN parameters
        rng = np.random.default_rng(12)
        dl, ep = rng.standard_normal(40), rng.standard_normal(40)
        p = M.init_params(M.FusionDims(4, 2, 4), 1)
        cfg = M.TrainConfig(eta=1e51, max_epochs=2, batch_size=batch_size, early_stop_patience=2)
        samples = measured(dl, ep, dl + ep)
        with pytest.raises(M.TrainingDiverged, match=r"epoch 1: non-finite training loss"):
            M.train(samples, p, cfg, samples[:1])

    def test_overflowing_gradient_raises_before_the_step(self):
        # dead data-stream ReLUs keep yhat and the loss finite, but the
        # backward pass forms g * w_head = inf and then inf * 0 = NaN; the
        # step would write NaN into 15 of the 37 parameters
        p = M.init_params(M.FusionDims(2, 1, 2), 0)
        p.w_head[0] = 1e300
        p.b_hid[0] = -1e3
        v = np.random.default_rng(0).standard_normal(8)
        batch = measured(v, v, v + 1e10)
        assert np.isfinite(M.predict(batch, p)).all()
        with pytest.raises(M.TrainingDiverged, match=r"epoch 0: non-finite gradient"):
            M.train(batch, p, M.TrainConfig(eta=1e-3, max_epochs=1), batch)

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
# Oracles: the workspace kernel against an allocating reference kernel in the
# same folded arithmetic (bit for bit), and against the concatenated kernel
# the fold replaced (copied below unchanged, to a relative 1e-12); the
# flat-vector Adam against a per-tensor reference loop (the list-based Adam
# the flat buffer replaced) running on the folded reference kernels.
# ---------------------------------------------------------------------------

def _reference_pack_inputs(batch):
    x_dl = np.array([[v, float(m)] for v, m in zip(batch.dl, batch.dl_mask)])
    x_ep = np.array([[v, float(m)] for v, m in zip(batch.ep, batch.ep_mask)])
    return x_dl, x_ep


def _reference_batch_forward(x_dl, x_ep, params):
    """The forward pass with the memory folded into each mixer's bias: the
    mixer multiplies the embedding columns of its weight only."""
    d = params.dims.embed_dim
    mem = params.memory
    # divergence is caught via isfinite checks, so let overflow pass silently
    with np.errstate(over="ignore", invalid="ignore"):
        a_h_dl = x_dl @ params.w[0].T + params.b[0]
        a_h_ep = x_ep @ params.w[1].T + params.b[1]
        h_dl = np.maximum(a_h_dl, 0.0)
        h_ep = np.maximum(a_h_ep, 0.0)
        zb_dl = params.w_hid[0][:, d:] @ mem + params.b_hid[0]
        zb_ep = params.w_hid[1][:, d:] @ mem + params.b_hid[1]
        a_z_dl = h_dl @ params.w_hid[0][:, :d].T + zb_dl
        a_z_ep = h_ep @ params.w_hid[1][:, :d].T + zb_ep
        z_dl = np.maximum(a_z_dl, 0.0)
        z_ep = np.maximum(a_z_ep, 0.0)
        part_dl = z_dl @ params.w_head[0] + params.b_head[0, ...]
        part_ep = z_ep @ params.w_head[1] + params.b_head[1, ...]
        offset = float(params.w_head_mem @ mem) + params.b_head_mem
        yhat = part_dl + part_ep + offset
    return {
        "x_dl": x_dl, "x_ep": x_ep, "a_h_dl": a_h_dl, "a_h_ep": a_h_ep,
        "h_dl": h_dl, "h_ep": h_ep, "a_z_dl": a_z_dl, "a_z_ep": a_z_ep,
        "z_dl": z_dl, "z_ep": z_ep, "yhat": yhat,
    }


def _reference_batch_backward(cache, y, params, out=None):
    """Per-sample losses and the summed gradients over the batch, in
    ``out``, for the folded forward pass: the row sum of each mixer's
    pre-activation gradient carries the memory's share back."""
    d = params.dims.embed_dim
    mem = params.memory
    yhat = cache["yhat"]
    losses = (y - yhat) ** 2
    g = 2.0 * (yhat - y)
    g_sum = float(np.sum(g))

    g_w_head_dl = cache["z_dl"].T @ g
    g_w_head_ep = cache["z_ep"].T @ g
    g_w_head_mem = g_sum * mem

    da_z_dl = np.outer(g, params.w_head[0]) * (cache["a_z_dl"] > 0)
    da_z_ep = np.outer(g, params.w_head[1]) * (cache["a_z_ep"] > 0)
    sz_dl, sz_ep = da_z_dl.sum(axis=0), da_z_ep.sum(axis=0)
    g_w_hid_dl = np.hstack([da_z_dl.T @ cache["h_dl"], np.outer(sz_dl, mem)])
    g_w_hid_ep = np.hstack([da_z_ep.T @ cache["h_ep"], np.outer(sz_ep, mem)])
    g_memory = sz_dl @ params.w_hid[0][:, d:] + sz_ep @ params.w_hid[1][:, d:] + g_sum * params.w_head_mem

    da_h_dl = (da_z_dl @ params.w_hid[0][:, :d]) * (cache["a_h_dl"] > 0)
    da_h_ep = (da_z_ep @ params.w_hid[1][:, :d]) * (cache["a_h_ep"] > 0)

    grads = out if out is not None else M.FusionParams(params.dims)
    grads.w[0], grads.b[0] = da_h_dl.T @ cache["x_dl"], da_h_dl.sum(axis=0)
    grads.w[1], grads.b[1] = da_h_ep.T @ cache["x_ep"], da_h_ep.sum(axis=0)
    grads.memory[...] = g_memory
    grads.w_hid[0], grads.b_hid[0] = g_w_hid_dl, sz_dl
    grads.w_hid[1], grads.b_hid[1] = g_w_hid_ep, sz_ep
    grads.w_head[0], grads.w_head[1], grads.w_head_mem[...] = g_w_head_dl, g_w_head_ep, g_w_head_mem
    grads.b_head[...] = grads.b_head_mem[...] = g_sum
    return losses, grads


def _concat_batch_forward(x_dl, x_ep, params):
    """The forward pass of the kernel before the fold: the memory copied
    into every row of the mixer input ``c = [h, memory]``."""
    n = x_dl.shape[0]
    mem = params.memory
    with np.errstate(over="ignore", invalid="ignore"):
        a_h_dl = x_dl @ params.w[0].T + params.b[0]
        a_h_ep = x_ep @ params.w[1].T + params.b[1]
        h_dl = np.maximum(a_h_dl, 0.0)
        h_ep = np.maximum(a_h_ep, 0.0)
        mem_rows = np.broadcast_to(mem, (n, mem.shape[0]))
        c_dl = np.ascontiguousarray(np.concatenate([h_dl, mem_rows], axis=1))
        c_ep = np.ascontiguousarray(np.concatenate([h_ep, mem_rows], axis=1))
        a_z_dl = c_dl @ params.w_hid[0].T + params.b_hid[0]
        a_z_ep = c_ep @ params.w_hid[1].T + params.b_hid[1]
        z_dl = np.maximum(a_z_dl, 0.0)
        z_ep = np.maximum(a_z_ep, 0.0)
        part_dl = z_dl @ params.w_head[0] + params.b_head[0, ...]
        part_ep = z_ep @ params.w_head[1] + params.b_head[1, ...]
        offset = float(params.w_head_mem @ mem) + params.b_head_mem
        yhat = part_dl + part_ep + offset
    return {
        "x_dl": x_dl, "x_ep": x_ep, "a_h_dl": a_h_dl, "a_h_ep": a_h_ep,
        "h_dl": h_dl, "h_ep": h_ep, "c_dl": c_dl, "c_ep": c_ep,
        "a_z_dl": a_z_dl, "a_z_ep": a_z_ep, "z_dl": z_dl, "z_ep": z_ep,
        "yhat": yhat,
    }


def _concat_batch_backward(cache, y, params):
    """Per-sample losses and the summed gradients of ``_concat_batch_forward``."""
    d = params.dims.embed_dim
    yhat = cache["yhat"]
    losses = (y - yhat) ** 2
    g = 2.0 * (yhat - y)
    g_sum = float(np.sum(g))

    g_w_head_dl = cache["z_dl"].T @ g
    g_w_head_ep = cache["z_ep"].T @ g
    g_w_head_mem = g_sum * params.memory

    da_z_dl = np.outer(g, params.w_head[0]) * (cache["a_z_dl"] > 0)
    da_z_ep = np.outer(g, params.w_head[1]) * (cache["a_z_ep"] > 0)
    g_w_hid_dl = da_z_dl.T @ cache["c_dl"]
    g_w_hid_ep = da_z_ep.T @ cache["c_ep"]

    dc_dl = da_z_dl @ params.w_hid[0]
    dc_ep = da_z_ep @ params.w_hid[1]
    g_memory = dc_dl[:, d:].sum(axis=0) + dc_ep[:, d:].sum(axis=0) + g_sum * params.w_head_mem

    da_h_dl = dc_dl[:, :d] * (cache["a_h_dl"] > 0)
    da_h_ep = dc_ep[:, :d] * (cache["a_h_ep"] > 0)

    grads = M.FusionParams(params.dims)
    grads.w[0], grads.b[0] = da_h_dl.T @ cache["x_dl"], da_h_dl.sum(axis=0)
    grads.w[1], grads.b[1] = da_h_ep.T @ cache["x_ep"], da_h_ep.sum(axis=0)
    grads.memory[...] = g_memory
    grads.w_hid[0], grads.b_hid[0] = g_w_hid_dl, da_z_dl.sum(axis=0)
    grads.w_hid[1], grads.b_hid[1] = g_w_hid_ep, da_z_ep.sum(axis=0)
    grads.w_head[0], grads.w_head[1], grads.w_head_mem[...] = g_w_head_dl, g_w_head_ep, g_w_head_mem
    grads.b_head[...] = grads.b_head_mem[...] = g_sum
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

    @pytest.mark.parametrize("split", [False, True], ids=["stacked", "split"])
    @pytest.mark.parametrize("dims", [M.FusionDims(3, 4, 5), DEFAULT_DIMS], ids=["small", "experiment"])
    def test_exact_fits_and_negative_head_weights_match_reference_bytes(self, dims, split):
        # A row fitted exactly has g == +0.0. Times a negative head weight,
        # the reference's outer product is -0.0 there, and the kernel's
        # einsum writes +0.0; every reader of that product is a sum from
        # +0.0, so no gradient may show the sign. A mixer unit dead on
        # every row has a +0.0 bias gradient, and its memory columns' weight
        # gradient is that times the memory: -0.0 at a negative entry.
        rng = np.random.default_rng(395)
        p = init_with_memory(dims, 5)
        p.vector[:] += 0.5 * rng.standard_normal(dims.size)
        p.w_head[:, ::2] = -np.abs(p.w_head[:, ::2])
        p.memory[::2] = -np.abs(p.memory[::2])
        p.b_hid[:, 0] = -1e6
        m = 64
        ws = M._Workspace(dims, m)
        xs, y = _random_rows(rng, m)
        x = np.stack(xs)
        with ThreadPoolExecutor(1) if split else contextlib.nullcontext() as ws.helper:
            for exact in (np.s_[::3], np.s_[:]):  # a third of the rows, then every row
                y = y.copy()
                y[exact] = M._batch_forward(x, p, ws)[exact]
                grads = M.FusionParams(dims, np.full(dims.size, np.nan))
                losses = M._batch_backward(x, y, p, ws, grads)
                g = ws.g[:m]
                assert not np.signbit(g[exact]).any() and not g[exact].any()
                ref_losses, ref_grads = _reference_batch_backward(_reference_batch_forward(*xs, p), y, p)
                assert losses.tobytes() == ref_losses.tobytes(), exact
                assert grads.vector.tobytes() == ref_grads.vector.tobytes(), exact
                # the signed zeros are there to be lost
                assert np.signbit(grads.w_hid[:, 0, dims.embed_dim :: 2]).all()
                assert (grads.b_hid[:, 0] == 0).all()

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
        names = {"x", "a_h", "z", "part", "yhat", "zb"}
        assert set(floats) == (names | {"losses", "g", "dmem"} if backward else names)
        arena = floats["x"].base
        assert arena is not None and arena.base is None and arena.ndim == 1
        assert all(buf.base is arena for buf in floats.values())
        assert arena.size == sum(buf.size for buf in floats.values())
        if backward:
            masks = [ws.on_z, ws.on_h]
            assert all(buf.dtype == bool and buf.base is masks[0].base for buf in masks)

        # per row: x 4, a_h 2d, z 2dz, part 2, yhat 1, and for training
        # losses 1 and g 1; plus zb 2dz once, and for training dmem 2mw
        def arena_size(dims, rows):
            d, mw, dz = dims.embed_dim, dims.mem_width, dims.hidden_dim
            per_row = 7 + 2 * d + 2 * dz + (2 if backward else 0)
            return per_row * rows + 2 * dz + (2 * mw if backward else 0)

        assert arena.size == arena_size(dims, 17)
        experiment = replace(DEFAULT_DIMS, memory_enabled=memory_enabled)
        assert M._Workspace(experiment, 29, backward=backward).x.base.size == arena_size(experiment, 29)

    @pytest.mark.parametrize("memory_enabled", [True, False], ids=["memory", "no-memory"])
    def test_training_workspace_holds_137_floats_per_row(self, memory_enabled):
        # at the experiment's widths: x 4, a_h 64, z 64, part 2, yhat 1,
        # losses 1, g 1; the memory adds no per-row buffer, only its
        # 2 x 16 gradients through the mixers next to the 2 x 32 folded
        # mixer biases
        dims = replace(DEFAULT_DIMS, memory_enabled=memory_enabled)
        fixed = 2 * dims.hidden_dim + 2 * dims.mem_width
        for rows in (1, 128, 5241):
            assert M._Workspace(dims, rows).x.base.size == 137 * rows + fixed
            assert M._Workspace(dims, rows, backward=False).x.base.size == 135 * rows + 2 * dims.hidden_dim

    @pytest.mark.parametrize("memory_enabled", [True, False], ids=["memory", "no-memory"])
    @pytest.mark.parametrize("seed", range(4))
    def test_kernel_matches_the_concatenated_kernel_to_1e_12(self, seed, memory_enabled):
        # the kernel before the fold copied the memory into every row of
        # the mixer input; folding it into the bias regroups the memory
        # term's sum, which moves only the last bits
        rng = np.random.default_rng(390 + seed)
        dims = M.FusionDims(*(int(rng.integers(1, 12)) for _ in range(3)), memory_enabled=memory_enabled)
        if seed == 3:
            dims = replace(DEFAULT_DIMS, memory_enabled=memory_enabled)
        p = init_with_memory(dims, seed)
        p.vector[:] += 0.5 * rng.standard_normal(dims.size)
        ws = M._Workspace(dims, 128)
        for m in (128, 7, 1):
            xs, y = _random_rows(rng, m)
            yhat = M._batch_forward(np.stack(xs), p, ws).copy()
            grads = M.FusionParams(dims)
            losses = M._batch_backward(np.stack(xs), y, p, ws, grads)
            ref = _concat_batch_forward(*xs, p)
            ref_losses, ref_grads = _concat_batch_backward(ref, y, p)
            np.testing.assert_allclose(yhat, ref["yhat"], rtol=1e-12, atol=1e-12 * np.abs(ref["yhat"]).max())
            np.testing.assert_allclose(losses, ref_losses, rtol=1e-12, atol=1e-12 * ref_losses.max())
            for name, a, b in zip(M._TENSOR_FIELDS, grads.flatten(), ref_grads.flatten()):
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(ref_grads.vector).max(), err_msg=name)

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


def _workspaces_built(monkeypatch) -> list[tuple[int, bool]]:
    """From now on, the (rows, backward) of every _Workspace built."""
    built = []

    class Spy(M._Workspace):
        def __init__(self, dims, rows, backward=True):
            built.append((rows, backward))
            super().__init__(dims, rows, backward)

    monkeypatch.setattr(M, "_Workspace", Spy)
    return built


class TestTrainWorkspaces:
    @pytest.mark.parametrize("n_val", [11, 30])
    def test_full_batch_training_builds_one_workspace(self, monkeypatch, n_val):
        # a validation split no larger than an update runs in its buffers
        built = _workspaces_built(monkeypatch)
        rng = np.random.default_rng(381)
        samples, val = make_dataset(rng, n=30), make_dataset(rng, n=n_val)
        M.train(samples, M.init_params(M.FusionDims(3, 2, 3), 11), M.TrainConfig(max_epochs=2, early_stop_patience=2), val)
        assert built == [(30, True)]

    def test_validation_larger_than_a_minibatch_gets_a_forward_only_workspace(self, monkeypatch):
        built = _workspaces_built(monkeypatch)
        rng = np.random.default_rng(382)
        samples, val = make_dataset(rng, n=24), make_dataset(rng, n=11)
        cfg = M.TrainConfig(max_epochs=2, batch_size=8, early_stop_patience=2)
        M.train(samples, M.init_params(M.FusionDims(3, 2, 3), 12), cfg, val)
        assert sorted(built) == [(8, True), (11, False)]


# ---------------------------------------------------------------------------
# The two-thread path: forced on any machine by claiming a second CPU and
# lowering the row threshold to one row.
# ---------------------------------------------------------------------------

def _thread_name() -> str:
    return "caller" if threading.current_thread() is threading.main_thread() else "helper"


@pytest.fixture
def split_always(monkeypatch):
    """Every training splits its updates; returns the set of threads
    ("caller", "helper") that ran a stream's layers."""
    monkeypatch.setattr(M, "usable_cpus", lambda: 2)
    monkeypatch.setattr(M, "_SPLIT_ROWS", 1)
    seen = set()
    for name in ("_forward_layers", "_backward_layers"):
        def spy(*args, _layers=getattr(M, name)):
            seen.add(_thread_name())
            _layers(*args)

        monkeypatch.setattr(M, name, spy)
    return seen


def _helper_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("fusecast-physics-stream")]


def _fork_child_state() -> tuple[bool, int]:
    """In a fork child: whether it inherited no helper, and its thread count."""
    return M._helper is None, threading.active_count()


def _forward_threads_by_rows(monkeypatch) -> dict[int, set[str]]:
    """From now on, the threads that ran a forward pass, by its row count."""
    threads = {}
    forward = M._forward_layers

    def spy(s, x, *rest):
        threads.setdefault(x.shape[-2], set()).add(_thread_name())
        forward(s, x, *rest)

    monkeypatch.setattr(M, "_forward_layers", spy)
    return threads


class TestStreamSplit:
    @pytest.mark.parametrize("memory_enabled", [True, False], ids=["memory", "no-memory"])
    @pytest.mark.parametrize("seed", range(4))
    def test_split_kernel_matches_reference_bit_for_bit(self, split_always, seed, memory_enabled):
        rng = np.random.default_rng(360 + seed)
        dims = M.FusionDims(*(int(rng.integers(1, 12)) for _ in range(3)), memory_enabled=memory_enabled)
        p = init_with_memory(dims, seed)
        p.vector[:] += 0.5 * rng.standard_normal(dims.size)
        ws = M._Workspace(dims, 128)
        with ThreadPoolExecutor(1) as ws.helper:
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

    @pytest.mark.parametrize("memory_enabled", [True, False], ids=["memory", "no-memory"])
    @pytest.mark.parametrize("s", [0, 1], ids=["data", "physics"])
    def test_a_stream_body_writes_only_its_own_blocks(self, s, memory_enabled):
        # the split runs the two streams' bodies at once on two threads, so
        # its bits rest on this: the body of stream s changes no buffer of
        # the workspace or the gradients outside the blocks [s], where a
        # NaN fill shows any write
        rng = np.random.default_rng(379)
        dims = M.FusionDims(3, 2, 4, memory_enabled=memory_enabled)
        p = init_with_memory(dims, 9)
        m = 7
        ws = M._Workspace(dims, 9)
        ws.x.base[:] = np.nan
        ws.on_z.base[:] = True
        grads = M.FusionParams(dims, np.full(dims.size, np.nan))
        xs, _ = _random_rows(rng, m)
        x = ws.x[:, :m]
        x[...] = np.stack(xs)
        g = rng.standard_normal(m)
        stacked = ("x", "a_h", "z", "part", "zb", "on_z", "on_h", "dmem")

        def run_and_check(layers, *args):
            before = {k: v.copy() for k, v in vars(ws).items() if isinstance(v, np.ndarray)}
            grads_before = grads.copy()
            layers(s, x, ws, *args)
            for name, old in before.items():
                new = getattr(ws, name).copy()
                if name in stacked:
                    new[s] = old[s]
                assert new.tobytes() == old.tobytes(), name
            for pair in STACKED:
                getattr(grads_before, pair)[s] = getattr(grads, pair)[s]
            assert grads_before.vector.tobytes() == grads.vector.tobytes()

        run_and_check(M._forward_layers, p)
        assert np.isfinite(ws.part[s, :m]).all()
        run_and_check(M._backward_layers, p, grads, g, float(np.sum(g)))
        assert all(np.isfinite(getattr(grads, pair)[s]).all() for pair in STACKED)

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
        samples, val = make_dataset(rng, n=30), make_dataset(rng, n=10)
        p = M.init_params(M.FusionDims(3, 2, 3), 1)
        cfg = M.TrainConfig(max_epochs=2, early_stop_patience=2)
        with pytest.raises(FloatingPointError, match="injected in the helper"):
            M.train(samples, p, cfg, val)
        # the helper survives its exception and serves the next training
        assert len(_helper_threads()) == 1
        monkeypatch.setattr(M, layers, real)
        split = M.train(samples, p, cfg, val)
        assert len(_helper_threads()) == 1
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(M, "usable_cpus", lambda: 1)
            stacked = M.train(samples, p, cfg, val)
        assert split[0].vector.tobytes() == stacked[0].vector.tobytes()

    def test_overflow_in_the_helper_raises_no_runtime_warning(self, split_always):
        # the suite turns RuntimeWarning into an error, so a helper that ran
        # under numpy's default error state would fail this with one; only
        # the physics stream (the helper's) overflows
        rng = np.random.default_rng(372)
        samples = make_dataset(rng, n=40)
        p = M.init_params(M.FusionDims(3, 2, 3), 2)
        p.w_hid[1] = np.full((3, 5), 1e300)
        p.w_head[1] = np.full(3, 1e300)
        ws = M._Workspace(p.dims, 40, backward=False)
        with ThreadPoolExecutor(1) as ws.helper:
            M._batch_forward(M._fill_inputs(samples, ws.x), p, ws)
        assert np.isinf(ws.part[1]).any() and np.isfinite(ws.part[0]).all()
        with pytest.raises(M.TrainingDiverged):
            M.train(samples, p, M.TrainConfig(max_epochs=2, early_stop_patience=2), samples)
        with pytest.raises(ValueError, match="non-finite"):
            M.predict(samples, p)
        assert split_always == {"caller", "helper"}

    def test_one_helper_per_process_and_none_across_a_fork(self, split_always):
        # the helper outlives a training, so later trainings take no new
        # thread's page faults; a fork joins it first, so no child (the
        # harness's pool workers included) is forked from a process with it
        # running, and the next training that splits builds a fresh one
        M._join_helper()
        rng = np.random.default_rng(373)
        samples, val = make_dataset(rng, n=30), make_dataset(rng, n=10)
        p = M.init_params(M.FusionDims(3, 2, 3), 3)
        before = threading.active_count()
        assert _helper_threads() == []
        M.train(samples, p, M.TrainConfig(max_epochs=3, early_stop_patience=3), val)
        helper = _helper_threads()
        assert len(helper) == 1 and threading.active_count() == before + 1
        # the next training reuses that thread
        M.train(samples, p, M.TrainConfig(max_epochs=3, batch_size=8, early_stop_patience=3), val)
        assert _helper_threads() == helper and threading.active_count() == before + 1
        M.predict(samples, p)
        assert _helper_threads() == helper
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
            # the pool forks its worker at the first submit
            assert pool.submit(_fork_child_state).result(timeout=60) == (True, 1)
        assert _helper_threads() == [] and M._helper is None
        M.train(samples, p, M.TrainConfig(max_epochs=2, early_stop_patience=2), val)
        assert len(_helper_threads()) == 1 and _helper_threads() != helper
        assert split_always == {"caller", "helper"}

    def test_split_needs_a_second_cpu(self, split_always, monkeypatch):
        rng = np.random.default_rng(375)
        samples, val = make_dataset(rng, n=30), make_dataset(rng, n=10)
        p = M.init_params(M.FusionDims(3, 2, 3), 3)
        cfg = M.TrainConfig(max_epochs=2, early_stop_patience=2)
        monkeypatch.setattr(M, "usable_cpus", lambda: 1)
        M.train(samples, p, cfg, val)
        assert split_always == {"caller"}
        monkeypatch.setattr(M, "usable_cpus", lambda: 2)
        M.train(samples, p, cfg, val)
        assert split_always == {"caller", "helper"}

    def test_stacked_path_without_a_helper(self, split_always):
        rng = np.random.default_rng(374)
        dims = M.FusionDims(3, 2, 3)
        p = init_with_memory(dims, 4)
        xs, y = _random_rows(rng, 9)
        ws = M._Workspace(dims, 9)
        M._batch_forward(np.stack(xs), p, ws)
        M._batch_backward(np.stack(xs), y, p, ws, M.FusionParams(dims))
        assert split_always == {"caller"}

    def test_predict_runs_on_the_calling_thread(self, split_always):
        rng = np.random.default_rng(375)
        M.predict(make_dataset(rng, n=40), M.init_params(M.FusionDims(3, 2, 3), 5))
        assert split_always == {"caller"}

    def test_full_batch_validation_splits_with_the_update(self, split_always, monkeypatch):
        threads = _forward_threads_by_rows(monkeypatch)
        rng = np.random.default_rng(376)
        samples, val = make_dataset(rng, n=30), make_dataset(rng, n=11)
        M.train(samples, M.init_params(M.FusionDims(3, 2, 3), 6), M.TrainConfig(max_epochs=3, early_stop_patience=3), val)
        # validation runs in the update's workspace, so on its helper too
        assert threads == {30: {"caller", "helper"}, 11: {"caller", "helper"}}

    def test_validation_larger_than_a_minibatch_runs_on_the_calling_thread(self, split_always, monkeypatch):
        monkeypatch.setattr(M, "_SPLIT_ROWS", 8)
        threads = _forward_threads_by_rows(monkeypatch)
        rng = np.random.default_rng(380)
        samples, val = make_dataset(rng, n=24), make_dataset(rng, n=11)
        cfg = M.TrainConfig(max_epochs=2, batch_size=8, early_stop_patience=2)
        M.train(samples, M.init_params(M.FusionDims(3, 2, 3), 10), cfg, val)
        assert threads == {8: {"caller", "helper"}, 11: {"caller"}}

    def test_minibatches_below_the_threshold_start_no_thread(self, split_always, monkeypatch):
        monkeypatch.setattr(M, "_SPLIT_ROWS", 16)
        monkeypatch.setattr(threading.Thread, "start", lambda self: pytest.fail(f"thread {self.name} started"))
        rng = np.random.default_rng(377)
        samples, val = make_dataset(rng, n=50), make_dataset(rng, n=20)
        p = M.init_params(M.FusionDims(3, 2, 3), 7)
        M.train(samples, p, M.TrainConfig(max_epochs=2, batch_size=15, early_stop_patience=2), val)
        assert split_always == {"caller"}

    def test_ragged_last_minibatch_splits_too(self, split_always, monkeypatch):
        monkeypatch.setattr(M, "_SPLIT_ROWS", 16)
        threads = _forward_threads_by_rows(monkeypatch)
        rng = np.random.default_rng(378)
        p = M.init_params(M.FusionDims(3, 2, 3), 8)
        samples, val = make_dataset(rng, n=50), make_dataset(rng, n=20)
        M.train(samples, p, M.TrainConfig(max_epochs=2, batch_size=16, early_stop_patience=2), val)
        # validation, larger than an update, runs on the calling thread
        assert threads == {16: {"caller", "helper"}, 2: {"caller", "helper"}, 20: {"caller"}}


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
        p = params_of(params.dims, arrays)
        val_mse = float(np.mean((yv - _reference_batch_forward(xv_dl, xv_ep, p)["yhat"]) ** 2))
        history.append((train_mse, val_mse))
        if val_mse < best_val:
            best_val, best, stall = val_mse, [np.array(a) for a in arrays], 0
        else:
            stall += 1
            if stall >= cfg.early_stop_patience:
                break
    return best, history


class TestFlatOptimizerOracle:
    @pytest.mark.parametrize(
        "batch_size",
        [16, None, 7, 5, 32],
        ids=[
            "minibatch-adam", "fullbatch-adam", "ragged-adam", "small-batches-adam",
            "validation-in-the-minibatch-workspace-adam",
        ],
    )
    def test_train_matches_per_tensor_reference_exactly(self, batch_size):
        rng = np.random.default_rng(20)
        samples = make_dataset(rng, n=60)
        val = make_dataset(rng, n=20)
        p = init_with_memory(M.FusionDims(4, 3, 5), 21)
        cfg = M.TrainConfig(eta=5e-3, max_epochs=40, batch_size=batch_size, early_stop_patience=6, seed=4)
        trained, history = M.train(samples, p, cfg, val)
        ref_arrays, ref_history = _reference_train(samples, p, cfg, val)
        assert len(history) == len(ref_history)
        assert np.array_equal(np.array(history), np.array(ref_history))
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

    def test_result_shares_no_memory_with_training_buffers(self, monkeypatch):
        seen = []
        real_step = M.adam_step

        def spy(params, grads, state):
            seen.extend([params, grads, state.m, state.v])
            real_step(params, grads, state)

        monkeypatch.setattr(M, "adam_step", spy)
        rng = np.random.default_rng(24)
        samples = make_dataset(rng, n=30)
        val = make_dataset(rng, n=10)
        p = M.init_params(M.FusionDims(3, 2, 3), 25)
        cfg = M.TrainConfig(eta=1e-2, max_epochs=4, batch_size=10, early_stop_patience=4, seed=2)
        trained, _ = M.train(samples, p, cfg, val)
        assert len(seen) == 4 * 3 * 4  # four buffers per update, three updates per epoch
        for buf in seen:
            assert not np.shares_memory(trained.vector, buf)
        assert not np.shares_memory(trained.vector, p.vector)

    def test_names_cannot_be_rebound_and_flatten_views_the_vector(self):
        dims = M.FusionDims(2, 2, 2)
        p = M.init_params(dims, 3)
        before = p.vector.copy()
        for name in (*dims.blocks, "vector", "dims", "w_dl", "b_head_ep"):
            with pytest.raises(AttributeError, match=f"FusionParams.{name} cannot be rebound"):
                setattr(p, name, getattr(p, name, 0.0))
        assert p.vector.tobytes() == before.tobytes() and p.dims == dims
        with pytest.raises(ValueError, match=f"expected a float64 vector of length {dims.size}"):
            M.FusionParams(dims, np.zeros(dims.size + 1))
        # writes go through the views
        p.w[0] = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(p.vector[:4], [1.0, 2.0, 3.0, 4.0])
        p.w_hid[0, :, :2] = 7.0  # in-place slice writes reach the vector too
        assert np.array_equal(p.vector, params_of(dims, p.flatten()).vector)
        p.b_head_mem[...] = -3.25
        assert p.vector[-1] == -3.25 and p.b_head_mem == -3.25
        # flatten: each _TENSOR_FIELDS tensor at its place in the vector, a
        # stream's half of a block after the block's data-stream half
        starts, start = {}, 0
        for name, shape in dims.blocks.items():
            starts[name], start = start, start + math.prod(shape)
        flat = p.flatten()
        assert len(flat) == len(M._TENSOR_FIELDS) == 15
        for name, view in zip(M._TENSOR_FIELDS, flat, strict=True):
            block, _, stream = name.rpartition("_")
            if stream in ("dl", "ep"):
                at = starts[block] + (stream == "ep") * view.size
            else:
                at = starts[name]
            values = np.arange(view.size) + 0.5
            view[...] = values.reshape(view.shape)
            assert p.vector[at : at + view.size].tolist() == values.tolist(), name

    def test_copy_is_one_independent_vector(self):
        p = M.init_params(M.FusionDims(2, 2, 2), 4)
        q = p.copy()
        assert np.array_equal(p.vector, q.vector) and not np.shares_memory(p.vector, q.vector)
        q.b_head[0] = 9.0
        assert p.b_head[0] == 0.0
