"""The forecast-fusion network.

Two masked scalar forecast streams (a data-driven one and a physics-based
one) are each embedded together with their availability mask, mixed with a
single learnable memory vector shared across all samples, and reduced to
three scalars whose sum is the predicted energy:

    h_dl = max(0, W_dl [x_dl, m_dl] + b_dl)          embedding, data stream
    h_ep = max(0, W_ep [x_ep, m_ep] + b_ep)          embedding, physics stream
    e    = memory                                    identity read
    z_dl = max(0, W_hid_dl [h_dl; e] + b_hid_dl)     hidden mixer, data stream
    z_ep = max(0, W_hid_ep [h_ep; e] + b_hid_ep)     hidden mixer, physics stream
    yhat = (w_head_dl.z_dl + b_head_dl)              stream contribution
         + (w_head_ep.z_ep + b_head_ep)              stream contribution
         + (w_head_mem.e  + b_head_mem)              learned offset

The memory vector feeds both mixers and the additive offset head, so
training can park persistent forecast bias in it.  Because the three head
outputs are unconstrained reals, the sum can land outside the interval
spanned by the two input forecasts whenever that lowers the loss.  The
memory is the same for every sample, so the kernel folds each mixer's
memory columns into its bias once per pass (``_mixer_bias``), and
``fold_memory`` turns a memory model into the memory-less model that
predicts the same bits.

The two streams run the same layers with their own weights, so the flat
parameter vector stores each data/physics tensor pair side by side as one
``(2, ...)`` block, and one batched matmul per layer serves both streams.
FusionParams names only the blocks (``W_dl`` above is ``w[0]``); the
per-stream names live on only in the checkpoint file.

Gradients are hand-derived (see _batch_backward); numkit.finite_diff_grad
is the independent oracle they are tested against.  Each stream is a
three-layer ReLU network, computed over the rows of a SampleBatch into
preallocated buffers by numkit's one network kernel (``mlp_forward``,
``mlp_backward``; the baseline forecaster runs it too); a single sample is
a one-row batch.  Training follows a sum-of-squared-errors objective with
one parameter update per batch unit; the default unit is the full epoch.

The streams share no arithmetic until the output sum, so each pass is one
layer body (_forward_layers, _backward_layers) that takes a stream index
``s`` and touches only the blocks ``[s]`` of the pair and workspace
buffers: ``np.s_[:]`` runs both streams stacked, 0 the data stream and 1
the physics stream.  A training whose update passes have _SPLIT_ROWS rows
or more runs the physics stream of every update on a helper thread while
the calling thread runs the data stream, when the process may use a
second CPU.  Both ways give the same bits (with OpenBLAS at one thread, as
the CLI and the pool workers set it).  The helper is built by the first
training that splits and serves every later one in the process; a fork
joins it first, so no child starts with it running.  A validation split
with no more rows than an update runs in the update's workspace, so on
its helper too; a larger one and predict run on the calling thread.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .numkit import (
    AdamState, TrainingDiverged, adam_step, block_views, check_count, check_real, draw_uniform, empty_blocks,
    fit_epochs, mlp_backward, mlp_forward, usable_cpus,
)
from .pipeline import NormStats, SampleBatch

CHECKPOINT_TAG = "pgmn-ckpt-1"


@dataclass(frozen=True)
class FusionDims:
    """Layer widths.  ``memory_enabled=False`` builds the ablated variant:
    the memory vector, its offset head weight, and the memory columns of
    both hidden mixers are excluded from the network entirely (width 0), so
    the ablated forward pass cannot read a memory value."""

    embed_dim: int = 32
    memory_dim: int = 16
    hidden_dim: int = 32
    memory_enabled: bool = True

    def __post_init__(self):
        for name in ("embed_dim", "memory_dim", "hidden_dim"):
            check_count(name, getattr(self, name))
        if not isinstance(self.memory_enabled, bool):
            raise ValueError(f"memory_enabled must be a bool, got {self.memory_enabled!r}")

    @property
    def mem_width(self) -> int:
        return self.memory_dim if self.memory_enabled else 0

    @property
    def blocks(self) -> dict[str, tuple[int, ...]]:
        """Shape of every block of the flat parameter vector, in vector
        order.  A block with a leading axis of 2 stacks a data-stream tensor
        (index 0) on its physics-stream partner (index 1)."""
        d, mw, dz = self.embed_dim, self.mem_width, self.hidden_dim
        return {
            "w": (2, d, 2), "b": (2, d),
            "memory": (mw,),
            "w_hid": (2, dz, d + mw), "b_hid": (2, dz),
            "w_head": (2, dz), "b_head": (2,),
            "w_head_mem": (mw,), "b_head_mem": (),
        }

    @property
    def size(self) -> int:
        """Length of the flat parameter vector."""
        return sum(math.prod(shape) for shape in self.blocks.values())


# The checkpoint's tensors in file order.  A ``_dl``/``_ep`` name is the
# data/physics half of its stacked block: ``w_ep`` is ``w[1]``.
_STREAM = {"dl": 0, "ep": 1}
_TENSOR_FIELDS = (
    "w_dl", "b_dl", "w_ep", "b_ep", "memory",
    "w_hid_dl", "b_hid_dl", "w_hid_ep", "b_hid_ep",
    "w_head_dl", "b_head_dl", "w_head_ep", "b_head_ep",
    "w_head_mem", "b_head_mem",
)


class FusionParams:
    """Every learnable tensor of the network, in one flat float64 ``vector``
    (wrapped, not copied; zeros by default).  Each ``FusionDims.blocks``
    entry is an attribute of that name, a view into the vector; a stacked
    block (``w``, ``b``, ``w_hid``, ``b_hid``, ``w_head``, ``b_head``) holds
    the data stream at index 0 and the physics stream at index 1.  No name
    can be rebound, so none drifts from the vector: write through the views,
    e.g. ``p.memory[...] = m`` or ``p.w[1] = w_ep``."""

    def __init__(self, dims: FusionDims, vector: np.ndarray | None = None):
        vector = np.zeros(dims.size) if vector is None else vector
        if vector.dtype != np.float64 or vector.shape != (dims.size,):
            raise ValueError(f"expected a float64 vector of length {dims.size}, got {vector.dtype} {vector.shape}")
        blocks = zip(dims.blocks, block_views(vector, dims.blocks.values()))
        self.__dict__.update(blocks, dims=dims, vector=vector)

    def __setattr__(self, name, value):
        raise AttributeError(f"FusionParams.{name} cannot be rebound; write into its view")

    def flatten(self) -> list[np.ndarray]:
        """The ``_TENSOR_FIELDS`` tensors in that order (scalars as 0-d), as
        views into ``vector``; ``[k, ...]`` keeps a 0-d half a view."""
        views = []
        for name in _TENSOR_FIELDS:
            block, _, stream = name.rpartition("_")
            views.append(getattr(self, block)[_STREAM[stream], ...] if stream in _STREAM else getattr(self, name))
        return views

    def copy(self) -> "FusionParams":
        return FusionParams(self.dims, self.vector.copy())

    def __reduce__(self):
        # Rebuild through __init__, so the unpickled blocks are views into
        # the unpickled vector again (the default would restore each block
        # as a separate array).
        return FusionParams, (self.dims, self.vector)


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters of the Adam fit.

    ``batch_size=None`` is the literal full-epoch discipline: gradients are
    accumulated over every sample and applied once per epoch.  A minibatch
    size trades that fidelity for speed.  Early stopping watches validation
    MSE with the given patience; identical seed/config/data reproduce the
    run bit-for-bit.
    """

    eta: float = 1e-3
    max_epochs: int = 2000
    batch_size: int | None = None
    early_stop_patience: int = 20
    seed: int = 0

    def __post_init__(self):
        check_real("learning rate eta", self.eta)
        if self.eta <= 0:
            raise ValueError(f"learning rate eta must be positive, got {self.eta!r}")
        check_count("max_epochs", self.max_epochs)
        if self.batch_size is not None:
            check_count("batch_size (minibatch size)", self.batch_size)
        check_count("early_stop_patience", self.early_stop_patience)
        check_count("seed", self.seed, least=0)


def init_params(dims: FusionDims, seed: int) -> FusionParams:
    """Fresh parameters: weights uniform in +-sqrt(1/fan_in), where fan_in
    is the last axis, biases and memory zero."""
    params = FusionParams(dims)
    draw_uniform(np.random.default_rng(seed), [params.w, params.w_hid, params.w_head, params.w_head_mem])
    return params


# ---------------------------------------------------------------------------
# The kernel: forward and backward over m rows of both streams at once,
# written into a workspace
# ---------------------------------------------------------------------------

class _Workspace:
    """Preallocated kernel buffers for up to ``rows`` rows; a call on m rows
    uses the first m of each.  Every buffer stacks the data stream (index 0)
    on the physics stream (index 1), shaped ``(2, rows, ...)``: the input
    ``x`` of [value, mask] rows, the embedding ``a_h``, the mixer output
    ``z`` and the head output ``part``; ``zb`` (2, hidden) holds each
    mixer's bias with the memory folded in (``_mixer_bias``).
    ``backward=True`` adds the per-row ``losses`` and loss gradient ``g``,
    the memory gradients ``dmem`` through each mixer and the bool ReLU
    masks ``on_z`` and ``on_h``.  After a backward pass ``z`` and ``a_h``
    hold their pre-activations' gradients (``numkit.mlp_backward``).  The
    layer body of stream ``s`` touches only its blocks ``[s]``.  A
    workspace lives for one ``train``/``predict`` call.  Its ``helper``,
    when ``train`` sets one, is the process's one-worker executor
    (``_stream_helper``) that runs the physics stream (``s = 1``) of every
    kernel call on it (see ``_on_streams``), validation passes included;
    only a large training's update workspace has one.

    The float buffers are blocks of one float64 allocation, and the bool
    ReLU masks of one bool allocation.  glibc raises its heap-trim
    threshold to twice the largest block freed, so one large block stays in
    the heap from call to call, where a dozen smaller blocks of the same
    total are handed back to the system and page-faulted in again on the
    next call."""

    def __init__(self, dims: FusionDims, rows: int, backward: bool = True):
        d, dz = dims.embed_dim, dims.hidden_dim
        shapes = [(2, rows, 2), (2, rows, d), (2, rows, dz), (2, rows), (rows,), (2, dz)]
        if backward:
            shapes += [(rows,), (rows,), (2, dims.mem_width)]
            self.on_z, self.on_h = empty_blocks([(2, rows, dz), (2, rows, d)], bool)
        bufs = empty_blocks(shapes)
        self.x, self.a_h, self.z, self.part, self.yhat, self.zb = bufs[:6]
        if backward:
            self.losses, self.g, self.dmem = bufs[6:]
        self.offset = 0.0
        self.helper = None


def _fill_inputs(batch: SampleBatch, x: np.ndarray) -> np.ndarray:
    """The batch's [value, mask] rows, data stream then physics stream,
    written column by column into the first n rows of ``x`` (2, >= n, 2);
    returns that (2, n, 2) view."""
    x = x[:, : len(batch)]
    x[0, :, 0], x[0, :, 1], x[1, :, 0], x[1, :, 1] = batch.dl, batch.dl_mask, batch.ep, batch.ep_mask
    return x


def _mixer_bias(s, params: FusionParams, out: np.ndarray) -> np.ndarray:
    """The bias of the mixer of stream ``s`` with the memory folded in,
    ``w_hid[s][:, d:] @ memory + b_hid[s]``, written into ``out`` (and
    returned): the constant the mixer's memory columns add to every row.
    The kernel and ``fold_memory`` both take it from here, so they agree
    bit for bit."""
    d = params.dims.embed_dim
    np.matmul(params.w_hid[s, ..., d:], params.memory, out=out)
    out += params.b_hid[s]
    return out


def _offset(params: FusionParams) -> float:
    """The offset head's output, the same for every row."""
    return float(params.w_head_mem @ params.memory) + params.b_head_mem


def _batch_forward(x: np.ndarray, params: FusionParams, ws: _Workspace) -> np.ndarray:
    """Forward pass over the m rows of ``x`` (2, m, 2) into ``ws``; returns
    yhat, a view into ``ws``.  The streams' layers run through
    ``_on_streams``; the offset and the sum of the three heads follow."""
    m = x.shape[1]
    # divergence is caught via isfinite checks, so let overflow pass silently
    with np.errstate(over="ignore", invalid="ignore"):
        _on_streams(_forward_layers, x, ws, params)
        ws.offset = _offset(params)
        yhat = np.add(ws.part[0, :m], ws.part[1, :m], out=ws.yhat[:m])
        yhat += ws.offset
    return yhat


def _stream_views(s, p: FusionParams, mixer_bias: np.ndarray) -> tuple[np.ndarray, ...]:
    """The kernel's six tensors of stream ``s`` from the blocks ``[s]`` of
    ``p`` (parameters or gradients), with the mixer's embedding columns and
    bias ``mixer_bias``; ``[s, ...]`` keeps a 0-d head bias a view."""
    d = p.dims.embed_dim
    return p.w[s], p.b[s], p.w_hid[s, ..., :d], mixer_bias, p.w_head[s], p.b_head[s, ...]


def _forward_layers(s, x: np.ndarray, ws: _Workspace, params: FusionParams) -> None:
    """The forward layers of stream ``s`` (0 data, 1 physics, ``np.s_[:]``
    both, stacked on a leading axis of 2) from the rows ``x[s]`` into the
    blocks ``[s]`` of ``ws.a_h``, ``ws.z`` and ``ws.part``; the memory
    enters through the folded mixer bias ``ws.zb[s]``."""
    m = x.shape[-2]
    zb = _mixer_bias(s, params, ws.zb[s])
    mlp_forward(x[s], _stream_views(s, params, zb), ws.a_h[s, :m], ws.z[s, :m], ws.part[s, :m])


def _batch_backward(x: np.ndarray, y: np.ndarray, params: FusionParams, ws: _Workspace, grads: FusionParams) -> np.ndarray:
    """Per-row squared-error losses (a view into ``ws``) of the forward pass
    ``ws`` holds for the rows ``x``; the gradients summed over the rows are
    written into ``grads``.

    Chain rule: with g = dL/dyhat = 2(yhat - y), each head bias receives
    sum(g), the head weights receive g times their input, and g flows back
    through both ReLU mixers into the embeddings (``_backward_layers``, per
    stream).  The memory gradient sums three routes, in this order: the
    memory columns of the data mixer, of the physics mixer, then the offset
    head.
    """
    m = len(y)
    yhat = ws.yhat[:m]
    losses = np.subtract(y, yhat, out=ws.losses[:m])
    np.square(losses, out=losses)
    g = np.subtract(yhat, y, out=ws.g[:m])
    g *= 2.0
    g_sum = float(np.add.reduce(g))
    _on_streams(_backward_layers, x, ws, params, grads, g, g_sum)
    g_memory = np.add(ws.dmem[0], ws.dmem[1], out=grads.memory)
    g_memory += np.multiply(g_sum, params.w_head_mem, out=ws.dmem[0])
    np.multiply(g_sum, params.memory, out=grads.w_head_mem)
    grads.b_head_mem[...] = g_sum
    return losses


def _backward_layers(s, x: np.ndarray, ws: _Workspace, params: FusionParams, grads: FusionParams, g: np.ndarray, g_sum: float) -> None:
    """The backward layers of stream ``s``, as in ``_forward_layers``: the
    loss gradient ``g`` (its sum ``g_sum``) into the blocks ``[s]`` of
    ``grads`` and ``ws.dmem``.  The row sum ``sz`` of the mixer's
    pre-activation gradient carries the folded memory back: its columns'
    weight gradient is ``sz`` times the memory (``np.multiply``, which
    keeps a -0.0) and its gradient ``sz @ w_hid[s][:, d:]``."""
    m = len(g)
    d = params.dims.embed_dim
    sz = mlp_backward(
        x[s], _stream_views(s, params, ws.zb[s]), ws.a_h[s, :m], ws.z[s, :m], g, g_sum,
        _stream_views(s, grads, grads.b_hid[s]), ws.on_h[s, :m], ws.on_z[s, :m],
    )
    np.multiply(sz[..., None], params.memory, out=grads.w_hid[s, ..., d:])
    np.matmul(sz[..., None, :], params.w_hid[s, ..., d:], out=ws.dmem[s, None])


# From this many rows per update, a training runs the two streams' layers
# on two threads.  At the experiment widths on 2 vCPUs (one BLAS thread), a
# forward and backward pass of the kernel (einsum outer product and row
# sums) took 1.9-2.2x its one-thread time at 512 rows and 1.4-1.7x at 768,
# where the handoffs to the helper cost more than the half of the work they
# move; 0.86-1.28x at 1,024 and 0.88-1.26x at 1,280 (about break-even),
# 0.79-0.90x at 1,536, 0.64-0.76x at 2,048 and 0.57-0.62x at 5,241 (3 to 8
# runs, medians of 9 each).
_SPLIT_ROWS = 1024


_helper = None


def _stream_helper():
    """The process's one-worker executor for the physics stream, built by
    the first training that splits and kept, so that no later training
    pays for a new thread and the page faults of its stack.  Two threads
    whose first splitting trainings start at once may each build one; the
    one not kept goes with its training's workspace, and its thread
    exits."""
    global _helper
    if _helper is None:
        # imported here, since importing it costs 0.6 MB in every process
        from concurrent.futures import ThreadPoolExecutor

        _helper = ThreadPoolExecutor(1, thread_name_prefix="fusecast-physics-stream")
    return _helper


def _join_helper() -> None:
    """Join the helper, if any, before a fork: a child would inherit any
    lock a running helper holds, and an executor without its thread.  The
    next training that splits builds a new one."""
    global _helper
    if _helper is not None:
        _helper.shutdown()
        _helper = None


os.register_at_fork(before=_join_helper)


def _under_errstate(err: dict, layers, args: tuple) -> None:
    with np.errstate(**err):  # a new thread starts with numpy's defaults
        layers(*args)


def _on_streams(layers, x: np.ndarray, ws: _Workspace, *args) -> None:
    """``layers(s, x, ws, *args)`` for both streams: once with
    ``s = np.s_[:]`` on this thread when ``ws`` has no helper; otherwise
    with ``s = 1`` (the physics stream) on the helper, under this thread's
    numpy error state, while this thread runs ``s = 0``, and an exception
    the helper raises is raised here.  The streams share no arithmetic and
    write disjoint blocks, so both ways give the same bits."""
    if ws.helper is None:
        layers(np.s_[:], x, ws, *args)
        return
    future = ws.helper.submit(_under_errstate, np.geterr(), layers, (1, x, ws, *args))
    try:
        layers(0, x, ws, *args)
    finally:
        future.result()


def fold_memory(params: FusionParams) -> FusionParams:
    """The memory-less parameters that predict what ``params`` predicts,
    bit for bit: each mixer's memory columns times the memory join its
    bias (``_mixer_bias``, as in the kernel), and the offset head's memory
    term joins the offset bias.  The memory is one vector shared by every
    row, so a memory model is a memory-less model with other biases."""
    d = params.dims.embed_dim
    folded = FusionParams(replace(params.dims, memory_enabled=False))
    for name in ("w", "b", "w_head", "b_head"):
        getattr(folded, name)[...] = getattr(params, name)
    folded.w_hid[...] = params.w_hid[..., :d]
    _mixer_bias(np.s_[:], params, folded.b_hid)
    folded.b_head_mem[...] = _offset(params)
    return folded


def predict(batch: SampleBatch, params: FusionParams) -> np.ndarray:
    """Pure forward pass over a SampleBatch; non-finite outputs raise."""
    ws = _Workspace(params.dims, len(batch), backward=False)
    yhat = _batch_forward(_fill_inputs(batch, ws.x), params, ws)
    bad = len(yhat) - np.count_nonzero(np.isfinite(yhat))
    if bad:
        raise ValueError(f"predict: {bad} of {len(yhat)} outputs are non-finite")
    return yhat.copy()  # a view would keep the whole workspace alive


def train(
    dataset: SampleBatch,
    params: FusionParams,
    cfg: TrainConfig,
    validation: SampleBatch,
) -> tuple[FusionParams, list[tuple[float, float]]]:
    """Fit the network with Adam, validating on ``validation`` after every
    epoch; returns the parameters of the lowest validation MSE and the
    per-epoch (train MSE, validation MSE) history.  An empty training or
    validation split raises ValueError.

    Each epoch either accumulates gradients over the whole dataset and
    updates once (``batch_size=None``) or shuffles into minibatches.  An
    update whose summed loss or gradient is not finite raises
    TrainingDiverged before it steps the parameters, as ``fit_epochs`` does
    for a non-finite validation loss.  Early stopping triggers after
    ``early_stop_patience`` epochs without validation improvement.
    The kernel runs in one workspace sized for an update.  Validation runs
    in it too when the validation split has no more rows than an update,
    as in a full-batch training of the harness, and otherwise in a
    forward-only workspace of its own.  When an update has ``_SPLIT_ROWS``
    rows or more and the process may use a second CPU, every kernel call
    in the update workspace (the ragged last minibatch and validation too)
    runs the physics stream on the process's helper thread, which outlives
    the call (see ``_on_streams`` and ``_stream_helper``).
    """
    n = len(dataset)
    if not n:
        raise ValueError("empty training dataset")
    if validation is None or not len(validation):
        raise ValueError("empty validation dataset")
    y, y_val = dataset.target, validation.target

    params = params.copy()
    grads = FusionParams(params.dims)
    adam_state = AdamState.init(params.vector, eta=cfg.eta)
    rows = n if cfg.batch_size is None else min(cfg.batch_size, n)
    ws = _Workspace(params.dims, rows)
    # Validation no larger than an update runs in the update's buffers,
    # which are dead between updates, from inputs of its own (ws.x holds a
    # full-batch training's inputs).  A larger one gets its own workspace:
    # grown to fit it, the update workspace would make the updates slower.
    fits = len(validation) <= rows
    ws_val = ws if fits else _Workspace(params.dims, len(validation), backward=False)
    x_val = _fill_inputs(validation, np.empty((2, len(validation), 2)) if fits else ws_val.x)
    if rows >= _SPLIT_ROWS and usable_cpus() > 1:
        ws.helper = _stream_helper()
    if cfg.batch_size is None:
        x = _fill_inputs(dataset, ws.x)
    else:
        x, gather_y = _fill_inputs(dataset, np.empty((2, n, 2))), np.empty(rows)

    def update(idx, epoch: int) -> float:
        if cfg.batch_size is None:
            bx, by = x, y
        else:
            # mode="clip" lets take write straight into ``out`` (the default
            # "raise" buffers through a temporary); a permutation is in range.
            # The method skips np.take's Python-level wrapper.
            m = len(idx)
            bx = x.take(idx, axis=1, out=ws.x[:, :m], mode="clip")
            by = y.take(idx, out=gather_y[:m], mode="clip")
        _batch_forward(bx, params, ws)
        # a non-finite yhat gives a non-finite loss, so this one check covers both
        loss = float(np.add.reduce(_batch_backward(bx, by, params, ws, grads)))
        if not math.isfinite(loss):
            raise TrainingDiverged(f"epoch {epoch}: non-finite training loss")
        # a finite loss can still come with an overflowed gradient (inf times
        # a dead ReLU's 0 is NaN), which Adam would write into the parameters
        if not np.isfinite(grads.vector).all():
            raise TrainingDiverged(f"epoch {epoch}: non-finite gradient")
        adam_step(params.vector, grads.vector, adam_state)
        return loss

    def validate(epoch: int) -> float:
        # the squared errors overwrite the predictions, which nothing reads again
        err = np.subtract(y_val, _batch_forward(x_val, params, ws_val), out=ws_val.yhat[: len(y_val)])
        return float(np.mean(np.square(err, out=err)))

    best, history = fit_epochs(
        params.vector, n, update, validate,
        cfg.max_epochs, cfg.batch_size, cfg.early_stop_patience, np.random.default_rng(cfg.seed),
    )
    return FusionParams(params.dims, best), history


# ---------------------------------------------------------------------------
# Checkpoint format "pgmn-ckpt-1": line-oriented text, hex floats for
# bit-exact round trips.
#
#   pgmn-ckpt-1
#   dims <embed> <memory> <hidden> <memory_enabled>
#   norm <dl_mean> <dl_std> <ep_mean> <ep_std> <y_mean> <y_std>
#   tensor <name> <ndim> <dim...>
#   <hex values, space separated, row-major>
#   scalar <name> <hex value>
#
# with one tensor or scalar per _TENSOR_FIELDS entry, in that order.
# ---------------------------------------------------------------------------

def _header(name: str, view: np.ndarray) -> str:
    """The checkpoint line that opens tensor ``name``: a 0-d tensor's value
    follows on the same line, any other's on the next."""
    if view.ndim == 0:
        return f"scalar {name}"
    return f"tensor {name} {view.ndim} {' '.join(map(str, view.shape))}"


def save_checkpoint(path, params: FusionParams, norm: NormStats) -> None:
    """Write ``params`` and ``norm`` to ``path``.  A tensor with a
    non-finite value, which ``load_checkpoint`` would reject, raises
    ValueError naming the first such tensor before anything is written."""
    dims = params.dims
    lines = [CHECKPOINT_TAG]
    lines.append(f"dims {dims.embed_dim} {dims.memory_dim} {dims.hidden_dim} {int(dims.memory_enabled)}")
    vals = [norm.dl_mean, norm.dl_std, norm.ep_mean, norm.ep_std, norm.y_mean, norm.y_std]
    lines.append("norm " + " ".join(float(v).hex() for v in vals))
    for name, view in zip(_TENSOR_FIELDS, params.flatten()):
        if not np.isfinite(view).all():
            raise ValueError(f"{path}: tensor {name!r} has a non-finite value; no checkpoint written")
        header, values = _header(name, view), " ".join(x.hex() for x in view.reshape(-1).tolist())
        lines += [f"{header} {values}"] if view.ndim == 0 else [header, values]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_checkpoint(path) -> tuple[FusionParams, NormStats]:
    """Read a checkpoint written by save_checkpoint.

    The tensors must follow in ``_TENSOR_FIELDS`` order, each opened by the
    line save_checkpoint writes for it under the file's dims.  Any
    malformed content (a truncated file, a missing norm line, a tensor
    line out of place or with a shape that does not fit the dims, a value
    count that does not fit the shape, a non-finite value, a normalization
    std that is not positive) raises ValueError naming the file and the
    line; a file that is not UTF-8 raises ValueError naming the file.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not a {CHECKPOINT_TAG} checkpoint: {exc}") from exc
    lines = text.splitlines()

    def fail(lineno: int, msg: str):
        raise ValueError(f"{path}:{lineno}: {msg}")

    def parse_values(lineno: int, tokens: list[str], count: int) -> list[float]:
        if len(tokens) != count:
            fail(lineno, f"expected {count} values, got {len(tokens)}")
        try:
            vals = [float.fromhex(tok) for tok in tokens]
        except (ValueError, OverflowError) as exc:
            fail(lineno, f"malformed hex float: {exc}")
        if not all(map(math.isfinite, vals)):
            fail(lineno, "non-finite value")
        return vals

    if not lines or lines[0] != CHECKPOINT_TAG:
        fail(1, f"not a {CHECKPOINT_TAG} checkpoint")
    if len(lines) < 2:
        fail(1, "file ends before the dims line")
    head = lines[1].split()
    if len(head) != 5 or head[0] != "dims" or head[4] not in ("0", "1"):
        fail(2, "malformed dims line")
    try:
        dims = FusionDims(int(head[1]), int(head[2]), int(head[3]), head[4] == "1")
    except ValueError as exc:
        fail(2, f"malformed dims line: {exc}")

    if len(lines) < 3 or not lines[2].startswith("norm "):
        fail(3, "expected the norm line")
    stats = parse_values(3, lines[2].split()[1:], 6)
    try:
        norm = NormStats(*stats)
    except ValueError as exc:
        fail(3, str(exc))
    # each value takes at least one character, so damaged dims never
    # allocate a vector larger than the file
    if dims.size > len(text):
        fail(2, f"dims need {dims.size} values, more than the file's {len(text)} characters hold")
    params = FusionParams(dims)

    i = 3  # index of the next line to read
    for k, (name, view) in enumerate(zip(_TENSOR_FIELDS, params.flatten())):
        if i == len(lines):
            fail(len(lines), f"file ends without tensors {list(_TENSOR_FIELDS[k:])}")
        header, tokens = _header(name, view).split(), lines[i].split()
        data = tokens[len(header) :]  # a scalar's value follows its header
        if tokens[: len(header)] != header or (view.ndim and data):
            fail(i + 1, f"expected {' '.join(header)!r}, got {lines[i]!r}")
        if view.ndim:  # a tensor's values fill the next line
            if i + 1 == len(lines):
                fail(i + 1, f"tensor {name!r} has no data line")
            i += 1
            data = lines[i].split()
        view[...] = np.reshape(parse_values(i + 1, data, view.size), view.shape)
        i += 1
    for lineno, line in enumerate(lines[i:], i + 1):
        if line.strip():
            fail(lineno, f"unexpected line {line!r} after the last tensor")
    return params, norm
