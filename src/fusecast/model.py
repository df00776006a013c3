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
spanned by the two input forecasts whenever that lowers the loss.

The two streams run the same layers with their own weights, so the flat
parameter vector stores each data/physics tensor pair side by side as one
``(2, ...)`` block, and one batched matmul per layer serves both streams.

Gradients are hand-derived (see _batch_backward); numkit.finite_diff_grad
is the independent oracle they are tested against.  One kernel computes
the forward and backward passes over the rows of a SampleBatch into
preallocated buffers; a single sample is a one-row batch.  Training follows
a sum-of-squared-errors objective with one parameter update per batch
unit; the default unit is the full epoch.

The streams share no arithmetic until the output sum, so each pass is one
layer body (_forward_layers, _backward_layers) that runs either once on
the stacked blocks or once per stream.  A training pass on _SPLIT_ROWS rows
or more, and a forward-only call (validation, predict) on
_FORWARD_SPLIT_ROWS or more, runs the physics stream on a helper thread
while the calling thread runs the data stream, when the process may use a
second CPU and is not a multiprocessing child (a pool's workers already
fill the CPUs).  Both ways give the same bits (with OpenBLAS at one thread,
as the CLI and the pool workers set it), and the helper lives only as long
as the train or predict call that started it.
"""

from __future__ import annotations

import math
import numbers
import queue
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numkit import AdamState, ShapeMismatch, adam_step, block_views, draw_uniform, empty_blocks, fit_epochs, usable_cpus
from .pipeline import NormStats, SampleBatch

CHECKPOINT_TAG = "pgmn-ckpt-1"


class TrainingDiverged(RuntimeError):
    """Training produced a non-finite loss or gradient."""


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
            _check_count(name, getattr(self, name))

    @property
    def mem_width(self) -> int:
        return self.memory_dim if self.memory_enabled else 0

    @property
    def blocks(self) -> dict[str, tuple[int, ...]]:
        """Shape of every block of the flat parameter vector, in vector
        order.  A ``_PAIRS`` block stacks a data-stream tensor (index 0) on
        its physics-stream partner (index 1)."""
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


def _check_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1")


_TENSOR_FIELDS = (
    "w_dl", "b_dl", "w_ep", "b_ep", "memory",
    "w_hid_dl", "b_hid_dl", "w_hid_ep", "b_hid_ep",
    "w_head_dl", "b_head_dl", "w_head_ep", "b_head_ep",
    "w_head_mem", "b_head_mem",
)

# The stacked (data, physics) blocks of the vector that the kernel reads.
_PAIRS = ("w", "b", "w_hid", "b_hid", "w_head", "b_head")


class FusionParams:
    """Every learnable tensor of the network, in one flat float64 ``vector``
    (wrapped, not copied; zeros by default) that the given tensors, if any,
    are written into.  The vector holds the blocks of ``FusionDims.blocks``
    in that order; each pair block (``w``, ``b``, ``w_hid``, ``b_hid``,
    ``w_head``, ``b_head``) is a ``(2, ...)`` view whose halves are the
    ``_dl`` and ``_ep`` fields.  Each ``_TENSOR_FIELDS`` entry is a view
    into the vector, shaped by FusionDims (head biases 0-d).  Assigning to a
    field or to ``vector`` writes into the storage, so fields never drift
    from it.  The pair blocks are views too, but not assignable fields."""

    def __init__(self, dims: FusionDims, vector: np.ndarray | None = None, **tensors):
        if tensors and set(tensors) != set(_TENSOR_FIELDS):
            raise TypeError(f"FusionParams needs all of the tensors {_TENSOR_FIELDS}, got {sorted(tensors)}")
        vector = np.zeros(dims.size) if vector is None else vector
        if vector.dtype != np.float64 or vector.shape != (dims.size,):
            raise ShapeMismatch(f"expected a float64 vector of length {dims.size}, got {vector.dtype} {vector.shape}")
        blocks = dict(zip(dims.blocks, block_views(vector, dims.blocks.values())))
        for pair in _PAIRS:
            # [k, ...] keeps a 0-d half a view (a plain [k] would copy it)
            blocks[pair + "_dl"], blocks[pair + "_ep"] = blocks[pair][0, ...], blocks[pair][1, ...]
        self.__dict__.update(blocks, dims=dims, vector=vector)
        for name, value in tensors.items():
            setattr(self, name, value)

    def __setattr__(self, name, value):
        if name not in _TENSOR_FIELDS and name != "vector":
            raise AttributeError(f"FusionParams has no assignable field {name!r}")
        view = self.__dict__[name]
        arr = np.asarray(value, dtype=np.float64)
        if arr.shape != view.shape:
            raise ShapeMismatch(f"{name}: expected shape {view.shape}, got {arr.shape}")
        view[...] = arr

    def flatten(self) -> list[np.ndarray]:
        """The fields in fixed order (scalars as 0-d), as views into ``vector``."""
        return [self.__dict__[name] for name in _TENSOR_FIELDS]

    def copy(self) -> "FusionParams":
        return FusionParams(self.dims, self.vector.copy())

    def __reduce__(self):
        # Rebuild through __init__, so the unpickled fields are views into
        # the unpickled vector again (the default would restore each field
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
        if not 0.0 < self.eta < math.inf:
            raise ValueError(f"learning rate eta must be finite and positive, got {self.eta!r}")
        _check_count("max_epochs", self.max_epochs)
        if self.batch_size is not None:
            _check_count("batch_size (minibatch size)", self.batch_size)
        _check_count("early_stop_patience", self.early_stop_patience)


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
    ``x`` of [value, mask] rows, the embedding pre-activation ``a_h``, the
    mixer input ``c`` = [max(0, a_h), memory], the mixer output ``z`` (its
    pre-activation, then in place its ReLU) and the head output ``part``.
    ``backward=True`` adds the per-row ``losses`` and loss gradient ``g``,
    the memory-gradient sums ``dmem`` and the bool ReLU masks ``on_z`` and
    ``on_h``.  The backward pass writes each gradient into the buffer whose
    value is spent: afterwards ``z`` holds the mixer pre-activation's
    gradient, ``c`` the mixer input's and ``a_h`` the embedding
    pre-activation's.  A workspace lives for one ``train``/``predict``
    call, as does its ``helper``, the thread for the physics stream of
    large calls (None: both streams always run on the calling thread);
    ``split_rows`` is the row count from which its calls split.

    The float buffers are blocks of one float64 allocation, and the bool
    ReLU masks of one bool allocation.
    glibc raises its heap-trim threshold to twice the largest block freed,
    so one large block stays in the heap from call to call, where a dozen
    smaller blocks of the same total are handed back to the system and
    page-faulted in again on the next call."""

    def __init__(self, dims: FusionDims, rows: int, backward: bool = True, helper: _StreamThread | None = None):
        d, c, dz = dims.embed_dim, dims.embed_dim + dims.mem_width, dims.hidden_dim
        shapes = [(2, rows, 2), (2, rows, d), (2, rows, c), (2, rows, dz), (2, rows), (rows,)]
        if backward:
            shapes += [(rows,), (rows,), (2, dims.mem_width)]
            self.on_z, self.on_h = empty_blocks([(2, rows, dz), (2, rows, d)], bool)
        bufs = empty_blocks(shapes)
        self.x, self.a_h, self.c, self.z, self.part, self.yhat = bufs[:6]
        if backward:
            self.losses, self.g, self.dmem = bufs[6:]
        self.offset = 0.0
        self.helper = helper
        self.split_rows = _SPLIT_ROWS if backward else _FORWARD_SPLIT_ROWS


def _fill_inputs(batch: SampleBatch, x: np.ndarray) -> np.ndarray:
    """The batch's [value, mask] rows, data stream then physics stream,
    written column by column into the first n rows of ``x`` (2, >= n, 2);
    returns that (2, n, 2) view."""
    x = x[:, : len(batch)]
    x[0, :, 0], x[0, :, 1], x[1, :, 0], x[1, :, 1] = batch.dl, batch.dl_mask, batch.ep, batch.ep_mask
    return x


def _batch_forward(x: np.ndarray, params: FusionParams, ws: _Workspace) -> np.ndarray:
    """Forward pass over the m rows of ``x`` (2, m, 2) into ``ws``; returns
    yhat, a view into ``ws``.  The streams' layers run through
    ``_on_streams``; the offset and the sum of the three heads follow."""
    m = x.shape[1]
    mem = params.memory
    # divergence is caught via isfinite checks, so let overflow pass silently
    with np.errstate(over="ignore", invalid="ignore"):
        _on_streams(_forward_layers, m, 1, (
            mem, x, params.w.transpose(0, 2, 1), params.b[:, None],
            params.w_hid.transpose(0, 2, 1), params.b_hid[:, None], params.w_head[..., None], params.b_head[:, None],
            ws.a_h[:, :m], ws.c[:, :m], ws.z[:, :m], ws.part[:, :m],
        ), ws)
        ws.offset = float(params.w_head_mem @ mem) + params.b_head_mem
        yhat = np.add(ws.part[0, :m], ws.part[1, :m], out=ws.yhat[:m])
        yhat += ws.offset
    return yhat


def _forward_layers(mem, x, w_t, b, w_hid_t, b_hid, w_head, b_head, a_h, c, z, part) -> None:
    """The forward layers of one stream, or of both stacked on a leading
    axis of 2: from the [value, mask] rows ``x`` into ``a_h``, ``c``, ``z``
    and the head output ``part``.  The weights enter as the transposed
    views ``w_t`` and ``w_hid_t`` and the column ``w_head``, the biases
    with a row axis to broadcast over, so each stream's products are those
    of a per-stream ``x @ w.T``, bit for bit."""
    d = a_h.shape[-1]
    np.matmul(x, w_t, out=a_h)
    a_h += b
    np.maximum(a_h, 0.0, out=c[..., :d])
    c[..., d:] = mem
    np.matmul(c, w_hid_t, out=z)
    z += b_hid
    np.maximum(z, 0.0, out=z)
    np.matmul(z, w_head, out=part[..., None])
    part += b_head


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
    _on_streams(_backward_layers, m, 3, (
        g, g[:, None], g_sum, x, params.w_hid, params.w_head[:, None],
        ws.a_h[:, :m], ws.c[:, :m], ws.z[:, :m], ws.on_z[:, :m], ws.on_h[:, :m], ws.dmem,
        grads.w_head, grads.b_head, grads.w_hid, grads.b_hid, grads.w, grads.b,
    ), ws)
    g_memory = np.add(ws.dmem[0], ws.dmem[1], out=grads.memory)
    g_memory += np.multiply(g_sum, params.w_head_mem, out=ws.dmem[0])
    np.multiply(g_sum, params.memory, out=grads.w_head_mem)
    grads.b_head_mem[...] = g_sum
    return losses


def _backward_layers(g, g_col, g_sum, x, w_hid, w_head, a_h, c, z, on_z, on_h, dmem, gw_head, gb_head, gw_hid, gb_hid, gw, gb) -> None:
    """The backward layers of one stream, or of both stacked as in
    ``_forward_layers``: the loss gradient ``g`` (as a column ``g_col``,
    its sum ``g_sum``) back from the head to the embedding, into the
    gradient blocks ``gw_head`` ... ``gb`` and the sums ``dmem`` of the
    mixer's memory columns.  ``w_head`` enters as a row to broadcast."""
    d = a_h.shape[-1]
    # Each gradient overwrites a forward value that nothing reads again:
    # da_z goes into z, dc into c and da_h into a_h.  z > 0 exactly where
    # its pre-activation was (NaN included), so the mask survives the ReLU.
    np.matmul(z.swapaxes(-1, -2), g, out=gw_head)
    gb_head[...] = g_sum
    np.greater(z, 0, out=on_z)
    da_z = np.multiply(g_col, w_head, out=z)
    da_z *= on_z
    np.matmul(da_z.swapaxes(-1, -2), c, out=gw_hid)
    np.add.reduce(da_z, axis=-2, out=gb_hid)
    dc = np.matmul(da_z, w_hid, out=c)
    np.add.reduce(dc[..., d:], axis=-2, out=dmem)
    da_h = np.multiply(dc[..., :d], np.greater(a_h, 0, out=on_h), out=a_h)
    np.matmul(da_h.swapaxes(-1, -2), x, out=gw)
    np.add.reduce(da_h, axis=-2, out=gb)


# From this many rows up, a kernel call may run the two streams' layers on
# two threads.  At the experiment widths on 2 vCPUs (one BLAS thread), a
# forward and backward pass broke even at 512-768 rows, since each handoff
# to the helper costs about 100 microseconds, and took 0.69x its one-thread
# time at 1,024 rows and 0.57x at 5,241 (medians of 6 runs).  A
# forward-only call hands off once for a third of the work, and its helper
# has been idle since the last training pass or was just started.  A
# validation pass between minibatch updates, or a one-shot predict, moved
# by -22% to +5% at 1,747-2,048 rows (a minibatch training whose 1,747-row
# validation split took 8% longer) and saved 8-35% from 2,560 rows up
# (medians of 8-10 runs; 67 of 68 runs won from 2,560 rows up).
_SPLIT_ROWS = 1024
_FORWARD_SPLIT_ROWS = 2560


def _split(m: int, rows: int) -> bool:
    """Whether a kernel call on m rows runs the streams on two threads: from
    ``rows`` rows up, when this process may use a second CPU and is not a
    multiprocessing child (a pool's workers already fill the CPUs)."""
    if m < rows:
        return False
    # a multiprocessing child has imported multiprocessing, so a process
    # that has not is no child; importing it to ask would cost 0.3 MB
    mp = sys.modules.get("multiprocessing")
    return usable_cpus() > 1 and (mp is None or mp.parent_process() is None)


class _StreamThread:
    """The helper thread that runs the physics stream's layers of every
    split kernel call of one ``train`` or ``predict`` call: started by the
    first such call and stopped and joined when the ``with`` block exits,
    so no helper outlives the call that needs it.  Each job runs under the
    numpy error state of the thread that submits it (a new thread starts
    with numpy's defaults); an exception it raises is handed back to that
    thread."""

    _thread = None  # started by the first submit

    def __enter__(self) -> "_StreamThread":
        return self

    def __exit__(self, *exc) -> None:
        if self._thread is not None:
            self._jobs.put(None)
            self._thread.join()
            self._thread = None

    def submit(self, layers, args: tuple) -> None:
        if self._thread is None:
            self._jobs, self._done = queue.SimpleQueue(), queue.SimpleQueue()
            self._thread = threading.Thread(target=self._serve, name="fusecast-physics-stream")
            self._thread.start()
        self._jobs.put((np.geterr(), layers, args))

    def wait(self) -> None:
        """Block until the last submitted job is done; raise its exception."""
        failure = self._done.get()
        if failure is not None:
            raise failure

    def _serve(self) -> None:
        while (job := self._jobs.get()) is not None:
            err, layers, args = job
            try:
                with np.errstate(**err):
                    layers(*args)
            except BaseException as exc:  # raised again by wait()
                self._done.put(exc)
            else:
                self._done.put(None)


def _on_streams(layers, m: int, shared: int, ops: tuple, ws: _Workspace) -> None:
    """``layers(*ops)``, where the operands after the first ``shared`` are
    ``(2, ...)`` blocks of both streams: once on this thread; or, when
    ``ws`` has a helper and ``_split(m, ws.split_rows)``, on each block's
    index 1 (the physics stream) on the helper while this thread runs
    index 0.  The streams share no arithmetic, so both ways give the same
    bits."""
    helper = ws.helper
    if helper is None or not _split(m, ws.split_rows):
        layers(*ops)
        return
    common, blocks = ops[:shared], ops[shared:]
    helper.submit(layers, (*common, *(op[1, ...] for op in blocks)))
    try:
        layers(*common, *(op[0, ...] for op in blocks))
    finally:
        helper.wait()


def predict(batch: SampleBatch, params: FusionParams) -> np.ndarray:
    """Pure forward pass over a SampleBatch; non-finite outputs raise."""
    with _StreamThread() as helper:
        ws = _Workspace(params.dims, len(batch), backward=False, helper=helper)
        yhat = _batch_forward(_fill_inputs(batch, ws.x), params, ws)
    bad = len(yhat) - np.count_nonzero(np.isfinite(yhat))
    if bad:
        raise ValueError(f"predict: {bad} of {len(yhat)} outputs are non-finite")
    return yhat.copy()  # a view would keep the whole workspace alive


def train(
    dataset: SampleBatch,
    params: FusionParams,
    cfg: TrainConfig,
    validation: SampleBatch | None = None,
) -> tuple[FusionParams, list[tuple[float, float]]]:
    """Fit the network with Adam; returns final parameters and per-epoch
    loss history.

    Each epoch either accumulates gradients over the whole dataset and
    updates once (``batch_size=None``) or shuffles into minibatches.  An
    update whose summed loss or gradient is not finite raises
    TrainingDiverged before it steps the parameters.  Early stopping
    triggers after ``early_stop_patience`` epochs without validation
    improvement and restores the best-validation parameters.  History rows
    are (train MSE, validation MSE); validation is NaN when no validation
    split is given.
    The kernel runs in one workspace sized for an update and, for
    validation, one forward-only workspace; both share one helper thread
    for the calls that split (see ``_on_streams``).
    """
    n = len(dataset)
    if not n:
        raise ValueError("empty training dataset")
    helper = _StreamThread()
    y = dataset.target
    has_val = validation is not None and len(validation) > 0
    if has_val:
        ws_val = _Workspace(params.dims, len(validation), backward=False, helper=helper)
        x_val, y_val = _fill_inputs(validation, ws_val.x), validation.target

    params = params.copy()
    grads = FusionParams(params.dims)
    adam_state = AdamState.init(params.vector, eta=cfg.eta)
    rows = n if cfg.batch_size is None else min(cfg.batch_size, n)
    ws = _Workspace(params.dims, rows, helper=helper)
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
            m = len(idx)
            bx = np.take(x, idx, axis=1, out=ws.x[:, :m], mode="clip")
            by = np.take(y, idx, out=gather_y[:m], mode="clip")
        _batch_forward(bx, params, ws)
        # a non-finite yhat gives a non-finite loss, so this one check covers both
        loss = float(np.sum(_batch_backward(bx, by, params, ws, grads)))
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
        val_mse = float(np.mean(np.square(err, out=err)))
        if not np.isfinite(val_mse):
            raise TrainingDiverged(f"epoch {epoch}: non-finite validation loss")
        return val_mse

    # divergence is caught by the finiteness checks above, as in _batch_forward
    with helper, np.errstate(over="ignore", invalid="ignore"):
        best, history = fit_epochs(
            params.vector, n, update, validate if has_val else None,
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
    dims = params.dims
    lines = [CHECKPOINT_TAG]
    lines.append(f"dims {dims.embed_dim} {dims.memory_dim} {dims.hidden_dim} {int(dims.memory_enabled)}")
    vals = [norm.dl_mean, norm.dl_std, norm.ep_mean, norm.ep_std, norm.y_mean, norm.y_std]
    lines.append("norm " + " ".join(float(v).hex() for v in vals))
    for name, view in zip(_TENSOR_FIELDS, params.flatten()):
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
    line.
    """
    text = Path(path).read_text(encoding="utf-8")
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
