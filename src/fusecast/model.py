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
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numkit import AdamState, ShapeMismatch, adam_step, block_views, empty_blocks, fit_epochs
from .pipeline import NormStats, SampleBatch

CHECKPOINT_TAG = "pgmn-ckpt-1"


class TrainingDiverged(RuntimeError):
    """Training produced a non-finite loss."""


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
    def shapes(self) -> dict[str, tuple[int, ...]]:
        """Shape of every named learnable tensor, in name order (the order
        of ``FusionParams.flatten`` and of a checkpoint file)."""
        d, mw, dz = self.embed_dim, self.mem_width, self.hidden_dim
        return {
            "w_dl": (d, 2), "b_dl": (d,), "w_ep": (d, 2), "b_ep": (d,),
            "memory": (mw,),
            "w_hid_dl": (dz, d + mw), "b_hid_dl": (dz,),
            "w_hid_ep": (dz, d + mw), "b_hid_ep": (dz,),
            "w_head_dl": (dz,), "b_head_dl": (),
            "w_head_ep": (dz,), "b_head_ep": (),
            "w_head_mem": (mw,), "b_head_mem": (),
        }

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

_SCALAR_FIELDS = ("b_head_dl", "b_head_ep", "b_head_mem")

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

    @classmethod
    def unflatten(cls, dims: FusionDims, arrays: list[np.ndarray]) -> "FusionParams":
        return cls(dims, **dict(zip(_TENSOR_FIELDS, arrays)))

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


def init_params(dims: FusionDims, seed: int, random_memory: bool = False) -> FusionParams:
    """Fresh parameters: weights uniform in +-sqrt(1/fan_in), biases zero,
    memory zero by default (``random_memory=True`` draws it like a weight)."""
    rng = np.random.default_rng(seed)
    d, mw, dz = dims.embed_dim, dims.mem_width, dims.hidden_dim

    def uniform(shape, fan_in):
        bound = np.sqrt(1.0 / max(fan_in, 1))
        return rng.uniform(-bound, bound, size=shape)

    w_dl = uniform((d, 2), 2)
    w_ep = uniform((d, 2), 2)
    w_hid_dl = uniform((dz, d + mw), d + mw)
    w_hid_ep = uniform((dz, d + mw), d + mw)
    w_head_dl = uniform((dz,), dz)
    w_head_ep = uniform((dz,), dz)
    w_head_mem = uniform((mw,), max(mw, 1))
    memory = np.zeros(mw)
    if random_memory and mw > 0:
        memory = uniform((mw,), max(mw, 1))
    return FusionParams(
        dims=dims,
        w_dl=w_dl, b_dl=np.zeros(d), w_ep=w_ep, b_ep=np.zeros(d),
        memory=memory,
        w_hid_dl=w_hid_dl, b_hid_dl=np.zeros(dz),
        w_hid_ep=w_hid_ep, b_hid_ep=np.zeros(dz),
        w_head_dl=w_head_dl, b_head_dl=0.0,
        w_head_ep=w_head_ep, b_head_ep=0.0,
        w_head_mem=w_head_mem, b_head_mem=0.0,
    )


# ---------------------------------------------------------------------------
# The kernel: forward and backward over m rows of both streams at once,
# written into a workspace
# ---------------------------------------------------------------------------

class _Workspace:
    """Preallocated kernel buffers for up to ``rows`` rows; a call on m rows
    uses the first m of each.  Every buffer stacks the data stream (index 0)
    on the physics stream (index 1), shaped ``(2, rows, ...)``: the input
    ``x`` of [value, mask] rows, the embedding pre-activation ``a_h``, the
    mixer input ``c`` = [max(0, a_h), memory], the mixer pre-activation
    ``a_z``, its ReLU ``z`` and the head output ``part``.  ``backward=True``
    adds the gradient temporaries; the flat ``da`` holds the mixer's
    pre-activation gradient and then, once that is spent, the embedding's,
    each as one contiguous (2, m, ...) block.  A workspace lives for one
    ``train``/``predict`` call.

    The float buffers are blocks of one float64 allocation, and the bool
    ReLU masks of one bool allocation.
    glibc raises its heap-trim threshold to twice the largest block freed,
    so one large block stays in the heap from call to call, where a dozen
    smaller blocks of the same total are handed back to the system and
    page-faulted in again on the next call."""

    def __init__(self, dims: FusionDims, rows: int, backward: bool = True):
        d, c, dz = dims.embed_dim, dims.embed_dim + dims.mem_width, dims.hidden_dim
        shapes = [(2, rows, 2), (2, rows, d), (2, rows, c), (2, rows, dz), (2, rows, dz), (2, rows), (rows,)]
        if backward:
            shapes += [(rows,), (rows,), (2 * rows * max(d, dz),), (2, rows, c), (2, dims.mem_width)]
            self.on_z, self.on_h = empty_blocks([(2, rows, dz), (2, rows, d)], bool)
        bufs = empty_blocks(shapes)
        self.x, self.a_h, self.c, self.a_z, self.z, self.part, self.yhat = bufs[:7]
        if backward:
            self.losses, self.g, self.da, self.dc, self.dmem = bufs[7:]
        self.offset = 0.0


def _fill_inputs(batch: SampleBatch, x: np.ndarray) -> np.ndarray:
    """The batch's [value, mask] rows, data stream then physics stream,
    written column by column into the first n rows of ``x`` (2, >= n, 2);
    returns that (2, n, 2) view."""
    x = x[:, : len(batch)]
    x[0, :, 0], x[0, :, 1], x[1, :, 0], x[1, :, 1] = batch.dl, batch.dl_mask, batch.ep, batch.ep_mask
    return x


def _batch_forward(x: np.ndarray, params: FusionParams, ws: _Workspace) -> np.ndarray:
    """Forward pass over the m rows of ``x`` (2, m, 2) into ``ws``; returns
    yhat, a view into ``ws``.  The weights enter as transposed views of
    the vector, so each stream's products are those of a per-stream
    ``x @ w.T``, bit for bit."""
    m = x.shape[1]
    d, mem = params.dims.embed_dim, params.memory
    a_h, c, a_z, z, part = ws.a_h[:, :m], ws.c[:, :m], ws.a_z[:, :m], ws.z[:, :m], ws.part[:, :m]
    # divergence is caught via isfinite checks, so let overflow pass silently
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(x, params.w.transpose(0, 2, 1), out=a_h)
        a_h += params.b[:, None]
        np.maximum(a_h, 0.0, out=c[..., :d])
        c[..., d:] = mem
        np.matmul(c, params.w_hid.transpose(0, 2, 1), out=a_z)
        a_z += params.b_hid[:, None]
        np.maximum(a_z, 0.0, out=z)
        np.matmul(z, params.w_head[..., None], out=part[..., None])
        part += params.b_head[:, None]
        ws.offset = float(params.w_head_mem @ mem) + params.b_head_mem
        yhat = np.add(part[0], part[1], out=ws.yhat[:m])
        yhat += ws.offset
    return yhat


def _batch_backward(x: np.ndarray, y: np.ndarray, params: FusionParams, ws: _Workspace, grads: FusionParams) -> np.ndarray:
    """Per-row squared-error losses (a view into ``ws``) of the forward pass
    ``ws`` holds for the rows ``x``; the gradients summed over the rows are
    written into ``grads``.

    Chain rule: with g = dL/dyhat = 2(yhat - y), each head bias receives
    sum(g), the head weights receive g times their input, and g flows back
    through both ReLU mixers into the embeddings.  The memory gradient sums
    three routes, in this order: the memory columns of the data mixer, of
    the physics mixer, then the offset head.
    """
    m = len(y)
    d, dz = params.dims.embed_dim, params.dims.hidden_dim
    yhat = ws.yhat[:m]
    losses = np.subtract(y, yhat, out=ws.losses[:m])
    np.square(losses, out=losses)
    g = np.subtract(yhat, y, out=ws.g[:m])
    g *= 2.0
    g_sum = float(np.add.reduce(g))
    a_h, c, a_z, z = ws.a_h[:, :m], ws.c[:, :m], ws.a_z[:, :m], ws.z[:, :m]
    on_z, dc, on_h = ws.on_z[:, :m], ws.dc[:, :m], ws.on_h[:, :m]
    da_z = ws.da[: 2 * m * dz].reshape(2, m, dz)

    np.matmul(z.transpose(0, 2, 1), g, out=grads.w_head)
    grads.b_head[...] = g_sum
    np.multiply(g[:, None], params.w_head[:, None], out=da_z)
    da_z *= np.greater(a_z, 0, out=on_z)
    np.matmul(da_z.transpose(0, 2, 1), c, out=grads.w_hid)
    np.add.reduce(da_z, axis=1, out=grads.b_hid)
    np.matmul(da_z, params.w_hid, out=dc)
    np.add.reduce(dc[..., d:], axis=1, out=ws.dmem)
    da_h = np.multiply(dc[..., :d], np.greater(a_h, 0, out=on_h), out=ws.da[: 2 * m * d].reshape(2, m, d))
    np.matmul(da_h.transpose(0, 2, 1), x, out=grads.w)
    np.add.reduce(da_h, axis=1, out=grads.b)

    g_memory = np.add(ws.dmem[0], ws.dmem[1], out=grads.memory)
    g_memory += np.multiply(g_sum, params.w_head_mem, out=ws.dmem[0])
    np.multiply(g_sum, params.memory, out=grads.w_head_mem)
    grads.b_head_mem[...] = g_sum
    return losses


def predict(batch: SampleBatch, params: FusionParams) -> np.ndarray:
    """Pure forward pass over a SampleBatch; non-finite outputs raise."""
    if not len(batch):
        return np.zeros(0)
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
    validation: SampleBatch | None = None,
) -> tuple[FusionParams, list[tuple[float, float]]]:
    """Fit the network with Adam; returns final parameters and per-epoch
    loss history.

    Each epoch either accumulates gradients over the whole dataset and
    updates once (``batch_size=None``) or shuffles into minibatches.  An
    update whose summed loss is not finite raises TrainingDiverged before
    it steps the parameters.  Early stopping triggers after
    ``early_stop_patience`` epochs without validation improvement and
    restores the best-validation parameters.  History rows are (train MSE,
    validation MSE); validation is NaN when no validation split is given.
    The kernel runs in one workspace sized for an update and, for
    validation, one forward-only workspace.
    """
    n = len(dataset)
    if not n:
        raise ValueError("empty training dataset")
    y = dataset.target
    has_val = validation is not None and len(validation) > 0
    if has_val:
        ws_val = _Workspace(params.dims, len(validation), backward=False)
        x_val, y_val = _fill_inputs(validation, ws_val.x), validation.target

    params = params.copy()
    grads = FusionParams(params.dims)
    adam_state = AdamState.init(params.vector, eta=cfg.eta)
    rows = n if cfg.batch_size is None else min(cfg.batch_size, n)
    ws = _Workspace(params.dims, rows)
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
        adam_step(params.vector, grads.vector, adam_state, out=params.vector)
        return loss

    def validate(epoch: int) -> float:
        # the squared errors overwrite the predictions, which nothing reads again
        err = np.subtract(y_val, _batch_forward(x_val, params, ws_val), out=ws_val.yhat[: len(y_val)])
        val_mse = float(np.mean(np.square(err, out=err)))
        if not np.isfinite(val_mse):
            raise TrainingDiverged(f"epoch {epoch}: non-finite validation loss")
        return val_mse

    # divergence is caught by the finiteness checks above, as in _batch_forward
    with np.errstate(over="ignore", invalid="ignore"):
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
#   norm <dl_mean> <dl_std> <ep_mean> <ep_std> <y_mean> <y_std>   (optional)
#   tensor <name> <ndim> <dim...>
#   <hex values, space separated, row-major>
#   scalar <name> <hex value>
# ---------------------------------------------------------------------------

def save_checkpoint(path, params: FusionParams, norm: NormStats | None = None) -> None:
    dims = params.dims
    lines = [CHECKPOINT_TAG]
    lines.append(f"dims {dims.embed_dim} {dims.memory_dim} {dims.hidden_dim} {int(dims.memory_enabled)}")
    if norm is not None:
        vals = [norm.dl_mean, norm.dl_std, norm.ep_mean, norm.ep_std, norm.y_mean, norm.y_std]
        lines.append("norm " + " ".join(float(v).hex() for v in vals))
    for name in _TENSOR_FIELDS:
        v = getattr(params, name)
        if name in _SCALAR_FIELDS:
            lines.append(f"scalar {name} {float(v).hex()}")
        else:
            arr = np.asarray(v, dtype=np.float64)
            shape = " ".join(str(s) for s in arr.shape)
            lines.append(f"tensor {name} {arr.ndim} {shape}".rstrip())
            lines.append(" ".join(x.hex() for x in arr.reshape(-1).tolist()))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_checkpoint(path) -> tuple[FusionParams, NormStats | None]:
    """Read a checkpoint written by save_checkpoint.

    Any malformed content (a truncated file, an unknown or repeated tensor
    name, a value count or shape that does not fit, a non-finite value)
    raises ValueError naming the file and the line.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()

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
    shapes = dims.shapes

    norm = None
    i = 2
    if i < len(lines) and lines[i].startswith("norm "):
        norm = NormStats(*parse_values(i + 1, lines[i].split()[1:], 6))
        i += 1

    values: dict[str, list[float]] = {}
    while i < len(lines):
        lineno, parts = i + 1, lines[i].split()
        i += 1
        if not parts:
            continue
        if parts[0] not in ("scalar", "tensor") or len(parts) < 3:
            fail(lineno, f"unexpected line {lines[lineno - 1]!r}")
        kind, name = parts[0], parts[1]
        if name not in shapes:
            fail(lineno, f"unknown tensor name {name!r}")
        if name in values:
            fail(lineno, f"duplicate tensor {name!r}")
        if kind == "scalar":
            shape, data, data_lineno = (), parts[2:], lineno
        else:
            if not all(tok.isdecimal() for tok in parts[2:]) or int(parts[2]) != len(parts) - 3:
                fail(lineno, f"malformed tensor header {lines[lineno - 1]!r}")
            if i >= len(lines):
                fail(lineno, f"tensor {name!r} has no data line")
            shape, data, data_lineno = tuple(int(tok) for tok in parts[3:]), lines[i].split(), i + 1
            i += 1
        values[name] = parse_values(data_lineno, data, math.prod(shape))
        if shape != shapes[name]:
            fail(lineno, f"{name}: expected shape {shapes[name]}, got {shape}")

    missing = [name for name in _TENSOR_FIELDS if name not in values]
    if missing:
        fail(len(lines), f"file ends without tensors {missing}")
    return FusionParams(dims, **{name: np.reshape(values[name], shapes[name]) for name in _TENSOR_FIELDS}), norm
