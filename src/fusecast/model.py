"""The forecast-fusion network.

Two masked scalar forecast streams (a data-driven one and a physics-based
one) are each embedded together with their availability mask, mixed with a
single learnable memory vector shared across all samples, and reduced to
three scalars whose sum is the predicted energy:

    h_dl = relu(W_dl [x_dl, m_dl] + b_dl)          embedding, data stream
    h_ep = relu(W_ep [x_ep, m_ep] + b_ep)          embedding, physics stream
    e    = memory                                  identity read
    z_dl = relu(W_hid_dl [h_dl; e] + b_hid_dl)     hidden mixer, data stream
    z_ep = relu(W_hid_ep [h_ep; e] + b_hid_ep)     hidden mixer, physics stream
    yhat = (w_head_dl.z_dl + b_head_dl)            stream contribution
         + (w_head_ep.z_ep + b_head_ep)            stream contribution
         + (w_head_mem.e  + b_head_mem)            learned offset

The memory vector feeds both mixers and the additive offset head, so
training can park persistent forecast bias in it.  Because the three head
outputs are unconstrained reals, the sum can land outside the interval
spanned by the two input forecasts whenever that lowers the loss.

Gradients are hand-derived (see backward); numkit.finite_diff_grad is the
independent oracle they are tested against.  Training follows a
sum-of-squared-errors objective with one parameter update per batch unit;
the default unit is the full epoch.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numkit import AdamState, ShapeMismatch, adam_step, block_views, fit_epochs, relu, sgd_step
from .pipeline import MaskedSample, NormStats

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
        """Shape of every learnable tensor, in flat-vector order."""
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
    def size(self) -> int:
        """Length of the flat parameter vector."""
        return sum(math.prod(shape) for shape in self.shapes.values())


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


class FusionParams:
    """Every learnable tensor of the network, in one flat float64 ``vector``
    (wrapped, not copied; zeros by default) that the given tensors, if any,
    are written into.  Each ``_TENSOR_FIELDS`` entry is a view into it, in
    that order, shaped by FusionDims (head biases 0-d).  Assigning to a field
    or to ``vector`` writes into the storage, so fields never drift from it."""

    def __init__(self, dims: FusionDims, vector: np.ndarray | None = None, **tensors):
        if tensors and set(tensors) != set(_TENSOR_FIELDS):
            raise TypeError(f"FusionParams needs all of the tensors {_TENSOR_FIELDS}, got {sorted(tensors)}")
        vector = np.zeros(dims.size) if vector is None else vector
        if vector.dtype != np.float64 or vector.shape != (dims.size,):
            raise ShapeMismatch(f"expected a float64 vector of length {dims.size}, got {vector.dtype} {vector.shape}")
        self.__dict__.update(zip(_TENSOR_FIELDS, block_views(vector, dims.shapes.values())), dims=dims, vector=vector)
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


# Gradients mirror the parameter structure exactly.
Gradients = FusionParams


@dataclass
class ForwardTrace:
    """Everything the backward pass needs, cached from one forward pass."""

    dl_in: np.ndarray       # [x_dl, mask]
    ep_in: np.ndarray
    pre_h_dl: np.ndarray
    pre_h_ep: np.ndarray
    h_dl: np.ndarray
    h_ep: np.ndarray
    mem: np.ndarray
    pre_z_dl: np.ndarray
    pre_z_ep: np.ndarray
    z_dl: np.ndarray
    z_ep: np.ndarray
    part_dl: float
    part_ep: float
    offset: float
    yhat: float


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters.

    ``batch_size=None`` is the literal full-epoch discipline: gradients are
    accumulated over every sample and applied once per epoch.  A minibatch
    size trades that fidelity for speed.  Early stopping watches validation
    MSE with the given patience; identical seed/config/data reproduce the
    run bit-for-bit.
    """

    eta: float = 1e-3
    optimizer: str = "adam"
    max_epochs: int = 2000
    batch_size: int | None = None
    early_stop_patience: int = 20
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.eta < math.inf:
            raise ValueError(f"learning rate eta must be finite and positive, got {self.eta!r}")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
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


def embed_dl(value: float, mask: int, params: FusionParams) -> np.ndarray:
    """Projection of the data-driven forecast and its mask into h_dl."""
    x = np.array([float(value), float(mask)])
    if not np.isfinite(value):
        raise ValueError("non-finite data-stream input")
    return relu(params.w_dl @ x + params.b_dl)


def embed_ep(value: float, mask: int, params: FusionParams) -> np.ndarray:
    """Projection of the physics forecast and its mask into h_ep."""
    x = np.array([float(value), float(mask)])
    if not np.isfinite(value):
        raise ValueError("non-finite physics-stream input")
    return relu(params.w_ep @ x + params.b_ep)


def read_memory(params: FusionParams) -> np.ndarray:
    """Identity read of the learnable memory vector."""
    return params.memory


def _stage_check(name: str, arr) -> None:
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"non-finite value at stage {name}")


def forward(sample: MaskedSample, params: FusionParams) -> ForwardTrace:
    """Run one sample through the network, caching all intermediates."""
    dl_in = np.array([sample.dl, float(sample.dl_mask)])
    ep_in = np.array([sample.ep, float(sample.ep_mask)])
    _stage_check("inputs", np.concatenate([dl_in, ep_in]))

    with np.errstate(over="ignore", invalid="ignore"):
        pre_h_dl = params.w_dl @ dl_in + params.b_dl
        _stage_check("h_dl", pre_h_dl)
        h_dl = relu(pre_h_dl)
        pre_h_ep = params.w_ep @ ep_in + params.b_ep
        _stage_check("h_ep", pre_h_ep)
        h_ep = relu(pre_h_ep)

        mem = read_memory(params)
        pre_z_dl = params.w_hid_dl @ np.concatenate([h_dl, mem]) + params.b_hid_dl
        _stage_check("z_dl", pre_z_dl)
        z_dl = relu(pre_z_dl)
        pre_z_ep = params.w_hid_ep @ np.concatenate([h_ep, mem]) + params.b_hid_ep
        _stage_check("z_ep", pre_z_ep)
        z_ep = relu(pre_z_ep)

        part_dl = float(params.w_head_dl @ z_dl) + params.b_head_dl
        part_ep = float(params.w_head_ep @ z_ep) + params.b_head_ep
        offset = float(params.w_head_mem @ mem) + params.b_head_mem
        yhat = part_dl + part_ep + offset
        _stage_check("yhat", np.array([part_dl, part_ep, offset, yhat]))

    return ForwardTrace(
        dl_in=dl_in, ep_in=ep_in,
        pre_h_dl=pre_h_dl, pre_h_ep=pre_h_ep, h_dl=h_dl, h_ep=h_ep,
        mem=mem, pre_z_dl=pre_z_dl, pre_z_ep=pre_z_ep, z_dl=z_dl, z_ep=z_ep,
        part_dl=part_dl, part_ep=part_ep, offset=offset, yhat=yhat,
    )


def resolve_target(sample: MaskedSample) -> float:
    """The training target: the actual when present, otherwise the physics
    value for proxy-labelled samples."""
    if sample.target is not None:
        return float(sample.target)
    if sample.target_is_proxy:
        return float(sample.ep)
    raise ValueError("sample has no target and is not marked as proxy-labelled")


def backward(trace: ForwardTrace, sample: MaskedSample, params: FusionParams) -> tuple[float, Gradients]:
    """Squared-error loss and its exact gradients for one sample.

    Chain rule through the trace: with g = dL/dyhat = 2(yhat - y), each head
    bias receives g directly, the head weights receive g * (their input),
    and g flows back through both ReLU mixers into the embeddings.  The
    memory gradient collects three routes: the memory columns of both
    mixers plus the offset head.
    """
    d = params.dims.embed_dim
    y = resolve_target(sample)
    loss = (y - trace.yhat) ** 2
    g = 2.0 * (trace.yhat - y)

    g_w_head_dl = g * trace.z_dl
    g_w_head_ep = g * trace.z_ep
    g_w_head_mem = g * trace.mem

    dz_dl = g * params.w_head_dl
    dz_ep = g * params.w_head_ep
    da_z_dl = dz_dl * (trace.pre_z_dl > 0)
    da_z_ep = dz_ep * (trace.pre_z_ep > 0)

    c_dl = np.concatenate([trace.h_dl, trace.mem])
    c_ep = np.concatenate([trace.h_ep, trace.mem])
    g_w_hid_dl = np.outer(da_z_dl, c_dl)
    g_w_hid_ep = np.outer(da_z_ep, c_ep)

    dc_dl = params.w_hid_dl.T @ da_z_dl
    dc_ep = params.w_hid_ep.T @ da_z_ep
    dh_dl, dmem_dl = dc_dl[:d], dc_dl[d:]
    dh_ep, dmem_ep = dc_ep[:d], dc_ep[d:]
    g_memory = dmem_dl + dmem_ep + g * params.w_head_mem

    da_h_dl = dh_dl * (trace.pre_h_dl > 0)
    da_h_ep = dh_ep * (trace.pre_h_ep > 0)

    grads = Gradients(
        dims=params.dims,
        w_dl=np.outer(da_h_dl, trace.dl_in), b_dl=da_h_dl,
        w_ep=np.outer(da_h_ep, trace.ep_in), b_ep=da_h_ep,
        memory=g_memory,
        w_hid_dl=g_w_hid_dl, b_hid_dl=da_z_dl,
        w_hid_ep=g_w_hid_ep, b_hid_ep=da_z_ep,
        w_head_dl=g_w_head_dl, b_head_dl=g,
        w_head_ep=g_w_head_ep, b_head_ep=g,
        w_head_mem=g_w_head_mem, b_head_mem=g,
    )
    return float(loss), grads


# ---------------------------------------------------------------------------
# Batched fast path (same math as forward/backward, vectorized over samples)
# ---------------------------------------------------------------------------

def _pack_inputs(samples: list[MaskedSample]) -> tuple[np.ndarray, np.ndarray]:
    x_dl = np.array([[s.dl, float(s.dl_mask)] for s in samples])
    x_ep = np.array([[s.ep, float(s.ep_mask)] for s in samples])
    return x_dl, x_ep


def _batch_forward(x_dl: np.ndarray, x_ep: np.ndarray, params: FusionParams) -> dict:
    n = x_dl.shape[0]
    mem = params.memory
    # divergence is caught via isfinite checks, so let overflow pass silently
    with np.errstate(over="ignore", invalid="ignore"):
        a_h_dl = x_dl @ params.w_dl.T + params.b_dl
        a_h_ep = x_ep @ params.w_ep.T + params.b_ep
        h_dl = np.maximum(a_h_dl, 0.0)
        h_ep = np.maximum(a_h_ep, 0.0)
        mem_rows = np.broadcast_to(mem, (n, mem.shape[0]))
        c_dl = np.concatenate([h_dl, mem_rows], axis=1)
        c_ep = np.concatenate([h_ep, mem_rows], axis=1)
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


def _batch_backward(cache: dict, y: np.ndarray, params: FusionParams, out: Gradients | None = None) -> tuple[np.ndarray, Gradients]:
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

    grads = out if out is not None else FusionParams(params.dims)
    grads.w_dl, grads.b_dl = da_h_dl.T @ cache["x_dl"], da_h_dl.sum(axis=0)
    grads.w_ep, grads.b_ep = da_h_ep.T @ cache["x_ep"], da_h_ep.sum(axis=0)
    grads.memory = g_memory
    grads.w_hid_dl, grads.b_hid_dl = g_w_hid_dl, da_z_dl.sum(axis=0)
    grads.w_hid_ep, grads.b_hid_ep = g_w_hid_ep, da_z_ep.sum(axis=0)
    grads.w_head_dl, grads.w_head_ep, grads.w_head_mem = g_w_head_dl, g_w_head_ep, g_w_head_mem
    grads.b_head_dl = grads.b_head_ep = grads.b_head_mem = g_sum
    return losses, grads


def predict(samples: list[MaskedSample], params: FusionParams) -> np.ndarray:
    """Pure forward pass over a list of samples; non-finite outputs raise."""
    if not samples:
        return np.zeros(0)
    x_dl, x_ep = _pack_inputs(samples)
    yhat = _batch_forward(x_dl, x_ep, params)["yhat"]
    bad = len(yhat) - np.count_nonzero(np.isfinite(yhat))
    if bad:
        raise ValueError(f"predict: {bad} of {len(yhat)} outputs are non-finite")
    return yhat.copy()


def train(
    dataset: list[MaskedSample],
    params: FusionParams,
    cfg: TrainConfig,
    validation: list[MaskedSample] | None = None,
) -> tuple[FusionParams, list[tuple[float, float]]]:
    """Fit the network; returns final parameters and per-epoch loss history.

    Samples whose actual target is absent train against their physics value
    (proxy labelling).  Each epoch either accumulates gradients over the
    whole dataset and updates once (``batch_size=None``) or shuffles into
    minibatches.  Early stopping triggers after ``early_stop_patience``
    epochs without validation improvement and restores the best-validation
    parameters.  History rows are (train MSE, validation MSE); validation is
    NaN when no validation split is given.
    """
    if not dataset:
        raise ValueError("empty training dataset")
    x_dl, x_ep = _pack_inputs(dataset)
    y = np.array([resolve_target(s) for s in dataset])
    has_val = bool(validation)
    if has_val:
        xv_dl, xv_ep = _pack_inputs(validation)
        yv = np.array([resolve_target(s) for s in validation])

    params = params.copy()
    grads = FusionParams(params.dims)
    adam_state = AdamState.init(params.vector, eta=cfg.eta) if cfg.optimizer == "adam" else None

    # A full-batch step's activations stay referenced until the next step's
    # exist, so its backward pass reuses their memory instead of page-faulting
    # ~9 MB back in after a heap trim (about 10% of a full-batch epoch).
    cache = None

    def update(rows, epoch: int) -> float:
        nonlocal cache
        cache = _batch_forward(x_dl[rows], x_ep[rows], params)
        if not np.all(np.isfinite(cache["yhat"])):
            raise TrainingDiverged(f"epoch {epoch}: non-finite training loss")
        losses, _ = _batch_backward(cache, y[rows], params, grads)
        if cfg.batch_size is not None:
            cache = None  # held minibatch activations make validation fault instead
        if cfg.optimizer == "sgd":
            sgd_step(params.vector, grads.vector, cfg.eta, out=params.vector)
        else:
            adam_step(params.vector, grads.vector, adam_state, out=params.vector)
        return float(np.sum(losses))

    def validate(epoch: int) -> float:
        val_pred = _batch_forward(xv_dl, xv_ep, params)["yhat"]
        val_mse = float(np.mean((yv - val_pred) ** 2))
        if not np.isfinite(val_mse):
            raise TrainingDiverged(f"epoch {epoch}: non-finite validation loss")
        return val_mse

    best, history = fit_epochs(
        params.vector, len(dataset), update, validate if has_val else None,
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
    vector = np.array([v for name in _TENSOR_FIELDS for v in values[name]], dtype=np.float64)
    return FusionParams(dims, vector), norm
