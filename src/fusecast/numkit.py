"""Dense float64 kernels shared by every other module.

Plain functions over numpy arrays: views of a flat parameter vector as
shaped tensors (and kernel workspaces carved the same way from one
allocation), the three-layer ReLU network kernel of the fusion streams
and the baseline (``mlp_forward``, ``mlp_backward``) and its row sums
(``row_sums``, in row order), uniform weight initialisation, the in-place
Adam update on one flat parameter vector and one flat gradient vector (a
few vectorised ops per step), the epoch loop every trainer shares and its divergence
check, a central-difference gradient oracle used to verify hand-derived
backward passes, the count of CPUs the process may use (it sizes the
harness's pool and lets a training split its streams over two threads),
and the checks that a constructor's number field is a finite real or an
integer count.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


class TrainingDiverged(RuntimeError):
    """Training produced a non-finite loss or gradient."""


def check_real(name: str, value) -> None:
    """Reject a field ``name`` that is not a finite real (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be finite and a real number, got {value!r}")


def check_count(name: str, value, least: int = 1) -> None:
    """Reject a field ``name`` that is not an integer (nor a bool) >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")


def block_views(vector: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
    """Views of consecutive row-major blocks of a flat vector, one per shape
    (``()`` gives a 0-d view); the blocks must cover the vector exactly."""
    size, spans = _layout(tuple(shapes))
    if size != vector.shape[0]:
        raise ValueError(f"blocks hold {size} values but the vector has {vector.shape[0]}")
    return _cut(vector, spans)


def empty_blocks(shapes: Sequence[tuple[int, ...]], dtype=np.float64) -> list[np.ndarray]:
    """Uninitialised buffers, one per shape, all views of one allocation of
    ``dtype``, cut as ``block_views`` cuts a vector."""
    size, spans = _layout(tuple(shapes))
    return _cut(np.empty(size, dtype=dtype), spans)


@functools.lru_cache(maxsize=256)
def _layout(shapes: tuple[tuple[int, ...], ...]) -> tuple[int, tuple[tuple[slice, tuple[int, ...]], ...]]:
    """The total size of ``shapes`` and each block's span in a flat vector,
    with its shape; cached, since a workspace or parameter set is cut the
    same way on every call."""
    spans, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        spans.append((slice(start, stop), shape))
        start = stop
    return start, tuple(spans)


def _cut(vector: np.ndarray, spans) -> list[np.ndarray]:
    return [vector[span].reshape(shape) for span, shape in spans]


def row_sums(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The sums of ``a`` over its rows (axis -2), written into ``out`` and
    returned: the column sums of each stacked matrix of ``a``.

    From two columns on, ``einsum`` adds each column in row order from
    +0.0, as ``np.add.reduce(a, axis=-2)`` does, so the bits are the same;
    it is faster, since ``add.reduce`` runs one inner loop of a row's width
    for every row.  At one column ``einsum`` drops the unit axis and adds
    the rows in several accumulators, and ``add.reduce`` adds them
    pairwise: other bits, so that width keeps ``add.reduce``."""
    if a.shape[-1] >= 2:
        return np.einsum("...rj->...j", a, out=out)
    return np.add.reduce(a, axis=-2, out=out)


def mlp_forward(x: np.ndarray, weights: Sequence[np.ndarray], h1: np.ndarray, h2: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The three-layer ReLU network ``relu(relu(x w1.T + b1) w2.T + b2) w3 + b3``
    over the rows of ``x`` (m, n0), ``weights`` = (w1, b1, w2, b2, w3, b3)
    shaped (n1, n0), (n1,), (n2, n1), (n2,), (n2,), (); returns ``out``
    (m,).  The ReLUs are taken in place, so ``h1`` (m, n1) and ``h2``
    (m, n2) end holding the activations.  Leading axes, the same on every
    array, stack networks that each get the bits of a call of their own."""
    w1, b1, w2, b2, w3, b3 = weights
    np.matmul(x, w1.swapaxes(-1, -2), out=h1)
    h1 += b1[..., None, :]
    np.maximum(h1, 0.0, out=h1)
    np.matmul(h1, w2.swapaxes(-1, -2), out=h2)
    h2 += b2[..., None, :]
    np.maximum(h2, 0.0, out=h2)
    np.matmul(h2, w3[..., :, None], out=out[..., None])
    out += b3[..., None]
    return out


def mlp_backward(x, weights, h1, h2, dout: np.ndarray, dout_sum: float, grads, on1, on2) -> np.ndarray:
    """The row-summed gradients of ``mlp_forward``'s network, written into
    ``grads`` (views shaped and ordered as ``weights``), from the per-row
    output gradient ``dout`` (m,), shared by stacked networks, and its sum
    ``dout_sum``.  ``h1``/``h2`` hold the forward pass's activations and
    take, in place, the pre-activation gradients; ``on1``/``on2`` are bool
    buffers shaped like them for the ReLU masks (a ReLU output is > 0
    exactly where its input was, NaN included).  Returns the row sums of
    layer 2's pre-activation gradient (b2's gradient).

    The row outer product ``dout w3`` is an ``einsum`` (a broadcast multiply
    runs one short inner loop per row), which adds the one product per
    element to a zeroed output: +0.0 where ``np.multiply``
    writes -0.0 (dout == +0.0 times a negative weight).  Every reader of it
    past the mask is a sum from +0.0 (the matmuls and ``row_sums``), so no
    gradient shows the sign."""
    _, _, w2, _, w3, _ = weights
    g1, gb1, g2, gb2, g3, gb3 = grads
    np.matmul(h2.swapaxes(-1, -2), dout, out=g3)
    gb3[...] = dout_sum
    np.greater(h2, 0, out=on2)
    d2 = np.einsum("r,...j->...rj", dout, w3, out=h2)
    d2 *= on2
    np.matmul(d2.swapaxes(-1, -2), h1, out=g2)
    sz = row_sums(d2, out=gb2)
    np.greater(h1, 0, out=on1)
    d1 = np.matmul(d2, w2, out=h1)
    d1 *= on1
    np.matmul(d1.swapaxes(-1, -2), x, out=g1)
    row_sums(d1, out=gb1)
    return sz


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def draw_uniform(rng: np.random.Generator, blocks: Sequence[np.ndarray]) -> None:
    """Fill each weight block, in order, with ``rng`` draws uniform in
    +-sqrt(1/fan_in), where fan_in is its last axis (at least 1)."""
    for block in blocks:
        bound = np.sqrt(1.0 / max(block.shape[-1], 1))
        block[...] = rng.uniform(-bound, bound, size=block.shape)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Flat first/second moment accumulators, the step count and learning
    rate, and two scratch vectors (``scratch``, shaped (2, n)) that hold
    each step's temporaries, so a step allocates nothing."""

    m: np.ndarray
    v: np.ndarray
    step: int
    eta: float
    scratch: np.ndarray = field(repr=False)

    @classmethod
    def init(cls, params: np.ndarray, eta: float) -> "AdamState":
        if not 0.0 < eta < math.inf:
            raise ValueError(f"learning rate must be finite and positive, got {eta!r}")
        return cls(np.zeros(params.shape), np.zeros(params.shape), 0, eta, np.empty((2, *params.shape)))


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update of the flat vector ``params``, in
    place; the moments in ``state`` advance in place too."""
    if not params.shape == grads.shape == state.m.shape:
        raise ValueError(f"parameter shape {params.shape}, gradient {grads.shape}, moments {state.m.shape}")
    state.step += 1
    b1, b2, t = ADAM_BETA1, ADAM_BETA2, state.step
    m, v, (s, r) = state.m, state.v, state.scratch
    # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g and
    # p - eta*mhat / (sqrt(vhat) + eps), rounding for rounding, with every
    # temporary in the scratch vectors s and r.
    m *= b1
    m += np.multiply(grads, 1.0 - b1, out=s)
    v *= b2
    np.multiply(grads, 1.0 - b2, out=s)
    s *= grads
    v += s
    np.divide(m, 1.0 - b1**t, out=s)  # mhat
    s *= state.eta
    np.divide(v, 1.0 - b2**t, out=r)  # vhat
    np.sqrt(r, out=r)
    r += ADAM_EPS
    s /= r
    params -= s


def fit_epochs(
    vector: np.ndarray, n: int, update: Callable, validate: Callable,
    max_epochs: int, batch_size: int | None, patience: int, rng: np.random.Generator,
) -> tuple[np.ndarray, list[tuple[float, float]]]:
    """The epoch loop every trainer shares: per epoch, ``update(rows, epoch)``
    steps ``vector`` in place and returns the summed loss, once per minibatch
    of a fresh ``rng`` permutation (once on all rows when ``batch_size`` is
    None); then ``validate(epoch)`` returns the validation loss, with early
    stopping after ``patience`` stale epochs.  Returns a copy of the vector
    of the lowest validation loss and the (mean train loss, validation
    loss) history.

    A validation loss that is not finite raises TrainingDiverged, as an
    ``update`` must for a non-finite loss or gradient.  Divergence is caught
    by these checks, so numpy's overflow and invalid-operation warnings are
    off for the whole loop."""
    history: list[tuple[float, float]] = []
    best_val, best, stall = math.inf, vector.copy(), 0
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(max_epochs):
            if batch_size is None:
                loss_sum = update(slice(None), epoch)
            else:
                perm = rng.permutation(n)
                loss_sum = 0.0
                for start in range(0, n, batch_size):
                    loss_sum += update(perm[start : start + batch_size], epoch)
            val = validate(epoch)
            history.append((loss_sum / n, val))
            if not math.isfinite(val):
                raise TrainingDiverged(f"epoch {epoch}: non-finite validation loss")
            if val < best_val:
                best_val, best, stall = val, vector.copy(), 0
            else:
                stall += 1
                if stall >= patience:
                    break
    return best, history


def finite_diff_grad(
    f: Callable[[Sequence[np.ndarray]], float],
    params: Sequence[np.ndarray],
    h: float = 1e-5,
) -> list[np.ndarray]:
    """Central-difference gradient estimate of a scalar objective.

    ``f`` receives the (temporarily perturbed) parameter list and must return
    a finite scalar; it is evaluated twice per parameter entry.  This is the
    oracle the hand-derived backward passes are checked against, so it must
    stay independent of them.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    base = [np.array(p, dtype=np.float64) for p in params]
    grads = [np.zeros_like(p) for p in base]
    for pi, p in enumerate(base):
        flat = p.reshape(-1)
        gflat = grads[pi].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(f(base))
            flat[i] = orig - h
            down = float(f(base))
            flat[i] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise ValueError(f"objective returned a non-finite value at parameter {pi}[{i}]")
            gflat[i] = (up - down) / (2.0 * h)
    return grads
