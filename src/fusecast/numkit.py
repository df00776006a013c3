"""Dense float64 kernels shared by every other module.

Plain functions over numpy arrays: views of a flat parameter vector as
shaped tensors, SGD/Adam updates on one flat parameter vector and one flat
gradient vector (a few vectorised ops per step, in place when ``out`` is
the parameter vector), the epoch loop every trainer shares, and a
central-difference gradient oracle used to verify hand-derived backward
passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


class ShapeMismatch(ValueError):
    """Operand shapes are incompatible for the requested operation."""


def block_views(vector: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
    """Views of consecutive row-major blocks of a flat vector, one per shape
    (``()`` gives a 0-d view); the blocks must cover the vector exactly."""
    out, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        out.append(vector[start:stop].reshape(shape))
        start = stop
    if start != vector.shape[0]:
        raise ShapeMismatch(f"blocks hold {start} values but the vector has {vector.shape[0]}")
    return out


def _check_eta(eta: float) -> None:
    if not 0.0 < eta < math.inf:
        raise ValueError(f"learning rate must be finite and positive, got {eta!r}")


def sgd_step(params: np.ndarray, grads: np.ndarray, eta: float, out: np.ndarray | None = None) -> np.ndarray:
    """One plain gradient-descent update, p - eta * g, written to ``out``."""
    _check_eta(eta)
    if params.shape != grads.shape:
        raise ShapeMismatch(f"parameter shape {params.shape} vs gradient shape {grads.shape}")
    return np.subtract(params, eta * grads, out=out)


@dataclass
class AdamState:
    """Flat first/second moment accumulators plus hyperparameters."""

    m: np.ndarray
    v: np.ndarray
    step: int
    beta1: float
    beta2: float
    eps: float
    eta: float

    @classmethod
    def init(
        cls,
        params: np.ndarray,
        eta: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> "AdamState":
        _check_eta(eta)
        return cls(np.zeros(params.shape), np.zeros(params.shape), 0, beta1, beta2, eps, eta)


def adam_step(
    params: np.ndarray, grads: np.ndarray, state: AdamState, out: np.ndarray | None = None
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update over a flat vector.  The moments in
    ``state`` advance in place; the new parameters go to ``out`` (a new
    array by default).  Returns the new parameters and ``state``."""
    if not params.shape == grads.shape == state.m.shape:
        raise ShapeMismatch(f"parameter shape {params.shape}, gradient {grads.shape}, moments {state.m.shape}")
    state.step += 1
    b1, b2, t = state.beta1, state.beta2, state.step
    m, v = state.m, state.v
    # m = b1*m + (1-b1)*g and v = b2*v + (1-b2)*g*g in place, rounding for rounding.
    m *= b1
    m += (1.0 - b1) * grads
    v *= b2
    v += (1.0 - b2) * grads * grads
    mhat = m / (1.0 - b1**t)
    vhat = v / (1.0 - b2**t)
    return np.subtract(params, state.eta * mhat / (np.sqrt(vhat) + state.eps), out=out), state


def fit_epochs(
    vector: np.ndarray, n: int, update: Callable, validate: Callable | None,
    max_epochs: int, batch_size: int | None, patience: int, rng: np.random.Generator,
) -> tuple[np.ndarray, list[tuple[float, float]]]:
    """The epoch loop every trainer shares: per epoch, ``update(rows, epoch)``
    steps ``vector`` in place and returns the summed loss, once per minibatch
    of a fresh ``rng`` permutation (once on all rows when ``batch_size`` is
    None); then ``validate(epoch)``, with early stopping after ``patience``
    stale epochs.  Returns a copy of the best (without ``validate``, the last)
    vector and the (mean train loss, validation loss or NaN) history."""
    history: list[tuple[float, float]] = []
    best_val, best, stall = math.inf, vector.copy(), 0
    for epoch in range(max_epochs):
        if batch_size is None:
            loss_sum = update(slice(None), epoch)
        else:
            perm = rng.permutation(n)
            loss_sum = 0.0
            for start in range(0, n, batch_size):
                loss_sum += update(perm[start : start + batch_size], epoch)
        val = validate(epoch) if validate is not None else math.nan
        history.append((loss_sum / n, val))
        if validate is None:
            continue
        if val < best_val:
            best_val, best, stall = val, vector.copy(), 0
        else:
            stall += 1
            if stall >= patience:
                break
    return (best if validate is not None else vector.copy()), history


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
