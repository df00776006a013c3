#!/usr/bin/env python3
# Anatomy of the fusion network: one sample in, one energy value out.
#
# Two scalar forecasts (a data-driven one and a physics-based one) enter with
# their availability masks, get embedded, mixed with a learnable memory
# vector, and reduced to three scalars whose sum is the prediction.

import numpy as np

from fusecast import model as M
from fusecast.numkit import finite_diff_grad
from fusecast.pipeline import SampleBatch


def one_sample(dl, ep, target):
    """One sample, both streams present, as a one-row SampleBatch."""
    return SampleBatch([dl], [1], [ep], [1], [target], [True])


def run_kernel(batch, params):
    """The network's forward pass over ``batch``, with every intermediate
    kept in the kernel's workspace (stream 0 = data, stream 1 = physics)."""
    ws = M._Workspace(params.dims, len(batch))
    M._batch_forward(M._fill_inputs(batch, ws.x), params, ws)
    return ws


# --- a tiny hand-checkable network -----------------------------------------
# width 1 everywhere, all weights 1, all biases 0, memory 0
dims = M.FusionDims(embed_dim=1, memory_dim=1, hidden_dim=1)
params = M.FusionParams(
    dims=dims,
    w_dl=np.ones((1, 2)), b_dl=np.zeros(1),
    w_ep=np.ones((1, 2)), b_ep=np.zeros(1),
    memory=np.zeros(1),
    w_hid_dl=np.ones((1, 2)), b_hid_dl=np.zeros(1),
    w_hid_ep=np.ones((1, 2)), b_hid_ep=np.zeros(1),
    w_head_dl=np.ones(1), b_head_dl=0.0,
    w_head_ep=np.ones(1), b_head_ep=0.0,
    w_head_mem=np.ones(1), b_head_mem=0.0,
)
ws = run_kernel(one_sample(1.0, 1.0, 3.0), params)
d = dims.embed_dim
print("hand-checkable forward pass (everything 1, memory 0):")
print(f"  embeddings h_dl={ws.c[0, 0, :d]}, h_ep={ws.c[1, 0, :d]}")
print(f"  mixers     z_dl={ws.z[0, 0]}, z_ep={ws.z[1, 0]}")
print(f"  heads      part_dl={ws.part[0, 0]}, part_ep={ws.part[1, 0]}, offset={ws.offset}")
print(f"  prediction yhat = {ws.yhat[0]}   (= 2 + 2 + 0)")

# --- the prediction is always the sum of the three head outputs ------------
p = M.init_params(M.FusionDims(8, 4, 8), seed=1)
s = one_sample(0.3, -0.2, 0.1)
ws = run_kernel(s, p)
assert ws.yhat[0] == ws.part[0, 0] + ws.part[1, 0] + ws.offset
print("\nadditivity holds bit-exactly on a random network")

# --- hand-derived gradients against the finite-difference oracle -----------
grads = M.FusionParams(p.dims)
M._batch_backward(ws.x, s.target, p, ws, grads)


def objective(arrays):
    return float((s.target[0] - M.predict(s, M.FusionParams.unflatten(p.dims, arrays))[0]) ** 2)


numeric = finite_diff_grad(objective, p.flatten(), 1e-5)
worst = max(
    float(np.max(np.abs(np.asarray(a) - n) / (np.abs(n) + 1e-12)))
    for a, n in zip(grads.flatten(), numeric)
)
print(f"backward pass vs central differences: worst relative error {worst:.2e}")

# --- the offset head can leave the input interval ---------------------------
p_high = M.init_params(M.FusionDims(4, 2, 4), seed=2)
p_high.b_head_mem = 100.0
print("\nwith a large offset bias the prediction escapes the inputs:")
print(f"  inputs ({s.dl[0]}, {s.ep[0]}) -> yhat = {M.predict(s, p_high)[0]:.2f}")
