#!/usr/bin/env python3
# Missingness handling: sparsity injection, the four imputation strategies,
# and how masks flow into assembled training samples.

import numpy as np

from fusecast.pipeline import (
    EnergySeries,
    apply_sparsity,
    assemble_samples,
    hourly_range,
    impute,
)
from fusecast.harness import scenario_config

# a clean daily-cycle series, then knock out 20% of it
n = 24 * 14
ts = hourly_range("2021-01-04T00", n)
clean = EnergySeries.full(ts, 100.0 + 30.0 * np.sin(2 * np.pi * np.arange(n) / 24.0))
sparse = apply_sparsity(clean, frac=0.2, seed=7)
print(f"{int((~sparse.present).sum())} of {n} steps marked missing (exactly 20%)")

for kind in ("nearest_neighbor", "linear_interpolation", "historical_averaging", "neighbor_mean_or_zero"):
    filled = impute(sparse, kind)
    err = np.abs(filled.values - clean.values)[~sparse.present]
    print(f"  {kind:24s} mean fill error {err.mean():6.2f} kWh, max {err.max():6.2f}")

# tiny hand examples straight from the strategy definitions
demo = EnergySeries(hourly_range("2021-01-04T00", 3), np.array([2.0, np.nan, 4.0]), np.array([True, False, True]))
print("\n(2, missing, 4) linear interpolation ->", impute(demo, "linear_interpolation").values)

demo2 = EnergySeries(hourly_range("2021-01-04T00", 4), np.array([2.0, np.nan, np.nan, 8.0]),
                     np.array([True, False, False, True]))
print("(2, missing, missing, 8) nearest neighbor ->", impute(demo2, "nearest_neighbor").values)

# masks in assembled samples: scenario 4 zeroes the data-driven stream
cfg4 = scenario_config(4, seed=1, fast=True)
dl = EnergySeries.full(ts, np.full(n, 90.0))
samples = assemble_samples(dl, clean, clean, cfg4)  # a SampleBatch: one array per column
print(f"\nscenario 4 sample: dl={samples.dl[0]} (mask {samples.dl_mask[0]}), ep={samples.ep[0]:.1f} (mask {samples.ep_mask[0]})")

# scenario 3: no actuals, so the physics value is the target, marked unobserved
cfg3 = scenario_config(3, seed=1, fast=True)
samples3 = assemble_samples(None, clean, clean, cfg3)
print(f"scenario 3 sample: target={samples3.target[0]:.1f} (observed={samples3.observed[0]})")
