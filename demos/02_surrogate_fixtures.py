#!/usr/bin/env python3
# The synthetic fixture stack: seeded weather -> RC building physics ->
# biased ground truth, plus the calibration-style comparison between the
# physics trace and the actuals it is meant to track.  The seeds and truth
# constants are the harness's, so this is the synthetic fixture of
# `fusecast all --fast --seed 42`.

import numpy as np

from fusecast import harness
from fusecast.metrics import cv_rmse, nmbe, smape
from fusecast.surrogates import (
    BuildingParams,
    default_occupancy,
    make_truth,
    make_weather,
    simulate_physics,
)

HOURS = harness.FAST_HOURS  # 90 synthetic days
SEED = harness.DEFAULT_SEED

weather = make_weather(HOURS, seed=SEED + harness.SEED_WEATHER)
print(f"weather: {HOURS} hours, temp {weather.temp_c.min():.1f}..{weather.temp_c.max():.1f} C, "
      f"solar peak {weather.solar_w_per_m2.max():.0f} W/m2")

building = BuildingParams()
schedule = default_occupancy()
physics = simulate_physics(building, weather, schedule)
print(f"physics trace: mean {physics.values.mean():.1f} kWh/h, "
      f"range {physics.values.min():.1f}..{physics.values.max():.1f}")

# ground truth = physics + constant bias + weekly occupant behavior + noise
truth = make_truth(
    physics,
    bias=harness.DEFAULT_BIAS_KWH,
    noise_std=harness.DEFAULT_NOISE_STD_KWH,
    behavior_amp=harness.DEFAULT_BEHAVIOR_AMP_KWH,
    seed=SEED + harness.SEED_TRUTH,
)
gap = truth.values - physics.values
print(f"truth - physics: mean {gap.mean():.2f} kWh "
      f"(the injected {harness.DEFAULT_BIAS_KWH:.0f} kWh bias dominates)")

# calibration-style report: how far is the physics model from the actuals?
print("\nphysics vs actuals over the whole fixture:")
print(f"  NMBE    {nmbe(truth.values, physics.values):7.2f} %")
print(f"  CV-RMSE {cv_rmse(truth.values, physics.values):7.2f} %")
print(f"  SMAPE   {smape(truth.values, physics.values):7.2f} %")

# doubling the envelope conductance raises heating energy on cold hours
leakier = BuildingParams(ua_w_per_k=2 * building.ua_w_per_k)
physics2 = simulate_physics(leakier, weather, schedule)
cold = weather.temp_c < 0
print(f"\ndoubled UA on {int(cold.sum())} sub-zero hours: "
      f"energy rises by {float((physics2.values - physics.values)[cold].mean()):.1f} kWh/h on average")
