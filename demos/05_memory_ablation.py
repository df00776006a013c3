#!/usr/bin/env python3
# The memory ablation: train the full model and the variant without the
# memory vector on the identical fixture, then look at samplewise signed
# errors the way the side-by-side table reports them.

from fusecast.harness import run_ablation_mu, scenario_config

report = run_ablation_mu(scenario_config(1, seed=42, fast=True))

print("scenario-1 fixture, identical seeds and sample order for both variants\n")
print(f"{'method':>18} {'smape %':>9} {'mae':>8} {'rmse':>8} {'mean err':>9}")
for name in ("dl", "ep", "pgmn_with_mu", "pgmn_without_mu"):
    r = report.methods[name]
    print(f"{name:>18} {r.smape:9.3f} {r.mae:8.2f} {r.rmse:8.2f} {r.mean_error:+9.2f}")

print("\nfirst samplewise rows (prediction with signed error in parentheses):")
print(f"{'DL':>8} {'EP':>8} {'Actual':>8}  {'with memory':>18}  {'without memory':>18}")
preds = report.predictions
with_mu, without_mu = report.trainings["with_mu"].pgmn, report.trainings["without_mu"].pgmn
for dl, ep, actual, pw, po in list(zip(preds["dl"], preds["ep"], preds["actual"], with_mu, without_mu))[:8]:
    print(f"{dl:8.2f} {ep:8.2f} {actual:8.2f}  {pw:10.2f} ({pw - actual:+6.2f})  {po:10.2f} ({po - actual:+6.2f})")

print(f"\nmean |signed error| (the MAE): with memory {report.methods['pgmn_with_mu'].mae:.2f} kWh, "
      f"without {report.methods['pgmn_without_mu'].mae:.2f} kWh")
