"""Acceptance suite: every release criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The full-year harness runs
twice (once timed, once for the determinism comparison) through a shared
module fixture, so the whole suite stays within a few minutes.
"""

import csv
import time
from dataclasses import replace

import numpy as np
import pytest

from fusecast import model as M
from fusecast.harness import (
    DEFAULT_DIMS,
    DEFAULT_TRAIN,
    SEED_INIT,
    SEED_SPARSITY,
    SEED_TRAIN,
    _Stages,
    build_fixture,
    run_ablation_imputation,
    run_all,
    scenario_config,
)
from fusecast.metrics import rmse, smape
from fusecast.numkit import finite_diff_grad
from fusecast.pipeline import (
    EnergySeries,
    SampleBatch,
    SplitSpec,
    apply_sparsity,
    hourly_range,
    impute,
    split_samples,
)

MASTER_SEED = 42


def _params_of(dims, arrays):
    """The FusionParams holding ``arrays`` in ``flatten`` order."""
    p = M.FusionParams(dims)
    for view, a in zip(p.flatten(), arrays, strict=True):
        view[...] = a
    return p


def _batch(dl, ep, target, dl_mask=1, ep_mask=1):
    """Samples as a SampleBatch; a scalar mask applies to every row."""
    n = len(dl)
    return SampleBatch(dl, np.broadcast_to(dl_mask, n), ep, np.broadcast_to(ep_mask, n), target)


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {state}{suffix}")


@pytest.fixture(scope="module")
def suite_runs(tmp_path_factory):
    """Two identical full-year harness runs: (first out dir, second out dir,
    first run wall seconds)."""
    root = tmp_path_factory.mktemp("acceptance")
    out1, out2 = root / "run1", root / "run2"
    t0 = time.perf_counter()
    assert run_all(out1, seed=MASTER_SEED, fast=False) == 0
    elapsed = time.perf_counter() - t0
    assert run_all(out2, seed=MASTER_SEED, fast=False) == 0
    return out1, out2, elapsed


def _read_scenario_table(out_dir):
    table = {}
    with open(out_dir / "scenario_table.csv", newline="") as f:
        for row in csv.DictReader(f):
            table[(int(row["scenario"]), row["method"])] = {
                k: float(v) for k, v in row.items() if k not in ("scenario", "method")
            }
    return table


def test_criterion_1_gradient_exactness():
    """Analytic gradients match central differences (h=1e-5) to 1e-5 relative
    / 1e-8 absolute over >= 200 random configurations, within 30 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    configs = 0
    entries = 0
    worst = 0.0
    while configs < 200:
        dims = M.FusionDims(*(int(rng.integers(1, 9)) for _ in range(3)))
        p0 = M.init_params(dims, int(rng.integers(1 << 30)))
        sample = None
        params = None
        for _ in range(80):
            arrays = [a + 0.3 * rng.standard_normal(a.shape) for a in p0.flatten()]
            cand = _params_of(dims, arrays)
            # one row, drawn in the order dl, dl_mask, ep, ep_mask, target
            dl, dl_mask = rng.normal(), rng.integers(0, 2)
            ep, ep_mask = rng.normal(), rng.integers(0, 2)
            s = _batch([dl], [ep], [rng.normal()], dl_mask, ep_mask)
            ws = M._Workspace(dims, 1)
            M._batch_forward(M._fill_inputs(s, ws.x), cand, ws)
            # the workspace keeps each layer's ReLU; the pre-activations
            # are recomputed from the layers' inputs before the backward
            # pass overwrites the embedding with a gradient
            a_h = np.matmul(ws.x[:, :1], cand.w.transpose(0, 2, 1)) + cand.b[:, None]
            a_z = np.matmul(ws.a_h, cand.w_hid[..., :dims.embed_dim].transpose(0, 2, 1)) + ws.zb[:, None]
            if np.all(np.abs(a_h) > 1e-3) and np.all(np.abs(a_z) > 1e-3):
                sample, params = s, cand
                break
        if sample is None:
            continue
        grads = M.FusionParams(dims)
        M._batch_backward(ws.x, sample.target, params, ws, grads)

        def loss(arrays):
            return float((sample.target[0] - M.predict(sample, _params_of(dims, arrays))[0]) ** 2)

        numeric = finite_diff_grad(loss, params.flatten(), 1e-5)
        for a, n in zip(grads.flatten(), numeric):
            a = np.asarray(a)
            tol = 1e-8 + 1e-5 * np.maximum(np.abs(a), np.abs(n))
            assert np.all(np.abs(a - n) <= tol)
            entries += a.size
            worst = max(worst, float(np.max(np.abs(a - n) / np.maximum(np.abs(n), 1e-8))))
        configs += 1
    elapsed = time.perf_counter() - t0
    ok = configs >= 200 and elapsed < 30.0
    _verdict(1, "gradient exactness", ok, f"{configs} configs, {entries} entries, worst rel {worst:.2e}, {elapsed:.1f}s")
    assert ok


def _constant_bias_fixture(master=MASTER_SEED, n=900, bias_kwh=50.0):
    """Both forecast streams under-predict the actual by a constant bias.

    Inputs and targets share one fixed scale (kWh/100) so the offset must be
    absorbed by the network, not by per-channel normalization.
    """
    rng = np.random.default_rng(master)
    x_kwh = 120.0 + 80.0 * rng.random(n)
    scale = 100.0
    return _batch(x_kwh / scale, x_kwh / scale, (x_kwh + bias_kwh) / scale), scale


def _train_variant(samples, scale, memory_enabled, master=MASTER_SEED):
    train_s, val_s, test_s = split_samples(samples, SplitSpec())
    dims = replace(DEFAULT_DIMS, memory_enabled=memory_enabled)
    params = M.init_params(dims, master + SEED_INIT)
    cfg = replace(DEFAULT_TRAIN, seed=master + SEED_TRAIN)
    params, _ = M.train(train_s, params, cfg, val_s)
    preds = M.predict(test_s, params) * scale
    actual = test_s.target * scale
    return float(np.mean(actual - preds)), preds, actual


def test_criterion_2_bias_correction():
    """Constant 50 kWh under-prediction: trained model reaches |mean error|
    < 5 kWh on test and the memory-ablated variant is strictly worse."""
    t0 = time.perf_counter()
    samples, scale = _constant_bias_fixture()
    me_with, _, _ = _train_variant(samples, scale, memory_enabled=True)
    me_without, _, _ = _train_variant(samples, scale, memory_enabled=False)
    elapsed = time.perf_counter() - t0
    ok = abs(me_with) < 5.0 and abs(me_without) > abs(me_with) and elapsed < 60.0
    _verdict(
        2, "memory bias correction",
        ok, f"|me| with={abs(me_with):.4f} kWh, without={abs(me_without):.4f} kWh, {elapsed:.1f}s",
    )
    assert abs(me_with) < 5.0
    assert abs(me_without) > abs(me_with)
    assert elapsed < 60.0


def test_criterion_3_unbounded_output():
    """Targets at 1.5 * max(inputs) + 10: trained predictions exceed
    max(x_dl, x_ep) on at least 95% of test samples."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(MASTER_SEED)
    n = 900
    xd = 80.0 + 120.0 * rng.random(n)
    xe = 80.0 + 120.0 * rng.random(n)
    y = 1.5 * np.maximum(xd, xe) + 10.0
    scale = 100.0
    train_s, val_s, test_s = split_samples(_batch(xd / scale, xe / scale, y / scale), SplitSpec())
    params = M.init_params(DEFAULT_DIMS, MASTER_SEED + SEED_INIT)
    cfg = M.TrainConfig(eta=3e-3, max_epochs=300, batch_size=64,
                        early_stop_patience=20, seed=MASTER_SEED + SEED_TRAIN)
    params, _ = M.train(train_s, params, cfg, val_s)
    preds = M.predict(test_s, params) * scale
    caps = np.maximum(test_s.dl, test_s.ep) * scale
    frac = float(np.mean(preds > caps))
    elapsed = time.perf_counter() - t0
    ok = frac >= 0.95 and elapsed < 60.0
    _verdict(3, "unbounded output", ok, f"exceeds both inputs on {frac:.1%} of test, {elapsed:.1f}s")
    assert frac >= 0.95
    assert elapsed < 60.0


def test_criterion_4_function_approximation():
    """Width-64 model fits sin(3 x_dl) + 0.5 x_ep^2 on a 2000-point grid of
    [-1,1]^2 to train MSE < 1e-3 within 2000 epochs.  The grid is also the
    validation split; patience equals max_epochs, so all 400 epochs run."""
    t0 = time.perf_counter()
    g1 = np.linspace(-1.0, 1.0, 50)
    g2 = np.linspace(-1.0, 1.0, 40)
    xx, yy = np.meshgrid(g1, g2)
    xd, xe = xx.ravel(), yy.ravel()
    target = np.sin(3.0 * xd) + 0.5 * xe**2
    params = M.init_params(M.FusionDims(64, 64, 64), MASTER_SEED + SEED_INIT)
    cfg = M.TrainConfig(eta=3e-3, max_epochs=400, batch_size=64,
                        early_stop_patience=400, seed=MASTER_SEED + SEED_TRAIN)
    grid = _batch(xd, xe, target)
    params, history = M.train(grid, params, cfg, grid)
    train_losses = [tr for tr, _ in history]
    best = min(train_losses)
    first_hit = next((i for i, v in enumerate(train_losses) if v < 1e-3), None)
    elapsed = time.perf_counter() - t0
    ok = best < 1e-3 and len(history) <= 2000
    _verdict(4, "universal approximation smoke", ok,
             f"best train MSE {best:.2e}, first hit at epoch {first_hit}, {elapsed:.1f}s")
    assert ok


def test_criterion_5_scenario_directional_ordering(suite_runs):
    """Default synthetic year: scenario 1 within 0.5 pp of the best input
    source, scenarios 3/4 strictly below the physics source, scenario 5
    within 0.5 pp of the data-driven source."""
    out1, _, _ = suite_runs
    t = _read_scenario_table(out1)
    s1 = t[(1, "pgmn")]["smape"] <= min(t[(1, "dl")]["smape"], t[(1, "ep")]["smape"]) + 0.5
    s3 = t[(3, "pgmn")]["smape"] < t[(3, "ep")]["smape"]
    s4 = t[(4, "pgmn")]["smape"] < t[(4, "ep")]["smape"]
    s5 = t[(5, "pgmn")]["smape"] <= t[(5, "dl")]["smape"] + 0.5
    detail = (
        f"s1 {t[(1, 'pgmn')]['smape']:.3f} vs min({t[(1, 'dl')]['smape']:.3f}, {t[(1, 'ep')]['smape']:.3f}); "
        f"s3 {t[(3, 'pgmn')]['smape']:.3f} vs {t[(3, 'ep')]['smape']:.3f}; "
        f"s4 {t[(4, 'pgmn')]['smape']:.3f} vs {t[(4, 'ep')]['smape']:.3f}; "
        f"s5 {t[(5, 'pgmn')]['smape']:.3f} vs {t[(5, 'dl')]['smape']:.3f}"
    )
    ok = s1 and s3 and s4 and s5
    _verdict(5, "scenario directional ordering", ok, detail)
    assert s1, "scenario 1 exceeds min(baseline, physics) + 0.5 pp"
    assert s3, "scenario 3 not strictly below the physics source"
    assert s4, "scenario 4 not strictly below the physics source"
    assert s5, "scenario 5 exceeds baseline + 0.5 pp"


def test_criterion_6_metric_oracles():
    """Hand-derived metric values exact; SMAPE bounded on 1e5 fuzzed pairs."""
    ok_smape = abs(smape([100.0], [50.0]) - 200.0 / 3.0) < 1e-9
    ok_rmse = abs(rmse([0.0, 0.0], [3.0, -1.0]) - np.sqrt(5.0)) < 1e-12

    rng = np.random.default_rng(MASTER_SEED)
    n = 100_000
    y = rng.standard_normal(n) * np.exp(rng.uniform(-12, 12, n))
    yhat = rng.standard_normal(n) * np.exp(rng.uniform(-12, 12, n))
    zero_idx = rng.choice(n, size=n // 50, replace=False)
    y[zero_idx[: len(zero_idx) // 2]] = 0.0
    yhat[zero_idx[len(zero_idx) // 2 :]] = 0.0
    whole = smape(y, yhat)
    ok_bound = 0.0 <= whole <= 200.0
    for start in range(0, n, 5000):
        v = smape(y[start : start + 5000], yhat[start : start + 5000])
        ok_bound = ok_bound and 0.0 <= v <= 200.0
    singles = [smape(y[i : i + 1], yhat[i : i + 1]) for i in range(0, n, 97)]
    ok_bound = ok_bound and all(0.0 <= v <= 200.0 for v in singles)

    ok = ok_smape and ok_rmse and ok_bound
    _verdict(6, "metric oracles", ok, f"smape(100,50)={smape([100.0], [50.0])!r}, fuzz n={n}")
    assert ok


def test_criterion_7_imputation_properties():
    """Linear interpolation reconstructs affine series exactly; strategies
    are idempotent; the scenario-2 ablation derives three rows from one
    missing-index set."""
    n = 24 * 14
    ts = hourly_range("2021-01-04T00", n)
    affine_vals = 2.5 * np.arange(n) + 7.0
    rng = np.random.default_rng(MASTER_SEED)
    present = rng.random(n) > 0.35
    present[[0, n - 1]] = True
    gappy = EnergySeries(ts, np.where(present, affine_vals, np.nan), present)
    lin = impute(gappy, "linear_interpolation")
    ok_exact = np.allclose(lin.values, affine_vals, rtol=1e-12, atol=1e-12)

    ok_idem = True
    for kind in ("nearest_neighbor", "linear_interpolation", "historical_averaging"):
        once = impute(gappy, kind)
        twice = impute(once, kind)
        ok_idem = ok_idem and np.array_equal(once.values, twice.values)

    cfg = scenario_config(2, seed=MASTER_SEED, fast=True)
    report = run_ablation_imputation(cfg)
    ok_rows = len(report.methods) == 3
    # each fill matches the actuals exactly where the mask, redrawn as the
    # harness draws it, kept them
    year = _Stages().world(cfg.seed, cfg.year_hours).truth
    kept = apply_sparsity(year, cfg.sparse_frac, cfg.seed + SEED_SPARSITY).present[24:]
    fixtures = [
        build_fixture(replace(cfg, imputation=s))
        for s in ("nearest_neighbor", "historical_averaging", "linear_interpolation")
    ]
    masks = [f.label_truth.values == f.truth.values for f in fixtures]
    ok_masks = all(np.array_equal(m, kept) for m in masks)
    sparse_a = apply_sparsity(EnergySeries.full(ts, affine_vals), 0.2, MASTER_SEED + SEED_SPARSITY)
    sparse_b = apply_sparsity(EnergySeries.full(ts, affine_vals), 0.2, MASTER_SEED + SEED_SPARSITY)
    ok_masks = ok_masks and np.array_equal(sparse_a.present, sparse_b.present)

    ok = ok_exact and ok_idem and ok_rows and ok_masks
    _verdict(7, "imputation properties", ok,
             f"affine exact={ok_exact}, idempotent={ok_idem}, rows={len(report.methods)}, shared masks={ok_masks}")
    assert ok


def test_criterion_8_determinism(suite_runs, tmp_path):
    """Identical seeds produce bit-identical CSVs and checkpoints; checkpoint
    save/load round-trips bit-exactly."""
    out1, out2, _ = suite_runs
    mismatched = []
    for path in sorted(out1.glob("*.csv")) + sorted((out1 / "checkpoints").glob("*.ckpt")):
        twin = out2 / path.relative_to(out1)
        if path.read_bytes() != twin.read_bytes():
            mismatched.append(path.name)

    params, norm = M.load_checkpoint(out1 / "checkpoints" / "scenario1.ckpt")
    resaved = tmp_path / "resaved.ckpt"
    M.save_checkpoint(resaved, params, norm)
    roundtrip_ok = resaved.read_bytes() == (out1 / "checkpoints" / "scenario1.ckpt").read_bytes()

    ok = not mismatched and roundtrip_ok
    _verdict(8, "determinism", ok,
             f"compared {len(list(out1.glob('*.csv')))} CSVs + 10 checkpoints, round-trip={'ok' if roundtrip_ok else 'broken'}")
    assert not mismatched, f"outputs differ between identical runs: {mismatched}"
    assert roundtrip_ok


def test_criterion_9_runtime_budget(suite_runs):
    """The full-year harness finishes in under 5 minutes."""
    _, _, elapsed = suite_runs
    ok = elapsed < 300.0
    _verdict(9, "runtime budget", ok, f"full suite {elapsed:.1f}s < 300s")
    assert ok
