import json
import math
import multiprocessing
import re
import shutil
import subprocess
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fusecast
from fusecast import cli, harness, model, pipeline
from fusecast.cli import main as cli_main
from fusecast.harness import (
    SCENARIO_METHODS,
    ConfigError,
    ScenarioConfig,
    build_fixture,
    load_scenario_config,
    run_ablation_imputation,
    run_ablation_mu,
    run_all,
    run_scenario,
    scenario_config,
)
from fusecast.model import TrainConfig, load_checkpoint
from fusecast.pipeline import IMPUTATION_KINDS, SplitSpec, apply_sparsity
from fusecast.surrogates import BuildingParams, load_building_params

TINY = 24 * 30  # 30-day fixture keeps the harness tests quick


def tiny_config(sid, seed=42, **overrides):
    train = TrainConfig(eta=3e-3, max_epochs=40, batch_size=64, early_stop_patience=10)
    overrides.setdefault("year_hours", TINY)
    overrides.setdefault("train", train)
    return scenario_config(sid, seed=seed, **overrides)


def sparsity_mask(cfg):
    """Scenario 2's sparsity mask over the whole year, redrawn from the
    world's truth as the harness draws it: True where an actual is kept."""
    truth = harness._Stages().world(cfg.seed, cfg.year_hours).truth
    return apply_sparsity(truth, cfg.sparse_frac, cfg.seed + harness.SEED_SPARSITY).present


class TestScenarioConfig:
    def test_presets_match_id_invariants(self):
        for sid, methods in SCENARIO_METHODS.items():
            cfg = scenario_config(sid)
            assert cfg.id == sid
            assert ("dl" in methods) == cfg.dl_available
            assert ("ep" in methods) == cfg.ep_available
        assert scenario_config(2).truth_mode == "sparse"
        assert scenario_config(3).truth_mode == "absent"

    @pytest.mark.parametrize("seed", [0, 7, 8, 42, 1000])
    def test_default_training_derives_from_the_master_seed(self, seed):
        # ScenarioConfig(1, seed=7) used to train with TrainConfig(): seed
        # 0 whatever the master seed, 2,000 full-batch epochs; and
        # replace(scenario_config(1, seed=7), seed=8) kept seed 7's shuffle
        # seed, 62, where scenario_config(1, seed=8) has 63
        for sid in (1, 2, 5):
            cfg = ScenarioConfig(sid, seed=seed)
            assert cfg == scenario_config(sid, seed=seed) == replace(scenario_config(sid, seed=7), seed=seed)
            assert cfg.train.seed == seed + harness.SEED_TRAIN and cfg.train.batch_size == 128
        assert replace(ScenarioConfig(3, seed=seed), id=4) == scenario_config(4, seed=seed)
        # a given training's own seed is replaced too
        assert ScenarioConfig(1, seed=seed, train=TrainConfig(seed=5)).train == TrainConfig(seed=seed + harness.SEED_TRAIN)

    def test_id_inconsistent_flags_rejected(self, tmp_path):
        # the streams and the truth mode follow from the id: they are
        # read-only properties, not settable fields or file keys
        for name, value in (("dl_available", False), ("ep_available", True), ("truth_mode", "full")):
            with pytest.raises(TypeError, match=name):
                ScenarioConfig(id=1, **{name: value})
            path = tmp_path / "scenario.cfg"
            path.write_text(f"id = 3\n{name} = {value}\n")
            with pytest.raises(ConfigError, match=rf"scenario\.cfg:2: unknown key '{name}'"):
                load_scenario_config(path)
        with pytest.raises(ConfigError):
            scenario_config(6)

    def test_unknown_imputation_rejected(self):
        with pytest.raises(ConfigError, match="imputation must be one of nearest_neighbor, .*, got 'bogus'"):
            ScenarioConfig(id=2, imputation="bogus")
        # the neighbour mean fills forecast gaps only; it is not a strategy
        with pytest.raises(ConfigError, match="got 'neighbor_mean_or_zero'"):
            ScenarioConfig(id=2, imputation="neighbor_mean_or_zero")
        for kind in IMPUTATION_KINDS:
            assert ScenarioConfig(id=2, imputation=kind).imputation == kind

    def test_split_with_too_few_rows_rejected(self):
        # the fast fixture has 2,136 rows after the first day's lag window
        tiny = SplitSpec(0.001, 0.001, 0.998)  # 2 training rows
        for sid in (1, 2, 5):  # these fit the baseline, which needs 8 rows
            with pytest.raises(ConfigError, match="the split leaves 2 training rows of 2136; need at least 8"):
                scenario_config(sid, fast=True, split=tiny)
            assert scenario_config(sid, fast=True, split=SplitSpec(0.004, 0.496, 0.5)).split.boundaries(2136)[0] == 8
        for sid in (3, 4):  # no baseline: one row trains the fusion
            assert scenario_config(sid, fast=True, split=tiny).split == tiny
            with pytest.raises(ConfigError, match="the split leaves 0 training rows of 2136; need at least 1"):
                scenario_config(sid, fast=True, split=SplitSpec(1e-4, 0.5 - 1e-4, 0.5))
        with pytest.raises(ConfigError, match="the split leaves no test rows of 2136"):
            scenario_config(4, fast=True, split=SplitSpec(0.6, 0.4, 1e-10))

    def test_split_with_no_validation_rows_rejected(self):
        # such a split used to train to max_epochs with no epoch validated and
        # report best epoch 0 for the last epoch's parameters
        no_val = SplitSpec(0.6, 0.00001, 0.39999)
        for sid in (1, 3):
            with pytest.raises(ConfigError, match="the split leaves no validation rows of 2136"):
                scenario_config(sid, fast=True, split=no_val)
        with pytest.raises(ConfigError, match="the split leaves no validation rows of 8736"):
            scenario_config(1, split=no_val)
        assert scenario_config(1, fast=True, split=SplitSpec(0.6, 0.0005, 0.3995)).split.boundaries(2136) == (1281, 1282)

    @pytest.mark.parametrize("value", [True, 1.0, "1", None])
    def test_id_that_is_not_an_integer_rejected(self, value):
        # id=True used to build scenario 1 as "train_scenarioTrue"
        with pytest.raises(ConfigError, match=rf"scenario id must be an integer in 1\.\.5, got {value!r}"):
            ScenarioConfig(id=value)

    def test_numpy_integer_id_accepted(self):
        assert scenario_config(np.int64(2)).id == 2

    @pytest.mark.parametrize("value", ["0.2", True, False, None])
    def test_sparse_frac_that_is_not_a_real_number_rejected(self, value):
        with pytest.raises(ConfigError, match=rf"sparse_frac must lie in \[0, 1\), got {value!r}"):
            ScenarioConfig(id=2, sparse_frac=value)

    def test_fast_flag_shrinks_fixture(self):
        assert scenario_config(1, fast=True).year_hours == 2160
        assert scenario_config(1, fast=False).year_hours == 8760

    @pytest.mark.parametrize("seed", [-1, -30, 1.5, True, "7", None])
    def test_bad_master_seed_rejected(self, seed):
        with pytest.raises(ConfigError, match="master seed must be a non-negative integer"):
            scenario_config(1, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        assert scenario_config(1, seed=np.int64(0)).seed == 0

    @pytest.mark.parametrize("value", [2, "no", None])
    def test_memory_flag_that_is_not_a_bool_rejected(self, value):
        with pytest.raises(ConfigError, match="memory_unit_enabled must be a bool"):
            scenario_config(1, memory_unit_enabled=value)

    @pytest.mark.parametrize("value", [1000.5, 2160.0, "2160", True])
    def test_year_hours_that_is_not_an_integer_rejected(self, value):
        with pytest.raises(ConfigError, match="year_hours must be an integer"):
            scenario_config(1, year_hours=value)
        assert scenario_config(1, year_hours=np.int64(2160)).year_hours == 2160

    @pytest.mark.parametrize(
        "name,kind,value",
        [("train", "TrainConfig", v) for v in ("x", None, SplitSpec())]
        + [("split", "SplitSpec", v) for v in ("x", None, TrainConfig())],
    )
    def test_train_or_split_of_another_type_rejected(self, name, kind, value):
        # train="x" used to pass and fail the run later as "'str' object
        # has no attribute 'eta'"; split="x" raised an AttributeError
        with pytest.raises(ConfigError, match=f"^{name} must be a {kind}, got {re.escape(repr(value))}$"):
            scenario_config(4, fast=True, **{name: value})


class TestRunScenario:
    def test_scenario1_reports_three_methods(self):
        report = run_scenario(tiny_config(1))
        assert set(report.methods) == {"dl", "ep", "pgmn"}

    def test_scenario3_reports_two_methods(self):
        report = run_scenario(tiny_config(3))
        assert set(report.methods) == {"ep", "pgmn"}
        assert report.predictions["dl"] is None

    def test_identical_config_identical_metrics(self):
        a = run_scenario(tiny_config(4))
        b = run_scenario(tiny_config(4))
        for m in a.methods:
            assert a.methods[m] == b.methods[m]
        assert np.array_equal(a.predictions["pgmn"], b.predictions["pgmn"])

    def test_methods_share_the_test_index_set(self):
        report = run_scenario(tiny_config(1))
        n = len(report.predictions["actual"])
        assert all(report.methods[m].n == n for m in report.methods)
        i_train, i_val = SplitSpec().boundaries(TINY - 24)
        assert n == TINY - 24 - i_val

    def test_scenario2_trains_on_imputed_sparse_targets(self):
        cfg = tiny_config(2)
        report = run_scenario(cfg)
        kept = sparsity_mask(cfg)[24:]
        missing = int((~kept).sum())
        total = round(0.2 * TINY)
        # aligned fixture drops the first 24 hours, so up to 24 gaps fall away
        assert total - 24 <= missing <= total
        # the targets are the fill: the actuals where the mask kept them,
        # a filled value at every gap
        fixture = report.fixture
        assert fixture.label_truth.present.all()
        assert np.array_equal(fixture.label_truth.values == fixture.truth.values, kept)
        # evaluation is against the unsparsified actuals
        assert np.all(np.isfinite(report.predictions["actual"]))


class TestNoLeakage:
    def test_norm_stats_blind_to_validation_and_test_targets(self):
        # perturbing actuals at or beyond the validation boundary must leave
        # the fitted normalization statistics untouched
        from fusecast.harness import _train_on_fixture

        cfg = tiny_config(1)
        fixture = build_fixture(cfg)
        stats_a = _train_on_fixture(cfg, fixture).norm

        i_train, _ = cfg.split.boundaries(fixture.truth.n)
        tampered = build_fixture(cfg)
        # in scenario 1 truth and label_truth view one array, the world's
        # truth, so tampering it once reaches both
        assert np.shares_memory(tampered.truth.values, tampered.label_truth.values)
        tampered.truth.values[i_train:] += 500.0
        stats_b = _train_on_fixture(cfg, tampered).norm
        assert stats_a == stats_b


class TestFixtureViews:
    @pytest.mark.parametrize("sid", [1, 2, 3])
    def test_fixture_series_view_the_year(self, sid):
        # a fixture holds views, not copies, so the pool's queued trainings
        # keep no extra copy of the year alive
        cfg = tiny_config(sid)
        stages = harness._Stages()
        fixture = stages.fixture(cfg)
        world = stages.world(cfg.seed, cfg.year_hours)
        label_truth = stages.labels(cfg)
        assert np.shares_memory(fixture.timestamps, world.truth.timestamps)
        for part, whole in ((fixture.truth, world.truth), (fixture.physics, world.physics), (fixture.label_truth, label_truth)):
            for name in ("timestamps", "values", "present"):
                assert np.shares_memory(getattr(part, name), getattr(whole, name)), name
        # only scenario 2's label truth is a series of its own: the filled truth
        shared = np.shares_memory(fixture.label_truth.values, world.truth.values)
        assert shared is (cfg.truth_mode != "sparse")


class TestAblations:
    def test_mu_requires_scenario1(self):
        with pytest.raises(ConfigError):
            run_ablation_mu(tiny_config(2))

    def test_mu_reports_both_variants_on_same_samples(self, tmp_path):
        report = run_ablation_mu(tiny_config(1))
        assert set(report.methods) == {"dl", "ep", "pgmn_with_mu", "pgmn_without_mu"}
        ns = {report.methods[m].n for m in report.methods}
        assert len(ns) == 1
        preds = report.predictions
        with_mu, without_mu = report.trainings["with_mu"].pgmn, report.trainings["without_mu"].pgmn
        assert np.array_equal(preds["pgmn"], with_mu)
        harness._write_ablation_mu(tmp_path, report)
        rows = (tmp_path / "ablation_mu.csv").read_text().splitlines()
        assert len(rows) == 1 + report.methods["dl"].n + 1
        # signed error columns are prediction - actual
        for i, row in enumerate(rows[1:-1]):
            actual = preds["actual"][i]
            cells = [f"{preds[k][i]:.2f}" for k in ("dl", "ep", "actual")]
            cells += [f"{yhat[i]:.2f} ({yhat[i] - actual:+.2f})" for yhat in (with_mu, without_mu)]
            assert row == ",".join(cells)
        # the mean |signed error| of the last row is each variant's MAE
        maes = [report.methods[m].mae for m in ("pgmn_with_mu", "pgmn_without_mu")]
        assert maes == [np.mean(np.abs(yhat - preds["actual"])) for yhat in (with_mu, without_mu)]
        assert rows[-1] == f"Mean Error,,,{maes[0]:.2f},{maes[1]:.2f}"

    def test_standalone_runs_stamp_no_version(self, monkeypatch):
        # only run_all writes a version stamp (into run_summary.json)
        calls = []
        monkeypatch.setattr(harness, "version_stamp", lambda: calls.append(1) or "fusecast test")
        run_scenario(tiny_config(1))
        run_ablation_mu(tiny_config(1))
        assert calls == []

    def test_imputation_requires_scenario2(self):
        with pytest.raises(ConfigError):
            run_ablation_imputation(tiny_config(1))

    def test_imputation_three_rows_identical_missing_sets(self):
        # each strategy's fill keeps the actuals exactly where the one mask
        # kept them, so the hours where it matches the truth give the mask back
        cfg = tiny_config(2)
        report = run_ablation_imputation(cfg)
        assert set(report.methods) == set(IMPUTATION_KINDS)
        masks = []
        for strategy in IMPUTATION_KINDS:
            fixture = build_fixture(replace(cfg, imputation=strategy))
            masks.append(fixture.label_truth.values == fixture.truth.values)
        assert np.array_equal(masks[0], masks[1])
        assert np.array_equal(masks[1], masks[2])
        assert np.array_equal(masks[2], sparsity_mask(cfg)[24:])

    @pytest.mark.parametrize("strategy", IMPUTATION_KINDS)
    def test_scenario2_trains_on_the_fill_the_baseline_lags_on(self, strategy):
        # the sparse actuals are filled once: the fusion targets are the
        # baseline's lag source from hour 24 on, byte for byte
        cfg = tiny_config(2, imputation=strategy)
        stages = harness._Stages()
        fixture = stages.fixture(cfg)
        name, cache, key, fn, (_, lag_source, _) = stages._fit_job(cfg)
        assert (name, cache, key, fn) == (f"fit_sparse_{strategy}", stages._dl, stages._dl_key(cfg), harness._fit_dl)
        assert fixture.label_truth.values.tobytes() == lag_source.values[24:].tobytes()
        assert fixture.label_truth.present.all()
        kept = sparsity_mask(cfg)
        truth = stages.world(cfg.seed, cfg.year_hours).truth
        assert lag_source.values[kept].tobytes() == truth.values[kept].tobytes()


# The harness names behind the expensive stages, counted per run_all call.
_COUNTED = ("train", "train_baseline_forecaster", "make_weather", "simulate_physics", "make_truth", "version_stamp", "impute")


@pytest.fixture(scope="module")
def counted_runs(tmp_path_factory):
    """run_all(seed 7, fast) twice in one process on the in-process path,
    counting the calls each run makes to the names in _COUNTED, to
    ``impute`` in ``pipeline`` as well (one count with the harness's) and
    to the fusion model's ``adam_step``; returns (first out dir, [(exit code,
    counts) per run], [fusion updates per run])."""
    root = tmp_path_factory.mktemp("runall")
    calls: dict[str, int] = {}
    runs, fusion_updates = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "usable_cpus", lambda: 1)
        for module, name in [(harness, name) for name in _COUNTED] + [(pipeline, "impute"), (model, "adam_step")]:
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            mp.setattr(module, name, counted)
        for run in ("out", "again"):
            calls.clear()
            code = run_all(root / run, seed=7, fast=True)
            fusion_updates.append(calls.pop("adam_step"))
            runs.append((code, dict(calls)))
    return root / "out", runs, fusion_updates


@pytest.fixture(scope="module")
def runall_out(counted_runs):
    out, runs, _ = counted_runs
    return out, runs[0][0]


class TestRunAll:
    def test_inventory_and_structure(self, runall_out):
        out, code = runall_out
        assert code == 0
        names = {p.name for p in out.iterdir() if p.is_file()}
        assert names == {
            "scenario_table.csv", "ablation_mu.csv", "ablation_mu_metrics.csv",
            "ablation_imputation.csv", "calibration.csv", "train_history.csv",
            "run_summary.json",
            "predictions_scenario1.csv", "predictions_scenario2.csv",
            "predictions_scenario3.csv", "predictions_scenario4.csv",
            "predictions_scenario5.csv",
        }
        report_files = {n for n in names if not n.startswith("predictions_")}
        assert len(report_files) == 7
        ckpts = {p.name for p in (out / "checkpoints").iterdir()}
        assert len(ckpts) == 10

        rows = (out / "scenario_table.csv").read_text().strip().splitlines()
        assert rows[0] == "scenario,method,n,mae,rmse,smape,nmbe,cv_rmse,mean_error"
        assert len(rows) == 1 + 12  # 3+3+2+2+2 method rows
        inventory = [tuple(r.split(",")[:2]) for r in rows[1:]]
        expected = [(str(sid), m) for sid in (1, 2, 3, 4, 5) for m in SCENARIO_METHODS[sid]]
        assert inventory == expected

        mu_rows = (out / "ablation_mu.csv").read_text().strip().splitlines()
        assert mu_rows[0] == "DL,EP,Actual Energy,PgMN (With MU),PgMN (Without MU)"
        assert mu_rows[-1].startswith("Mean Error,,,")

        imp_rows = (out / "ablation_imputation.csv").read_text().strip().splitlines()
        assert len(imp_rows) == 4

        preds = (out / "predictions_scenario4.csv").read_text().splitlines()
        assert preds[0] == "timestamp,actual,dl,ep,pgmn"
        assert preds[1].split(",")[2] == ""  # no dl method in scenario 4

        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["seed"] == 7
        assert set(summary["scenarios"]) == {"1", "2", "3", "4", "5"}

        params, norm = load_checkpoint(out / "checkpoints" / "scenario1.ckpt")
        assert params.dims.memory_enabled
        assert norm is not None

    def test_checkpointed_ablation_variant_has_no_memory(self, runall_out):
        out, _ = runall_out
        params, _ = load_checkpoint(out / "checkpoints" / "ablation_mu_without.ckpt")
        assert params.dims.memory_enabled is False
        assert params.memory.shape == (0,)

    def test_each_stage_computed_once_per_run(self, counted_runs):
        # 5 scenarios + memory-less scenario 1 + nearest-neighbour and
        # historical-averaging scenario 2 = 8 trainings; one baseline fit per
        # lag source (full truth, and sparse truth under 3 imputations); one
        # fill per imputation, which the fit and the trainings share.  The
        # second run repeats every count, so nothing outlives a run.
        _, runs, _ = counted_runs
        expected = {
            "train": 8,
            "train_baseline_forecaster": 4,
            "make_weather": 1,
            "simulate_physics": 1,
            "make_truth": 1,
            "version_stamp": 1,
            "impute": 3,
        }
        assert runs == [(0, expected), (0, expected)]

    def test_ablations_reuse_scenario_trainings(self, runall_out, tmp_path):
        out, _ = runall_out
        ckpts = out / "checkpoints"
        assert (ckpts / "ablation_mu_with.ckpt").read_bytes() == (ckpts / "scenario1.ckpt").read_bytes()
        assert (
            (ckpts / "ablation_imputation_linear_interpolation.ckpt").read_bytes()
            == (ckpts / "scenario2.ckpt").read_bytes()
        )
        standalone = tmp_path / "ablations"
        for kind in ("mu", "imputation"):
            args = ["ablation", "--kind", kind, "--seed", "7", "--fast", "--out", str(standalone)]
            assert cli_main(args) == 0
        for name in ("ablation_mu.csv", "ablation_mu_metrics.csv", "ablation_imputation.csv"):
            assert (standalone / name).read_bytes() == (out / name).read_bytes(), name

    def test_summary_times_every_stage(self, runall_out):
        out, _ = runall_out
        summary = json.loads((out / "run_summary.json").read_text())
        assert list(summary["stages"]) == [
            "world", "jobs", "scenario1", "scenario2", "scenario3", "scenario4", "scenario5",
            "ablation_mu", "ablation_imputation",
        ]
        assert all(0.0 <= s <= summary["wall_seconds_total"] for s in summary["stages"].values())

    def test_summary_reports_own_peak_rss(self, runall_out):
        out, _ = runall_out
        peak = json.loads((out / "run_summary.json").read_text())["peak_rss_mb"]
        assert isinstance(peak, float) and peak > 0.0


    def test_summary_training_diagnostics(self, counted_runs):
        out, _, fusion_updates = counted_runs
        summary = json.loads((out / "run_summary.json").read_text())
        scenarios = {sid: summary["scenarios"][str(sid)]["training"] for sid in (1, 2, 3, 4, 5)}
        mu, imp = summary["ablation_mu"]["training"], summary["ablation_imputation"]["training"]
        # the ablations' reused trainings report what their scenarios report
        assert mu["with_mu"] == scenarios[1]
        assert imp["linear_interpolation"] == scenarios[2]
        distinct = [*scenarios.values(), mu["without_mu"], imp["nearest_neighbor"], imp["historical_averaging"]]
        assert sum(t["updates"] for t in distinct) == fusion_updates[0] == fusion_updates[1]

        history = {}
        for line in (out / "train_history.csv").read_text().splitlines()[1:]:
            sid, epoch, _, val = line.split(",")
            history.setdefault(int(sid), []).append(float(val))
        max_epochs = scenario_config(1, seed=7, fast=True).train.max_epochs
        for sid, t in scenarios.items():
            vals = history[sid]
            assert t["epochs"] == len(vals)
            assert t["best_epoch"] == vals.index(min(vals))
            assert t["stop_reason"] == ("early_stop" if len(vals) < max_epochs else "max_epochs")
            assert t["memory_norm"] > 0.0
        assert mu["without_mu"]["memory_norm"] == 0.0
        assert all(set(t) == {"epochs", "best_epoch", "stop_reason", "updates", "memory_norm"} for t in distinct)

    def test_training_summary_counts_updates_per_batch_mode(self):
        cfg = scenario_config(1, fast=True)
        params = model.init_params(harness.DEFAULT_DIMS, 0)
        params.memory[...] = np.linspace(-0.25, 0.25, params.memory.size)
        history = [(1.0, 3.0), (0.5, 2.0), (0.4, 2.0), (0.3, 2.5)]
        n_train, i_test = cfg.split.boundaries(1000)
        trained = harness.TrainedModel(params, None, history, np.zeros(1000 - i_test), n_train, i_test, cfg.train)
        t = trained.summary()
        assert t.pop("memory_norm") == pytest.approx(np.sqrt(np.sum(params.memory**2)), rel=1e-12)
        assert t == {
            "epochs": 4, "best_epoch": 1, "stop_reason": "early_stop",
            "updates": 4 * math.ceil(n_train / cfg.train.batch_size),
        }
        t = replace(trained, train=replace(cfg.train, batch_size=None, max_epochs=4)).summary()
        assert (t["updates"], t["stop_reason"]) == (4, "max_epochs")


_JOBS = {
    "fit_truth", "fit_sparse_linear_interpolation", "fit_sparse_nearest_neighbor",
    "fit_sparse_historical_averaging", "train_scenario1", "train_scenario1_without_mu",
    "train_scenario2_linear_interpolation", "train_scenario2_nearest_neighbor",
    "train_scenario2_historical_averaging", "train_scenario3", "train_scenario4", "train_scenario5",
}


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _overlapping(spans):
    """Whether any two of the {start_s, end_s} spans overlap in time."""
    ordered = sorted((s["start_s"], s["end_s"]) for s in spans)
    return any(later[0] < earlier[1] for earlier, later in zip(ordered, ordered[1:]))


class TestProcessPool:
    """The jobs of a run on a two-worker pool (forced, so even a one-CPU
    runner takes the pool path) against the in-process path.  The pool run
    takes its master seed as an np.int64, the in-process run as an int."""

    @pytest.fixture(scope="class")
    def pool_out(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("pool") / "out"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "usable_cpus", lambda: 2)
            assert run_all(out, seed=np.int64(7), fast=True) == 0
        assert multiprocessing.active_children() == []
        return out

    def test_reports_byte_identical_to_in_process(self, runall_out, pool_out):
        serial, pool = _files(runall_out[0]), _files(pool_out)
        assert set(serial) == set(pool)
        assert len(serial) == 12 + 10
        for name in serial:
            if name.name != "run_summary.json":
                assert pool[name] == serial[name], name

    def test_summary_matches_in_process_apart_from_times(self, runall_out, pool_out):
        # json cannot write an np.int64 by itself; the summary used to fail on one
        serial, pool = (json.loads((out / "run_summary.json").read_text()) for out in (runall_out[0], pool_out))
        for summary in (serial, pool):
            for key in ("stages", "jobs", "wall_seconds_total", "peak_rss_mb", "peak_rss_children_mb", "version"):
                del summary[key]
        assert pool == serial
        assert type(pool["seed"]) is int and type(pool["scenarios"]["1"]["config"]["seed"]) is int

    def test_summary_spans_every_job(self, runall_out, pool_out):
        for out, concurrent in ((runall_out[0], False), (pool_out, True)):
            summary = json.loads((out / "run_summary.json").read_text())
            jobs = summary["jobs"]
            assert set(jobs) == _JOBS
            assert all(0.0 <= j["start_s"] <= j["end_s"] <= summary["wall_seconds_total"] for j in jobs.values())
            # the CPU seconds of the process that ran the job, over the job
            assert all(math.isfinite(j["cpu_s"]) and j["cpu_s"] >= 0.0 for j in jobs.values())
            assert all(set(j) == {"start_s", "end_s", "cpu_s"} for j in jobs.values())
            assert _overlapping(jobs.values()) is concurrent
            assert summary["stages"]["jobs"] <= summary["wall_seconds_total"]
            assert summary["peak_rss_children_mb"] >= 0.0
        assert json.loads((pool_out / "run_summary.json").read_text())["peak_rss_children_mb"] > 0.0

    def test_fits_start_before_any_training(self, runall_out, pool_out):
        # a fit queued behind a training leaves its trainings, and a worker,
        # waiting at the end of the jobs stage
        for out in (runall_out[0], pool_out):
            jobs = json.loads((out / "run_summary.json").read_text())["jobs"]
            first = sorted(jobs, key=lambda name: jobs[name]["start_s"])[:4]
            assert all(name.startswith("fit_") for name in first), first

    @pytest.mark.parametrize("kind", ["mu", "imputation"])
    def test_standalone_ablation_byte_identical_to_in_process(self, tmp_path, monkeypatch, kind):
        outs = {}
        for cpus in (1, 2):
            monkeypatch.setattr(harness, "usable_cpus", lambda cpus=cpus: cpus)
            outs[cpus] = tmp_path / f"cpus{cpus}"
            assert cli_main(["ablation", "--kind", kind, "--seed", "7", "--fast", "--out", str(outs[cpus])]) == 0
        serial, pool = _files(outs[1]), _files(outs[2])
        assert len(serial) == (2 if kind == "mu" else 1)
        assert pool == serial
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_failing_job_named_and_cli_exits_2(self, tmp_path, monkeypatch, capsys, cpus):
        real_train = harness.train

        def train_failing_without_memory(samples, params, *args, **kwargs):
            if not params.dims.memory_enabled:
                raise FloatingPointError("injected failure")
            return real_train(samples, params, *args, **kwargs)

        monkeypatch.setattr(harness, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(harness, "train", train_failing_without_memory)
        with pytest.raises(harness.StageFailed, match="job 'train_scenario1_without_mu' failed: injected failure"):
            run_ablation_mu(scenario_config(1, seed=7, fast=True))
        assert cli_main(["all", "--seed", "7", "--fast", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "run failed: job 'train_scenario1_without_mu' failed: injected failure" in err
        assert multiprocessing.active_children() == []


class TestJobTimes:
    def test_cpu_seconds_leave_out_time_spent_waiting(self):
        # a job that only sleeps takes wall time but almost no CPU time, so
        # wall minus CPU tells waiting from work
        result, (start, end, cpu_s) = harness._timed("job 'sleeper'", time.sleep, 0.2)
        assert result is None
        assert end - start >= 0.2
        assert 0.0 <= cpu_s < 0.1

    def test_cpu_seconds_count_the_work(self):
        def spin(seconds):
            t0 = time.process_time()
            while time.process_time() - t0 < seconds:
                pass
            return "done"

        result, (start, end, cpu_s) = harness._timed("job 'spinner'", spin, 0.05)
        assert result == "done"
        assert cpu_s >= 0.05


class TestFailuresNamed:
    def test_failing_stage_named_and_cli_exits_2(self, tmp_path, monkeypatch, capsys):
        def failing_weather(*args):
            raise ValueError("injected failure")

        monkeypatch.setattr(harness, "make_weather", failing_weather)
        with pytest.raises(harness.StageFailed, match="^stage 'world' failed: injected failure$"):
            run_all(tmp_path / "a", seed=7, fast=True)
        assert cli_main(["all", "--seed", "7", "--fast", "--out", str(tmp_path / "b")]) == 2
        assert "run failed: stage 'world' failed: injected failure" in capsys.readouterr().err

    @pytest.mark.parametrize("args,message", [(("injected failure",), "injected failure"), ((), "MemoryError")])
    def test_failure_outside_any_stage_exits_2(self, tmp_path, monkeypatch, capsys, args, message):
        # a standalone command builds its world outside any stage, so the
        # error reaches the CLI as it was raised; one without a message is
        # named by its type
        def failing_weather(*_):
            raise MemoryError(*args)

        monkeypatch.setattr(harness, "make_weather", failing_weather)
        assert cli_main(["scenario", "--id", "4", "--fast", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"run failed: {message}\n"

    def test_failing_training_in_standalone_run_named(self, monkeypatch):
        def failing_train(*args, **kwargs):
            raise FloatingPointError("injected failure")

        monkeypatch.setattr(harness, "train", failing_train)
        with pytest.raises(harness.StageFailed, match="^job 'train_scenario3' failed: injected failure$"):
            run_scenario(tiny_config(3))


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        text = (
            "id = 3\n"
            "sparse_frac = 0.35\n"
            "imputation = historical_averaging\n"
            "memory_unit_enabled = false\n"
            "seed = 9\n"
            "year_hours = 720\n"
            "train_frac = 0.5\n"
            "val_frac = 0.25\n"
            "test_frac = 0.25\n"
            "eta = 0.01\n"
            "max_epochs = 50\n"
            "batch_size = 32\n"
            "early_stop_patience = 5\n"
        )
        path.write_text(text)
        assert sorted(line.partition(" =")[0] for line in text.splitlines()) == sorted(harness._CONFIG_PARSERS)
        assert load_scenario_config(path) == ScenarioConfig(
            id=3,
            sparse_frac=0.35,
            imputation="historical_averaging",
            split=SplitSpec(train_frac=0.5, val_frac=0.25, test_frac=0.25),
            train=TrainConfig(eta=0.01, max_epochs=50, batch_size=32, early_stop_patience=5, seed=9 + harness.SEED_TRAIN),
            memory_unit_enabled=False,
            seed=9,
            year_hours=720,
        )

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("id = 1\nwhatever = 3\n")
        with pytest.raises(ConfigError, match="whatever"):
            load_scenario_config(path)

    @pytest.mark.parametrize("value", ["sgd", "adam"])
    def test_optimizer_key_rejected(self, tmp_path, capsys, value):
        # training is Adam only, so there is no optimizer to choose
        path = tmp_path / "scenario.cfg"
        path.write_text(f"id = 1\neta = 0.01\noptimizer = {value}\n")
        with pytest.raises(ConfigError, match=r"scenario\.cfg:3: unknown key 'optimizer'"):
            load_scenario_config(path)
        assert cli_main(["scenario", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "scenario.cfg:3: unknown key 'optimizer'" in capsys.readouterr().err

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("### Config files", 1)[1].split("```", 2)[1]
        path = tmp_path / "readme.cfg"
        path.write_text(block)
        cfg = load_scenario_config(path)
        assert cfg.id == 2 and cfg.seed == 9

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("id = 1\nseed = 9\n\n# again\nid = 3\n")
        with pytest.raises(ConfigError, match=r"scenario.cfg:5: key 'id' repeats line 1"):
            load_scenario_config(path)

    def test_repeated_building_key_rejected(self, tmp_path):
        path = tmp_path / "building.cfg"
        path.write_text("occupants = 400\nfloor_area_m2 = 1000\noccupants = 500  # second\n")
        with pytest.raises(ValueError, match=r"building.cfg:3: key 'occupants' repeats line 1"):
            load_building_params(path)

    def test_missing_id_rejected(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("seed = 3\n")
        with pytest.raises(ConfigError):
            load_scenario_config(path)

    def test_invariant_violation_rejected(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        for text, message in (
            ("id = 2\nimputation = bogus\n", "imputation must be one of .*, got 'bogus'"),
            ("id = 2\nsparse_frac = 1.5\n", r"sparse_frac must lie in \[0, 1\)"),
        ):
            path.write_text(text)
            with pytest.raises(ConfigError, match=rf"scenario\.cfg: {message}"):
                load_scenario_config(path)

    def test_cli_seed_overrides_file(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("id = 4\nseed = 9\n")
        cfg = load_scenario_config(path, seed=123)
        assert cfg.seed == 123

    def test_batch_size_zero_selects_full_epoch(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("id = 1\nbatch_size = 0\n")
        cfg = load_scenario_config(path)
        assert cfg.train.batch_size is None

    def test_fast_overrides_file_year_hours(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("id = 4\nyear_hours = 8760\n")
        assert load_scenario_config(path, fast=True).year_hours == harness.FAST_HOURS == 2160
        assert load_scenario_config(path).year_hours == 8760
        path.write_text("id = 4\nyear_hours = 720\n")
        assert load_scenario_config(path, fast=True).year_hours == 2160
        assert load_scenario_config(path).year_hours == 720


class TestVersionStamp:
    @pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
    def test_stamps_the_package_not_the_working_directory(self, tmp_path, monkeypatch):
        def git(*args):
            return subprocess.run(
                ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t", *args],
                check=True, stdout=subprocess.PIPE, text=True,
            ).stdout.strip()

        git("init", "-q")
        git("commit", "-q", "--allow-empty", "-m", "other project")
        other = git("rev-parse", "--short", "HEAD")
        home = harness.version_stamp()
        monkeypatch.chdir(tmp_path)
        stamp = harness.version_stamp()
        assert stamp == home
        assert not stamp.endswith(f"+g{other}")
        assert stamp.startswith(f"fusecast {fusecast.__version__}")


class TestCli:
    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("id = 1\nbogus_key = 2\n")
        code = cli_main(["scenario", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_scenario_without_id_or_config_is_config_error(self, tmp_path):
        assert cli_main(["scenario", "--out", str(tmp_path / "o")]) == 1

    def test_invalid_scenario_id(self, tmp_path):
        assert cli_main(["scenario", "--id", "9", "--out", str(tmp_path / "o")]) == 1

    def test_simulate_writes_series(self, tmp_path):
        out = tmp_path / "sim"
        code = cli_main(["simulate", "--fast", "--out", str(out), "--seed", "3"])
        assert code == 0
        assert (out / "physics_energy.csv").exists()
        assert (out / "weather_temp_c.csv").exists()

    def test_simulate_with_building_config(self, tmp_path):
        cfg = tmp_path / "building.cfg"
        cfg.write_text("floor_area_m2 = 1000\n")
        out = tmp_path / "sim"
        assert cli_main(["simulate", "--fast", "--config", str(cfg), "--out", str(out)]) == 0

    @pytest.mark.parametrize(
        "command, text",
        [("scenario", "id = 1\nid = 3\n"), ("simulate", "occupants = 400\noccupants = 500\n")],
    )
    def test_repeated_config_key_exits_1(self, tmp_path, capsys, command, text):
        cfg = tmp_path / "repeated.cfg"
        cfg.write_text(text)
        out = tmp_path / "o"
        assert cli_main([command, "--fast", "--config", str(cfg), "--out", str(out)]) == 1
        assert "repeats line 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, name, text, message",
        [
            ("scenario", "scenario.cfg", "id = 1\nmax_epochs = 1.5\n",
             "2: max_epochs: invalid literal for int() with base 10: '1.5'"),
            ("scenario", "scenario.cfg", "id = 1\n\neta = fast  # typo\n",
             "3: eta: could not convert string to float: 'fast'"),
            ("scenario", "scenario.cfg", "id = 1\nmemory_unit_enabled = maybe\n",
             "2: memory_unit_enabled: expected a boolean, got 'maybe'"),
            ("simulate", "building.cfg", "floor_area_m2 = 1000\noccupants = abc\n",
             "2: occupants: could not convert string to float: 'abc'"),
        ],
    )
    def test_unparsable_value_names_file_line_and_key(self, tmp_path, capsys, command, name, text, message):
        cfg = tmp_path / name
        cfg.write_text(text)
        out = tmp_path / "o"
        assert cli_main([command, "--fast", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"config error: {cfg}:{message}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_bad_building_config(self, tmp_path, capsys):
        cfg = tmp_path / "building.cfg"
        cfg.write_text("windows = 14\n")
        assert cli_main(["simulate", "--fast", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        # values that parse but break a BuildingParams rule name the file too
        cfg.write_text("occupants = -1\n")
        capsys.readouterr()
        assert cli_main(["simulate", "--fast", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert f"config error: {cfg}: occupants must be non-negative\n" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["scenario", "simulate"])
    @pytest.mark.parametrize("kind", ["missing", "directory", "undecodable"])
    def test_unreadable_config_file_exits_1(self, tmp_path, capsys, command, kind):
        cfg = tmp_path / f"{kind}.cfg"
        if kind == "directory":
            cfg.mkdir()
        elif kind == "undecodable":
            cfg.write_bytes(b"seed = \xff\n")
        out = tmp_path / "o"
        assert cli_main([command, "--fast", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"config error: {cfg}: cannot read config file: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sid", [1, 2])
    def test_unknown_imputation_in_file_exits_1(self, tmp_path, capsys, sid):
        # scenario 1 never imputes, but its file's value is checked too
        cfg = tmp_path / "scenario.cfg"
        out = tmp_path / "o"
        for value in ("bogus", "neighbor_mean_or_zero"):
            cfg.write_text(f"id = {sid}\nimputation = {value}\n")
            assert cli_main(["scenario", "--fast", "--config", str(cfg), "--out", str(out)]) == 1
            assert f"config error: {cfg}: imputation must be one of " in capsys.readouterr().err
            assert not out.exists()

    def test_too_few_training_rows_in_file_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("id = 1\ntrain_frac = 0.001\nval_frac = 0.001\ntest_frac = 0.998\n")
        out = tmp_path / "o"
        assert cli_main(["scenario", "--fast", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"config error: {cfg}: the split leaves 2 training rows of 2136; need at least 8" in capsys.readouterr().err
        assert not out.exists()

    def test_no_validation_rows_in_file_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "no_val.cfg"
        cfg.write_text("id = 1\ntrain_frac = 0.6\nval_frac = 0.00001\ntest_frac = 0.39999\nmax_epochs = 3\n")
        out = tmp_path / "o"
        assert cli_main(["scenario", "--fast", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"config error: {cfg}: the split leaves no validation rows of 2136" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["scenario", "--id", "4"], ["ablation", "--kind", "mu"], ["all"], ["simulate"], ["train-baseline"]],
    )
    def test_out_naming_a_file_exits_1_before_any_work(self, tmp_path, capsys, monkeypatch, argv):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(harness, "make_weather", no_work)
        monkeypatch.setattr(cli, "make_weather", no_work)
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        for out in (taken, taken / "sub"):
            assert cli_main([*argv, "--fast", "--out", str(out)]) == 1
            assert f"config error: --out {out}: {taken} is not a directory" in capsys.readouterr().err
        assert taken.read_text() == "keep\n"

    def test_scenario_subcommand_writes_outputs(self, tmp_path):
        out = tmp_path / "scen"
        code = cli_main(["scenario", "--id", "4", "--seed", "3", "--fast", "--out", str(out)])
        assert code == 0
        assert (out / "predictions_scenario4.csv").exists()
        assert (out / "scenario4_metrics.csv").exists()
        assert (out / "scenario4.ckpt").exists()

    def test_ablation_subcommand(self, tmp_path):
        out = tmp_path / "abl"
        code = cli_main(["ablation", "--kind", "mu", "--seed", "3", "--fast", "--out", str(out)])
        assert code == 0
        assert (out / "ablation_mu.csv").exists()
        assert (out / "ablation_mu_metrics.csv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["scenario", "--id", "1"],
            ["ablation", "--kind", "mu"],
            ["all"],
            ["simulate"],
            ["train-baseline"],
        ],
    )
    def test_negative_seed_is_config_error(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert cli_main([*argv, "--fast", "--seed", "-30", "--out", str(out)]) == 1
        assert "master seed must be a non-negative integer, got -30" in capsys.readouterr().err
        assert not out.exists()

    def test_run_all_checks_seed_before_any_stage(self, tmp_path):
        with pytest.raises(ConfigError, match="got -1"):
            run_all(tmp_path / "o", seed=-1, fast=True)
        assert not (tmp_path / "o").exists()

    def test_train_baseline_subcommand(self, tmp_path):
        out = tmp_path / "base"
        code = cli_main(["train-baseline", "--seed", "3", "--fast", "--out", str(out)])
        assert code == 0
        assert (out / "baseline_forecast.csv").exists()
        assert (out / "truth_energy.csv").exists()


    def test_scenario_config_file_seed_honoured(self, tmp_path, monkeypatch):
        class Stop(BaseException):  # not an Exception, so the CLI does not catch it
            pass

        seen = []

        def record(cfg):
            seen.append(cfg.seed)
            raise Stop

        monkeypatch.setattr(cli, "run_scenario", record)
        with_seed, without_seed = tmp_path / "seed9.cfg", tmp_path / "noseed.cfg"
        with_seed.write_text("id = 4\nseed = 9\n")
        without_seed.write_text("id = 4\n")
        for argv in (
            ["--config", str(with_seed)],
            ["--config", str(with_seed), "--seed", "3"],
            ["--config", str(without_seed)],
            ["--id", "4"],
        ):
            with pytest.raises(Stop):
                cli_main(["scenario", *argv, "--fast", "--out", str(tmp_path / "o")])
        assert seen == [9, 3, 42, 42]

    @pytest.mark.parametrize(
        "argv",
        [
            ["train-baseline", "--seed", "1.5"],
            ["all", "--seed", "x"],
            ["ablation", "--fast"],
            ["ablation", "--kind", "other"],
            ["scenario", "--bogus"],
            ["launch"],
            [],
            ["scenario", "--id", "1", "--config", "scenario.cfg"],
            ["ablation", "--kind", "mu", "--fast", "--config", "scenario.cfg"],
            ["all", "--fast", "--config", "scenario.cfg"],
            ["train-baseline", "--fast", "--config", "scenario.cfg"],
        ],
    )
    def test_usage_error_is_config_error(self, tmp_path, capsys, argv):
        assert cli_main([*argv, "--out", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [["--help"], ["all", "--help"], ["ablation", "-h"]])
    def test_help_exits_0(self, capsys, argv):
        assert cli_main(argv) == 0
        assert "usage:" in capsys.readouterr().out

    def test_main_pins_blas_before_running_a_command(self, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr(harness, "_one_blas_thread", lambda: calls.append("blas"))
        monkeypatch.setitem(cli._COMMANDS, "simulate", lambda args: calls.append("simulate") or 0)
        assert cli_main(["simulate", "--fast", "--out", str(tmp_path / "o")]) == 0
        assert calls == ["blas", "simulate"]
        calls.clear()
        assert cli_main(["simulate", "--seed", "1.5"]) == 1  # a usage error runs nothing
        assert calls == []


class TestNonFiniteConfig:
    @pytest.mark.parametrize("name", ["train_frac", "val_frac", "test_frac"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_split_spec_rejects(self, name, value):
        with pytest.raises(ValueError, match=name):
            SplitSpec(**{name: value})

    @pytest.mark.parametrize("name", ["ua_w_per_k", "occupants", "infiltration_ach", "heat_setpoint_c"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_building_params_rejects(self, name, value):
        with pytest.raises(ValueError, match=name):
            BuildingParams(**{name: value})

    def test_scenario_nan_split_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "scenario.cfg"
        path.write_text("id = 1\ntrain_frac = nan\n")
        assert cli_main(["scenario", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "train_frac" in capsys.readouterr().err

    def test_simulate_nan_building_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "building.cfg"
        path.write_text("ua_w_per_k = nan\n")
        out = tmp_path / "o"
        assert cli_main(["simulate", "--fast", "--config", str(path), "--out", str(out)]) == 1
        assert "ua_w_per_k" in capsys.readouterr().err
        assert not (out / "physics_energy.csv").exists()


_VALID_SCENARIO_CFG = (
    "id = 2\nseed = 9\nimputation = nearest_neighbor\nsparse_frac = 0.2\neta = 0.001\n"
    "max_epochs = 50\nbatch_size = 64\nearly_stop_patience = 5\ntrain_frac = 0.7\n"
    "val_frac = 0.15\ntest_frac = 0.15\nyear_hours = 720\nmemory_unit_enabled = true\n"
)
_VALID_BUILDING_CFG = "".join(f"{k} = {v!r}\n" for k, v in asdict(BuildingParams()).items())

_ODD_VALUES = st.sampled_from(
    ["nan", "-NaN", "inf", "-inf", "1e309", "-1e309", "", "0", "-1", "1e-300", "0.5", "1", "2",
     "abc", "0x10", "true", "1_000", "=", "# note"]
)
_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"), max_size=12)


@st.composite
def _mutated_config(draw, text):
    """A key=value file with 1-3 of its lines given odd values, dropped,
    duplicated or replaced by arbitrary text."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("value", "drop", "duplicate", "text")))
        if kind == "value":
            value = draw(_ODD_VALUES | st.floats().map(repr) | _TEXT)
            lines[i] = f"{lines[i].partition('=')[0].strip()} = {value}"
        elif kind == "drop" and len(lines) > 1:
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines[i] = draw(_TEXT)
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(text=_mutated_config(_VALID_SCENARIO_CFG))
def test_mutated_scenario_configs_load_whole_or_raise_config_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("cfg") / "scenario.cfg"
    path.write_text(text, encoding="utf-8")
    try:
        cfg = load_scenario_config(path)
    except ConfigError:
        return
    assert all(math.isfinite(f) for f in asdict(cfg.split).values())
    assert cfg.split.boundaries(1000) <= (1000, 1000)
    assert math.isfinite(cfg.train.eta) and 0.0 <= cfg.sparse_frac < 1.0


@settings(max_examples=200, deadline=None)
@given(text=_mutated_config(_VALID_BUILDING_CFG))
def test_mutated_building_configs_load_whole_or_raise_value_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("cfg") / "building.cfg"
    path.write_text(text, encoding="utf-8")
    try:
        building = load_building_params(path)
    except ValueError:
        return
    assert all(math.isfinite(v) for v in asdict(building).values())
