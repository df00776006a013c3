"""End-to-end experiment harness.

Builds seeded synthetic fixtures (weather -> RC physics trace -> biased
ground truth -> trained data-driven baseline), runs the five
input-availability scenarios and the two ablations, and writes metric
tables, prediction CSVs, training histories, and model checkpoints.

One master seed fans out deterministically to every random consumer
(weather, truth noise, sparsity mask, parameter init, training shuffle,
baseline init), so a rerun with the same seed reproduces every CSV byte
for byte.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import resource
import subprocess
import time
from collections import deque
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .metrics import CSV_HEADER, MetricReport, compute_report, csv_row, cv_rmse, nmbe
from .model import (
    FusionDims,
    FusionParams,
    TrainConfig,
    init_params,
    predict,
    save_checkpoint,
    train,
)
from .pipeline import (
    EnergySeries,
    NormStats,
    SplitSpec,
    apply_sparsity,
    assemble_samples,
    build_feature_rows,
    denormalize_target,
    fit_norm_stats,
    impute,
    normalize_samples,
    split_samples,
)
from .surrogates import (
    BuildingParams,
    WeatherSeries,
    default_occupancy,
    forecast_dl,
    make_truth,
    make_weather,
    simulate_physics,
    train_baseline_forecaster,
)


class ConfigError(ValueError):
    """Invalid scenario configuration (CLI exit code 1)."""


FULL_HOURS = 8760
FAST_HOURS = 2160

DEFAULT_BIAS_KWH = 50.0
DEFAULT_NOISE_STD_KWH = 8.0
DEFAULT_BEHAVIOR_AMP_KWH = 12.0

DEFAULT_DIMS = FusionDims(embed_dim=32, memory_dim=16, hidden_dim=32)

DEFAULT_SEED = 42

# Master-seed fan-out offsets; every stochastic consumer gets its own stream.
SEED_WEATHER = 11
SEED_TRUTH = 22
SEED_SPARSITY = 33
SEED_INIT = 44
SEED_TRAIN = 55
SEED_BASELINE = 66

SCENARIO_METHODS = {
    1: ("dl", "ep", "pgmn"),
    2: ("dl", "ep", "pgmn"),
    3: ("ep", "pgmn"),
    4: ("ep", "pgmn"),
    5: ("dl", "pgmn"),
}

IMPUTATION_ABLATION_STRATEGIES = ("nearest_neighbor", "historical_averaging", "linear_interpolation")

REPORT_FILES = (
    "scenario_table.csv",
    "ablation_mu.csv",
    "ablation_mu_metrics.csv",
    "ablation_imputation.csv",
    "calibration.csv",
    "train_history.csv",
    "run_summary.json",
)

_PRESETS = {
    1: dict(dl_available=True, ep_available=True, truth_mode="full"),
    2: dict(dl_available=True, ep_available=True, truth_mode="sparse"),
    3: dict(dl_available=False, ep_available=True, truth_mode="absent"),
    4: dict(dl_available=False, ep_available=True, truth_mode="full"),
    5: dict(dl_available=True, ep_available=False, truth_mode="full"),
}


def _default_train(seed: int) -> TrainConfig:
    return TrainConfig(
        eta=3e-3,
        optimizer="adam",
        max_epochs=300,
        batch_size=128,
        early_stop_patience=20,
        seed=seed + SEED_TRAIN,
    )


def check_seed(seed) -> None:
    """Reject a master seed that is not a non-negative integer: every
    random stream is seeded with it plus a fixed offset."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ConfigError(f"master seed must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario run: which inputs exist, how truth is degraded, which
    imputation fills it, plus split/training settings and the master seed."""

    id: int
    dl_available: bool
    ep_available: bool
    truth_mode: str  # "full" | "sparse" | "absent"
    sparse_frac: float = 0.2
    imputation: str = "linear_interpolation"
    split: SplitSpec = field(default_factory=SplitSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    memory_unit_enabled: bool = True
    seed: int = DEFAULT_SEED
    year_hours: int = FULL_HOURS

    def __post_init__(self):
        check_seed(self.seed)
        if self.id not in _PRESETS:
            raise ConfigError(f"scenario id must be 1..5, got {self.id}")
        preset = _PRESETS[self.id]
        for key, expected in preset.items():
            if getattr(self, key) != expected:
                raise ConfigError(f"scenario {self.id} requires {key}={expected!r}, got {getattr(self, key)!r}")
        if not 0.0 <= self.sparse_frac < 1.0:
            raise ConfigError("sparse_frac must lie in [0, 1)")
        if self.year_hours < 24 * 10:
            raise ConfigError("year_hours is too small to build windows and splits")


def scenario_config(scenario_id: int, seed: int = DEFAULT_SEED, fast: bool = False, **overrides) -> ScenarioConfig:
    """The canonical config for one of the five scenarios."""
    check_seed(seed)
    if scenario_id not in _PRESETS:
        raise ConfigError(f"scenario id must be 1..5, got {scenario_id}")
    kwargs = dict(_PRESETS[scenario_id])
    kwargs.update(
        id=scenario_id,
        seed=seed,
        year_hours=FAST_HOURS if fast else FULL_HOURS,
        train=_default_train(seed),
    )
    kwargs.update(overrides)
    return ScenarioConfig(**kwargs)


@dataclass
class Fixture:
    """Aligned series for one scenario run (all start at fixture hour 24 so
    every step has a full lag window behind it)."""

    timestamps: np.ndarray
    truth: EnergySeries          # original actuals, used for evaluation only
    label_truth: EnergySeries    # what training may see (sparse in scenario 2)
    physics: EnergySeries
    dl: EnergySeries | None


@dataclass
class RunReport:
    """Everything one scenario or ablation run produced."""

    scenario: int
    methods: dict[str, MetricReport]
    config: dict
    wall_seconds: float
    version: str
    predictions: dict[str, np.ndarray | None]
    history: list[tuple[float, float]]
    params: FusionParams | None = None
    norm: NormStats | None = None
    fixture: Fixture | None = None
    extra: dict = field(default_factory=dict)


def version_stamp() -> str:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            check=False,
            text=True,
        ).stdout.strip()
    except OSError:
        sha = ""
    return f"fusecast {__version__}" + (f"+g{sha}" if sha else "")


@dataclass
class _World:
    """The seeded synthetic year that every scenario of one seed shares."""

    weather: WeatherSeries
    physics: EnergySeries
    truth: EnergySeries


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_OPENBLAS_SET_THREADS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
)


def _one_blas_thread() -> None:
    """Limit a loaded OpenBLAS to one thread: the pool workers' initializer,
    so the workers share the CPUs instead of each spinning up a BLAS thread
    per CPU, and the CLI's first step, so an in-process command does not
    burn a second CPU on BLAS threads.  Best effort (Linux, OpenBLAS): any
    other BLAS keeps its thread count.  The kernels' results do not depend
    on the BLAS thread count."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]}
    except OSError:
        return
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_SET_THREADS:
            if hasattr(lib, name):
                set_threads = getattr(lib, name)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                set_threads(1)
                break


def _run_job(fn, args) -> tuple:
    """``fn(*args)`` with its start and end on the ``perf_counter`` clock,
    which is system-wide, so a worker's times compare with the parent's."""
    t0 = time.perf_counter()
    result = fn(*args)
    return result, t0, time.perf_counter()


@dataclass
class _Job:
    """One expensive, independent unit of a run: ``fn(*args)`` with a
    module-level ``fn`` and picklable ``args``, so a worker process can run
    it.  ``done`` stores its result and returns the jobs it unblocks."""

    name: str
    fn: Callable
    args: tuple
    done: Callable[[object], list["_Job"]]


def _outcome(job: _Job, get) -> tuple:
    """``get()``, with any failure re-raised as StageFailed naming the job."""
    try:
        return get()
    except Exception as exc:
        raise StageFailed(f"job {job.name!r} failed: {exc}") from exc


def _fit_name(cfg: ScenarioConfig) -> str:
    return f"fit_sparse_{cfg.imputation}" if cfg.truth_mode == "sparse" else "fit_truth"


def _train_name(cfg: ScenarioConfig) -> str:
    name = f"train_scenario{cfg.id}"
    if cfg.truth_mode == "sparse":
        name += f"_{cfg.imputation}"
    return name if cfg.memory_unit_enabled else name + "_without_mu"


def _mu_variants(cfg: ScenarioConfig) -> tuple[ScenarioConfig, ScenarioConfig]:
    """The memory ablation's two trainings: with and without the memory."""
    return replace(cfg, memory_unit_enabled=True), replace(cfg, memory_unit_enabled=False)


def _imputation_variants(cfg: ScenarioConfig) -> list[ScenarioConfig]:
    """The imputation ablation's trainings, one per strategy."""
    return [replace(cfg, imputation=strategy) for strategy in IMPUTATION_ABLATION_STRATEGIES]


class _Stages:
    """The stages of one run, each computed once per distinct key.

    Every stage is a pure function of the config fields in its key, so a
    stage asked for again returns its first result.  One object serves one
    ``run_all`` or one standalone call and is dropped with it: two runs in
    one process share nothing.  ``prefetch`` computes the expensive stages,
    the baseline fits and the trainings, as a plan of jobs that may run in
    worker processes; everything else runs in the calling process.
    """

    def __init__(self):
        self._version: str | None = None
        self._worlds: dict[tuple, _World] = {}
        self._masked: dict[tuple, EnergySeries] = {}
        self._lag_sources: dict[tuple, EnergySeries] = {}
        self._dl: dict[tuple, EnergySeries] = {}
        self._trained: dict[ScenarioConfig, tuple] = {}
        # Job name -> (start, end) on the perf_counter clock.
        self.job_spans: dict[str, tuple[float, float]] = {}

    def version(self) -> str:
        if self._version is None:
            self._version = version_stamp()
        return self._version

    def world(self, seed: int, hours: int) -> _World:
        """Weather, RC physics and biased truth, keyed by (seed, hours)."""
        key = (seed, hours)
        if key not in self._worlds:
            weather = make_weather(hours, seed + SEED_WEATHER)
            physics = simulate_physics(BuildingParams(), weather, default_occupancy())
            truth = make_truth(
                physics,
                bias=DEFAULT_BIAS_KWH,
                noise_std=DEFAULT_NOISE_STD_KWH,
                behavior_amp=DEFAULT_BEHAVIOR_AMP_KWH,
                seed=seed + SEED_TRUTH,
            )
            self._worlds[key] = _World(weather, physics, truth)
        return self._worlds[key]

    def labels(self, cfg: ScenarioConfig) -> tuple[EnergySeries, EnergySeries]:
        """(label truth, lag source): the actuals training may see and the
        series the baseline lags on.  Sparse truth is masked once per
        (seed, hours, sparse_frac) and imputed once per strategy."""
        truth = self.world(cfg.seed, cfg.year_hours).truth
        if cfg.truth_mode != "sparse":
            return truth, truth
        key = (cfg.seed, cfg.year_hours, cfg.sparse_frac)
        if key not in self._masked:
            self._masked[key] = apply_sparsity(truth, cfg.sparse_frac, cfg.seed + SEED_SPARSITY)
        label_truth = self._masked[key]
        key += (cfg.imputation,)
        if key not in self._lag_sources:
            self._lag_sources[key] = impute(label_truth, cfg.imputation)
        return label_truth, self._lag_sources[key]

    @staticmethod
    def _dl_key(cfg: ScenarioConfig) -> tuple:
        lag_key = (cfg.sparse_frac, cfg.imputation) if cfg.truth_mode == "sparse" else None
        return (cfg.seed, cfg.year_hours, lag_key, cfg.split)

    def _fit_args(self, cfg: ScenarioConfig) -> tuple:
        _, lag_source = self.labels(cfg)
        return cfg, lag_source, self.world(cfg.seed, cfg.year_hours).weather.temp_c

    def dl(self, cfg: ScenarioConfig) -> EnergySeries | None:
        """The data-driven baseline's forecast, fitted once per lag source
        and split."""
        if not cfg.dl_available:
            return None
        key = self._dl_key(cfg)
        if key not in self._dl:
            self._dl[key] = _fit_dl(*self._fit_args(cfg))
        return self._dl[key]

    def fixture(self, cfg: ScenarioConfig) -> Fixture:
        world = self.world(cfg.seed, cfg.year_hours)
        label_truth, _ = self.labels(cfg)
        dl_series = self.dl(cfg)
        a = 24
        return Fixture(
            timestamps=world.truth.timestamps[a:],
            truth=world.truth.slice(a),
            label_truth=label_truth.slice(a),
            physics=world.physics.slice(a),
            dl=dl_series,
        )

    def trained(self, cfg: ScenarioConfig) -> tuple[FusionParams, NormStats, list[tuple[float, float]], np.ndarray, int]:
        """``_train_on_fixture`` for ``cfg``, keyed by the whole config: it
        fixes the samples, the memory flag and the TrainConfig."""
        if cfg not in self._trained:
            self._trained[cfg] = _train_on_fixture(cfg, self.fixture(cfg), cfg.memory_unit_enabled)
        return self._trained[cfg]

    def prefetch(self, cfgs) -> None:
        """Fill the baseline-fit and training caches for ``cfgs``.

        The plan has one job per baseline fit not cached yet (one per lag
        source) and one per training not cached yet (one per distinct
        config).  The fits start first, then the trainings that need no
        fit, so no fit queues behind a training; each fit's trainings start
        as soon as it returns.  The jobs run on a fork pool with one worker
        per usable CPU (at most one per job), created and shut down inside
        this call, or in this process when only one CPU is usable.  Every
        job is a pure function of its arguments, so both paths give the
        same bits.  A failing job raises StageFailed naming it."""
        todo = [cfg for cfg in dict.fromkeys(cfgs) if cfg not in self._trained]
        waiting: dict[tuple, list[ScenarioConfig]] = {}
        ready = []
        for cfg in todo:
            if cfg.dl_available and self._dl_key(cfg) not in self._dl:
                waiting.setdefault(self._dl_key(cfg), []).append(cfg)
            else:
                ready.append(cfg)
        jobs = [self._fit_job(group) for group in waiting.values()] + [self._train_job(cfg) for cfg in ready]
        workers = min(_usable_cpus(), len(todo) + len(waiting))
        if workers > 1:
            self._run_pool(jobs, workers)
            return
        queue = deque(jobs)
        while queue:
            job = queue.popleft()
            queue.extend(self._finish(job, _outcome(job, lambda: _run_job(job.fn, job.args))))

    def _run_pool(self, jobs: list[_Job], workers: int) -> None:
        import multiprocessing
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

        # fork: the workers start from this process's modules with no
        # re-import, and a fork pool starts all its workers at the first
        # submit, before it starts its own manager thread.
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"), initializer=_one_blas_thread)
        running: dict = {}

        def submit(batch: list[_Job]) -> None:
            for job in batch:
                running[pool.submit(_run_job, job.fn, job.args)] = job

        try:
            submit(jobs)
            while running:
                finished, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in finished:
                    job = running.pop(future)
                    submit(self._finish(job, _outcome(job, future.result)))
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    def _finish(self, job: _Job, outcome: tuple) -> list[_Job]:
        result, t0, t1 = outcome
        self.job_spans[job.name] = (t0, t1)
        return job.done(result)

    def _train_job(self, cfg: ScenarioConfig) -> _Job:
        def done(result) -> list[_Job]:
            self._trained[cfg] = result
            return []

        return _Job(_train_name(cfg), _train_on_fixture, (cfg, self.fixture(cfg), cfg.memory_unit_enabled), done)

    def _fit_job(self, cfgs: list[ScenarioConfig]) -> _Job:
        """The baseline fit that ``cfgs`` (one lag source) wait for."""
        def done(result) -> list[_Job]:
            self._dl[self._dl_key(cfgs[0])] = result
            return [self._train_job(cfg) for cfg in cfgs]

        return _Job(_fit_name(cfgs[0]), _fit_dl, self._fit_args(cfgs[0]), done)

    def scenario(self, cfg: ScenarioConfig) -> RunReport:
        t0 = time.perf_counter()
        fixture = self.fixture(cfg)
        params, stats, history, pgmn_pred, i_test = self.trained(cfg)

        actual = fixture.truth.values[i_test:]
        preds: dict[str, np.ndarray | None] = {
            "timestamps": fixture.timestamps[i_test:],
            "actual": actual,
            "dl": fixture.dl.values[i_test:] if cfg.dl_available else None,
            "ep": fixture.physics.values[i_test:] if cfg.ep_available else None,
            "pgmn": pgmn_pred,
        }
        methods: dict[str, MetricReport] = {}
        for name in SCENARIO_METHODS[cfg.id]:
            methods[name] = compute_report(actual, preds[name])

        return RunReport(
            scenario=cfg.id,
            methods=methods,
            config=asdict(cfg),
            wall_seconds=time.perf_counter() - t0,
            version=self.version(),
            predictions=preds,
            history=history,
            params=params,
            norm=stats,
            fixture=fixture,
        )

    def ablation_mu(self, cfg: ScenarioConfig) -> RunReport:
        if cfg.id != 1:
            raise ConfigError("the memory-unit ablation runs under scenario 1")
        with_mu, without_mu = _mu_variants(cfg)
        self.prefetch([with_mu, without_mu])
        t0 = time.perf_counter()
        fixture = self.fixture(cfg)
        params_with, stats, hist_with, pred_with, i_test = self.trained(with_mu)
        params_without, _, hist_without, pred_without, _ = self.trained(without_mu)

        actual = fixture.truth.values[i_test:]
        dl = fixture.dl.values[i_test:]
        ep = fixture.physics.values[i_test:]

        methods = {
            "dl": compute_report(actual, dl),
            "ep": compute_report(actual, ep),
            "pgmn_with_mu": compute_report(actual, pred_with),
            "pgmn_without_mu": compute_report(actual, pred_without),
        }
        table = [
            (dl[i], ep[i], actual[i], pred_with[i], pred_with[i] - actual[i], pred_without[i], pred_without[i] - actual[i])
            for i in range(len(actual))
        ]
        return RunReport(
            scenario=cfg.id,
            methods=methods,
            config=asdict(cfg),
            wall_seconds=time.perf_counter() - t0,
            version=self.version(),
            predictions={
                "timestamps": fixture.timestamps[i_test:],
                "actual": actual,
                "dl": dl,
                "ep": ep,
                "pgmn": pred_with,
            },
            history=hist_with,
            params=params_with,
            norm=stats,
            fixture=fixture,
            extra={
                "table": table,
                "params_without": params_without,
                "history_without": hist_without,
                "mean_abs_signed_with": float(np.mean(np.abs(pred_with - actual))),
                "mean_abs_signed_without": float(np.mean(np.abs(pred_without - actual))),
            },
        )

    def ablation_imputation(self, cfg: ScenarioConfig) -> RunReport:
        if cfg.id != 2:
            raise ConfigError("the imputation ablation runs under scenario 2")
        variants = _imputation_variants(cfg)
        self.prefetch(variants)
        t0 = time.perf_counter()
        methods: dict[str, MetricReport] = {}
        checkpoints: dict[str, FusionParams] = {}
        norms: dict[str, NormStats] = {}
        histories: dict[str, list[tuple[float, float]]] = {}
        last = None
        for variant in variants:
            strategy = variant.imputation
            rep = self.scenario(variant)
            methods[strategy] = rep.methods["pgmn"]
            checkpoints[strategy] = rep.params
            norms[strategy] = rep.norm
            histories[strategy] = rep.history
            last = rep
        return RunReport(
            scenario=cfg.id,
            methods=methods,
            config=asdict(cfg),
            wall_seconds=time.perf_counter() - t0,
            version=self.version(),
            predictions=last.predictions,
            history=last.history,
            fixture=last.fixture,
            extra={"checkpoints": checkpoints, "norms": norms, "histories": histories},
        )


def build_fixture(cfg: ScenarioConfig) -> Fixture:
    """The aligned series for one scenario, built from scratch."""
    return _Stages().fixture(cfg)


def _fit_dl(cfg: ScenarioConfig, lag_source: EnergySeries, temp_c: np.ndarray) -> EnergySeries:
    """Fit the data-driven baseline on ``lag_source`` and roll out its
    day-ahead forecast."""
    feats = build_feature_rows(lag_source, temp_c)
    forecaster = train_baseline_forecaster(feats, lag_source, cfg.split, cfg.seed + SEED_BASELINE)
    return forecast_dl(forecaster, feats)


def _train_on_fixture(
    cfg: ScenarioConfig, fixture: Fixture, memory_enabled: bool
) -> tuple[FusionParams, NormStats, list[tuple[float, float]], np.ndarray, int]:
    """Assemble, normalize, train, and predict the test split (denormalized).

    Returns (params, norm stats, history, test predictions in kWh, test start index).
    """
    samples = assemble_samples(fixture.dl, fixture.physics, fixture.label_truth, cfg)
    train_s, val_s, test_s = split_samples(samples, cfg.split)
    stats = fit_norm_stats(train_s)
    norm_train = normalize_samples(train_s, stats)
    norm_val = normalize_samples(val_s, stats)
    norm_test = normalize_samples(test_s, stats)

    dims = replace(DEFAULT_DIMS, memory_enabled=memory_enabled)
    params0 = init_params(dims, cfg.seed + SEED_INIT)
    params, history = train(norm_train, params0, cfg.train, norm_val)
    yhat = denormalize_target(predict(norm_test, params), stats)
    return params, stats, history, yhat, len(train_s) + len(val_s)


def run_scenario(cfg: ScenarioConfig) -> RunReport:
    """Run one scenario end to end and evaluate every applicable method on
    the chronological test split against the original actuals."""
    return _Stages().scenario(cfg)


def run_ablation_mu(cfg: ScenarioConfig) -> RunReport:
    """Train the full model and the memory-ablated variant on the identical
    scenario-1 fixture and report them side by side, including the
    samplewise signed-error table."""
    return _Stages().ablation_mu(cfg)


def run_ablation_imputation(cfg: ScenarioConfig) -> RunReport:
    """Run scenario 2 once per imputation strategy with identical seeds, so
    the sparsity mask (and everything else seeded) is shared and only the
    filled values differ."""
    return _Stages().ablation_imputation(cfg)


# ---------------------------------------------------------------------------
# File emission
# ---------------------------------------------------------------------------

def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _write_predictions_csv(path: Path, preds: dict) -> None:
    lines = ["timestamp,actual,dl,ep,pgmn"]
    n = len(preds["actual"])
    for i in range(n):
        ts = np.datetime_as_string(preds["timestamps"][i].astype("datetime64[m]"))
        cells = [ts, repr(float(preds["actual"][i]))]
        for key in ("dl", "ep", "pgmn"):
            arr = preds[key]
            cells.append("" if arr is None else repr(float(arr[i])))
        lines.append(",".join(cells))
    _write_lines(path, lines)


def _metric_rows(report: RunReport, prefix: str = "") -> list[str]:
    """One metrics-CSV row per method of ``report``, in report order."""
    return [csv_row(report.scenario, prefix + m, r) for m, r in report.methods.items()]


def _write_metrics_csv(path: Path, rows: list[str]) -> None:
    _write_lines(path, [CSV_HEADER, *rows])


def _write_scenario_outputs(out: Path, ckpt_path: Path, report: RunReport) -> None:
    _write_predictions_csv(out / f"predictions_scenario{report.scenario}.csv", report.predictions)
    save_checkpoint(ckpt_path, report.params, report.norm)


def _write_ablation_mu(out: Path, report: RunReport) -> None:
    """ablation_mu.csv (the samplewise signed-error table) and
    ablation_mu_metrics.csv."""
    lines = ["DL,EP,Actual Energy,PgMN (With MU),PgMN (Without MU)"]
    for dl, ep, actual, pw, ew, po, eo in report.extra["table"]:
        lines.append(
            f"{dl:.2f},{ep:.2f},{actual:.2f},"
            f"{pw:.2f} ({ew:+.2f}),{po:.2f} ({eo:+.2f})"
        )
    lines.append(
        "Mean Error,,,"
        f"{report.extra['mean_abs_signed_with']:.2f},{report.extra['mean_abs_signed_without']:.2f}"
    )
    _write_lines(out / "ablation_mu.csv", lines)
    _write_metrics_csv(out / "ablation_mu_metrics.csv", _metric_rows(report))


def _write_ablation_imputation(out: Path, report: RunReport) -> None:
    _write_metrics_csv(out / "ablation_imputation.csv", _metric_rows(report, prefix="pgmn_"))


def _monthly_sums(series: EnergySeries) -> np.ndarray:
    months = series.timestamps.astype("datetime64[M]")
    out = []
    for m in np.unique(months):
        out.append(float(series.values[months == m].sum()))
    return np.asarray(out)


def _write_calibration_csv(path: Path, fixture: Fixture) -> None:
    """NMBE / CV-RMSE of the physics surrogate against the synthetic actuals
    at hourly and monthly granularity."""
    lines = ["interval,measured_kwh,simulated_kwh,nmbe_pct,cv_rmse_pct"]
    y, sim = fixture.truth.values, fixture.physics.values
    lines.append(
        f"hourly,{np.sum(y):.1f},{np.sum(sim):.1f},{nmbe(y, sim):.6g},{cv_rmse(y, sim):.6g}"
    )
    ym, sm = _monthly_sums(fixture.truth), _monthly_sums(fixture.physics)
    lines.append(
        f"monthly,{np.sum(ym):.1f},{np.sum(sm):.1f},{nmbe(ym, sm):.6g},{cv_rmse(ym, sm):.6g}"
    )
    _write_lines(path, lines)


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


class StageFailed(RuntimeError):
    """A named harness stage failed; the message carries the stage."""


def _training_summary(cfg: ScenarioConfig, n_samples: int, history: list[tuple[float, float]], params: FusionParams) -> dict:
    """Diagnostics of one fusion training, derived from its config, its
    sample count, its history and the parameters it returned: epochs run,
    the first epoch of least validation MSE, why it stopped, how many
    parameter updates it made, and the L2 norm of the memory (0 without)."""
    epochs = len(history)
    n_train, _ = cfg.split.boundaries(n_samples)
    batch = cfg.train.batch_size
    return {
        "epochs": epochs,
        "best_epoch": int(np.argmin([val for _, val in history])),
        "stop_reason": "early_stop" if epochs < cfg.train.max_epochs else "max_epochs",
        "updates": epochs * (1 if batch is None else math.ceil(n_train / batch)),
        "memory_norm": float(np.linalg.norm(params.memory)),
    }


def _stage(seconds: dict[str, float], name: str, fn, *args):
    """Run one named stage of ``run_all``: its wall seconds go into
    ``seconds[name]``, and any failure is re-raised as StageFailed naming it."""
    t0 = time.perf_counter()
    try:
        return fn(*args)
    except StageFailed:
        raise
    except Exception as exc:
        raise StageFailed(f"stage {name!r} failed: {exc}") from exc
    finally:
        seconds[name] = time.perf_counter() - t0


def run_all(out_dir, seed: int = DEFAULT_SEED, fast: bool = False) -> int:
    """Run scenarios 1-5 plus both ablations and write the whole report
    inventory into ``out_dir``.  Returns the process exit code (0 = success);
    any failure raises StageFailed naming the stage.

    One ``_Stages`` graph serves the whole run: weather, physics and truth
    are built once, then the ``jobs`` stage fits the baseline once per lag
    source and trains once per distinct config (the ablations reuse the
    scenario-1 and scenario-2 trainings), on a process pool when more than
    one CPU is usable.  The scenario and ablation stages then assemble and
    write the reports in this process, in a fixed order."""
    check_seed(seed)
    t0 = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ckpt_dir = out / "checkpoints"
    ckpt_dir.mkdir(exist_ok=True)

    stages = _Stages()
    seconds: dict[str, float] = {}
    scenario_rows: list[str] = []
    history_rows = ["scenario,epoch,train_mse,val_mse"]
    summary: dict = {"version": stages.version(), "seed": seed, "fast": fast, "scenarios": {}}

    _stage(seconds, "world", stages.world, seed, FAST_HOURS if fast else FULL_HOURS)
    cfgs = {sid: scenario_config(sid, seed=seed, fast=fast) for sid in (1, 2, 3, 4, 5)}
    plan = [*cfgs.values(), *_mu_variants(cfgs[1]), *_imputation_variants(cfgs[2])]
    _stage(seconds, "jobs", stages.prefetch, plan)
    scenario1_report = None
    for sid, cfg in cfgs.items():
        report = _stage(seconds, f"scenario{sid}", stages.scenario, cfg)
        if sid == 1:
            scenario1_report = report
        scenario_rows.extend(_metric_rows(report))
        for epoch, (tr, va) in enumerate(report.history):
            history_rows.append(f"{sid},{epoch},{tr!r},{va!r}")
        _write_scenario_outputs(out, ckpt_dir / f"scenario{sid}.ckpt", report)
        summary["scenarios"][str(sid)] = {
            "wall_seconds": report.wall_seconds,
            "config": _json_ready(report.config),
            "methods": {m: asdict(r) for m, r in report.methods.items()},
            "training": _training_summary(cfg, report.fixture.truth.n, report.history, report.params),
        }

    _write_metrics_csv(out / "scenario_table.csv", scenario_rows)
    _write_lines(out / "train_history.csv", history_rows)
    _write_calibration_csv(out / "calibration.csv", scenario1_report.fixture)

    mu_cfg = cfgs[1]
    mu = _stage(seconds, "ablation_mu", stages.ablation_mu, mu_cfg)
    _write_ablation_mu(out, mu)
    save_checkpoint(ckpt_dir / "ablation_mu_with.ckpt", mu.params, mu.norm)
    save_checkpoint(ckpt_dir / "ablation_mu_without.ckpt", mu.extra["params_without"], mu.norm)
    n_samples = mu.fixture.truth.n
    summary["ablation_mu"] = {
        "wall_seconds": mu.wall_seconds,
        "methods": {m: asdict(r) for m, r in mu.methods.items()},
        "training": {
            "with_mu": _training_summary(mu_cfg, n_samples, mu.history, mu.params),
            "without_mu": _training_summary(mu_cfg, n_samples, mu.extra["history_without"], mu.extra["params_without"]),
        },
    }

    imp_cfg = cfgs[2]
    imp = _stage(seconds, "ablation_imputation", stages.ablation_imputation, imp_cfg)
    _write_ablation_imputation(out, imp)
    for strategy in IMPUTATION_ABLATION_STRATEGIES:
        save_checkpoint(
            ckpt_dir / f"ablation_imputation_{strategy}.ckpt",
            imp.extra["checkpoints"][strategy],
            imp.extra["norms"][strategy],
        )
    summary["ablation_imputation"] = {
        "wall_seconds": imp.wall_seconds,
        "methods": {m: asdict(r) for m, r in imp.methods.items()},
        "training": {
            strategy: _training_summary(imp_cfg, n_samples, imp.extra["histories"][strategy], imp.extra["checkpoints"][strategy])
            for strategy in IMPUTATION_ABLATION_STRATEGIES
        },
    }

    summary["stages"] = seconds
    spans = sorted(stages.job_spans.items(), key=lambda item: item[1])
    summary["jobs"] = {name: {"start_s": start - t0, "end_s": end - t0} for name, (start, end) in spans}
    summary["wall_seconds_total"] = time.perf_counter() - t0
    # The trainings run in worker processes, so this process's own peak
    # RSS no longer covers them.
    summary["peak_rss_children_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    summary["files"] = sorted(p.name for p in out.iterdir() if p.is_file())
    (out / "run_summary.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# Flat key=value scenario config files
# ---------------------------------------------------------------------------

_CONFIG_BOOL_KEYS = {"dl_available", "ep_available", "memory_unit_enabled"}
_CONFIG_INT_KEYS = {"id", "seed", "year_hours", "max_epochs", "batch_size", "early_stop_patience"}
_CONFIG_FLOAT_KEYS = {"sparse_frac", "train_frac", "val_frac", "test_frac", "eta"}
_CONFIG_STR_KEYS = {"truth_mode", "imputation", "optimizer"}
_CONFIG_KEYS = _CONFIG_BOOL_KEYS | _CONFIG_INT_KEYS | _CONFIG_FLOAT_KEYS | _CONFIG_STR_KEYS


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("1", "true", "yes"):
        return True
    if low in ("0", "false", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def load_scenario_config(path, seed: int | None = None, fast: bool = False) -> ScenarioConfig:
    """Parse a flat key=value file mirroring ScenarioConfig; unknown keys are
    rejected.  ``seed`` (when given) and ``fast`` override the file."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, val = stripped.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        raw[key] = val.strip()

    if "id" not in raw:
        raise ConfigError(f"{path}: scenario config must set id")
    try:
        parsed: dict = {}
        for key, val in raw.items():
            if key in _CONFIG_BOOL_KEYS:
                parsed[key] = _parse_bool(val)
            elif key in _CONFIG_INT_KEYS:
                parsed[key] = int(val)
            elif key in _CONFIG_FLOAT_KEYS:
                parsed[key] = float(val)
            else:
                parsed[key] = val
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    sid = parsed.pop("id")
    cfg_seed = seed if seed is not None else parsed.pop("seed", DEFAULT_SEED)
    parsed.pop("seed", None)

    split_kwargs = {k: parsed.pop(k) for k in ("train_frac", "val_frac", "test_frac") if k in parsed}
    train_kwargs = {
        k: parsed.pop(k)
        for k in ("eta", "optimizer", "max_epochs", "batch_size", "early_stop_patience")
        if k in parsed
    }
    if train_kwargs.get("batch_size") == 0:
        train_kwargs["batch_size"] = None  # 0 selects the literal full-epoch mode
    overrides: dict = dict(parsed)
    if split_kwargs:
        try:
            overrides["split"] = SplitSpec(**{**asdict(SplitSpec()), **split_kwargs})
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if train_kwargs:
        base = _default_train(cfg_seed)
        try:
            overrides["train"] = replace(base, **train_kwargs)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if fast and "year_hours" not in overrides:
        overrides["year_hours"] = FAST_HOURS
    try:
        return scenario_config(sid, seed=cfg_seed, fast=fast, **overrides)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
