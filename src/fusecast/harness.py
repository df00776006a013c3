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
import resource
import subprocess
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

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
from .numkit import usable_cpus
from .pipeline import (
    IMPUTATION_KINDS,
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
    read_key_values,
    split_samples,
    write_timestamped_csv,
)
from .surrogates import (
    BASELINE_MIN_TRAIN_ROWS,
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

DEFAULT_DIMS = FusionDims()

DEFAULT_SEED = 42

# Master-seed fan-out offsets; every stochastic consumer gets its own stream.
SEED_WEATHER = 11
SEED_TRUTH = 22
SEED_SPARSITY = 33
SEED_INIT = 44
SEED_TRAIN = 55
SEED_BASELINE = 66

# A scenario's id fixes its input streams (one method each, plus the fusion)
# and the actuals it trains on (sparse in 2; none, a new building, in 3).
SCENARIO_METHODS = {
    1: ("dl", "ep", "pgmn"),
    2: ("dl", "ep", "pgmn"),
    3: ("ep", "pgmn"),
    4: ("ep", "pgmn"),
    5: ("dl", "pgmn"),
}
_TRUTH_MODES = {1: "full", 2: "sparse", 3: "absent", 4: "full", 5: "full"}

REPORT_FILES = (
    "scenario_table.csv",
    "ablation_mu.csv",
    "ablation_mu_metrics.csv",
    "ablation_imputation.csv",
    "calibration.csv",
    "train_history.csv",
    "run_summary.json",
)


# The harness's training; its seed is replaced by the master seed's shuffle seed.
DEFAULT_TRAIN = TrainConfig(eta=3e-3, max_epochs=300, batch_size=128, early_stop_patience=20)


def check_seed(seed) -> None:
    """Reject a master seed that is not a non-negative integer: every
    random stream is seeded with it plus a fixed offset."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ConfigError(f"master seed must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario run: its id, which fixes the inputs and how truth is
    degraded, then the sparsity, imputation, split, training and seed.
    The training's shuffle seed is always ``seed + SEED_TRAIN``: it replaces
    the seed of the ``train`` given, also under ``dataclasses.replace``, so
    the master seed reaches the shuffle of every config built from it."""

    id: int
    sparse_frac: float = 0.2
    imputation: str = "linear_interpolation"
    split: SplitSpec = field(default_factory=SplitSpec)
    train: TrainConfig = DEFAULT_TRAIN
    memory_unit_enabled: bool = True
    seed: int = DEFAULT_SEED
    year_hours: int = FULL_HOURS

    def __post_init__(self):
        check_seed(self.seed)
        if not isinstance(self.train, TrainConfig):
            raise ConfigError(f"train must be a TrainConfig, got {self.train!r}")
        object.__setattr__(self, "train", replace(self.train, seed=self.seed + SEED_TRAIN))
        if isinstance(self.id, bool) or not isinstance(self.id, numbers.Integral) or self.id not in SCENARIO_METHODS:
            raise ConfigError(f"scenario id must be an integer in 1..5, got {self.id!r}")
        if self.imputation not in IMPUTATION_KINDS:
            raise ConfigError(f"imputation must be one of {', '.join(IMPUTATION_KINDS)}, got {self.imputation!r}")
        if isinstance(self.sparse_frac, bool) or not isinstance(self.sparse_frac, numbers.Real) or not 0.0 <= self.sparse_frac < 1.0:
            raise ConfigError(f"sparse_frac must lie in [0, 1), got {self.sparse_frac!r}")
        if not isinstance(self.split, SplitSpec):
            raise ConfigError(f"split must be a SplitSpec, got {self.split!r}")
        if not isinstance(self.memory_unit_enabled, bool):
            raise ConfigError(f"memory_unit_enabled must be a bool, got {self.memory_unit_enabled!r}")
        if isinstance(self.year_hours, bool) or not isinstance(self.year_hours, numbers.Integral):
            raise ConfigError(f"year_hours must be an integer, got {self.year_hours!r}")
        if self.year_hours < 24 * 10:
            raise ConfigError("year_hours is too small to build windows and splits")
        # every fit and training splits the hours after the first day's lag window
        n = self.year_hours - 24
        n_train, n_fit = self.split.boundaries(n)
        need = BASELINE_MIN_TRAIN_ROWS if self.dl_available else 1
        if n_train < need:
            raise ConfigError(f"the split leaves {n_train} training rows of {n}; need at least {need}")
        if n_fit == n_train:
            raise ConfigError(f"the split leaves no validation rows of {n}")
        if n_fit == n:
            raise ConfigError(f"the split leaves no test rows of {n}")

    @property
    def dl_available(self) -> bool:
        return "dl" in SCENARIO_METHODS[self.id]

    @property
    def ep_available(self) -> bool:
        return "ep" in SCENARIO_METHODS[self.id]

    @property
    def truth_mode(self) -> str:
        """The actuals it trains on: "full", "sparse" or "absent"."""
        return _TRUTH_MODES[self.id]


def scenario_config(scenario_id: int, seed: int = DEFAULT_SEED, fast: bool = False, **overrides) -> ScenarioConfig:
    """The canonical config for one of the five scenarios."""
    kwargs = dict(seed=seed, year_hours=FAST_HOURS if fast else FULL_HOURS)
    return ScenarioConfig(scenario_id, **{**kwargs, **overrides})


@dataclass
class Fixture:
    """Aligned series for one scenario run (all start at fixture hour 24 so
    every step has a full lag window behind it).

    ``truth``, ``label_truth`` and ``physics`` are ``EnergySeries.slice``
    views of the run's year: they share memory with it, and with each
    other where the series are one (``truth`` and ``label_truth`` outside
    scenario 2), so a caller must copy before mutating.  ``label_truth`` is
    always fully present: scenario 2's is the slice of the filled year the
    baseline lags on (``_Stages.labels``)."""

    timestamps: np.ndarray
    truth: EnergySeries          # original actuals, used for evaluation only
    label_truth: EnergySeries    # the training targets (filled sparse actuals in scenario 2)
    physics: EnergySeries
    dl: EnergySeries | None


@dataclass
class TrainedModel:
    """One fusion training on one fixture: the parameters it returned, the
    normalization fitted on its training split, its per-epoch (train, val)
    MSE history, its test-split predictions in kWh, its training-sample
    count, the index where the test split starts and the TrainConfig it
    ran with."""

    params: FusionParams
    norm: NormStats
    history: list[tuple[float, float]]
    pgmn: np.ndarray
    n_train: int
    i_test: int
    train: TrainConfig

    def summary(self) -> dict:
        """Diagnostics under ``train``: epochs run, the first epoch of least
        validation MSE, why it stopped, how many parameter updates it made,
        and the L2 norm of the memory (0 without)."""
        epochs = len(self.history)
        batch = self.train.batch_size
        return {
            "epochs": epochs,
            "best_epoch": int(np.argmin([val for _, val in self.history])),
            "stop_reason": "early_stop" if epochs < self.train.max_epochs else "max_epochs",
            "updates": epochs * (1 if batch is None else math.ceil(self.n_train / batch)),
            "memory_norm": float(np.linalg.norm(self.params.memory)),
        }


@dataclass
class RunReport:
    """Everything one scenario or ablation run produced: the metrics per
    method, the test-split predictions (``timestamps``, ``actual``, ``dl``,
    ``ep``, ``pgmn``; an absent stream is None), the fixture, and the
    trainings it evaluates by name (``pgmn`` for a scenario, ``with_mu``
    and ``without_mu`` for the memory ablation, one per strategy for the
    imputation ablation)."""

    scenario: int
    methods: dict[str, MetricReport]
    predictions: dict[str, np.ndarray | None]
    fixture: Fixture
    trainings: dict[str, TrainedModel]


def version_stamp() -> str:
    """The package version, plus ``+g<short sha>`` when the package's own
    directory is in a git checkout (git runs there, not in the caller's
    working directory)."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
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
    other BLAS keeps its thread count.  The pin also fixes the bits: a
    two-thread OpenBLAS changes the last bits of a full-year full-batch
    training."""
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


class StageFailed(RuntimeError):
    """A named harness stage or job failed; the message carries its name."""


def _timed(label: str, fn, *args) -> tuple:
    """``(fn(*args), (start, end, cpu_s))``: start and end on the
    ``perf_counter`` clock, which is system-wide, so a pool worker's times
    compare with the parent's; cpu_s is this process's ``process_time`` over
    the call (a pool worker runs one job at a time).  Any failure is
    re-raised as StageFailed naming ``label``; a StageFailed from a nested
    stage or job passes through unchanged."""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        result = fn(*args)
    except StageFailed:
        raise
    except Exception as exc:
        raise StageFailed(f"{label} failed: {exc}") from exc
    return result, (t0, time.perf_counter(), time.process_time() - c0)


def _mu_variants(cfg: ScenarioConfig) -> tuple[ScenarioConfig, ScenarioConfig]:
    """The memory ablation's two trainings: with and without the memory."""
    return replace(cfg, memory_unit_enabled=True), replace(cfg, memory_unit_enabled=False)


def _imputation_variants(cfg: ScenarioConfig) -> list[ScenarioConfig]:
    """The imputation ablation's trainings, one per strategy."""
    return [replace(cfg, imputation=strategy) for strategy in IMPUTATION_KINDS]


class _Stages:
    """The stages of one run, each computed once per distinct key.

    Every stage is a pure function of the config fields in its key, so a
    stage asked for again returns its first result.  One object serves one
    ``run_all`` or one standalone call and is dropped with it: two runs in
    one process share nothing.  The expensive stages, the baseline fits
    and the trainings, are jobs, each one record ``(name, cache, key, fn,
    args)``: ``fn(*args)`` goes into ``cache[key]`` and its span into
    ``job_spans``, and a failing job raises StageFailed naming it.  ``_run``
    runs a job here, ``_run_pool`` in workers; all else runs here.
    """

    def __init__(self):
        self._worlds: dict[tuple, _World] = {}
        self._labels: dict[tuple, EnergySeries] = {}
        self._dl: dict[tuple, EnergySeries] = {}
        self._trained: dict[ScenarioConfig, TrainedModel] = {}
        # Job name -> (start, end, cpu_s), as ``_timed`` measures them.
        self.job_spans: dict[str, tuple[float, float, float]] = {}

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

    def labels(self, cfg: ScenarioConfig) -> EnergySeries:
        """The year of actuals that both forecasters learn from: the
        baseline lags on all of it and the fusion trains on its slice from
        hour 24.  That is the world's truth, or in scenario 2 the truth with
        its sparsity mask drawn and filled by ``cfg.imputation``, once per
        (seed, hours, sparse_frac, imputation)."""
        truth = self.world(cfg.seed, cfg.year_hours).truth
        if cfg.truth_mode != "sparse":
            return truth
        key = (cfg.seed, cfg.year_hours, cfg.sparse_frac, cfg.imputation)
        if key not in self._labels:
            masked = apply_sparsity(truth, cfg.sparse_frac, cfg.seed + SEED_SPARSITY)
            self._labels[key] = impute(masked, cfg.imputation)
        return self._labels[key]

    @staticmethod
    def _dl_key(cfg: ScenarioConfig) -> tuple:
        lag_key = (cfg.sparse_frac, cfg.imputation) if cfg.truth_mode == "sparse" else None
        return (cfg.seed, cfg.year_hours, lag_key, cfg.split)

    def _fit_job(self, cfg: ScenarioConfig) -> tuple:
        """The job that fits the baseline for ``cfg``'s lag source and split."""
        name = f"fit_sparse_{cfg.imputation}" if cfg.truth_mode == "sparse" else "fit_truth"
        args = (cfg, self.labels(cfg), self.world(cfg.seed, cfg.year_hours).weather.temp_c)
        return name, self._dl, self._dl_key(cfg), _fit_dl, args

    def _train_job(self, cfg: ScenarioConfig) -> tuple:
        """The job that trains ``cfg``, keyed by the whole config: it fixes
        the samples, the memory flag and the TrainConfig."""
        name = f"train_scenario{cfg.id}"
        if cfg.truth_mode == "sparse":
            name += f"_{cfg.imputation}"
        if not cfg.memory_unit_enabled:
            name += "_without_mu"
        return name, self._trained, cfg, _train_on_fixture, (cfg, self.fixture(cfg))

    def _run(self, job: tuple) -> None:
        """Run ``job`` in this process, caching its result and keeping its span."""
        name, cache, key, fn, args = job
        cache[key], self.job_spans[name] = _timed(f"job {name!r}", fn, *args)

    def dl(self, cfg: ScenarioConfig) -> EnergySeries | None:
        """The data-driven baseline's forecast, fitted once per lag source
        and split."""
        if not cfg.dl_available:
            return None
        key = self._dl_key(cfg)
        if key not in self._dl:
            self._run(self._fit_job(cfg))
        return self._dl[key]

    def fixture(self, cfg: ScenarioConfig) -> Fixture:
        world = self.world(cfg.seed, cfg.year_hours)
        dl_series = self.dl(cfg)
        a = 24
        return Fixture(
            timestamps=world.truth.timestamps[a:],
            truth=world.truth.slice(a),
            label_truth=self.labels(cfg).slice(a),
            physics=world.physics.slice(a),
            dl=dl_series,
        )

    def trained(self, cfg: ScenarioConfig) -> TrainedModel:
        """``_train_on_fixture`` for ``cfg``, trained once per config."""
        if cfg not in self._trained:
            self._run(self._train_job(cfg))
        return self._trained[cfg]

    def prefetch(self, cfgs) -> None:
        """Fill the baseline-fit and training caches for ``cfgs``.

        The plan has one job per baseline fit not cached yet (one per lag
        source) and one per training not cached yet (one per distinct
        config).  The fits start first, then the trainings that need no
        fit, so no fit queues behind a training; each fit's trainings start
        as soon as it returns.  The jobs run on a fork pool with one worker
        per usable CPU (at most one per job), created and shut down inside
        this call, or in this process, through ``dl`` and ``trained``, when
        only one CPU is usable.  Every job is a pure function of its
        arguments, so both paths give the same bits.  A failing job raises
        StageFailed naming it."""
        todo = [cfg for cfg in dict.fromkeys(cfgs) if cfg not in self._trained]
        waiting: dict[tuple, list[ScenarioConfig]] = {}
        ready = []
        for cfg in todo:
            if cfg.dl_available and self._dl_key(cfg) not in self._dl:
                waiting.setdefault(self._dl_key(cfg), []).append(cfg)
            else:
                ready.append(cfg)
        workers = min(usable_cpus(), len(todo) + len(waiting))
        if workers > 1:
            self._run_pool(waiting, ready, workers)
            return
        for group in waiting.values():
            self.dl(group[0])
        for cfg in todo:
            self.trained(cfg)

    def _run_pool(self, waiting: dict[tuple, list[ScenarioConfig]], ready: list[ScenarioConfig], workers: int) -> None:
        import multiprocessing
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

        # fork: the workers start from this process's modules with no
        # re-import, and a fork pool starts all its workers at the first
        # submit, before it starts its own manager thread.
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"), initializer=_one_blas_thread)
        running: dict = {}  # future -> (job name, the cache and key its result goes under)

        def submit(job: tuple) -> None:
            name, cache, key, fn, args = job
            running[pool.submit(_timed, f"job {name!r}", fn, *args)] = (name, cache, key)

        try:
            for group in waiting.values():
                submit(self._fit_job(group[0]))
            for cfg in ready:
                submit(self._train_job(cfg))
            while running:
                finished, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in finished:
                    name, cache, key = running.pop(future)
                    cache[key], self.job_spans[name] = future.result()
                    if cache is self._dl:
                        for cfg in waiting[key]:
                            submit(self._train_job(cfg))
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    def scenario(self, cfg: ScenarioConfig) -> RunReport:
        fixture = self.fixture(cfg)
        trained = self.trained(cfg)
        preds = _predictions(cfg, fixture, trained)
        methods = {name: compute_report(preds["actual"], preds[name]) for name in SCENARIO_METHODS[cfg.id]}
        return RunReport(cfg.id, methods, preds, fixture, {"pgmn": trained})

    def ablation_mu(self, cfg: ScenarioConfig) -> RunReport:
        if cfg.id != 1:
            raise ConfigError("the memory-unit ablation runs under scenario 1")
        with_mu, without_mu = _mu_variants(cfg)
        self.prefetch([with_mu, without_mu])
        fixture = self.fixture(cfg)
        trainings = {"with_mu": self.trained(with_mu), "without_mu": self.trained(without_mu)}
        preds = _predictions(cfg, fixture, trainings["with_mu"])
        methods = {name: compute_report(preds["actual"], preds[name]) for name in ("dl", "ep")}
        for name, trained in trainings.items():
            methods[f"pgmn_{name}"] = compute_report(preds["actual"], trained.pgmn)
        return RunReport(cfg.id, methods, preds, fixture, trainings)

    def ablation_imputation(self, cfg: ScenarioConfig) -> RunReport:
        """One pgmn metric row per imputation strategy; the predictions and
        the fixture are those of the last strategy."""
        if cfg.id != 2:
            raise ConfigError("the imputation ablation runs under scenario 2")
        variants = _imputation_variants(cfg)
        self.prefetch(variants)
        trainings = {variant.imputation: self.trained(variant) for variant in variants}
        last = variants[-1]
        fixture = self.fixture(last)
        preds = _predictions(last, fixture, trainings[last.imputation])
        methods = {name: compute_report(preds["actual"], trained.pgmn) for name, trained in trainings.items()}
        return RunReport(cfg.id, methods, preds, fixture, trainings)


def _predictions(cfg: ScenarioConfig, fixture: Fixture, trained: TrainedModel) -> dict[str, np.ndarray | None]:
    """The test-split series of ``fixture`` and the predictions of ``trained``."""
    i = trained.i_test
    return {
        "timestamps": fixture.timestamps[i:],
        "actual": fixture.truth.values[i:],
        "dl": fixture.dl.values[i:] if cfg.dl_available else None,
        "ep": fixture.physics.values[i:] if cfg.ep_available else None,
        "pgmn": trained.pgmn,
    }


def build_fixture(cfg: ScenarioConfig) -> Fixture:
    """The aligned series for one scenario, built from scratch."""
    return _Stages().fixture(cfg)


def _fit_dl(cfg: ScenarioConfig, lag_source: EnergySeries, temp_c: np.ndarray) -> EnergySeries:
    """Fit the data-driven baseline on ``lag_source`` and roll out its
    day-ahead forecast."""
    feats = build_feature_rows(lag_source, temp_c)
    forecaster = train_baseline_forecaster(feats, cfg.split, cfg.seed + SEED_BASELINE)
    return forecast_dl(forecaster, feats)


def _train_on_fixture(cfg: ScenarioConfig, fixture: Fixture) -> TrainedModel:
    """Assemble, normalize, train, and predict the test split (denormalized)."""
    samples = assemble_samples(fixture.dl, fixture.physics, fixture.label_truth, cfg)
    train_s, val_s, test_s = split_samples(samples, cfg.split)
    stats = fit_norm_stats(train_s)
    norm_train = normalize_samples(train_s, stats)
    norm_val = normalize_samples(val_s, stats)
    norm_test = normalize_samples(test_s, stats)

    dims = replace(DEFAULT_DIMS, memory_enabled=cfg.memory_unit_enabled)
    params0 = init_params(dims, cfg.seed + SEED_INIT)
    params, history = train(norm_train, params0, cfg.train, norm_val)
    yhat = denormalize_target(predict(norm_test, params), stats)
    return TrainedModel(params, stats, history, yhat, len(train_s), len(train_s) + len(val_s), cfg.train)


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


def _write_predictions_csv(out: Path, report: RunReport) -> None:
    """predictions_scenario<id>.csv: one row per test hour; an absent
    stream leaves its column empty."""
    preds = report.predictions
    columns = {key: preds[key] for key in ("actual", "dl", "ep", "pgmn")}
    write_timestamped_csv(out / f"predictions_scenario{report.scenario}.csv", preds["timestamps"], columns)


def _metric_rows(report: RunReport, prefix: str = "") -> list[str]:
    """One metrics-CSV row per method of ``report``, in report order."""
    return [csv_row(report.scenario, prefix + m, r) for m, r in report.methods.items()]


def _write_metrics_csv(path: Path, rows: list[str]) -> None:
    _write_lines(path, [CSV_HEADER, *rows])


def _write_ablation_mu(out: Path, report: RunReport) -> None:
    """ablation_mu.csv (each test hour's inputs, actual, and both
    variants' predictions with their signed errors ``yhat - y``, then the
    mean |signed error|, which is each variant's MAE) and
    ablation_mu_metrics.csv."""
    preds = report.predictions
    columns = (preds["dl"], preds["ep"], preds["actual"], report.trainings["with_mu"].pgmn, report.trainings["without_mu"].pgmn)
    lines = ["DL,EP,Actual Energy,PgMN (With MU),PgMN (Without MU)"]
    for dl, ep, actual, pw, po in zip(*(column.tolist() for column in columns)):
        lines.append(f"{dl:.2f},{ep:.2f},{actual:.2f},{pw:.2f} ({pw - actual:+.2f}),{po:.2f} ({po - actual:+.2f})")
    lines.append(f"Mean Error,,,{report.methods['pgmn_with_mu'].mae:.2f},{report.methods['pgmn_without_mu'].mae:.2f}")
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


def _methods_json(report: RunReport) -> dict:
    return {m: asdict(r) for m, r in report.methods.items()}


def _stage(seconds: dict[str, float], name: str, fn, *args):
    """Run one named stage of ``run_all`` under ``_timed``; its wall seconds
    go into ``seconds[name]``."""
    result, (t0, t1, _) = _timed(f"stage {name!r}", fn, *args)
    seconds[name] = t1 - t0
    return result


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
    summary: dict = {"version": version_stamp(), "seed": seed, "fast": fast, "scenarios": {}}

    def save(stem: str, trained: TrainedModel) -> dict:
        """Write the checkpoint of ``trained`` and return its `training` summary."""
        save_checkpoint(ckpt_dir / f"{stem}.ckpt", trained.params, trained.norm)
        return trained.summary()

    _stage(seconds, "world", stages.world, seed, FAST_HOURS if fast else FULL_HOURS)
    cfgs = {sid: scenario_config(sid, seed=seed, fast=fast) for sid in (1, 2, 3, 4, 5)}
    plan = [*cfgs.values(), *_mu_variants(cfgs[1]), *_imputation_variants(cfgs[2])]
    _stage(seconds, "jobs", stages.prefetch, plan)
    for sid, cfg in cfgs.items():
        report = _stage(seconds, f"scenario{sid}", stages.scenario, cfg)
        trained = report.trainings["pgmn"]
        scenario_rows.extend(_metric_rows(report))
        history_rows.extend(f"{sid},{epoch},{tr!r},{va!r}" for epoch, (tr, va) in enumerate(trained.history))
        _write_predictions_csv(out, report)
        if sid == 1:
            _write_calibration_csv(out / "calibration.csv", report.fixture)
        summary["scenarios"][str(sid)] = {
            "config": asdict(cfg),
            "methods": _methods_json(report),
            "training": save(f"scenario{sid}", trained),
        }
    _write_metrics_csv(out / "scenario_table.csv", scenario_rows)
    _write_lines(out / "train_history.csv", history_rows)

    mu = _stage(seconds, "ablation_mu", stages.ablation_mu, cfgs[1])
    _write_ablation_mu(out, mu)
    summary["ablation_mu"] = {"methods": _methods_json(mu), "training": {
        "with_mu": save("ablation_mu_with", mu.trainings["with_mu"]),
        "without_mu": save("ablation_mu_without", mu.trainings["without_mu"]),
    }}

    imp = _stage(seconds, "ablation_imputation", stages.ablation_imputation, cfgs[2])
    _write_ablation_imputation(out, imp)
    summary["ablation_imputation"] = {"methods": _methods_json(imp), "training": {
        strategy: save(f"ablation_imputation_{strategy}", trained) for strategy, trained in imp.trainings.items()
    }}

    summary["stages"] = seconds
    spans = sorted(stages.job_spans.items(), key=lambda item: item[1])
    summary["jobs"] = {name: {"start_s": a - t0, "end_s": b - t0, "cpu_s": cpu} for name, (a, b, cpu) in spans}
    summary["wall_seconds_total"] = time.perf_counter() - t0
    # This process's own peak RSS so far, then its finished children's: the
    # trainings run in worker processes, so the first does not cover them.
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary["peak_rss_children_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    summary["files"] = sorted(p.name for p in out.iterdir() if p.is_file())
    # json writes tuples as lists and a float64 as a float; the hook turns
    # other numpy scalars, such as an np.int64 seed, into Python numbers
    (out / "run_summary.json").write_text(json.dumps(summary, indent=2, default=lambda o: o.item()) + "\n", encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# Flat key=value scenario config files
# ---------------------------------------------------------------------------

def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("1", "true", "yes"):
        return True
    if low in ("0", "false", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


# One parser per field type; a field annotated with another type fails
# here, at import.  Annotations are strings (``from __future__ import
# annotations``).  ``batch_size`` reads as an int: 0 selects None.
_PARSERS = {"bool": _parse_bool, "int": int, "int | None": int, "float": float, "str": str}


def _key_parsers(cls, *skip: str) -> dict:
    return {f.name: _PARSERS[f.type] for f in fields(cls) if f.name not in skip}


_SPLIT_PARSERS = _key_parsers(SplitSpec)
_TRAIN_PARSERS = _key_parsers(TrainConfig, "seed")  # the seed derives from the master seed
_CONFIG_PARSERS = {**_key_parsers(ScenarioConfig, "split", "train"), **_SPLIT_PARSERS, **_TRAIN_PARSERS}


def load_scenario_config(path, seed: int | None = None, fast: bool = False) -> ScenarioConfig:
    """Parse a flat key=value file of ScenarioConfig, SplitSpec and
    TrainConfig fields; unknown or repeated keys are rejected.  ``seed``
    (when given) and ``fast`` override the file: with ``fast`` the fixture
    is ``FAST_HOURS`` long whatever ``year_hours`` the file sets."""
    try:
        values = read_key_values(path, _CONFIG_PARSERS)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        if "id" not in values:
            raise ValueError("scenario config must set id")
        sid = values.pop("id")
        file_seed = values.pop("seed", DEFAULT_SEED)
        cfg_seed = file_seed if seed is None else seed
        if fast:
            values.pop("year_hours", None)
        split = {k: values.pop(k) for k in _SPLIT_PARSERS if k in values}
        values["split"] = SplitSpec(**split)
        train_kwargs = {k: values.pop(k) for k in _TRAIN_PARSERS if k in values}
        if train_kwargs.get("batch_size") == 0:
            train_kwargs["batch_size"] = None  # 0 selects the literal full-epoch mode
        values["train"] = replace(DEFAULT_TRAIN, **train_kwargs)
        return scenario_config(sid, seed=cfg_seed, fast=fast, **values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
