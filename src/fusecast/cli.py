"""Command-line entry point.

Subcommands: scenario, ablation, all, simulate, train-baseline.
Exit codes: 0 success, 1 configuration error, 2 runtime/training failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import harness
from .harness import (
    DEFAULT_SEED,
    FAST_HOURS,
    FULL_HOURS,
    SEED_WEATHER,
    ConfigError,
    RunReport,
    _Stages,
    _metric_rows,
    _write_ablation_imputation,
    _write_ablation_mu,
    _write_metrics_csv,
    _write_predictions_csv,
    check_seed,
    load_scenario_config,
    run_ablation_imputation,
    run_ablation_mu,
    run_all,
    run_scenario,
    scenario_config,
)
from .model import save_checkpoint
from .pipeline import write_timestamped_csv
from .surrogates import BuildingParams, load_building_params, make_weather, simulate_physics


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help=f"master seed (default {DEFAULT_SEED}; scenario --config: the file's seed)")
    p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    p.add_argument("--fast", action="store_true", help=f"use the short {FAST_HOURS}-hour fixture")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fusecast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scenario", help="run one input-availability scenario")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--id", type=int, help="scenario id 1..5")
    which.add_argument("--config", type=Path, help="flat key=value scenario config file")
    _add_common(p)

    p = sub.add_parser("ablation", help="run one of the ablation studies")
    p.add_argument("--kind", choices=("mu", "imputation"), required=True)
    _add_common(p)

    p = sub.add_parser("all", help="run scenarios 1-5 plus both ablations")
    _add_common(p)

    p = sub.add_parser("simulate", help="run the physics surrogate and emit CSVs")
    p.add_argument("--config", type=Path, help="flat key=value building config file")
    _add_common(p)

    p = sub.add_parser("train-baseline", help="train the data-driven baseline and emit its forecast")
    _add_common(p)
    return parser


def _seed(args) -> int:
    return DEFAULT_SEED if args.seed is None else args.seed


def _print_methods(report: RunReport, label: str) -> None:
    print(f"{label}:")
    for method, rep in report.methods.items():
        print(
            f"  {method:>24}: smape {rep.smape:7.3f}%  mae {rep.mae:8.3f}  "
            f"rmse {rep.rmse:8.3f}  mean_error {rep.mean_error:+8.3f}"
        )


def _cmd_scenario(args) -> int:
    if args.config is not None:
        cfg = load_scenario_config(args.config, seed=args.seed, fast=args.fast)
    else:
        cfg = scenario_config(args.id, seed=_seed(args), fast=args.fast)
    report = run_scenario(cfg)
    args.out.mkdir(parents=True, exist_ok=True)
    _write_predictions_csv(args.out, report)
    trained = report.trainings["pgmn"]
    save_checkpoint(args.out / f"scenario{cfg.id}.ckpt", trained.params, trained.norm)
    _write_metrics_csv(args.out / f"scenario{cfg.id}_metrics.csv", _metric_rows(report))
    _print_methods(report, f"scenario {cfg.id}")
    return 0


def _cmd_ablation(args) -> int:
    cfg = scenario_config(1 if args.kind == "mu" else 2, seed=_seed(args), fast=args.fast)
    args.out.mkdir(parents=True, exist_ok=True)
    if args.kind == "mu":
        report = run_ablation_mu(cfg)
        _write_ablation_mu(args.out, report)
        _print_methods(report, "memory-unit ablation (scenario 1)")
    else:
        report = run_ablation_imputation(cfg)
        _write_ablation_imputation(args.out, report)
        _print_methods(report, "imputation ablation (scenario 2)")
    return 0


def _cmd_all(args) -> int:
    code = run_all(args.out, seed=_seed(args), fast=args.fast)
    print(f"wrote reports to {args.out}")
    return code


def _cmd_simulate(args) -> int:
    seed = _seed(args)
    check_seed(seed)
    if args.config is not None:
        try:
            building = load_building_params(args.config)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    else:
        building = BuildingParams()
    hours = FAST_HOURS if args.fast else FULL_HOURS
    weather = make_weather(hours, seed + SEED_WEATHER)
    physics = simulate_physics(building, weather)
    args.out.mkdir(parents=True, exist_ok=True)
    write_timestamped_csv(args.out / "weather_temp_c.csv", weather.timestamps, {"temp_c": weather.temp_c})
    write_timestamped_csv(args.out / "physics_energy.csv", physics.timestamps, {"value": physics.values})
    print(f"simulated {hours} hours: total {physics.values.sum():.1f} kWh")
    return 0


def _cmd_train_baseline(args) -> int:
    seed = _seed(args)
    check_seed(seed)
    stages = _Stages()
    truth = stages.world(seed, FAST_HOURS if args.fast else FULL_HOURS).truth
    forecast = stages.dl(scenario_config(1, seed=seed, fast=args.fast))
    args.out.mkdir(parents=True, exist_ok=True)
    write_timestamped_csv(args.out / "baseline_forecast.csv", forecast.timestamps, {"value": forecast.values})
    write_timestamped_csv(args.out / "truth_energy.csv", truth.timestamps, {"value": truth.values})
    print(f"baseline forecast written for {forecast.n} hours")
    return 0


_COMMANDS = {
    "scenario": _cmd_scenario,
    "ablation": _cmd_ablation,
    "all": _cmd_all,
    "simulate": _cmd_simulate,
    "train-baseline": _cmd_train_baseline,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # --help exits 0; a usage error (a bad or missing argument) is a
        # configuration error.
        return 0 if exc.code in (0, None) else 1
    # A second BLAS thread buys no wall-clock time at these matrix sizes; it
    # only burns a CPU (a no-op when BLAS is already pinned to one thread).
    harness._one_blas_thread()
    try:
        # before any work: the nearest existing ancestor of --out must be a directory
        existing = next(path for path in (args.out, *args.out.parents) if path.exists())
        if not existing.is_dir():
            raise ConfigError(f"--out {args.out}: {existing} is not a directory")
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # any other failure, a MemoryError too, is a runtime failure
        print(f"run failed: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
