"""fusecast benchmark: three workloads, timed end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload experiment_full --seed 42 --seconds 15 --trace 0

Workloads (one client, closed loop, BLAS pinned to one thread):

- ``experiment_full``: ``fusecast all`` on the full 8,760-hour year.
- ``train_fullbatch``: ``model.train`` with one update per epoch on the
  full-year scenario-1 samples, a fixed number of epochs per call.
- ``fuse_day_ahead``: day-ahead fusion requests of 24 hourly forecasts each
  against a checkpoint trained, saved and reloaded during set-up.

Each run starts fresh worker processes (``worker.py``): with ``--trace 0``
two of them only set up, and the third sets up and then times the workload
for ``--seconds``.  With ``--trace 1`` one worker traces every layer.  The
output checks run in the worker; a run whose outputs fail a check reports
``"correct": false``.  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it is a report with the environment, the seed, the output
hashes and whether they moved against ``baseline.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("experiment_full", "train_fullbatch", "fuse_day_ahead")
SETUPS = 3  # set-ups per run; setup_s is their median
BUDGET_S = 170.0  # a run ends within this many seconds or fails
STATE_FILE = ".perfbench_state/hashes.json"  # output hashes of earlier runs
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def worker_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # version_stamp runs git; keep it from searching above the checkout.
    env["GIT_CEILING_DIRECTORIES"] = str(root.parent)
    return env


def spawn(args, root: Path, tmp: Path, name: str, deadline: float, setup_only: bool = False) -> dict:
    """Run one worker to completion and return its result."""
    result = tmp / f"{name}.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--tmp", str(tmp / name), "--result", str(result),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t_spawn = time.monotonic()
    cmd += ["--spawned-at", repr(t_spawn)]
    proc = subprocess.Popen(cmd, cwd=root, env=worker_env(root), stdout=sys.stderr.fileno())
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker {name} ran past the {BUDGET_S:.0f} s budget")
    if code != 0 or not result.is_file():
        raise BenchError(f"worker {name} exited with code {code}")
    return json.loads(result.read_text())


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(res: dict, setups: list[dict]) -> dict:
    op_ms = [1e3 * t for t in res["op_s"]]
    attempted = len(op_ms)
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
        "op_p50_ms": (statistics.median(op_ms), "ms"),
        # p95: the highest percentile with ten samples beyond it on every
        # workload but experiment_full, whose two samples allow none.
        "op_p95_ms": (quantile(op_ms, 95), "ms"),
        "ops_per_s": (attempted / (sum(op_ms) / 1e3), "1/s"),
        # 0 only when the outputs could not be scored; the run is then not correct.
        "pgmn_mae_kwh": (res["mae"] or 0.0, "kWh"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "ok_frac": ((attempted - res["failed"]) / attempted, "fraction"),
    }


def named(workload: str, res: dict, op_s: list[float]) -> dict:
    """The workload's figures under the names its users know them by:
    value, unit and sample count."""
    op_ms = [1e3 * t for t in op_s]
    n = len(op_ms)
    if workload == "experiment_full":
        return {"experiment_s": [statistics.median(op_ms) / 1e3, "s", n]}
    if workload == "train_fullbatch":
        epochs = res["epochs_per_op"]
        epoch_ms = [t / epochs for t in op_ms]
        return {
            "train_samples_per_s": [epochs * res["train_rows"] * n / (sum(op_ms) / 1e3), "samples/s", n * epochs],
            "epoch_p50_ms": [statistics.median(epoch_ms), "ms", n],
            "epoch_p99_ms": [quantile(epoch_ms, 99), "ms", n],
        }
    return {
        "requests_per_s": [n / (sum(op_ms) / 1e3), "req/s", n],
        "request_p50_ms": [statistics.median(op_ms), "ms", n],
        "request_p99_ms": [quantile(op_ms, 99), "ms", n],
    }


def code_digest(root: Path) -> str:
    """Hash of every file of the package, so recorded hashes belong to one
    version of the code."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def differing(recorded: dict, hashes: dict) -> list[str]:
    return sorted(k for k in recorded.keys() & hashes.keys() if recorded[k] != hashes[k])


def check_repeat(root: Path, workload: str, hashes: dict) -> list[str]:
    """Outputs that differ from an earlier run of the same code in this
    checkout.  Hashes are labelled by the seed that made them, so such a
    difference breaks determinism and fails the run."""
    path = root / STATE_FILE
    state = json.loads(path.read_text()) if path.is_file() else {}
    recorded = state.setdefault(code_digest(root), {}).setdefault(workload, {})
    bad = differing(recorded, hashes)
    recorded.update({k: v for k, v in hashes.items() if k not in recorded})
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(state))
    return bad


def outputs_moved(workload: str, hashes: dict) -> bool | None:
    """Whether the outputs differ from those recorded in ``baseline.json``
    (None when it records none of them).  A move is reported, not failed."""
    path = HERE / "baseline.json"
    recorded = json.loads(path.read_text())["hashes"].get(workload, {}) if path.is_file() else {}
    if not recorded.keys() & hashes.keys():
        return None
    return bool(differing(recorded, hashes))


def layer_units(layers: dict) -> dict:
    def unit(name: str) -> str:
        if name.endswith((".s", "_s")):
            return "s"
        if name.endswith("ratio"):
            return "ratio"
        if name.startswith("pipeline.samples") or name.endswith(("calls", "updates", "epochs")):
            return "count"
        if name.endswith(("us_per_sample", "us_per_update", "us_per_call")):
            return "us"
        raise KeyError(name)

    return {k: (v, unit(k)) for k, v in layers.items()}


def run(args, root: Path) -> tuple[dict, dict]:
    if not (root / "src" / "fusecast" / "__init__.py").is_file():
        raise BenchError(f"no fusecast package under {root / 'src'}; run from the root of a checkout")
    deadline = time.monotonic() + BUDGET_S
    tmp = root / ".perfbench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            setups = [spawn(args, root, tmp, f"setup{k}", deadline, setup_only=True) for k in range(SETUPS - 1)]
        res = spawn(args, root, tmp, "main", deadline)
        setups.append(res)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    attempted, failed = len(res["op_s"]), res["failed"]
    errors = list(res["errors"])
    repeat = check_repeat(root, args.workload, res.get("hashes", {}))
    if repeat:
        failed = min(attempted, failed + 1)
        errors.append(f"outputs differ from an earlier run of this code: {repeat}")
    correct = failed == 0 and res["mae"] is not None
    if args.trace:
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in layer_units(res["layers"]).items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end(res, setups).items()}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": res["env"],
        "setup_s": [r["setup_s"] for r in setups],
        "setup_raw_s": [r["setup_raw_s"] for r in setups],
        "calibration_samples": res.get("calibration_samples"),
        "op_count": attempted,
        "named": named(args.workload, res, res["op_s"]) if res["mae"] is not None else {},
        "named_raw": named(args.workload, res, res["op_raw_s"]) if res["mae"] is not None else {},
        "pgmn_mae_kwh": res["mae"],
        "pgmn_mae_kwh_by_seed": res.get("mae_by_seed"),
        "hashes": res.get("hashes", {}),
        "outputs_moved": outputs_moved(args.workload, res.get("hashes", {})),
        "errors": errors,
        "missing_lookups": res.get("missing_lookups", []),
    }
    return report, {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        report, result = run(args, Path.cwd())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
