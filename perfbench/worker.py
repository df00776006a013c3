"""One benchmark process: set up a workload, time it, check its outputs.

``run.py`` starts this file with the package on ``PYTHONPATH`` and BLAS
pinned to one thread.  It writes one JSON document to ``--result``: the
set-up time (from ``--spawned-at``, read on the monotonic clock just
before the process started), the time of every timed operation, raw and
scaled (see ``clock.py``), failures, accuracy, output hashes and, with
``--trace 1``, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from clock import WINDOW_S, Calibrator


def run_loop(wl, cal: Calibrator, seconds: float, min_ops: int, first_index: int, errors: list) -> dict:
    """Closed loop, one client: the next operation starts when the last one
    and its output check are done.  Checks do not count as loop time, and
    calibration samples taken inside an operation do not count as its time."""
    spans: list[tuple[float, float, float]] = []  # (start, end, raw seconds)
    failed = 0
    checks = 0.0
    start = time.perf_counter()
    while len(spans) < min_ops or time.perf_counter() - start - checks < seconds:
        i = first_index + len(spans)
        spent = cal.spent
        t0 = time.perf_counter()
        try:
            result = wl.op(i)
        except Exception:  # an operation that raises is a failed operation
            t1 = time.perf_counter()
            spans.append((t0, t1, t1 - t0 - (cal.spent - spent)))
            failed += 1
            errors.append(traceback.format_exc(limit=3))
            continue
        t1 = time.perf_counter()
        spans.append((t0, t1, t1 - t0 - (cal.spent - spent)))
        try:
            wl.check(i, result)
        except Exception as exc:
            failed += 1
            errors.append(f"op {i}: {exc!r}")
        checks += time.perf_counter() - t1
    return {
        "op_raw_s": [raw for _, _, raw in spans],
        "op_s": [raw * cal.speed(t0, t1) for t0, t1, raw in spans],
        "failed": failed,
    }


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() just before this process started")
    p.add_argument("--tmp", type=Path, required=True)
    p.add_argument("--result", type=Path, required=True)
    args = p.parse_args()
    args.tmp.mkdir(parents=True, exist_ok=True)

    cal = Calibrator()
    cal.start()
    try:
        result = measure(args, cal)
    finally:
        cal.stop()
    args.result.write_text(json.dumps(result))
    return 0


def measure(args, cal: Calibrator) -> dict:
    # Imported while calibrating: importing the program is part of set-up.
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    wl = WORKLOADS[args.workload](args.seed, args.tmp, bool(args.trace))
    wl.setup()
    ready, ready_mono = time.perf_counter(), time.monotonic()
    setup_raw = ready_mono - args.spawned_at
    result = {"setup_raw_s": setup_raw, "env": environment()}
    if args.setup_only:
        if not cal.at:
            time.sleep(WINDOW_S)  # no sample fell inside set-up: take some just after it
        result["setup_s"] = setup_raw * cal.speed(ready - setup_raw, ready)
        return result

    errors: list[str] = []
    if tracer:
        # Half the time untraced, half traced: the difference is the overhead.
        setup_snap = tracer.snapshot()
        tracer.uninstall()
        plain = run_loop(wl, cal, args.seconds / 2, max(1, wl.min_ops // 2), 0, errors)
        tracer.install()
        traced = run_loop(wl, cal, args.seconds / 2, max(1, wl.min_ops - len(plain["op_s"])), len(plain["op_s"]), errors)
        tracer.uninstall()
        loops = [plain, traced]
        overhead = float(np.mean(traced["op_s"]) - np.mean(plain["op_s"]))
        result["layers"] = layer_metrics(tracer, setup_snap, tracer.snapshot(), len(traced["op_s"]), overhead)
        result["missing_lookups"] = tracer.missing
    else:
        loops = [run_loop(wl, cal, args.seconds, wl.min_ops, 0, errors)]
    failed = sum(lp["failed"] for lp in loops)
    try:
        result.update(wl.finish())
    except Exception as exc:
        errors.append(f"finish: {exc!r}")
        result["mae"] = None
        failed += 1
    result.update({
        "setup_s": setup_raw * cal.speed(ready - setup_raw, ready),
        "op_s": [t for lp in loops for t in lp["op_s"]],
        "op_raw_s": [t for lp in loops for t in lp["op_raw_s"]],
        "failed": failed,
        "errors": errors[:5],
        "calibration_samples": len(cal.took),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    return result


if __name__ == "__main__":
    sys.exit(main())
