"""Run the benchmark over many seeds and summarise each end-to-end metric.

    python3 perfbench/sweep.py --workloads all --seeds 1-10
    python3 perfbench/sweep.py --workloads fuse_day_ahead --seeds 1-5 --out summary.json
    python3 perfbench/sweep.py --workloads all --seeds 1-10 --trace-seed 42 --record

For every workload it runs ``run.py`` once per seed with tracing off and
prints, per metric, the median, the quartiles (``statistics.quantiles`` with
``n=4``) and the spread: the distance between the quartiles as a share of
the median, next to the metric's bound in ``BENCHMARK.json``.
``--trace-seed`` adds one traced run for the per-layer numbers.
``--record`` writes the summary, with every run's output hashes, to
``perfbench/baseline.json``, which ``run.py`` compares hashes against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    cfg = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in cfg["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default="all", help="comma-separated names, or all")
    p.add_argument("--seeds", default="1-10", help="for example 1-10 or 3,5,8")
    p.add_argument("--seconds", type=int, default=cfg["run_seconds"])
    p.add_argument("--trace-seed", type=int, default=None)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--record", action="store_true", help="write perfbench/baseline.json")
    args = p.parse_args()
    workloads = names if args.workloads == "all" else args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in cfg["end_to_end"]}

    summary: dict = {"seconds": args.seconds, "workloads": {}, "hashes": {}}
    for wl in workloads:
        runs: list[dict] = []
        hashes: dict[str, str] = {}
        for seed in seed_list(args.seeds):
            report, result = bench(wl, seed, args.seconds, 0)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"], "metrics": values, "named": report["named"], "named_raw": report["named_raw"],
                         "outputs_moved": report["outputs_moved"]})
            hashes.update(report["hashes"])
            summary["env"] = report["env"]
            print(f"{wl} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)
        stats = {k: summarise([r["metrics"][k] for r in runs]) for k in runs[0]["metrics"]}
        entry = {"seeds": [r["seed"] for r in runs], "end_to_end": stats, "runs": runs}
        if args.trace_seed is not None:
            report, result = bench(wl, args.trace_seed, args.seconds, 1)
            entry["per_layer"] = {"seed": args.trace_seed, "correct": result["correct"],
                                  "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
        summary["workloads"][wl] = entry
        summary["hashes"][wl] = hashes
        print(f"\n{wl}: {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for k, s in stats.items():
            flag = "" if s["spread"] <= bounds[k] / 3 or k == "setup_s" else "  > bound/3"
            print(f"{wl}: {k:<14} {s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
                  f"{s['spread']:>8.4f} {bounds[k]:>6}{flag}", flush=True)
        print()

    text = json.dumps(summary, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    if args.record:
        (HERE / "baseline.json").write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
