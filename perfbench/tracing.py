"""Per-layer tracing for the benchmark, done entirely from outside the package.

Each traced function is wrapped under the name its caller looks up: the
harness imports most library functions by name, and ``model`` and
``surrogates`` each import ``adam_step`` by name, so the wrapper has to
replace ``fusecast.harness.build_fixture``, ``fusecast.model.adam_step``,
``fusecast.surrogates.adam_step`` and so on, not only the defining module's
attribute.  A wrapper records one span per call (inclusive time, and the
time its traced children took), aggregated per layer name in memory.
"""

from __future__ import annotations

import hashlib
import importlib
import time
from dataclasses import fields, is_dataclass

import numpy as np

# (module, attribute the caller looks up, layer name).  Several lookups may
# share one layer name when the same function is reached through two modules.
PATCHES = (
    ("fusecast.cli", "main", "cli.main"),
    ("fusecast.cli", "run_all", "harness.run_all"),
    # Traced so that run_all's self time is its report writing alone.
    ("fusecast.harness", "run_scenario", "harness.run_scenario"),
    ("fusecast.harness", "run_ablation_mu", "harness.run_ablation_mu"),
    ("fusecast.harness", "run_ablation_imputation", "harness.run_ablation_imputation"),
    ("fusecast.harness", "build_fixture", "harness.build_fixture"),
    ("fusecast.harness", "version_stamp", "harness.version_stamp"),
    ("fusecast.harness", "make_weather", "surrogates.make_weather"),
    ("fusecast.harness", "simulate_physics", "surrogates.simulate_physics"),
    ("fusecast.harness", "make_truth", "surrogates.make_truth"),
    ("fusecast.harness", "train_baseline_forecaster", "surrogates.train_baseline_forecaster"),
    ("fusecast.harness", "forecast_dl", "surrogates.forecast_dl"),
    ("fusecast.surrogates", "adam_step", "numkit.adam_step.baseline"),
    ("fusecast.harness", "build_feature_rows", "pipeline.build_feature_rows"),
    ("fusecast.harness", "impute", "pipeline.impute"),
    ("fusecast.pipeline", "impute", "pipeline.impute"),
    ("fusecast.harness", "assemble_samples", "pipeline.assemble_samples"),
    ("fusecast.pipeline", "assemble_samples", "pipeline.assemble_samples"),
    ("fusecast.harness", "fit_norm_stats", "pipeline.normalize"),
    ("fusecast.pipeline", "fit_norm_stats", "pipeline.normalize"),
    ("fusecast.harness", "normalize_samples", "pipeline.normalize"),
    ("fusecast.pipeline", "normalize_samples", "pipeline.normalize"),
    ("fusecast.harness", "train", "model.train"),
    ("fusecast.model", "train", "model.train"),
    ("fusecast.model", "adam_step", "numkit.adam_step.fusion"),
    ("fusecast.harness", "predict", "model.predict"),
    ("fusecast.model", "predict", "model.predict"),
    ("fusecast.harness", "save_checkpoint", "model.save_checkpoint"),
    ("fusecast.model", "save_checkpoint", "model.save_checkpoint"),
    ("fusecast.model", "load_checkpoint", "model.load_checkpoint"),
    ("fusecast.harness", "compute_report", "metrics.compute_report"),
)


def digest(obj) -> str:
    """Content hash of a config, array or parameter set, for waste ratios."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(f"{x.dtype}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif is_dataclass(x):
            h.update(type(x).__name__.encode())
            for f in fields(x):
                feed(getattr(x, f.name))
        elif isinstance(x, (list, tuple)):
            for item in x:
                feed(item)
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()


class Tracer:
    """Aggregated spans and counters, keyed by layer name."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.incl: dict[str, float] = {}
        self.child: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.keys: dict[str, list[str]] = {}
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def key(self, name: str, value: str) -> None:
        self.keys.setdefault(name, []).append(value)

    def _observe(self, name: str, args, out) -> None:
        """Counters that need a call's arguments or result."""
        if name == "harness.build_fixture":
            self.key("fixture", digest(args[0]))
        elif name == "surrogates.simulate_physics":
            self.key("weather_physics", digest(args))
        elif name == "pipeline.assemble_samples":
            self.count("samples_built", len(out))
        elif name == "pipeline.normalize" and isinstance(out, list):
            self.count("samples_normalized", len(out))
        elif name == "model.train":
            params, history = out
            self.count("epochs", len(history))
            self.key("train", digest(params.flatten()))
        elif name == "model.predict":
            self.count("samples_predicted", len(args[0]))

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._stack.pop()
                self.calls[name] = self.calls.get(name, 0) + 1
                self.incl[name] = self.incl.get(name, 0.0) + dt
                self.child[name] = self.child.get(name, 0.0) + child
                if self._stack:
                    self._stack[-1] += dt
            self._observe(name, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                # The lookup name is gone from the program; its layer reads 0.
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "incl": dict(self.incl),
            "child": dict(self.child),
            "counts": dict(self.counts),
        }


def _minus(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def layer_metrics(tracer: Tracer, setup: dict, end: dict, ops: int, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics: the set-up once plus one average timed operation.

    ``setup`` and ``end`` are snapshots taken when set-up finished and when
    the traced loop finished; loop totals are divided by ``ops``.
    """
    def part(kind: str) -> dict[str, float]:
        loop = _minus(end[kind], setup[kind])
        names = set(setup[kind]) | set(loop)
        return {k: setup[kind].get(k, 0) + loop.get(k, 0) / ops for k in names}

    calls, incl, child, counts = part("calls"), part("incl"), part("child"), part("counts")

    def s(name):
        return incl.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    def self_s(name):
        return incl.get(name, 0.0) - child.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    def distinct(kind):
        seen = tracer.keys.get(kind, [])
        return ratio(len(set(seen)), len(seen))

    out = {
        "cli.main.self_s": self_s("cli.main"),
        "harness.run_all.self_s": self_s("harness.run_all"),
        "harness.build_fixture.s": s("harness.build_fixture"),
        "harness.build_fixture.calls": n("harness.build_fixture"),
        "harness.version_stamp.s": s("harness.version_stamp"),
        "harness.version_stamp.calls": n("harness.version_stamp"),
        "harness.fixture_distinct_ratio": distinct("fixture"),
        "harness.weather_physics_distinct_ratio": distinct("weather_physics"),
        "harness.train_distinct_ratio": distinct("train"),
    }
    for fn in ("make_weather", "simulate_physics", "make_truth", "train_baseline_forecaster", "forecast_dl"):
        out[f"surrogates.{fn}.s"] = s(f"surrogates.{fn}")
        out[f"surrogates.{fn}.calls"] = n(f"surrogates.{fn}")
    out["surrogates.baseline_updates"] = n("numkit.adam_step.baseline")
    for fn in ("build_feature_rows", "assemble_samples", "impute"):
        out[f"pipeline.{fn}.s"] = s(f"pipeline.{fn}")
        out[f"pipeline.{fn}.calls"] = n(f"pipeline.{fn}")
    out["pipeline.normalize.s"] = s("pipeline.normalize")
    out["pipeline.samples_built"] = counts.get("samples_built", 0)
    out["pipeline.normalize.us_per_sample"] = 1e6 * ratio(s("pipeline.normalize"), counts.get("samples_normalized", 0))
    updates = n("numkit.adam_step.fusion")
    out.update({
        "model.train.self_s": self_s("model.train"),
        "model.train.calls": n("model.train"),
        "model.epochs": counts.get("epochs", 0),
        "model.updates": updates,
        "model.train.us_per_update": 1e6 * ratio(s("model.train"), updates),
        "model.predict.s": s("model.predict"),
        "model.predict.us_per_sample": 1e6 * ratio(s("model.predict"), counts.get("samples_predicted", 0)),
        "model.save_checkpoint.s": s("model.save_checkpoint"),
        "model.load_checkpoint.s": s("model.load_checkpoint"),
        "numkit.adam_step.fusion.s": s("numkit.adam_step.fusion"),
        "numkit.adam_step.fusion.calls": updates,
        "numkit.adam_step.fusion.us_per_call": 1e6 * ratio(s("numkit.adam_step.fusion"), updates),
        "numkit.adam_step.baseline.s": s("numkit.adam_step.baseline"),
        "numkit.adam_step.baseline.calls": n("numkit.adam_step.baseline"),
        "metrics.compute_report.s": s("metrics.compute_report"),
        "metrics.compute_report.calls": n("metrics.compute_report"),
        "trace.overhead_s": overhead_s,
    })
    return out
