"""The three benchmark workloads.

Each has ``setup()``, ``op(i)`` (the timed operation), ``check(i, result)``
(the output check, untimed) and ``finish()`` (accuracy and output hashes
after the timed loop), plus ``min_ops``, the fewest operations a run does.
The program's functions are looked up on their modules at call time, so
the tracer's wrappers see the benchmark's own calls too.
"""

from __future__ import annotations

import csv
import hashlib
import shutil
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from fusecast import cli, harness, model, pipeline
from tracing import digest

# The master seed of the README's canonical experiment.
CANONICAL_SEED = 42
# train_fullbatch: epochs per `train` call.  Patience equals the epoch
# count, so every call does the same work whatever the losses do.  Four
# epochs keep the per-call packing of the samples near a tenth of a call
# and still give a run about 200 calls, enough for a 95th percentile.
FULLBATCH_EPOCHS = 4
PATTERNS = ("both", "physics_only", "data_only", "gaps")
EXPECTED_CHECKPOINTS = 10
EXPECTED_TABLE_ROWS = 12


class CheckFailed(RuntimeError):
    """An operation finished but its output is wrong."""


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def scenario1(seed: int):
    """Scenario-1 fixture, its samples split and normalised, and its config."""
    cfg = harness.scenario_config(1, seed=seed)
    fixture = harness.build_fixture(cfg)
    samples = pipeline.assemble_samples(fixture.dl, fixture.physics, fixture.label_truth, cfg)
    i_train, i_val = cfg.split.boundaries(len(samples))
    stats = pipeline.fit_norm_stats(samples[:i_train])
    norm = [pipeline.normalize_samples(part, stats) for part in (samples[:i_train], samples[i_train:i_val], samples[i_val:])]
    params0 = model.init_params(harness.DEFAULT_DIMS, seed + harness.SEED_INIT)
    return SimpleNamespace(cfg=cfg, fixture=fixture, stats=stats, train=norm[0], val=norm[1], test=norm[2], i_val=i_val, params0=params0)


class ExperimentFull:
    """`fusecast all` on the full year: the paper's whole experiment.

    An untraced run does the canonical experiment (master seed 42, the one
    the README and the fixed layer counts refer to) and the experiment at
    the workload seed.  How long early stopping lets each training run, and
    how good the data-driven baseline turns out, depend on the master seed;
    the fixed half halves that spread between runs and gives every run
    outputs to compare with earlier runs.  A traced run does the canonical
    experiment twice, untraced then traced, so its counts are the same on
    every run and the overhead compares like with like.
    """

    def __init__(self, seed: int, tmp: Path, trace: bool):
        self.tmp = tmp
        self.seeds = [CANONICAL_SEED] if trace else [CANONICAL_SEED, seed]
        self.min_ops = 2
        self.done: dict[int, dict] = {}

    def setup(self) -> None:
        pass  # imports only

    def op(self, i: int):
        out = self.tmp / f"experiment{i}"
        seed = self.seeds[i % len(self.seeds)]
        return seed, out, cli.main(["all", "--seed", str(seed), "--out", str(out)])

    def check(self, i: int, result) -> None:
        seed, out, code = result
        try:
            if code != 0:
                raise CheckFailed(f"exit code {code}")
            missing = [f for f in harness.REPORT_FILES if not (out / f).is_file()]
            if missing:
                raise CheckFailed(f"missing report files {missing}")
            with open(out / "scenario_table.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            if len(rows) != EXPECTED_TABLE_ROWS:
                raise CheckFailed(f"scenario_table.csv has {len(rows)} rows, expected {EXPECTED_TABLE_ROWS}")
            for row in rows:
                cells = [float(row[k]) for k in row if k not in ("scenario", "method")]
                if not np.all(np.isfinite(cells)):
                    raise CheckFailed(f"non-finite cell in scenario_table.csv row {row}")
            pgmn = [float(r["mae"]) for r in rows if r["method"] == "pgmn"]
            if len(pgmn) != 5:
                raise CheckFailed(f"expected 5 pgmn rows, got {len(pgmn)}")
            ckpts = sorted((out / "checkpoints").glob("*.ckpt"))
            if len(ckpts) != EXPECTED_CHECKPOINTS:
                raise CheckFailed(f"{len(ckpts)} checkpoints, expected {EXPECTED_CHECKPOINTS}")
            for path in ckpts:
                params, norm = model.load_checkpoint(path)
                values = [np.asarray(a) for a in params.flatten()]
                if norm is not None:
                    values.append(np.array(list(norm.as_dict().values())))
                if not all(np.all(np.isfinite(v)) for v in values):
                    raise CheckFailed(f"{path.name} holds non-finite values")
            hashes = {f"seed{seed}/scenario_table.csv": sha256_file(out / "scenario_table.csv")}
            hashes.update({f"seed{seed}/checkpoints/{p.name}": sha256_file(p) for p in ckpts})
            current = {"hashes": hashes, "mae": float(np.mean(pgmn))}
            if self.done.setdefault(seed, current) != current:
                raise CheckFailed(f"a second run of master seed {seed} wrote different outputs")
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def finish(self) -> dict:
        if len(self.done) < len(set(self.seeds)):
            return {"mae": None, "hashes": {}}
        return {
            # Scored on the canonical experiment, so it repeats exactly.
            "mae": self.done[CANONICAL_SEED]["mae"],
            "mae_by_seed": {str(s): d["mae"] for s, d in self.done.items()},
            "hashes": {k: v for d in self.done.values() for k, v in d["hashes"].items()},
        }


class TrainFullbatch:
    """`model.train` with one update per epoch on the scenario-1 samples."""

    min_ops = 1

    def __init__(self, seed: int, tmp: Path, trace: bool):
        self.seed = seed
        self.first: str | None = None
        self.last = None

    def setup(self) -> None:
        self.s = scenario1(self.seed)
        self.tcfg = replace(self.s.cfg.train, batch_size=None, max_epochs=FULLBATCH_EPOCHS, early_stop_patience=FULLBATCH_EPOCHS)
        self.rows = len(self.s.train)

    def op(self, i: int):
        return model.train(self.s.train, self.s.params0, self.tcfg, self.s.val)

    def check(self, i: int, result) -> None:
        params, history = result
        if len(history) != FULLBATCH_EPOCHS:
            raise CheckFailed(f"{len(history)} epochs, expected {FULLBATCH_EPOCHS}")
        if not np.all(np.isfinite(history)):
            raise CheckFailed("non-finite loss in the history")
        h = digest(params.flatten())
        if self.first is None:
            self.first = h
        elif h != self.first:
            raise CheckFailed("the same training gave different parameters")
        self.last = params

    def finish(self) -> dict:
        if self.last is None:
            return {"mae": None, "hashes": {}}
        yhat = pipeline.denormalize_target(model.predict(self.s.test, self.last), self.s.stats)
        actual = self.s.fixture.truth.values[self.s.i_val:]
        return {
            "mae": float(np.mean(np.abs(yhat - actual))),
            "hashes": {f"seed{self.seed}/params": self.first},
            "epochs_per_op": FULLBATCH_EPOCHS,
            "train_rows": self.rows,
        }


class FuseDayAhead:
    """Day-ahead fusion requests against a trained, reloaded checkpoint.

    The deployed model is fixed: the checkpoint is trained on the canonical
    scenario-1 fixture, so the forecast error does not depend on how well
    one seed's training went.  The workload seed makes the request stream.
    """

    def __init__(self, seed: int, tmp: Path, trace: bool):
        self.seed, self.tmp = seed, tmp
        self.outputs: dict[int, np.ndarray] = {}

    def setup(self) -> None:
        s = scenario1(CANONICAL_SEED)
        params, _ = model.train(s.train, s.params0, s.cfg.train, s.val)
        path = self.tmp / "fuse.ckpt"
        model.save_checkpoint(path, params, s.stats)
        self.params, self.norm = model.load_checkpoint(path)
        self.s = s
        self.requests = self._requests(s.fixture, s.i_val)
        self.min_ops = len(self.requests)  # at least one pass over the stream

    def _requests(self, fixture, start: int) -> list[SimpleNamespace]:
        """The seeded request stream: every whole test-window day once per
        availability pattern, in a seeded order."""
        rng = np.random.default_rng(self.seed)
        days = (fixture.truth.n - start) // 24
        plan = [(d, p) for d in range(days) for p in PATTERNS]
        out = []
        for k in rng.permutation(len(plan)):
            day, pattern = plan[k]
            a = start + 24 * day
            ts = fixture.timestamps[a : a + 24]
            dl = pipeline.EnergySeries.full(ts, fixture.dl.values[a : a + 24])
            ep = pipeline.EnergySeries.full(ts, fixture.physics.values[a : a + 24])
            if pattern == "gaps":
                gappy = dl if rng.integers(2) == 0 else ep
                gappy.present[rng.choice(24, size=int(rng.integers(2, 9)), replace=False)] = False
                gappy.values[~gappy.present] = np.nan
            out.append(SimpleNamespace(
                pattern=pattern,
                dl=None if pattern == "physics_only" else dl,
                ep=None if pattern == "data_only" else ep,
                truth=pipeline.EnergySeries(ts, np.full(24, np.nan), np.zeros(24, dtype=bool)),
                scenario=SimpleNamespace(
                    dl_available=pattern != "physics_only",
                    ep_available=pattern != "data_only",
                    truth_mode="absent",
                    imputation="linear_interpolation",
                ),
                actual=fixture.truth.values[a : a + 24],
                start=a - start,
            ))
        return out

    def op(self, i: int):
        r = self.requests[i % len(self.requests)]
        samples = pipeline.assemble_samples(r.dl, r.ep, r.truth, r.scenario)
        yhat = model.predict(pipeline.normalize_samples(samples, self.norm), self.params)
        return pipeline.denormalize_target(yhat, self.norm)

    def check(self, i: int, result) -> None:
        k = i % len(self.requests)
        if result.shape != (24,) or not np.all(np.isfinite(result)):
            raise CheckFailed("a request did not return 24 finite values")
        if k not in self.outputs:
            self.outputs[k] = result
        elif not np.array_equal(result, self.outputs[k]):
            raise CheckFailed("the same request gave a different forecast")

    def finish(self) -> dict:
        if len(self.outputs) < len(self.requests):
            return {"mae": None, "hashes": {}}
        # The request path must agree with one batch prediction over the
        # whole test window when both streams are present.
        f, a = self.s.fixture, self.s.i_val
        b = a + 24 * (len(self.requests) // len(PATTERNS))
        both = SimpleNamespace(dl_available=True, ep_available=True, truth_mode="absent", imputation="linear_interpolation")
        batch = pipeline.assemble_samples(f.dl.slice(a, b), f.physics.slice(a, b), f.truth.slice(a, b), both)
        ref = pipeline.denormalize_target(model.predict(pipeline.normalize_samples(batch, self.norm), self.params), self.norm)
        for k, r in enumerate(self.requests):
            if r.pattern == "both" and not np.allclose(self.outputs[k], ref[r.start : r.start + 24], rtol=1e-9, atol=1e-9):
                raise CheckFailed("a request forecast differs from the batch forecast")
        err = [np.abs(self.outputs[k] - r.actual) for k, r in enumerate(self.requests)]
        h = hashlib.sha256(b"".join(self.outputs[k].tobytes() for k in range(len(self.requests)))).hexdigest()
        return {"mae": float(np.mean(err)), "hashes": {f"seed{self.seed}/forecasts": h}}


WORKLOADS = {"experiment_full": ExperimentFull, "train_fullbatch": TrainFullbatch, "fuse_day_ahead": FuseDayAhead}
