"""Sample construction for both forecasters: hourly series with
missingness, the baseline's lag/calendar feature matrix, imputation,
sparsity injection, the fusion model's mask/target assembly, normalization
statistics, chronological splits, timestamped CSVs, and flat key=value
config files.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IMPUTATION_KINDS = (
    "nearest_neighbor",
    "linear_interpolation",
    "historical_averaging",
    "neighbor_mean_or_zero",
)

STD_FLOOR = 1e-8

_HOUR = np.timedelta64(1, "h")


class AlignmentError(ValueError):
    """Series that must share a timestamp grid do not."""


def hourly_range(start: str | np.datetime64, n: int) -> np.ndarray:
    """n contiguous hourly timestamps beginning at ``start``."""
    t0 = np.datetime64(start, "h")
    return t0 + np.arange(n) * _HOUR


def hour_of_day(timestamps: np.ndarray) -> np.ndarray:
    h = timestamps.astype("datetime64[h]").astype(np.int64)
    return (h % 24).astype(np.int64)


def day_of_week(timestamps: np.ndarray) -> np.ndarray:
    # Unix epoch 1970-01-01 was a Thursday; Monday = 0.
    h = timestamps.astype("datetime64[h]").astype(np.int64)
    return ((h // 24 + 3) % 7).astype(np.int64)


def hour_of_week(timestamps: np.ndarray) -> np.ndarray:
    return day_of_week(timestamps) * 24 + hour_of_day(timestamps)


@dataclass
class EnergySeries:
    """Hourly kWh series with per-step availability.

    Steps with ``present == False`` hold NaN as an unmistakable sentinel;
    the constructor enforces it so stale values can never leak through.
    """

    timestamps: np.ndarray
    values: np.ndarray
    present: np.ndarray

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps).astype("datetime64[h]")
        self.values = np.array(self.values, dtype=np.float64)
        self.present = np.array(self.present, dtype=bool)
        if not (len(self.timestamps) == len(self.values) == len(self.present)):
            raise ValueError("timestamps, values and present flags must have equal length")
        if len(self.timestamps) > 1:
            deltas = np.diff(self.timestamps)
            if not np.all(deltas == _HOUR):
                raise ValueError("timestamps must be contiguous at 1-hour spacing")
        self.values[~self.present] = np.nan
        if not np.all(np.isfinite(self.values[self.present])):
            raise ValueError("present values must be finite")

    @classmethod
    def full(cls, timestamps, values) -> "EnergySeries":
        values = np.asarray(values, dtype=np.float64)
        return cls(timestamps, values, np.ones(len(values), dtype=bool))

    @property
    def n(self) -> int:
        return len(self.values)

    def copy(self) -> "EnergySeries":
        return EnergySeries(self.timestamps.copy(), self.values.copy(), self.present.copy())

    def slice(self, start: int, stop: int | None = None) -> "EnergySeries":
        sl = slice(start, stop)
        return EnergySeries(self.timestamps[sl], self.values[sl], self.present[sl])


N_FEATURES = 29


@dataclass
class FeatureMatrix:
    """The baseline forecaster's inputs, one row per next-hour forecast.

    ``values`` is a C-contiguous float64 (n, 29) matrix: the 24 preceding
    hourly kWh values (oldest first), then outdoor temperature, day of
    month, day of year, day of week (Monday = 0) and hour of day.
    ``timestamps`` holds the contiguous hours the rows forecast.
    """

    values: np.ndarray
    timestamps: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        self.timestamps = np.asarray(self.timestamps).astype("datetime64[h]")
        if self.values.ndim != 2 or self.values.shape[1] != N_FEATURES:
            raise ValueError(f"feature matrix must have {N_FEATURES} columns, got shape {self.values.shape}")
        if len(self.values) != len(self.timestamps):
            raise ValueError(f"{len(self.values)} feature rows for {len(self.timestamps)} timestamps")
        if not len(self.values):
            raise ValueError("feature matrix has no rows")
        if not np.all(np.diff(self.timestamps) == _HOUR):
            raise ValueError("feature timestamps must be contiguous at 1-hour spacing")

    def __len__(self) -> int:
        return len(self.values)


def build_feature_rows(energy: EnergySeries, temps: np.ndarray) -> FeatureMatrix:
    """The FeatureMatrix of every step from hour 24 on (earlier steps lack
    a full lag window).  Lags are taken from ``energy`` as-is, so feed an
    imputed series when the history has gaps."""
    if len(temps) != energy.n:
        raise AlignmentError(f"{len(temps)} temperatures for {energy.n} energy steps")
    if np.any(~energy.present):
        raise ValueError("lag source series must be fully present; impute first")
    if energy.n <= 24:
        raise ValueError(f"a series of {energy.n} hours has no step with a full 24-hour lag window")
    ts = energy.timestamps[24:]
    days = ts.astype("datetime64[D]")
    x = np.empty((len(ts), N_FEATURES))
    x[:, :24] = np.lib.stride_tricks.sliding_window_view(energy.values[:-1], 24)
    x[:, 24] = temps[24:]
    x[:, 25] = (days - ts.astype("datetime64[M]")).astype(np.int64) + 1
    x[:, 26] = (days - ts.astype("datetime64[Y]")).astype(np.int64) + 1
    x[:, 27] = day_of_week(ts)
    x[:, 28] = hour_of_day(ts)
    return FeatureMatrix(x, ts)


@dataclass(frozen=True)
class SplitSpec:
    """Chronological train/validation/test fractions."""

    train_frac: float = 0.6
    val_frac: float = 0.2
    test_frac: float = 0.2

    def __post_init__(self):
        for name in ("train_frac", "val_frac", "test_frac"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        fracs = (self.train_frac, self.val_frac, self.test_frac)
        if any(f <= 0 for f in fracs):
            raise ValueError("split fractions must be positive")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ValueError(f"split fractions must sum to 1, got {sum(fracs)}")

    def boundaries(self, n: int) -> tuple[int, int]:
        """Indices (train_end, val_end); test runs to n."""
        i_train = int(n * self.train_frac)
        i_val = int(n * (self.train_frac + self.val_frac))
        return i_train, i_val


class SampleBatch:
    """The fusion model's training instances as equal-length columns, one
    row per sample.

    ``dl``/``ep`` are the two float64 forecasts and ``dl_mask``/``ep_mask``
    their int64 availability masks in {0, 1}; a masked-out value is a usable
    stand-in (imputed or zero), never NaN.  ``target`` is the finite float64
    training target of every row, and ``observed`` is False for any target
    that is not a real measurement (imputed, or the physics value standing
    in for absent actuals), which keeps it out of normalization statistics.
    The constructor copies and checks every column and raises ValueError
    naming the column.  Slicing returns a batch of views without
    re-checking.
    """

    COLUMNS = ("dl", "dl_mask", "ep", "ep_mask", "target", "observed")

    def __init__(self, dl, dl_mask, ep, ep_mask, target, observed):
        cols = {
            "dl": np.array(dl, dtype=np.float64),
            "dl_mask": np.array(dl_mask),
            "ep": np.array(ep, dtype=np.float64),
            "ep_mask": np.array(ep_mask),
            "target": np.array(target, dtype=np.float64),
            "observed": np.array(observed, dtype=bool),
        }
        lengths = {name: col.shape for name, col in cols.items()}
        if any(len(shape) != 1 for shape in lengths.values()) or len(set(lengths.values())) > 1:
            raise ValueError(f"SampleBatch columns must be 1-D and of equal length, got shapes {lengths}")
        # The checks below run on every request, so they use the ndarray
        # methods, not np.all's Python-level wrapper.
        for name in ("dl_mask", "ep_mask"):
            if not ((cols[name] == 0) | (cols[name] == 1)).all():
                raise ValueError(f"{name} must hold only 0 or 1")
            cols[name] = cols[name].astype(np.int64, copy=False)
        for name in ("dl", "ep", "target"):
            if not np.isfinite(cols[name]).all():
                raise ValueError(f"{name} must be finite")
        self.__dict__.update(cols)

    def __len__(self) -> int:
        return len(self.dl)

    def __getitem__(self, key: slice) -> "SampleBatch":
        if not isinstance(key, slice):
            raise TypeError(f"SampleBatch supports slicing only, got {type(key).__name__}; read rows from the columns")
        part = object.__new__(SampleBatch)
        part.__dict__.update((name, self.__dict__[name][key]) for name in self.COLUMNS)
        return part


def _nearest_fill(values: np.ndarray, present: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Value of the temporally closest present step for each target index;
    ties go to the earlier step."""
    present_idx = np.flatnonzero(present)
    pos = np.searchsorted(present_idx, targets)
    out = np.empty(len(targets), dtype=np.float64)
    for k, (i, p) in enumerate(zip(targets, pos)):
        left = present_idx[p - 1] if p > 0 else None
        right = present_idx[p] if p < len(present_idx) else None
        if left is None:
            pick = right
        elif right is None:
            pick = left
        else:
            pick = left if (i - left) <= (right - i) else right
        out[k] = values[pick]
    return out


def impute(series: EnergySeries, strategy: str) -> EnergySeries:
    """Fill every missing step according to ``strategy``.

    Present values pass through bit-exactly.  ``historical_averaging`` is
    causal: it only looks at the same hour-of-day on earlier days.
    """
    if strategy not in IMPUTATION_KINDS:
        raise ValueError(f"unknown imputation strategy {strategy!r}")
    missing = np.flatnonzero(~series.present)
    if missing.size == 0:
        return series.copy()
    values = series.values.copy()
    present = series.present

    if strategy == "neighbor_mean_or_zero":
        for i in missing:
            neigh = []
            if i > 0 and present[i - 1]:
                neigh.append(values[i - 1])
            if i + 1 < series.n and present[i + 1]:
                neigh.append(values[i + 1])
            values[i] = float(np.mean(neigh)) if neigh else 0.0
        return EnergySeries.full(series.timestamps, values)

    if not np.any(present):
        raise ValueError(f"cannot impute an all-missing series with {strategy}")

    if strategy == "nearest_neighbor":
        values[missing] = _nearest_fill(series.values, present, missing)
    elif strategy == "linear_interpolation":
        present_idx = np.flatnonzero(present)
        values[missing] = np.interp(missing.astype(np.float64), present_idx.astype(np.float64), series.values[present_idx])
    elif strategy == "historical_averaging":
        hods = hour_of_day(series.timestamps)
        sums = np.zeros(24)
        counts = np.zeros(24, dtype=np.int64)
        fallback = _nearest_fill(series.values, present, missing)
        fb = dict(zip(missing.tolist(), fallback.tolist()))
        for i in range(series.n):
            h = hods[i]
            if not present[i]:
                values[i] = sums[h] / counts[h] if counts[h] > 0 else fb[i]
            else:
                sums[h] += series.values[i]
                counts[h] += 1
    return EnergySeries.full(series.timestamps, values)


def apply_sparsity(series: EnergySeries, frac: float, seed: int) -> EnergySeries:
    """Mark exactly round(frac * n) uniformly random steps missing."""
    if not 0.0 <= frac < 1.0:
        raise ValueError("sparsity fraction must lie in [0, 1)")
    out = series.copy()
    k = int(round(frac * series.n))
    if k == 0:
        return out
    rng = np.random.default_rng(seed)
    drop = rng.choice(series.n, size=k, replace=False)
    out.present[drop] = False
    out.values[drop] = np.nan
    return out


def _check_aligned(*series: EnergySeries) -> None:
    ref = series[0].timestamps
    for s in series[1:]:
        if len(s.timestamps) != len(ref) or not np.array_equal(s.timestamps, ref):
            raise AlignmentError("series timestamps are not aligned")


def assemble_samples(dl_forecast: EnergySeries | None, ep_forecast: EnergySeries, truth: EnergySeries, scenario) -> SampleBatch:
    """Turn aligned forecast/truth series into the SampleBatch of one scenario.

    ``scenario`` is duck-typed and must expose ``dl_available``,
    ``ep_available``, ``truth_mode`` ("full" | "sparse" | "absent") and
    ``imputation``.  An unavailable stream is zeroed with mask 0; a partially
    missing stream keeps mask 0 at the gaps but carries a neighbor-mean
    stand-in so no NaN ever reaches the model.  With ``truth_mode="absent"``
    the physics value is the target, marked unobserved.
    """
    present_series = [s for s in (dl_forecast, ep_forecast, truth) if s is not None]
    _check_aligned(*present_series)
    n = truth.n

    def stream(fc: EnergySeries | None, available: bool) -> tuple[np.ndarray, np.ndarray]:
        if not available or fc is None:
            return np.zeros(n), np.zeros(n, dtype=np.int64)
        mask = fc.present.astype(np.int64)
        if fc.present.all():
            return fc.values, mask
        filled = impute(fc, "neighbor_mean_or_zero")
        return filled.values, mask

    dl_vals, dl_mask = stream(dl_forecast, scenario.dl_available)
    ep_vals, ep_mask = stream(ep_forecast, scenario.ep_available)

    if scenario.truth_mode == "absent":
        targets = ep_vals
        observed = np.zeros(n, dtype=bool)
    else:
        if truth.present.all():
            targets = truth.values
        else:
            targets = impute(truth, scenario.imputation).values
        observed = truth.present

    return SampleBatch(dl_vals, dl_mask, ep_vals, ep_mask, targets, observed)


@dataclass(frozen=True)
class NormStats:
    """Per-channel z-scoring statistics fitted on the training split only.

    Population standard deviation with a 1e-8 floor.  Masks are never
    normalized, and an all-missing channel keeps its zero stand-ins at
    exactly zero because its fallback stats are (0, floor).
    """

    dl_mean: float
    dl_std: float
    ep_mean: float
    ep_std: float
    y_mean: float
    y_std: float

    def as_dict(self) -> dict[str, float]:
        return {
            "dl_mean": self.dl_mean,
            "dl_std": self.dl_std,
            "ep_mean": self.ep_mean,
            "ep_std": self.ep_std,
            "y_mean": self.y_mean,
            "y_std": self.y_std,
        }


def _channel_stats(values: np.ndarray) -> tuple[float, float]:
    if not values.size:
        return 0.0, STD_FLOOR
    return float(values.mean()), float(max(values.std(), STD_FLOOR))


def fit_norm_stats(b: SampleBatch) -> NormStats:
    """Channel means/stds over the training split.

    Only unmasked forecasts and genuinely observed targets contribute; if a
    scenario has no observed targets at all (training on the physics values)
    the target channel falls back to every target so targets still
    normalize sensibly.
    """
    if not len(b):
        raise ValueError("cannot fit normalization statistics on an empty split")
    dl_mean, dl_std = _channel_stats(b.dl[b.dl_mask == 1])
    ep_mean, ep_std = _channel_stats(b.ep[b.ep_mask == 1])
    observed = b.target[b.observed]
    y_mean, y_std = _channel_stats(observed if observed.size else b.target)
    return NormStats(dl_mean, dl_std, ep_mean, ep_std, y_mean, y_std)


def normalize_samples(b: SampleBatch, stats: NormStats) -> SampleBatch:
    """Z-score the forecasts and targets with ``stats``; masks and flags
    pass through."""
    return SampleBatch(
        (b.dl - stats.dl_mean) / stats.dl_std,
        b.dl_mask,
        (b.ep - stats.ep_mean) / stats.ep_std,
        b.ep_mask,
        (b.target - stats.y_mean) / stats.y_std,
        b.observed,
    )


def denormalize_target(values, stats: NormStats) -> np.ndarray:
    return np.asarray(values, dtype=np.float64) * stats.y_std + stats.y_mean


def split_samples(samples, spec: SplitSpec) -> tuple:
    """Chronological (train, validation, test) slices of a SampleBatch or
    any sequence."""
    i_train, i_val = spec.boundaries(len(samples))
    return samples[:i_train], samples[i_train:i_val], samples[i_val:]


# ---------------------------------------------------------------------------
# CSV and config file I/O
# ---------------------------------------------------------------------------

def write_timestamped_csv(path, timestamps: np.ndarray, columns: dict[str, np.ndarray | None]) -> None:
    """Write a ``timestamp,<column names>`` CSV, one row per timestamp:
    minute-resolution ISO timestamps, then each column's values with
    ``repr``.  A NaN (a missing step) or a ``None`` column (an absent
    stream) leaves its cell empty."""
    n = len(timestamps)
    cells = [np.datetime_as_string(np.asarray(timestamps).astype("datetime64[m]")).tolist()]
    for values in columns.values():
        if values is None:
            cells.append([""] * n)
        else:
            cells.append(["" if math.isnan(v) else repr(v) for v in np.asarray(values, dtype=np.float64).tolist()])
    lines = [",".join(["timestamp", *columns]), *map(",".join, zip(*cells))]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_energy_csv(path) -> EnergySeries:
    """Read `timestamp,value` rows; an empty field or literal NaN marks a
    missing step."""
    timestamps, values, present = [], [], []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or [c.strip() for c in header[:2]] != ["timestamp", "value"]:
            raise ValueError(f"{path}: expected header 'timestamp,value'")
        for row in reader:
            if not row:
                continue
            timestamps.append(np.datetime64(row[0].strip(), "h"))
            cell = row[1].strip() if len(row) > 1 else ""
            if cell == "" or cell.lower() == "nan":
                values.append(np.nan)
                present.append(False)
            else:
                values.append(float(cell))
                present.append(True)
    return EnergySeries(np.array(timestamps), np.array(values), np.array(present))


def write_energy_csv(series: EnergySeries, path) -> None:
    write_timestamped_csv(path, series.timestamps, {"value": series.values})


def read_temperature_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read `timestamp,temp_c` rows; calendar features are derived, not stored."""
    timestamps, temps = [], []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or [c.strip() for c in header[:2]] != ["timestamp", "temp_c"]:
            raise ValueError(f"{path}: expected header 'timestamp,temp_c'")
        for row in reader:
            if not row:
                continue
            timestamps.append(np.datetime64(row[0].strip(), "h"))
            temps.append(float(row[1]))
    return np.array(timestamps), np.asarray(temps, dtype=np.float64)


def write_temperature_csv(timestamps: np.ndarray, temps: np.ndarray, path) -> None:
    write_timestamped_csv(path, timestamps, {"temp_c": temps})


def read_key_values(path, parsers) -> dict:
    """The ``key = value`` lines of a flat config file, each value converted
    by its key's parser in ``parsers``.  ``#`` starts a comment.  A line
    without ``=``, an unknown key, a key set twice or a value its parser
    rejects raises ValueError naming the file and the line; a file that
    cannot be read raises ValueError naming the file."""
    values: dict = {}
    first_line: dict[str, int] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"{path}: cannot read config file: {exc.strerror or exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, val = stripped.partition("=")
        key = key.strip()
        if key not in parsers:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in first_line:
            raise ValueError(f"{path}:{lineno}: key {key!r} repeats line {first_line[key]}")
        first_line[key] = lineno
        try:
            values[key] = parsers[key](val.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from exc
    return values
