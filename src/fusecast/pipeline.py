"""Sample construction for both forecasters: hourly series with
missingness, the baseline's lag/calendar feature matrix, imputation,
sparsity injection, the fusion model's mask/target assembly, normalization
statistics, chronological splits, timestamped CSV output, and flat key=value
config files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numkit import check_real

# The order is the imputation ablation's: its report rows and job names follow it.
IMPUTATION_KINDS = ("nearest_neighbor", "historical_averaging", "linear_interpolation")

STD_FLOOR = 1e-8

_HOUR = np.timedelta64(1, "h")


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
    The constructor copies and checks every array.  ``slice`` returns
    unchecked views that share memory with their series, as slices of a
    ``SampleBatch`` do, so a caller must copy a slice before mutating it.
    """

    timestamps: np.ndarray
    values: np.ndarray
    present: np.ndarray

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps).astype("datetime64[h]")
        self.values = np.array(self.values, dtype=np.float64)
        self.present = np.array(self.present, dtype=bool)
        for name in ("timestamps", "values", "present"):
            if getattr(self, name).ndim != 1:
                raise ValueError(f"{name} must be 1-D, got shape {getattr(self, name).shape}")
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
        """Steps ``start:stop`` as views of this series' arrays, without
        re-checking: a slice of a checked series is checked.  The slice
        shares memory with this series, so copy it before mutating."""
        sl = slice(start, stop)
        part = object.__new__(EnergySeries)
        part.__dict__.update(timestamps=self.timestamps[sl], values=self.values[sl], present=self.present[sl])
        return part


N_FEATURES = 29


@dataclass
class FeatureMatrix:
    """The baseline forecaster's rows, one per next-hour forecast.

    ``values`` is a finite, C-contiguous float64 (n, 29) matrix: the 24
    preceding hourly kWh values (oldest first), then outdoor temperature,
    day of month, day of year, day of week (Monday = 0) and hour of day.
    ``timestamps`` holds the contiguous hours the rows forecast, and
    ``targets`` the finite float64 kWh each row is fitted to.
    """

    values: np.ndarray
    timestamps: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        self.timestamps = np.asarray(self.timestamps).astype("datetime64[h]")
        self.targets = np.array(self.targets, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[1] != N_FEATURES:
            raise ValueError(f"feature matrix must have {N_FEATURES} columns, got shape {self.values.shape}")
        if len(self.values) != len(self.timestamps):
            raise ValueError(f"{len(self.values)} feature rows for {len(self.timestamps)} timestamps")
        if self.targets.shape != (len(self.values),):
            raise ValueError(f"{len(self.values)} feature rows for targets of shape {self.targets.shape}")
        if not len(self.values):
            raise ValueError("feature matrix has no rows")
        if not np.all(np.diff(self.timestamps) == _HOUR):
            raise ValueError("feature timestamps must be contiguous at 1-hour spacing")
        if not np.isfinite(self.values).all():
            raise ValueError("feature values must be finite")
        if not np.isfinite(self.targets).all():
            raise ValueError("feature targets must be finite")

    def __len__(self) -> int:
        return len(self.values)


def build_feature_rows(energy: EnergySeries, temps: np.ndarray) -> FeatureMatrix:
    """The FeatureMatrix of every step from hour 24 on (earlier steps lack
    a full lag window), each row's target the step's own ``energy`` value.
    Lags and targets are taken from ``energy`` as-is, so feed an imputed
    series when the history has gaps."""
    if len(temps) != energy.n:
        raise ValueError(f"{len(temps)} temperatures for {energy.n} energy steps")
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
    return FeatureMatrix(x, ts, energy.values[24:])


@dataclass(frozen=True)
class SplitSpec:
    """Chronological train/validation/test fractions."""

    train_frac: float = 0.6
    val_frac: float = 0.2
    test_frac: float = 0.2

    def __post_init__(self):
        for name in ("train_frac", "val_frac", "test_frac"):
            check_real(name, getattr(self, name))
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
    training target of every row: an actual (filled by the caller where the
    actuals are sparse) or the physics value standing in for absent actuals.
    The constructor is the one place a batch's columns are checked: it
    copies and checks every column and raises ValueError naming the column.
    Slices and ``normalize_samples`` build from checked columns through
    ``_from_checked`` and check only what they compute; a slice is a batch
    of views.
    """

    COLUMNS = ("dl", "dl_mask", "ep", "ep_mask", "target")

    def __init__(self, dl, dl_mask, ep, ep_mask, target):
        cols = {
            "dl": np.array(dl, dtype=np.float64),
            "dl_mask": np.array(dl_mask),
            "ep": np.array(ep, dtype=np.float64),
            "ep_mask": np.array(ep_mask),
            "target": np.array(target, dtype=np.float64),
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
        return SampleBatch._from_checked(self.dl[key], self.dl_mask[key], self.ep[key], self.ep_mask[key], self.target[key])

    @classmethod
    def _from_checked(cls, dl, dl_mask, ep, ep_mask, target) -> "SampleBatch":
        """A batch of the given arrays as they are: equal-length 1-D columns
        of the dtypes and values the constructor checks, taken unchecked and
        uncopied."""
        batch = object.__new__(cls)
        batch.__dict__.update(dl=dl, dl_mask=dl_mask, ep=ep, ep_mask=ep_mask, target=target)
        return batch


def _nearest_fill(values: np.ndarray, present: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Value of the temporally closest present step for each target index;
    ties go to the earlier step.  ``present`` must hold a True."""
    present_idx = np.flatnonzero(present)
    pos = np.searchsorted(present_idx, targets)
    # before the first or after the last present step both clamp to it
    left = present_idx[np.maximum(pos - 1, 0)]
    right = present_idx[np.minimum(pos, len(present_idx) - 1)]
    return values[np.where(targets - left <= right - targets, left, right)]


def _neighbor_mean_or_zero(values: np.ndarray, present: np.ndarray) -> np.ndarray:
    """``values`` with each missing step replaced by the mean of its present
    immediate neighbours (0.0 when it has none): the stand-in
    ``assemble_samples`` gives the gaps of a forecast stream.

    The sum is ``(a + b) + 0.0``, the adds ``np.mean`` makes: its reduction
    starts from +0.0, so a lone or paired -0.0 neighbour gives +0.0.  An
    overflowing sum is left as inf for the caller to report.
    """
    n = len(values)
    v = np.zeros(n + 2)  # a missing step and the two ends read as 0.0
    np.copyto(v[1:-1], values, where=present)
    p = np.zeros(n + 2)
    p[1:-1] = present
    with np.errstate(over="ignore"):
        out = np.add(v[:-2], v[2:])
    out += 0.0
    count = np.add(p[:-2], p[2:])
    out /= np.maximum(count, 1.0, out=count)
    np.copyto(out, values, where=present)
    return out


def impute(series: EnergySeries, strategy: str) -> EnergySeries:
    """Fill every missing step according to ``strategy``; present values
    pass through bit-exactly.

    - ``nearest_neighbor``: the value of the closest present step; a tie
      goes to the earlier step.
    - ``linear_interpolation``: ``np.interp`` between the present steps,
      holding the first/last present value beyond the ends.
    - ``historical_averaging`` (causal): the mean of the present values at
      the same hour of day on earlier days, or the nearest present value
      when there are none.

    Each strategy runs as array operations (historical averaging loops over
    the 24 hours of the day, not the steps); the step-by-step definitions
    in ``tests/test_pipeline.py`` pin every filled value byte for byte.  An
    all-missing series, which no strategy can fill, raises ValueError
    naming the strategy; so does a fill that overflows, naming the step too.
    """
    if strategy not in IMPUTATION_KINDS:
        raise ValueError(f"unknown imputation strategy {strategy!r}")
    missing = np.flatnonzero(~series.present)
    if missing.size == 0:
        return series.copy()
    present = series.present
    if not np.any(present):
        raise ValueError(f"cannot impute an all-missing series with {strategy}")
    values = series.values.copy()
    if strategy == "nearest_neighbor":
        values[missing] = _nearest_fill(series.values, present, missing)
    elif strategy == "linear_interpolation":
        present_idx = np.flatnonzero(present)
        values[missing] = np.interp(missing.astype(np.float64), present_idx.astype(np.float64), series.values[present_idx])
    elif strategy == "historical_averaging":
        # the fallback, kept where the hour has no present value on an earlier day
        values[missing] = _nearest_fill(series.values, present, missing)
        hods = hour_of_day(series.timestamps)
        for h in range(24):
            steps = np.flatnonzero(hods == h)
            seen = present[steps]
            # sums[k]: the hour's first k present values added in time order
            # to 0.0; an overflow is reported below
            with np.errstate(over="ignore"):
                sums = np.add.accumulate(np.concatenate(([0.0], series.values[steps[seen]])))
            counts = np.cumsum(seen)[~seen]
            prior = counts > 0
            values[steps[~seen][prior]] = sums[counts[prior]] / counts[prior]
    overflow = np.flatnonzero(~np.isfinite(values))
    if overflow.size:
        raise ValueError(f"{strategy}: the fill of missing step {int(overflow[0])} overflows")
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
            raise ValueError("series timestamps are not aligned")


def assemble_samples(dl_forecast: EnergySeries | None, ep_forecast: EnergySeries, truth: EnergySeries, scenario) -> SampleBatch:
    """Turn aligned forecast/truth series into the SampleBatch of one scenario.

    ``scenario`` is duck-typed and must expose ``dl_available``,
    ``ep_available`` and ``truth_mode`` ("full" | "sparse" | "absent").  An
    unavailable stream, whose forecast may be None, is zeroed with mask 0;
    an available one without a forecast raises ValueError.  A partially
    missing stream keeps mask 0 at the gaps but carries a neighbor-mean
    stand-in so no NaN ever reaches the model.  With ``truth_mode="absent"``
    the physics value is the target; otherwise ``truth`` is the target and
    must be fully present, so sparse actuals are imputed before they get here.
    """
    present_series = [s for s in (dl_forecast, ep_forecast, truth) if s is not None]
    _check_aligned(*present_series)
    n = truth.n

    def stream(fc: EnergySeries | None, available: bool, name: str) -> tuple[np.ndarray, np.ndarray]:
        if not available:
            return np.zeros(n), np.zeros(n, dtype=np.int64)
        if fc is None:
            raise ValueError(f"{name} forecast: the scenario marks the stream available, but none was given")
        mask = fc.present.astype(np.int64)
        if fc.present.all():
            return fc.values, mask
        filled = _neighbor_mean_or_zero(fc.values, fc.present)
        if not np.isfinite(filled).all():
            step = int(np.flatnonzero(~np.isfinite(filled))[0])
            raise ValueError(f"{name} forecast: the neighbour mean filling missing step {step} overflows")
        return filled, mask

    dl_vals, dl_mask = stream(dl_forecast, scenario.dl_available, "dl")
    ep_vals, ep_mask = stream(ep_forecast, scenario.ep_available, "ep")

    if scenario.truth_mode == "absent":
        targets = ep_vals
    elif truth.present.all():
        targets = truth.values
    else:
        step = int(np.flatnonzero(~truth.present)[0])
        raise ValueError(f"truth: step {step} is missing; impute sparse actuals before assembling samples")

    return SampleBatch(dl_vals, dl_mask, ep_vals, ep_mask, targets)


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

    def __post_init__(self):
        for name, value in self.as_dict().items():
            check_real(name, value)
            if name.endswith("_std") and value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")

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
    """Channel means/stds over the training split: the unmasked forecasts,
    and every row's target, since every target is one the model trains on.
    """
    if not len(b):
        raise ValueError("cannot fit normalization statistics on an empty split")
    dl_mean, dl_std = _channel_stats(b.dl[b.dl_mask == 1])
    ep_mean, ep_std = _channel_stats(b.ep[b.ep_mask == 1])
    y_mean, y_std = _channel_stats(b.target)
    return NormStats(dl_mean, dl_std, ep_mean, ep_std, y_mean, y_std)


def normalize_samples(b: SampleBatch, stats: NormStats) -> SampleBatch:
    """Z-score the forecasts and targets with ``stats``; masks pass through
    as copies, so the result shares no memory with ``b``.

    ``b``'s columns were checked when it was built, so only the three
    z-scored columns are: each is ``(col - mean) / std`` written into one
    ``(3, n)`` block, and a value that overflows there raises ValueError
    naming the first such column, in ``dl``, ``ep``, ``target`` order.
    """
    block = np.empty((3, len(b)))
    dl, ep, target = block
    np.subtract(b.dl, stats.dl_mean, out=dl)
    dl /= stats.dl_std
    np.subtract(b.ep, stats.ep_mean, out=ep)
    ep /= stats.ep_std
    np.subtract(b.target, stats.y_mean, out=target)
    target /= stats.y_std
    if not np.isfinite(block).all():
        for name, row in zip(("dl", "ep", "target"), block):
            if not np.isfinite(row).all():
                raise ValueError(f"{name} must be finite")
    return SampleBatch._from_checked(dl, b.dl_mask.copy(), ep, b.ep_mask.copy(), target)


def denormalize_target(values, stats: NormStats) -> np.ndarray:
    return np.asarray(values, dtype=np.float64) * stats.y_std + stats.y_mean


def split_samples(samples, spec: SplitSpec) -> tuple:
    """Chronological (train, validation, test) slices of a SampleBatch or
    any sequence."""
    i_train, i_val = spec.boundaries(len(samples))
    return samples[:i_train], samples[i_train:i_val], samples[i_val:]


# ---------------------------------------------------------------------------
# CSV output and config file input
# ---------------------------------------------------------------------------

def write_timestamped_csv(path, timestamps: np.ndarray, columns: dict[str, np.ndarray | None]) -> None:
    """Write a ``timestamp,<column names>`` CSV, one row per timestamp:
    minute-resolution ISO timestamps, then each column's values with
    ``repr``.  A NaN (a missing step) or a ``None`` column (an absent
    stream) leaves its cell empty.  A column whose length differs from the
    timestamps' raises ValueError naming it."""
    n = len(timestamps)
    cells = [np.datetime_as_string(np.asarray(timestamps).astype("datetime64[m]")).tolist()]
    for name, values in columns.items():
        if values is None:
            cells.append([""] * n)
        elif len(values) != n:
            raise ValueError(f"column {name!r} has {len(values)} values for {n} timestamps")
        else:
            cells.append(["" if math.isnan(v) else repr(v) for v in np.asarray(values, dtype=np.float64).tolist()])
    lines = [",".join(["timestamp", *columns]), *map(",".join, zip(*cells))]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_key_values(path, parsers) -> dict:
    """The ``key = value`` lines of a flat config file, each value converted
    by its key's parser in ``parsers``.  ``#`` starts a comment.  A line
    without ``=``, an unknown key, a key set twice or a value its parser
    rejects raises ValueError naming the file and the line; a file that
    cannot be read or is not UTF-8 raises ValueError naming the file."""
    values: dict = {}
    first_line: dict[str, int] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: cannot read config file: {getattr(exc, 'strerror', None) or exc}") from exc
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
