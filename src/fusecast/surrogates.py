"""Stand-in forecast sources.

simulate_physics is a single-zone lumped RC building model driven by a
setpoint thermostat: the envelope is one conductance (UA plus an
infiltration term), the interior one capacitance, and each hour the HVAC
power is solved in closed form from the discrete heat balance

    T_in[t+1] = T_in[t] + dt/C * (UA*(T_out[t] - T_in[t]) + Q_int[t] + Q_hvac[t])

so the zone lands exactly on the active setpoint whenever it would drift
outside the band.  make_weather and make_truth generate the seeded synthetic
year around it, and train_baseline_forecaster fits a small feed-forward
net on a FeatureMatrix (lagged energy + temperature + calendar) as the
data-driven source; forecast_dl rolls it out day-ahead.
"""

from __future__ import annotations

import array
import math
from dataclasses import dataclass, fields

import numpy as np

from .numkit import (
    AdamState, TrainingDiverged, adam_step, block_views, check_count, check_real, draw_uniform, empty_blocks, fit_epochs,
    mlp_backward, mlp_forward,
)
from .pipeline import (
    _HOUR, N_FEATURES, STD_FLOOR, EnergySeries, FeatureMatrix, SplitSpec, hour_of_day, hour_of_week, hourly_range,
    read_key_values,
)

OCCUPANT_HEAT_W = 100.0        # sensible heat per person at light activity
AIR_HEAT_W_PER_K_M3H = 0.335   # rho * c_p / 3600 for air, per m3/h of airflow
CEILING_HEIGHT_M = 3.0
SOLAR_APERTURE_FRAC = 0.05     # effective solar-collecting fraction of floor area
COLDEST_HOUR = 336             # seasonal minimum lands mid-January
DT_S = 3600.0

# The synthetic year, one recipe: its first hour; the climate's annual mean,
# seasonal and diurnal amplitudes and AR(1) noise amplitude; the truth's
# constant bias, weekly behaviour amplitude and iid noise.
YEAR_START = "2021-01-01T00"
WEATHER_MEAN_C = 7.5
WEATHER_SEASONAL_AMP_C = 14.0
WEATHER_DIURNAL_AMP_C = 4.5
WEATHER_NOISE_AMP_C = 1.5
TRUTH_BIAS_KWH = 50.0
TRUTH_BEHAVIOR_AMP_KWH = 12.0
TRUTH_NOISE_STD_KWH = 8.0

# Occupied fraction per hour of the week, Monday 00:00 first (index it with
# hour_of_week): full nights and evenings, 0.75 at 07-09 and 17-19, and
# daytime (09-17) dips to 0.30 on weekdays and 0.65 at weekends.
OCCUPANCY = np.concatenate([
    np.repeat([0.95, 0.75, daytime, 0.75, 0.95], [7, 2, 8, 2, 5]) for daytime in [0.30] * 5 + [0.65] * 2
])
OCCUPANCY.flags.writeable = False

# The baseline fit: hidden width, Adam learning rate, epoch cap, minibatch
# size, early-stopping patience and the fewest training rows it accepts.
BASELINE_HIDDEN = 32
BASELINE_ETA = 3e-3
BASELINE_MAX_EPOCHS = 200
BASELINE_BATCH_SIZE = 256
BASELINE_PATIENCE = 10
BASELINE_MIN_TRAIN_ROWS = 8


@dataclass(frozen=True)
class BuildingParams:
    """Lumped single-zone building description."""

    ua_w_per_k: float = 2808.0            # 0.351 W/m2K over an 8000 m2 envelope
    capacitance_j_per_k: float = 1.2e9
    equipment_w_per_m2: float = 20.5
    floor_area_m2: float = 6000.0
    occupants: float = 495.0
    heat_setpoint_c: float = 21.0
    cool_setpoint_c: float = 23.0
    heat_setback_c: float = 15.0
    cool_setback_c: float = 28.0
    infiltration_ach: float = 0.7
    hvac_efficiency: float = 3.0

    def __post_init__(self):
        for f in fields(self):
            check_real(f.name, getattr(self, f.name))
        for name in ("ua_w_per_k", "capacitance_j_per_k", "floor_area_m2", "hvac_efficiency"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("equipment_w_per_m2", "occupants", "infiltration_ach"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not self.heat_setpoint_c < self.cool_setpoint_c:
            raise ValueError("heating setpoint must be below cooling setpoint")
        if not self.heat_setback_c < self.cool_setback_c:
            raise ValueError("heating setback must be below cooling setback")

    @property
    def ua_effective(self) -> float:
        """Envelope conductance plus the infiltration air-change term."""
        volume = self.floor_area_m2 * CEILING_HEIGHT_M
        return self.ua_w_per_k + AIR_HEAT_W_PER_K_M3H * self.infiltration_ach * volume


def load_building_params(path) -> BuildingParams:
    """Read a flat key=value file of BuildingParams fields; unknown or
    repeated keys, and values BuildingParams rejects, raise ValueError
    naming the file."""
    values = read_key_values(path, {f.name: float for f in fields(BuildingParams)})
    try:
        return BuildingParams(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


@dataclass
class WeatherSeries:
    """Hourly outdoor dry-bulb temperature plus a solar-gain proxy."""

    timestamps: np.ndarray
    temp_c: np.ndarray
    solar_w_per_m2: np.ndarray

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps).astype("datetime64[h]")
        self.temp_c = np.asarray(self.temp_c, dtype=np.float64)
        self.solar_w_per_m2 = np.asarray(self.solar_w_per_m2, dtype=np.float64)
        for name in ("timestamps", "temp_c", "solar_w_per_m2"):
            if getattr(self, name).ndim != 1:
                raise ValueError(f"weather {name} must be 1-D, got shape {getattr(self, name).shape}")
        if not (len(self.timestamps) == len(self.temp_c) == len(self.solar_w_per_m2)):
            raise ValueError("weather arrays must have equal length")
        if not np.all(np.diff(self.timestamps) == _HOUR):
            raise ValueError("weather timestamps must be contiguous at 1-hour spacing")
        if not (np.all(np.isfinite(self.temp_c)) and np.all(np.isfinite(self.solar_w_per_m2))):
            raise ValueError("weather values must be finite")


def make_weather(year_hours: int, seed: int) -> WeatherSeries:
    """Synthetic typical-year weather from ``YEAR_START``: a seasonal plus a
    diurnal sinusoid and seeded smooth (AR(1)) noise of amplitude
    ``WEATHER_NOISE_AMP_C``.  The sinusoids put the coldest hour on a
    mid-January night and the warmest on a mid-July afternoon.
    ``year_hours`` must be an integer >= 1."""
    check_count("year_hours", year_hours)
    timestamps = hourly_range(YEAR_START, year_hours)
    h = np.arange(year_hours)
    hod = h % 24
    seasonal = -WEATHER_SEASONAL_AMP_C * np.cos(2.0 * np.pi * (h - COLDEST_HOUR) / 8760.0)
    diurnal = WEATHER_DIURNAL_AMP_C * np.cos(2.0 * np.pi * (hod - 15) / 24.0)
    eps = np.random.default_rng(seed).standard_normal(year_hours)
    phi = 0.97
    scale = math.sqrt(1.0 - phi * phi)
    # The steps run on Python floats, which round like numpy scalars without
    # their per-operation overhead; a memoryview yields them one by one and
    # an array.array stores them unboxed, so no list of float objects is held.
    prev = float(eps[0])
    ar = array.array("d", [prev])
    for e in memoryview(eps)[1:]:
        prev = phi * prev + scale * e
        ar.append(prev)
    temp = WEATHER_MEAN_C + seasonal + diurnal + WEATHER_NOISE_AMP_C * np.frombuffer(ar)

    day_shape = np.maximum(np.sin(np.pi * (hod - 6) / 12.0), 0.0)
    season_level = 0.55 - 0.45 * np.cos(2.0 * np.pi * (h - COLDEST_HOUR) / 8760.0)
    solar = 800.0 * day_shape * season_level
    return WeatherSeries(timestamps, temp, solar)


def simulate_physics(params: BuildingParams, weather: WeatherSeries) -> EnergySeries:
    """Hourly kWh from the RC zone under thermostat control, occupied by
    ``OCCUPANCY``: an hour at least half occupied keeps the setpoints, any
    other the setbacks.

    The zone starts at the middle of the occupied band.  Deterministic: the
    only randomness in the whole fixture lives in the weather and truth
    generators.  Parameters that overflow the model (an hour's energy that
    is not finite) raise ValueError naming the first such hour.
    """
    occ = OCCUPANCY[hour_of_week(weather.timestamps)]
    ua = params.ua_effective
    c_per_dt = params.capacitance_j_per_k / DT_S
    dt_per_c = DT_S / params.capacitance_j_per_k
    area = params.floor_area_m2
    equipment_w = params.equipment_w_per_m2 * area
    base_gain = params.occupants * OCCUPANT_HEAT_W + equipment_w
    solar_gain = SOLAR_APERTURE_FRAC * area * weather.solar_w_per_m2

    energy = array.array("d")
    t_in = 0.5 * (params.heat_setpoint_c + params.cool_setpoint_c)
    # Python floats, unboxed one step at a time, as in make_weather
    for occ_t, temp_t, solar_t in zip(memoryview(occ), memoryview(weather.temp_c), memoryview(solar_gain)):
        occupied = occ_t >= 0.5
        heat_sp = params.heat_setpoint_c if occupied else params.heat_setback_c
        cool_sp = params.cool_setpoint_c if occupied else params.cool_setback_c
        q_int = occ_t * base_gain + solar_t
        passive = ua * (temp_t - t_in) + q_int
        t_free = t_in + dt_per_c * passive
        if t_free < heat_sp:
            q_hvac = c_per_dt * (heat_sp - t_in) - passive
            t_next = heat_sp
        elif t_free > cool_sp:
            q_hvac = c_per_dt * (cool_sp - t_in) - passive
            t_next = cool_sp
        else:
            q_hvac = 0.0
            t_next = t_free
        electric_w = abs(q_hvac) / params.hvac_efficiency + equipment_w * occ_t
        energy.append(electric_w / 1000.0)
        t_in = t_next
    energy = np.frombuffer(energy)
    finite = np.isfinite(energy)
    if not finite.all():
        hour = int(np.argmin(finite))
        raise ValueError(
            f"physics energy at hour {hour} ({weather.timestamps[hour]}) is not finite: "
            "the building's parameters overflow the RC model"
        )
    return EnergySeries.full(weather.timestamps, energy)


def weekly_behavior_pattern(timestamps: np.ndarray) -> np.ndarray:
    """Fixed, roughly zero-mean occupant-behavior shape over the week."""
    how = hour_of_week(timestamps)
    hod = hour_of_day(timestamps)
    return np.sin(2.0 * np.pi * how / 168.0) + 0.5 * np.sin(2.0 * np.pi * (hod - 18) / 24.0)


def make_truth(physics: EnergySeries, seed: int) -> EnergySeries:
    """Synthetic ground truth: the physics trace shifted by
    ``TRUTH_BIAS_KWH``, the weekly behavior pattern at
    ``TRUTH_BEHAVIOR_AMP_KWH`` and seeded iid noise of
    ``TRUTH_NOISE_STD_KWH``, clamped at 0 kWh."""
    behavior = TRUTH_BEHAVIOR_AMP_KWH * weekly_behavior_pattern(physics.timestamps)
    noise = TRUTH_NOISE_STD_KWH * np.random.default_rng(seed).standard_normal(physics.n)
    vals = physics.values + TRUTH_BIAS_KWH + behavior + noise
    return EnergySeries.full(physics.timestamps, np.maximum(vals, 0.0))


# ---------------------------------------------------------------------------
# Data-driven baseline: a two-hidden-layer feed-forward net on
# (24 lags + calendar + temperature) -> next-hour kWh, with recursive
# 24-hour rollout at prediction time.
# ---------------------------------------------------------------------------

class _FitWorkspace:
    """The working set of one baseline fit: the z-scored splits ``xt``/``yt``
    and ``xv``/``yv``; for a minibatch of up to ``batch`` rows (the last,
    ragged one uses the first rows) the gathered rows ``xb``/``yb``, the
    kernel's buffers ``h1``, ``h2``, ``out`` and masks ``on1``/``on2``
    and the output gradient ``dout``; and the validation pass's ``h1_val``,
    ``h2_val`` and ``out_val``.  As in ``model._Workspace``, the float
    buffers are blocks of one allocation and the masks of another, so glibc
    keeps the working set in its heap from one fit to the next and no
    update allocates."""

    def __init__(self, hidden: int, n_train: int, n_val: int, batch: int):
        named = {
            "xt": (n_train, N_FEATURES), "yt": (n_train,), "xv": (n_val, N_FEATURES), "yv": (n_val,),
            "xb": (batch, N_FEATURES), "yb": (batch,), "dout": (batch,),
            "h1": (batch, hidden), "h2": (batch, hidden), "out": (batch,),
            "h1_val": (n_val, hidden), "h2_val": (n_val, hidden), "out_val": (n_val,),
        }
        self.__dict__.update(zip(named, empty_blocks(named.values())))
        self.on1, self.on2 = empty_blocks([(batch, hidden)] * 2, bool)


@dataclass
class BaselineForecaster:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: float
    feat_mean: np.ndarray
    feat_std: np.ndarray
    y_mean: float
    y_std: float

    def predict_matrix(self, x_raw: np.ndarray) -> np.ndarray:
        x = (x_raw - self.feat_mean) / self.feat_std
        w = (self.w1, self.b1, self.w2, self.b2, self.w3, np.float64(self.b3))
        m, hidden = len(x), len(self.b1)
        out = mlp_forward(x, w, *empty_blocks([(m, hidden), (m, hidden), (m,)]))
        return out * self.y_std + self.y_mean


def train_baseline_forecaster(features: FeatureMatrix, split: SplitSpec, seed: int) -> BaselineForecaster:
    """Fit the baseline to ``features.targets`` on the training split only
    (z-scored inputs/targets, Adam on mean squared error, early stopping on
    the validation split).  A split with too few training rows or no
    validation rows raises ValueError; a non-finite gradient or validation
    loss raises TrainingDiverged."""
    x_all, targets = features.values, features.targets
    i_train, i_val = split.boundaries(len(features))
    if i_train < BASELINE_MIN_TRAIN_ROWS:
        raise ValueError("not enough training rows for the baseline forecaster")
    if i_val == i_train:
        raise ValueError("no validation rows for the baseline forecaster")
    x_train, y_train = x_all[:i_train], targets[:i_train]
    x_val, y_val = x_all[i_train:i_val], targets[i_train:i_val]

    feat_mean = x_train.mean(axis=0)
    feat_std = np.maximum(x_train.std(axis=0), STD_FLOOR)
    y_mean = float(y_train.mean())
    y_std = float(max(y_train.std(), STD_FLOOR))
    hidden = BASELINE_HIDDEN
    ws = _FitWorkspace(hidden, len(x_train), len(x_val), min(BASELINE_BATCH_SIZE, len(x_train)))
    xt, yt, xv, yv = (
        np.divide(np.subtract(raw, mean, out=buf), std, out=buf)
        for raw, mean, std, buf in (
            (x_train, feat_mean, feat_std, ws.xt), (y_train, y_mean, y_std, ws.yt),
            (x_val, feat_mean, feat_std, ws.xv), (y_val, y_mean, y_std, ws.yv),
        )
    )

    rng = np.random.default_rng(seed)
    # One flat vector holds w1, b1, w2, b2, w3 and b3; w and g are its views.
    shapes = ((hidden, N_FEATURES), (hidden,), (hidden, hidden), (hidden,), (hidden,), ())
    size = sum(math.prod(shape) for shape in shapes)
    weights, grads = np.zeros(size), np.zeros(size)
    w, g = block_views(weights, shapes), block_views(grads, shapes)
    draw_uniform(rng, [w[0], w[2], w[4]])  # w1, w2, w3; the biases stay zero
    state = AdamState.init(weights, eta=BASELINE_ETA)

    def update(rows, epoch: int) -> float:
        # mode="clip" lets take write straight into ``out`` (the default
        # "raise" buffers through a temporary); a permutation is in range.
        # The method skips np.take's Python-level wrapper, as in model.train.
        m = len(rows)
        xb = xt.take(rows, axis=0, out=ws.xb[:m], mode="clip")
        yb = yt.take(rows, out=ws.yb[:m], mode="clip")
        out = mlp_forward(xb, w, ws.h1[:m], ws.h2[:m], ws.out[:m])
        dout = np.subtract(out, yb, out=ws.dout[:m])
        dout *= 2.0
        dout /= m
        mlp_backward(xb, w, ws.h1[:m], ws.h2[:m], dout, np.add.reduce(dout), g, ws.on1[:m], ws.on2[:m])
        # an overflowed gradient would write inf or NaN into the weights
        if not np.isfinite(grads).all():
            raise TrainingDiverged(f"epoch {epoch}: non-finite baseline gradient")
        adam_step(weights, grads, state)
        return 0.0  # no training-loss history is kept

    def validate(epoch: int) -> float:
        # the squared errors overwrite the outputs, which nothing reads again
        err = np.subtract(mlp_forward(xv, w, ws.h1_val, ws.h2_val, ws.out_val), yv, out=ws.out_val)
        return float(np.mean(np.square(err, out=err)))

    best, _ = fit_epochs(
        weights, len(xt), update, validate,
        BASELINE_MAX_EPOCHS, BASELINE_BATCH_SIZE, BASELINE_PATIENCE, rng,
    )
    w = block_views(best, shapes)
    return BaselineForecaster(
        w1=w[0], b1=w[1], w2=w[2], b2=w[3], w3=w[4], b3=float(w[5]),
        feat_mean=feat_mean, feat_std=feat_std, y_mean=y_mean, y_std=y_std,
    )


def forecast_dl(forecaster: BaselineForecaster, features: FeatureMatrix) -> EnergySeries:
    """Per-hour predictions over all feature rows, produced day-ahead: each
    24-hour block starts from the true lags at its first row and then feeds
    predictions back into the lag window (recursive rollout).  Step j
    forecasts hour j of every block long enough to have one."""
    x_all = features.values
    n = len(x_all)
    starts = np.arange(0, n, 24)
    lags = x_all[starts, :24].copy()
    out = np.empty(n)
    for j in range(min(n, 24)):
        rows = starts[starts + j < n] + j
        live = len(rows)  # blocks are in time order, so the live ones lead
        x = x_all[rows]
        x[:, :24] = lags[:live]
        preds = forecaster.predict_matrix(x)
        out[rows] = preds
        lags[:live, :-1] = lags[:live, 1:]
        lags[:live, -1] = preds
    return EnergySeries.full(features.timestamps, out)
