import inspect

import numpy as np
import pytest

from fusecast.numkit import AdamState, adam_step, block_views, fit_epochs
from fusecast.pipeline import N_FEATURES, EnergySeries, FeatureMatrix, SplitSpec, build_feature_rows, hourly_range
from fusecast.surrogates import (
    AIR_HEAT_W_PER_K_M3H,
    BASELINE_BATCH_SIZE,
    BASELINE_ETA,
    BASELINE_HIDDEN,
    BASELINE_MAX_EPOCHS,
    BASELINE_PATIENCE,
    CEILING_HEIGHT_M,
    BuildingParams,
    OccupancySchedule,
    WeatherSeries,
    default_occupancy,
    forecast_dl,
    load_building_params,
    make_truth,
    make_weather,
    simulate_physics,
    train_baseline_forecaster,
    weekly_behavior_pattern,
)


def flat_weather(n, temp, solar=0.0, start="2021-01-04T00"):
    ts = hourly_range(start, n)
    return WeatherSeries(ts, np.full(n, float(temp)), np.full(n, float(solar)))


def sealed_building(**overrides):
    kwargs = dict(
        ua_w_per_k=100.0,
        capacitance_j_per_k=1e6,
        equipment_w_per_m2=0.0,
        floor_area_m2=100.0,
        occupants=0.0,
        heat_setpoint_c=21.0,
        cool_setpoint_c=23.0,
        heat_setback_c=15.0,
        cool_setback_c=28.0,
        infiltration_ach=0.0,
        hvac_efficiency=1.0,
    )
    kwargs.update(overrides)
    return BuildingParams(**kwargs)


class TestBuildingParams:
    def test_defaults_valid(self):
        b = BuildingParams()
        assert b.heat_setpoint_c < b.cool_setpoint_c

    def test_ua_effective_includes_infiltration(self):
        b = sealed_building(infiltration_ach=0.5)
        expected = 100.0 + AIR_HEAT_W_PER_K_M3H * 0.5 * 100.0 * CEILING_HEIGHT_M
        assert b.ua_effective == pytest.approx(expected)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            sealed_building(ua_w_per_k=0.0)
        with pytest.raises(ValueError):
            sealed_building(heat_setpoint_c=25.0)  # above cooling setpoint
        with pytest.raises(ValueError):
            sealed_building(infiltration_ach=-0.1)

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "building.cfg"
        path.write_text(
            "# test building\n"
            "ua_w_per_k = 1234.0\n"
            "floor_area_m2 = 2500\n"
            "hvac_efficiency = 2.5\n"
        )
        b = load_building_params(path)
        assert b.ua_w_per_k == 1234.0
        assert b.floor_area_m2 == 2500.0
        assert b.equipment_w_per_m2 == BuildingParams().equipment_w_per_m2

    def test_config_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "building.cfg"
        path.write_text("ua_w_per_k = 100\nwall_color = blue\n")
        with pytest.raises(ValueError, match="wall_color"):
            load_building_params(path)


class TestSimulatePhysics:
    def test_equilibrium_no_load_no_energy(self):
        # zone sits at the band midpoint with matching outdoor air and no gains
        b = sealed_building()
        weather = flat_weather(48, temp=22.0)
        schedule = OccupancySchedule(np.zeros(168))
        out = simulate_physics(b, weather, schedule)
        assert np.allclose(out.values, 0.0, atol=0, rtol=0)

    def test_one_step_hand_balance(self):
        # losing 2000 W at T_in=20 against a 21 C setpoint: the thermostat
        # must supply C/dt * 1K + 2000 W = 2277.78 W -> 2.27778 kWh at COP 1
        b = sealed_building()
        weather = flat_weather(1, temp=0.0)
        schedule = OccupancySchedule(np.ones(168))
        out = simulate_physics(b, weather, schedule, t_init_c=20.0)
        expected_w = 1e6 / 3600.0 * 1.0 + 100.0 * 20.0
        assert out.values[0] == pytest.approx(expected_w / 1000.0, rel=1e-12)

    def test_monotone_in_ua_when_heating(self):
        schedule = OccupancySchedule(np.ones(168))
        weather = flat_weather(72, temp=-10.0)
        lo = simulate_physics(sealed_building(), weather, schedule, t_init_c=21.0)
        hi = simulate_physics(sealed_building(ua_w_per_k=200.0), weather, schedule, t_init_c=21.0)
        assert np.all(hi.values > lo.values)

    def test_nonnegative_energy(self):
        out = simulate_physics(BuildingParams(), make_weather(500, seed=3), default_occupancy())
        assert np.all(out.values >= 0.0)

    def test_seed_invariant(self):
        # physics consumes no randomness: same weather in, same energy out
        w = make_weather(200, seed=9)
        a = simulate_physics(BuildingParams(), w, default_occupancy())
        b = simulate_physics(BuildingParams(), w, default_occupancy())
        assert np.array_equal(a.values, b.values)

    def test_setbacks_apply_when_unoccupied(self):
        b = sealed_building()
        weather = flat_weather(24, temp=17.0)
        occupied = simulate_physics(b, weather, OccupancySchedule(np.ones(168)), t_init_c=21.0)
        empty = simulate_physics(b, weather, OccupancySchedule(np.zeros(168)), t_init_c=21.0)
        # 17 C is below the occupied heating setpoint but above the setback
        assert np.all(occupied.values > 0.0)
        assert np.allclose(empty.values, 0.0)


class TestMakeWeather:
    def test_zero_noise_is_exact_double_sinusoid(self):
        w = make_weather(8760, seed=1, noise_amp_c=0.0)
        h = np.arange(8760)
        hod = h % 24
        expected = 7.5 - 14.0 * np.cos(2 * np.pi * (h - 336) / 8760.0) + 4.5 * np.cos(2 * np.pi * (hod - 15) / 24.0)
        assert np.allclose(w.temp_c, expected, rtol=0, atol=1e-12)

    def test_extremes_land_in_the_right_hours(self):
        w = make_weather(8760, seed=1, noise_amp_c=0.0)
        coldest = int(np.argmin(w.temp_c))
        warmest = int(np.argmax(w.temp_c))
        assert coldest % 24 == 3          # diurnal minimum at 03:00
        assert 200 <= coldest <= 500      # mid-January
        assert warmest % 24 == 15         # mid-afternoon
        assert 4400 <= warmest <= 5000    # mid-July

    def test_deterministic_in_seed(self):
        a = make_weather(300, seed=4)
        b = make_weather(300, seed=4)
        c = make_weather(300, seed=5)
        assert np.array_equal(a.temp_c, b.temp_c)
        assert not np.array_equal(a.temp_c, c.temp_c)

    def test_solar_zero_at_night(self):
        w = make_weather(8760, seed=0)
        hod = np.arange(8760) % 24
        assert np.all(w.solar_w_per_m2[(hod < 6) | (hod > 18)] == 0.0)


class TestMakeTruth:
    def _physics(self, n=400):
        return simulate_physics(BuildingParams(), make_weather(n, seed=2), default_occupancy())

    def test_identity_with_everything_zero(self):
        p = self._physics()
        t = make_truth(p, bias=0.0, noise_std=0.0, behavior_amp=0.0, seed=1)
        assert np.array_equal(t.values, p.values)

    def test_pure_bias_is_exact_shift(self):
        p = self._physics()
        t = make_truth(p, bias=50.0, noise_std=0.0, behavior_amp=0.0, seed=1)
        assert np.allclose(t.values - p.values, 50.0, rtol=0, atol=1e-12)

    def test_mean_gap_matches_bias_within_lln_bound(self):
        p = self._physics(n=4000)
        noise = 8.0
        t = make_truth(p, bias=50.0, noise_std=noise, behavior_amp=0.0, seed=3)
        gap = float(np.mean(t.values - p.values))
        assert abs(gap - 50.0) <= 3.0 * noise / np.sqrt(4000)

    def test_clamped_at_zero(self):
        p = self._physics()
        t = make_truth(p, bias=-1e6, noise_std=0.0, behavior_amp=0.0, seed=1)
        assert np.all(t.values == 0.0)

    def test_deterministic_in_seed(self):
        p = self._physics()
        a = make_truth(p, 10.0, 5.0, 2.0, seed=8)
        b = make_truth(p, 10.0, 5.0, 2.0, seed=8)
        assert np.array_equal(a.values, b.values)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            make_truth(self._physics(), 0.0, -1.0, 0.0, seed=0)

    def test_behavior_pattern_roughly_zero_mean(self):
        ts = hourly_range("2021-01-04T00", 168 * 4)
        pattern = weekly_behavior_pattern(ts)
        assert abs(float(pattern.mean())) < 1e-12


class TestBaselineForecaster:
    def _fixture(self, n=24 * 40, constant=None, seed=5):
        weather = make_weather(n, seed=seed)
        if constant is not None:
            truth = EnergySeries.full(weather.timestamps, np.full(n, float(constant)))
        else:
            physics = simulate_physics(BuildingParams(), weather, default_occupancy())
            truth = make_truth(physics, 20.0, 5.0, 8.0, seed=seed + 1)
        rows = build_feature_rows(truth, weather.temp_c)
        return rows, truth

    def test_constant_truth_learned(self):
        c = 150.0
        rows, truth = self._fixture(constant=c)
        f = train_baseline_forecaster(rows, truth, SplitSpec(), seed=1)
        forecast = forecast_dl(f, rows)
        i_train, i_val = SplitSpec().boundaries(len(rows))
        train_mse = float(np.mean((forecast.values[:i_train] - c) ** 2))
        assert train_mse < 1e-3 * c * c
        test_vals = forecast.values[i_val:]
        assert np.all(np.abs(test_vals - c) <= 0.05 * c)

    def test_fit_has_no_knobs_and_uses_the_module_constants(self):
        assert list(inspect.signature(train_baseline_forecaster).parameters) == ["features", "truth", "split", "seed"]
        assert list(inspect.signature(make_weather).parameters) == ["year_hours", "seed", "start", "noise_amp_c"]
        rows, truth = self._fixture(n=24 * 20)
        f = train_baseline_forecaster(rows, truth, SplitSpec(), seed=2)
        assert f.w1.shape == (BASELINE_HIDDEN, N_FEATURES) and f.w2.shape == (BASELINE_HIDDEN, BASELINE_HIDDEN)
        assert (BASELINE_HIDDEN, BASELINE_ETA, BASELINE_MAX_EPOCHS, BASELINE_BATCH_SIZE, BASELINE_PATIENCE) == (
            32, 3e-3, 200, 256, 10)

    def test_deterministic_in_seed(self):
        rows, truth = self._fixture()
        a = train_baseline_forecaster(rows, truth, SplitSpec(), seed=3)
        b = train_baseline_forecaster(rows, truth, SplitSpec(), seed=3)
        assert np.array_equal(a.w1, b.w1) and a.b3 == b.b3

    def test_never_fits_on_test_rows(self):
        rows, truth = self._fixture()
        i_train, i_val = SplitSpec().boundaries(len(rows))
        corrupted = truth.copy()
        # corrupt targets inside the test region only (beyond any lag reach of
        # the fitted splits)
        corrupted.values[i_val + 48 :] += 1e4
        a = train_baseline_forecaster(rows, truth, SplitSpec(), seed=2)
        rows_c = build_feature_rows(corrupted, np.zeros(corrupted.n) + 10.0)
        # same lag windows inside train/val: reuse original rows for fitting
        b = train_baseline_forecaster(rows, corrupted, SplitSpec(), seed=2)
        assert np.array_equal(a.w1, b.w1)
        assert np.array_equal(a.w3, b.w3)
        assert rows_c is not None

    def test_forecast_is_pure_and_aligned(self):
        rows, truth = self._fixture()
        f = train_baseline_forecaster(rows, truth, SplitSpec(), seed=4)
        a = forecast_dl(f, rows)
        b = forecast_dl(f, rows)
        assert np.array_equal(a.values, b.values)
        assert a.n == len(rows)
        assert np.array_equal(a.timestamps, rows.timestamps)

    def test_disagrees_with_physics(self):
        # the fusion problem must be non-degenerate on default-style fixtures
        n = 24 * 40
        weather = make_weather(n, seed=11)
        physics = simulate_physics(BuildingParams(), weather, default_occupancy())
        truth = make_truth(physics, 50.0, 8.0, 12.0, seed=12)
        rows = build_feature_rows(truth, weather.temp_c)
        f = train_baseline_forecaster(rows, truth, SplitSpec(), seed=13)
        forecast = forecast_dl(f, rows)
        rmse_between = float(np.sqrt(np.mean((forecast.values - physics.values[24:]) ** 2)))
        assert rmse_between > 0.0


def _reference_forecast_dl(f, x_all):
    """The former rollout: one lag buffer per 24-hour block in a dict,
    written back row by row, through the former predict_matrix."""

    def predict_matrix(x_raw):
        x = (x_raw - f.feat_mean) / f.feat_std
        h1 = np.maximum(x @ f.w1.T + f.b1, 0.0)
        h2 = np.maximum(h1 @ f.w2.T + f.b2, 0.0)
        return (h2 @ f.w3 + f.b3) * f.y_std + f.y_mean

    n = len(x_all)
    out = np.empty(n)
    block_starts = np.arange(0, n, 24)
    lag_buf = {int(b): x_all[b, :24].copy() for b in block_starts}
    for j in range(24):
        rows = block_starts[block_starts + j < n] + j
        if len(rows) == 0:
            break
        x = x_all[rows].copy()
        for k, r in enumerate(rows):
            x[k, :24] = lag_buf[int(r - j)]
        preds = predict_matrix(x)
        out[rows] = preds
        for k, r in enumerate(rows):
            buf = lag_buf[int(r - j)]
            buf[:-1] = buf[1:]
            buf[-1] = preds[k]
    return out


def _world(n, start="2021-01-01T00", seed=5):
    weather = make_weather(n, seed=seed, start=start)
    physics = simulate_physics(BuildingParams(), weather, default_occupancy())
    return weather, make_truth(physics, 20.0, 5.0, 8.0, seed=seed + 1)


class TestColumnarRollout:
    @pytest.fixture(scope="class")
    def forecaster(self):
        weather, truth = _world(24 * 60)
        return train_baseline_forecaster(build_feature_rows(truth, weather.temp_c), truth, SplitSpec(), seed=7)

    @pytest.mark.parametrize(
        "start,hours",
        [
            ("2021-01-01T00", 8760),
            ("2021-01-01T00", 2160),
            ("2021-01-01T00", 967),  # 943 rows: the last block has 7 hours
            ("2023-12-30T00", 1700),  # crosses the year boundary and 2024-02-29
        ],
    )
    def test_forecast_matches_dict_reference_bytes(self, forecaster, start, hours):
        weather, truth = _world(hours, start=start)
        rows = build_feature_rows(truth, weather.temp_c)
        forecast = forecast_dl(forecaster, rows)
        assert forecast.values.tobytes() == _reference_forecast_dl(forecaster, rows.values).tobytes()
        assert np.array_equal(forecast.timestamps, rows.timestamps)

    def test_targets_taken_by_timestamp(self):
        weather, truth = _world(24 * 40)
        later = truth.slice(100)
        rows = build_feature_rows(later, weather.temp_c[100:])
        a = train_baseline_forecaster(rows, truth, SplitSpec(), seed=2)
        b = train_baseline_forecaster(rows, later, SplitSpec(), seed=2)
        assert np.array_equal(a.w1, b.w1) and a.b3 == b.b3

    def test_misaligned_features_rejected(self):
        weather, truth = _world(24 * 40)
        rows = build_feature_rows(truth, weather.temp_c)
        for shifted in (rows.timestamps - np.timedelta64(25, "h"), rows.timestamps + np.timedelta64(1, "h")):
            with pytest.raises(ValueError, match="outside truth hours"):
                train_baseline_forecaster(FeatureMatrix(rows.values, shifted), truth, SplitSpec(), seed=2)


def _reference_forward(x, w1, b1, w2, b2, w3, b3):
    a1 = x @ w1.T + b1
    h1 = np.maximum(a1, 0.0)
    a2 = h1 @ w2.T + b2
    h2 = np.maximum(a2, 0.0)
    return a1, h1, a2, h2, h2 @ w3 + b3


def _reference_train_baseline(features, truth, split, seed):
    """The former baseline fit, before its workspace: every minibatch,
    activation and gradient a fresh array, the output gradient spread with
    np.outer.  Returns the fitted weights as (w1, b1, w2, b2, w3, b3)."""
    n = len(features)
    start = int((features.timestamps[0] - truth.timestamps[0]).astype(np.int64))
    targets = truth.values[start : start + n]
    i_train, i_val = split.boundaries(n)
    x_train, y_train = features.values[:i_train], targets[:i_train]
    x_val, y_val = features.values[i_train:i_val], targets[i_train:i_val]
    feat_mean = x_train.mean(axis=0)
    feat_std = np.maximum(x_train.std(axis=0), 1e-8)
    y_mean = float(y_train.mean())
    y_std = float(max(y_train.std(), 1e-8))
    xt, yt = (x_train - feat_mean) / feat_std, (y_train - y_mean) / y_std
    xv, yv = (x_val - feat_mean) / feat_std, (y_val - y_mean) / y_std
    hidden = BASELINE_HIDDEN

    rng = np.random.default_rng(seed)

    def uniform(shape, fan_in):
        b = np.sqrt(1.0 / fan_in)
        return rng.uniform(-b, b, size=shape)

    shapes = ((hidden, N_FEATURES), (hidden,), (hidden, hidden), (hidden,), (hidden,), ())
    weights = np.concatenate([
        uniform((hidden, N_FEATURES), N_FEATURES).ravel(), np.zeros(hidden),
        uniform((hidden, hidden), hidden).ravel(), np.zeros(hidden),
        uniform((hidden,), hidden), [0.0],
    ])
    grads = np.zeros_like(weights)
    w, g = block_views(weights, shapes), block_views(grads, shapes)
    state = AdamState.init(weights, eta=BASELINE_ETA)

    def update(rows, epoch):
        xb, yb = xt[rows], yt[rows]
        a1, h1, a2, h2, out = _reference_forward(xb, *w)
        dout = 2.0 * (out - yb) / len(rows)
        g[4][...] = h2.T @ dout
        g[5][...] = np.sum(dout)
        da2 = np.outer(dout, w[4]) * (a2 > 0)
        g[2][...] = da2.T @ h1
        g[3][...] = da2.sum(axis=0)
        da1 = (da2 @ w[2]) * (a1 > 0)
        g[0][...] = da1.T @ xb
        g[1][...] = da1.sum(axis=0)
        adam_step(weights, grads, state, out=weights)
        return 0.0

    def validate(epoch):
        return float(np.mean((_reference_forward(xv, *w)[-1] - yv) ** 2))

    best, _ = fit_epochs(
        weights, len(xt), update, validate if len(xv) else None,
        BASELINE_MAX_EPOCHS, BASELINE_BATCH_SIZE, BASELINE_PATIENCE, rng,
    )
    return block_views(best, shapes)


class TestBaselineWorkspaceOracle:
    @pytest.fixture(scope="class")
    def world(self):
        weather, truth = _world(24 * 40, seed=9)
        return build_feature_rows(truth, weather.temp_c), truth

    @pytest.mark.parametrize(
        "split",
        [
            SplitSpec(),  # 561 training rows: minibatches of 256, 256 and a ragged 49
            SplitSpec(0.2, 0.4, 0.4),  # 187 rows: one minibatch, smaller than the batch size
            SplitSpec(0.6, 1e-4, 0.3999),  # no validation rows: the last vector is kept
            SplitSpec(0.548, 0.2, 0.252),  # 512 rows: two full minibatches, none ragged
        ],
        ids=["ragged-with-validation", "one-batch", "no-validation", "two-full-batches"],
    )
    def test_fit_matches_allocating_reference_bit_for_bit(self, world, split):
        features, truth = world
        f = train_baseline_forecaster(features, truth, split, seed=21)
        ref = _reference_train_baseline(features, truth, split, 21)
        got = (f.w1, f.b1, f.w2, f.b2, f.w3, np.float64(f.b3))
        for name, a, b in zip(("w1", "b1", "w2", "b2", "w3", "b3"), got, ref):
            assert np.asarray(a).tobytes() == b.tobytes(), name


class TestOccupancy:
    def test_default_schedule_shape(self):
        s = default_occupancy()
        assert s.fractions.shape == (168,)
        assert np.all((0 <= s.fractions) & (s.fractions <= 1))

    def test_bad_schedule_rejected(self):
        with pytest.raises(ValueError):
            OccupancySchedule(np.zeros(100))
        bad = np.zeros(168)
        bad[0] = 1.5
        with pytest.raises(ValueError):
            OccupancySchedule(bad)

    def test_lookup_by_hour_of_week(self):
        frac = np.arange(168) / 168.0
        s = OccupancySchedule(frac)
        ts = hourly_range("2021-01-04T00", 3)  # Monday 00:00
        vals = s.at(ts)
        assert vals[0] == frac[0] and vals[2] == frac[2]
