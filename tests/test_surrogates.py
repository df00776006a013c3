import inspect

import numpy as np
import pytest

from fusecast import surrogates
from fusecast.numkit import AdamState, TrainingDiverged, adam_step, block_views, fit_epochs
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

    @pytest.mark.parametrize("name", ["ua_w_per_k", "occupants", "heat_setpoint_c", "hvac_efficiency"])
    @pytest.mark.parametrize("value", ["1", True, None, np.nan])
    def test_field_that_is_not_a_finite_real_rejected(self, name, value):
        # occupants=True would simulate one occupant
        with pytest.raises(ValueError, match=f"{name} must be finite and a real number, got {value!r}"):
            BuildingParams(**{name: value})

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


def _reference_simulate_physics(params, weather, schedule):
    """simulate_physics' RC loop as first written: one step per hour,
    indexing numpy arrays and computing on numpy scalars."""
    n = len(weather.temp_c)
    occ = schedule.at(weather.timestamps)
    ua = params.ua_effective
    c_per_dt = params.capacitance_j_per_k / 3600.0
    dt_per_c = 3600.0 / params.capacitance_j_per_k
    area = params.floor_area_m2
    base_gain = params.occupants * 100.0 + params.equipment_w_per_m2 * area
    solar_gain = 0.05 * area * weather.solar_w_per_m2
    energy = np.empty(n)
    t_in = 0.5 * (params.heat_setpoint_c + params.cool_setpoint_c)
    for t in range(n):
        occupied = occ[t] >= 0.5
        heat_sp = params.heat_setpoint_c if occupied else params.heat_setback_c
        cool_sp = params.cool_setpoint_c if occupied else params.cool_setback_c
        q_int = occ[t] * base_gain + solar_gain[t]
        passive = ua * (weather.temp_c[t] - t_in) + q_int
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
        electric_w = abs(q_hvac) / params.hvac_efficiency + params.equipment_w_per_m2 * area * occ[t]
        energy[t] = electric_w / 1000.0
        t_in = t_next
    return energy


def _reference_ar_noise(year_hours, seed):
    """make_weather's AR(1) noise as first written: one step per hour on
    numpy scalars, the square root taken anew on every step."""
    eps = np.random.default_rng(seed).standard_normal(year_hours)
    phi = 0.97
    ar = np.empty(year_hours)
    ar[0] = eps[0]
    for t in range(1, year_hours):
        ar[t] = phi * ar[t - 1] + np.sqrt(1.0 - phi * phi) * eps[t]
    return ar


class TestSimulatePhysics:
    @pytest.mark.parametrize("n,seed", [(1, 0), (2, 1), (500, 3), (8760, 42)])
    def test_matches_the_per_step_reference_byte_for_byte(self, n, seed):
        weather = make_weather(n, seed=seed)
        restless = OccupancySchedule(np.random.default_rng(seed).uniform(size=168))
        buildings = [BuildingParams(), sealed_building(), sealed_building(ua_w_per_k=200.0, occupants=3, heat_setpoint_c=18)]
        for building in buildings:
            for schedule in (default_occupancy(), restless):
                out = simulate_physics(building, weather, schedule)
                ref = _reference_simulate_physics(building, weather, schedule)
                assert out.values.tobytes() == ref.tobytes(), building

    def test_equilibrium_no_load_no_energy(self):
        # zone sits at the band midpoint with matching outdoor air and no gains
        b = sealed_building()
        weather = flat_weather(48, temp=22.0)
        schedule = OccupancySchedule(np.zeros(168))
        out = simulate_physics(b, weather, schedule)
        assert np.allclose(out.values, 0.0, atol=0, rtol=0)

    def test_one_step_hand_balance(self):
        # the zone starts at 22 C, the middle of its 21-23 C band, and loses
        # 2200 W to 0 C air: it may cool by 1 K to the 21 C setpoint, so the
        # thermostat supplies 2200 W - C/dt * 1K = 1922.22 W -> 1.92222 kWh
        # at COP 1
        b = sealed_building()
        weather = flat_weather(1, temp=0.0)
        schedule = OccupancySchedule(np.ones(168))
        out = simulate_physics(b, weather, schedule)
        expected_w = 100.0 * 22.0 - 1e6 / 3600.0 * 1.0
        assert out.values[0] == pytest.approx(expected_w / 1000.0, rel=1e-12)

    @pytest.mark.parametrize("heat,cool", [(21.0, 23.0), (18.0, 26.0), (20.0, 30.0)], ids=["21-23", "18-26", "20-30"])
    def test_zone_starts_at_the_middle_of_the_occupied_band(self, heat, cool):
        # 0 C air pulls the zone below the heating setpoint within the first
        # hour, so the thermostat supplies UA * mid - C/dt * (mid - heat)
        b = sealed_building(heat_setpoint_c=heat, cool_setpoint_c=cool)
        mid = 0.5 * (heat + cool)
        out = simulate_physics(b, flat_weather(1, temp=0.0), OccupancySchedule(np.ones(168)))
        expected_w = 100.0 * mid - 1e6 / 3600.0 * (mid - heat)
        assert out.values[0] == pytest.approx(expected_w / 1000.0, rel=1e-12)

    def test_start_temperature_is_not_an_argument(self):
        weather = flat_weather(1, temp=0.0)
        assert list(inspect.signature(simulate_physics).parameters) == ["params", "weather", "schedule"]
        with pytest.raises(TypeError):
            simulate_physics(sealed_building(), weather, default_occupancy(), 20.0)

    def test_monotone_in_ua_when_heating(self):
        schedule = OccupancySchedule(np.ones(168))
        weather = flat_weather(72, temp=-10.0)
        lo = simulate_physics(sealed_building(), weather, schedule)
        hi = simulate_physics(sealed_building(ua_w_per_k=200.0), weather, schedule)
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
        occupied = simulate_physics(b, weather, OccupancySchedule(np.ones(168)))
        empty = simulate_physics(b, weather, OccupancySchedule(np.zeros(168)))
        # 17 C is below the occupied heating setpoint but above the setback,
        # so from the 22 C start the empty zone drifts down unheated
        assert np.all(occupied.values > 0.0)
        assert np.allclose(empty.values, 0.0)


class TestWeatherSeries:
    def test_gapped_timestamps_rejected(self):
        ts = hourly_range("2021-01-04T00", 5)
        gapped = np.concatenate([ts[:2], ts[3:], ts[-1:] + np.timedelta64(1, "h")])
        with pytest.raises(ValueError, match="weather timestamps must be contiguous"):
            WeatherSeries(gapped, np.zeros(5), np.zeros(5))
        with pytest.raises(ValueError, match="weather timestamps must be contiguous"):
            WeatherSeries(ts[::-1], np.zeros(5), np.zeros(5))

    @pytest.mark.parametrize("name", ["timestamps", "temp_c", "solar_w_per_m2"])
    def test_arrays_that_are_not_1d_rejected(self, name):
        # only the lengths were compared, so (5, 2) arrays passed
        arrays = {"timestamps": hourly_range("2021-01-04T00", 5), "temp_c": np.zeros(5), "solar_w_per_m2": np.zeros(5)}
        arrays[name] = np.stack([arrays[name]] * 2, axis=1)
        with pytest.raises(ValueError, match=rf"^weather {name} must be 1-D, got shape \(5, 2\)$"):
            WeatherSeries(**arrays)


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

    @pytest.mark.parametrize("n,seed", [(1, 0), (2, 1), (300, 4), (8760, 42)])
    @pytest.mark.parametrize("amp", [1.5, 0.25])
    def test_noise_matches_the_per_step_reference_byte_for_byte(self, n, seed, amp):
        calm = make_weather(n, seed=seed, noise_amp_c=0.0).temp_c
        expected = calm + amp * _reference_ar_noise(n, seed)
        assert make_weather(n, seed=seed, noise_amp_c=amp).temp_c.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("year_hours", [0, -1, 2.5, True, np.float64(24.0), "24", None])
    def test_year_hours_must_be_a_count(self, year_hours):
        with pytest.raises(ValueError, match="year_hours"):
            make_weather(year_hours)

    @pytest.mark.parametrize("amp", [float("nan"), float("inf"), -1.0, -1e-300, True, "1.5", None])
    def test_noise_amp_must_be_a_finite_non_negative_real(self, amp):
        with pytest.raises(ValueError, match="noise_amp_c"):
            make_weather(24, noise_amp_c=amp)

    def test_integer_hours_and_amplitude_accepted(self):
        a = make_weather(np.int64(48), seed=2, noise_amp_c=2)
        assert a.temp_c.tobytes() == make_weather(48, seed=2, noise_amp_c=2.0).temp_c.tobytes()

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

    @pytest.mark.parametrize("name", ["bias", "noise_std", "behavior_amp"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), True, "1"])
    def test_term_that_is_not_a_finite_real_rejected(self, name, value):
        # noise_std=nan used to skip the noise (nan > 0 is False) and
        # bias=True used to shift the truth by 1 kWh
        terms = {"bias": 10.0, "noise_std": 5.0, "behavior_amp": 2.0, name: value}
        with pytest.raises(ValueError, match=rf"^{name} must be finite and a real number, got "):
            make_truth(self._physics(), seed=0, **terms)

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
        rows, _ = self._fixture(constant=c)
        f = train_baseline_forecaster(rows, SplitSpec(), seed=1)
        forecast = forecast_dl(f, rows)
        i_train, i_val = SplitSpec().boundaries(len(rows))
        train_mse = float(np.mean((forecast.values[:i_train] - c) ** 2))
        assert train_mse < 1e-3 * c * c
        test_vals = forecast.values[i_val:]
        assert np.all(np.abs(test_vals - c) <= 0.05 * c)

    def test_fit_has_no_knobs_and_uses_the_module_constants(self):
        assert list(inspect.signature(train_baseline_forecaster).parameters) == ["features", "split", "seed"]
        assert list(inspect.signature(make_weather).parameters) == ["year_hours", "seed", "start", "noise_amp_c"]
        rows, _ = self._fixture(n=24 * 20)
        f = train_baseline_forecaster(rows, SplitSpec(), seed=2)
        assert f.w1.shape == (BASELINE_HIDDEN, N_FEATURES) and f.w2.shape == (BASELINE_HIDDEN, BASELINE_HIDDEN)
        assert (BASELINE_HIDDEN, BASELINE_ETA, BASELINE_MAX_EPOCHS, BASELINE_BATCH_SIZE, BASELINE_PATIENCE) == (
            32, 3e-3, 200, 256, 10)

    def test_deterministic_in_seed(self):
        rows, _ = self._fixture()
        a = train_baseline_forecaster(rows, SplitSpec(), seed=3)
        b = train_baseline_forecaster(rows, SplitSpec(), seed=3)
        assert np.array_equal(a.w1, b.w1) and a.b3 == b.b3

    def test_never_fits_on_test_rows(self):
        rows, truth = self._fixture()
        _, i_val = SplitSpec().boundaries(len(rows))
        corrupted = truth.copy()
        # corrupt the test region only: row r's lags and target are truth
        # steps r..r+24, so the last fitted row, i_val - 1, reads up to step
        # i_val + 23
        corrupted.values[i_val + 48 :] += 1e4
        rows_c = build_feature_rows(corrupted, make_weather(truth.n, seed=5).temp_c)
        assert rows_c.values[:i_val].tobytes() == rows.values[:i_val].tobytes()
        assert rows_c.targets[:i_val].tobytes() == rows.targets[:i_val].tobytes()
        assert not np.array_equal(rows_c.targets, rows.targets)
        a = train_baseline_forecaster(rows, SplitSpec(), seed=2)
        b = train_baseline_forecaster(rows_c, SplitSpec(), seed=2)
        assert np.array_equal(a.w1, b.w1)
        assert np.array_equal(a.w3, b.w3)

    def test_forecast_is_pure_and_aligned(self):
        rows, _ = self._fixture()
        f = train_baseline_forecaster(rows, SplitSpec(), seed=4)
        a = forecast_dl(f, rows)
        b = forecast_dl(f, rows)
        assert np.array_equal(a.values, b.values)
        assert a.n == len(rows)
        assert np.array_equal(a.timestamps, rows.timestamps)

    def test_non_finite_validation_loss_raises(self):
        # one validation target of 1e300 makes every epoch's validation
        # loss inf; the fit used to return its initial weights
        rows, _ = self._fixture(n=1000)
        i_train, _ = SplitSpec().boundaries(len(rows))
        targets = rows.targets.copy()
        targets[i_train + 5] = 1e300
        with pytest.raises(TrainingDiverged, match=r"^epoch 0: non-finite validation loss$"):
            train_baseline_forecaster(FeatureMatrix(rows.values, rows.timestamps, targets), SplitSpec(), seed=1)

    def test_non_finite_gradient_raises_before_the_step(self, monkeypatch):
        # weights of 1e200 overflow the forward pass, so the first gradient
        # is not finite; Adam would write it into the weights
        steps = []
        monkeypatch.setattr(surrogates, "draw_uniform", lambda rng, blocks: [b.fill(1e200) for b in blocks])
        monkeypatch.setattr(surrogates, "adam_step", lambda *args: steps.append(args))
        rows, _ = self._fixture(n=24 * 20)
        with pytest.raises(TrainingDiverged, match=r"^epoch 0: non-finite baseline gradient$"):
            train_baseline_forecaster(rows, SplitSpec(), seed=1)
        assert steps == []

    def test_split_with_no_validation_rows_rejected(self):
        # the fit early-stops on its validation rows; it never keeps the
        # last weights of a fit that had none
        rows, _ = self._fixture(n=24 * 20)
        split = SplitSpec(0.6, 1e-4, 0.3999)
        i_train, i_val = split.boundaries(len(rows))
        assert i_val == i_train > 0
        with pytest.raises(ValueError, match="^no validation rows for the baseline forecaster$"):
            train_baseline_forecaster(rows, split, seed=1)

    def test_disagrees_with_physics(self):
        # the fusion problem must be non-degenerate on default-style fixtures
        n = 24 * 40
        weather = make_weather(n, seed=11)
        physics = simulate_physics(BuildingParams(), weather, default_occupancy())
        truth = make_truth(physics, 50.0, 8.0, 12.0, seed=12)
        rows = build_feature_rows(truth, weather.temp_c)
        f = train_baseline_forecaster(rows, SplitSpec(), seed=13)
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
        return train_baseline_forecaster(build_feature_rows(truth, weather.temp_c), SplitSpec(), seed=7)

    @pytest.mark.parametrize(
        "start,hours",
        [
            ("2021-01-01T00", 8760),
            ("2021-01-01T00", 2160),
            ("2021-01-01T00", 967),  # 943 rows: the last block has 7 hours
            ("2023-12-30T00", 1700),  # crosses the year boundary and 2024-02-29
            ("2021-01-01T00", 40),  # 16 rows: one block, shorter than a day
        ],
    )
    def test_forecast_matches_dict_reference_bytes(self, forecaster, start, hours):
        weather, truth = _world(hours, start=start)
        rows = build_feature_rows(truth, weather.temp_c)
        forecast = forecast_dl(forecaster, rows)
        assert forecast.values.tobytes() == _reference_forecast_dl(forecaster, rows.values).tobytes()
        assert np.array_equal(forecast.timestamps, rows.timestamps)


def _reference_forward(x, w1, b1, w2, b2, w3, b3):
    a1 = x @ w1.T + b1
    h1 = np.maximum(a1, 0.0)
    a2 = h1 @ w2.T + b2
    h2 = np.maximum(a2, 0.0)
    return a1, h1, a2, h2, h2 @ w3 + b3


def _reference_train_baseline(features, split, seed):
    """The former baseline fit, before its workspace: every minibatch,
    activation and gradient a fresh array, the output gradient spread with
    np.outer.  Returns the fitted weights as (w1, b1, w2, b2, w3, b3)."""
    targets = features.targets
    i_train, i_val = split.boundaries(len(features))
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
        adam_step(weights, grads, state)
        return 0.0

    def validate(epoch):
        return float(np.mean((_reference_forward(xv, *w)[-1] - yv) ** 2))

    best, _ = fit_epochs(
        weights, len(xt), update, validate,
        BASELINE_MAX_EPOCHS, BASELINE_BATCH_SIZE, BASELINE_PATIENCE, rng,
    )
    return block_views(best, shapes)


class TestBaselineWorkspaceOracle:
    @pytest.fixture(scope="class")
    def world(self):
        weather, truth = _world(24 * 40, seed=9)
        return build_feature_rows(truth, weather.temp_c)

    @pytest.mark.parametrize(
        "split",
        [
            SplitSpec(),  # 561 training rows: minibatches of 256, 256 and a ragged 49
            SplitSpec(0.2, 0.4, 0.4),  # 187 rows: one minibatch, smaller than the batch size
            SplitSpec(0.548, 0.2, 0.252),  # 512 rows: two full minibatches, none ragged
        ],
        ids=["ragged-with-validation", "one-batch", "two-full-batches"],
    )
    def test_fit_matches_allocating_reference_bit_for_bit(self, world, split):
        f = train_baseline_forecaster(world, split, seed=21)
        ref = _reference_train_baseline(world, split, 21)
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

    def test_nan_fractions_rejected(self):
        # NaN fails both `< 0` and `> 1`; it must still be caught here, not
        # later in the physics or EnergySeries with a message about energy
        for frac in (np.full(168, np.nan), np.where(np.arange(168) == 5, np.nan, 0.5)):
            with pytest.raises(ValueError, match="occupancy fractions must be finite"):
                OccupancySchedule(frac)

    def test_lookup_by_hour_of_week(self):
        frac = np.arange(168) / 168.0
        s = OccupancySchedule(frac)
        ts = hourly_range("2021-01-04T00", 3)  # Monday 00:00
        vals = s.at(ts)
        assert vals[0] == frac[0] and vals[2] == frac[2]
