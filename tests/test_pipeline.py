from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusecast.harness import scenario_config
from fusecast.pipeline import (
    IMPUTATION_KINDS,
    STD_FLOOR,
    EnergySeries,
    FeatureMatrix,
    NormStats,
    SampleBatch,
    SplitSpec,
    _check_aligned,
    apply_sparsity,
    assemble_samples,
    build_feature_rows,
    denormalize_target,
    fit_norm_stats,
    hour_of_day,
    hourly_range,
    impute,
    normalize_samples,
    split_samples,
    write_timestamped_csv,
)


def series_from(values, present=None, start="2021-01-01T00"):
    values = np.asarray(values, dtype=np.float64)
    if present is None:
        present = np.isfinite(values)
    return EnergySeries(hourly_range(start, len(values)), values, np.asarray(present, dtype=bool))


def scenario_ns(dl_available=True, ep_available=True, truth_mode="full", imputation="linear_interpolation"):
    return SimpleNamespace(
        dl_available=dl_available, ep_available=ep_available, truth_mode=truth_mode, imputation=imputation
    )


class TestEnergySeries:
    def test_missing_steps_hold_nan_sentinel(self):
        s = series_from([1.0, 2.0, 3.0], present=[True, False, True])
        assert np.isnan(s.values[1])
        assert s.present.tolist() == [True, False, True]

    @pytest.mark.parametrize("name", ["values", "present", "timestamps"])
    def test_arrays_that_are_not_1d_rejected(self, name):
        # 2-D values with one row per timestamp used to pass
        ts = hourly_range("2021-01-01T00", 3)
        arrays = {"timestamps": ts, "values": np.zeros(3), "present": np.ones(3, dtype=bool)}
        arrays[name] = np.stack([arrays[name]] * 2, axis=1)
        with pytest.raises(ValueError, match=rf"^{name} must be 1-D, got shape \(3, 2\)$"):
            EnergySeries(**arrays)

    def test_noncontiguous_rejected(self):
        ts = hourly_range("2021-01-01T00", 3)
        ts[2] += np.timedelta64(5, "h")
        with pytest.raises(ValueError):
            EnergySeries(ts, np.zeros(3), np.ones(3, dtype=bool))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EnergySeries(hourly_range("2021-01-01T00", 3), np.zeros(2), np.ones(3, dtype=bool))

    def test_slices_are_aligned_views(self):
        values = np.arange(48.0)
        present = values % 5 != 0
        s = series_from(values, present)
        for part, lo, hi in ((s.slice(7), 7, 48), (s.slice(7, 40), 7, 40), (s.slice(7, 40).slice(3, 20), 10, 27)):
            assert part.n == hi - lo
            assert np.array_equal(part.timestamps, s.timestamps[lo:hi])
            assert np.array_equal(part.present, present[lo:hi])
            assert not part.present.all()
            assert np.array_equal(part.values, np.where(present[lo:hi], values[lo:hi], np.nan), equal_nan=True)
            for name in ("timestamps", "values", "present"):
                assert np.shares_memory(getattr(part, name), getattr(s, name)), name

    def test_constructor_copies_what_a_slice_shares(self):
        s = series_from(np.arange(10.0))
        rebuilt = EnergySeries(s.timestamps, s.values, s.present)
        assert not np.shares_memory(rebuilt.values, s.values)
        assert not np.shares_memory(rebuilt.present, s.present)
        s.slice(2).values[0] = -1.0
        assert s.values[2] == -1.0 and rebuilt.values[2] == 2.0


class TestImpute:
    def test_linear_interpolation_hand_case(self):
        s = series_from([2.0, np.nan, 4.0])
        out = impute(s, "linear_interpolation")
        assert out.values.tolist() == [2.0, 3.0, 4.0]
        assert out.present.all()

    def test_nearest_neighbor_hand_case(self):
        s = series_from([2.0, np.nan, np.nan, 8.0])
        out = impute(s, "nearest_neighbor")
        assert out.values.tolist() == [2.0, 2.0, 8.0, 8.0]

    def test_nearest_neighbor_tie_goes_earlier(self):
        s = series_from([5.0, np.nan, 9.0])
        out = impute(s, "nearest_neighbor")
        assert out.values[1] == 5.0

    def test_historical_averaging_uses_prior_days_only(self):
        n = 24 * 4
        vals = np.ones(n)
        vals[: 24] = 2.0
        vals[24: 48] = 4.0
        present = np.ones(n, dtype=bool)
        missing_idx = 24 * 2 + 5
        present[missing_idx] = False
        later_same_hour = 24 * 3 + 5
        vals[later_same_hour] = 100.0  # must never be read (not a prior day)
        s = series_from(vals, present)
        out = impute(s, "historical_averaging")
        assert out.values[missing_idx] == pytest.approx(3.0)  # mean of 2 and 4

    def test_historical_averaging_no_prior_day_falls_back_to_nearest(self):
        s = series_from([np.nan, 7.0, 8.0])
        out = impute(s, "historical_averaging")
        assert out.values[0] == 7.0

    def test_idempotence_all_strategies(self):
        rng = np.random.default_rng(0)
        vals = rng.random(24 * 5) * 10
        present = rng.random(len(vals)) > 0.3
        present[0] = True
        s = series_from(vals, present)
        for kind in IMPUTATION_KINDS:
            once = impute(s, kind)
            twice = impute(once, kind)
            assert np.array_equal(once.values, twice.values)

    def test_present_values_unchanged_bit_exactly(self):
        rng = np.random.default_rng(1)
        vals = rng.random(48) * 7
        present = rng.random(48) > 0.4
        present[[0, -1]] = True
        s = series_from(vals, present)
        for kind in IMPUTATION_KINDS:
            out = impute(s, kind)
            assert np.array_equal(out.values[present], vals[present])

    def test_affine_series_reconstructed_exactly(self):
        n = 120
        vals = 3.5 * np.arange(n) + 11.0
        rng = np.random.default_rng(2)
        present = rng.random(n) > 0.4
        present[[0, n - 1]] = True
        s = series_from(np.where(present, vals, np.nan), present)
        out = impute(s, "linear_interpolation")
        assert np.allclose(out.values, vals, rtol=1e-12, atol=1e-12)

    def test_all_missing_rejected(self):
        s = series_from([np.nan, np.nan], present=[False, False])
        for kind in IMPUTATION_KINDS:
            with pytest.raises(ValueError, match=f"^cannot impute an all-missing series with {kind}$"):
                impute(s, kind)

    def test_unknown_strategy_rejected(self):
        # the neighbour mean is the forecast stand-in of assemble_samples,
        # not a strategy
        for kind in ("knn", "neighbor_mean_or_zero"):
            with pytest.raises(ValueError, match=f"^unknown imputation strategy '{kind}'$"):
                impute(series_from([1.0, np.nan]), kind)


# ---------------------------------------------------------------------------
# Step-by-step definitions of the imputation strategies and of the neighbour
# mean that assemble_samples gives a forecast's gaps, as loops over the
# missing steps; the array code must give the same bytes.
# ---------------------------------------------------------------------------

def _reference_nearest_fill(values, present, targets):
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


def _reference_impute(series, strategy):
    """The filled values of ``series`` under ``strategy``."""
    missing = np.flatnonzero(~series.present)
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
    elif strategy == "nearest_neighbor":
        values[missing] = _reference_nearest_fill(series.values, present, missing)
    elif strategy == "linear_interpolation":
        present_idx = np.flatnonzero(present)
        values[missing] = np.interp(missing.astype(np.float64), present_idx.astype(np.float64), series.values[present_idx])
    elif strategy == "historical_averaging":
        hods = hour_of_day(series.timestamps)
        sums = np.zeros(24)
        counts = np.zeros(24, dtype=np.int64)
        fallback = _reference_nearest_fill(series.values, present, missing)
        fb = dict(zip(missing.tolist(), fallback.tolist()))
        for i in range(series.n):
            h = hods[i]
            if not present[i]:
                values[i] = sums[h] / counts[h] if counts[h] > 0 else fb[i]
            else:
                sums[h] += series.values[i]
                counts[h] += 1
    return values


def standin(forecast):
    """The values assemble_samples gives a dl forecast with gaps."""
    return assemble_samples(forecast, None, forecast, scenario_ns(ep_available=False, truth_mode="absent")).dl


def assert_fills_match_reference(series):
    """Each strategy's fill (or its all-missing error) and the forecast
    stand-in equal the step-by-step definitions."""
    for strategy in IMPUTATION_KINDS:
        if not series.present.any():
            with pytest.raises(ValueError, match="all-missing"):
                impute(series, strategy)
            continue
        out = impute(series, strategy)
        assert out.present.all(), strategy
        assert out.values.tobytes() == _reference_impute(series, strategy).tobytes(), strategy
    assert standin(series).tobytes() == _reference_impute(series, "neighbor_mean_or_zero").tobytes()


def _random_series(rng, n, scale, missing_frac, start_hour=0):
    values = rng.standard_normal(n) * scale
    values[rng.random(n) < 0.1] = -0.0
    present = rng.random(n) >= missing_frac
    start = np.datetime64("2021-01-01T00", "h") + start_hour
    return EnergySeries(hourly_range(start, n), values, present)


_HUGE = 1e300  # a neighbour sum or an hour's running sum stays finite


class TestImputeMatchesStepByStepReference:
    @pytest.mark.parametrize("scale", [1.0, 1e-300, 100.0, _HUGE])
    def test_seeded_random_series(self, scale):
        rng = np.random.default_rng(int(np.log10(scale)) + 400)
        for _ in range(150):
            n = int(rng.integers(1, 24 * 6))
            s = _random_series(rng, n, scale, rng.random(), int(rng.integers(24)))
            assert_fills_match_reference(s)

    def test_full_year_with_a_fifth_missing(self):
        s = apply_sparsity(_random_series(np.random.default_rng(5), 8760, 40.0, 0.0), 0.2, 5)
        assert_fills_match_reference(s)

    @settings(max_examples=200, deadline=None)
    @given(
        cells=st.lists(
            st.tuples(st.floats(-_HUGE, _HUGE, allow_subnormal=True), st.booleans()), min_size=1, max_size=80
        ),
        start_hour=st.integers(0, 23),
    )
    def test_hypothesis_series(self, cells, start_hour):
        values, present = map(np.array, zip(*cells))
        s = EnergySeries(hourly_range(np.datetime64("2021-01-01T00", "h") + start_hour, len(cells)), values, present)
        assert_fills_match_reference(s)

    @pytest.mark.parametrize(
        "values",
        [
            [np.nan, 1.0, 2.0, np.nan],                      # first and last step missing
            [1.0, np.nan, np.nan, np.nan, np.nan, 6.0, np.nan, np.nan, 9.0],  # runs of gaps
            [5.0, np.nan, 9.0, np.nan, np.nan, 3.0],          # equidistant ties
            [np.nan, np.nan, 4.0, np.nan, np.nan, np.nan, np.nan, 8.0],
            [7.0],                                             # one present step
            [-0.0, np.nan, -0.0, np.nan, 0.0, np.nan, np.nan, -0.0],
            [-_HUGE, np.nan, -_HUGE, np.nan, _HUGE, np.nan, -_HUGE],
            [5e-324, np.nan, 0.0, -5e-324, np.nan, -5e-324],  # subnormal halves round
        ],
    )
    def test_edge_series(self, values):
        assert_fills_match_reference(series_from(values))

    def test_gaps_on_the_first_day_fall_back_to_nearest(self):
        vals = np.arange(72.0) - 30.0
        vals[[0, 5, 23, 24 + 5, 48 + 23]] = np.nan
        s = series_from(vals)
        assert_fills_match_reference(s)
        out = impute(s, "historical_averaging")
        # hours 0 and 5 have no present value on an earlier day: nearest
        # neighbour, a tie going earlier; hour 23 on day 3 averages day 2
        assert out.values[[0, 5, 24 + 5, 48 + 23]].tolist() == [-29.0, -26.0, -2.0, 17.0]

    @pytest.mark.parametrize("n", [1, 2, 25])
    def test_all_missing_series_fills_zero(self, n):
        # the forecast stand-in does; every strategy raises
        s = series_from(np.full(n, np.nan))
        assert_fills_match_reference(s)
        assert standin(s).tobytes() == np.zeros(n).tobytes()

    def test_negative_zero_neighbours_give_positive_zero_like_np_mean(self):
        out = standin(series_from([-0.0, np.nan, -0.0, np.nan]))
        assert [np.signbit(v) for v in out] == [True, False, True, False]

    def test_overflowing_fill_names_strategy_and_step_without_warning(self):
        # historical averaging: the running sum of hour 0 (1e308 + 1e308)
        # overflows before it fills hour 48
        values = np.ones(73)
        values[[0, 24]] = 1e308
        present = np.ones(73, dtype=bool)
        present[48] = False
        with pytest.raises(ValueError, match="historical_averaging: the fill of missing step 48 overflows"):
            impute(series_from(values, present), "historical_averaging")
        # linear interpolation: the slope 1e308 -> -1e308 overflows
        with pytest.raises(ValueError, match="linear_interpolation: the fill of missing step 1 overflows"):
            impute(series_from([1e308, np.nan, -1e308]), "linear_interpolation")


class TestApplySparsity:
    def test_zero_fraction_unchanged(self):
        s = series_from(np.arange(10.0))
        out = apply_sparsity(s, 0.0, 1)
        assert out.present.all()

    def test_exact_count(self):
        s = series_from(np.arange(100.0))
        out = apply_sparsity(s, 0.2, 7)
        assert int((~out.present).sum()) == 20

    def test_deterministic_in_seed(self):
        s = series_from(np.arange(200.0))
        a = apply_sparsity(s, 0.3, 42)
        b = apply_sparsity(s, 0.3, 42)
        assert np.array_equal(a.present, b.present)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            apply_sparsity(series_from([1.0]), 1.0, 0)


class TestAssembleSamples:
    def _series_triple(self, n=8):
        ts = hourly_range("2021-03-01T00", n)
        dl = EnergySeries.full(ts, np.linspace(10, 17, n))
        ep = EnergySeries.full(ts, np.linspace(20, 27, n))
        truth = EnergySeries.full(ts, np.linspace(30, 37, n))
        return dl, ep, truth

    def test_scenario1_all_masks_one(self):
        dl, ep, truth = self._series_triple()
        samples = assemble_samples(dl, ep, truth, scenario_ns())
        assert np.all((samples.dl_mask == 1) & (samples.ep_mask == 1))
        assert np.all(samples.target == truth.values)

    def test_scenario4_dl_zeroed(self):
        dl, ep, truth = self._series_triple()
        samples = assemble_samples(dl, ep, truth, scenario_ns(dl_available=False))
        assert np.all((samples.dl == 0.0) & (samples.dl_mask == 0) & (samples.ep_mask == 1))

    def test_scenario3_proxy_targets(self):
        dl, ep, truth = self._series_triple()
        samples = assemble_samples(None, ep, truth, scenario_ns(dl_available=False, truth_mode="absent"))
        assert np.all(samples.target == ep.values)

    def test_scenario3_target_stats_are_physics_stats(self):
        # every row's target is its physics value, and the target
        # statistics are fitted over every row
        dl, ep, truth = self._series_triple()
        samples = assemble_samples(None, ep, truth, scenario_ns(dl_available=False, truth_mode="absent"))
        stats = fit_norm_stats(samples)
        assert stats.y_mean == stats.ep_mean == float(np.mean(ep.values))
        assert stats.y_std == stats.ep_std == float(np.std(ep.values))

    def test_scenario5_ep_zeroed(self):
        dl, ep, truth = self._series_triple()
        samples = assemble_samples(dl, ep, truth, scenario_ns(ep_available=False))
        assert np.all((samples.ep == 0.0) & (samples.ep_mask == 0) & (samples.dl_mask == 1))

    @pytest.mark.parametrize("stream", ["dl", "ep"])
    def test_available_stream_without_a_forecast_rejected(self, stream):
        # it used to be zeroed with mask 0, as if the scenario had no such stream
        dl, ep, truth = self._series_triple()
        series = {"dl": dl, "ep": ep, stream: None}
        with pytest.raises(ValueError, match=f"^{stream} forecast: the scenario marks the stream available, but none"):
            assemble_samples(series["dl"], series["ep"], truth, scenario_ns())
        unavailable = scenario_ns(**{f"{stream}_available": False})
        samples = assemble_samples(series["dl"], series["ep"], truth, unavailable)
        assert not np.any(getattr(samples, f"{stream}_mask"))

    @pytest.mark.parametrize("truth_mode", ["full", "sparse"])
    def test_gappy_truth_rejected(self, truth_mode):
        # the harness fills sparse actuals once, before assembly; a gap
        # that reaches assemble_samples is an error, not a second fill
        dl, ep, truth = self._series_triple()
        present = np.ones(truth.n, dtype=bool)
        present[3] = False
        sparse = EnergySeries(truth.timestamps, truth.values.copy(), present)
        with pytest.raises(ValueError, match=r"^truth: step 3 is missing"):
            assemble_samples(dl, ep, sparse, scenario_ns(truth_mode=truth_mode))
        # scenario 3 trains on the physics values and reads no actuals
        samples = assemble_samples(dl, ep, sparse, scenario_ns(truth_mode="absent"))
        assert samples.target.tobytes() == ep.values.tobytes()

    def test_gaps_get_the_mean_of_their_present_neighbours(self):
        fc = series_from([np.nan, np.nan, np.nan, 4.0, np.nan, 8.0], start="2021-03-01T00")
        ep = EnergySeries.full(fc.timestamps, np.ones(6))
        samples = assemble_samples(fc, ep, ep, scenario_ns())
        # step 1: both neighbours missing -> 0; step 2: one present
        # neighbour; step 4: the mean of 4 and 8
        assert samples.dl.tolist() == [0.0, 0.0, 4.0, 4.0, 6.0, 8.0]
        assert samples.dl_mask.tolist() == [0, 0, 0, 1, 0, 1]

    def test_partial_dl_gap_keeps_mask_zero_with_standin(self):
        dl, ep, truth = self._series_triple()
        present = np.ones(dl.n, dtype=bool)
        present[2] = False
        dl_sparse = EnergySeries(dl.timestamps, dl.values.copy(), present)
        samples = assemble_samples(dl_sparse, ep, truth, scenario_ns())
        assert samples.dl_mask[2] == 0
        assert np.isfinite(samples.dl[2])

    @pytest.mark.parametrize("gappy", ["dl", "ep", "both"])
    @pytest.mark.parametrize("truth_mode", ["full", "absent"])
    def test_gappy_streams_filled_like_neighbor_impute(self, gappy, truth_mode):
        # the day-ahead request path: one day, 2-8 missing hours per stream
        rng = np.random.default_rng(["dl", "ep", "both"].index(gappy))
        dl, ep, truth = self._series_triple(24)
        streams = {"dl": dl, "ep": ep}
        for name in ("dl", "ep") if gappy == "both" else (gappy,):
            present = np.ones(24, dtype=bool)
            present[rng.choice(24, size=int(rng.integers(2, 9)), replace=False)] = False
            present[0] = False
            streams[name] = EnergySeries(dl.timestamps, streams[name].values * -1.5, present)
        samples = assemble_samples(streams["dl"], streams["ep"], truth, scenario_ns(truth_mode=truth_mode))
        for name, fc in streams.items():
            assert getattr(samples, name).tobytes() == _reference_impute(fc, "neighbor_mean_or_zero").tobytes()
            assert getattr(samples, f"{name}_mask").tolist() == fc.present.astype(int).tolist()

    @pytest.mark.parametrize("stream", ["dl", "ep"])
    def test_overflowing_gap_fill_names_the_stream(self, stream):
        # 1e308 + 1e308 overflows; pyproject turns a RuntimeWarning into an
        # error, so this also checks that none is emitted on the way
        dl, ep, truth = self._series_triple()
        streams = {"dl": dl, "ep": ep}
        streams[stream] = series_from([1e308, np.nan, 1e308, 1.0, np.nan, 2.0, 3.0, 4.0], start="2021-03-01T00")
        with pytest.raises(ValueError, match=rf"^{stream} forecast: .* missing step 1 overflows"):
            assemble_samples(streams["dl"], streams["ep"], truth, scenario_ns())

    def test_masks_binary_and_no_nan(self):
        dl, ep, truth = self._series_triple()
        for ns in (scenario_ns(), scenario_ns(dl_available=False), scenario_ns(truth_mode="absent")):
            s = assemble_samples(dl, ep, truth, ns)
            assert np.all(np.isin(s.dl_mask, (0, 1)) & np.isin(s.ep_mask, (0, 1)))
            assert np.all(np.isfinite(s.dl) & np.isfinite(s.ep))
            assert np.all(np.isfinite(s.target))

    def test_misaligned_timestamps_rejected(self):
        dl, ep, truth = self._series_triple()
        shifted = EnergySeries.full(hourly_range("2021-03-01T01", truth.n), truth.values)
        with pytest.raises(ValueError, match="^series timestamps are not aligned$"):
            assemble_samples(dl, ep, shifted, scenario_ns())


def batch_of(dl, ep, target, dl_mask=1, ep_mask=1):
    """A SampleBatch from columns; a scalar applies to every row."""
    return SampleBatch(*np.broadcast_arrays(*map(np.atleast_1d, (dl, dl_mask, ep, ep_mask, target))))


class TestNormStats:
    VALID = dict(dl_mean=0.0, dl_std=1.0, ep_mean=0.0, ep_std=1.0, y_mean=0.0, y_std=1.0)

    @pytest.mark.parametrize("name", ["dl_std", "ep_std", "y_std"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_non_positive_std_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive, got {value!r}"):
            NormStats(**{**self.VALID, name: value})

    @pytest.mark.parametrize("name", list(VALID))
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            NormStats(**{**self.VALID, name: value})

    @pytest.mark.parametrize("name", list(VALID))
    @pytest.mark.parametrize("value", ["1", True, None])
    def test_field_that_is_not_a_real_number_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and a real number, got {value!r}"):
            NormStats(**{**self.VALID, name: value})

    def test_constant_channel_clamped(self):
        samples = batch_of(np.full(4, 5.0), 5.0, 5.0)
        stats = fit_norm_stats(samples)
        assert stats.dl_std == 1e-8
        normed = normalize_samples(samples, stats)
        assert np.all(normed.dl == 0.0)

    def test_population_convention(self):
        stats = fit_norm_stats(batch_of([0.0, 2.0], [0.0, 2.0], [0.0, 2.0]))
        assert stats.dl_mean == 1.0 and stats.dl_std == 1.0
        assert stats.y_mean == 1.0 and stats.y_std == 1.0

    def test_masked_values_excluded(self):
        stats = fit_norm_stats(batch_of([100.0, 0.0], [1.0, 3.0], [1.0, 3.0], dl_mask=[1, 0]))
        assert stats.dl_mean == 100.0

    def test_every_target_counts(self):
        # the model trains on every row's target, filled ones included, so
        # the target statistics see them all
        stats = fit_norm_stats(batch_of([1.0, 1.0], 1.0, [10.0, 9999.0]))
        assert (stats.y_mean, stats.y_std) == (5004.5, 4994.5)

    def test_all_missing_channel_keeps_zero_standins(self):
        samples = batch_of(0.0, [5.0, 9.0], [5.0, 9.0], dl_mask=0)
        stats = fit_norm_stats(samples)
        normed = normalize_samples(samples, stats)
        assert np.all(normed.dl == 0.0)

    def test_round_trip_denormalize(self):
        rng = np.random.default_rng(8)
        v = rng.random(30) * 50
        samples = batch_of(v, v * 2, v + 3)
        stats = fit_norm_stats(samples)
        normed = normalize_samples(samples, stats)
        back = denormalize_target(normed.target, stats)
        assert np.allclose(back, v + 3, rtol=1e-12)

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError):
            fit_norm_stats(batch_of([], [], []))


# ---------------------------------------------------------------------------
# List-based reference copies of the per-row sample pipeline that the
# columnar SampleBatch path replaced; the batch path must agree bit for bit.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Row:
    """One sample of the list-based references."""

    dl: float
    dl_mask: int
    ep: float
    ep_mask: int
    target: float


def _reference_assemble_samples(dl_forecast, ep_forecast, truth, scenario) -> list[Row]:
    present_series = [s for s in (dl_forecast, ep_forecast, truth) if s is not None]
    _check_aligned(*present_series)
    n = truth.n

    def stream(fc, available):
        if not available or fc is None:
            return np.zeros(n), np.zeros(n, dtype=np.int64)
        mask = fc.present.astype(np.int64)
        if np.all(fc.present):
            return fc.values.copy(), mask
        return _reference_impute(fc, "neighbor_mean_or_zero"), mask

    dl_vals, dl_mask = stream(dl_forecast, scenario.dl_available)
    ep_vals, ep_mask = stream(ep_forecast, scenario.ep_available)

    if scenario.truth_mode == "absent":
        targets = ep_vals
    else:
        assert np.all(truth.present)
        targets = truth.values

    return [
        Row(
            dl=float(dl_vals[i]),
            dl_mask=int(dl_mask[i]),
            ep=float(ep_vals[i]),
            ep_mask=int(ep_mask[i]),
            target=float(targets[i]),
        )
        for i in range(n)
    ]


def _reference_channel_stats(values):
    if not values:
        return 0.0, STD_FLOOR
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(max(arr.std(), STD_FLOOR))


def _reference_fit_norm_stats(train_samples) -> NormStats:
    if not train_samples:
        raise ValueError("cannot fit normalization statistics on an empty split")
    dl_mean, dl_std = _reference_channel_stats([s.dl for s in train_samples if s.dl_mask == 1])
    ep_mean, ep_std = _reference_channel_stats([s.ep for s in train_samples if s.ep_mask == 1])
    y_mean, y_std = _reference_channel_stats([s.target for s in train_samples])
    return NormStats(dl_mean, dl_std, ep_mean, ep_std, y_mean, y_std)


def _reference_normalize_samples(samples, stats):
    return [
        replace(
            s,
            dl=(s.dl - stats.dl_mean) / stats.dl_std,
            ep=(s.ep - stats.ep_mean) / stats.ep_std,
            target=(s.target - stats.y_mean) / stats.y_std,
        )
        for s in samples
    ]


def assert_batch_bits_equal_rows(batch, rows):
    """Every column of ``batch`` holds exactly the bytes of the rows' fields."""
    expected = {
        "dl": ([s.dl for s in rows], np.float64),
        "dl_mask": ([s.dl_mask for s in rows], np.int64),
        "ep": ([s.ep for s in rows], np.float64),
        "ep_mask": ([s.ep_mask for s in rows], np.int64),
        "target": ([s.target for s in rows], np.float64),
    }
    assert len(batch) == len(rows)
    for name, (values, dtype) in expected.items():
        column = getattr(batch, name)
        assert column.dtype == dtype, name
        assert column.tobytes() == np.asarray(values, dtype=dtype).tobytes(), name


def _gappy(series, rng, k):
    """``series`` with k random steps missing, and the first (a gap with no
    left neighbour)."""
    present = series.present.copy()
    present[rng.choice(series.n, size=k, replace=False)] = False
    present[0] = False
    return EnergySeries(series.timestamps, series.values.copy(), present)


class TestColumnarMatchesListReference:
    N = 240

    def _streams(self, rng, dl_gaps, ep_gaps, truth_kind, imputation="linear_interpolation"):
        ts = hourly_range("2021-06-01T00", self.N)
        dl = EnergySeries.full(ts, 80.0 + 15.0 * rng.standard_normal(self.N))
        ep = EnergySeries.full(ts, 60.0 + 10.0 * rng.standard_normal(self.N))
        truth = EnergySeries.full(ts, 110.0 + 20.0 * rng.standard_normal(self.N))
        if dl_gaps:
            dl = _gappy(dl, rng, 30)
        if ep_gaps:
            ep = _gappy(ep, rng, 25)
        if truth_kind == "sparse":
            # sparse actuals reach assembly filled, as the harness fills them
            truth = impute(apply_sparsity(truth, 0.2, int(rng.integers(1000))), imputation)
        elif truth_kind == "absent":
            truth = EnergySeries(ts, np.full(self.N, np.nan), np.zeros(self.N, dtype=bool))
        return dl, ep, truth

    def _check(self, dl, ep, truth, scenario):
        batch = assemble_samples(dl, ep, truth, scenario)
        rows = _reference_assemble_samples(dl, ep, truth, scenario)
        assert_batch_bits_equal_rows(batch, rows)

        i_train, i_val = SplitSpec().boundaries(len(rows))
        stats = fit_norm_stats(batch[:i_train])
        ref_stats = _reference_fit_norm_stats(rows[:i_train])
        assert [v.hex() for v in stats.as_dict().values()] == [v.hex() for v in ref_stats.as_dict().values()]
        for part, ref_part in zip(split_samples(batch, SplitSpec()), split_samples(rows, SplitSpec())):
            assert_batch_bits_equal_rows(normalize_samples(part, stats), _reference_normalize_samples(ref_part, ref_stats))

    @pytest.mark.parametrize("scenario_id", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("dl_gaps,ep_gaps", [(False, False), (True, False), (False, True), (True, True)])
    def test_scenario_presets(self, scenario_id, dl_gaps, ep_gaps):
        cfg = scenario_config(scenario_id)
        rng = np.random.default_rng(10 * scenario_id + 2 * dl_gaps + ep_gaps)
        truth_kind = {"full": "full", "sparse": "sparse", "absent": "full"}[cfg.truth_mode]
        dl, ep, truth = self._streams(rng, dl_gaps, ep_gaps, truth_kind)
        self._check(dl if cfg.dl_available else None, ep, truth, cfg)

    @pytest.mark.parametrize("imputation", IMPUTATION_KINDS)
    def test_sparse_truth_under_every_imputation(self, imputation):
        dl, ep, truth = self._streams(np.random.default_rng(77), True, True, "sparse", imputation)
        self._check(dl, ep, truth, scenario_ns(truth_mode="sparse", imputation=imputation))

    @pytest.mark.parametrize("dl_available,ep_available", [(True, True), (False, True), (True, False)])
    def test_absent_truth(self, dl_available, ep_available):
        dl, ep, truth = self._streams(np.random.default_rng(78), True, True, "absent")
        self._check(dl, ep, truth, scenario_ns(dl_available=dl_available, ep_available=ep_available, truth_mode="absent"))


class TestSampleBatchBoundaries:
    def columns(self, **changes):
        cols = dict(
            dl=[0.5, 1.0, 1.5], dl_mask=[1, 0, 1], ep=[2.0, 2.5, 3.0], ep_mask=[1, 1, 0],
            target=[4.0, 5.0, 6.0],
        )
        cols.update(changes)
        return cols

    def test_valid_columns_accepted(self):
        batch = SampleBatch(**self.columns())
        assert len(batch) == 3
        assert batch.dl_mask.dtype == np.int64 and batch.target.dtype == np.float64

    @pytest.mark.parametrize(
        "column,values",
        [
            ("dl_mask", [1, 2, 0]),
            ("ep_mask", [2, 1, 1]),
            ("dl_mask", [1, 0.5, 0]),
            ("dl", [0.5, np.nan, 1.5]),
            ("dl", [0.5, np.inf, 1.5]),
            ("ep", [np.nan, 2.5, 3.0]),
            ("ep", [2.0, 2.5, -np.inf]),
            ("target", [4.0, np.nan, 6.0]),
            ("target", [4.0, 5.0, np.inf]),
            ("target", [-np.inf, 5.0, 6.0]),
        ],
    )
    def test_bad_column_rejected_by_name(self, column, values):
        with pytest.raises(ValueError, match=column):
            SampleBatch(**self.columns(**{column: values}))

    @pytest.mark.parametrize("column", SampleBatch.COLUMNS)
    def test_unequal_lengths_rejected(self, column):
        cols = self.columns()
        cols[column] = cols[column][:2]
        with pytest.raises(ValueError, match="equal length"):
            SampleBatch(**cols)

    def test_five_columns_and_no_target_flag(self):
        # every target is a training target, whether a measured actual, a
        # filled one or the physics value standing in for absent actuals;
        # no column says which
        assert SampleBatch.COLUMNS == ("dl", "dl_mask", "ep", "ep_mask", "target")
        for flag in ("observed", "proxy"):
            with pytest.raises(TypeError):
                SampleBatch(**self.columns(), **{flag: [False, False, True]})
        assert not hasattr(SampleBatch(**self.columns()), "resolved_targets")

    def test_slices_are_batches_and_rows_are_not_indexable(self):
        batch = SampleBatch(**self.columns())
        head = batch[:2]
        assert isinstance(head, SampleBatch) and len(head) == 2
        assert np.array_equal(head.ep, [2.0, 2.5]) and np.array_equal(batch[2:].target, [6.0])
        with pytest.raises(TypeError):
            batch[0]

    def test_constructor_copies_its_columns(self):
        dl = np.array([0.5, 1.0, 1.5])
        batch = SampleBatch(**self.columns(dl=dl))
        dl[0] = 99.0
        assert batch.dl[0] == 0.5


class TestNormalizeSamples:
    """``normalize_samples`` checks only the three columns it computes."""

    STATS = NormStats(dl_mean=1.0, dl_std=2.0, ep_mean=-3.0, ep_std=0.5, y_mean=10.0, y_std=4.0)

    def batch(self):
        return batch_of([0.5, 1.0, 1.5], [2.0, 2.5, 3.0], [4.0, 5.0, 6.0], dl_mask=[1, 0, 1], ep_mask=[0, 1, 1])

    @pytest.mark.parametrize("columns,named", [(("dl",), "dl"), (("ep",), "ep"), (("target",), "target"), (("ep", "target"), "ep")])
    def test_overflowing_column_rejected_by_name(self, columns, named):
        # finite inputs whose z-score overflows: 1e301 / 1e-8 is inf; with
        # several, the first in dl, ep, target order is named
        cols = {"dl": [0.5, 1.0, 1.5], "ep": [2.0, 2.5, 3.0], "target": [4.0, 5.0, 6.0]}
        for name in columns:
            cols[name][1] = 1e301
        stats = NormStats(dl_mean=0.0, dl_std=1e-8, ep_mean=0.0, ep_std=1e-8, y_mean=0.0, y_std=1e-8)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=f"^{named} must be finite$"):
            normalize_samples(batch_of(**cols), stats)

    def test_masks_are_int64_copies(self):
        batch = self.batch()
        normed = normalize_samples(batch, self.STATS)
        for name in SampleBatch.COLUMNS:
            assert not np.shares_memory(getattr(normed, name), getattr(batch, name)), name
        batch.dl_mask[:] = 1 - batch.dl_mask
        batch.ep_mask[:] = 1 - batch.ep_mask
        assert normed.dl_mask.dtype == normed.ep_mask.dtype == np.int64
        assert normed.dl_mask.tolist() == [1, 0, 1] and normed.ep_mask.tolist() == [0, 1, 1]

    @pytest.mark.parametrize("key", [slice(0), slice(1), slice(None, None, 2)], ids=["0 rows", "1 row", "strided"])
    def test_small_and_strided_batches_match_reference(self, key):
        batch = self.batch()[key]
        rows = [Row(*row) for row in zip(*(getattr(batch, name).tolist() for name in SampleBatch.COLUMNS))]
        assert_batch_bits_equal_rows(normalize_samples(batch, self.STATS), _reference_normalize_samples(rows, self.STATS))


class TestSplits:
    def test_fractions_validated(self):
        with pytest.raises(ValueError):
            SplitSpec(0.5, 0.2, 0.2)
        with pytest.raises(ValueError):
            SplitSpec(0.0, 0.5, 0.5)

    @pytest.mark.parametrize("index", range(3))
    @pytest.mark.parametrize("value", ["0.6", True, None])
    def test_fraction_that_is_not_a_real_number_rejected(self, index, value):
        fracs = [0.6, 0.2, 0.2]
        fracs[index] = value
        name = ("train_frac", "val_frac", "test_frac")[index]
        with pytest.raises(ValueError, match=f"{name} must be finite and a real number, got {value!r}"):
            SplitSpec(*fracs)

    def test_chronological_boundaries(self):
        spec = SplitSpec(0.6, 0.2, 0.2)
        i_train, i_val = spec.boundaries(100)
        assert (i_train, i_val) == (60, 80)
        tr, va, te = split_samples(list(range(100)), spec)
        assert max(tr) < min(va) < min(te)
        assert len(tr) + len(va) + len(te) == 100


class TestCsvIO:
    def test_energy_csv_bytes_with_missing_step(self, tmp_path):
        # header timestamp,value; a missing step leaves its cell empty
        s = series_from([1.5, np.nan, 2.25], present=[True, False, True])
        path = tmp_path / "series.csv"
        write_timestamped_csv(path, s.timestamps, {"value": s.values})
        assert path.read_bytes() == (
            b"timestamp,value\n2021-01-01T00:00,1.5\n2021-01-01T01:00,\n2021-01-01T02:00,2.25\n"
        )

    def test_temperature_csv_bytes(self, tmp_path):
        ts = hourly_range("2021-06-01T00", 4)
        path = tmp_path / "temps.csv"
        write_timestamped_csv(path, ts, {"temp_c": np.array([10.0, 11.5, -3.25, 0.1])})
        assert path.read_bytes() == (
            b"timestamp,temp_c\n2021-06-01T00:00,10.0\n2021-06-01T01:00,11.5\n"
            b"2021-06-01T02:00,-3.25\n2021-06-01T03:00,0.1\n"
        )

    def test_timestamped_columns_layout(self, tmp_path):
        # minute timestamps, repr floats, an empty cell for NaN or an absent column
        path = tmp_path / "cols.csv"
        columns = {"a": np.array([0.1, np.nan]), "b": None, "c": [1e-17, 2.0]}
        write_timestamped_csv(path, hourly_range("2021-06-01T23", 2), columns)
        assert path.read_bytes() == (
            b"timestamp,a,b,c\n2021-06-01T23:00,0.1,,1e-17\n2021-06-02T00:00,,,2.0\n"
        )

    @pytest.mark.parametrize("n_ts,n_values", [(10, 4), (3, 6), (0, 1)])
    def test_column_of_another_length_rejected(self, tmp_path, n_ts, n_values):
        # zip used to stop at the shortest column: 10 timestamps with a
        # 4-value column wrote 4 rows, 3 timestamps with 6 values wrote 3
        path = tmp_path / "cols.csv"
        columns = {"ok": np.zeros(n_ts), "b": None, "short": np.ones(n_values)}
        with pytest.raises(ValueError, match=rf"^column 'short' has {n_values} values for {n_ts} timestamps$"):
            write_timestamped_csv(path, hourly_range("2021-06-01T00", n_ts), columns)
        assert not path.exists()


def _reference_feature_rows(energy, temps):
    """The former row-by-row feature builder and its packing into a matrix:
    one calendar lookup per step through datetime.datetime."""
    rows = []
    for i in range(24, energy.n):
        dt = energy.timestamps[i].astype("datetime64[s]").item()
        rows.append((float(temps[i]), dt.day, dt.timetuple().tm_yday, dt.weekday(), dt.hour, energy.values[i - 24 : i].copy()))
    x = np.empty((len(rows), 29))
    for i, (temp_c, day_of_month, day_of_year, day_of_week, hour, lags) in enumerate(rows):
        x[i, :24] = lags
        x[i, 24] = temp_c
        x[i, 25] = day_of_month
        x[i, 26] = day_of_year
        x[i, 27] = day_of_week
        x[i, 28] = hour
    return x


class TestFeatureRows:
    def test_lag_window_and_calendar(self):
        n = 30
        s = series_from(np.arange(n, dtype=float), start="2021-01-04T00")  # a Monday
        temps = np.linspace(-5, 5, n)
        rows = build_feature_rows(s, temps)
        assert len(rows) == n - 24
        first = rows.values[0]
        assert np.array_equal(first[:24], np.arange(24.0))
        assert first[24] == temps[24]
        assert first[28] == 0  # hour
        assert first[27] == 1  # Tuesday after a Monday start
        assert first[25] == 5  # day of month
        assert first[26] == 5  # day of year
        assert rows.timestamps[0] == s.timestamps[24]
        assert np.array_equal(rows.targets, np.arange(24.0, n))

    def test_lag_length_enforced(self):
        ts = hourly_range("2021-01-01T00", 3)
        with pytest.raises(ValueError, match="29 columns"):
            FeatureMatrix(np.zeros((3, 28)), ts, np.zeros(3))  # a 23-hour lag window
        with pytest.raises(ValueError, match="29 columns"):
            FeatureMatrix(np.zeros(29), ts[:1], np.zeros(1))

    def test_matrix_checks_lengths_and_hours(self):
        ts = hourly_range("2021-01-01T00", 3)
        with pytest.raises(ValueError, match="3 feature rows for 2 timestamps"):
            FeatureMatrix(np.zeros((3, 29)), ts[:2], np.zeros(3))
        gap = ts.copy()
        gap[2] += np.timedelta64(1, "h")
        with pytest.raises(ValueError, match="contiguous"):
            FeatureMatrix(np.zeros((3, 29)), gap, np.zeros(3))
        with pytest.raises(ValueError, match="no rows"):
            FeatureMatrix(np.zeros((0, 29)), ts[:0], np.zeros(0))
        m = FeatureMatrix(np.asfortranarray(np.ones((3, 29), dtype=np.float32)), ts, np.ones(3, dtype=np.float32))
        assert m.values.dtype == np.float64 and m.values.flags.c_contiguous
        assert m.targets.dtype == np.float64

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        # a NaN row used to surface only later, out of forecast_dl
        ts = hourly_range("2021-01-01T00", 3)
        x = np.ones((3, 29))
        x[1, 24] = bad
        with pytest.raises(ValueError, match="feature values must be finite"):
            FeatureMatrix(x, ts, np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_targets_rejected(self, bad):
        ts = hourly_range("2021-01-01T00", 3)
        targets = np.ones(3)
        targets[2] = bad
        with pytest.raises(ValueError, match="^feature targets must be finite$"):
            FeatureMatrix(np.ones((3, 29)), ts, targets)

    def test_one_target_per_row(self):
        ts = hourly_range("2021-01-01T00", 3)
        for targets in (np.ones(2), np.ones((3, 1)), 1.0):
            with pytest.raises(ValueError, match=r"^3 feature rows for targets of shape "):
                FeatureMatrix(np.ones((3, 29)), ts, targets)

    def test_temperatures_must_match_the_series(self):
        with pytest.raises(ValueError, match="^29 temperatures for 30 energy steps$"):
            build_feature_rows(series_from(np.arange(30.0)), np.zeros(29))

    def test_gapped_series_rejected(self):
        s = series_from(np.arange(30.0))
        s.present[5] = False
        s.values[5] = np.nan
        with pytest.raises(ValueError):
            build_feature_rows(s, np.zeros(30))

    def test_too_short_for_a_lag_window_rejected(self):
        with pytest.raises(ValueError, match="lag window"):
            build_feature_rows(series_from(np.arange(24.0)), np.zeros(24))
        assert len(build_feature_rows(series_from(np.arange(25.0)), np.zeros(25))) == 1

    @pytest.mark.parametrize(
        "start,hours",
        [
            ("2021-01-01T00", 8760),
            ("2021-01-01T00", 2160),
            ("2021-01-01T00", 967),  # 943 rows: the last day-ahead block is partial
            ("2023-12-30T00", 1700),  # crosses the year boundary and 2024-02-29
        ],
    )
    def test_matrix_matches_row_reference_bytes(self, start, hours):
        rng = np.random.default_rng(hours)
        s = series_from(rng.uniform(50.0, 400.0, hours), start=start)
        temps = rng.normal(8.0, 9.0, hours)
        rows = build_feature_rows(s, temps)
        assert rows.values.tobytes() == _reference_feature_rows(s, temps).tobytes()
        assert np.array_equal(rows.timestamps, s.timestamps[24:])
        assert rows.targets.tobytes() == s.values[24:].tobytes()
