from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest

from fusecast.harness import scenario_config
from fusecast.pipeline import (
    IMPUTATION_KINDS,
    STD_FLOOR,
    AlignmentError,
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
    hourly_range,
    impute,
    normalize_samples,
    read_energy_csv,
    read_temperature_csv,
    split_samples,
    write_energy_csv,
    write_temperature_csv,
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

    def test_noncontiguous_rejected(self):
        ts = hourly_range("2021-01-01T00", 3)
        ts[2] += np.timedelta64(5, "h")
        with pytest.raises(ValueError):
            EnergySeries(ts, np.zeros(3), np.ones(3, dtype=bool))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EnergySeries(hourly_range("2021-01-01T00", 3), np.zeros(2), np.ones(3, dtype=bool))


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

    def test_neighbor_mean_or_zero(self):
        s = series_from([np.nan, np.nan, np.nan, 4.0, np.nan, 8.0])
        out = impute(s, "neighbor_mean_or_zero")
        # index 1: both neighbors missing in the original -> 0
        assert out.values[1] == 0.0
        assert out.values[2] == 4.0          # one present neighbor
        assert out.values[4] == 6.0          # mean of 4 and 8

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

    def test_all_missing_rejected_except_neighbor_zero(self):
        s = series_from([np.nan, np.nan], present=[False, False])
        for kind in ("nearest_neighbor", "linear_interpolation", "historical_averaging"):
            with pytest.raises(ValueError):
                impute(s, kind)
        out = impute(s, "neighbor_mean_or_zero")
        assert out.values.tolist() == [0.0, 0.0]

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            impute(series_from([1.0]), "knn")


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
        assert np.all(samples.observed)

    def test_scenario4_dl_zeroed(self):
        dl, ep, truth = self._series_triple()
        samples = assemble_samples(dl, ep, truth, scenario_ns(dl_available=False))
        assert np.all((samples.dl == 0.0) & (samples.dl_mask == 0) & (samples.ep_mask == 1))

    def test_scenario3_proxy_targets(self):
        dl, ep, truth = self._series_triple()
        samples = assemble_samples(None, ep, truth, scenario_ns(dl_available=False, truth_mode="absent"))
        assert np.all(samples.target == ep.values)
        assert not np.any(samples.observed)

    def test_scenario3_target_stats_are_physics_stats(self):
        # no row is observed, so the target statistics fall back to all
        # rows' targets, which are the physics values
        dl, ep, truth = self._series_triple()
        samples = assemble_samples(None, ep, truth, scenario_ns(dl_available=False, truth_mode="absent"))
        stats = fit_norm_stats(samples)
        assert stats.y_mean == stats.ep_mean == float(np.mean(ep.values))
        assert stats.y_std == stats.ep_std == float(np.std(ep.values))

    def test_scenario5_ep_zeroed(self):
        dl, ep, truth = self._series_triple()
        samples = assemble_samples(dl, ep, truth, scenario_ns(ep_available=False))
        assert np.all((samples.ep == 0.0) & (samples.ep_mask == 0) & (samples.dl_mask == 1))

    def test_sparse_truth_imputed_and_flagged(self):
        dl, ep, truth = self._series_triple()
        vals = truth.values.copy()
        present = np.ones(len(vals), dtype=bool)
        present[3] = False
        sparse = EnergySeries(truth.timestamps, vals, present)
        samples = assemble_samples(dl, ep, sparse, scenario_ns(truth_mode="sparse"))
        assert samples.target[3] == pytest.approx((vals[2] + vals[4]) / 2)
        assert not samples.observed[3]
        assert samples.observed[2]

    def test_partial_dl_gap_keeps_mask_zero_with_standin(self):
        dl, ep, truth = self._series_triple()
        present = np.ones(dl.n, dtype=bool)
        present[2] = False
        dl_sparse = EnergySeries(dl.timestamps, dl.values.copy(), present)
        samples = assemble_samples(dl_sparse, ep, truth, scenario_ns())
        assert samples.dl_mask[2] == 0
        assert np.isfinite(samples.dl[2])

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
        with pytest.raises(AlignmentError):
            assemble_samples(dl, ep, shifted, scenario_ns())


def batch_of(dl, ep, target, dl_mask=1, ep_mask=1, observed=True):
    """A SampleBatch from columns; a scalar applies to every row."""
    return SampleBatch(*np.broadcast_arrays(*map(np.atleast_1d, (dl, dl_mask, ep, ep_mask, target, observed))))


class TestNormStats:
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

    def test_unobserved_targets_excluded(self):
        stats = fit_norm_stats(batch_of([1.0, 1.0], 1.0, [10.0, 9999.0], observed=[True, False]))
        assert stats.y_mean == 10.0

    def test_proxy_only_targets_fall_back(self):
        stats = fit_norm_stats(batch_of(0.0, [2.0, 4.0], [2.0, 4.0], dl_mask=0, observed=False))
        assert stats.y_mean == 3.0

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
    target_observed: bool = True


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
        filled = impute(fc, "neighbor_mean_or_zero")
        return filled.values, mask

    dl_vals, dl_mask = stream(dl_forecast, scenario.dl_available)
    ep_vals, ep_mask = stream(ep_forecast, scenario.ep_available)

    if scenario.truth_mode == "absent":
        targets = ep_vals
        observed = np.zeros(n, dtype=bool)
    else:
        if np.all(truth.present):
            targets = truth.values
        else:
            targets = impute(truth, scenario.imputation).values
        observed = truth.present.copy()

    return [
        Row(
            dl=float(dl_vals[i]),
            dl_mask=int(dl_mask[i]),
            ep=float(ep_vals[i]),
            ep_mask=int(ep_mask[i]),
            target=float(targets[i]),
            target_observed=bool(observed[i]),
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
    observed = [s.target for s in train_samples if s.target_observed]
    if not observed:
        observed = [s.target for s in train_samples]
    y_mean, y_std = _reference_channel_stats(observed)
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
        "observed": ([s.target_observed for s in rows], bool),
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

    def _streams(self, rng, dl_gaps, ep_gaps, truth_kind):
        ts = hourly_range("2021-06-01T00", self.N)
        dl = EnergySeries.full(ts, 80.0 + 15.0 * rng.standard_normal(self.N))
        ep = EnergySeries.full(ts, 60.0 + 10.0 * rng.standard_normal(self.N))
        truth = EnergySeries.full(ts, 110.0 + 20.0 * rng.standard_normal(self.N))
        if dl_gaps:
            dl = _gappy(dl, rng, 30)
        if ep_gaps:
            ep = _gappy(ep, rng, 25)
        if truth_kind == "sparse":
            truth = apply_sparsity(truth, 0.2, int(rng.integers(1000)))
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
        dl, ep, truth = self._streams(np.random.default_rng(77), True, True, "sparse")
        self._check(dl, ep, truth, scenario_ns(truth_mode="sparse", imputation=imputation))

    @pytest.mark.parametrize("dl_available,ep_available", [(True, True), (False, True), (True, False)])
    def test_absent_truth(self, dl_available, ep_available):
        dl, ep, truth = self._streams(np.random.default_rng(78), True, True, "absent")
        self._check(dl, ep, truth, scenario_ns(dl_available=dl_available, ep_available=ep_available, truth_mode="absent"))


class TestSampleBatchBoundaries:
    def columns(self, **changes):
        cols = dict(
            dl=[0.5, 1.0, 1.5], dl_mask=[1, 0, 1], ep=[2.0, 2.5, 3.0], ep_mask=[1, 1, 0],
            target=[4.0, 5.0, 6.0], observed=[True, True, False],
        )
        cols.update(changes)
        return cols

    def test_valid_columns_accepted(self):
        batch = SampleBatch(**self.columns())
        assert len(batch) == 3
        assert batch.dl_mask.dtype == np.int64 and batch.observed.dtype == bool

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

    def test_six_columns_and_no_proxy_flag(self):
        # every target is a training target; rows without actuals carry the
        # physics value with observed = False
        assert SampleBatch.COLUMNS == ("dl", "dl_mask", "ep", "ep_mask", "target", "observed")
        with pytest.raises(TypeError):
            SampleBatch(**self.columns(), proxy=[False, False, True])
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


class TestSplits:
    def test_fractions_validated(self):
        with pytest.raises(ValueError):
            SplitSpec(0.5, 0.2, 0.2)
        with pytest.raises(ValueError):
            SplitSpec(0.0, 0.5, 0.5)

    def test_chronological_boundaries(self):
        spec = SplitSpec(0.6, 0.2, 0.2)
        i_train, i_val = spec.boundaries(100)
        assert (i_train, i_val) == (60, 80)
        tr, va, te = split_samples(list(range(100)), spec)
        assert max(tr) < min(va) < min(te)
        assert len(tr) + len(va) + len(te) == 100


class TestCsvIO:
    def test_energy_round_trip_with_missing(self, tmp_path):
        s = series_from([1.5, np.nan, 2.25], present=[True, False, True])
        path = tmp_path / "series.csv"
        write_energy_csv(s, path)
        back = read_energy_csv(path)
        assert np.array_equal(back.timestamps, s.timestamps)
        assert np.array_equal(back.present, s.present)
        assert np.array_equal(back.values[back.present], s.values[s.present])

    def test_literal_nan_parsed_as_missing(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("timestamp,value\n2021-01-01T00:00,5.0\n2021-01-01T01:00,NaN\n")
        s = read_energy_csv(path)
        assert s.present.tolist() == [True, False]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,kwh\n2021-01-01T00:00,5.0\n")
        with pytest.raises(ValueError):
            read_energy_csv(path)

    def test_temperature_round_trip(self, tmp_path):
        ts = hourly_range("2021-06-01T00", 4)
        temps = np.array([10.0, 11.5, 13.25, 12.0])
        path = tmp_path / "temps.csv"
        write_temperature_csv(ts, temps, path)
        ts2, temps2 = read_temperature_csv(path)
        assert np.array_equal(ts, ts2)
        assert np.array_equal(temps, temps2)


    def test_timestamped_columns_layout(self, tmp_path):
        # minute timestamps, repr floats, an empty cell for NaN or an absent column
        path = tmp_path / "cols.csv"
        columns = {"a": np.array([0.1, np.nan]), "b": None, "c": [1e-17, 2.0]}
        write_timestamped_csv(path, hourly_range("2021-06-01T23", 2), columns)
        assert path.read_bytes() == (
            b"timestamp,a,b,c\n2021-06-01T23:00,0.1,,1e-17\n2021-06-02T00:00,,,2.0\n"
        )


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

    def test_lag_length_enforced(self):
        ts = hourly_range("2021-01-01T00", 3)
        with pytest.raises(ValueError, match="29 columns"):
            FeatureMatrix(np.zeros((3, 28)), ts)  # a 23-hour lag window
        with pytest.raises(ValueError, match="29 columns"):
            FeatureMatrix(np.zeros(29), ts[:1])

    def test_matrix_checks_lengths_and_hours(self):
        ts = hourly_range("2021-01-01T00", 3)
        with pytest.raises(ValueError, match="3 feature rows for 2 timestamps"):
            FeatureMatrix(np.zeros((3, 29)), ts[:2])
        gap = ts.copy()
        gap[2] += np.timedelta64(1, "h")
        with pytest.raises(ValueError, match="contiguous"):
            FeatureMatrix(np.zeros((3, 29)), gap)
        with pytest.raises(ValueError, match="no rows"):
            FeatureMatrix(np.zeros((0, 29)), ts[:0])
        m = FeatureMatrix(np.asfortranarray(np.ones((3, 29), dtype=np.float32)), ts)
        assert m.values.dtype == np.float64 and m.values.flags.c_contiguous

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
