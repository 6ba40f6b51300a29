"""Window functionals and MinMax normalization."""

from __future__ import annotations

import numpy as np
import pytest

from affectpipe.features import (
    FUNCTIONAL_ORDER,
    FunctionalSet,
    MinMaxScaler,
    apply_minmax,
    batch_functionals,
    fit_minmax,
    functionals,
    per_video_minmax,
    write_scaler_csv,
)


class TestFunctionalSet:
    def test_canonical_order_regardless_of_input_order(self):
        assert FunctionalSet(("min", "mean")).names == ("mean", "min")
        assert FunctionalSet(("max", "min", "mean")).names == FUNCTIONAL_ORDER

    def test_duplicates_collapse(self):
        assert FunctionalSet(("mean", "mean", "max")).names == ("mean", "max")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            FunctionalSet(("mean", "median"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FunctionalSet(())


class TestFunctionals:
    def test_two_by_two_by_hand(self):
        payload = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = functionals(payload, FunctionalSet())
        np.testing.assert_array_equal(out, [2.0, 3.0, 3.0, 4.0, 1.0, 2.0])

    def test_single_row_repeats_it(self):
        payload = np.array([[7.0, -1.0]])
        out = functionals(payload, FunctionalSet())
        np.testing.assert_array_equal(out, [7.0, -1.0, 7.0, -1.0, 7.0, -1.0])

    def test_mean_only(self):
        out = functionals(np.array([[-1.0], [1.0]]), FunctionalSet(("mean",)))
        np.testing.assert_array_equal(out, [0.0])

    def test_pad_mask_excludes_rows(self):
        payload = np.array([[1.0], [2.0], [100.0]])
        mask = np.array([True, True, False])
        out = functionals(payload, FunctionalSet(), pad_mask=mask)
        np.testing.assert_array_equal(out, [1.5, 2.0, 1.0])

    def test_all_padded_rejected(self):
        with pytest.raises(ValueError, match="no real frames"):
            functionals(np.ones((3, 2)), FunctionalSet(), np.zeros(3, dtype=bool))

    def test_output_length(self):
        rng = np.random.default_rng(0)
        payload = rng.normal(size=(12, 5))
        for names in [("mean",), ("mean", "min"), FUNCTIONAL_ORDER]:
            fset = FunctionalSet(names)
            assert functionals(payload, fset).shape == (len(fset) * 5,)

    def test_min_leq_mean_leq_max(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            payload = rng.normal(size=(rng.integers(1, 30), 4))
            out = functionals(payload, FunctionalSet()).reshape(3, 4)
            assert np.all(out[2] <= out[0]) and np.all(out[0] <= out[1])

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(2)
        payload = rng.normal(size=(6, 10, 3))
        mask = rng.random((6, 10)) < 0.8
        mask[:, 0] = True  # keep every window non-empty
        fset = FunctionalSet()
        batch = batch_functionals(payload, fset, mask)
        for i in range(6):
            np.testing.assert_array_equal(
                batch[i], functionals(payload[i], fset, mask[i])
            )

    def test_batch_empty(self):
        out = batch_functionals(np.empty((0, 5, 3)), FunctionalSet())
        assert out.shape == (0, 9)


class TestMinMax:
    def test_fit_extrema_across_tracks(self):
        a = np.array([[0.0, 10.0], [2.0, 3.0]])
        b = np.array([[-5.0, 4.0]])
        scaler = fit_minmax([a, b])
        np.testing.assert_array_equal(scaler.lo, [-5.0, 3.0])
        np.testing.assert_array_equal(scaler.hi, [2.0, 10.0])

    def test_fit_accepts_plain_matrices(self):
        scaler = fit_minmax([np.array([[1.0], [9.0]])])
        assert scaler.lo[0] == 1.0 and scaler.hi[0] == 9.0

    def test_apply_midpoint_is_half(self):
        scaler = MinMaxScaler(lo=np.array([0.0]), hi=np.array([4.0]))
        out = apply_minmax(np.array([[2.0]]), scaler)
        assert out[0, 0] == 0.5

    def test_fitted_data_lands_in_unit_interval(self):
        rng = np.random.default_rng(3)
        data = rng.normal(scale=50.0, size=(100, 6))
        out = apply_minmax(data, fit_minmax([data]))
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert np.any(out == 0.0) and np.any(out == 1.0)

    def test_constant_dimension_maps_to_zero(self):
        data = np.column_stack([np.full(5, 3.0), np.arange(5.0)])
        out = apply_minmax(data, fit_minmax([data]))
        np.testing.assert_array_equal(out[:, 0], np.zeros(5))

    def test_out_of_range_clipped(self):
        scaler = MinMaxScaler(lo=np.array([0.0]), hi=np.array([10.0]))
        out = apply_minmax(np.array([[12.0], [-3.0]]), scaler)
        np.testing.assert_array_equal(out[:, 0], [1.0, 0.0])

    def test_width_mismatch_rejected(self):
        scaler = MinMaxScaler(lo=np.zeros(2), hi=np.ones(2))
        with pytest.raises(ValueError, match="width"):
            apply_minmax(np.ones((3, 3)), scaler)

    def test_per_video_by_hand(self):
        out = per_video_minmax(np.array([[2.0], [4.0], [6.0]]))
        np.testing.assert_array_equal(out[:, 0], [0.0, 0.5, 1.0])

    def test_per_video_is_independent_across_videos(self):
        a = np.array([[0.0], [1.0]])
        b = np.array([[0.0], [100.0]])
        np.testing.assert_array_equal(per_video_minmax(a), per_video_minmax(b))

    def test_per_video_constant_gives_zeros(self):
        out = per_video_minmax(np.full((4, 2), 9.0))
        np.testing.assert_array_equal(out, np.zeros((4, 2)))

    def test_lo_above_hi_rejected(self):
        with pytest.raises(ValueError):
            MinMaxScaler(lo=np.array([1.0]), hi=np.array([0.0]))


class TestScalerCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        lo = rng.normal(size=8)
        scaler = MinMaxScaler(lo=lo, hi=lo + np.abs(rng.normal(size=8)))
        path = tmp_path / "scaler.csv"
        write_scaler_csv(path, scaler)
        expected = "# scope=global\ndim,lo,hi\n" + "".join(
            f"{j},{'%.17g' % a},{'%.17g' % b}\n" for j, (a, b) in enumerate(zip(lo, scaler.hi))
        )
        assert path.read_bytes() == expected.encode()
        rows = [line.split(",") for line in expected.splitlines()[2:]]
        np.testing.assert_array_equal([float(r[1]) for r in rows], scaler.lo)
        np.testing.assert_array_equal([float(r[2]) for r in rows], scaler.hi)
