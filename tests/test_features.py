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

    def test_short_window_is_the_functionals_of_its_real_rows(self):
        values = np.array([[1.0], [2.0], [100.0]])
        out = batch_functionals(values, [0, 1], [2, 2], FunctionalSet())
        np.testing.assert_array_equal(out, [[1.5, 2.0, 1.0], [51.0, 100.0, 2.0]])

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            functionals(np.ones((0, 2)), FunctionalSet())
        with pytest.raises(ValueError, match="non-empty"):
            batch_functionals(np.ones((3, 2)), [0], [0], FunctionalSet())

    @pytest.mark.parametrize(
        "starts, n_real", [([0, 1], [2]), ([2], [2]), ([-1], [1])],
        ids=["lengths-differ", "past-the-end", "negative-start"],
    )
    def test_window_outside_the_track_rejected(self, starts, n_real):
        with pytest.raises(ValueError):
            batch_functionals(np.ones((3, 2)), starts, n_real, FunctionalSet())

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

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("d", [3, 64])
    def test_batch_matches_the_padded_payload_arithmetic(self, order, d):
        rng = np.random.default_rng(2)
        values = np.asarray(rng.normal(size=(90, d)), order=order)
        starts, n_real, w = [0, 10, 20, 41, 55, 70], [20, 20, 20, 13, 1, 20], 20
        fset = FunctionalSet()
        batch = batch_functionals(values, starts, n_real, fset)
        # the stacked (n, W, d) payload, padded by the last real row, and
        # its pad mask: the functionals of each window's unmasked rows
        payload = np.stack([
            np.concatenate([values[s : s + n], np.repeat(values[s + n - 1 : s + n], w - n, 0)])
            for s, n in zip(starts, n_real)
        ])
        pad_mask = np.arange(w) < np.array(n_real)[:, None]
        for i in range(len(starts)):
            rows = payload[i][pad_mask[i]]
            expected = np.concatenate([rows.mean(axis=0), rows.max(axis=0), rows.min(axis=0)])
            assert batch[i].tobytes() == expected.tobytes()

    def test_batch_empty(self):
        out = batch_functionals(np.empty((4, 3)), [], [], FunctionalSet())
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

