"""Track model, resampling, interpolation, smoothing, CSV round trips."""

from __future__ import annotations

import csv
import re

import numpy as np
import pytest

from affectpipe.errors import AlignmentError, DataFormatError
from affectpipe.timeline import (
    FLOAT_FMT,
    FrameTrack,
    SmoothingSpec,
    csv_row_format,
    hamming_smooth,
    interpolate_to,
    read_track_csv,
    resample_track,
    write_track_csv,
)


def _embedding(values, fps=5.0, vid="v0"):
    return FrameTrack(vid, fps, np.asarray(values, dtype=np.float64))


class TestFrameTrack:
    def test_va_range_enforced(self):
        with pytest.raises(ValueError):
            FrameTrack("v", 5.0, np.array([[0.5, 1.5]]), kind="va")

    def test_va_width_enforced(self):
        with pytest.raises(ValueError):
            FrameTrack("v", 5.0, np.array([[0.5]]), kind="va")

    def test_label_values_must_be_small_integers(self):
        with pytest.raises(ValueError):
            FrameTrack("v", 5.0, np.array([[8.0]]), kind="label")
        with pytest.raises(ValueError):
            FrameTrack("v", 5.0, np.array([[1.5]]), kind="label")

    def test_values_are_read_only(self):
        track = _embedding([[1.0], [2.0]])
        with pytest.raises(ValueError):
            track.values[0, 0] = 9.0

    def test_timestamps(self):
        track = _embedding([[0.0], [1.0], [2.0]], fps=2.0)
        np.testing.assert_allclose(track.timestamps(), [0.0, 0.5, 1.0])

    def test_labels_accessor(self):
        track = FrameTrack("v", 5.0, np.array([[3.0], [0.0]]), kind="label")
        np.testing.assert_array_equal(track.labels(), [3, 0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            _embedding([[np.nan]])


class TestSmoothingSpec:
    def test_window_length_forced_odd(self):
        spec = SmoothingSpec(window_seconds=0.5)
        assert spec.window_frames(5.0) == 3  # round(2.5) = 2, bumped to 3
        assert spec.window_frames(30.0) == 15  # already odd

    def test_window_at_least_one(self):
        assert SmoothingSpec(window_seconds=0.01).window_frames(5.0) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SmoothingSpec(window_seconds=0.0)
        with pytest.raises(ValueError):
            SmoothingSpec(edge_policy="zeros")


class TestResample:
    def test_integer_ratio_thirty_to_five(self):
        track = _embedding(np.arange(30.0)[:, None], fps=30.0)
        out = resample_track(track, 5.0)
        assert out.fps == 5.0 and out.n_frames == 5
        np.testing.assert_array_equal(out.values[:, 0], [0, 6, 12, 18, 24])

    def test_same_fps_is_identity(self):
        track = _embedding(np.arange(7.0)[:, None], fps=5.0)
        out = resample_track(track, 5.0)
        np.testing.assert_array_equal(out.values, track.values)

    def test_seven_to_five_nearest_with_earlier_ties(self):
        track = _embedding(np.arange(7.0)[:, None], fps=7.0)
        out = resample_track(track, 5.0)
        np.testing.assert_array_equal(out.values[:, 0], [0, 1, 3, 4, 6])
        # oracle: enumerate |i/7 - t/5| and take the argmin per t,
        # preferring the earlier frame on exact ties
        for t_out in range(out.n_frames):
            diffs = np.abs(np.arange(7) / 7.0 - t_out / 5.0)
            assert out.values[t_out, 0] == int(np.argmin(diffs))

    def test_upsampling_rejected_with_pointer(self):
        track = _embedding([[0.0], [1.0]], fps=5.0)
        with pytest.raises(ValueError, match="interpolate_to"):
            resample_track(track, 10.0)

    def test_idempotent_at_target_fps(self):
        rng = np.random.default_rng(0)
        track = _embedding(rng.normal(size=(60, 3)), fps=12.0)
        once = resample_track(track, 5.0)
        twice = resample_track(once, 5.0)
        np.testing.assert_array_equal(once.values, twice.values)

    def test_label_tracks_resample_without_averaging(self):
        values = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]])
        track = FrameTrack("v", 6.0, values, kind="label")
        out = resample_track(track, 3.0)
        assert out.kind == "label"
        assert set(np.unique(out.values)) <= set(values.ravel())


class TestInterpolateTo:
    def test_linear_midpoint(self):
        track = _embedding([[0.0], [1.0]], fps=5.0)
        out = interpolate_to(track, 10.0, 3)
        np.testing.assert_array_equal(out.values[:, 0], [0.0, 0.5, 1.0])

    def test_exact_at_knots_on_own_timeline(self):
        rng = np.random.default_rng(1)
        track = _embedding(rng.normal(size=(20, 4)), fps=5.0)
        out = interpolate_to(track, 5.0, 20)
        np.testing.assert_array_equal(out.values, track.values)

    def test_single_frame_hold(self):
        track = _embedding([[1.0]], fps=5.0)
        out = interpolate_to(track, 30.0, 12)
        np.testing.assert_array_equal(out.values, np.ones((12, 1)))

    def test_edges_hold_boundary_values(self):
        track = _embedding([[2.0], [4.0]], fps=1.0)
        out = interpolate_to(track, 1.0, 5)
        np.testing.assert_array_equal(out.values[:, 0], [2.0, 4.0, 4.0, 4.0, 4.0])

    def test_output_within_source_envelope(self):
        rng = np.random.default_rng(2)
        track = _embedding(rng.normal(size=(15, 2)), fps=3.0)
        out = interpolate_to(track, 30.0, 200)
        assert np.all(out.values.max(axis=0) <= track.values.max(axis=0) + 1e-12)
        assert np.all(out.values.min(axis=0) >= track.values.min(axis=0) - 1e-12)

    def test_label_kind_rejected(self):
        track = FrameTrack("v", 5.0, np.array([[1.0], [2.0]]), kind="label")
        with pytest.raises(ValueError):
            interpolate_to(track, 10.0, 4)


class TestHammingSmooth:
    def test_constant_track_unchanged(self):
        track = FrameTrack(
            "v", 5.0, np.full((10, 2), 0.25), kind="va"
        )
        out = hamming_smooth(track, SmoothingSpec(window_seconds=0.5))
        np.testing.assert_array_equal(out.values, track.values)

    def test_edge_value_hand_computed(self):
        scores = np.zeros((5, 1))
        scores[0, 0] = 1.0
        track = FrameTrack("v", 5.0, np.repeat(scores, 8, axis=1),
                           kind="class_scores")
        out = hamming_smooth(track, SmoothingSpec(window_seconds=0.5))
        # N=3 -> weights [0.08, 1.0, 0.08]; left edge replicates frame 0:
        # (0.08 + 1.0) / 1.16 and 0.08 / 1.16
        np.testing.assert_allclose(out.values[0, 0], 1.08 / 1.16, atol=1e-12)
        np.testing.assert_allclose(out.values[1, 0], 0.08 / 1.16, atol=1e-12)
        np.testing.assert_allclose(out.values[0, 0], 0.9310, atol=1e-4)
        np.testing.assert_allclose(out.values[1, 0], 0.0690, atol=1e-4)

    def test_impulse_center_hand_computed(self):
        scores = np.zeros((5, 8))
        scores[2, :] = 1.0
        track = FrameTrack("v", 5.0, scores, kind="class_scores")
        out = hamming_smooth(track, SmoothingSpec(window_seconds=0.5))
        np.testing.assert_allclose(out.values[2, 0], 1.0 / 1.16, atol=1e-12)
        np.testing.assert_allclose(out.values[2, 0], 0.8621, atol=1e-4)

    def test_output_stays_in_input_envelope(self):
        rng = np.random.default_rng(3)
        track = FrameTrack("v", 25.0, rng.dirichlet(np.ones(8), size=50),
                           kind="class_scores")
        out = hamming_smooth(track, SmoothingSpec(window_seconds=0.5))
        assert np.all(out.values <= track.values.max(axis=0) + 1e-12)
        assert np.all(out.values >= track.values.min(axis=0) - 1e-12)

    def test_commutes_with_constant_shift(self):
        rng = np.random.default_rng(4)
        base = rng.normal(size=(30, 3))
        spec = SmoothingSpec(window_seconds=0.5)
        plain = hamming_smooth(
            FrameTrack("v", 25.0, base, kind="class_scores"), spec
        )
        shifted = hamming_smooth(
            FrameTrack("v", 25.0, base + 0.37, kind="class_scores"), spec
        )
        np.testing.assert_allclose(
            shifted.values, plain.values + 0.37, atol=1e-12
        )

    def test_window_of_one_frame_is_identity(self):
        rng = np.random.default_rng(5)
        track = FrameTrack("v", 1.0, rng.dirichlet(np.ones(3), size=8),
                           kind="class_scores")
        out = hamming_smooth(track, SmoothingSpec(window_seconds=0.2))
        np.testing.assert_array_equal(out.values, track.values)

    def test_label_tracks_rejected_with_guidance(self):
        track = FrameTrack("v", 5.0, np.array([[1.0], [2.0]]), kind="label")
        with pytest.raises(ValueError, match="argmax"):
            hamming_smooth(track, SmoothingSpec())


class TestTrackCsv:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        tracks = [
            FrameTrack("a", 5.0, rng.normal(size=(7, 3))),
            FrameTrack("b", 5.0, rng.normal(size=(4, 3)), frame_index_origin=10),
        ]
        path = tmp_path / "tracks.csv"
        write_track_csv(path, tracks)
        loaded = read_track_csv(path, fps=5.0)
        assert set(loaded) == {"a", "b"}
        np.testing.assert_array_equal(loaded["a"].values, tracks[0].values)
        np.testing.assert_array_equal(loaded["b"].values, tracks[1].values)
        assert loaded["b"].frame_index_origin == 10

    def test_frame_gap_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("video_id,frame,c0\nv,0,1.0\nv,2,2.0\n")
        with pytest.raises(AlignmentError, match="gap"):
            read_track_csv(path, fps=5.0)

    def test_non_increasing_frames_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("video_id,frame,c0\nv,1,1.0\nv,1,2.0\n")
        with pytest.raises(DataFormatError):
            read_track_csv(path, fps=5.0)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n")
        with pytest.raises(DataFormatError):
            read_track_csv(path, fps=5.0)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("v,1.5,1.0", "invalid literal for int"),
            ("v,x,1.0", "invalid literal for int"),
            ("v,1,abc", "could not convert string to float: 'abc'"),
        ],
    )
    def test_malformed_row_names_its_line(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"video_id,frame,c0\nv,0,1.0\n{row}\n")
        with pytest.raises(DataFormatError, match=re.escape(f"{path}:3: {message}")):
            read_track_csv(path, fps=5.0)
        # a quoted id spanning two lines shifts the line number by one
        path.write_text(f'video_id,frame,c0\n"l\nf",0,1.0\n{row}\n')
        with pytest.raises(DataFormatError, match=re.escape(f"{path}:4: {message}")):
            read_track_csv(path, fps=5.0)

    @pytest.mark.parametrize(
        "text", ["v0", "", "a,b", 'q"d', "l\nf", "c\rr", " lead", "x%sy", "é"]
    )
    def test_csv_row_format_quotes_like_csv_writer(self, tmp_path, text):
        path = tmp_path / "row.csv"
        with path.open("w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerow([text, "1"])
        expected = path.read_bytes().decode("utf-8")
        assert csv_row_format(text, ",%d\n") % 1 == expected


def _reference_write_track_csv(path, tracks):
    """The per-row writer write_track_csv replaced."""
    tracks = sorted(tracks, key=lambda t: t.video_id)
    width = tracks[0].width
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["video_id", "frame"] + [f"c{j}" for j in range(width)])
        for t in tracks:
            for i in range(t.n_frames):
                row = [t.video_id, str(t.frame_index_origin + i)]
                row += [FLOAT_FMT % v for v in t.values[i]]
                writer.writerow(row)


@pytest.mark.parametrize("seed", range(6))
def test_track_writer_matches_the_per_row_reference(tmp_path, seed):
    rng = np.random.default_rng([seed, 3])
    width = int(rng.integers(1, 5))
    tracks = []
    for vid in rng.permutation(["v1", "v0", "b,c", 'q"d', "x%sy", "l\nf", ""]).tolist():
        values = rng.normal(size=(int(rng.integers(1, 30)), width))
        values[rng.random(values.shape) < 0.1] *= 1e300
        values[rng.random(values.shape) < 0.05] = -0.0
        tracks.append(FrameTrack(
            vid, 5.0, values, frame_index_origin=int(rng.integers(0, 100))))
    write_track_csv(tmp_path / "new.csv", tracks)
    _reference_write_track_csv(tmp_path / "ref.csv", tracks)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
