"""Window slicing, VAD segments, target reduction, label CSV ingestion."""

from __future__ import annotations

import csv
import logging
import re
import warnings
from itertools import compress
from pathlib import Path

import numpy as np
import pytest

from affectpipe.errors import AlignmentError, DataFormatError
from affectpipe.timeline import (
    N_EXPR_CLASSES,
    FrameTrack,
    parse_rows,
    read_track_csv,
    write_track_csv,
)
from affectpipe.windowing import (
    LabelRows,
    VadMask,
    WindowSpec,
    _label_row_check,
    labels_to_track,
    read_label_csv,
    read_vad_csv,
    reduce_expr_targets,
    reduce_va_targets,
    slice_windows,
    valid_label_rows,
    voiced_segments,
    window_labels,
    window_va_means,
    write_label_csv,
    write_vad_csv,
)
from test_timeline import outcome, random_rows, reference_check_next_frame, write_rows


def _track(n, d=3, fps=5.0, vid="v0", seed=0):
    rng = np.random.default_rng(seed)
    return FrameTrack(vid, fps, rng.normal(size=(n, d)))


def _label_track(labels, fps=5.0, vid="v0"):
    values = np.asarray(labels, dtype=np.float64)[:, None]
    return FrameTrack(vid, fps, values, kind="label")


class TestVoicedSegments:
    def test_runs_by_inspection(self):
        mask = VadMask("v", [True, True, False, True])
        assert voiced_segments(mask) == [(0, 2), (3, 4)]

    def test_all_unvoiced_is_empty(self):
        assert voiced_segments(VadMask("v", [False] * 6)) == []

    def test_single_full_run(self):
        assert voiced_segments(VadMask("v", [True] * 10)) == [(0, 10)]

    def test_segments_cover_exactly_the_voiced_frames(self):
        rng = np.random.default_rng(1)
        voiced = rng.random(200) < 0.6
        segments = voiced_segments(VadMask("v", voiced))
        rebuilt = np.zeros(200, dtype=bool)
        for a, b in segments:
            assert not rebuilt[a:b].any()  # non-overlapping
            rebuilt[a:b] = True
        np.testing.assert_array_equal(rebuilt, voiced)


class TestSliceWindows:
    def test_window_count_formula(self):
        track = _track(50, fps=5.0)
        spec = WindowSpec(window_seconds=4.0, hop_seconds=2.0, fps=5.0)
        batch = slice_windows(track, spec)
        assert batch.starts == [0, 10, 20, 30]
        assert batch.payload.shape == (4, 20, 3)
        assert batch.pad_mask.all()

    def test_exact_fit_single_window(self):
        track = _track(20, fps=5.0)
        spec = WindowSpec(window_seconds=4.0, hop_seconds=2.0, fps=5.0)
        batch = slice_windows(track, spec)
        assert batch.starts == [0]
        assert batch.pad_mask.all()

    def test_short_segment_replicates_last_frame(self):
        track = _track(50, fps=5.0)
        spec = WindowSpec(window_seconds=4.0, hop_seconds=2.0, fps=5.0)
        batch = slice_windows(track, spec, segments=[(0, 15)])
        assert batch.n_windows == 1
        np.testing.assert_array_equal(
            batch.payload[0, 15:], np.tile(track.values[14], (5, 1))
        )
        assert not batch.pad_mask[0, 15:].any()
        assert batch.pad_mask[0, :15].all()

    def test_zero_length_segment_skipped(self):
        track = _track(30, fps=5.0)
        spec = WindowSpec(window_seconds=2.0, hop_seconds=2.0, fps=5.0)
        batch = slice_windows(track, spec, segments=[(5, 5), (10, 20)])
        assert batch.starts == [10]

    def test_real_rows_equal_track_rows(self):
        track = _track(47, fps=5.0, seed=2)
        spec = WindowSpec(window_seconds=2.0, hop_seconds=1.0, fps=5.0)
        batch = slice_windows(track, spec)
        for i, start in enumerate(batch.starts):
            n_real = batch.n_real_frames(i)
            np.testing.assert_array_equal(
                batch.payload[i, :n_real], track.values[start : start + n_real]
            )

    def test_non_overlapping_windows_partition_prefix(self):
        track = _track(23, fps=5.0)
        spec = WindowSpec(window_seconds=1.0, hop_seconds=1.0, fps=5.0)
        batch = slice_windows(track, spec)
        covered = [start + j for start in batch.starts for j in range(5)]
        assert covered == sorted(set(covered))  # no frame twice
        assert covered == list(range(20))  # prefix of length 4*5

    def test_window_count_monotone_in_segment_length(self):
        track = _track(60, fps=5.0)
        spec = WindowSpec(window_seconds=2.0, hop_seconds=1.0, fps=5.0)
        counts = [
            slice_windows(track, spec, segments=[(0, n)]).n_windows
            for n in range(1, 61)
        ]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_fps_mismatch_rejected(self):
        track = _track(30, fps=5.0)
        spec = WindowSpec(window_seconds=2.0, hop_seconds=1.0, fps=25.0)
        with pytest.raises(AlignmentError):
            slice_windows(track, spec)

    def test_segment_outside_track_rejected(self):
        track = _track(10, fps=5.0)
        spec = WindowSpec(window_seconds=1.0, hop_seconds=1.0, fps=5.0)
        with pytest.raises(ValueError):
            slice_windows(track, spec, segments=[(5, 12)])


class TestReduceExprTargets:
    def _batch(self, track, **kwargs):
        spec = WindowSpec(window_seconds=4.0, hop_seconds=2.0, fps=5.0)
        return slice_windows(track, spec, **kwargs)

    def test_majority_with_smallest_index_tie_break(self):
        labels = [0, 0, 1, 2, 2] + [0, 0, 0, 1, 1] + [3] * 10
        track = _track(20, fps=5.0)
        batch = self._batch(track)
        reduce_expr_targets(_label_track(labels), batch)
        # seconds: {0:2,1:1,2:2} tie -> 0; strict majority -> 0; then 3s
        assert batch.expr_targets[0] == [0, 0, 3, 3]

    def test_four_second_window_gives_four_labels(self):
        track = _track(50, fps=5.0)
        batch = self._batch(track)
        reduce_expr_targets(_label_track([1] * 50), batch)
        assert all(len(t) == 4 for t in batch.expr_targets)

    def test_single_label_track_reduces_to_it_everywhere(self):
        track = _track(37, fps=5.0)
        spec = WindowSpec(window_seconds=1.0, hop_seconds=1.0, fps=5.0)
        batch = slice_windows(track, spec)
        reduce_expr_targets(_label_track([5] * 37), batch)
        assert all(t == [5] for t in batch.expr_targets)

    def test_fully_padded_second_inherits_previous(self):
        track = _track(50, fps=5.0)
        batch = self._batch(track, segments=[(0, 7)])  # 7 real frames of 20
        labels = [2] * 5 + [4] * 45
        reduce_expr_targets(_label_track(labels), batch)
        # second 0 real -> 2; second 1 has frames 5,6 real -> 4;
        # seconds 2 and 3 are fully padded and inherit 4
        assert batch.expr_targets[0] == [2, 4, 4, 4]

    def test_alignment_errors(self):
        track = _track(20, fps=5.0)
        batch = self._batch(track)
        with pytest.raises(AlignmentError):
            reduce_expr_targets(_label_track([0] * 19), batch)
        with pytest.raises(AlignmentError):
            reduce_expr_targets(_label_track([0] * 20, vid="other"), batch)


class TestReduceVaTargets:
    def _va(self, values, vid="v0"):
        return FrameTrack(vid, 5.0, np.asarray(values), kind="va")

    def test_four_second_window_gives_20_by_2(self):
        track = _track(50, fps=5.0)
        spec = WindowSpec(window_seconds=4.0, hop_seconds=2.0, fps=5.0)
        batch = slice_windows(track, spec)
        rng = np.random.default_rng(3)
        va = self._va(np.clip(rng.normal(size=(50, 2)), -1, 1))
        reduce_va_targets(va, batch)
        assert batch.va_targets.shape == (4, 20, 2)

    def test_constant_track_fills_every_row(self):
        track = _track(25, fps=5.0)
        spec = WindowSpec(window_seconds=2.0, hop_seconds=1.0, fps=5.0)
        batch = slice_windows(track, spec)
        va = self._va(np.tile([0.3, -0.1], (25, 1)))
        reduce_va_targets(va, batch)
        np.testing.assert_array_equal(
            batch.va_targets, np.tile([0.3, -0.1], (batch.n_windows, 10, 1))
        )

    def test_targets_are_the_window_slice(self):
        track = _track(50, fps=5.0, seed=4)
        spec = WindowSpec(window_seconds=4.0, hop_seconds=2.0, fps=5.0)
        batch = slice_windows(track, spec)
        rng = np.random.default_rng(5)
        va_values = np.clip(rng.normal(size=(50, 2)), -1, 1)
        reduce_va_targets(self._va(va_values), batch)
        i = batch.starts.index(10)
        np.testing.assert_array_equal(batch.va_targets[i], va_values[10:30])

    def test_padded_rows_replicate_last_real_va(self):
        track = _track(50, fps=5.0)
        spec = WindowSpec(window_seconds=4.0, hop_seconds=2.0, fps=5.0)
        batch = slice_windows(track, spec, segments=[(0, 8)])
        rng = np.random.default_rng(6)
        va_values = np.clip(rng.normal(size=(50, 2)), -1, 1)
        reduce_va_targets(self._va(va_values), batch)
        np.testing.assert_array_equal(
            batch.va_targets[0, 8:], np.tile(va_values[7], (12, 1))
        )


class TestWindowLevelTargets:
    def test_window_labels_majority(self):
        track = _track(10, fps=5.0)
        spec = WindowSpec(window_seconds=1.0, hop_seconds=1.0, fps=5.0)
        batch = slice_windows(track, spec)
        labels = [0, 1, 1, 1, 0] + [7, 7, 2, 2, 2]
        out = window_labels(_label_track(labels), batch)
        np.testing.assert_array_equal(out, [1, 2])

    def test_window_va_means(self):
        track = _track(10, fps=5.0)
        spec = WindowSpec(window_seconds=1.0, hop_seconds=1.0, fps=5.0)
        batch = slice_windows(track, spec)
        va = FrameTrack(
            "v0", 5.0,
            np.vstack([np.tile([0.2, 0.4], (5, 1)), np.tile([-0.6, 0.0], (5, 1))]),
            kind="va",
        )
        out = window_va_means(va, batch)
        np.testing.assert_allclose(out, [[0.2, 0.4], [-0.6, 0.0]], atol=1e-15)


class TestVadCsv:
    def test_round_trip(self, tmp_path):
        masks = [
            VadMask("a", [True, False, True]),
            VadMask("b", [False, False]),
        ]
        path = tmp_path / "vad.csv"
        write_vad_csv(path, masks)
        loaded = read_vad_csv(path)
        np.testing.assert_array_equal(loaded["a"].voiced, masks[0].voiced)
        np.testing.assert_array_equal(loaded["b"].voiced, masks[1].voiced)

    def test_bad_flag_rejected(self, tmp_path):
        path = tmp_path / "vad.csv"
        path.write_text("video_id,frame,voiced\nv,0,2\n")
        with pytest.raises(DataFormatError):
            read_vad_csv(path)

    def test_error_names_the_file_line_after_a_multiline_id(self, tmp_path):
        path = tmp_path / "vad.csv"
        path.write_text('video_id,frame,voiced\n"l\nf",0,1\nv,1,2\n')
        with pytest.raises(DataFormatError, match=r"vad\.csv:4: "):
            read_vad_csv(path)

    @pytest.mark.parametrize(
        "rows, error, line",
        [
            ("v0,1,0\nv0,0,1\n", DataFormatError, 3),  # frame goes back
            ("v0,0,0\nv0,0,1\n", DataFormatError, 3),  # frame repeats
            ("v0,0,0\nv0,1,1\nv0,7,1\n", AlignmentError, 4),  # gap
            ("v0,0,0\nv0,banana,0\n", DataFormatError, 3),  # not an integer
        ],
        ids=["decreasing", "repeated", "gap", "non-integer"],
    )
    def test_frames_must_be_contiguous_and_increasing(self, tmp_path, rows, error, line):
        path = tmp_path / "vad.csv"
        path.write_text("video_id,frame,voiced\n" + rows)
        with pytest.raises(error, match=rf"vad\.csv:{line}: "):
            read_vad_csv(path)

    def test_each_video_numbers_its_own_frames(self, tmp_path):
        path = tmp_path / "vad.csv"
        path.write_text("video_id,frame,voiced\na,0,1\nb,0,0\na,1,0\nb,1,1\n")
        loaded = read_vad_csv(path)
        assert loaded["a"].voiced.tolist() == [True, False]
        assert loaded["b"].voiced.tolist() == [False, True]


class TestLabelCsv:
    def test_expr_round_trip(self, tmp_path):
        rows = {"a": {0: np.array([3.0]), 1: np.array([0.0])}}
        path = tmp_path / "labels.csv"
        write_label_csv(path, rows, task="expr")
        loaded = read_label_csv(path, task="expr")
        assert loaded["a"].frames.tolist() == [0, 1]
        assert loaded["a"].values.tolist() == [[3.0], [0.0]]

    def test_va_round_trip_exact(self, tmp_path):
        rows = {"a": {0: np.array([0.123456789012345678, -1.0])}}
        path = tmp_path / "labels.csv"
        write_label_csv(path, rows, task="va")
        loaded = read_label_csv(path, task="va")
        np.testing.assert_array_equal(loaded["a"].values, [rows["a"][0]])

    def test_invalid_rows_dropped_and_logged(self, tmp_path, caplog):
        path = tmp_path / "labels.csv"
        path.write_text(
            "video_id,frame,label\nv,0,3\nv,1,9\nv,2,-1\nv,3,2.5\nv,4,7\n"
        )
        with caplog.at_level("INFO"):
            loaded = read_label_csv(path, task="expr")
        assert loaded["v"].frames.tolist() == [0, 4]
        assert "3" in caplog.text  # three dropped rows reported

    def test_va_out_of_range_dropped(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text(
            "video_id,frame,valence,arousal\nv,0,0.5,0.5\nv,1,1.5,0.0\n"
        )
        loaded = read_label_csv(path, task="va")
        assert loaded["v"].frames.tolist() == [0]

    def test_all_invalid_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("video_id,frame,label\nv,0,9\n")
        with pytest.raises(DataFormatError):
            read_label_csv(path, task="expr")

    def test_va_non_finite_dropped(self, tmp_path, caplog):
        path = tmp_path / "labels.csv"
        path.write_text(
            "video_id,frame,valence,arousal\n"
            "v,0,0.5,0.5\nv,1,nan,0.0\nv,2,0.1,inf\nv,3,-inf,0.2\nv,4,0.0,0.0\n"
        )
        with caplog.at_level("INFO"):
            loaded = read_label_csv(path, task="va")
        assert loaded["v"].frames.tolist() == [0, 4]
        assert "dropped 3 invalid rows" in caplog.text

    def test_repeated_frame_takes_the_last_valid_row(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text(
            "video_id,frame,label\nv,1,3\nv,0,1\nv,1,5\nw,0,2\nv,1,9\n"
        )
        loaded = read_label_csv(path, task="expr")
        assert list(loaded) == ["v", "w"]
        assert loaded["v"].frames.tolist() == [0, 1]  # sorted by frame
        assert loaded["v"].values.tolist() == [[1.0], [5.0]]

    @pytest.mark.parametrize(
        "body, line",
        [
            ("v,0,1\nv,1\n", 3),  # short row
            ("v,0,1\nv,1,2,3\n", 3),  # long row
            ("v,0,1\nv,x,2\n", 3),  # non-integer frame
            ("v,0,1\n\nv,1.5,2\n", 4),  # non-integer frame after a blank line
            ("v,0,one\n", 2),  # non-numeric label
        ],
    )
    def test_malformed_row_names_its_line(self, tmp_path, body, line):
        path = tmp_path / "labels.csv"
        path.write_text("video_id,frame,label\n" + body)
        with pytest.raises(DataFormatError, match=re.escape(f"{path}:{line}:")):
            read_label_csv(path, task="expr")

    def test_rows_are_read_only(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("video_id,frame,valence,arousal\nv,0,0.5,0.5\n")
        rows = read_label_csv(path, task="va")["v"]
        assert len(rows) == 1
        with pytest.raises(ValueError):
            rows.values[0, 0] = 0.0
        with pytest.raises(ValueError):
            rows.frames[0] = 1

    def test_labels_to_track_requires_contiguous_frames(self):
        frames = {0: np.array([1.0]), 2: np.array([2.0])}
        with pytest.raises(AlignmentError):
            labels_to_track("v", frames, fps=5.0, task="expr")

    def test_labels_to_track_keeps_origin(self):
        frames = {5: np.array([1.0]), 6: np.array([2.0])}
        track = labels_to_track("v", frames, fps=5.0, task="expr")
        assert track.frame_index_origin == 5
        np.testing.assert_array_equal(track.labels(), [1, 2])

    def test_labels_to_track_takes_label_rows_alike(self):
        rows = {6: np.array([2.0]), 5: np.array([1.0])}
        track = labels_to_track("v", LabelRows.from_dict(rows), fps=5.0, task="expr")
        from_dict = labels_to_track("v", rows, fps=5.0, task="expr")
        assert track.frame_index_origin == from_dict.frame_index_origin == 5
        assert track.values.tobytes() == from_dict.values.tobytes()
        gap = LabelRows(np.array([3, 4, 7, 9]), np.zeros((4, 1)))
        with pytest.raises(AlignmentError, match="first gap 4 -> 7;"):
            labels_to_track("v", gap, fps=5.0, task="expr")

    @pytest.mark.parametrize(
        "frames, values",
        [([1, 0], [[0.0], [1.0]]), ([0, 0], [[0.0], [1.0]]), ([0], [[0.0], [1.0]]),
         ([0, 1], [0.0, 1.0])],
        ids=["decreasing", "repeated", "one-frame-two-rows", "1-d-values"],
    )
    def test_label_rows_reject_unsorted_frames_and_misshapen_values(self, frames, values):
        with pytest.raises(ValueError):
            LabelRows(np.array(frames), np.array(values))


# ---------------------------------------------------------------------------
# Reference equality: the per-row reader and writer these functions replaced,
# kept verbatim apart from returning the dropped count instead of logging it.
# ---------------------------------------------------------------------------


def _reference_read_label_csv(path, task):
    if task == "expr":
        expected = ["video_id", "frame", "label"]
    else:
        expected = ["video_id", "frame", "valence", "arousal"]
    out = {}
    dropped = 0
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        assert header == expected
        for row in reader:
            if not row:
                continue
            vid, frame = row[0], int(row[1])
            if task == "expr":
                value = np.array([float(row[2])])
                if not value[0].is_integer() or not 0 <= value[0] <= N_EXPR_CLASSES - 1:
                    dropped += 1
                    continue
            else:
                value = np.array([float(row[2]), float(row[3])])
                # the reference kept NaN rows; they are dropped now
                if np.any(value < -1.0) or np.any(value > 1.0) or np.isnan(value).any():
                    dropped += 1
                    continue
            out.setdefault(vid, {})[frame] = value
    return out, dropped


def _reference_write_label_csv(path, rows, task):
    if task == "expr":
        header = ["video_id", "frame", "label"]
    else:
        header = ["video_id", "frame", "valence", "arousal"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for vid in sorted(rows):
            frames = rows[vid]
            for frame in sorted(frames):
                value = frames[frame]
                if task == "expr":
                    writer.writerow([vid, str(frame), str(int(value[0]))])
                else:
                    writer.writerow(
                        [vid, str(frame), "%.17g" % value[0], "%.17g" % value[1]]
                    )


_ODD_VIDEO_IDS = ["v000", "v001", "b,c", 'q"d', "x%sy", " lead", "l\nf", ""]


def _random_label_lines(rng, task):
    """Data lines over several videos: shuffled and interleaved, with
    repeated frames, invalid rows, blank lines and ids that need quoting."""
    lines = []
    for vid in _ODD_VIDEO_IDS[: rng.integers(3, len(_ODD_VIDEO_IDS) + 1)]:
        n = int(rng.integers(1, 40))
        frames = list(range(n)) + rng.integers(0, n, size=n // 3).tolist()
        for frame in frames:
            if task == "expr":
                pick = rng.random()
                if pick < 0.8:
                    value = [str(int(rng.integers(0, N_EXPR_CLASSES)))]
                else:
                    odd = ["-1", "8", "2.5", "nan", "inf", "3.0", "-0", "1e0"]
                    value = [rng.choice(odd)]
            else:
                value = [repr(float(v)) for v in rng.uniform(-1.1, 1.1, size=2)]
                if rng.random() < 0.1:
                    value[int(rng.integers(0, 2))] = rng.choice(["nan", "inf", "-inf"])
                if rng.random() < 0.05:
                    value = ["-1", "1.0"]
            lines.append([vid, str(frame), *value])
    order = rng.permutation(len(lines))
    if rng.random() < 0.5:  # keep runs of one video, as files usually have
        order = np.sort(order)
    return [lines[i] for i in order]


@pytest.mark.parametrize("task", ["expr", "va"])
@pytest.mark.parametrize("seed", range(12))
def test_reader_matches_the_per_row_reference(tmp_path, caplog, task, seed):
    rng = np.random.default_rng([seed, 0 if task == "expr" else 1])
    path = tmp_path / "labels.csv"
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = ["video_id", "frame", "label"] if task == "expr" else [
            "video_id", "frame", "valence", "arousal"]
        writer.writerow(header)
        for row in _random_label_lines(rng, task):
            writer.writerow(row)
            if rng.random() < 0.02:
                fh.write("\n")
    expected, expected_dropped = _reference_read_label_csv(path, task)
    with caplog.at_level(logging.INFO, logger="affectpipe.windowing"):
        got = read_label_csv(path, task)
    found = re.findall(r"dropped (\d+) invalid rows", caplog.text)
    assert [int(n) for n in found] == ([expected_dropped] if expected_dropped else [])
    assert_rows_equal(got, expected)


def assert_rows_equal(got, expected):
    """LabelRows per video hold a {video: {frame: row}} dict's rows: the same
    videos in the same order, each video's frames sorted."""
    assert list(got) == list(expected)
    for vid, rows in expected.items():
        frames = sorted(rows)
        want = np.array([rows[f] for f in frames])
        assert len(got[vid]) == len(frames)
        assert got[vid].frames.tolist() == frames
        assert got[vid].frames.dtype == np.int64
        assert got[vid].values.dtype == want.dtype
        assert got[vid].values.shape == want.shape
        assert got[vid].values.tobytes() == want.tobytes()
        assert not got[vid].frames.flags.writeable
        assert not got[vid].values.flags.writeable


def dict_read_label_csv(path, task):
    """The dict-based read_label_csv that LabelRows replaced, kept verbatim
    apart from inlining its run split and returning the dropped count."""
    path = Path(path)
    expected = ["video_id", "frame", "label"] if task == "expr" else [
        "video_id", "frame", "valence", "arousal"]
    with path.open("r", encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh), None)
        assert header == expected
        check = _label_row_check(path, len(expected))
        ids, frames, values = parse_rows(
            path, fh, (np.float64, (len(expected) - 2,)), check
        )
    bounds = [0, *(np.flatnonzero(ids[1:] != ids[:-1]) + 1).tolist(), len(ids)]
    runs = [(ids[a], a, b) for a, b in zip(bounds, bounds[1:])]
    values = values.copy()
    values.setflags(write=False)
    del ids
    frames = frames.tolist()
    valid = valid_label_rows(values, task)
    keep = valid.tolist()
    out = {}
    for vid, start, end in runs:
        rows = zip(frames[start:end], values[start:end])
        kept = dict(compress(rows, keep[start:end]))
        if kept:
            out.setdefault(vid, {}).update(kept)
    return out, len(frames) - int(valid.sum())


LABEL_CASES = {
    "repeated-frame-last-row-valid": ("expr", ["v,1,3", "v,0,1", "v,1,5", "v,2,0"]),
    "repeated-frame-last-row-invalid": ("expr", ["v,0,1", "v,1,3", "v,2,4", "v,1,9"]),
    "repeated-va-frame-last-row-invalid": (
        "va", ["v,0,0.5,0.5", "v,1,0.25,-0.25", "v,1,1.5,0", "v,1,nan,0"]),
    "interleaved-videos": (
        "va", ["a,0,0.5,0.5", "b,3,0.1,0.2", "a,1,-0.5,0.25", "b,4,1,-1", "a,2,0,0",
               "c,0,0.5,0.5", "b,5,-0.0,0.75"]),
    "all-invalid-video": ("expr", ["a,0,1", "b,0,9", "a,1,2", "b,1,-1", "b,2,2.5"]),
    "video-whose-first-row-is-invalid": ("expr", ["a,0,9", "b,0,1", "a,1,2"]),
    "non-contiguous-frames": ("expr", ["v,0,1", "v,5,2", "v,2,3", "v,9,4", "w,7,0"]),
    "videos-in-several-runs": ("expr", ["a,2,1", "b,0,2", "a,0,3", "b,0,4", "a,2,5"]),
}


@pytest.mark.parametrize("case", LABEL_CASES.values(), ids=LABEL_CASES.keys())
def test_reader_matches_the_dict_reader_it_replaced(tmp_path, caplog, case):
    task, lines = case
    header = "video_id,frame,label" if task == "expr" else "video_id,frame,valence,arousal"
    path = tmp_path / "labels.csv"
    path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    expected, dropped = dict_read_label_csv(path, task)
    with caplog.at_level(logging.INFO, logger="affectpipe.windowing"):
        got = read_label_csv(path, task)
    found = re.findall(r"dropped (\d+) invalid rows", caplog.text)
    assert [int(n) for n in found] == ([dropped] if dropped else [])
    assert_rows_equal(got, expected)


@pytest.mark.parametrize("task", ["expr", "va"])
@pytest.mark.parametrize("seed", range(6))
def test_reader_matches_the_dict_reader_on_random_files(tmp_path, task, seed):
    rng = np.random.default_rng([seed, 6 if task == "expr" else 7])
    path = tmp_path / "labels.csv"
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["video_id", "frame", "label"] if task == "expr" else [
            "video_id", "frame", "valence", "arousal"])
        writer.writerows(_random_label_lines(rng, task))
    assert_rows_equal(read_label_csv(path, task), dict_read_label_csv(path, task)[0])


@pytest.mark.parametrize("task", ["expr", "va"])
@pytest.mark.parametrize("seed", range(6))
def test_writer_matches_the_per_row_reference(tmp_path, task, seed):
    rng = np.random.default_rng([seed, 2])
    rows = {}
    for vid in rng.permutation(_ODD_VIDEO_IDS).tolist():
        frames = rng.permutation(int(rng.integers(1, 30))) + int(rng.integers(0, 5))
        if task == "expr":
            rows[vid] = {int(f): np.array([float(rng.integers(0, N_EXPR_CLASSES))])
                         for f in frames}
        else:
            values = rng.uniform(-1, 1, size=(len(frames), 2))
            values[rng.random(values.shape) < 0.1] *= 1e-300
            values[rng.random(values.shape) < 0.05] = -0.0
            rows[vid] = {int(f): v for f, v in zip(frames, values)}
    write_label_csv(tmp_path / "new.csv", rows, task)
    _reference_write_label_csv(tmp_path / "ref.csv", rows, task)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_writers_round_trip_ids_that_need_quoting(tmp_path, newline):
    ids = ["c\rr", "l\nf", "cr\r\nlf", "\r", "b,c", 'q"d', '"', "plain"]
    rng = np.random.default_rng(0)
    tracks = [FrameTrack(vid, 5.0, rng.normal(size=(3, 2)), frame_index_origin=i)
              for i, vid in enumerate(ids)]
    masks = [VadMask(vid, rng.random(4) < 0.5) for vid in ids]
    labels = {vid: LabelRows(np.arange(i, i + 3), rng.uniform(-1, 1, size=(3, 2)))
              for i, vid in enumerate(ids)}
    write_track_csv(tmp_path / "tracks.csv", tracks)
    write_vad_csv(tmp_path / "vad.csv", masks)
    write_label_csv(tmp_path / "labels.csv", labels, task="va")
    if newline != "\n":  # the readers take CRLF files alike
        for name in ("tracks.csv", "vad.csv", "labels.csv"):
            path = tmp_path / name
            rows = list(csv.reader(path.open(encoding="utf-8", newline="")))
            with path.open("w", encoding="utf-8", newline="") as fh:
                csv.writer(fh, lineterminator=newline).writerows(rows)
    got = read_track_csv(tmp_path / "tracks.csv", fps=5.0)
    assert sorted(got) == sorted(ids)
    for t in tracks:
        assert got[t.video_id].frame_index_origin == t.frame_index_origin
        assert got[t.video_id].values.tobytes() == t.values.tobytes()
    vad = read_vad_csv(tmp_path / "vad.csv")
    assert {vid: m.voiced.tolist() for vid, m in vad.items()} == {
        m.video_id: m.voiced.tolist() for m in masks}
    read = read_label_csv(tmp_path / "labels.csv", task="va")
    assert sorted(read) == sorted(ids)
    for vid, rows in labels.items():
        assert read[vid].frames.tolist() == rows.frames.tolist()
        assert read[vid].values.tobytes() == rows.values.tobytes()


def _reference_read_vad_csv(path):
    """The per-row reader read_vad_csv replaced, kept verbatim."""
    path = Path(path)
    per_video = {}
    last_frame = {}
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["video_id", "frame", "voiced"]:
            raise DataFormatError(f"{path}: expected header video_id,frame,voiced")
        for row in reader:
            if not row:
                continue
            lineno = reader.line_num
            if len(row) != 3 or row[2] not in ("0", "1"):
                raise DataFormatError(f"{path}:{lineno}: voiced must be 0 or 1")
            vid = row[0]
            try:
                frame = int(row[1])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from None
            if vid in last_frame:
                reference_check_next_frame(path, lineno, vid, last_frame[vid], frame)
            last_frame[vid] = frame
            per_video.setdefault(vid, []).append(row[2] == "1")
    if not per_video:
        raise DataFormatError(f"{path}: no data rows")
    return {vid: VadMask(vid, np.array(v, dtype=bool)) for vid, v in per_video.items()}


@pytest.mark.parametrize("seed", range(12))
def test_vad_reader_matches_the_per_row_reference(tmp_path, seed):
    rng = np.random.default_rng([seed, 5])
    rows = random_rows(rng, lambda rng: [str(rng.integers(0, 2))])
    if seed == 0:
        rows = rows[:1]  # a single data row
    path = tmp_path / "vad.csv"
    write_rows(rng, path, ["video_id", "frame", "voiced"], rows)
    expected = _reference_read_vad_csv(path)
    got = read_vad_csv(path)
    assert list(got) == list(expected)
    for vid, mask in expected.items():
        assert got[vid].video_id == mask.video_id
        assert got[vid].voiced.dtype == mask.voiced.dtype
        assert got[vid].voiced.tobytes() == mask.voiced.tobytes()
        assert not got[vid].voiced.flags.writeable


VAD_FAULTS = {
    "short row": "a,4",
    "long row": "a,4,1,1",
    "non-integer frame": "a,x,1",
    "voiced 2": "a,4,2",
    "voiced with a leading space": "a,4, 1",
    "voiced with a trailing space": "a,4,1 ",
    "empty voiced": "a,4,",
    "repeated frame": "a,3,1",
    "backwards frame": "a,1,0",
    "gap": "a,6,1",
    "separator around a frame": "a,\x1f4,1",
    "whitespace line": " ",
}


@pytest.mark.parametrize("later_fault", [False, True], ids=["alone", "then-a-gap"])
@pytest.mark.parametrize("multiline_id", [False, True], ids=["plain", "two-line-id"])
@pytest.mark.parametrize("fault", VAD_FAULTS.values(), ids=VAD_FAULTS.keys())
def test_vad_reader_faults_match_the_reference(tmp_path, fault, multiline_id,
                                               later_fault):
    lines = ["video_id,frame,voiced"]
    if multiline_id:
        lines += ['"l\nf",0,1', '"l\nf",1,0']
    lines += [f"{vid},{f},{f % 2}" for f in range(4) for vid in "ab"]
    lines += [fault, *(["b,9,1"] if later_fault else []), "b,4,0"]
    path = tmp_path / "vad.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    expected = outcome(_reference_read_vad_csv, path)
    assert expected is not None
    assert outcome(read_vad_csv, path) == expected


@pytest.mark.parametrize("body", ["", "\n", "\r\n\n\r\n"], ids=["none", "blank", "blanks"])
@pytest.mark.parametrize("which", ["track", "vad", "expr", "va"])
def test_header_only_file_has_no_data_rows(tmp_path, which, body):
    header, read = {
        "track": ("video_id,frame,c0", lambda p: read_track_csv(p, fps=5.0)),
        "vad": ("video_id,frame,voiced", read_vad_csv),
        "expr": ("video_id,frame,label", lambda p: read_label_csv(p, "expr")),
        "va": ("video_id,frame,valence,arousal", lambda p: read_label_csv(p, "va")),
    }[which]
    path = tmp_path / "data.csv"
    path.write_text(header + "\n" + body, encoding="utf-8", newline="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns on empty input
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: no data rows")):
            read(path)


FRAME_READERS = {
    "track": ("video_id,frame,c0", "0.5", lambda p: read_track_csv(p, fps=5.0)),
    "vad": ("video_id,frame,voiced", "1", read_vad_csv),
    "expr": ("video_id,frame,label", "3", lambda p: read_label_csv(p, "expr")),
    "va": ("video_id,frame,valence,arousal", "0.5,0.5", lambda p: read_label_csv(p, "va")),
}


def _older_numpy_loadtxt(real):
    """np.loadtxt as older numpy ran it: an int64 field written as a float
    is read through float(), with only a DeprecationWarning."""

    def loadtxt(lines, **kwargs):
        rows = []
        for line in lines:
            vid, frame, rest = line.split(",", 2)
            try:
                int(frame)
            except ValueError:
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning, stacklevel=2)
                frame = str(int(float(frame)))
            rows.append(f"{vid},{frame},{rest}")
        return real(rows, **kwargs)

    return loadtxt


@pytest.mark.parametrize("older_numpy", [False, True], ids=["numpy", "older-numpy"])
@pytest.mark.parametrize("frame", ["4.0", "4.5", "1e3"])
@pytest.mark.parametrize("which", FRAME_READERS)
def test_float_frame_is_rejected_whatever_the_warning_filter(
    monkeypatch, tmp_path, which, frame, older_numpy
):
    header, value, read = FRAME_READERS[which]
    path = tmp_path / "data.csv"
    path.write_text(f"{header}\nv,3,{value}\nv,{frame},{value}\n", encoding="utf-8")
    if older_numpy:
        monkeypatch.setattr(np, "loadtxt", _older_numpy_loadtxt(np.loadtxt))
    message = f"{path}:3: invalid literal for int() with base 10: {frame!r}"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # as in a run outside the tests
        with pytest.raises(DataFormatError, match=re.escape(message) + "$"):
            read(path)
