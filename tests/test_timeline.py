"""Track model, resampling, interpolation, smoothing, CSV round trips."""

from __future__ import annotations

import csv
import io
import re
from pathlib import Path

import numpy as np
import pytest

from affectpipe.errors import AlignmentError, DataFormatError
from affectpipe.timeline import (
    FLOAT_FMT,
    FrameTrack,
    SmoothingSpec,
    hamming_smooth,
    interpolate_to,
    read_track_csv,
    resample_track,
    write_csv,
    write_frame_rows,
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
    def test_frame_rows_quote_ids_like_csv_writer(self, tmp_path, text):
        path = tmp_path / "row.csv"
        with path.open("w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerow([text, "1"])
        expected = path.read_bytes().decode("utf-8")
        if "\r" in text:
            # csv.writer quotes only the characters of its own line terminator;
            # the readers split lines at a bare \r, so the id is quoted
            expected = '"%s",1\n' % text.replace('"', '""')
        write_frame_rows(path, ["video_id", "frame"], [(text, np.array([1]), np.empty((1, 0)))],
                         "%d")
        assert path.read_bytes().decode("utf-8") == "video_id,frame\n" + expected


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


# ---------------------------------------------------------------------------
# Reference equality: the per-row reader read_track_csv replaced, kept
# verbatim, and its frame check.
# ---------------------------------------------------------------------------


def reference_check_next_frame(path, lineno, vid, last, frame):
    if frame <= last:
        raise DataFormatError(
            f"{path}:{lineno}: frames not strictly increasing for {vid!r}"
        )
    if frame != last + 1:
        raise AlignmentError(
            f"{path}:{lineno}: gap in frames for {vid!r} "
            f"({last} -> {frame}); tracks must be contiguous"
        )


def _reference_read_track_csv(path, fps, kind="embedding"):
    path = Path(path)
    per_video = {}
    origins = {}
    last_frame = {}
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[:2] != ["video_id", "frame"]:
            raise DataFormatError(f"{path}: expected header video_id,frame,c0,...")
        width = len(header) - 2
        if width < 1:
            raise DataFormatError(f"{path}: no value columns")
        for row in reader:
            if not row:
                continue
            lineno = reader.line_num
            if len(row) != width + 2:
                raise DataFormatError(
                    f"{path}:{lineno}: expected {width + 2} fields, got {len(row)}")
            vid = row[0]
            try:
                frame = int(row[1])
                values = [float(v) for v in row[2:]]
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from None
            if vid in last_frame:
                reference_check_next_frame(path, lineno, vid, last_frame[vid], frame)
            else:
                origins[vid] = frame
                per_video[vid] = []
            last_frame[vid] = frame
            per_video[vid].append(values)
    if not per_video:
        raise DataFormatError(f"{path}: no data rows")
    tracks = {}
    for vid, rows in per_video.items():
        try:
            tracks[vid] = FrameTrack(
                vid, fps, np.array(rows), kind=kind, frame_index_origin=origins[vid]
            )
        except ValueError as exc:
            raise DataFormatError(f"{path}: video {vid!r}: {exc}") from None
    return tracks


# ids csv must quote, ids numpy's comment and whitespace rules could touch,
# a non-ASCII id and one holding a separator str.isspace() counts as space
READER_IDS = ["v0", "v1", "b,c", 'q"d', "l\nf", "c\rr", "#x", " lead", "", "é", "u\x1fs"]


def random_rows(rng, fields):
    """Data rows of contiguous videos with odd ids, interleaved or in runs.

    fields(rng) gives the fields after video_id and frame of one row.
    """
    vids = rng.permutation(READER_IDS)[: int(rng.integers(1, len(READER_IDS) + 1))]
    videos = []
    for vid in vids.tolist():
        origin = int(rng.integers(0, 60))
        frames = range(origin, origin + int(rng.integers(1, 25)))
        spell = ["{}", " {}", "+{}", "00{}"] if rng.random() < 0.3 else ["{}"]
        videos.append([[vid, str(rng.choice(spell)).format(f), *fields(rng)]
                       for f in frames])
    if rng.random() < 0.5:  # interleave, keeping each video's frame order
        order = rng.permutation(np.repeat(np.arange(len(videos)),
                                          [len(v) for v in videos]))
        queues = [iter(v) for v in videos]
        return [next(queues[i]) for i in order]
    return [row for video in videos for row in video]


def write_rows(rng, path, header, rows):
    """Write rows with LF or CRLF endings and blank lines between some.

    csv.writer quotes a field holding \\r only when \\r is part of its line
    terminator, so rows are formatted with CRLF and the ending swapped.
    """
    end = "\r\n" if rng.random() < 0.3 else "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    with path.open("w", encoding="utf-8", newline="") as fh:
        for i, row in enumerate([header, *rows]):
            if i and rng.random() < 0.05:
                fh.write(end)
            buf.seek(0)
            buf.truncate()
            writer.writerow(row)
            fh.write(buf.getvalue()[:-2] + end)


def _track_fields(width):
    def fields(rng):
        values = rng.normal(size=width)
        values[rng.random(width) < 0.1] *= 1e300
        values[rng.random(width) < 0.1] *= 1e-310
        values[rng.random(width) < 0.05] = -0.0
        spell = rng.choice(["%.17g", "%r", "%.3e", " %.17g ", "%.17G"], size=width)
        return [("%r" % float(v)) if s == "%r" else s % v for s, v in zip(spell, values)]
    return fields


@pytest.mark.parametrize("seed", range(12))
def test_track_reader_matches_the_per_row_reference(tmp_path, seed):
    rng = np.random.default_rng([seed, 4])
    width = int(rng.integers(1, 5))
    rows = random_rows(rng, _track_fields(width))
    if seed == 0:
        rows = rows[:1]  # a single data row
    path = tmp_path / "tracks.csv"
    write_rows(rng, path, ["video_id", "frame"] + [f"c{j}" for j in range(width)], rows)
    expected = _reference_read_track_csv(path, fps=5.0)
    got = read_track_csv(path, fps=5.0)
    assert list(got) == list(expected)
    for vid, track in expected.items():
        new = got[vid]
        assert new.video_id == track.video_id and new.fps == track.fps
        assert new.kind == track.kind
        assert new.frame_index_origin == track.frame_index_origin
        assert type(new.frame_index_origin) is int
        assert new.values.dtype == track.values.dtype
        assert new.values.shape == track.values.shape
        assert new.values.tobytes() == track.values.tobytes()
        assert not new.values.flags.writeable


def outcome(read, path):
    """A reader's exception as (class, message), or None if it read the file."""
    try:
        read(path)
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc), str(exc)
    return None


TRACK_FAULTS = {
    "short row": "a,4,1.0",
    "long row": "a,4,1.0,2.0,3.0",
    "non-integer frame": "a,4.0,1.0,2.0",
    "non-numeric value": "a,4,1.0,abc",
    "repeated frame": "a,3,1.0,2.0",
    "backwards frame": "a,1,1.0,2.0",
    "gap": "a,6,1.0,2.0",
    "frame wrapping around int64": "w,9223372036854775807,1,2\nw,-9223372036854775808,1,2",
    "separator around a value": "a,4,1.0\x1f,2.0",
    "whitespace line": "  ",
    "non-finite value": "a,4,nan,2.0",
}


@pytest.mark.parametrize("later_fault", [False, True], ids=["alone", "then-a-gap"])
@pytest.mark.parametrize("multiline_id", [False, True], ids=["plain", "two-line-id"])
@pytest.mark.parametrize("fault", TRACK_FAULTS.values(), ids=TRACK_FAULTS.keys())
def test_track_reader_faults_match_the_reference(tmp_path, fault, multiline_id,
                                                 later_fault):
    lines = ["video_id,frame,c0,c1"]
    if multiline_id:
        lines += ['"l\nf",0,0.5,0.5', '"l\nf",1,0.5,0.5']
    lines += [f"{vid},{f},0.25,-0.25" for f in range(4) for vid in "ab"]
    lines += [fault, *(["b,9,1.0,2.0"] if later_fault else []), "b,4,0.0,0.0"]
    path = tmp_path / "tracks.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    expected = outcome(lambda p: _reference_read_track_csv(p, fps=5.0), path)
    assert expected is not None
    assert outcome(lambda p: read_track_csv(p, fps=5.0), path) == expected


@pytest.mark.parametrize(
    "frame, value",
    [
        ("4", "1_0"),  # float() reads underscores, numpy does not
        ("4", "١"),  # nor non-ASCII digits
        ("4_0", "1.0"),
        ("٤", "1.0"),
        ("᧒", "1.0"),  # numpy's int64 parser has read this as 6562
        ("9223372036854775808", "1.0"),  # beyond int64
    ],
    ids=["value-underscore", "value-arabic-indic", "frame-underscore",
         "frame-arabic-indic", "frame-new-tai-lue", "frame-beyond-int64"],
)
def test_numerals_numpy_does_not_read_are_rejected(tmp_path, frame, value):
    path = tmp_path / "tracks.csv"
    path.write_text(f"video_id,frame,c0\nv,{frame},{value}\n", encoding="utf-8")
    _reference_read_track_csv(path, fps=5.0)  # the per-row reader took them
    with pytest.raises(DataFormatError, match=re.escape(f"{path}: ")):
        read_track_csv(path, fps=5.0)


class TestWriteCsv:
    def test_rows_round_trip_through_csv_reader(self, tmp_path):
        # csv.writer quotes only its terminator's characters; a bare CR left
        # unquoted would read back as a second row
        rows = [["metric", "value"], ["selector", "a\rb"], ["lf", "a\nb"],
                ["crlf", "a\r\nb"], ['quo"te', "a,b"], ["", "1.5"]]
        path = tmp_path / "rows.csv"
        write_csv(path, rows)
        with path.open(newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh)) == rows
        assert path.read_bytes().startswith(b"metric,value\nselector,\"a\rb\"\n")

    def test_rows_without_a_line_break_keep_their_bytes(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_csv(path, [["metric", "value"], ['a"b', "c,d"], ["", "1e-05"]])
        assert path.read_bytes() == b'metric,value\n"a""b","c,d"\n,1e-05\n'
