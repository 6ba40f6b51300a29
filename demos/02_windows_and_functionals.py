"""
Voiced segments, sliding windows, and statistical functionals
=============================================================

Audio embeddings are summarized over 4 s windows hopped every 2 s, but
only inside regions where someone is actually speaking. Each window
then collapses to a fixed-length feature vector of per-dimension
statistics, ready for a kernel model.
"""

import numpy as np

from affectpipe import (
    FrameTrack,
    FunctionalSet,
    VadMask,
    WindowSpec,
    batch_functionals,
    fit_minmax,
    apply_minmax,
    labels_to_track,
    slice_windows,
    voiced_segments,
    window_labels,
)

rng = np.random.default_rng(1)
fps = 5.0

track = FrameTrack("talk", fps, rng.normal(size=(80, 6)), kind="embedding")

# a VAD mask: speech for 8 s, a 5 s pause, then a last 3 s burst
mask = np.ones(80, dtype=bool)
mask[40:65] = False
segments = voiced_segments(VadMask("talk", mask))
print("voiced segments (frame spans):", segments)

spec = WindowSpec(window_seconds=4.0, hop_seconds=2.0, fps=fps)
batch = slice_windows(track, spec, segments=segments)
print(f"{batch.n_windows} windows of {spec.window_frames} frames,",
      "starting at frames", list(batch.starts))
# a window is its first frame and its count of real frames; a segment
# shorter than a window gives one window of just its real frames
print("real frames per window:", batch.n_real.tolist())

# one majority expression label per window makes the training target
labels = {t: np.array([float(t // 20 % 3)]) for t in range(80)}
label_track = labels_to_track("talk", labels, fps=fps, task="expr")
print("window labels:", window_labels(label_track, batch).tolist())

# mean/max/min per dimension -> 18 features from 6-dim embeddings
functionals = FunctionalSet(("mean", "max", "min"))
features = batch_functionals(track.values, batch.starts, batch.n_real, functionals)
print("feature matrix:", features.shape)

# global min-max scaling is fit once (on training videos) and reused
scaler = fit_minmax([features])
scaled = apply_minmax(features, scaler)
print("scaled range: [%.3f, %.3f]" % (scaled.min(), scaled.max()))
