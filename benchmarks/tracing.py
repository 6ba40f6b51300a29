"""Spans around the program's public functions, recorded from outside.

`install()` replaces each traced function with a timing wrapper in every
loaded `affectpipe` module that holds it, so calls made through a
by-value import (`from .timeline import read_track_csv`) are seen as
well as calls through the home module. The program itself is not
edited. A name that no longer exists is reported as absent instead of
failing the run.

Spans live in memory until the run ends. Each thread keeps its own
stack; a span that opens on a pool thread with an empty stack takes the
active stage span as its parent. Self time is a span's duration minus
the union of its children's intervals, so overlapping children on pool
threads are not subtracted twice.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


# counts recorded per call: name -> fn(args, kwargs, result) -> {count: value}
COUNTERS = {
    "timeline.read_track_csv": lambda a, k, r: {
        "rows": sum(t.n_frames for t in r.values())},
    "timeline.write_track_csv": lambda a, k, r: {
        "rows": sum(t.n_frames for t in _arg(a, k, 1, "tracks"))},
    "windowing.slice_windows": lambda a, k, r: {
        "windows": r.n_windows,
        "padded_windows": int((~r.pad_mask).any(axis=1).sum())},
    "windowing.read_label_csv": lambda a, k, r: {
        "rows": sum(len(v) for v in r.values())},
    "windowing.write_label_csv": lambda a, k, r: {
        "rows": sum(len(v) for v in _arg(a, k, 1, "rows").values())},
    "features.batch_functionals": lambda a, k, r: {"rows": r.shape[0]},
    "kelm.kernel_matrix": lambda a, k, r: {"entries": r.shape[0] * r.shape[1]},
    # dense LU of the n x n system plus the solve for k right-hand sides
    "kelm.train_kelm": lambda a, k, r: {
        "flops_computed": 2.0 / 3.0 * r.D.shape[0] ** 3
        + 2.0 * r.D.shape[0] ** 2 * r.beta.shape[1]},
    "forest.train_forest": lambda a, k, r: {"trees": r.n_trees},
    "forest.select_n_trees": lambda a, k, r: {"chosen_trees": r[0]},
    "fusion.sample_pool": lambda a, k, r: {"matrices": len(r)},
}

STAGES = (
    "stage_window", "stage_features", "stage_train_kelm", "stage_predict_kelm",
    "stage_fuse", "stage_postprocess", "stage_evaluate",
)

TRACED = (
    [f"pipeline.{s}" for s in STAGES]
    + ["pipeline.evaluate_files"]
    + [f"timeline.{f}" for f in (
        "read_track_csv", "write_track_csv", "resample_track", "interpolate_to",
        "hamming_smooth")]
    + [f"windowing.{f}" for f in (
        "slice_windows", "window_labels", "window_va_means", "read_label_csv",
        "write_label_csv", "read_vad_csv")]
    + [f"features.{f}" for f in (
        "batch_functionals", "fit_minmax", "apply_minmax", "per_video_minmax")]
    + [f"kelm.{f}" for f in (
        "kernel_matrix", "train_kelm", "select_c", "predict_kelm",
        "save_kelm_model", "load_kelm_model")]
    + [f"forest.{f}" for f in ("train_forest", "select_n_trees", "predict_forest")]
    + [f"fusion.{f}" for f in (
        "sample_pool", "dwf_search", "apply_fusion", "mean_fusion",
        "stack_and_fuse_rf")]
    + [f"metrics.{f}" for f in ("classification_report", "ccc", "write_report")]
)


class Tracer:
    """Collects spans as (id, name, parent, start, end, cpu_s, counts)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._stage: int | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, stage: bool = False):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif threading.current_thread() is not self._main:
                parent = self._stage
            else:
                parent = None
            span_id = next(self._ids)
            stack.append(span_id)
            if stage:
                self._stage = span_id
                cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                cpu = time.process_time() - cpu0 if stage else None
                if stage:
                    self._stage = None
            counts = {}
            if counter is not None:
                try:
                    counts = counter(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError, ValueError):
                    counts = {}  # the result's shape changed; the count is absent
            self.spans.append((span_id, name, parent, t0, t1, cpu, counts))
            return result

        return traced

    def install(self, names=TRACED) -> None:
        """Wrap every traced name in every loaded affectpipe module."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "affectpipe" or key.startswith("affectpipe."))]
        for name in names:
            mod_name, func = name.split(".")
            home = sys.modules.get(f"affectpipe.{mod_name}")
            original = getattr(home, func, None) if home is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original, stage=func.startswith("stage_"))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def root(self, fn, *args):
        """Run fn as the root span `pipeline.run`; returns its result."""
        return self.wrap("pipeline.run", fn)(*args)


def summarize(spans: list) -> dict:
    """Per-name totals: calls, s (inclusive), self_s, cpu_s and counts."""
    by_id = {s[0]: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        if s[2] is not None and s[2] in by_id:
            children.setdefault(s[2], []).append(s)
    out: dict[str, dict] = {}
    for span_id, name, _, t0, t1, cpu, counts in spans:
        covered = 0.0
        kids = sorted((max(c[3], t0), min(c[4], t1)) for c in children.get(span_id, ()))
        end = t0
        for a, b in kids:
            a = max(a, end)
            if b > a:
                covered += b - a
                end = b
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "cpu_s": 0.0})
        agg["calls"] += 1
        agg["s"] += t1 - t0
        agg["self_s"] += (t1 - t0) - covered
        if cpu is not None:
            agg["cpu_s"] += cpu
        for key, value in counts.items():
            agg[key] = agg.get(key, 0) + value
    return out

