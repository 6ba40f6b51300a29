"""Functional statistics over windows and MinMax normalization.

Every function takes and returns plain (rows x dims) arrays. A window's
functionals are those of its real rows, so padding never reaches them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

FUNCTIONAL_ORDER = ("mean", "max", "min")


@dataclass(frozen=True)
class FunctionalSet:
    """Ordered subset of the supported window statistics.

    The order is fixed to (mean, max, min) regardless of how the names
    are passed in, so feature layouts are reproducible.
    """

    names: tuple[str, ...]

    def __init__(self, names: Iterable[str] = FUNCTIONAL_ORDER) -> None:
        requested = set(names)
        unknown = requested - set(FUNCTIONAL_ORDER)
        if unknown:
            raise ValueError(f"unknown functionals: {sorted(unknown)}")
        if not requested:
            raise ValueError("functional set must be nonempty")
        object.__setattr__(
            self, "names", tuple(n for n in FUNCTIONAL_ORDER if n in requested)
        )

    def __len__(self) -> int:
        return len(self.names)


def functionals(rows: np.ndarray, functional_set: FunctionalSet) -> np.ndarray:
    """Column-wise statistics of one window's rows, concatenated in set order.

    Returns a vector of length len(set) * d. The rows are summed as one
    C-contiguous block, so a window's bytes do not depend on the layout
    of the track it was sliced from.
    """
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 1:
        raise ValueError("a window must be a non-empty (rows, d) matrix")
    parts = []
    for name in functional_set.names:
        if name == "mean":
            parts.append(rows.mean(axis=0))
        elif name == "max":
            parts.append(rows.max(axis=0))
        else:
            parts.append(rows.min(axis=0))
    return np.concatenate(parts)


def batch_functionals(
    values: np.ndarray,
    starts: Sequence[int],
    n_real: Sequence[int],
    functional_set: FunctionalSet,
) -> np.ndarray:
    """Functionals of every window `values[start:start + n]` of a (frames, d) track.

    Returns one row per window, (n_windows, len(set) * d).
    """
    values = np.asarray(values, dtype=np.float64)
    starts, n_real = np.asarray(starts, dtype=np.int64), np.asarray(n_real, dtype=np.int64)
    if values.ndim != 2 or starts.ndim != 1 or starts.shape != n_real.shape:
        raise ValueError("values must be (frames, d), and starts and n_real one 1-d length")
    if (starts < 0).any() or (starts + n_real > values.shape[0]).any():
        raise ValueError("every window must lie inside values")
    rows = [
        functionals(values[start : start + n], functional_set)
        for start, n in zip(starts.tolist(), n_real.tolist())
    ]
    width = len(functional_set) * values.shape[1]
    return np.array(rows).reshape(len(rows), width) if rows else np.empty((0, width))


@dataclass(frozen=True)
class MinMaxScaler:
    """Per-dimension extrema used for scaling into [0, 1]."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        lo = np.asarray(self.lo, dtype=np.float64)
        hi = np.asarray(self.hi, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lo and hi must be 1-d vectors of equal length")
        if np.any(lo > hi):
            raise ValueError("lo must not exceed hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


def fit_minmax(train_data: Sequence[np.ndarray]) -> MinMaxScaler:
    """Per-dimension extrema over all rows of all (n, d) training matrices.

    The reduction merges per-input extrema, so it parallelizes per input
    if needed.
    """
    if not train_data:
        raise ValueError("fit_minmax needs at least one input")
    lo = hi = None
    for item in train_data:
        values = np.asarray(item, dtype=np.float64)
        if values.size == 0:
            continue
        item_lo, item_hi = values.min(axis=0), values.max(axis=0)
        if lo is None:
            lo, hi = item_lo, item_hi
        else:
            if item_lo.shape != lo.shape:
                raise ValueError("all inputs must share a width")
            lo, hi = np.minimum(lo, item_lo), np.maximum(hi, item_hi)
    if lo is None:
        raise ValueError("fit_minmax needs at least one frame")
    return MinMaxScaler(lo=lo, hi=hi)


def apply_minmax(data: np.ndarray, scaler: MinMaxScaler) -> np.ndarray:
    """Scale an (n, d) matrix into [0, 1] per dimension.

    Constant fitted dimensions map to 0.0; values outside the fitted
    range are clipped so downstream kernel distances stay bounded.
    """
    values = np.asarray(data, dtype=np.float64)
    if values.shape[1] != scaler.lo.shape[0]:
        raise ValueError(
            f"width {values.shape[1]} does not match scaler width {scaler.lo.shape[0]}"
        )
    span = scaler.hi - scaler.lo
    safe = np.where(span > 0, span, 1.0)
    out = np.clip((values - scaler.lo) / safe, 0.0, 1.0)
    out[:, span == 0] = 0.0
    return out


def per_video_minmax(data: np.ndarray) -> np.ndarray:
    """MinMax scaling with extrema from this input alone."""
    return apply_minmax(data, fit_minmax([data]))

