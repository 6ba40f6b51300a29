"""Functional statistics over windows and MinMax normalization.

Every function takes and returns plain (rows x dims) arrays.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
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


def functionals(
    window_payload: np.ndarray,
    functional_set: FunctionalSet,
    pad_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Column-wise statistics of one window, concatenated in set order.

    Returns a vector of length len(set) * d. When a pad mask is given,
    padded rows are excluded from every statistic.
    """
    payload = np.asarray(window_payload, dtype=np.float64)
    if payload.ndim != 2 or payload.shape[0] < 1:
        raise ValueError("window payload must be a non-empty (W, d) matrix")
    if pad_mask is not None:
        pad_mask = np.asarray(pad_mask, dtype=bool)
        if pad_mask.shape != (payload.shape[0],):
            raise ValueError("pad_mask must have one flag per window row")
        payload = payload[pad_mask]
        if payload.shape[0] == 0:
            raise ValueError("window has no real frames")
    parts = []
    for name in functional_set.names:
        if name == "mean":
            parts.append(payload.mean(axis=0))
        elif name == "max":
            parts.append(payload.max(axis=0))
        else:
            parts.append(payload.min(axis=0))
    return np.concatenate(parts)


def batch_functionals(
    payload: np.ndarray,
    functional_set: FunctionalSet,
    pad_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Functionals for a whole (n_windows, W, d) payload at once."""
    payload = np.asarray(payload, dtype=np.float64)
    if payload.ndim != 3:
        raise ValueError("payload must have shape (n_windows, W, d)")
    rows = [
        functionals(
            payload[i], functional_set, None if pad_mask is None else pad_mask[i]
        )
        for i in range(payload.shape[0])
    ]
    width = len(functional_set) * payload.shape[2]
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


# ---------------------------------------------------------------------------
# Scaler CSV: a `# scope=global` comment line, then dim,lo,hi rows.
# ---------------------------------------------------------------------------


def write_scaler_csv(path: str | Path, scaler: MinMaxScaler) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("# scope=global\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["dim", "lo", "hi"])
        for j in range(scaler.lo.shape[0]):
            writer.writerow([str(j), "%.17g" % scaler.lo[j], "%.17g" % scaler.hi[j]])
