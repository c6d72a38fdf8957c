"""Shared plumbing: deterministic JSON output, the ordered map, grids, and
the blocked all-pairs scan."""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = ["parallel_map", "dump_json", "geometric_grid",
           "max_sq_pair_distance"]

# Elements per temporary array in the blocked pairwise scans (2 MB of
# float64), so their memory stays O(N) whatever the input size.
BLOCK_ELEMENTS = 1 << 18


def parallel_map(fn, items, threads: int = 1) -> list:
    """``[fn(item) for item in items]``; ``threads`` is accepted and ignored.

    No command calls it.  It keeps the name and the three-argument call
    that ``perfbench/tracer.py`` patches and makes.
    """
    return [fn(item) for item in items]


def dump_json(payload, path=None) -> str:
    """Canonical JSON: sorted keys, fixed indent, no NaN, trailing newline.

    Float formatting is repr (shortest round-trip), so equal inputs give
    byte-equal files.
    """
    text = json.dumps(payload, sort_keys=True, indent=1, allow_nan=False)
    text += "\n"
    if path is not None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    return text


def geometric_grid(lo: float, hi: float, per_octave: int = 4) -> np.ndarray:
    """Ascending grid lo * 2^(j/per_octave) capped at hi; at least one node."""
    if lo <= 0:
        raise ValueError(f"grid start must be positive, got {lo}")
    if per_octave < 1:
        raise ValueError(f"per_octave must be >= 1, got {per_octave}")
    if hi <= lo:
        return np.array([lo])
    count = int(math.floor(math.log2(hi / lo) * per_octave + 1e-9)) + 1
    grid = lo * 2.0 ** (np.arange(count) / per_octave)
    return grid[grid <= hi * (1 + 1e-12)]


def max_sq_pair_distance(points: np.ndarray) -> float:
    """Largest squared distance over all pairs of rows of ``points``.

    Scans row blocks against the rows from the block's start onward, so
    every unordered pair is seen once and no temporary exceeds about
    BLOCK_ELEMENTS elements.  Each pair is scored as ``(diff**2).sum(-1)``,
    the arithmetic of a dense all-pairs scan, so the maximum is bit-equal
    to the dense one.
    """
    count, dim = points.shape
    rows = max(1, BLOCK_ELEMENTS // max(1, count * dim))
    best = 0.0
    for lo in range(0, count, rows):
        diff = points[lo:lo + rows, None, :] - points[None, lo:, :]
        best = max(best, float((diff**2).sum(-1).max()))
    return best
