"""Shared plumbing: deterministic JSON output, the ordered map, the two
reductions whose summation order every report relies on, the candidate
ends of a longest pair and the blocked all-pairs scan."""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = ["parallel_map", "chunks", "ragged", "strided", "unique",
           "segment_sums", "ordered_sum", "dump_json", "diameter_candidates",
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


def chunks(lengths: np.ndarray, size: int) -> list[tuple[int, int]]:
    """Runs ``lo:hi`` of consecutive items whose lengths add to about
    ``size`` (a new run starts each multiple of ``size``), one at least."""
    window = (np.cumsum(lengths) - lengths) // size
    cuts = [0, *(np.flatnonzero(np.diff(window)) + 1).tolist(), lengths.size]
    return list(zip(cuts, cuts[1:]))


def ragged(starts: np.ndarray, sizes: np.ndarray):
    """The row and the position of every entry of the segments
    ``starts[i]:starts[i] + sizes[i]``, segment after segment."""
    rows = np.repeat(np.arange(sizes.size), sizes)
    skip = starts - (np.cumsum(sizes) - sizes)
    return rows, np.arange(rows.size) + skip[rows]


def strided(indices: np.ndarray, cap: int) -> np.ndarray:
    """At most ``cap`` of ``indices``, taken at an even stride from the
    first."""
    if indices.size <= cap:
        return indices
    return indices[:: max(1, indices.size // cap)][:cap]


def unique(values, counts=False):
    """The distinct entries of a 1-d array, or rows of a 2-d one, sorted
    (rows lexicographically), as ``np.unique`` (with ``axis=0`` for rows)
    gives them for finite values: -0.0 equals 0.0.  With ``counts`` also
    how often each occurs.

    numpy's own np.unique imports numpy.ma, which would cost every command
    10-17 ms at start-up.
    """
    values = np.asarray(values)
    rows = values.ndim == 2
    # lexsort's last key is the first column
    values = values[np.lexsort(values.T[::-1])] if rows else np.sort(values)
    step = values[1:] != values[:-1]
    fresh = np.empty(len(values), dtype=bool)
    fresh[:1] = True
    fresh[1:] = step.any(axis=1) if rows else step
    if not counts:
        return values[fresh]
    return values[fresh], np.diff(np.append(np.flatnonzero(fresh), fresh.size))


def segment_sums(values, row, rows) -> np.ndarray:
    """Per j < rows, np.sum(values[row == j]); ``row`` is nondecreasing.

    A C-contiguous (m, n) array summed along axis 1 takes each row as
    np.sum takes it alone, so the segments go in blocks of equal length.
    An empty segment sums to 0.0 and a one-entry segment to its entry.
    """
    counts = np.bincount(row, minlength=rows)
    values = values[np.argsort(counts[row], kind="stable")]
    by_length = np.argsort(counts, kind="stable")
    sums = np.empty(rows)
    start = done = 0
    for n, m in zip(*unique(counts, counts=True)):
        block = values[start:start + n * m].reshape(m, n)
        sums[by_length[done:done + m]] = block.sum(axis=1)
        start, done = start + n * m, done + m
    return sums


def ordered_sum(values):
    """The sum of ``values`` along axis 0, one entry (or row) after another
    in index order, as a Python loop ``total += value`` takes it; numpy's
    np.sum would pair the terms up instead.  ``values`` holds one entry at
    least."""
    return np.cumsum(values, axis=0)[-1]


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


def diameter_candidates(points: np.ndarray) -> np.ndarray:
    """The rows of ``points`` that can end a pair as long as the diameter.

    With c the bounding box's centre and R the largest |p - c|, a pair
    (p, q) at least L long has |p - c| >= L - |q - c| >= L - R.  L is a
    realised pair distance, from the row farthest from c to the row
    farthest from that one, so every longest pair lies among the rows kept.
    Every distance is rounded relative to its own size, which a slack of
    1e-9 (L + R) covers, so the largest pair distance over the rows kept
    is the all-pairs one bit for bit.
    """
    center = (points.min(axis=0) + points.max(axis=0)) / 2
    from_center = np.sqrt(((points - center) ** 2).sum(-1))
    far = points[np.argmax(from_center)]
    longest = math.sqrt(float(((points - far) ** 2).sum(-1).max()))
    reach = float(from_center.max())
    bound = longest - reach - 1e-9 * (longest + reach)
    if not math.isfinite(bound):
        # a squared distance overflowed: the all-pairs scan decides
        return points
    return points[from_center >= bound]


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
