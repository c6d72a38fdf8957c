"""Discrete weighted point measures with exact closed-ball queries.

A measure is a finite collection of weighted atoms in R^d standing in for a
Radon measure with polynomial growth of degree n.  The mass of a closed ball
B(x, r) is the exact sum of the weights of the atoms at distance <= r from x;
the n-dimensional density of the ball is mass / r^n.

Every atom represents the measure only above its sampling scale, so all
scale-dependent quantities are truncated below at the resolution ``r_min``.
By default ``r_min`` is half the minimum nonzero pairwise distance between
atoms; for a single atom (or fully coincident atoms) there is no such scale
and the fallback is 1.0, which callers can override.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass

import numpy as np

from ._util import (BLOCK_ELEMENTS, chunks, diameter_candidates,
                    max_sq_pair_distance, ragged)

__all__ = [
    "Ball",
    "RadialBlock",
    "radial_pass",
    "WeightedPointMeasure",
    "load_csv",
    "save_csv",
    "load_json",
    "save_json",
]

# Fallback resolution when the support carries no positive pairwise distance.
DEFAULT_SINGLETON_RMIN = 1.0

# Relative slack on the half-width of a ball's sweep slab, above the
# rounding the slab must cover (``_Sweep.slabs``).  Candidate atoms are
# re-tested with the arithmetic of a naive scan, so a wider slab changes
# only how many atoms are tested.
_TREE_SLACK = 1e-9

# Candidates per chunk of a batched ball query.  A chunk's arrays take
# about 100 bytes a candidate in the plane, so a chunk stays near 100 kB.
BALL_CHUNK_ENTRIES = 1 << 10


def _sweep_order(points: np.ndarray):
    """The widest axis of the bounding box of ``points``, and the rows in
    stable order along it."""
    axis = int(np.argmax(points.max(axis=0) - points.min(axis=0)))
    return axis, np.argsort(points[:, axis], kind="stable")


class _Sweep:
    """The atoms of a measure in stable order along one axis, the bounding
    box's widest, with their coordinates on it (``keys``).

    The atoms a closed ball can hold lie in one slab of this order, so a
    ball query tests only that slab.
    """

    def __init__(self, points: np.ndarray):
        self.axis, self.order = _sweep_order(points)
        self.keys = points[self.order, self.axis]
        self.rank = np.argsort(self.order)    # each row's place in order

    def slabs(self, centers: np.ndarray, radius):
        """Per centre c and radius r, the positions ``lo:hi`` in sweep order
        of the atoms p with c_a - pre <= p_a <= c_a + pre, where

            pre = r (1 + _TREE_SLACK) + 2^-500.

        The slab holds every atom p that a naive scan keeps in B(c, r),
        fl(norm(p - c)) <= r, or in the open ball, fl(|p - c|^2) < fl(r^2)
        as a sum of rounded squares.  Take x = fl(p_a - c_a).  Rounding is
        monotone and the terms are not negative, so the rounded sum of
        squares is at least fl(x^2).  For a squared distance below fl(r^2)
        that gives |x| < r directly.  For the norm, the rounded root of the
        sum is at least fl(sqrt(fl(x^2))), which equals |x| in binary
        floating point while x^2 is a normal number.  Then |x| <= r, so
        the exact |p_a - c_a| <= r (1 + 2^-52), which the slack covers
        with the rounding of pre.  A subnormal x^2 means |x| < 2^-511,
        which the last term covers; an overflowed one makes the norm inf,
        which no finite r keeps.  The bounds c_a -+ pre are rounded too,
        but p_a is a float, so monotone rounding keeps it inside them.
        """
        at = centers[:, self.axis]
        pre = radius * (1.0 + _TREE_SLACK) + 2.0**-500
        lo = np.searchsorted(self.keys, at - pre, side="left")
        hi = np.searchsorted(self.keys, at + pre, side="right")
        return lo, np.maximum(hi, lo)

    def offset_pairs(self, reach: np.ndarray):
        """Per offset k = 1, 2, ..., the sweep positions p and p + k of the
        pairs with keys[p + k] - keys[p] <= reach[p] or <= reach[p + k].

        The caller may lower ``reach`` between offsets, never raise it.  A
        pair's gap is at least that of each pair nested in it, so the walk
        stops at the first offset with no pair.
        """
        for k in range(1, self.keys.size):
            gap = self.keys[k:] - self.keys[:-k]
            first = np.flatnonzero((gap <= reach[:-k]) | (gap <= reach[k:]))
            if first.size == 0:
                return
            yield first, first + k


def _least_sq_gap(sites: np.ndarray) -> float:
    """Least squared distance between two rows of ``sites``.

    The rows are swept in order along the bounding box's widest axis, and
    each is compared with the row k places on, for k = 1, 2, ...  A pair
    more than k places apart is at least as far apart along that axis as
    some pair exactly k apart, so the sweep stops once the least squared
    gap along the axis at offset k reaches the least squared distance
    found.  Rounding keeps a squared distance at least its axis term, so
    the stop is exact.  Each pair is scored with a dense scan's arithmetic,
    ``(diff**2).sum(-1)`` over C-contiguous (pairs, d) rows, which adds
    up to 7 squares in order and 8 or more pairwise.  Memory stays O(N).
    """
    axis, order = _sweep_order(sites)
    sites = sites[order]
    best = math.inf
    for k in range(1, sites.shape[0]):
        diff = sites[k:] - sites[:-k]
        gap = float(diff[:, axis].min())
        if gap * gap >= best:
            break
        # a square that overflows is +inf, a gap that cannot be the least
        with np.errstate(over="ignore"):
            diff *= diff
            best = min(best, float(diff.sum(-1).min()))
    return best


@dataclass(frozen=True)
class Ball:
    """Closed Euclidean ball."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float)
        object.__setattr__(self, "center", center)
        if center.ndim != 1:
            raise ValueError("ball center must be a 1-d coordinate array")
        if not np.isfinite(center).all():
            raise ValueError("ball center must be finite")
        if not np.isfinite(self.radius) or self.radius < 0:
            raise ValueError(f"ball radius must be finite and >= 0, got {self.radius}")


class WeightedPointMeasure:
    """Finite atomic measure sum_i w_i * delta_{x_i} with growth degree n.

    Parameters
    ----------
    points : (N, d) array_like
        Atom locations.  Finite; duplicates are allowed.
    weights : (N,) array_like
        Finite, strictly positive atom weights.  A faulty atom is named by
        its 0-based index, the first one found.
    target_dim : int
        Growth degree n, with 1 <= n <= d.  Densities are mass / r^n.
    r_min : float, optional
        Resolution scale.  Defaults to half the minimum nonzero pairwise
        distance of the support, or 1.0 when no such distance exists.

    Notes
    -----
    An empty measure (N = 0) is a valid sentinel produced by restriction;
    its total mass is zero and ball queries return zero.
    """

    def __init__(self, points, weights, target_dim, r_min=None):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        weights = np.asarray(weights, dtype=float)
        if points.ndim != 2:
            raise ValueError("points must be an (N, d) array")
        if weights.shape != points.shape[:1]:
            raise ValueError("weights must hold one number per atom")
        # the first atom with a fault, its coordinates checked first
        finite = np.isfinite(points).all(axis=1)
        bad = np.flatnonzero(~(finite & (weights > 0) & (weights < np.inf)))
        if bad.size:
            i = int(bad[0])
            if not finite[i]:
                raise ValueError(f"atom {i}: coordinates must be finite")
            raise ValueError(f"atom {i}: weight must be finite and > 0, "
                             f"got {float(weights[i])}")
        target_dim = int(target_dim)
        dim = int(points.shape[1])
        if not 1 <= target_dim <= dim:
            raise ValueError(
                f"target_dim must satisfy 1 <= n <= d, got n={target_dim} d={dim}"
            )
        self._points = points
        self._weights = weights
        self._dim = dim
        self._n = target_dim
        self._sweep = None
        self._diameter = None
        if r_min is None:
            r_min = self._default_r_min()
        r_min = float(r_min)
        if not np.isfinite(r_min) or r_min <= 0:
            raise ValueError(f"r_min must be finite and positive, got {r_min}")
        self._r_min = r_min

    # -- basic attributes ---------------------------------------------------

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def target_dim(self) -> int:
        return self._n

    @property
    def r_min(self) -> float:
        return self._r_min

    @property
    def size(self) -> int:
        return self._points.shape[0]

    @property
    def total_mass(self) -> float:
        return float(np.sum(self._weights))

    @property
    def is_empty(self) -> bool:
        return self.size == 0

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return (
            f"WeightedPointMeasure(N={self.size}, d={self._dim}, n={self._n}, "
            f"mass={self.total_mass:.6g}, r_min={self._r_min:.6g})"
        )

    def _default_r_min(self) -> float:
        # Closest pair of distinct sites; duplicates carry no positive
        # distance and must not collapse the resolution to zero.
        unique = np.unique(self._points, axis=0)
        if unique.shape[0] < 2:
            return DEFAULT_SINGLETON_RMIN
        least = _least_sq_gap(unique)
        if least <= 0:
            # the sites lie so close that their squared gap underflows
            return DEFAULT_SINGLETON_RMIN
        return 0.5 * math.sqrt(least)

    @property
    def diameter(self) -> float:
        """Diameter of the support (0.0 for fewer than two atoms)."""
        if self._diameter is None:
            if self.size < 2:
                self._diameter = 0.0
            else:
                # The scan is blocked, so memory stays O(N).
                pts = diameter_candidates(self._points)
                self._diameter = float(np.sqrt(max_sq_pair_distance(pts)))
        return self._diameter

    # -- ball queries -------------------------------------------------------

    def _sweep_index(self) -> _Sweep:
        if self._sweep is None:
            self._sweep = _Sweep(self._points)
        return self._sweep

    def ball_indices(self, center, radius: float) -> np.ndarray:
        """Sorted atom indices inside the closed ball B(center, radius).

        The one-centre case of ``ball_batches``.
        """
        if self.is_empty:
            return np.empty(0, dtype=np.intp)
        center = np.asarray(center, dtype=float).reshape(-1)
        if center.shape[0] != self._dim:
            raise ValueError(f"center has dim {center.shape[0]}, expected {self._dim}")
        return next(self.ball_batches(center, float(radius)))[1]

    def ball_batches(self, centers, radius):
        """The closed balls B(c, r) about the rows c of ``centers``, in chunks.

        ``radius`` is one radius or one per centre.  Yields ``(start, atoms,
        dist, bounds)`` per chunk of consecutive centres: the ball of centre
        ``start + j`` holds ``atoms[bounds[j]:bounds[j + 1]]``, in index
        order, at distances ``dist[bounds[j]:bounds[j + 1]]``.  The
        candidates of a ball are its slab of the sweep order
        (``_Sweep.slabs``); membership is decided by the norm arithmetic of
        a naive scan, so each ball is a naive scan's result bit for bit.
        Chunks are cut so that their slabs hold about BALL_CHUNK_ENTRIES
        candidates, at least one centre each.
        """
        centers = np.asarray(centers, dtype=float).reshape(-1, self._dim)
        count = centers.shape[0]
        radius = np.broadcast_to(np.asarray(radius, dtype=float), (count,))
        if self.is_empty or count == 0:
            return
        sweep = self._sweep_index()
        lo, hi = sweep.slabs(centers, radius)
        for start, end in chunks(hi - lo, BALL_CHUNK_ENTRIES):
            # each slab's positions in sweep order, slab after slab
            rows, at = ragged(lo[start:end], hi[start:end] - lo[start:end])
            cand = sweep.order[at]
            dist = np.linalg.norm(
                self._points[cand] - centers[start:end][rows], axis=1)
            keep = np.flatnonzero(dist <= radius[start:end][rows])
            rows, cand = rows[keep], cand[keep]
            # index order within each ball; the keys are distinct
            by_atom = np.argsort(rows * self.size + cand)
            bounds = np.zeros(end - start + 1, dtype=np.intp)
            np.cumsum(np.bincount(rows, minlength=end - start),
                      out=bounds[1:])
            yield start, cand[by_atom], dist[keep][by_atom], bounds

    def ball_mass(self, center, radius: float) -> float:
        """mu(B(x, r)) for the closed ball."""
        idx = self.ball_indices(center, radius)
        return float(np.sum(self._weights[idx]))

    def sup_density(self, center, floor: float) -> float:
        """Exact sup of mu(B(x, r)) / r^n over r >= floor.

        The supremum of a right-continuous piecewise mass function divided
        by r^n is attained at a breakpoint radius or at the floor, so the
        scan is exact, not a grid approximation.  This is a one-centre
        radial pass read by ``RadialBlock.sup_density``.
        """
        floor = float(floor)
        if floor <= 0 or not np.isfinite(floor):
            raise ValueError(f"floor must be positive and finite, got {floor}")
        return float(radial_pass(
            self, center, lambda block: block.sup_density(floor))[0])

    # -- growth and tails ---------------------------------------------------

    def growth_constant(self, *, exact=True) -> float:
        """c0 = sup over atoms x and radii r >= r_min of theta(x, r), read
        exactly at each atom's distance breakpoints in one radial pass
        (``RadialBlock.sup_density``).  ``exact`` admits only True."""
        if exact is not True:
            raise ValueError("growth_constant computes the exact sup only")
        return float(np.max(radial_pass(
            self, self._points, lambda block: block.sup_density(self._r_min)),
            initial=0.0))

    def annulus_tail(self, center, radius: float) -> float:
        """sum over |x_i - x| > r of w_i / |x_i - x|^(n+1).

        For a measure with growth constant c0 this is at most
        2^(n+1) * c0 / r (dyadic annuli comparison), which is the bound the
        verification harness asserts.
        """
        radius = float(radius)
        if radius <= 0:
            raise ValueError(f"annulus tail needs r > 0, got {radius}")
        center = np.asarray(center, dtype=float).reshape(-1)
        if center.shape[0] != self._dim:
            raise ValueError(f"center has dim {center.shape[0]}, expected {self._dim}")
        dist = np.linalg.norm(self._points - center, axis=1)
        mask = dist > radius
        return float(np.sum(self._weights[mask] / dist[mask] ** (self._n + 1)))

    def tail_bound_constant(self) -> float:
        """The factor 2^(n+1) in the annulus tail bound."""
        return 2.0 ** (self._n + 1)

    # -- restriction --------------------------------------------------------

    def restrict_ball(self, ball: Ball) -> "WeightedPointMeasure":
        """Restriction to a closed ball."""
        idx = self.ball_indices(ball.center, ball.radius)
        return WeightedPointMeasure(self._points[idx], self._weights[idx],
                                    self._n, r_min=self._r_min)


# Elements per array of a RadialBlock: each holds at most
# d x centres x (atoms + 1), the size of the offsets, whatever the input
# size.
RADIAL_BLOCK_ELEMENTS = BLOCK_ELEMENTS // 4


def _head(store: np.ndarray, *shape) -> np.ndarray:
    """The leading elements of a flat buffer, viewed with ``shape``."""
    return store[:math.prod(shape)].reshape(shape)


def _prefix(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sums of ``values`` along each row over each leading run, into ``out``.

    ``out`` is one longer along the rows (the last axis): entry k sums the
    first k values, so entry 0 is zero.  The sums accumulate straight into
    place.
    """
    out[..., 0] = 0.0
    np.cumsum(values, axis=-1, out=out[..., 1:])
    return out


class RadialBlock:
    """The atoms of a measure in order of distance from each of a block of
    centres.

    Every closed ball B(x, r) is a prefix of a centre's order and every
    region |p - x| > r the complementary suffix, so any sum over balls or
    annuli centred at x is a lookup in prefix or suffix sums taken along
    it.  The sort is stable: atoms at equal distance keep their index
    order, which fixes the summation order of every such sum.

    Row i of every array belongs to centre i of the block, which is centre
    ``centres.start + i`` of its pass (``radial_pass`` sets that slice):
    ``order`` maps its sorted positions to atom indices, ``dist`` holds
    the sorted distances, ``mass`` the weights in that order, ``offsets``
    (coordinate first) the sorted differences p - x, and ``sums`` the
    mass's prefix sums, column 0 zero, so ``sums[i, k]`` is the mass of
    the k nearest atoms of centre i.  Sums of other per-atom values
    (kernel terms, moments) are taken by the readers of a pass, one array
    at a time.  Kernel terms are laid out like ``offsets``, component
    first, so each component is summed along a contiguous row.
    ``verify.verify_checks`` reads each sorted block for the truncation
    sums, the damped sums and the flatness sums of four checks.

    The buffers are allocated once, for ``width`` centres, and every
    ``sort`` writes into them; each array of a block is a view of its
    buffer's head, so it stays contiguous when a block is narrower.
    """

    def __init__(self, measure: WeightedPointMeasure, width: int):
        size, dim = measure.size, measure.dim
        self.target_dim = measure.target_dim
        self._points = np.ascontiguousarray(measure.points.T)
        self._weights = measure.weights
        self._flat = np.empty(width * size, dtype=np.intp)
        self._dist = np.empty(width * size)
        self._scratch = np.empty(width * size)
        self._offsets = np.empty(dim * width * size)
        self._mass = np.empty(width * size)
        self._sums = np.empty(width * (size + 1))

    @property
    def rows(self) -> int:
        return self.dist.shape[0]

    @property
    def exact_norms(self) -> bool:
        """Whether every distance is ``np.linalg.norm(p - x)`` bit for bit.

        ``sort`` adds the squares left to right.  numpy's norm does the
        same for up to 7 coordinates; from 8 on it sums them pairwise, and
        a distance can differ from it in the last place.
        """
        return self._points.shape[0] < 8

    def sort(self, centers) -> "RadialBlock":
        """Order the atoms by distance from each of ``centers``.

        Fills ``order``, ``dist``, ``mass``, ``offsets`` and ``sums``.
        """
        dim, size = self._points.shape
        centers = np.asarray(centers, dtype=float).reshape(-1, dim)
        rows = centers.shape[0]
        raw = _head(self._scratch, rows, size)
        self.dist = _head(self._dist, rows, size)
        # the squares summed left to right, then the root (see exact_norms)
        for a in range(dim):
            square = self.dist if a else raw
            np.subtract(self._points[a], centers[:, a, None], out=square)
            np.multiply(square, square, out=square)
            if a:
                np.add(raw, square, out=raw)
        np.sqrt(raw, out=raw)
        self.order = np.argsort(raw, axis=1, kind="stable")
        self.mass = _head(self._mass, rows, size)
        # mode="clip" lets take write straight into out; every index is
        # in range, so nothing is clipped
        np.take(self._weights, self.order, out=self.mass, mode="clip")
        self.sums = _prefix(self.mass, _head(self._sums, rows, size + 1))
        flat = _head(self._flat, rows, size)
        np.add(self.order, (np.arange(rows) * size)[:, None], out=flat)
        np.take(raw, flat, out=self.dist, mode="clip")
        # p - x of the sorted atoms: the differences the distances squared,
        # taken after the gather
        self.offsets = _head(self._offsets, dim, rows, size)
        for a in range(dim):
            np.take(self._points[a], self.order, out=self.offsets[a],
                    mode="clip")
            np.subtract(self.offsets[a], centers[:, a, None],
                        out=self.offsets[a])
        return self

    def count(self, radii) -> np.ndarray:
        """Atoms in the closed balls B(x, r), a row per centre and a column
        per radius of ``radii`` (a scalar or a 1-d array shared by every
        centre)."""
        radii = np.asarray(radii, dtype=float)
        return np.array([dist.searchsorted(radii, "right")
                         for dist in self.dist],
                        dtype=np.intp).reshape((self.rows,) + radii.shape)

    @property
    def near(self) -> np.ndarray:
        """Atoms at each centre: its row's leading zero distances, so
        ``count(0.0)`` without a search."""
        return np.count_nonzero(self.dist == 0.0, axis=1)

    def sup_density(self, floor: float) -> np.ndarray:
        """Per centre, the sup of mu(B(x, r)) / r^n over r >= floor.

        Reads only the mass sums.  Position k of a row gives the
        candidate (mass of the k + 1 nearest atoms) / max(dist_k, floor)^n.
        At the last atom of each distance above the floor that is the
        density at that breakpoint, and at the last atom within the floor
        the density at the floor; every other candidate divides a mass no
        larger by the same radius.  So the row maximum is the exact sup,
        with the breakpoint scan's arithmetic, and no radius is 0.  A row
        with no atoms (an empty measure) reads 0.0.
        """
        ratio = _head(self._scratch, *self.dist.shape)
        np.maximum(self.dist, floor, out=ratio)
        ratio **= self.target_dim
        np.divide(self.sums[:, 1:], ratio, out=ratio)
        return ratio.max(axis=1, initial=0.0)


def radial_pass(measure: WeightedPointMeasure, centers, visit):
    """``visit(block)`` on a RadialBlock sorted about each block of centres.

    Each visit returns an array, or a tuple of arrays (lanes), with one
    row per centre of its block, whose slice of ``centers`` it finds on
    ``block.centres``; the result stacks them in centre order, lane by
    lane.  With no centres one empty block is visited, so every lane still
    has its trailing shape.  A block holds as many centres as keep each of
    its arrays within RADIAL_BLOCK_ELEMENTS, at least one: d x centres x
    (atoms + 1) elements for the offsets.  One block is allocated and
    re-sorted block after block.
    """
    centers = np.asarray(centers, dtype=float).reshape(-1, measure.dim)
    count = centers.shape[0]
    width = max(1, RADIAL_BLOCK_ELEMENTS // (measure.dim * (measure.size + 1)))
    block = RadialBlock(measure, min(width, count))
    parts = []
    for at in range(0, max(count, 1), width):
        block.centres = slice(at, min(at + width, count))
        parts.append(visit(block.sort(centers[block.centres])))
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(lane) for lane in zip(*parts))
    return np.concatenate(parts)


# -- serialization ----------------------------------------------------------
#
# CSV: header line "dim=<d>,n=<n>", then one row x_1,...,x_d,weight per atom.
# JSON: {"dim": d, "n": n, "points": [[...]], "weights": [...]}.
# Floats are written with 17 significant digits so that a load/save
# round-trip reproduces every atom bit-for-bit.  A custom r_min is not part
# of either format: a loader takes it as an argument, and without one it
# recomputes the default from the same points, which is deterministic.


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def save_csv(measure: WeightedPointMeasure, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"dim={measure.dim},n={measure.target_dim}\n")
        for p, w in zip(measure.points, measure.weights):
            fh.write(",".join(_fmt(v) for v in p) + "," + _fmt(w) + "\n")


@contextlib.contextmanager
def _named(path):
    """ValueErrors raised inside (a byte outside ASCII, JSON syntax, numpy's
    array errors, the atom rules) start with the path."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_csv(path, r_min=None) -> WeightedPointMeasure:
    with open(path, "r", encoding="ascii") as fh, _named(path):
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = lines[0].strip()
    try:
        parts = dict(tok.split("=") for tok in header.split(","))
        dim = int(parts["dim"])
        n = int(parts["n"])
    except Exception as exc:
        raise ValueError(
            f"{path}:1: bad header {header!r}, expected 'dim=<d>,n=<n>'"
        ) from exc
    points, weights = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != dim + 1:
            raise ValueError(
                f"{path}:{lineno}: expected {dim + 1} fields, got {len(fields)}"
            )
        try:
            values = [float(v) for v in fields]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-numeric field") from exc
        points.append(values[:dim])
        weights.append(values[dim])
    if not points:
        raise ValueError(f"{path}: no atoms")
    with _named(path):
        return WeightedPointMeasure(np.array(points), np.array(weights), n,
                                    r_min=r_min)


def save_json(measure: WeightedPointMeasure, path) -> None:
    payload = {
        "dim": measure.dim,
        "n": measure.target_dim,
        "points": [[float(v) for v in p] for p in measure.points],
        "weights": [float(w) for w in measure.weights],
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def load_json(path, r_min=None) -> WeightedPointMeasure:
    with open(path, "r", encoding="ascii") as fh, _named(path):
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: top level must be an object")
    for key in ("dim", "n", "points", "weights"):
        if key not in payload:
            raise ValueError(f"{path}: missing key {key!r}")
    for key in ("dim", "n"):
        # bool is an int subclass; JSON true must not pass for 1
        if type(payload[key]) is not int:
            raise ValueError(f"{path}: {key!r} must be an integer, "
                             f"got {payload[key]!r}")
    try:
        with _named(path):
            points = np.asarray(payload["points"], dtype=float)
            weights = np.asarray(payload["weights"], dtype=float)
    except TypeError as exc:
        raise ValueError(f"{path}: points and weights must be numbers") from exc
    if points.shape == (0,):
        raise ValueError(f"{path}: no atoms")
    if points.ndim != 2 or points.shape[1] != payload["dim"]:
        raise ValueError(f"{path}: points do not match declared dim")
    with _named(path):
        return WeightedPointMeasure(points, weights, payload["n"],
                                    r_min=r_min)
