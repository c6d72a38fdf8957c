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

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from ._util import BLOCK_ELEMENTS, max_sq_pair_distance

__all__ = [
    "Ball",
    "RadialBlock",
    "RadialOrder",
    "radial_pass",
    "WeightedPointMeasure",
    "load_csv",
    "save_csv",
    "load_json",
    "save_json",
]

# Fallback resolution when the support carries no positive pairwise distance.
DEFAULT_SINGLETON_RMIN = 1.0

# Relative slack applied to KD-tree prefilter radii.  Candidate atoms are
# re-tested with the same arithmetic as the naive scan, so the slack only
# guards against the tree using a differently rounded metric at the boundary.
_TREE_SLACK = 1e-9


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

    def scaled(self, factor: float) -> "Ball":
        """Concentric ball with radius multiplied by ``factor``."""
        return Ball(self.center, float(factor) * self.radius)


class WeightedPointMeasure:
    """Finite atomic measure sum_i w_i * delta_{x_i} with growth degree n.

    Parameters
    ----------
    points : (N, d) array_like
        Atom locations.  Finite; duplicates are allowed.
    weights : (N,) array_like
        Strictly positive atom weights.
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
        weights = np.asarray(weights, dtype=float).reshape(-1)
        if points.shape[0] == 0:
            points = points.reshape(0, points.shape[1] if points.ndim == 2 else 1)
        if points.ndim != 2:
            raise ValueError("points must be an (N, d) array")
        if points.shape[0] != weights.shape[0]:
            raise ValueError(
                f"got {points.shape[0]} points but {weights.shape[0]} weights"
            )
        if points.size and not np.isfinite(points).all():
            raise ValueError("point coordinates must be finite")
        if weights.size and not np.isfinite(weights).all():
            raise ValueError("weights must be finite")
        if weights.size and not (weights > 0).all():
            raise ValueError("weights must be strictly positive")
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
        self._tree = None
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
        if self.size < 2:
            return DEFAULT_SINGLETON_RMIN
        # Nearest-neighbour pass over de-duplicated sites; duplicates carry
        # no positive distance and must not collapse the resolution to zero.
        unique = np.unique(self._points, axis=0)
        if unique.shape[0] < 2:
            return DEFAULT_SINGLETON_RMIN
        tree = cKDTree(unique)
        dist, _ = tree.query(unique, k=2)
        dmin = float(np.min(dist[:, 1]))
        if dmin <= 0:
            return DEFAULT_SINGLETON_RMIN
        return 0.5 * dmin

    @property
    def diameter(self) -> float:
        """Diameter of the support (0.0 for fewer than two atoms)."""
        if self._diameter is None:
            if self.size < 2:
                self._diameter = 0.0
            else:
                # The diameter is attained at hull vertices, so a large input
                # scans those; flat or 1-d inputs, where the hull fails, scan
                # every atom.  The scan is blocked, so memory stays O(N).
                pts = self._points
                if self.size > 2000:
                    try:
                        pts = pts[ConvexHull(pts).vertices]
                    except (QhullError, ValueError):
                        pts = self._points
                self._diameter = float(np.sqrt(max_sq_pair_distance(pts)))
        return self._diameter

    # -- ball queries -------------------------------------------------------

    def _ensure_tree(self):
        if self._tree is None and self.size:
            self._tree = cKDTree(self._points)
        return self._tree

    def ball_indices(self, center, radius: float) -> np.ndarray:
        """Sorted atom indices inside the closed ball B(center, radius).

        The KD-tree is only a prefilter; membership is decided with the same
        norm arithmetic as a naive scan, so the result is bit-identical to
        one.
        """
        if self.is_empty:
            return np.empty(0, dtype=np.intp)
        center = np.asarray(center, dtype=float).reshape(-1)
        if center.shape[0] != self._dim:
            raise ValueError(f"center has dim {center.shape[0]}, expected {self._dim}")
        radius = float(radius)
        if radius < 0:
            return np.empty(0, dtype=np.intp)
        tree = self._ensure_tree()
        pre = radius * (1.0 + _TREE_SLACK) + 1e-300
        cand = np.asarray(sorted(tree.query_ball_point(center, pre)), dtype=np.intp)
        if cand.size == 0:
            return cand
        dist = np.linalg.norm(self._points[cand] - center, axis=1)
        return cand[dist <= radius]

    def ball_mass(self, center, radius: float | None = None) -> float:
        """mu(B(x, r)) for the closed ball; accepts a Ball or (center, radius)."""
        if isinstance(center, Ball):
            center, radius = center.center, center.radius
        idx = self.ball_indices(center, radius)
        return float(np.sum(self._weights[idx]))

    def sup_density(self, center, floor: float) -> float:
        """Exact sup of mu(B(x, r)) / r^n over r >= floor.

        The supremum of a right-continuous piecewise mass function divided
        by r^n is attained at a breakpoint radius or at the floor, so the
        scan is exact, not a grid approximation.  This is the one-centre
        case of ``RadialBlock.sup_density``.
        """
        floor = float(floor)
        if floor <= 0 or not np.isfinite(floor):
            raise ValueError(f"floor must be positive and finite, got {floor}")
        if self.is_empty:
            return 0.0
        center = np.asarray(center, dtype=float).reshape(1, -1)
        return float(RadialBlock(self, 1).load(center).sup_density(floor)[0])

    # -- growth and tails ---------------------------------------------------

    def growth_constant(self, scale_grid=None, exact=False) -> float:
        """Estimate of c0 = sup over atoms x and radii r of theta(x, r).

        With ``exact=True`` the supremum over r >= r_min is computed per
        atom from the distance breakpoints (no grid).  Otherwise a
        ``scale_grid`` of radii is required and the result is the maximum of
        the density over atoms x grid, a lower estimate of the true sup
        restricted to r >= r_min.  Either way one blocked radial pass over
        the atoms reads the mass lane.
        """
        if self.is_empty:
            return 0.0
        if exact:
            floor = self._r_min
            return max(radial_pass(
                self, self._points,
                lambda block: float(np.max(block.sup_density(floor)))))
        if scale_grid is None:
            raise ValueError("growth_constant needs a scale_grid unless exact=True")
        scale_grid = np.asarray(scale_grid, dtype=float).reshape(-1)
        if scale_grid.size == 0:
            raise ValueError("scale_grid is empty")
        if (scale_grid < self._r_min).any():
            raise ValueError("scale_grid contains radii below r_min")
        scale_pow = scale_grid**self._n

        def densest(block):
            rows = np.arange(block.rows)[:, None]
            masses = block.sums[0][rows, block.count(scale_grid)]
            return float(np.max(masses / scale_pow))

        return max(radial_pass(self, self._points, densest))

    def annulus_tail(self, center, radius: float) -> float:
        """sum over |x_i - x| > r of w_i / |x_i - x|^(n+1).

        For a measure with growth constant c0 this is at most
        2^(n+1) * c0 / r (dyadic annuli comparison), which is the bound the
        verification harness asserts.
        """
        radius = float(radius)
        if radius <= 0:
            raise ValueError(f"annulus tail needs r > 0, got {radius}")
        if self.is_empty:
            return 0.0
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

    def restrict_mask(self, mask) -> "WeightedPointMeasure":
        """Restriction mu|_A by a boolean mask over atoms (may be empty)."""
        mask = np.asarray(mask, dtype=bool).reshape(-1)
        if mask.shape[0] != self.size:
            raise ValueError("mask length does not match atom count")
        return WeightedPointMeasure(
            self._points[mask].reshape(-1, self._dim),
            self._weights[mask],
            self._n,
            r_min=self._r_min,
        )

    def restrict_ball(self, ball: Ball) -> "WeightedPointMeasure":
        """Restriction to a closed ball."""
        idx = self.ball_indices(ball.center, ball.radius)
        mask = np.zeros(self.size, dtype=bool)
        mask[idx] = True
        return self.restrict_mask(mask)


# Elements per array of a RadialBlock: each holds at most
# max(lanes, coordinates) x centres x (atoms + 1), whatever the input size.
RADIAL_BLOCK_ELEMENTS = BLOCK_ELEMENTS // 4


def _head(store: np.ndarray, *shape) -> np.ndarray:
    """The leading elements of a flat buffer, viewed with ``shape``."""
    return store[:math.prod(shape)].reshape(shape)


def _prefix(values: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """Sums of ``values`` along ``axis`` over each leading run, into ``out``.

    ``out`` is one longer along ``axis``: entry k sums the first k values,
    so entry 0 is zero.  The sums accumulate straight into place.
    """
    lead = (slice(None),) * axis
    out[lead + (0,)] = 0.0
    np.cumsum(values, axis=axis, out=out[lead + (slice(1, None),)])
    return out


class RadialBlock:
    """The atoms of a measure in order of distance from each of a block of
    centres, lane-major.

    Every closed ball B(x, r) is a prefix of a centre's order and every
    region |p - x| > r the complementary suffix, so any sum over balls or
    annuli centred at x is a lookup in prefix or suffix sums taken along
    it.  The sort is stable: atoms at equal distance keep their index
    order, which fixes the summation order of every such sum.

    Row i of every array belongs to centre i of the block: ``order`` maps
    its sorted positions to atom indices, ``dist`` holds the sorted
    distances and, in a block built with ``offsets=True``, ``offsets``
    (coordinate first) the sorted differences p - x.  ``lanes`` holds
    per-atom values in each row's radial order, lane 0 the weights;
    ``load`` accumulates every lane into ``sums``, whose column 0 is zero,
    so ``sums[l, i, k]`` is lane l summed over the k nearest atoms of
    centre i.

    The buffers are allocated once, for ``width`` centres, and every
    ``sort`` writes into them; each array of a block is a view of its
    buffer's head, so it stays contiguous when a block is narrower.
    """

    def __init__(self, measure: WeightedPointMeasure, width: int,
                 lanes: int = 1, offsets: bool = False):
        size, dim = measure.size, measure.dim
        self.target_dim = measure.target_dim
        self._points = np.ascontiguousarray(measure.points.T)
        self._weights = measure.weights
        self._lanes = lanes
        self._flat = np.empty(width * size, dtype=np.intp)
        self._dist = np.empty(width * size)
        self._scratch = np.empty(width * size)
        self._offsets = np.empty(dim * width * size) if offsets else None
        self._values = np.empty(lanes * width * size)
        self._sums = np.empty(lanes * width * (size + 1))

    @property
    def rows(self) -> int:
        return self.dist.shape[0]

    def sort(self, centers) -> "RadialBlock":
        """Order the atoms by distance from each of ``centers``.

        Fills ``order``, ``dist``, the weight lane and, if the block keeps
        them, the ``offsets``; the other lanes and ``sums`` are left as
        they were.
        """
        dim, size = self._points.shape
        centers = np.asarray(centers, dtype=float).reshape(-1, dim)
        rows = centers.shape[0]
        raw = _head(self._scratch, rows, size)
        self.dist = _head(self._dist, rows, size)
        # the squares summed left to right, then the root: the arithmetic
        # of np.linalg.norm, so every distance is norm(p - x) bit for bit
        for a in range(dim):
            square = self.dist if a else raw
            np.subtract(self._points[a], centers[:, a, None], out=square)
            np.multiply(square, square, out=square)
            if a:
                np.add(raw, square, out=raw)
        np.sqrt(raw, out=raw)
        self.order = np.argsort(raw, axis=1, kind="stable")
        self.lanes = _head(self._values, self._lanes, rows, size)
        # mode="clip" lets take write straight into out; every index is
        # in range, so nothing is clipped
        np.take(self._weights, self.order, out=self.lanes[0], mode="clip")
        flat = _head(self._flat, rows, size)
        np.add(self.order, (np.arange(rows) * size)[:, None], out=flat)
        np.take(raw, flat, out=self.dist, mode="clip")
        if self._offsets is not None:
            # p - x of the sorted atoms: the differences the distances
            # squared, taken after the gather
            self.offsets = _head(self._offsets, dim, rows, size)
            for a in range(dim):
                np.take(self._points[a], self.order, out=self.offsets[a],
                        mode="clip")
                np.subtract(self.offsets[a], centers[:, a, None],
                            out=self.offsets[a])
        return self

    def load(self, centers, fill=None) -> "RadialBlock":
        """``sort`` about ``centers``, then sum every lane into ``sums``.

        ``fill(lanes, offsets)``, if given, writes lanes 1 and up from the
        weight lane and the sorted offsets before the sums are taken.
        """
        self.sort(centers)
        if fill is not None:
            fill(self.lanes, self.offsets)
        rows, size = self.dist.shape
        self.sums = _prefix(self.lanes, 2,
                            _head(self._sums, self._lanes, rows, size + 1))
        return self

    def count(self, radii) -> np.ndarray:
        """Atoms in the closed balls B(x, r) over ``radii``, row by centre."""
        return np.array([np.searchsorted(row, radii, side="right")
                         for row in self.dist])

    def sup_density(self, floor: float) -> np.ndarray:
        """Per centre, the sup of mu(B(x, r)) / r^n over r >= floor.

        Reads only the mass lane.  Position k of a row gives the
        candidate (mass of the k + 1 nearest atoms) / max(dist_k, floor)^n.
        At the last atom of each distance above the floor that is the
        density at that breakpoint, and at the last atom within the floor
        the density at the floor; every other candidate divides a mass no
        larger by the same radius.  So the row maximum is the exact sup,
        with the breakpoint scan's arithmetic, and no radius is 0.
        """
        ratio = _head(self._scratch, *self.dist.shape)
        np.maximum(self.dist, floor, out=ratio)
        ratio **= self.target_dim
        np.divide(self.sums[0, :, 1:], ratio, out=ratio)
        return ratio.max(axis=1)


class RadialOrder:
    """The one-centre RadialBlock, with sums over any per-atom values.

    Attributes: ``order`` maps sorted positions to atom indices, ``dist``
    holds the sorted distances and ``offsets`` the sorted differences
    p - x, as (atoms, d).
    """

    def __init__(self, measure: WeightedPointMeasure, center):
        block = RadialBlock(measure, 1, offsets=True).sort(center)
        self.order = block.order[0]
        self.dist = block.dist[0]
        self.offsets = np.ascontiguousarray(block.offsets[:, 0].T)

    def count(self, radii):
        """Number of atoms in the closed balls B(x, r) for the given radii."""
        return np.searchsorted(self.dist, radii, side="right")

    def prefix(self, values, axis: int = 0) -> np.ndarray:
        """Sums of per-atom ``values`` (in sorted order) over closed balls.

        Entry k along ``axis`` sums the k nearest atoms, so entry 0 is zero
        and ``prefix(values)[count(r)]`` is the sum over B(x, r).  Every
        other axis is a separate lane; each lane sums in radial order.
        """
        values = np.asarray(values, dtype=float)
        axis = axis % values.ndim
        shape = list(values.shape)
        shape[axis] += 1
        return _prefix(values, axis, np.empty(shape))

    def suffix(self, values, axis: int = 0) -> np.ndarray:
        """Sums of per-atom ``values`` (in sorted order) beyond each position.

        Entry k along ``axis`` sums every atom but the k nearest,
        accumulated farthest-first, so ``suffix(values)[count(r)]`` is the
        sum over |p - x| > r and the last entry is zero.
        """
        values = np.asarray(values, dtype=float)
        return np.flip(self.prefix(np.flip(values, axis), axis), axis)


def radial_pass(measure: WeightedPointMeasure, centers, visit,
                lanes: int = 1, fill=None) -> list:
    """``visit(block)`` on a RadialBlock loaded with each block of centres.

    Returns the visits' results in centre order.  A block holds as many
    centres as keep each of its arrays within RADIAL_BLOCK_ELEMENTS, at
    least one: the lanes, and with a ``fill`` the offsets it reads.  One
    block is allocated and reloaded block after block.
    """
    centers = np.asarray(centers, dtype=float).reshape(-1, measure.dim)
    count = centers.shape[0]
    # a fill reads the offsets, which the block then keeps
    planes = max(lanes, measure.dim) if fill is not None else lanes
    width = max(1, RADIAL_BLOCK_ELEMENTS // (planes * (measure.size + 1)))
    block = RadialBlock(measure, min(width, count), lanes,
                        offsets=fill is not None)
    return [visit(block.load(centers[at:at + width], fill))
            for at in range(0, count, width)]


# -- serialization ----------------------------------------------------------
#
# CSV: header line "dim=<d>,n=<n>", then one row x_1,...,x_d,weight per atom.
# JSON: {"dim": d, "n": n, "points": [[...]], "weights": [...]}.
# Floats are written with 17 significant digits so that a load/save
# round-trip reproduces every atom bit-for-bit.  A custom r_min is not part
# of either format; reloading recomputes the default from the same points,
# which is deterministic.


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def save_csv(measure: WeightedPointMeasure, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"dim={measure.dim},n={measure.target_dim}\n")
        for p, w in zip(measure.points, measure.weights):
            fh.write(",".join(_fmt(v) for v in p) + "," + _fmt(w) + "\n")


def load_csv(path) -> WeightedPointMeasure:
    with open(path, "r", encoding="ascii") as fh:
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
        coords, w = values[:dim], values[dim]
        if not all(np.isfinite(c) for c in coords):
            raise ValueError(f"{path}:{lineno}: coordinates must be finite")
        if not np.isfinite(w) or w <= 0:
            raise ValueError(f"{path}:{lineno}: weight must be finite and > 0, got {w}")
        points.append(coords)
        weights.append(w)
    if not points:
        raise ValueError(f"{path}: no atoms")
    return WeightedPointMeasure(np.array(points), np.array(weights), n)


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


def load_json(path) -> WeightedPointMeasure:
    with open(path, "r", encoding="ascii") as fh:
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
        points = np.asarray(payload["points"], dtype=float)
        weights = np.asarray(payload["weights"], dtype=float)
    except TypeError as exc:
        raise ValueError(f"{path}: points and weights must be numbers") from exc
    if points.ndim != 2 or points.shape[1] != payload["dim"]:
        raise ValueError(f"{path}: points do not match declared dim")
    if weights.size and ((~np.isfinite(weights)).any() or (weights <= 0).any()):
        bad = int(np.argmax(~np.isfinite(weights) | (weights <= 0)))
        raise ValueError(f"{path}: atom {bad}: weight must be finite and > 0")
    if points.size and (~np.isfinite(points)).any():
        bad = int(np.argmax((~np.isfinite(points)).any(axis=1)))
        raise ValueError(f"{path}: atom {bad}: coordinates must be finite")
    return WeightedPointMeasure(points, weights, payload["n"])
