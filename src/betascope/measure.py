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
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from ._util import max_sq_pair_distance

__all__ = [
    "Ball",
    "RadialOrder",
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
        scan below is exact, not a grid approximation.
        """
        floor = float(floor)
        if floor <= 0 or not np.isfinite(floor):
            raise ValueError(f"floor must be positive and finite, got {floor}")
        if self.is_empty:
            return 0.0
        radial = RadialOrder(self, center)
        masses = radial.prefix(self._weights[radial.order])
        breaks = np.unique(radial.dist[radial.dist > floor])
        radii = np.concatenate(([floor], breaks))
        return float(np.max(masses[radial.count(radii)] / radii**self._n))

    # -- growth and tails ---------------------------------------------------

    def growth_constant(self, scale_grid=None, exact=False) -> float:
        """Estimate of c0 = sup over atoms x and radii r of theta(x, r).

        With ``exact=True`` the supremum over r >= r_min is computed per
        atom from the distance breakpoints (no grid).  Otherwise a
        ``scale_grid`` of radii is required and the result is the maximum of
        the density over atoms x grid, a lower estimate of the true sup
        restricted to r >= r_min.
        """
        if self.is_empty:
            return 0.0
        if exact:
            return max(self.sup_density(c, self._r_min) for c in self._points)
        if scale_grid is None:
            raise ValueError("growth_constant needs a scale_grid unless exact=True")
        scale_grid = np.asarray(scale_grid, dtype=float).reshape(-1)
        if scale_grid.size == 0:
            raise ValueError("scale_grid is empty")
        if (scale_grid < self._r_min).any():
            raise ValueError("scale_grid contains radii below r_min")
        best = 0.0
        for c in self._points:
            radial = RadialOrder(self, c)
            masses = radial.prefix(self._weights[radial.order])
            val = np.max(masses[radial.count(scale_grid)] / scale_grid**self._n)
            best = max(best, float(val))
        return best

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


class RadialOrder:
    """The atoms of a measure in order of distance from a centre x.

    Every closed ball B(x, r) is a prefix of this order and every region
    |p - x| > r the complementary suffix, so any sum over balls or annuli
    centred at x is a lookup in prefix or suffix sums taken along it.  The
    sort is stable: atoms at equal distance keep their index order, which
    fixes the summation order of every such sum.

    Attributes: ``order`` maps sorted positions to atom indices, ``dist``
    holds the sorted distances and ``offsets`` the sorted differences p - x.
    """

    def __init__(self, measure: WeightedPointMeasure, center):
        center = np.asarray(center, dtype=float).reshape(-1)
        offsets = measure.points - center
        dist = np.linalg.norm(offsets, axis=1)
        self.order = np.argsort(dist, kind="stable")
        self.dist = dist[self.order]
        self.offsets = np.take(offsets, self.order, axis=0)

    def count(self, radii):
        """Number of atoms in the closed balls B(x, r) for the given radii."""
        return np.searchsorted(self.dist, radii, side="right")

    def prefix(self, values) -> np.ndarray:
        """Sums of per-atom ``values`` (in sorted order) over closed balls.

        Entry k sums the k nearest atoms along axis 0, so entry 0 is zero
        and ``prefix(values)[count(r)]`` is the sum over B(x, r).
        """
        values = np.asarray(values, dtype=float)
        head = np.zeros((1,) + values.shape[1:])
        return np.concatenate((head, np.cumsum(values, axis=0)))

    def suffix(self, values) -> np.ndarray:
        """Sums of per-atom ``values`` (in sorted order) beyond each position.

        Entry k sums every atom but the k nearest, accumulated
        farthest-first, so ``suffix(values)[count(r)]`` is the sum over
        |p - x| > r and the last entry is zero.
        """
        return self.prefix(np.asarray(values, dtype=float)[::-1])[::-1]


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
    for key in ("dim", "n", "points", "weights"):
        if key not in payload:
            raise ValueError(f"{path}: missing key {key!r}")
    points = np.asarray(payload["points"], dtype=float)
    weights = np.asarray(payload["weights"], dtype=float)
    if points.ndim != 2 or points.shape[1] != int(payload["dim"]):
        raise ValueError(f"{path}: points do not match declared dim")
    if weights.size and ((~np.isfinite(weights)).any() or (weights <= 0).any()):
        bad = int(np.argmax(~np.isfinite(weights) | (weights <= 0)))
        raise ValueError(f"{path}: atom {bad}: weight must be finite and > 0")
    if points.size and (~np.isfinite(points)).any():
        bad = int(np.argmax((~np.isfinite(points)).any(axis=1)))
        raise ValueError(f"{path}: atom {bad}: coordinates must be finite")
    return WeightedPointMeasure(points, weights, int(payload["n"]))
