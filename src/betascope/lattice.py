"""Hierarchical cell lattice over the support of a weighted point measure.

Levels k = 0, 1, ..., max_depth each carry a partition of the atoms into
cells.  Cells at level k are generated by a greedy maximal separated net of
the support (deterministic: previous-level centres first, then remaining
atoms in lexicographic coordinate order with index tie-break); every atom
joins its nearest centre, ties to the earlier centre, and whole level-(k+1)
cells attach to the level-k cell owning their centre so nesting is exact by
construction.

Scale conventions at level k, with A0 the inter-level ratio and C0 the
doubling constant:

    net separation      NET_FACTOR * A0^-k
    ball radius r(Q)    A0^-k          (smallest admissible, clamped bracket
                                        [A0^-k, C0 * A0^-k])
    side length l(Q)    56 * C0 * A0^-k
    big ball B_Q        28 * B(Q)

The net separation sits one order above r(Q): with a separation equal to
r(Q) the enlarged balls 5*B(Q) of adjacent cells always overlap and the
containment support(mu) inter B(z_Q, r(Q)) inside Q fails for any dense
input, so none of the advertised cell properties would ever hold.  A factor
of NET_FACTOR = 10 makes all of them hold with margin on every input:
foreign atoms stay at distance > (1/2 - 1/(A0-1)) * separation from a
centre, cells have radius < separation * A0/(A0-1) <= 28 * r(Q), and centre
gaps >= 10 * r(Q) keep the open enlarged balls 5*B(Q) pairwise disjoint.

Inputs are expected at unit scale: the construction requires the support
diameter to be below the level-0 separation (rescale otherwise).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from ._util import max_sq_pair_distance
from .measure import _TREE_SLACK, Ball, WeightedPointMeasure

__all__ = [
    "Cell",
    "Lattice",
    "build_lattice",
    "boundary_layer_mass",
    "boundary_audit",
    "cover_by_doubling",
    "check_lattice",
    "lattice_to_json",
]

NET_FACTOR = 10.0         # net separation = NET_FACTOR * A0^-k
COVER_FACTOR = 28.0       # Q subset of 28 B(Q);  B_Q := 28 B(Q)
SIDE_FACTOR = 56.0        # l(Q) = 56 * C0 * A0^-k
FIVE_B = 5.0              # enlarged-ball disjointness factor
DOUBLING_FACTOR = 100.0   # doubling cells: mu(100 B(Q)) <= C0 mu(B(Q))
BOUNDARY_BALL_FACTOR = 3.5
DEFAULT_A0 = 20.0
DEFAULT_C0 = 4.0
MAX_DEPTH_CAP = 14


@dataclass
class Cell:
    """One lattice cell Q."""

    id: int
    level: int
    center_index: int            # atom index of the centre z_Q
    center: np.ndarray
    radius: float                # r(Q)
    side: float                  # l(Q)
    point_indices: np.ndarray    # sorted atom indices of Q
    parent: int | None
    children: list[int] = field(default_factory=list)
    conforming: bool = True
    doubling: bool | None = None

    @property
    def ball(self) -> Ball:
        return Ball(self.center, self.radius)

    def mass(self, measure: WeightedPointMeasure) -> float:
        return float(np.sum(measure.weights[self.point_indices]))


class Lattice:
    def __init__(self, measure, cells, levels, assignment, a0, c0, strict):
        self.measure = measure
        self.cells: list[Cell] = cells
        self.levels: list[list[int]] = levels      # cell ids per level
        self._assignment = assignment              # (max_depth+1, N) cell ids
        self.a0 = float(a0)
        self.c0 = float(c0)
        self.strict = bool(strict)

    @property
    def max_depth(self) -> int:
        return len(self.levels) - 1

    @property
    def root(self) -> Cell:
        return self.cells[self.levels[0][0]]

    def cell(self, cell_id: int) -> Cell:
        return self.cells[cell_id]

    def level_cells(self, k: int) -> list[Cell]:
        return [self.cells[i] for i in self.levels[k]]

    def cell_of(self, point_index: int, level: int) -> Cell:
        """The level-k cell containing a given atom."""
        return self.cells[self._assignment[level, point_index]]

    def side(self, k: int) -> float:
        return SIDE_FACTOR * self.c0 * self.a0 ** (-k)

    def chain(self, point_index: int) -> list[Cell]:
        """Root-to-leaf chain of cells containing an atom."""
        return [self.cell_of(point_index, k) for k in range(self.max_depth + 1)]


def _lex_order(points: np.ndarray) -> np.ndarray:
    keys = [np.arange(points.shape[0])]
    keys.extend(points[:, j] for j in range(points.shape[1] - 1, -1, -1))
    return np.lexsort(tuple(keys))


def _greedy_net(points, order, separation, seeds):
    """Greedy maximal net: accept a site iff all accepted so far are >= s away.

    ``seeds`` (atom indices, already pairwise >= s apart) are accepted first
    in their given order, then the remaining sites in ``order``.  Uses a
    uniform grid hash of bucket size s, so only the 3^d neighbouring buckets
    are scanned per candidate.
    """
    sep_sq = separation * separation
    d = points.shape[1]
    buckets: dict[tuple, list[int]] = {}
    accepted: list[int] = []
    offsets = np.stack(
        np.meshgrid(*([np.arange(-1, 2)] * d), indexing="ij"), axis=-1
    ).reshape(-1, d)

    def try_accept(i, force):
        p = points[i]
        key = tuple(np.floor(p / separation).astype(np.int64))
        if not force:
            for off in offsets:
                neigh = tuple(key + off)
                for j in buckets.get(neigh, ()):
                    diff = points[j] - p
                    if float(diff @ diff) < sep_sq:
                        return False
        buckets.setdefault(key, []).append(i)
        accepted.append(i)
        return True

    for i in seeds:
        try_accept(int(i), force=True)
    seed_set = set(int(i) for i in seeds)
    for i in order:
        i = int(i)
        if i not in seed_set:
            try_accept(i, force=False)
    return accepted


def _nearest_center(points, centers):
    """Index of the nearest centre per point; ties to the earlier centre.

    A KD-tree finds the two nearest centres.  Where they are within
    _TREE_SLACK of each other, every centre that close is re-scored with
    the einsum arithmetic of a dense points x centres scan and the first
    minimum wins, so the result equals that scan's argmin.
    """
    if centers.shape[0] == 1:
        return np.zeros(points.shape[0], dtype=np.int64)
    tree = cKDTree(centers)
    dist, idx = tree.query(points, k=2)
    out = idx[:, 0].astype(np.int64)
    reach = dist[:, 0] * (1.0 + _TREE_SLACK)
    tied = np.flatnonzero(dist[:, 1] <= reach)
    if tied.size:
        found = tree.query_ball_point(points[tied], reach[tied],
                                      return_sorted=True)
        width = max(len(c) for c in found)
        # pad with each row's lowest index, which leaves its argmin unchanged
        cand = np.array([c + c[:1] * (width - len(c)) for c in found])
        diff = points[tied, None, :] - centers[cand]
        dist_sq = np.einsum("ijk,ijk->ij", diff, diff)
        out[tied] = cand[np.arange(tied.size), np.argmin(dist_sq, axis=1)]
    return out


def build_lattice(
    measure: WeightedPointMeasure,
    a0: float = DEFAULT_A0,
    c0: float = DEFAULT_C0,
    max_depth: int | None = None,
    strict: bool = False,
) -> Lattice:
    """Construct the cell hierarchy for a nonempty measure.

    ``strict`` enforces the regime A0 > 5000 * C0 > 5000; the default
    relaxed mode accepts any A0 > 1, C0 > 1 (desk-scale constants) and the
    lattice records which mode produced it.
    """
    if measure.is_empty:
        raise ValueError("cannot build a lattice over an empty measure")
    a0, c0 = float(a0), float(c0)
    if c0 <= 1.0:
        raise ValueError(f"C0 must exceed 1, got {c0}")
    if strict:
        if not a0 > 5000.0 * c0:
            raise ValueError(
                f"strict mode needs A0 > 5000*C0: got A0={a0}, C0={c0}"
            )
    elif a0 <= 1.0:
        raise ValueError(f"A0 must exceed 1, got {a0}")

    points = measure.points
    n_pts = measure.size
    if max_depth is None:
        max_depth = math.ceil(
            math.log(NET_FACTOR / measure.r_min) / math.log(a0) - 1e-9
        )
        max_depth = min(max(max_depth, 1), MAX_DEPTH_CAP)
    max_depth = int(max_depth)
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")

    if measure.diameter >= NET_FACTOR:
        raise ValueError(
            f"support diameter {measure.diameter:.3g} reaches the level-0 "
            f"separation {NET_FACTOR:g}; rescale the input to unit size"
        )

    order = _lex_order(points)

    # Nets and provisional nearest-centre assignments per level.  Seeding
    # each net with the previous centres keeps the nets nested, so every
    # centre owns its own chain downward (z_Q in Q is then automatic).
    nets: list[list[int]] = []
    voronoi: list[np.ndarray] = []
    seeds: list[int] = []
    for k in range(max_depth + 1):
        net = _greedy_net(points, order, NET_FACTOR * a0 ** (-k), seeds)
        if k == 0 and len(net) != 1:
            raise ValueError(
                "support is not contained in a single root cell; rescale input"
            )
        nets.append(net)
        voronoi.append(_nearest_center(points, points[net]))
        seeds = net

    # Cells are numbered level by level in net order: the j-th centre of
    # level k heads cell first[k] + j.  The finest partition is the
    # provisional one; a coarser cell is the union of the cells whose
    # centre it owns, so a level-(k+1) cell's parent is the level-k cell
    # owning its centre.
    first = np.cumsum([0] + [len(net) for net in nets]).tolist()
    assignment = np.empty((max_depth + 1, n_pts), dtype=np.int64)
    assignment[max_depth] = first[max_depth] + voronoi[max_depth]
    parents: list = [None] * (max_depth + 1)
    for k in range(max_depth - 1, -1, -1):
        parents[k + 1] = first[k] + voronoi[k][nets[k + 1]]
        assignment[k] = parents[k + 1][assignment[k + 1] - first[k + 1]]

    cells: list[Cell] = []
    for k, net in enumerate(nets):
        r = a0 ** (-k)
        side = SIDE_FACTOR * c0 * a0 ** (-k)
        members = np.argsort(assignment[k], kind="stable")
        bounds = np.searchsorted(assignment[k][members],
                                 np.arange(first[k], first[k + 1] + 1))
        for j, center_idx in enumerate(net):
            parent = int(parents[k][j]) if k else None
            cells.append(Cell(
                id=first[k] + j,
                level=k,
                center_index=int(center_idx),
                center=points[center_idx].copy(),
                radius=r,
                side=side,
                point_indices=members[bounds[j]:bounds[j + 1]],
                parent=parent,
            ))
            if parent is not None:
                cells[parent].children.append(first[k] + j)
    levels = [list(range(first[k], first[k + 1]))
              for k in range(max_depth + 1)]

    lattice = Lattice(measure, cells, levels, assignment, a0, c0, strict)
    _classify_cells(lattice)
    return lattice


def _classify_cells(lattice: Lattice) -> None:
    """Set each cell's conforming and doubling flags from one B(Q) query.

    r(Q) is the lower clamp A0^-k (ball containment only shrinks with the
    radius, so the smallest admissible radius in the bracket is its lower
    edge).  A cell is conforming when support inter B(z_Q, r(Q)) stays
    inside Q and Q stays inside 28 B(Q), and doubling when
    mu(100 B(Q)) <= C0 * mu(B(Q)).
    """
    measure = lattice.measure
    for cell in lattice.cells:
        inside = measure.ball_indices(cell.center, cell.radius)
        # point_indices are exactly the atoms assigned to the cell
        containment_ok = bool(
            (lattice._assignment[cell.level, inside] == cell.id).all())
        span = np.linalg.norm(
            measure.points[cell.point_indices] - cell.center, axis=1
        )
        covering_ok = bool((span <= COVER_FACTOR * cell.radius).all())
        cell.conforming = containment_ok and covering_ok
        small = float(np.sum(measure.weights[inside]))
        big = measure.ball_mass(cell.center, DOUBLING_FACTOR * cell.radius)
        cell.doubling = bool(big <= lattice.c0 * small)


def boundary_layer_mass(
    lattice: Lattice, cell: Cell, lambdas
) -> list[tuple[float, float]]:
    """Inner and outer boundary-layer masses of a cell, one pair per lam.

    At thickness lam * l(Q), inner: atoms of Q within lam * l(Q) of the
    complement of Q; outer: atoms of 4 B_Q outside Q within lam * l(Q) of
    Q.  The distance to an empty set is +inf, giving mass 0.  The distances
    do not depend on lam, so they are taken once for all thicknesses.
    """
    lambdas = [float(lam) for lam in lambdas]
    for lam in lambdas:
        if not 0.0 < lam <= 1.0:
            raise ValueError(f"layer thickness must lie in (0, 1], got {lam}")
    measure = lattice.measure
    members = cell.point_indices
    outside_mask = np.ones(measure.size, dtype=bool)
    outside_mask[members] = False
    outside = np.flatnonzero(outside_mask)
    ring = measure.ball_indices(cell.center, 4.0 * COVER_FACTOR * cell.radius)
    ring = ring[~np.isin(ring, members, assume_unique=True)]

    def layers(atoms, others):
        """Mass of atoms within each thickness of the nearest of others."""
        if others.size == 0:
            return [0.0] * len(lambdas)
        tree = cKDTree(measure.points[others])
        dist, _ = tree.query(measure.points[atoms], k=1)
        weights = measure.weights[atoms]
        return [float(np.sum(weights[dist <= lam * cell.side]))
                for lam in lambdas]

    return list(zip(layers(members, outside), layers(ring, members)))


def boundary_audit(lattice: Lattice, lambdas) -> dict:
    """Max over cells of (inner+outer) / (sqrt(lam) * mu(3.5 B_Q)) per lam.

    A diagnostic for the thin-boundary property; values are recorded per
    input as regression constants rather than asserted universally.
    """
    measure = lattice.measure
    lambdas = [float(lam) for lam in lambdas]
    out = dict.fromkeys(lambdas, 0.0)
    for cell in lattice.cells:
        denom = measure.ball_mass(
            cell.center, BOUNDARY_BALL_FACTOR * COVER_FACTOR * cell.radius
        )
        if denom == 0.0:
            continue
        masses = boundary_layer_mass(lattice, cell, lambdas)
        for lam, (inner, outer) in zip(lambdas, masses):
            out[lam] = max(out[lam], (inner + outer) / (math.sqrt(lam) * denom))
    return out


def cover_by_doubling(lattice: Lattice, cell_id: int):
    """Maximal doubling cells at or below a cell, plus uncovered atoms.

    Greedy top-down: a doubling cell is emitted whole, a non-doubling cell
    recurses into its children, and non-doubling cells at the deepest level
    contribute their atoms to the uncovered remainder.
    """
    emitted: list[int] = []
    uncovered: list[np.ndarray] = []
    stack = [cell_id]
    while stack:
        cid = stack.pop()
        cell = lattice.cells[cid]
        if cell.doubling:
            emitted.append(cid)
        elif cell.children:
            stack.extend(reversed(cell.children))
        else:
            uncovered.append(cell.point_indices)
    emitted.sort()
    if uncovered:
        uncovered_idx = np.sort(np.concatenate(uncovered))
    else:
        uncovered_idx = np.empty(0, dtype=np.intp)
    return emitted, uncovered_idx


def _sorted_contains(sorted_values: np.ndarray, queries) -> np.ndarray:
    """Per query, whether it occurs in the ascending array sorted_values."""
    queries = np.asarray(queries)
    pos = np.searchsorted(sorted_values, queries)
    hit = pos < sorted_values.size
    hit[hit] = sorted_values[pos[hit]] == queries[hit]
    return hit


def _decisive_diameter(pts: np.ndarray, thresholds) -> float:
    """The diameter of pts, or a stand-in on the same side of each threshold.

    A realised pair distance (the atom farthest from the first, then the
    atom farthest from that one) bounds the diameter from below, and twice
    the largest distance rho from the first atom bounds it from above.  When
    no threshold lies in that bracket, either end of it compares with every
    threshold as the diameter would; otherwise the exact blocked scan runs.
    Only O(len(pts)) memory is used either way.
    """
    from_first = np.sqrt(((pts - pts[0]) ** 2).sum(-1))
    far = pts[int(np.argmax(from_first))]
    pair = float(np.sqrt(((pts - far) ** 2).sum(-1).max()))
    upper = 2.0 * float(from_first.max()) * (1.0 + 1e-9)
    if any(pair <= t <= upper for t in thresholds):
        return float(np.sqrt(max_sq_pair_distance(pts)))
    return pair


def check_lattice(lattice: Lattice) -> dict:
    """Exact invariant audit; the reference oracle for the lattice tests.

    Partition and nesting are set properties checked per level; the
    enlarged-ball disjointness uses the open-ball criterion
    |z - z'| >= 5 (r + r'), and the cell-diameter window is reported for
    cells with at least two atoms.
    """
    measure = lattice.measure
    n_pts = measure.size
    report = {
        "partition_ok": True,
        "nesting_ok": True,
        "radius_bracket_ok": True,
        "center_membership_ok": True,
        "five_b_violations": 0,
        "nonconforming": 0,
        "cells": len(lattice.cells),
        "diam_upper_ok": True,
        "diam_lower_violations": 0,
    }
    for k, ids in enumerate(lattice.levels):
        seen = np.zeros(n_pts, dtype=np.int64)
        for cid in ids:
            cell = lattice.cells[cid]
            seen[cell.point_indices] += 1
            if not (
                lattice.a0 ** (-k) - 1e-15
                <= cell.radius
                <= lattice.c0 * lattice.a0 ** (-k) + 1e-15
            ):
                report["radius_bracket_ok"] = False
            if not _sorted_contains(
                cell.point_indices, [cell.center_index]
            ).all():
                report["center_membership_ok"] = False
            if cell.parent is not None:
                parent = lattice.cells[cell.parent]
                if not _sorted_contains(
                    parent.point_indices, cell.point_indices
                ).all():
                    report["nesting_ok"] = False
            pts = measure.points[cell.point_indices]
            if pts.shape[0] >= 2:
                max_diam = cell.side * (1 + 1e-12)
                min_diam = cell.side / (COVER_FACTOR * lattice.c0)
                diam = _decisive_diameter(pts, (max_diam, min_diam))
                if diam > max_diam:
                    report["diam_upper_ok"] = False
                if diam < min_diam:
                    report["diam_lower_violations"] += 1
        if not (seen == 1).all():
            report["partition_ok"] = False
        centers = np.array([lattice.cells[c].center for c in ids])
        radii = np.array([lattice.cells[c].radius for c in ids])
        if len(ids) > 1:
            tree = cKDTree(centers)
            pairs = tree.query_pairs(float(2 * FIVE_B * radii.max()), output_type="ndarray")
            for i, j in pairs:
                gap = float(np.linalg.norm(centers[i] - centers[j]))
                if gap < FIVE_B * (radii[i] + radii[j]):
                    report["five_b_violations"] += 1
    report["nonconforming"] = sum(1 for c in lattice.cells if not c.conforming)
    report["nonconforming_fraction"] = report["nonconforming"] / max(
        1, len(lattice.cells)
    )
    return report


def lattice_to_json(lattice: Lattice, path=None):
    """Serializable description of the lattice (optionally written to path)."""
    payload = {
        "a0": lattice.a0,
        "c0": lattice.c0,
        "strict": lattice.strict,
        "max_depth": lattice.max_depth,
        "levels": lattice.levels,
        "cells": [
            {
                "id": c.id,
                "level": c.level,
                "center_index": c.center_index,
                "center": [float(v) for v in c.center],
                "radius": c.radius,
                "side": c.side,
                "parent": c.parent,
                "children": list(c.children),
                "n_points": int(c.point_indices.size),
                "conforming": bool(c.conforming),
                "doubling": bool(c.doubling),
            }
            for c in lattice.cells
        ],
    }
    if path is not None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")
    return payload
