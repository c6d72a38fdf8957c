"""Hierarchical cell lattice over the support of a weighted point measure.

Levels k = 0, 1, ..., max_depth each carry a partition of the atoms into
cells.  Cells at level k are generated by a greedy maximal separated net of
the support (deterministic: previous-level centres first, then remaining
atoms in lexicographic coordinate order with index tie-break); every atom
joins its nearest centre, ties to the earlier centre, and whole level-(k+1)
cells attach to the level-k cell owning their centre so nesting is exact by
construction.

Scale conventions at level k, with A0 the inter-level ratio, C0 the
doubling constant and s the lattice's unit (``Lattice.scale``):

    net separation      NET_FACTOR * s * A0^-k
    ball radius r(Q)    s * A0^-k      (smallest admissible, clamped bracket
                                        [s * A0^-k, C0 * s * A0^-k])
    side length l(Q)    56 * C0 * s * A0^-k
    big ball B_Q        28 * B(Q)

The net separation sits one order above r(Q): with a separation equal to
r(Q) the enlarged balls 5*B(Q) of adjacent cells always overlap and the
containment support(mu) inter B(z_Q, r(Q)) inside Q fails for any dense
input, so none of the advertised cell properties would ever hold.  A factor
of NET_FACTOR = 10 makes all of them hold with margin on every input:
foreign atoms stay at distance > (1/2 - 1/(A0-1)) * separation from a
centre, cells have radius < separation * A0/(A0-1) <= 28 * r(Q), and centre
gaps >= 10 * r(Q) keep the open enlarged balls 5*B(Q) pairwise disjoint.

The unit s is the largest power of two not above max(diameter, r_min),
so the level-0 separation 10 s > 5 diameter leaves level 0 one cell, and
a dilation of the input by a power of two scales s and every length above
exactly: the cells, and all built on them, follow the input bit for bit.

The lattice is stored as arrays on ``Lattice``.  Cells are numbered level
by level: level k holds the ids first[k] <= id < first[k + 1].  Each cell
field is one array indexed by id: level, center_index, parent (-1 at the
root), radius, side, conforming and doubling.  Per level k, assignment[k]
gives each atom's cell and members[k] lists the level's atoms grouped by
cell, in index order inside a cell: cell i's atoms are
members.reshape(-1)[bounds[i]:bounds[i + 1]] and its children
children[child_bounds[i]:child_bounds[i + 1]].  A ``Cell`` is a read-only
view of one id, and the audits read array slices.
"""

from __future__ import annotations

import math

import numpy as np

from ._util import (BLOCK_ELEMENTS, chunks, diameter_candidates, dump_json,
                    max_sq_pair_distance, ragged, segment_sums, unique)
from .measure import WeightedPointMeasure, _Sweep

__all__ = [
    "Cell",
    "Lattice",
    "build_lattice",
    "boundary_audit",
    "cover_by_doubling",
    "check_lattice",
    "lattice_to_json",
]

NET_FACTOR = 10.0         # net separation = NET_FACTOR * s * A0^-k
COVER_FACTOR = 28.0       # Q subset of 28 B(Q);  B_Q := 28 B(Q)
SIDE_FACTOR = 56.0        # l(Q) = 56 * C0 * s * A0^-k
FIVE_B = 5.0              # enlarged-ball disjointness factor
DOUBLING_FACTOR = 100.0   # doubling cells: mu(100 B(Q)) <= C0 mu(B(Q))
BOUNDARY_BALL_FACTOR = 3.5
BOUNDARY_LAMBDAS = (0.2, 0.1, 0.05, 0.02)  # boundary_audit's thicknesses
DEFAULT_A0 = 20.0
DEFAULT_C0 = 4.0
MAX_DEPTH_CAP = 14


def _field(name, kind):
    return property(lambda cell: kind(getattr(cell.lattice, name)[cell.id]))


class Cell:
    """One lattice cell Q: a read-only view of entry ``id`` of its
    lattice's arrays."""

    __slots__ = ("lattice", "id")

    level = _field("level", int)
    center_index = _field("center_index", int)   # atom index of the centre z_Q
    radius = _field("radius", float)             # r(Q)
    side = _field("side", float)                 # l(Q)
    conforming = _field("conforming", bool)
    doubling = _field("doubling", bool)

    def __init__(self, lattice: Lattice, cell_id: int):
        self.lattice, self.id = lattice, cell_id

    @property
    def center(self) -> np.ndarray:
        return self.lattice.measure.points[self.center_index].copy()

    @property
    def point_indices(self) -> np.ndarray:
        """Q's atoms in index order."""
        lo, hi = self.lattice.bounds[self.id:self.id + 2]
        return self.lattice.members.reshape(-1)[lo:hi]

    @property
    def parent(self) -> int | None:
        parent = int(self.lattice.parent[self.id])
        return None if parent < 0 else parent

    @property
    def children(self) -> list[int]:
        lo, hi = self.lattice.child_bounds[self.id:self.id + 2]
        return self.lattice.children[lo:hi].tolist()


class Lattice:
    """The cell hierarchy as arrays indexed by cell id, laid out as the
    module docstring describes; ``cells`` holds one ``Cell`` view per id."""

    def __init__(self, measure, first, center_index, parent, assignment,
                 a0, c0, strict, scale):
        self.measure = measure
        self.a0 = float(a0)
        self.c0 = float(c0)
        self.strict = bool(strict)
        self.scale = scale                         # s, a power of two
        self.first: list[int] = first
        counts = np.diff(first)
        self.level = np.repeat(np.arange(counts.size), counts)
        self.center_index = center_index
        self.parent = parent
        self.radius = np.repeat(
            [scale * self.a0 ** (-k) for k in range(counts.size)], counts)
        self.side = SIDE_FACTOR * self.c0 * self.radius
        self.assignment = assignment               # (max_depth+1, N) cell ids
        self.members = np.argsort(assignment, axis=1, kind="stable")
        self.bounds = np.concatenate(([0], np.cumsum(
            np.bincount(assignment.reshape(-1), minlength=first[-1]))))
        # the root's parent -1 sorts first; a stable sort keeps each
        # cell's children in id order
        self.children = np.argsort(parent, kind="stable")[1:]
        self.child_bounds = np.searchsorted(parent[self.children],
                                            np.arange(first[-1] + 1))
        self.sizes = np.diff(self.bounds)          # atoms per cell
        self.cells = [Cell(self, i) for i in range(first[-1])]
        self.conforming = np.empty(first[-1], dtype=bool)
        self.doubling = np.empty(first[-1], dtype=bool)

    @property
    def levels(self) -> list[list[int]]:
        """Cell ids per level."""
        return [list(range(lo, hi)) for lo, hi in zip(self.first,
                                                      self.first[1:])]

    @property
    def max_depth(self) -> int:
        return len(self.first) - 2

    @property
    def root(self) -> Cell:
        return self.cells[0]

    def cell(self, cell_id: int) -> Cell:
        return self.cells[cell_id]

    def masses(self, ids) -> np.ndarray:
        """mu(Q) per cell id: np.sum over the cell's atoms in index order."""
        ids = np.asarray(ids)
        row, at = ragged(self.bounds[ids], self.sizes[ids])
        atoms = self.members.reshape(-1)[at]
        return segment_sums(self.measure.weights[atoms], row, ids.size)

    def first_flagged(self, flags, atoms, level: int = 0):
        """Per atom, the coarsest cell from ``level`` down its chain whose
        flag is set (an arbitrary one where none is), and whether one is."""
        chains = self.assignment[level:, atoms]
        hit = flags[chains]
        found = chains[hit.argmax(axis=0), np.arange(len(atoms))]
        return found, hit.any(axis=0)


def _lex_order(points: np.ndarray) -> np.ndarray:
    keys = [np.arange(points.shape[0])]
    keys.extend(points[:, j] for j in range(points.shape[1] - 1, -1, -1))
    return np.lexsort(tuple(keys))


def _level(measure, order, separation, seeds):
    """One lattice level: a greedy maximal net and each atom's nearest site.

    Atoms are walked ``seeds`` first (already pairwise at least the previous,
    larger separation apart), then ``order``; an atom is accepted unless an
    accepted site lies closer than s.  Each accepted site closes its open
    s-ball: the atoms of its slab of the measure's sweep order
    (``_Sweep.slabs``, which holds every atom with d^2 < s^2) are scored
    with d^2, and each atom closer than s gets a record (atom, site
    position, d^2).  Every atom lies within s of some site, so its nearest
    site is among its records: least d^2, ties to the earlier site.

    A lone atom, whose slab holds only itself, lies in no other atom's open
    s-ball (the slab covers every atom closer than s, and distances are
    symmetric), so it is a site that closes only itself, at d^2 = 0.0.
    The walk skips the lone atoms, sites are labelled by their first place
    in the walk, and the lone atoms' records join after it: the net stays
    in walk order.
    """
    points = measure.points
    sweep = measure._sweep_index()
    lo, hi = sweep.slabs(points, separation)
    lone = hi - lo == 1
    # each atom's first place in the walk: seeds first, then ``order``
    walk = np.concatenate((np.asarray(seeds, dtype=np.int64), order))
    place = np.empty(measure.size, dtype=np.int64)
    place[order] = len(seeds) + np.arange(measure.size)
    place[walk[:len(seeds)]] = np.arange(len(seeds))
    sep_sq = separation * separation
    closed = np.zeros(measure.size, dtype=bool)
    walked: list[int] = []
    atoms, sites, dist_sq = [], [], []
    steps = np.sort(place[~lone])
    for at, i in zip(steps.tolist(), walk[steps].tolist()):
        if closed[i]:
            continue
        near = sweep.order[lo[i]:hi[i]]
        diff = points[near] - points[i]
        d2 = np.einsum("ij,ij->i", diff, diff)
        inside = d2 < sep_sq
        near, d2 = near[inside], d2[inside]
        closed[near] = True
        atoms.append(near)
        sites.append(np.full(near.size, at, dtype=np.int64))
        dist_sq.append(d2)
        walked.append(at)
    singles = np.flatnonzero(lone)
    atoms.append(singles)
    sites.append(place[singles])
    dist_sq.append(np.zeros(singles.size))
    net = np.sort(np.concatenate((np.array(walked, dtype=np.int64),
                                  place[singles])))
    atoms, sites = np.concatenate(atoms), np.concatenate(sites)
    ranked = np.lexsort((sites, np.concatenate(dist_sq), atoms))
    # every atom has a record, and its best one leads its run in ranked order
    head = np.searchsorted(atoms[ranked], np.arange(measure.size))
    return walk[net].tolist(), np.searchsorted(net, sites[ranked[head]])


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
    if not math.isfinite(a0):
        raise ValueError(f"A0 must be finite, got {a0}")
    if not 1.0 < c0 < math.inf:
        raise ValueError(f"C0 must be finite and exceed 1, got {c0}")
    if strict:
        if not a0 > 5000.0 * c0:
            raise ValueError(
                f"strict mode needs A0 > 5000*C0: got A0={a0}, C0={c0}"
            )
    elif a0 <= 1.0:
        raise ValueError(f"A0 must exceed 1, got {a0}")

    points = measure.points
    n_pts = measure.size
    scale = 2.0 ** (math.frexp(max(measure.diameter, measure.r_min))[1] - 1)
    if max_depth is None:
        max_depth = math.ceil(
            math.log(NET_FACTOR * scale / measure.r_min) / math.log(a0) - 1e-9
        )
        max_depth = min(max(max_depth, 1), MAX_DEPTH_CAP)
    max_depth = int(max_depth)
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    deepest = NET_FACTOR * scale * a0 ** (-max_depth)
    if deepest * deepest == 0.0:    # no net site would close its own atom
        raise ValueError(f"max_depth {max_depth} is too deep for A0={a0}: "
                         f"the net separation {deepest:.3g} squares to 0")

    order = _lex_order(points)

    # Nets and provisional nearest-centre assignments per level.  Seeding
    # each net with the previous centres keeps the nets nested, so every
    # centre owns its own chain downward (z_Q in Q is then automatic).
    nets: list[list[int]] = []
    voronoi: list[np.ndarray] = []
    seeds: list[int] = []
    for k in range(max_depth + 1):
        net, nearest = _level(measure, order,
                              NET_FACTOR * scale * a0 ** (-k), seeds)
        nets.append(net)
        voronoi.append(nearest)
        seeds = net

    # Cells are numbered level by level in net order: the j-th centre of
    # level k heads cell first[k] + j.  The finest partition is the
    # provisional one; a coarser cell is the union of the cells whose
    # centre it owns, so a level-(k+1) cell's parent is the level-k cell
    # owning its centre.
    first = np.cumsum([0] + [len(net) for net in nets]).tolist()
    assignment = np.empty((max_depth + 1, n_pts), dtype=np.int64)
    assignment[max_depth] = first[max_depth] + voronoi[max_depth]
    parent = np.full(first[-1], -1)
    for k in range(max_depth - 1, -1, -1):
        parent[first[k + 1]:first[k + 2]] = first[k] + voronoi[k][nets[k + 1]]
        assignment[k] = parent[assignment[k + 1]]

    lattice = Lattice(measure, first, np.concatenate(nets), parent,
                      assignment, a0, c0, strict, scale)
    _classify_cells(lattice)
    return lattice


def _classify_cells(lattice: Lattice) -> None:
    """Set the conforming and doubling flags of every cell, level by level.

    r(Q) is the lower clamp s * A0^-k (ball containment only shrinks with
    the radius, so the smallest admissible radius in the bracket is its
    lower edge).  A cell is conforming when support inter B(z_Q, r(Q))
    stays inside Q and Q stays inside 28 B(Q), and doubling when
    mu(100 B(Q)) <= C0 * mu(B(Q)).

    Each level makes one batched query at r(Q) and one at 100 r(Q)
    (``_ball_masses``); containment reads the level's assignment of every
    atom in B(Q), and covering the span of each cell's atoms.
    """
    measure = lattice.measure
    for k in range(lattice.max_depth + 1):
        ids = slice(*lattice.first[k:k + 2])
        centers = measure.points[lattice.center_index[ids]]
        radii = lattice.radius[ids]
        local = lattice.assignment[k] - lattice.first[k]
        small, contained = _ball_masses(measure, centers, radii, local)
        big, _ = _ball_masses(measure, centers, DOUBLING_FACTOR * radii)
        spans = _spans(measure.points, centers, local)
        lattice.conforming[ids] = contained & (spans <= COVER_FACTOR * radii)
        lattice.doubling[ids] = big <= lattice.c0 * small


def _spans(points, centers, local):
    """Per cell, the largest |x - z_Q| over its atoms, each atom's cell
    given as its row ``local`` of ``centers``."""
    spans = np.zeros(len(centers))
    np.maximum.at(spans, local, np.linalg.norm(points - centers[local],
                                               axis=1))
    return spans


def _ball_masses(measure, centers, radii, local=None):
    """Per centre, mu(B(c, r)) as ``ball_mass`` takes it and, given each
    atom's row ``local``, whether the ball holds atoms of its own row only."""
    masses = np.empty(len(centers))
    own_only = np.ones(len(centers), dtype=bool)
    for at, atoms, _, bounds in measure.ball_batches(centers, radii):
        rows = np.repeat(np.arange(bounds.size - 1), np.diff(bounds))
        masses[at:at + bounds.size - 1] = segment_sums(
            measure.weights[atoms], rows, bounds.size - 1)
        if local is not None:
            own_only[at + rows[local[atoms] != at + rows]] = False
    return masses, own_only


def _distances(points, first, second) -> np.ndarray:
    """|p - q| per pair of rows, squares summed in coordinate order."""
    return np.sqrt(((points[first] - points[second]) ** 2).sum(-1))


def _foreign_distances(measure, local, cap) -> np.ndarray:
    """Per atom, its distance to the nearest atom of another cell (cells
    given by ``local``) where that is at most ``cap``; more beyond.

    The sweep walk visits the pairs whose axis gap is within min(cap, best
    so far) + 2^-500 of either end; a distance is at least its rounded
    axis term (``_Sweep.slabs``), so no pair left out comes closer.
    """
    best = np.full(measure.size, math.inf)
    if not local.any():
        return best
    sweep = measure._sweep_index()
    points, cells = measure.points[sweep.order], local[sweep.order]
    reach = np.full(measure.size, cap + 2.0**-500)
    for first, second in sweep.offset_pairs(reach):
        cross = cells[first] != cells[second]
        first, second = first[cross], second[cross]
        dist = _distances(points, first, second)
        for ends in (first, second):
            best[ends] = np.minimum(best[ends], dist)
            reach[ends] = np.minimum(best[ends], cap) + 2.0**-500
    return best[sweep.rank]


def _ring_distances(measure, grouped, ring, ring_cell, cap) -> np.ndarray:
    """Per ring entry, the distance from its atom to its cell where that
    is at most ``cap``; more beyond.

    ``grouped`` holds the level's atoms as cell * N + sweep position, in
    order.  The cell's atom next to the entry's in sweep order is u away,
    so only the cell's atoms in the slab of half-width min(u, cap) can be
    closer; their tables go in blocks of about BLOCK_ELEMENTS coordinates.
    """
    points, size, sweep = measure.points, measure.size, measure._sweep_index()
    base = ring_cell * size
    at = np.minimum(np.searchsorted(grouped, base + sweep.rank[ring]),
                    np.searchsorted(grouped, base + size) - 1)
    near = _distances(points, ring, sweep.order[grouped[at] % size])
    lo, hi = sweep.slabs(points[ring], np.minimum(near, cap))
    lo = np.searchsorted(grouped, base + lo)
    columns = np.searchsorted(grouped, base + hi) - lo
    dist = np.full(ring.size, math.inf)
    for start, end in chunks(columns, BLOCK_ELEMENTS // points.shape[1]):
        row, col = ragged(lo[start:end], columns[start:end])
        table = _distances(points, ring[start:end][row],
                           sweep.order[grouped[col] % size])
        filled = np.flatnonzero(columns[start:end])
        heads = np.cumsum(columns[start:end]) - columns[start:end]
        dist[start + filled] = np.minimum.reduceat(table, heads[filled])
    return dist


def _layer_masses(lattice, k, lambdas):
    """Inner and outer boundary-layer masses of the level-k cells, two
    (cells, thicknesses) arrays.

    At thickness lam * l(Q) the inner layer of Q holds the atoms of Q
    within lam * l(Q) of an atom outside Q (``_foreign_distances``), and
    the outer layer the atoms of 4 B_Q outside Q within lam * l(Q) of Q
    (``_ring_distances``).  An atom counts when ``dist <= lam * l(Q)``,
    summed as np.sum over the kept weights in index order.  The rings are
    queried at min(4 B_Q, cap + span) with a 1e-9 relative margin: atoms
    farther from z_Q lie beyond every thickness from Q, rounding included.
    """
    measure = lattice.measure
    ids = slice(*lattice.first[k:k + 2])
    centers = measure.points[lattice.center_index[ids]]
    local = lattice.assignment[k] - lattice.first[k]
    # a level's cells share l(Q)
    widths = [lam * float(lattice.side[ids.start]) for lam in lambdas]
    cap = max(widths)

    def layers(atoms, dist, row, rows):
        return np.stack([segment_sums(measure.weights[atoms][dist <= w],
                                      row[dist <= w], rows)
                         for w in widths], axis=1)

    members = lattice.members[k]
    inner = layers(members, _foreign_distances(measure, local, cap)[members],
                   local[members], len(centers))
    grouped = np.sort(local[measure._sweep_index().order] * measure.size
                      + np.arange(measure.size))
    radii = np.minimum(4.0 * COVER_FACTOR * lattice.radius[ids],
                       (cap + _spans(measure.points, centers, local))
                       * (1.0 + 1e-9) + 2.0**-500)
    outer = np.empty_like(inner)
    for at, atoms, _, bounds in measure.ball_batches(centers, radii):
        end = at + bounds.size - 1
        rows = np.repeat(np.arange(at, end), np.diff(bounds))
        ring, row = atoms[local[atoms] != rows], rows[local[atoms] != rows]
        dist = _ring_distances(measure, grouped, ring, row, cap)
        outer[at:end] = layers(ring, dist, row - at, end - at)
    return inner, outer


def boundary_audit(lattice: Lattice) -> dict:
    """Max over cells of (inner+outer) / (sqrt(lam) * mu(3.5 B_Q)), one
    entry per thickness lam of BOUNDARY_LAMBDAS, in that order.

    A diagnostic for the thin-boundary property; values are recorded per
    input as regression constants rather than asserted universally.  Per
    level, the 3.5 B_Q masses come from one batched query (each holds its
    centre atom, so none is 0) and the layers from ``_layer_masses``.
    """
    worst = np.zeros(len(BOUNDARY_LAMBDAS))
    for k in range(lattice.max_depth + 1):
        ids = slice(*lattice.first[k:k + 2])
        denoms, _ = _ball_masses(
            lattice.measure, lattice.measure.points[lattice.center_index[ids]],
            BOUNDARY_BALL_FACTOR * COVER_FACTOR * lattice.radius[ids])
        inner, outer = _layer_masses(lattice, k, BOUNDARY_LAMBDAS)
        ratios = (inner + outer) / (np.sqrt(BOUNDARY_LAMBDAS)
                                    * denoms[:, None])
        worst = np.maximum(worst, ratios.max(axis=0))
    return dict(zip(BOUNDARY_LAMBDAS, worst.tolist()))


def cover_by_doubling(lattice: Lattice, cell_id: int):
    """Maximal doubling cells at or below a cell, plus uncovered atoms.

    The cells are the first doubling cells on the atoms' chains down from
    the cell; the atoms whose chain holds none down to the deepest level
    are the uncovered remainder.
    """
    cell = lattice.cells[cell_id]
    atoms = cell.point_indices
    found, hit = lattice.first_flagged(lattice.doubling, atoms, cell.level)
    return unique(found[hit]).tolist(), atoms[~hit]


def check_lattice(lattice: Lattice) -> dict:
    """Exact invariant audit; the reference oracle for the lattice tests.

    Partition and nesting are set properties checked per level; the
    enlarged-ball disjointness uses the open-ball criterion
    |z - z'| >= 5 (r + r'), and the cell-diameter window is reported for
    cells with at least two atoms.

    The audit reads the lattice's arrays as they stand, one level at a
    time.  Partition counts each atom's (cell, atom) pairs; nesting
    and centre membership look (parent, atom) and (cell, centre) pairs up
    among all of them.  The diameter window is decided from a bracket per
    cell: a realised pair distance below (the atom farthest from the
    cell's first atom, then the atom farthest from that one) and twice the
    largest distance rho from the first atom above.  Only a cell with a
    threshold inside its bracket is scanned exactly, over the atoms that
    can end a longest pair (``diameter_candidates``).  Memory stays
    O(atoms) throughout.
    """
    measure = lattice.measure
    points = measure.points
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
    counts = lattice.sizes
    keys, parent_keys, center_keys = [], [], []
    for k in range(lattice.max_depth + 1):
        ids = np.arange(*lattice.first[k:k + 2])
        atoms = lattice.members[k]
        sizes = counts[ids]
        row = np.repeat(np.arange(ids.size), sizes)
        # (cell, atom) pairs as cell * N + atom: a cell lists each atom once
        level_keys = unique(ids[row] * n_pts + atoms)
        keys.append(level_keys)
        if not np.array_equal(np.bincount(level_keys % n_pts,
                                          minlength=n_pts),
                              np.ones(n_pts, dtype=np.intp)):
            report["partition_ok"] = False
        center_keys.append(ids * n_pts + lattice.center_index[ids])
        parents = lattice.parent[ids][row]
        parent_keys.append(parents[parents >= 0] * n_pts
                           + atoms[parents >= 0])

        radii = lattice.radius[ids]
        low = lattice.scale * lattice.a0 ** (-k)
        if not ((low * (1 - 1e-15) <= radii)
                & (radii <= lattice.c0 * low * (1 + 1e-15))).all():
            report["radius_bracket_ok"] = False

        multi = sizes >= 2
        if multi.any():
            diam, max_diam, min_diam = _cell_diameters(
                points[atoms[np.repeat(multi, sizes)]], sizes[multi],
                lattice.side[ids][multi], lattice.c0)
            if (diam > max_diam).any():
                report["diam_upper_ok"] = False
            report["diam_lower_violations"] += int(
                np.count_nonzero(diam < min_diam))

        report["five_b_violations"] += _five_b_violations(
            points[lattice.center_index[ids]], radii)
    keys = np.sort(np.concatenate(keys))
    if not _held(np.concatenate(center_keys), keys):
        report["center_membership_ok"] = False
    if not _held(np.concatenate(parent_keys), keys):
        report["nesting_ok"] = False
    report["nonconforming"] = int(np.count_nonzero(~lattice.conforming))
    report["nonconforming_fraction"] = report["nonconforming"] / max(
        1, len(lattice.cells)
    )
    return report


def _held(queries, keys) -> bool:
    """Whether every entry of ``queries`` is among the sorted ``keys``
    (``np.isin``, which would import numpy.ma through np.unique)."""
    at = np.searchsorted(keys, queries)
    return bool((at < keys.size).all() and (keys[at] == queries).all())


def _cell_diameters(pts, sizes, sides, c0):
    """Diameter stand-ins for cells of two atoms or more, their atoms
    ``pts`` grouped by cell, and the window (max_diam, min_diam) each is
    compared with.

    Per cell the stand-in is a realised pair distance, or the exact
    diameter when a threshold lies in the bracket [pair, 2 rho]; either
    compares with both thresholds as the diameter does.
    """
    starts = np.cumsum(sizes) - sizes
    row = np.repeat(np.arange(sizes.size), sizes)
    from_first = np.sqrt(((pts - pts[starts][row]) ** 2).sum(-1))
    rho = np.maximum.reduceat(from_first, starts)
    # the first atom of each cell at distance rho
    hits = np.flatnonzero(from_first == rho[row])
    far = pts[hits[np.searchsorted(hits, starts)]]
    pair = np.sqrt(np.maximum.reduceat(((pts - far[row]) ** 2).sum(-1),
                                       starts))
    upper = 2.0 * rho * (1.0 + 1e-9)
    max_diam = sides * (1 + 1e-12)
    min_diam = sides / (COVER_FACTOR * c0)
    unsure = (((pair <= max_diam) & (max_diam <= upper))
              | ((pair <= min_diam) & (min_diam <= upper)))
    diam = pair
    for i in np.flatnonzero(unsure):
        cell_pts = pts[starts[i]:starts[i] + sizes[i]]
        diam[i] = np.sqrt(max_sq_pair_distance(diameter_candidates(cell_pts)))
    return diam, max_diam, min_diam


def _five_b_violations(centers, radii) -> int:
    """Same-level centre pairs with |z - z'| < 5 (r + r').

    Only pairs within reach = 10 max r along the centres' sweep axis can
    count: the rounded norm of a difference is at least the rounded
    difference along any axis (``_Sweep.slabs``); the centres' offset walk
    yields exactly those pairs.
    """
    sweep = _Sweep(centers)
    reach = np.full(len(centers), 2 * FIVE_B * radii.max() + 2.0**-500)
    pairs = [np.empty((2, 0), dtype=np.intp)]
    pairs.extend(np.stack(pair) for pair in sweep.offset_pairs(reach))
    i, j = sweep.order[np.concatenate(pairs, axis=1)]
    limit = FIVE_B * (radii[i] + radii[j])
    gap = np.sqrt(((centers[i] - centers[j]) ** 2).sum(-1))
    # np.linalg.norm of one vector is a BLAS dot, which may round the last
    # bits otherwise; pairs within that error of the limit take it
    unsure = np.flatnonzero(
        np.abs(gap - limit) <= 2.0**-50 * centers.shape[1] * limit)
    gap[unsure] = [np.linalg.norm(centers[a] - centers[b])
                   for a, b in zip(i[unsure], j[unsure])]
    return int(np.count_nonzero(gap < limit))


def lattice_to_json(lattice: Lattice, path=None):
    """Serializable description of the lattice (optionally written to path)."""
    columns = {
        "id": range(len(lattice.cells)),
        "level": lattice.level.tolist(),
        "center_index": lattice.center_index.tolist(),
        "center": lattice.measure.points[lattice.center_index].tolist(),
        "radius": lattice.radius.tolist(),
        "side": lattice.side.tolist(),
        "parent": [None if p < 0 else p for p in lattice.parent.tolist()],
        "children": [kids.tolist() for kids in np.split(
            lattice.children, lattice.child_bounds[1:-1])],
        "n_points": lattice.sizes.tolist(),
        "conforming": lattice.conforming.tolist(),
        "doubling": lattice.doubling.tolist(),
    }
    payload = {
        "a0": lattice.a0,
        "c0": lattice.c0,
        "strict": lattice.strict,
        "max_depth": lattice.max_depth,
        "levels": lattice.levels,
        "cells": [dict(zip(columns, row)) for row in zip(*columns.values())],
    }
    if path is not None:
        dump_json(payload, path)
    return payload
