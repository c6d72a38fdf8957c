"""Stopping-time decomposition of a lattice into trees of cells.

Starting from the root, cells are visited top-down.  A cell stops its tree
when its density overshoots the tree root's reference density or when the
accumulated flatness excess along the chain from the root crosses a
threshold; the doubling cover of a stopped cell seeds the next generation
of tree roots.  Every cell then belongs to exactly one tree: the one rooted
at its nearest root-or-self ancestor among the chosen top cells.

Per tree the module exposes the distance function

    d_R(x) = min over Q in Tree(R) of |x - z_Q| + l(Q),

its rescaling Phi_R = d_R / (20 A0^2) used to suppress singular integrals
near stopped regions, the regularized cell family (maximal cells whose side
is at most 1/60 of the member minimum of d_R), and the packing audit
comparing the top-cell density sum against the root term plus the measure's
multiscale flatness energy.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ._util import BLOCK_ELEMENTS, dump_json, ordered_sum, ragged, segment_sums
from .beta import beta2, jones_integrals
# perfbench/tracer.py patches jones_integral here by name
from .beta import jones_integral  # noqa: F401
from .lattice import COVER_FACTOR, Lattice, cover_by_doubling
from .measure import Ball, WeightedPointMeasure

__all__ = [
    "CoronaTree",
    "TreeGeometry",
    "build_corona",
    "packing_audit",
    "tree_density_audit",
    "corona_to_json",
]

DENSITY_BALL_FACTOR = 1.1    # stopping tests use 1.1 B_Q
PHI_SCALE = 20.0             # Phi_R = d_R / (20 A0^2)
REG_FACTOR = 60.0            # side <= (1/60) min d_R over members
B0_RADIUS_FACTOR = 29.0      # B0(R) = B(z_R, 29 r(R))
DEFAULT_A_STOP = 30.0
DEFAULT_TAU = 0.12


class CoronaTree:
    """Top cells plus derived per-tree structure over one lattice."""

    def __init__(self, lattice, a_stop, tau, tops, owner, triggered,
                 beta_terms, theta_big, theta_ref):
        self.lattice = lattice
        self.a_stop = float(a_stop)
        self.tau = float(tau)
        self.tops: list[int] = tops
        self.owner = owner                  # cell id -> owning top id
        self.triggered: dict[int, str] = triggered
        self.beta_terms = beta_terms        # per cell beta2(1.1 B_Q)^2 theta(1.1 B_Q)
        self.theta_big = theta_big          # per cell theta(1.1 B_Q)
        self.theta_ref: dict[int, float] = theta_ref   # per top theta(B_R)
        # per top, its tree's cells in id order, and the tops below it
        # (every top but the root has a parent) in the order of ``tops``
        self.trees = _group(owner, np.arange(owner.size), tops)
        below = np.array(tops[1:], dtype=np.int64)
        self.stops = _group(owner[lattice.parent[below]], below, tops)
        # atom -> owner of its deepest cell
        self._atom_owner = owner[lattice.assignment[-1]]

    @property
    def measure(self) -> WeightedPointMeasure:
        return self.lattice.measure

    @property
    def root_id(self) -> int:
        return self.tops[0]

    def good_masses(self) -> list[float]:
        """Per top, in the order of ``tops``, np.sum over the weights of
        its cell's atoms that no deeper top captures, in member order."""
        tops = np.array(self.tops)
        row, at = ragged(self.lattice.bounds[tops], self.lattice.sizes[tops])
        atoms = self.lattice.members.reshape(-1)[at]
        good = self._atom_owner[atoms] == tops[row]
        return segment_sums(self.measure.weights[atoms[good]], row[good],
                            tops.size).tolist()

    def packing_terms(self) -> list[float]:
        """theta(B_R)^2 mu(R) per tree root R, in the order of ``tops``."""
        masses = self.lattice.masses(self.tops).tolist()
        return [self.theta_ref[top] ** 2 * mass
                for top, mass in zip(self.tops, masses)]


def _group(keys, values, tops) -> dict[int, list[int]]:
    """Per top t, the values whose key is t, in their given order."""
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], values[order]
    lo = np.searchsorted(keys, tops).tolist()
    hi = np.searchsorted(keys, tops, side="right").tolist()
    return {t: values[a:b].tolist() for t, a, b in zip(tops, lo, hi)}


def build_corona(
    lattice: Lattice,
    a_stop: float = DEFAULT_A_STOP,
    tau: float = DEFAULT_TAU,
) -> CoronaTree:
    """Decompose the lattice into trees via density and flatness stopping.

    Walking breadth-first below a tree root R, a cell Q triggers when
    theta(1.1 B_Q) > a_stop * theta(B_R), or when the chain sum of
    beta2(1.1 B_P)^2 theta(1.1 B_P) over the cells P strictly below R down
    to and including Q exceeds tau.  The maximal doubling cells at or below
    a triggered cell become new tree roots; whatever lies below a triggered
    cell without reaching a new root stays in the current tree untested.

    The ball statistics come one level at a time: one batched query per
    level (``ball_batches``) finds every cell's 1.1 B_Q, whose atoms give
    theta(1.1 B_Q) and, within 28 r(Q), theta(B_Q), the reference density
    of a cell that becomes a tree root (``_ball_statistics``).  beta2 fits
    the balls of two atoms or more.  Owners are then set level by level.
    """
    if not 1.0 < a_stop < np.inf:
        raise ValueError(f"a_stop must be finite and exceed 1, got {a_stop}")
    if not 0.0 < tau < np.inf:
        raise ValueError(f"tau must be finite and positive, got {tau}")
    measure = lattice.measure
    n_cells = len(lattice.cells)
    beta_terms = np.zeros(n_cells)
    theta_big = np.empty(n_cells)
    theta_own = np.empty(n_cells)
    for k in range(lattice.max_depth + 1):
        _ball_statistics(lattice, slice(*lattice.first[k:k + 2]),
                         beta_terms, theta_big, theta_own)

    root = lattice.root.id
    tops: list[int] = [root]
    triggered: dict[int, str] = {}
    theta_ref: dict[int, float] = {}
    queue = deque([root])
    while queue:
        top = queue.popleft()
        # positive: the centre atom lies in its own ball
        ref = theta_ref[top] = float(theta_own[top])
        walk = deque((child, 0.0) for child in lattice.cells[top].children)
        while walk:
            cid, chain = walk.popleft()
            chain = chain + float(beta_terms[cid])
            reason = None
            if theta_big[cid] > a_stop * ref:
                reason = "density"
            elif chain > tau:
                reason = "flatness"
            if reason is None:
                walk.extend((ch, chain) for ch in lattice.cells[cid].children)
                continue
            triggered[cid] = reason
            emitted, _ = cover_by_doubling(lattice, cid)
            tops.extend(emitted)
            queue.extend(emitted)

    is_top = np.zeros(n_cells, dtype=bool)
    is_top[tops] = True
    owner = np.arange(n_cells)
    for k in range(1, lattice.max_depth + 1):
        ids = np.arange(*lattice.first[k:k + 2])
        owner[ids] = np.where(is_top[ids], ids, owner[lattice.parent[ids]])
    return CoronaTree(lattice, a_stop, tau, tops, owner, triggered,
                      beta_terms, theta_big, theta_ref)


def _ball_statistics(lattice, ids, beta_terms, theta_big, theta_own):
    """beta2(1.1 B_Q)^2 theta(1.1 B_Q), theta(1.1 B_Q) and theta(B_Q) for
    the cells ``ids`` (a slice) of one level, written at their ids.

    The 1.1 B_Q radius never drops below the measure resolution (the
    deepest cells sit near it), so it always holds B_Q.  A level's cells
    share r(Q), so both radii are one number per level.

    Both masses of every ball of a chunk come from ``segment_sums``, each
    np.sum over the ball's weights in index order.  A 1.1 B_Q that holds
    one atom holds only the centre, which a plane fits exactly, so its
    beta_terms entry stays 0.0 and beta2 runs on the balls of two atoms or
    more.
    """
    measure = lattice.measure
    n = measure.target_dim
    centers = measure.points[lattice.center_index[ids]]
    own = COVER_FACTOR * float(lattice.radius[ids.start])
    radius = max(DENSITY_BALL_FACTOR * COVER_FACTOR
                 * float(lattice.radius[ids.start]), measure.r_min)
    for at, atoms, dist, bounds in measure.ball_batches(centers, radius):
        sizes, first = np.diff(bounds), ids.start + at
        count = sizes.size
        row = np.repeat(np.arange(count), sizes)
        weights, inside = measure.weights[atoms], dist <= own
        cells = slice(first, first + count)
        theta_big[cells] = segment_sums(weights, row, count) / radius**n
        theta_own[cells] = segment_sums(weights[inside], row[inside],
                                        count) / own**n
        for j in np.flatnonzero(sizes > 1).tolist():
            lo, hi = bounds[j], bounds[j + 1]
            res = beta2(measure, Ball(centers[at + j], radius), atoms[lo:hi])
            beta_terms[first + j] = res.value**2 * theta_big[first + j]


class TreeGeometry:
    """Distance function, suppression radius and regularized family of a tree."""

    def __init__(self, corona: CoronaTree, top_id: int):
        if top_id not in corona.trees:
            raise ValueError(f"cell {top_id} is not a top cell")
        self.lattice = corona.lattice
        self.measure = corona.measure
        self.top = self.lattice.cells[top_id]
        ids = corona.trees[top_id]
        self._centers = self.measure.points[self.lattice.center_index[ids]]
        self._sides = self.lattice.side[ids]

    @property
    def b0(self) -> Ball:
        """B0(R), a hair larger than the big ball B_R."""
        return Ball(self.top.center, B0_RADIUS_FACTOR * self.top.radius)

    def d_r(self, points: np.ndarray) -> np.ndarray:
        """min over tree cells Q of |x - z_Q| + l(Q), per row of points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.empty(pts.shape[0])
        chunk = max(1, BLOCK_ELEMENTS // max(1, self._centers.size))
        for lo in range(0, pts.shape[0], chunk):
            hi = min(lo + chunk, pts.shape[0])
            diff = pts[lo:hi, None, :] - self._centers[None, :, :]
            dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
            out[lo:hi] = np.min(dist + self._sides[None, :], axis=1)
        return out

    def phi(self, points: np.ndarray) -> np.ndarray:
        return self.d_r(points) / (PHI_SCALE * self.lattice.a0**2)

    def regularize(self) -> list[int]:
        """Maximal cells whose side obeys the 1/60 rule against d_R.

        Candidates are the support atoms of B0(R) whose d_R value exceeds
        the deepest-level threshold (the discrete stand-in for d_R > 0);
        each contributes the first (coarsest) cell on its root-to-leaf
        chain with l(Q) <= (1/60) min over member atoms of d_R.  The rule
        is monotone along chains, so first-true cells are maximal and the
        emitted family is pairwise disjoint.  d_R is taken afresh per call.
        """
        lattice = self.lattice
        dr = self.d_r(self.measure.points)
        # the deepest level's side is the last cell's
        floor = REG_FACTOR * lattice.side[-1]
        b0 = self.b0
        candidates = self.measure.ball_indices(b0.center, b0.radius)
        candidates = candidates[dr[candidates] > floor]
        # every cell holds its centre, so no segment is empty
        cell_min = np.minimum.reduceat(dr[lattice.members.reshape(-1)],
                                       lattice.bounds[:-1])
        cells, hit = lattice.first_flagged(
            lattice.side <= cell_min / REG_FACTOR, candidates)
        return np.unique(cells[hit]).tolist()


def packing_audit(corona: CoronaTree, scales_per_octave: int = 4) -> dict:
    """Compare the top-cell density sum with root term plus flatness energy.

    lhs sums theta(B_R)^2 mu(R) over all tree roots; rhs is the root cell's
    own term plus the atom-weighted multiscale flatness energy from the
    resolution up to the root side length (``_packing_span``), one blocked
    radial pass over the atoms summed in atom index order.
    """
    measure = corona.measure
    jones = jones_integrals(measure, measure.points, *_packing_span(corona),
                            scales_per_octave)
    return _packing_record(corona, jones)


def _packing_span(corona: CoronaTree) -> tuple[float, float]:
    """The radii [r_min, root side] of the packing audit's flatness energy."""
    return (corona.measure.r_min,
            float(corona.lattice.cells[corona.root_id].side))


def _packing_record(corona: CoronaTree, jones: np.ndarray) -> dict:
    """``packing_audit``'s record, given each atom's flatness energy over
    ``_packing_span``."""
    terms = corona.packing_terms()
    lhs = float(ordered_sum(terms))
    energy = float(ordered_sum(corona.measure.weights * jones))
    rhs = terms[0] + energy    # the root leads ``tops``
    return {
        "lhs": lhs,
        "rhs": rhs,
        "ratio": lhs / rhs if rhs > 0 else 0.0,
        "tops": len(corona.tops),
        "jones_energy": energy,
    }


def tree_density_audit(corona: CoronaTree) -> float:
    """The tree constant: max of theta(1.1 B_Q)/theta(B_R) over Q in Tree(R).

    Cells that passed the density test obey the a_stop bound by
    construction; untested cells below triggered ones can exceed it.
    """
    # every top owns itself, so each owner heads one run of cells
    order = np.argsort(corona.owner, kind="stable")
    owners = corona.owner[order]
    heads = np.flatnonzero(np.diff(owners, prepend=-1))
    peaks = np.maximum.reduceat(corona.theta_big[order], heads)
    at = np.searchsorted(owners[heads], corona.tops)
    refs = np.array([corona.theta_ref[top] for top in corona.tops])
    # dividing by the positive ref is monotone: max of the quotients;
    # fmax skips a NaN (inf / inf) as a Python max loop from 0.0 does
    return float(np.fmax.reduce(peaks[at] / refs, initial=0.0))


def corona_to_json(corona: CoronaTree, path=None):
    per_tree = {}
    levels = corona.lattice.level[corona.tops].tolist()
    for top, level, good, term in zip(corona.tops, levels,
                                      corona.good_masses(),
                                      corona.packing_terms()):
        per_tree[str(top)] = {
            "level": level,
            "stop": corona.stops[top],
            "tree_size": len(corona.trees[top]),
            "good_mass": good,
            "packing_term": term,
        }
    payload = {
        "a_stop": corona.a_stop,
        "tau": corona.tau,
        "top": list(corona.tops),
        "triggered": {str(k): v for k, v in sorted(corona.triggered.items())},
        "trees": per_tree,
    }
    if path is not None:
        dump_json(payload, path)
    return payload
