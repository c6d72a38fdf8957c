import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

from betascope import (WeightedPointMeasure, boundary_audit, build_lattice,
                       cantor4, check_lattice, cover_by_doubling,
                       lattice_to_json, lipschitz_graph, segment, square_area)
from betascope import lattice as lattice_mod
from betascope._util import ordered_sum, segment_sums, unique
from betascope.lattice import (COVER_FACTOR, DOUBLING_FACTOR, FIVE_B,
                               NET_FACTOR)
from betascope.measure import _TREE_SLACK
from conftest import two_cluster


@pytest.fixture(scope="module")
def seg_lattice():
    return build_lattice(segment(120))


@pytest.fixture(scope="module")
def cantor_lattice():
    return build_lattice(cantor4(4), a0=4.0, c0=400.0)


def brute_check(lat):
    """Invariants checked directly against the cell lists, not through
    check_lattice (which is itself under test here)."""
    m = lat.measure if hasattr(lat, "measure") else None
    n_atoms = len(lat.root.point_indices)
    for k in range(lat.max_depth + 1):
        cells = [lat.cell(i) for i in lat.levels[k]]
        seen = np.concatenate([c.point_indices for c in cells])
        assert len(seen) == n_atoms
        assert len(np.unique(seen)) == n_atoms
    # nesting: every child's atoms inside parent's
    for k in range(1, lat.max_depth + 1):
        for c in (lat.cell(i) for i in lat.levels[k]):
            parent = lat.cell(c.parent)
            assert set(c.point_indices) <= set(parent.point_indices)


class TestConstruction:
    def test_level_zero_is_single_root(self, seg_lattice):
        roots = [seg_lattice.cell(i) for i in seg_lattice.levels[0]]
        assert len(roots) == 1
        assert roots[0].id == seg_lattice.root.id

    def test_partition_and_nesting(self, seg_lattice):
        brute_check(seg_lattice)

    def test_cantor_partition_and_nesting(self, cantor_lattice):
        brute_check(cantor_lattice)

    def test_side_lengths_geometric(self, seg_lattice):
        a0 = seg_lattice.a0
        first = seg_lattice.first
        for k in range(seg_lattice.max_depth):
            assert seg_lattice.side[first[k + 1]] == pytest.approx(
                seg_lattice.side[first[k]] / a0, rel=1e-12)
            assert (seg_lattice.side[first[k]:first[k + 1]]
                    == seg_lattice.side[first[k]]).all()

    def test_scale_alignment_on_cantor(self, cantor_lattice):
        # with a0 = 4, levels 2..5 match Cantor generations 1..4 (level 1's
        # net separation still exceeds the diameter, so it stays one cell)
        counts = [len(cantor_lattice.levels[k])
                  for k in range(cantor_lattice.max_depth + 1)]
        assert counts == [1, 1, 4, 16, 64, 256, 256]

    def test_rejects_bad_params(self):
        m = segment(10)
        with pytest.raises(ValueError):
            build_lattice(m, a0=1.0)
        with pytest.raises(ValueError):
            build_lattice(m, c0=1.0)
        with pytest.raises(ValueError):
            build_lattice(m, strict=True)   # needs a0 > 5000 c0

    def test_wide_measure_takes_its_scale(self):
        # s is the largest power of two not above the diameter 100
        pts = np.array([[0.0, 0.0], [100.0, 0.0]])
        lat = build_lattice(WeightedPointMeasure(pts, np.ones(2), 1))
        assert lat.scale == 64.0
        assert lat.levels[0] == [lat.root.id]
        assert lat.root.radius == 64.0
        assert check_lattice(lat)["radius_bracket_ok"]

    def test_deepest_level_singletons(self, seg_lattice):
        for i in seg_lattice.levels[seg_lattice.max_depth]:
            assert len(seg_lattice.cell(i).point_indices) == 1

    def test_chain_walks_root_to_leaf(self, seg_lattice):
        chain = [seg_lattice.cell(i) for i in seg_lattice.assignment[:, 17]]
        assert chain[0].level == 0
        assert chain[-1].level == seg_lattice.max_depth
        for a, b in zip(chain, chain[1:]):
            assert b.parent == a.id
            assert 17 in a.point_indices and 17 in b.point_indices

    def test_assigned_cell_consistent_with_chain(self, seg_lattice):
        for level in (0, 1, seg_lattice.max_depth):
            c = seg_lattice.cells[seg_lattice.assignment[level, 5]]
            assert 5 in c.point_indices
            assert c.level == level


class TestInvariantReport:
    def test_segment_all_green(self, seg_lattice):
        rep = check_lattice(seg_lattice)
        assert rep["partition_ok"]
        assert rep["nesting_ok"]
        assert rep["radius_bracket_ok"]
        assert rep["center_membership_ok"]
        assert rep["five_b_violations"] == 0
        assert rep["diam_upper_ok"]

    def test_cantor_all_green(self, cantor_lattice):
        rep = check_lattice(cantor_lattice)
        assert rep["partition_ok"] and rep["nesting_ok"]
        assert rep["five_b_violations"] == 0
        assert rep["diam_upper_ok"]

    def test_conformity_fraction_small(self, seg_lattice):
        rep = check_lattice(seg_lattice)
        assert rep["nonconforming_fraction"] <= 0.5

    def test_five_b_separation_brute(self, seg_lattice):
        # conforming same-level cells: 5B(Q) and 5B(Q') disjoint (open balls)
        for k in range(seg_lattice.max_depth + 1):
            cells = [seg_lattice.cell(i) for i in seg_lattice.levels[k]
                     if seg_lattice.conforming[i]]
            for i, a in enumerate(cells):
                for b in cells[i + 1:]:
                    gap = np.linalg.norm(a.center - b.center)
                    assert gap >= 5.0 * (a.radius + b.radius) - 1e-12


class TestDoubling:
    def test_flags_match_definition(self, cantor_lattice):
        mu = cantor_lattice.measure
        for k in range(cantor_lattice.max_depth + 1):
            for i in cantor_lattice.levels[k]:
                c = cantor_lattice.cell(i)
                big = mu.ball_mass(c.center, 100.0 * c.radius)
                small = mu.ball_mass(c.center, c.radius)
                assert c.doubling == (big <= cantor_lattice.c0 * small)

    def test_cover_by_doubling_disjoint_cover(self, cantor_lattice):
        root = cantor_lattice.root
        emitted, uncovered = cover_by_doubling(cantor_lattice, root.id)
        atoms = []
        for cid in emitted:
            atoms.extend(cantor_lattice.cell(cid).point_indices)
        atoms.extend(uncovered)
        assert sorted(atoms) == sorted(root.point_indices)
        assert len(set(atoms)) == len(atoms)


class TestBoundary:
    def test_layer_mass_monotone_in_lambda(self, seg_lattice):
        lambdas = (0.02, 0.05, 0.1, 0.2, 1.0)
        for k in range(seg_lattice.max_depth + 1):
            inner, outer = lattice_mod._layer_masses(seg_lattice, k, lambdas)
            assert inner.shape == outer.shape == (
                len(seg_lattice.levels[k]), len(lambdas))
            assert (np.diff(inner, axis=1) >= 0).all()
            assert (np.diff(outer, axis=1) >= 0).all()
        assert inner[:, -1].sum() > 0.0 and outer[:, -1].sum() > 0.0

    def test_audit_returns_requested_lambdas(self, seg_lattice):
        out = boundary_audit(seg_lattice)
        assert list(out) == list(lattice_mod.BOUNDARY_LAMBDAS)
        assert all(v >= 0.0 for v in out.values())


def test_json_dump(tmp_path, seg_lattice):
    path = tmp_path / "lat.json"
    lattice_to_json(seg_lattice, path)
    data = json.loads(path.read_text())
    assert data["a0"] == seg_lattice.a0
    assert data["levels"][0] == [seg_lattice.root.id]
    root_rec = data["cells"][seg_lattice.root.id]
    assert root_rec["n_points"] == len(seg_lattice.root.point_indices)
    assert root_rec["parent"] is None


def test_lipschitz_graph_invariants():
    lat = build_lattice(lipschitz_graph(400, seed=3))
    rep = check_lattice(lat)
    assert rep["partition_ok"] and rep["nesting_ok"]
    assert rep["five_b_violations"] == 0


def test_square_area_invariants():
    lat = build_lattice(square_area(12))
    rep = check_lattice(lat)
    assert rep["partition_ok"] and rep["nesting_ok"]
    assert rep["five_b_violations"] == 0
    assert rep["diam_upper_ok"]


def dense_nearest_center(points, centers):
    """Reference: dense points x centres scan, ties to the earlier centre."""
    n_pts = points.shape[0]
    n_ctr = centers.shape[0]
    out = np.empty(n_pts, dtype=np.int64)
    if n_ctr == 1:
        out[:] = 0
        return out
    chunk = max(1, int(4_000_000 // max(1, n_ctr)))
    for lo in range(0, n_pts, chunk):
        hi = min(lo + chunk, n_pts)
        diff = points[lo:hi, None, :] - centers[None, :, :]
        dist_sq = np.einsum("ijk,ijk->ij", diff, diff)
        out[lo:hi] = np.argmin(dist_sq, axis=1)
    return out


def dense_check_lattice(lattice):
    """Reference audit: set membership and all-pairs cell diameters."""
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
        unit = lattice.scale * lattice.a0 ** (-k)
        for cid in ids:
            cell = lattice.cells[cid]
            seen[cell.point_indices] += 1
            if not (
                unit * (1 - 1e-15)
                <= cell.radius
                <= lattice.c0 * unit * (1 + 1e-15)
            ):
                report["radius_bracket_ok"] = False
            if cell.center_index not in set(cell.point_indices.tolist()):
                report["center_membership_ok"] = False
            if cell.parent is not None:
                parent = lattice.cells[cell.parent]
                if not np.isin(
                    cell.point_indices, parent.point_indices, assume_unique=True
                ).all():
                    report["nesting_ok"] = False
            pts = measure.points[cell.point_indices]
            if pts.shape[0] >= 2:
                diff = pts[:, None, :] - pts[None, :, :]
                diam = float(np.sqrt((diff**2).sum(-1).max()))
                if diam > cell.side * (1 + 1e-12):
                    report["diam_upper_ok"] = False
                if diam < cell.side / (COVER_FACTOR * lattice.c0):
                    report["diam_lower_violations"] += 1
        if not (seen == 1).all():
            report["partition_ok"] = False
        centers = np.array([lattice.cells[c].center for c in ids])
        radii = np.array([lattice.cells[c].radius for c in ids])
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                gap = float(np.linalg.norm(centers[i] - centers[j]))
                if gap < FIVE_B * (radii[i] + radii[j]):
                    report["five_b_violations"] += 1
    report["nonconforming"] = sum(1 for c in lattice.cells if not c.conforming)
    report["nonconforming_fraction"] = report["nonconforming"] / max(
        1, len(lattice.cells)
    )
    return report


def _doubled(measure):
    """Every atom twice: exact zero-distance ties between duplicates."""
    return np.concatenate([measure.points, measure.points[::-1]])


def test_nearest_center_on_lattice_nets():
    m = lipschitz_graph(800, seed=2)
    lat = build_lattice(m)
    order = lattice_mod._lex_order(m.points)
    seeds = []
    for k in range(lat.max_depth + 1):
        net, nearest = lattice_mod._level(
            m, order, NET_FACTOR * lat.scale * lat.a0 ** (-k), seeds)
        assert net == [lat.cell(i).center_index for i in lat.levels[k]]
        np.testing.assert_array_equal(nearest,
                                      dense_nearest_center(m.points,
                                                           m.points[net]))
        seeds = net


@pytest.fixture(scope="module",
                params=["lipschitz_graph", "cantor4", "random_cloud"])
def audit_lattice_args(request):
    if request.param == "cantor4":
        return cantor4(3), {"a0": 4.0, "c0": 400.0}
    if request.param == "random_cloud":
        # some cells here have a farthest-point pair short of the diameter
        pts = np.random.default_rng(0).uniform(size=(300, 2))
        return WeightedPointMeasure(pts, np.full(300, 1 / 300), 1), {}
    return lipschitz_graph(400, seed=3), {}


def _diam_and_rho(pts):
    diff = pts[:, None, :] - pts[None, :, :]
    diam = float(np.sqrt((diff**2).sum(-1).max()))
    return diam, float(np.linalg.norm(pts - pts[0], axis=1).max())


# Per mode: new side of every multi-atom cell from its diameter and C0, and
# whether the audit must fall back to the exact scan on all of those cells
# (True), on none (False) or on those whose farthest-point pair is short of
# the diameter (None).
SIDE_MODES = {
    # diameter above l(Q)(1+1e-12), certified by the realised pair
    "upper_certified": (lambda diam, c0: 0.4 * diam, False),
    # diameter below l(Q)/(28 C0), certified by the 2 rho bound
    "lower_certified": (lambda diam, c0: 2.5 * diam * COVER_FACTOR * c0, False),
    # l(Q)/(28 C0) just above the diameter, inside the bracket
    "lower_straddle": (
        lambda diam, c0: (1 + 1e-10) * diam * COVER_FACTOR * c0, True),
    # l(Q)/(28 C0) just below the diameter: no violation
    "lower_inside": (
        lambda diam, c0: (1 - 1e-10) * diam * COVER_FACTOR * c0, None),
    # l(Q)(1+1e-12) just above the diameter, inside the bracket
    "upper_straddle": (lambda diam, c0: diam, True),
}


@pytest.mark.parametrize("mode", sorted(SIDE_MODES))
def test_check_lattice_matches_dense_oracle(audit_lattice_args, mode,
                                            monkeypatch):
    measure, params = audit_lattice_args
    lat = build_lattice(measure, **params)
    assert check_lattice(lat) == dense_check_lattice(lat)

    side_of, scans_expected = SIDE_MODES[mode]
    multi = 0
    for cell in lat.cells:
        pts = measure.points[cell.point_indices]
        if pts.shape[0] >= 2:
            diam, rho = _diam_and_rho(pts)
            assert rho <= diam <= 2 * rho
            lat.side[cell.id] = side_of(diam, lat.c0)
            multi += 1
    scans = []
    exact = lattice_mod.max_sq_pair_distance
    monkeypatch.setattr(lattice_mod, "max_sq_pair_distance",
                        lambda pts: scans.append(len(pts)) or exact(pts))
    report = check_lattice(lat)
    assert report == dense_check_lattice(lat)
    if scans_expected is not None:
        assert len(scans) == (multi if scans_expected else 0)
    if mode == "upper_certified":
        assert not report["diam_upper_ok"]
    if mode in ("lower_certified", "lower_straddle"):
        assert report["diam_lower_violations"] == multi
    if mode == "lower_inside":
        assert report["diam_lower_violations"] == 0


def test_check_lattice_flags_membership_like_dense_oracle():
    lat = build_lattice(lipschitz_graph(400, seed=3))
    last = lat.cell(lat.levels[1][-1])
    child = lat.cell(last.children[0])
    assert 0 not in last.point_indices
    # atom 0 sorts before every atom of these cells, yet belongs to neither
    lat.center_index[last.id] = 0
    lat.members.reshape(-1)[lat.bounds[child.id]] = 0
    assert child.point_indices[0] == 0
    report = check_lattice(lat)
    assert report == dense_check_lattice(lat)
    assert not report["center_membership_ok"]
    assert not report["nesting_ok"]


def _straddle_sides(lat):
    """Put every multi-atom cell's l(Q) at its diameter, inside the audit's
    bracket, so each takes the exact scan."""
    for cell in lat.cells:
        pts = lat.measure.points[cell.point_indices]
        if pts.shape[0] >= 2:
            lat.side[cell.id] = _diam_and_rho(pts)[0]


def _spy_scans(monkeypatch):
    scans = []
    exact = lattice_mod.max_sq_pair_distance
    monkeypatch.setattr(lattice_mod, "max_sq_pair_distance",
                        lambda pts: scans.append(len(pts)) or exact(pts))
    return scans


def test_audit_scans_collinear_cell_over_its_two_ends(monkeypatch):
    # only the segment's two end atoms can end a longest pair, so the
    # root's exact scan reads two atoms, not all 200
    lat = build_lattice(segment(200))
    root = lat.root
    lat.side[root.id] = _diam_and_rho(
        lat.measure.points[root.point_indices])[0]
    scans = _spy_scans(monkeypatch)
    report = check_lattice(lat)
    assert report == dense_check_lattice(lat)
    assert scans == [2]


def test_audit_scans_two_atom_cell(monkeypatch):
    measure = WeightedPointMeasure([[0.1, 0.2], [0.4, 0.6]], [1.0, 2.0], 1)
    lat = build_lattice(measure)
    _straddle_sides(lat)
    scans = _spy_scans(monkeypatch)
    report = check_lattice(lat)
    assert report == dense_check_lattice(lat)
    assert scans and set(scans) == {2}


def test_audit_of_unsorted_cells_matches_dense_oracle(monkeypatch):
    # the bracket starts from each cell's first listed atom and the exact
    # scan reads the hull of the cell as listed; neither may depend on
    # the atoms being sorted
    pts = np.random.default_rng(5).uniform(size=(300, 2))
    lat = build_lattice(_uniform(pts))
    rng = np.random.default_rng(6)
    members = lat.members.reshape(-1)
    for lo, hi in zip(lat.bounds[:-1], lat.bounds[1:]):
        rng.shuffle(members[lo:hi])
    sizes = np.diff(lat.bounds)
    assert any((np.diff(lat.cell(i).point_indices) < 0).any()
               for i in np.flatnonzero(sizes >= 2))
    assert check_lattice(lat) == dense_check_lattice(lat)
    _straddle_sides(lat)
    scans = _spy_scans(monkeypatch)
    report = check_lattice(lat)
    assert report == dense_check_lattice(lat)
    assert len(scans) == sum(size >= 2 for size in sizes)
    # the 2-d cloud's larger cells are scanned over their hull vertices
    assert sum(scans) < sum(size for size in sizes if size >= 2)


@pytest.mark.parametrize("make", [
    lambda: lipschitz_graph(400, seed=3),
    lambda: square_area(9),
    lambda: segment(400),
    lambda: _uniform(np.random.default_rng(4).uniform(size=(400, 3)), 2),
], ids=["lipschitz_graph", "square_area", "collinear", "cloud_3d"])
def test_five_b_count_matches_dense_oracle_at_widened_radii(make):
    # at the top of the radius bracket, 5 B(Q) of neighbouring cells
    # overlap; the grid puts some centre gaps exactly at the limit, the
    # segment's centres lie on its sweep axis, so every pair's gap is its
    # gap along that axis
    lat = build_lattice(make())
    lat.radius[:] = lat.c0 * lat.radius
    report = check_lattice(lat)
    assert report == dense_check_lattice(lat)
    assert report["radius_bracket_ok"]
    assert report["five_b_violations"] > 0


def test_large_lattice_build_and_audit_memory():
    measure = lipschitz_graph(4096, seed=0)
    tracemalloc.start()
    try:
        lat = build_lattice(measure)
        report = check_lattice(lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["partition_ok"] and report["nesting_ok"]
    assert report["diam_upper_ok"]
    assert peak < 32 * 2**20


# -- cell flags from batched ball queries per level ---------------------------
#
# The flags used to come from two passes, each querying B(Q) on its own for
# every cell; the old bodies are kept here as the oracle.

def old_cell_flags(lattice):
    """(conforming, doubling) per cell, computed by the two old passes."""
    measure = lattice.measure
    conforming, doubling = [], []
    for cell in lattice.cells:
        inside = measure.ball_indices(cell.center, cell.radius)
        member = np.isin(inside, cell.point_indices, assume_unique=True)
        containment_ok = bool(member.all())
        span = np.linalg.norm(
            measure.points[cell.point_indices] - cell.center, axis=1
        )
        covering_ok = bool((span <= COVER_FACTOR * cell.radius).all())
        conforming.append(containment_ok and covering_ok)
    for cell in lattice.cells:
        small = measure.ball_mass(cell.center, cell.radius)
        big = measure.ball_mass(cell.center, DOUBLING_FACTOR * cell.radius)
        doubling.append(bool(big <= lattice.c0 * small))
    return conforming, doubling


def _duplicated_graph():
    graph = lipschitz_graph(150, seed=4)
    return _uniform(np.concatenate([graph.points, graph.points[::3]]))


FLAG_FAMILIES = {
    "cantor4": lambda: build_lattice(cantor4(4), a0=4.0, c0=400.0),
    "two_cluster": lambda: build_lattice(two_cluster(), a0=50.0, c0=4.0),
    "lipschitz_graph": lambda: build_lattice(lipschitz_graph(500, seed=1)),
    "cloud_3d": lambda: build_lattice(_uniform(
        np.random.default_rng(0).uniform(size=(300, 3)), 2)),
    "single_atom": lambda: build_lattice(
        WeightedPointMeasure([[0.3, 0.7]], [1.0], 1)),
    "duplicated": lambda: build_lattice(_duplicated_graph()),
    "segment": lambda: build_lattice(segment(500)),
}


@pytest.mark.parametrize("family", sorted(FLAG_FAMILIES))
def test_cell_flags_match_two_pass_oracle(family):
    lat = FLAG_FAMILIES[family]()
    conforming, doubling = old_cell_flags(lat)
    assert [c.conforming for c in lat.cells] == conforming
    assert [c.doubling for c in lat.cells] == doubling


def old_cover_by_doubling(lattice, cell_id):
    """The stack walk cover_by_doubling used to make over the cells."""
    emitted, uncovered = [], []
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
    if not uncovered:
        return sorted(emitted), np.empty(0, dtype=np.intp)
    return sorted(emitted), np.sort(np.concatenate(uncovered))


@pytest.mark.parametrize("family", sorted(FLAG_FAMILIES))
def test_cover_by_doubling_matches_stack_walk(family):
    lat = FLAG_FAMILIES[family]()
    for cid in range(len(lat.cells)):
        emitted, uncovered = cover_by_doubling(lat, cid)
        old_emitted, old_uncovered = old_cover_by_doubling(lat, cid)
        assert emitted == old_emitted
        assert all(type(i) is int for i in emitted)
        assert uncovered.dtype == old_uncovered.dtype
        assert np.array_equal(uncovered, old_uncovered)


def test_cell_flags_oracle_sees_both_values():
    # the flag oracle only means something if both outcomes occur
    doubling = set()
    conforming = set()
    for make in FLAG_FAMILIES.values():
        lat = make()
        doubling.update(c.doubling for c in lat.cells)
        conforming.update(c.conforming for c in lat.cells)
    assert doubling == {True, False}
    assert True in conforming


def test_close_doubling_tests_take_exact_masses():
    # both sides of the doubling test are taken as ball_mass takes them, so
    # a cell whose mu(100 B(Q)) and C0 mu(B(Q)) lie within rounding of each
    # other is decided exactly; the flag families must hold such a cell, or
    # the oracle above never sees one
    close = 0
    for make in FLAG_FAMILIES.values():
        lat = make()
        measure = lat.measure
        for cell in lat.cells:
            small = lat.c0 * measure.ball_mass(cell.center, cell.radius)
            big = measure.ball_mass(cell.center,
                                    DOUBLING_FACTOR * cell.radius)
            close += abs(big - small) <= 2.0**-50 * (measure.size + 1) * (
                big + small)
    assert close


def test_build_lattice_makes_no_ball_indices_call(monkeypatch):
    # the flags come from batched queries per level, not one query per ball
    calls = []
    original = WeightedPointMeasure.ball_indices

    def counting(self, center, radius):
        calls.append(radius)
        return original(self, center, radius)

    monkeypatch.setattr(WeightedPointMeasure, "ball_indices", counting)
    lat = build_lattice(lipschitz_graph(300, seed=2))
    assert lat.cells and calls == []


# -- one exclusion query per net site -----------------------------------------
#
# Each level's net used to come from a grid hash with a per-atom accept test,
# and each atom's nearest site from a second KD-tree per level; those bodies
# are kept here as the oracle.

def old_greedy_net(points, order, separation, seeds):
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


def old_nearest_center(points, centers):
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


def _uniform(points, n=1):
    return WeightedPointMeasure(points, np.full(len(points), 1 / len(points)),
                                n)


LEVEL_FAMILIES = {
    "square_area": lambda: square_area(9),      # dyadic grid: exact ties
    "cantor4": lambda: cantor4(3),
    "duplicated": lambda: _uniform(_doubled(cantor4(2))),
    "lipschitz_graph": lambda: lipschitz_graph(300, seed=1),
    "cloud_3d": lambda: _uniform(
        np.random.default_rng(0).uniform(size=(300, 3)), 2),
}


def test_level_matches_old_bodies():
    least_tied = False
    for make in LEVEL_FAMILIES.values():
        measure = make()
        points = measure.points
        order = lattice_mod._lex_order(points)
        for a0 in (4.0, 20.0, 50.0):
            seeds = []
            separation = NET_FACTOR
            # down to the first level at which every distinct atom is a site
            while separation * a0 >= measure.r_min:
                net, nearest = lattice_mod._level(measure, order, separation,
                                                  seeds)
                assert net == old_greedy_net(points, order, separation, seeds)
                assert nearest.dtype == np.int64
                np.testing.assert_array_equal(
                    nearest, dense_nearest_center(points, points[net]))
                diff = points[:, None, :] - points[net][None, :, :]
                dist_sq = np.einsum("ijk,ijk->ij", diff, diff)
                least = (dist_sq == dist_sq.min(axis=1, keepdims=True))
                least_tied |= bool((least.sum(axis=1) > 1).any())
                seeds = net
                separation /= a0
    # the tie rule (earlier site wins) is only tested if a tie occurs
    assert least_tied


def test_level_scores_no_lone_slab(monkeypatch):
    """A site whose sweep slab holds only itself closes itself unscored:
    every einsum call scores a slab of two atoms or more."""
    measure = _uniform(np.random.default_rng(0).uniform(size=(300, 2)))
    order = lattice_mod._lex_order(measure.points)
    seeds, _ = lattice_mod._level(measure, order, 0.02, [])
    separation = 0.002
    lo, hi = measure._sweep_index().slabs(measure.points, separation)
    scored = []
    einsum = np.einsum

    def counting(subscripts, *operands, **kwargs):
        scored.append(len(operands[0]))
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", counting)
    net, nearest = lattice_mod._level(measure, order, separation, seeds)
    slabs = (hi - lo)[net]
    assert (slabs == 1).sum() > 0 and (slabs > 1).sum() > 0
    assert len(scored) == (slabs > 1).sum()
    assert min(scored) >= 2
    assert net == old_greedy_net(measure.points, order, separation, seeds)
    np.testing.assert_array_equal(
        nearest, dense_nearest_center(measure.points, measure.points[net]))


def test_deep_max_depth_builds_without_warnings():
    # separations down to 10 * 20^-20 overflowed the old grid hash's int64
    # bucket keys, a RuntimeWarning under the suite's filter
    lat = build_lattice(lipschitz_graph(200), max_depth=20)
    assert lat.max_depth == 20
    report = check_lattice(lat)
    assert report["partition_ok"] and report["nesting_ok"]


def test_too_deep_max_depth_is_a_value_error():
    # at A0 = 20 the squared net separation (10 * 20^-k)^2 underflows to 0
    # past k = 125, and no net site would close even its own atom
    assert build_lattice(segment(20), max_depth=124).max_depth == 124
    with pytest.raises(ValueError, match="max_depth 126"):
        build_lattice(segment(20), max_depth=126)


# -- cell ids from level offsets -----------------------------------------------
#
# build_lattice used to number cells through per-level dictionaries and a
# child-to-parent remap, and to collect each cell's atoms with one scan of
# the level assignment per cell; that body is kept here as the oracle.

def old_bookkeeping(measure, scale, a0, max_depth):
    """(levels, assignment, cells) from the old per-cell bookkeeping; cells
    as (id, level, center_index, parent, children, point_indices)."""
    points = measure.points
    order = lattice_mod._lex_order(points)
    nets, voronoi, seeds = [], [], []
    for k in range(max_depth + 1):
        net = old_greedy_net(points, order, NET_FACTOR * scale * a0 ** (-k),
                             seeds)
        nets.append(net)
        voronoi.append(old_nearest_center(points, points[net]))
        seeds = net
    cells = []
    levels = [[] for _ in range(max_depth + 1)]
    assignment = np.empty((max_depth + 1, measure.size), dtype=np.int64)
    cell_ids_per_level = [dict() for _ in range(max_depth + 1)]
    for k in range(max_depth + 1):
        for local, center_idx in enumerate(nets[k]):
            cid = len(cells)
            cells.append({"id": cid, "level": k,
                          "center_index": int(center_idx), "parent": None,
                          "children": []})
            levels[k].append(cid)
            cell_ids_per_level[k][local] = cid
    assignment[max_depth] = np.array(
        [cell_ids_per_level[max_depth][int(v)] for v in voronoi[max_depth]])
    for k in range(max_depth - 1, -1, -1):
        child_to_parent = {}
        for local, cid in cell_ids_per_level[k + 1].items():
            parent_local = int(voronoi[k][cells[cid]["center_index"]])
            parent_cid = cell_ids_per_level[k][parent_local]
            child_to_parent[cid] = parent_cid
            cells[cid]["parent"] = parent_cid
            cells[parent_cid]["children"].append(cid)
        remap = np.empty(len(cells), dtype=np.int64)
        for cid, pcid in child_to_parent.items():
            remap[cid] = pcid
        assignment[k] = remap[assignment[k + 1]]
    for k in range(max_depth + 1):
        for cid in levels[k]:
            cells[cid]["point_indices"] = np.flatnonzero(
                assignment[k] == cid).astype(np.intp)
    return levels, assignment, cells


BOOKKEEPING_FAMILIES = {
    "lipschitz_graph": lambda: lipschitz_graph(3000),
    "cantor4": lambda: cantor4(5),
    "segment": lambda: segment(1500),
    "square_area": lambda: square_area(30),
}


@pytest.mark.parametrize("family", sorted(BOOKKEEPING_FAMILIES))
def test_cell_bookkeeping_matches_old_body(family):
    measure = BOOKKEEPING_FAMILIES[family]()
    lat = build_lattice(measure)
    levels, assignment, cells = old_bookkeeping(measure, lat.scale, lat.a0,
                                                lat.max_depth)
    assert lat.levels == levels
    assert all(type(i) is int for ids in lat.levels for i in ids)
    assert lat.assignment.dtype == assignment.dtype
    assert np.array_equal(lat.assignment, assignment)
    assert len(lat.cells) == len(cells)
    for cell, old in zip(lat.cells, cells):
        assert (cell.id, cell.level, cell.center_index, cell.parent,
                cell.children) == (old["id"], old["level"],
                                   old["center_index"], old["parent"],
                                   old["children"])
        assert type(cell.id) is int
        assert cell.parent is None or type(cell.parent) is int
        assert cell.point_indices.dtype == old["point_indices"].dtype
        assert np.array_equal(cell.point_indices, old["point_indices"])


# -- boundary audit: level by level on the sweep ---------------------------------
#
# boundary_audit used to take every cell's layers from two KD-trees, over
# the cell and over every atom outside it, for each thickness; that body is
# kept here as the oracle, and every cell's (inner, outer) pair must match.

def old_boundary_layer_mass(lattice, cell, lam):
    measure = lattice.measure
    width = lam * cell.side
    members = cell.point_indices
    outside_mask = np.ones(measure.size, dtype=bool)
    outside_mask[members] = False
    outside = np.flatnonzero(outside_mask)
    if outside.size == 0:
        inner = 0.0
    else:
        tree = cKDTree(measure.points[outside])
        dist, _ = tree.query(measure.points[members], k=1)
        inner = float(np.sum(measure.weights[members][dist <= width]))
    ring = measure.ball_indices(cell.center, 4.0 * COVER_FACTOR * cell.radius)
    ring = ring[~np.isin(ring, members, assume_unique=True)]
    if ring.size == 0:
        outer = 0.0
    else:
        tree_q = cKDTree(measure.points[members])
        dist, _ = tree_q.query(measure.points[ring], k=1)
        outer = float(np.sum(measure.weights[ring][dist <= width]))
    return inner, outer


def old_boundary_audit(lattice, lambdas):
    measure = lattice.measure
    out = {}
    for lam in lambdas:
        worst = 0.0
        for cell in lattice.cells:
            denom = measure.ball_mass(
                cell.center,
                lattice_mod.BOUNDARY_BALL_FACTOR * COVER_FACTOR * cell.radius)
            if denom == 0.0:
                continue
            inner, outer = old_boundary_layer_mass(lattice, cell, lam)
            worst = max(worst, (inner + outer) / (math.sqrt(lam) * denom))
        out[float(lam)] = worst
    return out


AUDIT_LAMBDAS = (0.2, 0.1, 0.05, 0.02)
AUDIT_FAMILIES = {
    "segment": lambda: build_lattice(segment(300)),
    "cantor4": lambda: build_lattice(cantor4(4), a0=4.0, c0=400.0),
    "lipschitz_graph": lambda: build_lattice(lipschitz_graph(300, seed=2)),
    # grid ties along and across the sweep axis
    "square_area": lambda: build_lattice(square_area(9)),
    "cloud_3d": lambda: build_lattice(_uniform(
        np.random.default_rng(0).uniform(size=(300, 3)), 2)),
    "duplicated": lambda: build_lattice(_duplicated_graph()),
    "single_atom": lambda: build_lattice(
        WeightedPointMeasure([[0.3, 0.7]], [1.0], 1)),
    # l(Q) = 22400 r(Q): the layers reach far beyond 4 B_Q
    "wide_layers": lambda: build_lattice(lipschitz_graph(300, seed=2),
                                         a0=4.0, c0=400.0),
}


@pytest.mark.parametrize("family", sorted(AUDIT_FAMILIES))
def test_boundary_audit_matches_old_body(family):
    lat = AUDIT_FAMILIES[family]()
    new = boundary_audit(lat)
    assert new == old_boundary_audit(lat, AUDIT_LAMBDAS)
    assert list(new) == list(AUDIT_LAMBDAS)
    # one atom has no boundary at all
    assert any(v > 0.0 for v in new.values()) == (family != "single_atom")
    for k in range(lat.max_depth + 1):
        inner, outer = lattice_mod._layer_masses(lat, k, AUDIT_LAMBDAS)
        for j, cell in enumerate(lat.cell(i) for i in lat.levels[k]):
            assert list(zip(inner[j], outer[j])) == [
                old_boundary_layer_mass(lat, cell, lam)
                for lam in AUDIT_LAMBDAS]


def test_segment_sums_match_np_sum():
    rng = np.random.default_rng(3)
    # lengths below, at and past numpy's blocks of 8 and 128 terms
    sizes = rng.choice([0, 1, 2, 7, 8, 9, 127, 128, 129, 300, 1000], 60)
    values = rng.random(sizes.sum()) * 10.0 ** rng.integers(-8, 8,
                                                            sizes.sum())
    row = np.repeat(np.arange(sizes.size), sizes)
    sums = segment_sums(values, row, sizes.size)
    starts = np.cumsum(sizes) - sizes
    assert sums.tolist() == [np.sum(values[a:a + n])
                             for a, n in zip(starts, sizes)]


def test_unique_is_np_unique():
    """Sorted distinct entries or rows and their counts, as np.unique gives
    them: -0.0 and 0.0 are one value, rows compare lexicographically."""
    rng = np.random.default_rng(11)
    cases = [
        rng.integers(-5, 5, 200),
        np.concatenate((rng.choice([-1.5, 0.25, 3.0], 50),
                        [0.0, -0.0, -0.0, 0.0, 5e-324, -5e-324])),
        np.array([-0.0, 0.0]),
        # duplicated rows, and rows equal up to the sign of a zero
        rng.choice([-1.0, -0.0, 0.0, 2.0], (120, 3)),
        np.array([[0.0, -0.0], [-0.0, 0.0], [1.0, -1.0]]),
        rng.choice(np.arange(4) * 7, (50, 2)),
        np.zeros(0),
        np.zeros(0, dtype=np.intp),
        np.zeros((0, 2)),
    ]
    for values in cases:
        axis = 0 if values.ndim == 2 else None
        want, want_counts = np.unique(values, axis=axis, return_counts=True)
        got, counts = unique(values, counts=True)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(counts, want_counts)
        assert np.array_equal(unique(values), np.unique(values, axis=axis))


def test_ordered_sum_is_the_python_loop():
    rng = np.random.default_rng(5)
    # magnitudes far apart, so the order of the additions shows
    values = rng.random((300, 4)) * 10.0 ** rng.integers(-8, 8, (300, 4))
    for column in values.T:
        total = 0.0
        for value in column:
            total += value
        assert ordered_sum(column) == total
    rows = np.zeros(4)
    for row in values:
        rows = rows + row
    assert ordered_sum(values).tolist() == rows.tolist()
    assert ordered_sum(values[:1]).tolist() == values[0].tolist()


@pytest.mark.parametrize("family", sorted(FLAG_FAMILIES))
def test_masses_are_np_sum_over_each_cell(family):
    lat = FLAG_FAMILIES[family]()
    weights = lat.measure.weights
    assert lat.masses(np.arange(len(lat.cells))).tolist() == [
        np.sum(weights[cell.point_indices]) for cell in lat.cells]
