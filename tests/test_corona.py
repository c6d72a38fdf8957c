import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betascope import (Ball, TreeGeometry, WeightedPointMeasure, beta2,
                       build_corona, build_lattice, cantor4, check_lattice,
                       corona_to_json, lipschitz_graph, packing_audit,
                       segment, tree_density_audit)
from betascope import corona as corona_mod
from betascope import operators
from betascope.corona import DENSITY_BALL_FACTOR
from betascope.lattice import COVER_FACTOR, SIDE_FACTOR
from conftest import two_cluster
from test_lattice import dense_check_lattice, old_cell_flags


@pytest.fixture(scope="module")
def cantor_corona():
    lat = build_lattice(cantor4(4), a0=4.0, c0=400.0)
    return build_corona(lat, a_stop=30.0, tau=0.005)


@pytest.fixture(scope="module")
def cluster_corona():
    lat = build_lattice(two_cluster(), a0=50.0, c0=4.0)
    return build_corona(lat, a_stop=30.0, tau=0.12)


@pytest.fixture(scope="module")
def graph_corona():
    lat = build_lattice(lipschitz_graph(500, seed=1))
    return build_corona(lat, a_stop=30.0, tau=0.12)


def good_points(corona, top):
    """Atoms of the top's cell in no stop below it, in member order."""
    stopped = set()
    for s in corona.stops[top]:
        stopped.update(corona.lattice.cells[s].point_indices.tolist())
    return [a for a in corona.lattice.cells[top].point_indices.tolist()
            if a not in stopped]


class TestStructure:
    def test_param_validation(self):
        lat = build_lattice(segment(30))
        with pytest.raises(ValueError):
            build_corona(lat, a_stop=1.0)
        with pytest.raises(ValueError):
            build_corona(lat, tau=0.0)

    def test_trees_partition_cells(self, cantor_corona):
        lat = cantor_corona.lattice
        all_cells = set()
        for k in range(lat.max_depth + 1):
            all_cells.update(lat.levels[k])
        seen = []
        for top in cantor_corona.tops:
            seen.extend(cantor_corona.trees[top])
        assert sorted(seen) == sorted(all_cells)

    def test_root_is_first_top(self, cantor_corona):
        assert cantor_corona.root_id == cantor_corona.tops[0]
        root = cantor_corona.lattice.cell(cantor_corona.root_id)
        assert root.level == 0

    def test_owner_consistency(self, cantor_corona):
        # each tree member's owner points at its top
        for top in cantor_corona.tops:
            for cid in cantor_corona.trees[top]:
                assert cantor_corona.owner[cid] == top

    def test_stop_cells_are_child_tops(self, cantor_corona):
        lat = cantor_corona.lattice
        for top in cantor_corona.tops:
            for s in cantor_corona.stops[top]:
                assert s in cantor_corona.tops
                parent = lat.cell(s).parent
                assert parent is not None
                assert cantor_corona.owner[parent] == top

    def test_quiet_measure_single_tree(self):
        # cantor4 at the default parameters never meets either stopping
        # rule at desk scale, so the whole lattice is one tree
        lat = build_lattice(cantor4(3))
        cor = build_corona(lat)
        assert len(cor.tops) == 1
        assert cor.stops[cor.root_id] == []
        assert cor.triggered == {}

    def test_good_points_complement_of_stops(self, cluster_corona):
        lat = cluster_corona.lattice
        root = cluster_corona.root_id
        stopped = set()
        for s in cluster_corona.stops[root]:
            stopped.update(lat.cell(s).point_indices)
        n = len(lat.root.point_indices)
        good = sorted(set(range(n)) - stopped)
        gm = cluster_corona.good_masses()[0]
        assert gm == pytest.approx(
            float(lat.measure.weights[list(good)].sum())
            if len(good) else 0.0)


class TestDensityStops:
    def test_cluster_forces_density_stops(self, cluster_corona):
        # the sunflower blob must trigger high-density stopping
        assert len(cluster_corona.tops) > 1
        trig = [t for t, kind in cluster_corona.triggered.items()
                if kind == "density"]
        assert len(trig) >= 1

    def test_density_trigger_definition(self, cluster_corona):
        lat = cluster_corona.lattice
        mu = lat.measure
        a_stop = cluster_corona.a_stop
        for cid, kind in cluster_corona.triggered.items():
            if kind != "density":
                continue
            top = cluster_corona.owner[lat.cell(cid).parent]
            ref = cluster_corona.theta_ref[top]
            c = lat.cell(cid)
            ball = Ball(c.center, 28.0 * 1.1 * c.radius)
            theta = mu.ball_mass(ball.center, ball.radius) / ball.radius
            assert theta > a_stop * ref


class TestFlatnessStops:
    def test_chain_sums_exceed_tau(self, cantor_corona):
        lat = cantor_corona.lattice
        tau = cantor_corona.tau
        for cid, kind in cantor_corona.triggered.items():
            if kind != "flatness":
                continue
            # walk ancestors up to (and excluding) the owning top,
            # accumulating the precomputed flatness terms
            top = cantor_corona.owner[lat.cell(cid).parent]
            total = 0.0
            cur = cid
            while cur is not None and cur != top:
                total += cantor_corona.beta_terms[cur]
                cur = lat.cell(cur).parent
            assert total > tau

    def test_beta_term_values(self, cantor_corona):
        from betascope import beta2
        lat = cantor_corona.lattice
        mu = lat.measure
        cell = lat.cell(lat.levels[3][0])
        ball = Ball(cell.center, 28.0 * 1.1 * cell.radius)
        r = max(ball.radius, mu.r_min)
        use = Ball(tuple(ball.center), r)
        b = beta2(mu, use).value
        theta = mu.ball_mass(use.center, use.radius) / use.radius
        assert cantor_corona.beta_terms[cell.id] == pytest.approx(
            b * b * theta, rel=1e-12)


class TestTreeGeometry:
    def test_d_r_one_lipschitz(self, cluster_corona):
        geo = TreeGeometry(cluster_corona, cluster_corona.root_id)
        rng = np.random.default_rng(8)
        pts = rng.uniform(-0.2, 1.2, size=(2000, 2))
        qts = pts + rng.normal(scale=0.1, size=pts.shape)
        da = geo.d_r(pts)
        db = geo.d_r(qts)
        gap = np.linalg.norm(pts - qts, axis=1)
        assert (np.abs(da - db) <= gap + 1e-12).all()

    def test_d_r_vanishes_only_off_tree(self, cantor_corona):
        geo = TreeGeometry(cantor_corona, cantor_corona.root_id)
        mu = cantor_corona.lattice.measure
        vals = geo.d_r(mu.points)
        assert vals.shape == (mu.size,)
        assert (vals >= 0.0).all()

    def test_phi_is_scaled_d_r(self, cluster_corona):
        geo = TreeGeometry(cluster_corona, cluster_corona.root_id)
        a0 = cluster_corona.lattice.a0
        pts = np.random.default_rng(3).uniform(size=(50, 2))
        assert np.allclose(geo.phi(pts),
                           geo.d_r(pts) / (20.0 * a0 * a0), rtol=1e-14)

    def test_regularized_cells_disjoint(self, cluster_corona):
        geo = TreeGeometry(cluster_corona, cluster_corona.root_id)
        lat = cluster_corona.lattice
        reg = geo.regularize()
        seen = set()
        for cid in reg:
            atoms = set(lat.cell(cid).point_indices)
            assert not atoms & seen
            seen.update(atoms)

    def test_b0_ball_contains_good_atoms(self, cluster_corona):
        geo = TreeGeometry(cluster_corona, cluster_corona.root_id)
        ball = geo.b0
        lat = cluster_corona.lattice
        mu = lat.measure
        good = good_points(cluster_corona, cluster_corona.root_id)
        if len(good):
            d = np.linalg.norm(mu.points[list(good)] - ball.center, axis=1)
            assert (d <= ball.radius + 1e-12).all()


class TestAudits:
    def test_packing_audit_fields(self, cantor_corona):
        rec = packing_audit(cantor_corona)
        assert rec["lhs"] > 0.0
        assert rec["rhs"] > 0.0
        assert rec["ratio"] == pytest.approx(rec["lhs"] / rec["rhs"])
        assert rec["tops"] == len(cantor_corona.tops)

    def test_packing_lhs_brute_force(self, cantor_corona):
        rec = packing_audit(cantor_corona)
        lat = cantor_corona.lattice
        mu = lat.measure
        brute = 0.0
        for top in cantor_corona.tops:
            c = lat.cell(top)
            theta = mu.ball_mass(c.center, 28.0 * c.radius) / (28.0 * c.radius)
            brute += theta ** 2 * float(mu.weights[c.point_indices].sum())
        assert rec["lhs"] == pytest.approx(brute, rel=1e-12)

    def test_tree_density_audit(self, cluster_corona):
        rec = tree_density_audit(cluster_corona)
        assert type(rec) is float
        assert rec >= 1.0 or rec == 0.0


def test_corona_json_dump(tmp_path, cantor_corona):
    import json
    path = tmp_path / "corona.json"
    corona_to_json(cantor_corona, path)
    data = json.loads(path.read_text())
    assert data["top"][0] == cantor_corona.root_id
    assert data["a_stop"] == cantor_corona.a_stop
    assert str(cantor_corona.root_id) in data["trees"] or \
        cantor_corona.root_id in map(int, data["trees"])


# -- stored ball statistics ---------------------------------------------------
#
# The audits used to query every ball again; those recomputing bodies are
# kept here as oracles, and the stored values must equal them bit for bit.

CORONAS = ["cantor_corona", "cluster_corona", "graph_corona"]


def old_theta(measure, center, radius):
    return measure.ball_mass(center, radius) / radius**measure.target_dim


def old_theta_ref(corona, top):
    cell = corona.lattice.cells[top]
    return old_theta(corona.measure, cell.center, COVER_FACTOR * cell.radius)


def old_theta_big(corona, cid):
    cell = corona.lattice.cells[cid]
    radius = max(DENSITY_BALL_FACTOR * COVER_FACTOR * cell.radius,
                 corona.measure.r_min)
    return old_theta(corona.measure, cell.center, radius)


def old_tree_density_audit(corona):
    worst = 0.0
    for top, ids in corona.trees.items():
        ref = old_theta_ref(corona, top)
        for cid in ids:
            worst = max(worst, old_theta_big(corona, cid) / ref)
    return worst


def old_packing_term(corona, top):
    cell = corona.lattice.cells[top]
    return old_theta_ref(corona, top) ** 2 * float(
        np.sum(corona.measure.weights[cell.point_indices]))


@pytest.mark.parametrize("name", CORONAS)
def test_masses_are_np_sum_over_cells_and_good_points(request, name):
    corona = request.getfixturevalue(name)
    weights = corona.measure.weights
    assert corona.lattice.masses(corona.tops).tolist() == [
        np.sum(weights[corona.lattice.cells[top].point_indices])
        for top in corona.tops]
    assert corona.good_masses() == [np.sum(weights[good_points(corona, top)])
                                    for top in corona.tops]


@pytest.mark.parametrize("name", CORONAS)
def test_stored_densities_match_recomputed(request, name):
    corona = request.getfixturevalue(name)
    for top in corona.tops:
        assert corona.theta_ref[top] == old_theta_ref(corona, top)
    for cell in corona.lattice.cells:
        assert corona.theta_big[cell.id] == old_theta_big(corona, cell.id)
    assert tree_density_audit(corona) == old_tree_density_audit(corona)
    trees = corona_to_json(corona)["trees"]
    for top in corona.tops:
        assert trees[str(top)]["packing_term"] == old_packing_term(corona, top)


@pytest.mark.parametrize("name", CORONAS)
def test_packing_audit_matches_recomputed(request, name):
    corona = request.getfixturevalue(name)
    rec = packing_audit(corona, scales_per_octave=2)
    lhs = 0.0
    for top in corona.tops:
        lhs += old_packing_term(corona, top)
    assert rec["lhs"] == lhs
    assert rec["rhs"] == (old_packing_term(corona, corona.root_id)
                          + rec["jones_energy"])


@pytest.mark.parametrize("audit", [tree_density_audit, packing_audit])
def test_audits_query_no_balls(monkeypatch, cluster_corona, audit):
    calls = []
    original = WeightedPointMeasure.ball_indices

    def counting(self, center, radius):
        calls.append(radius)
        return original(self, center, radius)

    monkeypatch.setattr(WeightedPointMeasure, "ball_indices", counting)
    audit(cluster_corona)
    assert calls == []


# -- ball statistics from one batched query per level ---------------------------
#
# build_corona used to query 1.1 B_Q once per cell for beta2 and B_R once per
# top for theta(B_R); that body is kept here as the oracle.

def old_ball_statistics(lattice):
    """(beta_terms, theta_big) per cell, one beta2 ball query each."""
    measure = lattice.measure
    n = measure.target_dim
    beta_terms = np.empty(len(lattice.cells))
    theta_big = np.empty(len(lattice.cells))
    for cell in lattice.cells:
        radius = max(DENSITY_BALL_FACTOR * COVER_FACTOR * cell.radius,
                     measure.r_min)
        res = beta2(measure, Ball(cell.center, radius))
        theta_big[cell.id] = res.mass / radius**n
        beta_terms[cell.id] = res.value**2 * theta_big[cell.id]
    return beta_terms, theta_big


def old_theta_refs(corona):
    """theta(B_R) per top, one ball_mass query each."""
    measure = corona.measure
    refs = []
    for top in corona.tops:
        cell = corona.lattice.cells[top]
        radius = COVER_FACTOR * cell.radius
        refs.append(measure.ball_mass(cell.center, radius)
                    / radius**measure.target_dim)
    return refs


@st.composite
def small_measures(draw):
    """1-200 atoms in the unit cube of R^d, d <= 3, some of them repeated."""
    dim = draw(st.integers(1, 3))
    count = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = draw(st.integers(1, count))
    points = rng.uniform(size=(distinct, dim))
    if draw(st.booleans()):
        # coarse coordinates: exact distance ties between distinct atoms
        points = np.round(points * 8) / 8
    points = points[np.concatenate([np.arange(distinct),
                                    rng.integers(distinct,
                                                 size=count - distinct)])]
    if draw(st.booleans()):
        weights = np.full(count, 1.0 / count)
    else:
        weights = rng.uniform(0.5, 2.0, size=count)
    return WeightedPointMeasure(points, weights,
                                draw(st.integers(1, dim)))


@settings(max_examples=30, deadline=None)
@given(measure=small_measures(),
       a0=st.sampled_from([4.0, 20.0]),
       c0=st.sampled_from([4.0, 400.0]),
       tau=st.sampled_from([0.005, 0.12]))
def test_level_batches_match_per_cell_bodies(measure, a0, c0, tau):
    lat = build_lattice(measure, a0=a0, c0=c0)
    conforming, doubling = old_cell_flags(lat)
    assert [c.conforming for c in lat.cells] == conforming
    assert [c.doubling for c in lat.cells] == doubling
    assert check_lattice(lat) == dense_check_lattice(lat)
    corona = build_corona(lat, a_stop=30.0, tau=tau)
    beta_terms, theta_big = old_ball_statistics(lat)
    assert np.array_equal(corona.beta_terms, beta_terms)
    assert np.array_equal(corona.theta_big, theta_big)
    assert np.array_equal([corona.theta_ref[t] for t in corona.tops],
                          old_theta_refs(corona))


def test_build_corona_queries_no_single_balls(monkeypatch, cluster_corona):
    calls = []
    original = WeightedPointMeasure.ball_indices

    def counting(self, center, radius):
        calls.append(radius)
        return original(self, center, radius)

    monkeypatch.setattr(WeightedPointMeasure, "ball_indices", counting)
    corona = build_corona(cluster_corona.lattice, a_stop=30.0, tau=0.12)
    assert calls == []
    assert corona.tops == cluster_corona.tops


# -- regularized family from one reduction over the member arrays ------------
#
# TreeGeometry.regularize used to walk each candidate atom's chain cell by
# cell, taking each cell's least d_R over its atoms on first use; that body is
# kept here as the oracle.

def old_regularize(geo):
    lattice = geo.lattice
    dr = geo.d_r(geo.measure.points)
    reg_factor = corona_mod.REG_FACTOR
    floor = reg_factor * SIDE_FACTOR * lattice.c0 * (
        lattice.scale * lattice.a0 ** -lattice.max_depth)
    candidates = geo.measure.ball_indices(geo.b0.center, geo.b0.radius)
    candidates = candidates[dr[candidates] > floor]
    cell_min = {}
    chosen = set()
    for atom in candidates:
        for level in range(lattice.max_depth + 1):
            cell = lattice.cells[lattice.assignment[level, atom]]
            if cell.id not in cell_min:
                cell_min[cell.id] = float(np.min(dr[cell.point_indices]))
            if cell.side <= cell_min[cell.id] / reg_factor:
                chosen.add(cell.id)
                break
    return sorted(chosen)


# at l(Q) <= min d_R / 60 the chosen cells on these fixtures come out the
# same if the rule reads each cell's largest d_R; at l(Q) <= 50 min d_R
# they do not
@pytest.mark.parametrize("reg_factor", [corona_mod.REG_FACTOR, 0.02])
@pytest.mark.parametrize("name", CORONAS)
def test_regularize_matches_per_atom_walk(request, monkeypatch, name,
                                          reg_factor):
    monkeypatch.setattr(corona_mod, "REG_FACTOR", reg_factor)
    corona = request.getfixturevalue(name)
    found = 0
    for top in corona.tops:
        geo = TreeGeometry(corona, top)
        reg = geo.regularize()
        assert reg == old_regularize(geo)
        assert all(type(cid) is int for cid in reg)
        found += len(reg)
    # the comparison means nothing unless some family is non-empty
    assert found or name != "cluster_corona"


# -- trees, stops and chains from the owner and parent arrays ----------------
#
# CoronaTree used to collect its trees and stops in loops over the cells and
# tops, and the tree operator to look each level's cell up atom by atom;
# those bodies are kept here as the oracle.

def old_trees_and_stops(corona):
    trees = {t: [] for t in corona.tops}
    for cell in corona.lattice.cells:
        trees[int(corona.owner[cell.id])].append(cell.id)
    stops = {t: [] for t in corona.tops}
    for t in corona.tops:
        parent = corona.lattice.cells[t].parent
        if parent is not None:
            stops[int(corona.owner[parent])].append(t)
    return trees, stops


def old_chain_levels(corona, top_id, atom):
    lattice = corona.lattice
    levels = []
    for level in range(lattice.cells[top_id].level, lattice.max_depth + 1):
        if int(corona.owner[lattice.assignment[level, atom]]) != top_id:
            break
        levels.append(level)
    return levels


@pytest.mark.parametrize("name", CORONAS)
def test_trees_stops_and_chains_match_cell_loops(request, name):
    corona = request.getfixturevalue(name)
    trees, stops = old_trees_and_stops(corona)
    assert list(corona.trees.items()) == list(trees.items())
    assert list(corona.stops.items()) == list(stops.items())
    assert all(type(i) is int for ids in corona.trees.values() for i in ids)
    for top in corona.tops:
        for atom in corona.lattice.cells[top].point_indices.tolist():
            assert (operators._chain_levels(corona, top, atom)
                    == old_chain_levels(corona, top, atom))
    outside = np.setdiff1d(np.arange(corona.measure.size),
                           corona.lattice.cells[corona.tops[-1]].point_indices)
    if outside.size:
        with pytest.raises(ValueError, match="not in cell"):
            operators._chain_levels(corona, corona.tops[-1], int(outside[0]))


def test_beta2_runs_only_on_balls_of_two_atoms(monkeypatch):
    """A 1.1 B_Q that holds one atom holds only the centre: build_corona
    fills it without beta2 and calls beta2 once per other cell."""
    lat = build_lattice(lipschitz_graph(3000))
    measure = lat.measure
    crowded = 0
    for k in range(lat.max_depth + 1):
        ids = np.arange(*lat.first[k:k + 2])
        radius = max(DENSITY_BALL_FACTOR * COVER_FACTOR * lat.radius[ids[0]],
                     measure.r_min)
        for start in range(0, ids.size, 200):
            centers = measure.points[lat.center_index[ids[start:start + 200]]]
            dist = np.linalg.norm(
                measure.points[None, :, :] - centers[:, None, :], axis=2)
            crowded += int(np.count_nonzero((dist <= radius).sum(axis=1) > 1))
    sizes = []
    original = corona_mod.beta2

    def counting(measure, ball, indices=None):
        sizes.append(indices.size)
        return original(measure, ball, indices)

    monkeypatch.setattr(corona_mod, "beta2", counting)
    build_corona(lat)
    assert (len(lat.cells), crowded) == (3803, 803)
    assert len(sizes) == crowded
    assert min(sizes) >= 2
