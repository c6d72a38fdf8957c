import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betascope import (Ball, WeightedPointMeasure, cantor4, lipschitz_graph,
                       load_csv, load_json, riesz_kernel, save_csv, save_json,
                       segment, square_area, t_phi_star, truncated_field)
from betascope import measure as measure_mod
from betascope.beta import jones_integrals
from betascope._util import diameter_candidates


def old_ball_indices(measure, center, radius):
    """Sorted atom indices of the closed ball B(center, radius) from a naive
    norm scan of every atom, the arithmetic every ball query stands for."""
    if measure.is_empty:
        return np.empty(0, dtype=np.intp)
    center = np.asarray(center, dtype=float).reshape(-1)
    if center.shape[0] != measure.dim:
        raise ValueError(f"center has dim {center.shape[0]}, "
                         f"expected {measure.dim}")
    radius = float(radius)
    if radius < 0:
        return np.empty(0, dtype=np.intp)
    dist = np.linalg.norm(measure.points - center, axis=1)
    return np.flatnonzero(dist <= radius)


# one call per query that takes centres, on a planar measure m
CENTRE_QUERIES = {
    "truncated_field": lambda m, c: truncated_field(
        riesz_kernel(1, 2), m, c, [0.1]),
    "t_phi_star": lambda m, c: t_phi_star(
        riesz_kernel(1, 2), m, c, np.zeros(np.atleast_2d(c).shape[0]),
        np.zeros(m.size)),
    "jones_integrals": lambda m, c: jones_integrals(m, c, m.r_min, 1.0),
    "sup_density": lambda m, c: m.sup_density(c, 0.1),
    "ball_batches": lambda m, c: list(m.ball_batches(c, 0.1)),
}


def small_measure(seed=0, m=30, d=2):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(m, d))
    w = np.exp(rng.uniform(-2.0, 1.0, size=m))
    return WeightedPointMeasure(pts, w, d - 1)


def _far(offset):
    """Atoms within about 20 ulps of (offset, ..., offset), and balls of
    radius about 1e-7, a few ulps of a coordinate near 1e8."""
    def make(rng, d):
        pts = offset + rng.uniform(-3e-7, 3e-7, size=(60, d))
        centers = np.concatenate(
            [pts[::2], offset + rng.uniform(-3e-7, 3e-7, size=(20, d))])
        return pts, centers, rng.uniform(0.5e-7, 2e-7, len(centers))
    return make


def _duplicates(rng, d):
    pts = rng.uniform(-1.0, 1.0, size=(40, d))
    pts = np.concatenate([pts, pts[:15], pts[:5]])
    centers = np.concatenate([pts[::2], rng.uniform(-1, 1, size=(10, d))])
    return pts, centers, rng.uniform(0.0, 0.8, len(centers))


def _one_site(rng, d):
    """Every atom at one site: all share the sweep coordinate."""
    pts = np.tile(rng.uniform(-1.0, 1.0, size=d), (30, 1))
    centers = np.concatenate([pts[:1], pts[:1] + rng.normal(
        scale=1e-3, size=(8, d))])
    return pts, centers, rng.uniform(0.0, 2e-3, len(centers))


def _columns(rng, d):
    """A grid: whole columns share the sweep coordinate."""
    axes = [np.linspace(0.0, 1.0, 9)] + [np.linspace(0.0, 0.5, 5)] * (d - 1)
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, d)
    centers = np.concatenate([pts[::4], rng.uniform(0, 1, size=(10, d))])
    return pts, centers, rng.uniform(0.0, 0.4, len(centers))


def _underflow(rng, d):
    """Atoms about 1e-160 apart, whose squared gaps are subnormal."""
    pts = rng.uniform(-1e-160, 1e-160, size=(30, d))
    centers = np.concatenate([pts[::2], rng.uniform(-1e-160, 1e-160,
                                                    size=(10, d))])
    radii = rng.uniform(0.0, 1e-160, len(centers))
    radii[1::4] = 0.0
    return pts, centers, radii


MARGIN_CASES = {"offset+1e8": _far(1e8), "offset-1e8": _far(-1e8),
                "duplicates": _duplicates, "one_site": _one_site,
                "columns": _columns, "underflow": _underflow}


class TestConstruction:
    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            WeightedPointMeasure(np.zeros((3, 2)), np.array([1.0, -1.0, 1.0]), 1)
        with pytest.raises(ValueError):
            WeightedPointMeasure(np.zeros((3, 2)), np.array([1.0, 0.0, 1.0]), 1)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            WeightedPointMeasure(np.zeros((3, 2)), np.ones(2), 1)

    @pytest.mark.parametrize("weights", [np.ones((3, 1)), 1.0],
                             ids=["column", "scalar"])
    def test_rejects_weights_off_the_atoms(self, weights):
        with pytest.raises(ValueError, match="one number per atom"):
            WeightedPointMeasure(np.zeros((3, 2)), weights, 1)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            WeightedPointMeasure(np.array([[np.nan, 0.0]]), np.ones(1), 1)
        with pytest.raises(ValueError):
            WeightedPointMeasure(np.zeros((2, 2)), np.array([1.0, np.inf]), 1)

    def test_rejects_bad_target_dim(self):
        with pytest.raises(ValueError):
            WeightedPointMeasure(np.zeros((3, 2)), np.ones(3), 0)
        # a fractional n is no growth degree; int() would truncate it
        for n in (1.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="must be an integer"):
                WeightedPointMeasure([[0, 0], [1, 0]], [1, 1], n)
        # n = d is allowed (full-dimensional density)
        m = WeightedPointMeasure(np.arange(6.0).reshape(3, 2), np.ones(3), 2)
        assert m.target_dim == 2

    def test_r_min_default_is_half_min_gap(self):
        m = segment(5)
        assert m.r_min == pytest.approx(0.125, abs=0.0)

    def test_r_min_fallback_single_atom(self):
        m = WeightedPointMeasure(np.zeros((1, 2)), np.ones(1), 1)
        assert m.r_min == 1.0

    def test_empty_measure(self):
        e = WeightedPointMeasure(np.empty((0, 2)), np.empty(0), 1, r_min=1.0)
        assert e.is_empty
        assert e.total_mass == 0.0
        assert e.diameter == 0.0
        assert e.ball_mass((0.0, 0.0), 5.0) == 0.0

    def test_empty_points_must_have_two_axes(self):
        # (0, d) builds the empty sentinel; an empty array of another rank
        # is rejected, not reshaped to (0, 1)
        e = WeightedPointMeasure(np.empty((0, 2)), [], 1)
        assert e.is_empty and e.dim == 2
        with pytest.raises(ValueError,
                           match=r"^points must be an \(N, d\) array$"):
            WeightedPointMeasure(np.empty((0, 2, 3)), [], 1)

    def test_empty_measure_takes_the_radial_pass(self):
        e = WeightedPointMeasure(np.empty((0, 2)), [], 1)
        assert e.sup_density((0.0, 0.0), 0.5) == 0.0
        assert e.growth_constant() == 0.0
        assert e.annulus_tail((0.0, 0.0), 1.0) == 0.0


class TestBallMass:
    def test_closed_ball_includes_boundary(self):
        m = WeightedPointMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]),
                                 np.array([0.25, 0.5]), 1)
        assert m.ball_mass((0.0, 0.0), 1.0) == 0.75
        assert m.ball_mass((0.0, 0.0), 1.0 - 1e-12) == 0.25

    def test_matches_brute_force(self):
        m = small_measure(3)
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.uniform(-1.2, 1.2, size=2)
            r = rng.uniform(0.05, 2.0)
            d = np.linalg.norm(m.points - x, axis=1)
            assert m.ball_mass(x, r) == pytest.approx(
                float(m.weights[d <= r].sum()), abs=1e-15)

    def test_ball_indices_sorted(self):
        m = small_measure(2)
        idx = m.ball_indices(m.points[4], 0.7)
        assert list(idx) == sorted(idx)
        d = np.linalg.norm(m.points - m.points[4], axis=1)
        assert set(idx) == set(np.nonzero(d <= 0.7)[0])

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 10])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_ball_batches_equal_ball_indices(self, monkeypatch, chunk, d):
        # chunk = 1 puts every centre in a chunk of its own; duplicates
        # and atoms exactly at a radius make the norm test decide; both
        # the batches and ball_indices must give the old per-centre body
        monkeypatch.setattr(measure_mod, "BALL_CHUNK_ENTRIES", chunk)
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1.0, 1.0, size=(40, d))
        pts = np.concatenate([pts, pts[:10]])
        m = WeightedPointMeasure(pts, np.ones(len(pts)), 1)
        centers = np.concatenate([pts[::3], rng.uniform(-1, 1, (20, d))])
        radii = rng.uniform(0.0, 1.5, len(centers))
        radii[::4] = np.linalg.norm(pts[0] - centers[::4], axis=1)
        radii[1] = 0.0
        seen = 0
        for at, atoms, dist, bounds in m.ball_batches(centers, radii):
            assert bounds[0] == 0 and bounds[-1] == atoms.size == dist.size
            for j in range(bounds.size - 1):
                c, r = centers[at + j], radii[at + j]
                ball = atoms[bounds[j]:bounds[j + 1]]
                assert np.array_equal(ball, old_ball_indices(m, c, r))
                assert np.array_equal(m.ball_indices(c, r), ball)
                assert np.array_equal(dist[bounds[j]:bounds[j + 1]],
                                      np.linalg.norm(pts[ball] - c, axis=1))
            seen += bounds.size - 1
        assert seen == len(centers)
        # one radius for every centre
        one = [a for _, a, _, _ in m.ball_batches(centers, 0.4)]
        assert np.array_equal(np.concatenate(one), np.concatenate(
            [old_ball_indices(m, c, 0.4) for c in centers]))

    @pytest.mark.parametrize("chunk", [1, 1 << 10])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("case", sorted(MARGIN_CASES))
    def test_ball_batches_equal_naive_scan_at_the_margins(self, monkeypatch,
                                                          case, d, chunk):
        # each ball's sweep slab must hold every atom the norm test keeps,
        # including where the coordinates' rounding is wider than a ball
        monkeypatch.setattr(measure_mod, "BALL_CHUNK_ENTRIES", chunk)
        rng = np.random.default_rng(d)
        pts, centers, radii = MARGIN_CASES[case](rng, d)
        # radii exactly at an atom's distance
        radii[::3] = np.linalg.norm(
            pts[rng.integers(len(pts), size=radii[::3].size)] - centers[::3],
            axis=1)
        m = WeightedPointMeasure(pts, np.ones(len(pts)), 1)
        seen = at_radius = 0
        for at, atoms, dist, bounds in m.ball_batches(centers, radii):
            for j in range(bounds.size - 1):
                c, r = centers[at + j], radii[at + j]
                ball = atoms[bounds[j]:bounds[j + 1]]
                assert np.array_equal(ball, old_ball_indices(m, c, r))
                assert np.array_equal(dist[bounds[j]:bounds[j + 1]],
                                      np.linalg.norm(pts[ball] - c, axis=1))
                at_radius += int(np.count_nonzero(
                    dist[bounds[j]:bounds[j + 1]] == r))
            seen += bounds.size - 1
        assert seen == len(centers)
        assert at_radius > 0

    def test_ball_indices_guards_match_old_body(self):
        m = small_measure(5)
        # a negative radius leaves an empty slab
        for radius in (-1e-300, -0.5, -1.0, -math.inf):
            got = m.ball_indices(m.points[0], radius)
            assert got.dtype == np.intp and got.size == 0
            assert np.array_equal(got, old_ball_indices(m, m.points[0],
                                                        radius))
        empty = m.restrict_ball(Ball((5.0, 5.0), 0.1))
        for radius in (0.0, 1.0, -1.0):
            got = empty.ball_indices((0.0, 0.0), radius)
            assert got.dtype == np.intp and got.size == 0
            assert np.array_equal(got, old_ball_indices(empty, (0.0, 0.0),
                                                        radius))
        for center in ((0.0,), (0.0, 0.0, 0.0)):
            for query in (m.ball_indices,
                          lambda c, r: old_ball_indices(m, c, r)):
                with pytest.raises(ValueError, match="center has dim"):
                    query(center, 1.0)

    @pytest.mark.parametrize("query", sorted(CENTRE_QUERIES))
    @pytest.mark.parametrize("centers", [np.zeros((2, 3)), np.zeros((2, 2, 2)),
                                         [0.1, 0.2, 0.3, 0.4], 0.5])
    def test_every_centre_query_takes_one_shape_rule(self, query, centers):
        """A centre is (d,) or (m, d): an array of other rows is rejected,
        not reshaped into rows of d coordinates."""
        with pytest.raises(ValueError, match="center has dim .*, expected 2"):
            CENTRE_QUERIES[query](segment(20), centers)


class TestSupDensity:
    def test_matches_breakpoint_brute_force(self):
        m = small_measure(5)
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, size=2)
            floor = rng.uniform(0.02, 0.3)
            d = np.sort(np.linalg.norm(m.points - x, axis=1))
            cands = np.concatenate([[floor], d[d >= floor]])
            brute = max(m.ball_mass(x, r) / r for r in cands)
            assert m.sup_density(x, floor) == pytest.approx(brute, rel=1e-13)

    def test_floor_must_be_positive(self):
        m = small_measure(0)
        with pytest.raises(ValueError):
            m.sup_density(m.points[0], 0.0)


class TestGrowthAndTail:
    def test_exact_growth_constant_is_breakpoint_sup(self):
        m = small_measure(5)
        exact = m.growth_constant(exact=True)
        brute = 0.0
        for x in m.points:
            d = np.sort(np.linalg.norm(m.points - x, axis=1))
            for r in np.concatenate([[m.r_min], d[d >= m.r_min]]):
                brute = max(brute, m.ball_mass(x, r) / r)
        assert exact == pytest.approx(brute, rel=1e-13)

    def test_growth_constant_has_only_the_exact_mode(self):
        with pytest.raises(ValueError, match="exact sup only"):
            small_measure(8).growth_constant(exact=False)

    def test_annulus_tail_brute_force_and_strictness(self):
        m = small_measure(9)
        x = m.points[0]
        r = 0.3
        d = np.linalg.norm(m.points - x, axis=1)
        brute = float(np.sum(m.weights[d > r] / d[d > r] ** 2))
        assert m.annulus_tail(x, r) == pytest.approx(brute, rel=1e-14)
        # strict inequality: an atom exactly at distance r contributes nothing
        m2 = WeightedPointMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]),
                                  np.array([1.0, 1.0]), 1)
        assert m2.annulus_tail((0.0, 0.0), 1.0) == 0.0

    def test_annulus_tail_rejects_a_centre_of_the_wrong_dim(self):
        m = segment(10)
        # the same check as every ball query, not a silent broadcast
        for query in (m.ball_mass, m.annulus_tail):
            with pytest.raises(ValueError, match="center has dim 1, expected 2"):
                query([0.5], 0.1)

    def test_tail_bound_constant(self):
        assert small_measure(0).tail_bound_constant() == 4.0
        m3 = WeightedPointMeasure(np.zeros((1, 3)), np.ones(1), 2)
        assert m3.tail_bound_constant() == 8.0


class TestRestriction:
    def test_restrict_ball_keeps_boundary(self):
        m = segment(5)
        sub = m.restrict_ball(Ball((0.0, 0.0), 0.5))
        assert sub.size == 3
        assert sub.total_mass == pytest.approx(0.6)

    def test_restrict_predicate(self):
        m = small_measure(4)
        # the atoms within 0.9 of (1, 0) all have x > 0.1
        sub = m.restrict_ball(Ball((1.0, 0.0), 0.9))
        assert 0 < sub.size < m.size
        assert (sub.points[:, 0] > 0.0).all()
        assert sub.total_mass <= m.total_mass

    def test_restrict_ball_empty_ok(self):
        m = small_measure(4)
        sub = m.restrict_ball(Ball((5.0, 5.0), 0.1))
        assert sub.is_empty
        assert sub.r_min == m.r_min


class TestSerialization:
    def test_csv_round_trip_exact(self, tmp_path):
        m = small_measure(12, m=40, d=3)
        path = tmp_path / "m.csv"
        save_csv(m, path)
        back = load_csv(path)
        assert np.array_equal(back.points, m.points)
        assert np.array_equal(back.weights, m.weights)
        assert back.target_dim == m.target_dim
        assert back.r_min == m.r_min

    def test_json_round_trip_exact(self, tmp_path):
        m = small_measure(13)
        path = tmp_path / "m.json"
        save_json(m, path)
        back = load_json(path)
        assert np.array_equal(back.points, m.points)
        assert np.array_equal(back.weights, m.weights)

    @pytest.mark.parametrize("points, weights, message", [
        ([[0.0, 0.0], [1.0, 0.0]], [[1.0, 2.0]], "one number per atom"),
        ([[0.0, 0.0], [1.0, 0.0]], [[1.0], [2.0]], "one number per atom"),
        ([[0.0, 0.0]], 5.0, "one number per atom"),
        ([], [], "no atoms"),
    ], ids=["row", "column", "scalar", "empty"])
    def test_json_rejects_weights_off_the_atoms(self, tmp_path, points,
                                                weights, message):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"dim": 2, "n": 1, "points": points,
                                    "weights": weights}))
        with pytest.raises(ValueError, match=message):
            load_json(path)

    def test_csv_header_carries_dims(self, tmp_path):
        m = small_measure(1)
        path = tmp_path / "m.csv"
        save_csv(m, path)
        head = path.read_text().splitlines()[0]
        assert "dim=2" in head and "n=1" in head

    def test_malformed_csv_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("dim=2,n=1\n0.0,0.0,1.0\n0.5,oops,1.0\n")
        with pytest.raises(ValueError, match=r":3:"):
            load_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("x,y,w\n0.0,0.0,1.0\n")
        with pytest.raises(ValueError, match="header"):
            load_csv(path)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(
        st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False),
        st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False),
        st.floats(1e-9, 1e9)), min_size=1, max_size=12))
    def test_round_trip_bitexact_hypothesis(self, rows):
        import tempfile
        pts = np.array([[a, b] for a, b, _ in rows])
        w = np.array([c for _, _, c in rows])
        m = WeightedPointMeasure(pts, w, 1)
        with tempfile.TemporaryDirectory() as tmp:
            path = tmp + "/m.csv"
            save_csv(m, path)
            back = load_csv(path)
        assert np.array_equal(back.points, m.points)
        assert np.array_equal(back.weights, m.weights)


def test_diameter_matches_brute_force():
    # segment(2500) is collinear, and neither the filter nor the scan of
    # its candidates may take O(N^2) memory
    for m in (small_measure(21, m=25), segment(2500)):
        pts = m.points
        brute = max(np.linalg.norm(pts - p, axis=1).max() for p in pts)
        tracemalloc.start()
        try:
            diameter = m.diameter
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert diameter == pytest.approx(brute, rel=1e-14)
        assert peak < 32 * 2**20


# -- resolution and diameter without scipy -----------------------------------
#
# r_min came from a KD-tree's nearest neighbours and the diameter from the
# convex hull's vertices; both are now numpy scans, checked bit for bit
# against a KD-tree query and a dense all-pairs scan.

def _rotated(measure, angle=0.3):
    c, s = math.cos(angle), math.sin(angle)
    return WeightedPointMeasure(measure.points @ np.array([[c, s], [-s, c]]),
                                measure.weights, measure.target_dim)


def _line(count, dim, axis):
    pts = np.zeros((count, dim))
    pts[:, axis] = np.linspace(0.0, 1.0, count)
    return WeightedPointMeasure(pts, np.full(count, 1.0 / count), 1)


def _sweep_inputs():
    rng = np.random.default_rng(7)
    dup = rng.uniform(size=(300, 2))
    dup = np.concatenate([dup, dup[::3], dup[:1]])
    angles = np.linspace(0.0, 2.0 * math.pi, 400, endpoint=False)
    circle = np.column_stack([np.cos(angles), np.sin(angles)])
    return {
        "lipschitz": lipschitz_graph(1500, seed=2),
        "cantor_rotated": _rotated(cantor4(5)),
        "segment_horizontal": _line(1500, 2, 0),
        "segment_vertical": _line(1500, 2, 1),
        "square": square_area(30),
        "duplicates": WeightedPointMeasure(dup, np.ones(len(dup)), 1),
        "d1": WeightedPointMeasure(rng.uniform(size=(500, 1)),
                                   np.ones(500), 1),
        "d3": WeightedPointMeasure(rng.normal(size=(800, 3)),
                                   np.ones(800), 2),
        "two_atoms": WeightedPointMeasure([[0.1, 0.2], [0.4, 0.6]],
                                          [1.0, 2.0], 1),
        "circle": WeightedPointMeasure(circle, np.ones(400), 1),
    }


SWEEP_INPUTS = _sweep_inputs()


@pytest.mark.parametrize("name", sorted(SWEEP_INPUTS))
def test_r_min_equals_the_kd_tree_nearest_pair(name):
    from scipy.spatial import cKDTree
    measure = SWEEP_INPUTS[name]
    unique = np.unique(measure.points, axis=0)
    dist, _ = cKDTree(unique).query(unique, k=2)
    assert measure.r_min == 0.5 * float(np.min(dist[:, 1]))


@pytest.mark.parametrize("name", sorted(SWEEP_INPUTS))
def test_diameter_equals_the_dense_scan(name):
    pts = SWEEP_INPUTS[name].points
    # one row against all rows at a time: a dense scan's arithmetic
    dense = max(float(((pts - p) ** 2).sum(-1).max()) for p in pts)
    assert SWEEP_INPUTS[name].diameter == math.sqrt(dense)


@pytest.mark.parametrize("dim", [8, 12])
def test_r_min_of_eight_coordinates_or_more_equals_the_dense_scan(dim):
    # from 8 coordinates on, (diff**2).sum(-1) adds the squares pairwise
    # rather than in order, and the last bit of a distance can differ
    for seed in range(20):
        pts = np.random.default_rng(seed).uniform(size=(40, dim))
        m = WeightedPointMeasure(pts, np.ones(40), 1)
        others = (np.delete(pts, i, axis=0) - p for i, p in enumerate(pts))
        dense = min(float((diff**2).sum(-1).min()) for diff in others)
        assert m.r_min == 0.5 * math.sqrt(dense)
        assert m.diameter == math.sqrt(
            max(float(((pts - p) ** 2).sum(-1).max()) for p in pts))


def test_r_min_falls_back_when_the_squared_gap_underflows():
    m = WeightedPointMeasure([[0.0, 0.0], [0.0, 1.5e-258]], [1.0, 1.0], 1)
    assert m.r_min == 1.0


@pytest.mark.parametrize("far", [1.5e154, 1e160])
def test_diameter_overflows_to_inf_like_the_dense_scan(far):
    # at 1.5e154 only the pair's squared distance overflows, at 1e160
    # the distances to the box centre too
    m = WeightedPointMeasure([[0.0, 0.0], [far, 0.0]], [1.0, 1.0], 1,
                             r_min=1.0)
    with np.errstate(over="ignore"):
        assert m.diameter == math.inf


def test_r_min_ignores_a_far_site_whose_square_overflows():
    # the KD-tree gave 0.5 without a warning; the suite fails on one
    m = WeightedPointMeasure([[0.0, 0.0], [1.0, 0.0], [1e160, 0.0]],
                             [1.0, 1.0, 1.0], 1)
    assert m.r_min == 0.5


def test_diameter_candidates_of_a_segment_are_its_ends():
    m = segment(500)
    ends = diameter_candidates(m.points)
    assert sorted(ends[:, 0].tolist()) == [0.0, 1.0]
