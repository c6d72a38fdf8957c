import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betascope import (Ball, WeightedPointMeasure, load_csv, load_json,
                       save_csv, save_json, segment)


def small_measure(seed=0, m=30, d=2):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(m, d))
    w = np.exp(rng.uniform(-2.0, 1.0, size=m))
    return WeightedPointMeasure(pts, w, d - 1)


class TestConstruction:
    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            WeightedPointMeasure(np.zeros((3, 2)), np.array([1.0, -1.0, 1.0]), 1)
        with pytest.raises(ValueError):
            WeightedPointMeasure(np.zeros((3, 2)), np.array([1.0, 0.0, 1.0]), 1)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            WeightedPointMeasure(np.zeros((3, 2)), np.ones(2), 1)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            WeightedPointMeasure(np.array([[np.nan, 0.0]]), np.ones(1), 1)
        with pytest.raises(ValueError):
            WeightedPointMeasure(np.zeros((2, 2)), np.array([1.0, np.inf]), 1)

    def test_rejects_bad_target_dim(self):
        with pytest.raises(ValueError):
            WeightedPointMeasure(np.zeros((3, 2)), np.ones(3), 0)
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

    def test_grid_estimate_never_exceeds_exact(self):
        m = small_measure(8)
        grid = np.geomspace(m.r_min, m.diameter, 60)
        assert m.growth_constant(scale_grid=grid) <= \
            m.growth_constant(exact=True) + 1e-12

    def test_grid_below_r_min_rejected(self):
        m = small_measure(8)
        with pytest.raises(ValueError):
            m.growth_constant(scale_grid=[m.r_min / 2.0])

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
        sub = m.restrict_mask(m.points[:, 0] > 0.0)
        assert (sub.points[:, 0] > 0.0).all()
        assert sub.total_mass <= m.total_mass

    def test_restrict_mask_empty_ok(self):
        m = small_measure(4)
        sub = m.restrict_mask(np.zeros(m.size, dtype=bool))
        assert sub.is_empty


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


def test_ball_scaled():
    b = Ball((1.0, 2.0), 1.5)
    s = b.scaled(2.0)
    assert s.radius == 3.0
    assert np.array_equal(np.asarray(s.center), np.asarray(b.center))


def test_diameter_matches_brute_force():
    # segment(2500) is collinear: the hull fails and every atom is scanned,
    # which must not take O(N^2) memory
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
