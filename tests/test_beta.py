import math

import numpy as np
import pytest

from betascope import (Ball, WeightedPointMeasure, beta2, beta_profile_rows,
                       build_corona, build_lattice, condition_check,
                       jones_field, jones_integral, lipschitz_graph,
                       main_lemma_check, riesz_kernel, segment,
                       t1_ball_check, verify_checks)
from betascope.beta import _checked_jones_grid, jones_integrals
from conftest import oracle_beta2, random_instance


class TestBeta2:
    def test_matches_oracle_planar(self):
        rng = np.random.default_rng(42)
        for _ in range(8):
            m, ball = random_instance(rng, 2)
            assert beta2(m, ball).value == pytest.approx(
                oracle_beta2(m, ball), abs=1e-10)

    def test_matches_oracle_spatial(self):
        rng = np.random.default_rng(43)
        for _ in range(8):
            m, ball = random_instance(rng, 3)
            assert beta2(m, ball).value == pytest.approx(
                oracle_beta2(m, ball), abs=1e-10)

    def test_zero_on_collinear(self):
        t = np.linspace(0.0, 1.0, 37)
        pts = np.stack([t, 2.0 * t + 0.3], axis=1)
        m = WeightedPointMeasure(pts, np.exp(np.sin(t)), 1)
        r = beta2(m, Ball((0.5, 1.3), 0.9))
        assert r.value <= 1e-12

    def test_zero_on_coplanar(self):
        rng = np.random.default_rng(9)
        uv = rng.uniform(-1.0, 1.0, size=(40, 2))
        origin = np.array([0.3, -0.2, 0.5])
        e1 = np.array([1.0, 2.0, -1.0]) / math.sqrt(6.0)
        e2 = np.array([1.0, 0.0, 1.0]) / math.sqrt(2.0)
        pts = origin + uv[:, :1] * e1 + uv[:, 1:] * e2
        m = WeightedPointMeasure(pts, rng.uniform(0.5, 2.0, 40), 2)
        r = beta2(m, Ball(tuple(origin), 1.5))
        assert r.value <= 1e-12

    def test_density_bound(self):
        # beta_2(B)^2 <= 4 theta(B): atoms in B are within 2r of the plane
        rng = np.random.default_rng(77)
        for _ in range(30):
            m, ball = random_instance(rng, 2)
            res = beta2(m, ball)
            theta = m.ball_mass(ball.center, ball.radius) / \
                ball.radius ** m.target_dim
            assert res.value ** 2 <= 4.0 * theta + 1e-12

    def test_scaling_of_mass(self):
        # beta^2 is linear in the measure under mu -> c mu
        rng = np.random.default_rng(15)
        m, ball = random_instance(rng, 2)
        scaled = WeightedPointMeasure(m.points, 3.0 * m.weights,
                                      m.target_dim, r_min=m.r_min)
        a = beta2(m, ball).value
        b = beta2(scaled, ball).value
        assert b ** 2 == pytest.approx(3.0 * a ** 2, rel=1e-12)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(16)
        m, ball = random_instance(rng, 2)
        c, s = math.cos(0.7), math.sin(0.7)
        rot = np.array([[c, -s], [s, c]])
        shift = np.array([5.0, -3.0])
        moved = WeightedPointMeasure(m.points @ rot.T + shift, m.weights,
                                     m.target_dim, r_min=m.r_min)
        moved_ball = Ball(tuple(rot @ np.asarray(ball.center) + shift),
                          ball.radius)
        assert beta2(moved, moved_ball).value == pytest.approx(
            beta2(m, ball).value, rel=1e-10, abs=1e-14)

    def test_single_atom_fits_perfectly(self):
        m = WeightedPointMeasure(np.zeros((1, 2)), np.ones(1), 1)
        r = beta2(m, Ball((0.0, 0.0), 1.0))
        assert r.plane_point is not None
        assert r.value == 0.0

    def test_empty_ball_is_degenerate(self):
        m = WeightedPointMeasure(np.zeros((1, 2)), np.ones(1), 1)
        r = beta2(m, Ball((10.0, 10.0), 1.0))
        assert r.plane_point is None
        assert r.value == 0.0

    def test_plane_witness_returned(self):
        rng = np.random.default_rng(4)
        m, ball = random_instance(rng, 2)
        r = beta2(m, ball)
        if r.plane_point is not None:
            assert r.plane_basis.shape == (1, 2)
            nrm = np.linalg.norm(r.plane_basis[0])
            assert nrm == pytest.approx(1.0, abs=1e-12)


class TestJones:
    def test_grid_spacing(self):
        m = segment(40)
        radii, log_rho = _checked_jones_grid(m, m.r_min, 4.0 * m.r_min, 4)
        assert radii[0] == 4.0 * m.r_min and radii[-1] > m.r_min
        assert np.allclose(radii[1:] / radii[:-1], 2.0 ** -0.25, rtol=1e-12)
        assert radii.size == 8 and log_rho == math.log(2.0 ** 0.25)

    def test_integral_matches_direct_sum(self):
        # a non-flat input, so both sides are far from 0.0
        m = lipschitz_graph(60, seed=1)
        x = m.points[11]
        lo, hi = m.r_min, m.diameter
        radii, log_rho = _checked_jones_grid(m, lo, hi, 4)
        direct = 0.0
        for r in radii:
            b = beta2(m, Ball(tuple(x), float(r)))
            theta = m.ball_mass(x, float(r)) / float(r)
            direct += b.value ** 2 * theta * log_rho
        got = jones_integral(m, x, lo, hi, scales_per_octave=4)
        assert got > 1e-3
        assert got == pytest.approx(direct, rel=1e-10)

    def test_flat_set_has_tiny_energy(self):
        m = segment(80)
        field = jones_field(m)
        assert field.shape == (80,)
        assert field.max() <= 1e-20

    def test_empty_span_integrates_to_zero(self):
        m = segment(20)
        for r_hi in (m.r_min, 0.5 * m.r_min):
            assert np.array_equal(
                jones_integrals(m, m.points, m.r_min, r_hi), np.zeros(20))
            assert jones_integral(m, m.points[3], m.r_min, r_hi) == 0.0
            assert np.array_equal(jones_field(m, m.r_min, r_hi),
                                  np.zeros(20))
            # and the profile rows, over the same grid, hold no row
            assert beta_profile_rows(m, m.points[:3], m.r_min,
                                     r_hi) == [[]] * 3
        # the flatness floor lies above the diameter of a single atom
        one = WeightedPointMeasure(np.zeros((1, 2)), np.ones(1), 1)
        assert np.array_equal(jones_field(one), np.zeros(1))
        assert beta_profile_rows(one, one.points, one.r_min,
                                 one.diameter) == [[]]

    def test_r_lo_below_r_min_raises_whatever_r_hi_is(self):
        m = segment(20)
        for r_hi in (m.diameter, 0.25 * m.r_min):
            with pytest.raises(ValueError, match="need r_min <= r_lo"):
                jones_integral(m, m.points[0], 0.5 * m.r_min, r_hi)
            with pytest.raises(ValueError, match="need r_min <= r_lo"):
                beta_profile_rows(m, m.points[:3], 0.25 * m.r_min, r_hi)


def test_condition_check_keys():
    m = segment(25)
    rec = condition_check(m, Ball((0.5, 0.0), 0.5))
    for key in ("mass", "atoms", "degenerate", "total"):
        assert key in rec
    assert rec["atoms"] >= 2
    assert not rec["degenerate"]


def test_condition_check_below_resolution_keeps_the_density():
    # a ball no wider than r_min has an empty span but holds mass
    m = segment(25)
    for radius in (m.r_min, 0.5 * m.r_min):
        rec = condition_check(m, Ball(tuple(m.points[4]), radius))
        assert rec["mass"] > 0.0
        assert rec["total"] == 0.0
        assert rec["degenerate"]
    two = WeightedPointMeasure([[0.0, 0.0], [1.0, 0.0]], [1.0, 1.0], 1)
    rec = condition_check(two, Ball((0.5, 0.0), two.r_min))
    assert rec["atoms"] == 2 and rec["total"] == 0.0 and rec["degenerate"]
    assert rec["sup_density"] == two.growth_constant()


def test_beta_profile_rows_columns():
    m = segment(30)
    rows = beta_profile_rows(m, m.points[3:4], m.r_min, m.diameter)[0]
    assert len(rows) >= 4
    for r, beta, theta in rows:
        assert r > 0 and beta >= 0 and theta >= 0


@pytest.mark.parametrize("reader", [
    lambda m, kernel, corona: main_lemma_check(m, kernel, 0),
    lambda m, kernel, corona: verify_checks(kernel, corona, 0),
    lambda m, kernel, corona: t1_ball_check(
        m, kernel, [Ball(m.points[0], m.diameter)], 0),
    lambda m, kernel, corona: jones_field(m, scales_per_octave=0),
    lambda m, kernel, corona: beta_profile_rows(m, m.points[:3], m.r_min,
                                                m.diameter, 0),
    lambda m, kernel, corona: jones_integrals(m, m.points, m.r_min,
                                              m.diameter, 0),
], ids=["main_lemma_check", "verify_checks", "t1_ball_check", "jones_field",
        "beta_profile_rows", "jones_integrals"])
def test_every_flatness_reader_checks_scales_per_octave(reader):
    m = lipschitz_graph(50)
    corona = build_corona(build_lattice(m))
    with pytest.raises(ValueError, match="^scales_per_octave must be >= 1$"):
        reader(m, riesz_kernel(1, 2), corona)
