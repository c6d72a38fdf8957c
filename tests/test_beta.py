import functools
import math

import numpy as np
import pytest

from betascope import (Ball, WeightedPointMeasure, beta2, beta_profile_rows,
                       build_corona, build_lattice, condition_check,
                       jones_field, jones_integral, lipschitz_graph,
                       main_lemma_check, riesz_kernel, segment,
                       t1_ball_check, verify_checks)
from betascope import beta as beta_module
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


def _symmetric(d1, e, d2):
    """A stack of symmetric 2 x 2 matrices [[d1, e], [e, d2]]."""
    return np.stack((np.stack((d1, e), -1), np.stack((e, d2), -1)), -2)


def _normal_products(rng, size, count=2):
    """Sums of ``count`` products of normals, each stack scaled by 2^k,
    |k| <= 40: only IEEE sums, products and exact scalings."""
    g = rng.standard_normal((2 * count, size))
    total = g[0] * g[1]
    for a, b in zip(g[2::2], g[3::2]):
        total = total + a * b
    return np.ldexp(total, rng.integers(-40, 41, size))


@functools.cache
def _lapack_batches():
    """Seeded batches of symmetric 2 x 2 matrices, by kind."""
    rng = np.random.default_rng(2024)
    size = 4000
    a, b, c, d = (np.ldexp(rng.standard_normal(size),
                           rng.integers(-20, 21, size)) for _ in range(4))
    # Gram matrices of [[a, b], [c, d]] rows: positive semi-definite,
    # scaled exactly from about 1e-150 (2^-498) to about 1e140 (2^465)
    psd = _symmetric(a * a + b * b, a * c + b * d, c * c + d * d)
    batches = {f"psd-2^{k}": np.ldexp(psd, k) for k in range(-498, 466, 33)}
    batches["indefinite"] = _symmetric(*(_normal_products(rng, size)
                                         for _ in range(3)))
    # d1 + d2 = 0: dlae2's own branch for a zero trace
    batches["traceless"] = _symmetric(a * b, c * d, -(a * b))
    # v v^T plus a small multiple of e2 e2^T: one eigenvalue near 0
    tilt = np.ldexp(rng.standard_normal(size) * rng.standard_normal(size),
                    -30)
    batches["near-rank-1"] = _symmetric(a * a, a * c, c * c + tilt * d * d)
    # |e| at sqrt|d1| sqrt|d2| 2^-53, where the matrix splits, and one ulp
    # either side: the split and the QL/QR sweep's e^2 test round apart
    e = np.ldexp(a * c, -53)
    batches["coupling-at-split"] = np.concatenate([
        _symmetric(a * a, coupling, -(c * c)) for coupling in
        (e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf))])
    signs = np.array([0.0, -0.0])
    zero = np.array([(x, y, z) for x in signs for y in signs for z in signs])
    batches["zero"] = _symmetric(*zero.T)
    # diagonal entries of either sign and signed zeros, with e = +-0; and
    # signed zero diagonals around e != 0, where d1 + d2 is 0 or -0
    diag = np.concatenate((a[:50], -b[:50], signs))
    d1, d2 = (m.ravel() for m in np.meshgrid(diag, diag))
    batches["diagonal"] = np.concatenate(
        (_symmetric(d1, np.zeros_like(d1), d2),
         _symmetric(d1, np.full_like(d1, -0.0), d2),
         _symmetric(*(m.ravel() for m in np.meshgrid(signs, a[:50], signs)))))
    # largest entries outside [2^-405, 2^485], where LAPACK rescales:
    # unscaled normals keep every largest entry within 2^-15 to 2^6
    x, y, z, w = rng.standard_normal((4, size))
    plain = np.concatenate((_symmetric(x * x + y * y, x * z + y * w,
                                       z * z + w * w),
                            _symmetric(x * y, z * w, -(x * w))))
    batches["rescaled"] = np.concatenate([np.ldexp(plain, k)
                                          for k in (-440, -420, 500, 510)])
    return batches


@pytest.mark.parametrize("kind", sorted(_lapack_batches()))
def test_eigvalsh2_is_lapack_bit_for_bit(kind):
    """Planar fits use LAPACK's 2 x 2 arithmetic in numpy; every
    eigenvalue has LAPACK's bits, and no floating-point error is raised."""
    cov = _lapack_batches()[kind]
    with np.errstate(all="raise"):
        ours = beta_module._eigvalsh2(cov[:, 0, 0], cov[:, 1, 0],
                                      cov[:, 1, 1])
        lapack = np.linalg.eigvalsh(cov)
    assert ours.shape == lapack.shape
    assert np.array_equal(ours.view(np.int64), lapack.view(np.int64))


def test_rescaled_batch_leaves_the_arithmetic_range():
    top = np.abs(_lapack_batches()["rescaled"]).max(axis=(1, 2))
    lo, hi = beta_module._EIG2_RANGE
    assert ((top < lo) | (top > hi)).all()
    assert (top < lo).any() and (top > hi).any()


def test_only_spatial_fits_call_lapack(monkeypatch):
    """The planar flatness path makes no eigvalsh call; d = 3 does."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def spy(matrices):
        calls.append(len(matrices))
        return eigvalsh(matrices)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    graph = lipschitz_graph(80, seed=1)
    jones_field(graph)
    assert calls == []
    rng = np.random.default_rng(3)
    cloud = WeightedPointMeasure(rng.uniform(size=(40, 3)), np.ones(40), 1)
    jones_field(cloud)
    assert sum(calls) > 0
