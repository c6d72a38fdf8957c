import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betascope import (BumpFamily, CZKernel, KernelValidationError,
                       WeightedPointMeasure, build_corona, build_lattice,
                       cantor4, cauchy_kernel, k_r_chain, k_r_telescoped,
                       lipschitz_graph, m_tilde, make_kernel, riesz_kernel,
                       segment, suppressed_kernel, t_phi_eps, t_phi_star,
                       truncated_field, validate_kernel)
from betascope import operators
from betascope.measure import RadialBlock


class TestKernels:
    def test_riesz_pointwise_values(self):
        k = riesz_kernel(1, 2)
        out = k(np.array([[1.0, 0.0], [0.0, 2.0]]))
        assert np.allclose(out[0], [1.0, 0.0])
        assert np.allclose(out[1], [0.0, 0.5])          # z/|z|^2 at (0,2)

    def test_cauchy_matches_complex_inverse(self):
        k = cauchy_kernel()
        z = np.array([[0.3, -0.7], [1.0, 1.0]])
        out = k(z)
        for row, (x, y) in zip(out, z):
            w = 1.0 / complex(x, y)
            # vector form of the Cauchy kernel: (Re, Im) mirrored so that
            # |k| = 1/|z| and the energy matches the complex transform
            assert np.hypot(*row) == pytest.approx(abs(w), rel=1e-14)

    def test_riesz_antisymmetry_bitwise(self):
        k = riesz_kernel(1, 2)
        z = np.random.default_rng(0).normal(size=(50, 2))
        assert np.array_equal(k(-z), -k(z))

    def test_constants_certified(self):
        # validator reports worst observed/claimed ratio per bound; the
        # stated constants are exact, so every ratio stays near one
        for n, d in [(1, 2), (2, 3), (1, 3)]:
            rep = validate_kernel(riesz_kernel(n, d))
            assert rep["oddness"][0] == 0.0
            for key in ("size", "gradient", "hessian"):
                assert rep[key][0] <= 1.0 + 1e-5, (n, d, key, rep[key])

    def test_bad_constants_caught(self):
        fn = riesz_kernel(1, 2).fn
        with pytest.raises(KernelValidationError):
            validate_kernel(CZKernel("understated", 1, 2, 2, fn,
                                     (0.01, 0.01, 0.01)))

    def test_make_kernel_named(self):
        k = make_kernel("riesz", n=2, d=3)
        assert k.n == 2 and k.dim == 3
        with pytest.raises(ValueError):
            make_kernel("custom", n=1, d=2)

    @pytest.mark.parametrize("kernel", [riesz_kernel(1, 2), cauchy_kernel(),
                                        riesz_kernel(2, 8)])
    def test_rows_are_a_contiguous_view_of_fn(self, kernel):
        """Called on (m, d) rows the kernel is fn on the transposed rows and
        numpy's row norms, C-contiguous for the BLAS products."""
        diffs = np.random.default_rng(1).normal(size=(40, kernel.dim))
        out = kernel(diffs)
        assert out.shape == (40, kernel.out_dim) and out.flags.c_contiguous
        want = kernel.fn(diffs.T, np.linalg.norm(diffs, axis=1)).T
        assert np.array_equal(out, want)

    def test_cauchy_reads_zero_where_the_squares_vanish(self):
        # the squares of 1e-170 underflow: no division by zero happens
        diffs = np.array([[0.0, 0.0], [-0.0, 1e-170], [3.0, 4.0]])
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            out = cauchy_kernel()(diffs)
        assert np.array_equal(out, [[0.0, 0.0], [0.0, 0.0], [-0.12, 0.16]])

    def test_cauchy_kernel_needs_the_plane(self):
        assert make_kernel("cauchy", 1, 2).name == "cauchy"
        with pytest.raises(ValueError, match="cauchy kernel needs a planar"):
            make_kernel("cauchy", 1, 3)


class TestBumpFamily:
    @pytest.mark.parametrize("a0", [1.0, 0.5, np.inf, np.nan])
    def test_a0_must_be_finite_and_exceed_one(self, a0):
        with pytest.raises(ValueError, match="a0 must be finite"):
            BumpFamily(a0)

    def test_partition_of_unity_exact(self):
        fam = BumpFamily(20.0)
        # partial sums of phi_k telescope to psi differences; on the
        # plateau the sum is exactly 1.0 in floating point
        t = np.geomspace(1e-6, 10.0, 4001)
        total = np.zeros_like(t)
        for k in range(-2, 40):
            total += fam.phi_k(k, t)
        plateau = (t > fam.OUTER * 20.0 ** -37) & (t < fam.INNER * 400.0)
        assert np.all(total[plateau] == 1.0)

    def test_psi_monotone_smoothstep(self):
        fam = BumpFamily(12.0)
        t = np.linspace(0.0, 0.02, 500)
        v = fam.psi(t)
        assert (np.diff(v) <= 1e-15).all()
        assert v[0] == 1.0 and v[-1] == 0.0

    def test_support_brackets(self):
        fam = BumpFamily(15.0)
        # phi_3 vanishes outside the open shell INNER a0^-4 < t < OUTER a0^-3
        lo, hi = fam.INNER * fam.a0 ** -4, fam.OUTER * fam.a0 ** -3
        t = np.geomspace(lo * 0.5, hi * 2.0, 1000)
        vals = fam.phi_k(3, t)
        assert vals[t < lo * (1.0 - 1e-9)].max(initial=0.0) == 0.0
        assert vals[t > hi * (1.0 + 1e-9)].max(initial=0.0) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.floats(1e-8, 1e2), st.integers(-5, 30))
    def test_phi_k_in_unit_interval(self, t, k):
        fam = BumpFamily(10.0)
        v = float(fam.phi_k(k, np.array([t]))[0])
        assert -1e-15 <= v <= 1.0 + 1e-15


class TestTruncation:
    def test_t_eps_brute_force(self):
        m = segment(60)
        k = riesz_kernel(1, 2)
        x = np.array([0.37, 0.02])
        eps = 0.1
        d = np.linalg.norm(m.points - x, axis=1)
        keep = d > eps
        brute = (k(x - m.points[keep]) * m.weights[keep, None]).sum(axis=0)
        assert np.allclose(truncated_field(k, m, x, [eps])[0, 0], brute,
                           rtol=1e-13)

    def test_t_eps_excludes_center_atom(self):
        m = segment(10)
        x = m.points[4]
        val = truncated_field(riesz_kernel(1, 2), m, x, [1e-9])[0, 0]
        assert np.isfinite(val).all()

    def test_t_star_matches_grid_sup(self):
        # with Phi = 0 the suppressed maximal truncation is the plain one
        m = segment(80)
        k = riesz_kernel(1, 2)
        x = np.array([0.51, 0.0])
        (sup,) = t_phi_star(k, m, x, 0.0, np.zeros(m.size))
        d = np.unique(np.linalg.norm(m.points - x, axis=1))
        grid = np.concatenate([d[d > 0] * 0.999, d[d > 0] * 1.001,
                               [1e-9, m.diameter * 2]])
        brute = np.linalg.norm(truncated_field(k, m, x, grid)[0], axis=1).max()
        assert sup >= brute - 1e-12
        # attained: the sum changes only where a cutoff crosses a distance
        positive = d[d > 0]
        cutoffs = np.concatenate(([positive[0] / 2], positive))
        attained = np.linalg.norm(truncated_field(k, m, x, cutoffs)[0],
                                  axis=1).max()
        assert attained == pytest.approx(sup, rel=1e-12)

    def test_truncated_field_matches_loop(self):
        m = segment(40)
        k = riesz_kernel(1, 2)
        centers = m.points[::5]
        eps = np.full(len(centers), 0.07)
        field = truncated_field(k, m, centers, eps)
        for row, c in zip(field, centers):
            assert np.allclose(row, truncated_field(k, m, c, [0.07])[0, 0],
                               rtol=1e-13)

    def test_monotone_tail_large_eps_zero(self):
        m = segment(15)
        out = truncated_field(riesz_kernel(1, 2), m, m.points[0], [100.0])[0, 0]
        assert np.array_equal(out, np.zeros(2))


class TestSuppression:
    def test_factor_range_and_identity(self):
        # the damping factor |k_Phi| / |k| lies in (0, 1], and is exactly
        # 1 when Phi(x) = 0
        k = riesz_kernel(1, 2)
        rng = np.random.default_rng(2)
        origin = np.zeros(2)
        for diff, phi_y in zip(rng.normal(size=(200, 2)),
                               rng.uniform(0.0, 0.5, 200)):
            plain = k(diff[None, :])[0]
            damped = suppressed_kernel(k, diff, origin, 0.3, phi_y)
            fac = np.linalg.norm(damped) / np.linalg.norm(plain)
            assert 0.0 < fac <= 1.0 + 1e-15
            assert np.array_equal(
                suppressed_kernel(k, diff, origin, 0.0, phi_y), plain)

    def test_pairwise_wrapper(self):
        k = riesz_kernel(1, 2)
        x = np.array([0.2, 0.8])
        y = np.array([-0.4, 0.1])
        plain = k((x - y)[None, :])[0]
        assert np.array_equal(suppressed_kernel(k, x, y, 0.0, 0.7), plain)
        damped = suppressed_kernel(k, x, y, 0.5, 0.7)
        assert np.linalg.norm(damped) < np.linalg.norm(plain)

    def test_antisymmetry_exact(self):
        k = riesz_kernel(1, 2)
        rng = np.random.default_rng(3)
        for _ in range(100):
            x, y = rng.normal(size=(2, 2))
            a = suppressed_kernel(k, x, y, 0.2, 0.4)
            b = suppressed_kernel(k, y, x, 0.4, 0.2)
            assert np.array_equal(a, -b)

    def test_size_bound_property(self):
        # |k_Phi(x,y)| <= c / max(Phi(x), Phi(y))^n for 1-Lipschitz Phi.
        # (For independent radii the bound genuinely fails; the Lipschitz
        # coupling Phi(y) >= Phi(x) - |x - y| is what saves it.)
        k = riesz_kernel(1, 2)
        rng = np.random.default_rng(4)
        marker = np.array([0.1, -0.2])
        worst = 0.0
        for _ in range(2000):
            x, y = rng.normal(size=(2, 2))
            px = float(np.linalg.norm(x - marker))
            py = float(np.linalg.norm(y - marker))
            if max(px, py) == 0.0:
                continue
            val = np.linalg.norm(suppressed_kernel(k, x, y, px, py))
            worst = max(worst, val * max(px, py))
        assert worst <= 2.0 * k.constants[0] + 1e-9



def old_kernel_terms(kernel, block):
    """The terms of ``operators._kernel_terms`` by the route of kernels
    without a norm argument: the offsets as (rows x atoms, d) rows, a
    stand-in offset at the centre's atoms, the values transposed back."""
    diffs = np.negative(np.moveaxis(block.offsets, 0, -1), order="C")
    diffs[block.dist == 0.0] = 1.0
    terms = kernel(diffs.reshape(-1, diffs.shape[-1]))
    terms = np.ascontiguousarray(terms.T).reshape(-1, *block.dist.shape)
    return terms * block.mass


@pytest.mark.parametrize("kernel", [riesz_kernel(1, 2), riesz_kernel(2, 3),
                                    riesz_kernel(1, 8), riesz_kernel(3, 11),
                                    cauchy_kernel()],
                         ids=lambda k: k.name)
def test_kernel_terms_equal_the_rows_route_bit_for_bit(kernel):
    """One route for every kernel: the block's offsets and norms give the
    terms of the rows route on every entry off the centre's atoms, where
    the block's distances (d < 8) or the pairwise norms (d >= 8) stand in
    for numpy's row norms.  The centre's atoms give zero terms."""
    rng = np.random.default_rng(kernel.dim)
    pts = rng.normal(size=(60, kernel.dim)) * np.exp2(rng.integers(-3, 4,
                                                                   (60, 1)))
    pts = np.vstack((pts, pts[:3]))
    measure = WeightedPointMeasure(pts, rng.uniform(0.5, 2.0, len(pts)), 1)
    xs = np.vstack((pts[:20], rng.normal(size=(4, kernel.dim))))
    block = RadialBlock(measure, len(xs)).sort(xs)
    block.centres = slice(0, len(xs))
    terms, damping = operators._kernel_terms(kernel, block)
    off = block.dist != 0.0
    want = old_kernel_terms(kernel, block)
    assert damping is None and terms.shape == want.shape
    assert np.array_equal(terms[:, off].view(np.int64),
                          want[:, off].view(np.int64))
    assert (terms[:, ~off] == 0.0).all() and (~off).any()


@pytest.mark.parametrize("components", range(1, 12))
def test_component_major_norms_are_the_row_norms_bit_for_bit(components):
    """Squared norms over the leading component axis equal numpy's sums
    of squares along a contiguous last axis: in order below 8
    components, pairwise from 8 on."""
    rng = np.random.default_rng(components)
    vals = rng.standard_normal((components, 7, 33)) * np.exp2(
        rng.integers(-30, 31, (components, 7, 33)))
    rows = np.ascontiguousarray(np.moveaxis(vals, 0, -1))
    assert np.array_equal(operators._norm_sq(vals).view(np.int64),
                          np.sum(rows**2, axis=-1).view(np.int64))


class TestSuppressedTruncation:
    def test_t_phi_eps_reduces_to_t_eps(self):
        m = segment(50)
        k = riesz_kernel(1, 2)
        x = np.array([0.4, 0.01])
        phi_atoms = np.zeros(m.size)
        a = t_phi_eps(k, m, x, 0.08, 0.0, phi_atoms)[0]
        b = truncated_field(k, m, x, [0.08])[0, 0]
        assert np.array_equal(a, b)

    def test_t_phi_eps_at_zero_sums_atoms_at_positive_distance(self):
        # centres 0 and 1 carry coincident atoms, centre 35 is no atom
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1.0, 1.0, size=(30, 2))
        pts = np.concatenate([pts, pts[:4], pts[:1], [[0.05, -0.3]]])
        weights = np.exp(rng.uniform(-1.0, 1.0, len(pts)))
        m = WeightedPointMeasure(pts[:-1], weights[:-1], 1)
        k = riesz_kernel(1, 2)
        phi = np.abs(pts[:, 0] - 0.1)
        at = [0, 1, 4, 35]
        got = t_phi_eps(k, m, pts[at], np.zeros(len(at)), phi[at], phi[:-1])
        for row, i in zip(got, at):
            dist = np.linalg.norm(m.points - pts[i], axis=1)
            assert (dist == 0.0).sum() == {0: 3, 1: 2, 4: 1, 35: 0}[i]
            brute = sum(w * suppressed_kernel(k, pts[i], y, phi[i], py)
                        for y, w, py, r in zip(m.points, m.weights,
                                               phi[:-1], dist) if r > 0.0)
            np.testing.assert_allclose(row, brute, rtol=1e-12,
                                       atol=1e-12 * np.abs(brute).max())

    def test_t_phi_eps_at_zero_vanishes_on_coincident_atoms(self):
        m = WeightedPointMeasure(np.tile([0.2, -0.7], (4, 1)),
                                 [0.5, 1.0, 2.0, 0.25], 1)
        k = riesz_kernel(1, 2)
        phi = np.full(m.size, 0.3)
        got = t_phi_eps(k, m, m.points, np.zeros(m.size), phi, phi)
        assert np.array_equal(got, np.zeros((m.size, 2)))

    @pytest.mark.parametrize("eps", [-1e-300, -0.5, math.nan,
                                     [0.0, -1.0], [math.nan, 0.1]])
    def test_t_phi_eps_rejects_negative_or_nan_eps(self, eps):
        m = segment(10)
        k = riesz_kernel(1, 2)
        centers = m.points[:np.size(eps)]
        with pytest.raises(ValueError, match="eps must be >= 0"):
            t_phi_eps(k, m, centers, eps, np.zeros(len(centers)),
                      np.zeros(m.size))

    def test_phi_arrays_must_hold_one_value_per_centre_and_atom(self):
        m = lipschitz_graph(20)
        k = riesz_kernel(1, 2)
        xs = m.points[:4]
        phi = np.linspace(0.0, 0.3, m.size + 2)
        # Phi at the atoms too long, at the centres too short, and absent
        for phi_centers, phi_atoms, need in ((phi[:4], phi, r"\(20,\)"),
                                             (phi[:3], phi[:20], r"\(4,\)"),
                                             (None, None, r"\(4,\)")):
            for run in (lambda: t_phi_eps(k, m, xs, 0.1, phi_centers,
                                          phi_atoms),
                        lambda: t_phi_star(k, m, xs, phi_centers, phi_atoms)):
                with pytest.raises(ValueError, match=f"one value per .*{need}"):
                    run()

    def test_t_phi_star_bounded_by_unsuppressed_lowtrunc(self):
        m = segment(50)
        k = riesz_kernel(1, 2)
        x = np.array([0.4, 0.01])
        phi_atoms = np.full(m.size, 0.05)
        (sup,) = t_phi_star(k, m, x, 0.05, phi_atoms)
        assert np.isfinite(sup) and sup >= 0.0


class TestMaximalFunctions:
    def test_m_tilde_variants(self):
        # the 3/2 variant is the plain maximal function of |f|^{3/2} to the
        # 2/3, so m_tilde takes no variant
        m = segment(30)
        f = np.ones(30)
        x = m.points[4]
        (plain,) = m_tilde(m, f, x)
        (three_half,) = m_tilde(m, np.abs(f) ** 1.5, x) ** (2.0 / 3.0)
        assert plain > 0.0 and three_half > 0.0
        with pytest.raises(TypeError):
            m_tilde(m, f, x, variant="3/2")

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "m_tilde reads radii from d1/2 up, d1 the least positive distance, "
        "so it misses the ratio |f(x)| on (0, d1/3)"))
    def test_m_tilde_reads_the_small_radius_limit(self):
        # about atom 0, d1 = 1: for r < 1/3 both balls hold atom 0 alone,
        # so the ratio is |f| w / w = 5, and every larger r gives at most
        # 2.5 (5 / (1 + 1) up to r = 5/6, then 5 / 102)
        m = WeightedPointMeasure([[0.0, 0.0], [1.0, 0.0], [2.5, 0.0]],
                                 [1.0, 1.0, 100.0], 1)
        assert m_tilde(m, [5.0, 0.0, 0.0], m.points[0]).tolist() == [5.0]

    def test_m_tilde_constant_function_bounded_by_one(self):
        # averaging |f| = 1 against a probability-normalized window stays
        # near 1; the denominator at 3r only shrinks it
        m = segment(50)
        f = np.ones(50)
        assert (m_tilde(m, f, m.points[[0, 12, 49]]) <= 1.0 + 1e-12).all()


@pytest.fixture(scope="module")
def chain_corona():
    lat = build_lattice(cantor4(4), a0=4.0, c0=400.0)
    return build_corona(lat, a_stop=30.0, tau=0.005)


class TestKernelChain:

    def test_chain_equals_telescoped(self, chain_corona):
        corona = chain_corona
        k = riesz_kernel(1, 2)
        bump = BumpFamily(corona.lattice.a0)
        rng = np.random.default_rng(0)
        tops = [t for t in corona.tops
                if corona.lattice.cell(t).level < corona.lattice.max_depth]
        for _ in range(50):
            top = int(rng.choice(tops))
            atoms = corona.lattice.cell(top).point_indices
            atom = int(rng.choice(atoms))
            a = k_r_chain(corona, k, bump, top, atom)
            b = k_r_telescoped(corona, k, bump, top, atom)
            assert np.allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_atom_outside_tree_rejected(self, chain_corona):
        corona = chain_corona
        k = riesz_kernel(1, 2)
        bump = BumpFamily(corona.lattice.a0)
        tops = corona.tops
        lat = corona.lattice
        # find a top and an atom not below it
        for top in tops[1:]:
            atoms = set(lat.cell(top).point_indices)
            outside = [i for i in lat.root.point_indices
                       if i not in atoms]
            if outside:
                with pytest.raises(ValueError):
                    k_r_chain(corona, k, bump, top, outside[0])
                break


@pytest.fixture(scope="module")
def lemma_setup():
    m = lipschitz_graph(300, seed=5)
    k = riesz_kernel(1, 2)
    rng = np.random.default_rng(10)
    # a fixed 1-Lipschitz suppression radius: distance to a marker point
    marker = np.array([0.5, 0.0])
    phi_atoms = np.linalg.norm(m.points - marker, axis=1)
    return m, k, phi_atoms, marker, rng


class TestLemma22Analogues:
    """Truncation-vs-suppression comparisons with empirical constants."""

    def test_large_eps_difference_controlled(self, lemma_setup):
        m, k, phi_atoms, marker, rng = lemma_setup
        worst = 0.0
        for _ in range(300):
            i = int(rng.integers(m.size))
            x = m.points[i]
            phi_x = float(np.linalg.norm(x - marker))
            if phi_x <= m.r_min:
                continue
            eps = phi_x * float(rng.uniform(1.0, 4.0))
            diff = np.linalg.norm(
                t_phi_eps(k, m, x, eps, phi_x, phi_atoms)[0]
                - truncated_field(k, m, x, [eps])[0, 0])
            denom = m.sup_density(x, max(phi_x, m.r_min))
            if denom > 0:
                worst = max(worst, diff / denom)
        assert np.isfinite(worst)
        assert worst <= 10.0

    def test_small_eps_pins_to_phi_level(self, lemma_setup):
        m, k, phi_atoms, marker, rng = lemma_setup
        worst = 0.0
        for _ in range(300):
            i = int(rng.integers(m.size))
            x = m.points[i]
            phi_x = float(np.linalg.norm(x - marker))
            if phi_x <= m.r_min:
                continue
            eps = phi_x * float(rng.uniform(0.05, 1.0))
            diff = np.linalg.norm(
                t_phi_eps(k, m, x, eps, phi_x, phi_atoms)[0]
                - t_phi_eps(k, m, x, phi_x, phi_x, phi_atoms)[0])
            denom = m.sup_density(x, max(phi_x, m.r_min))
            if denom > 0:
                worst = max(worst, diff / denom)
        assert np.isfinite(worst)
        assert worst <= 10.0
