"""RadialOrder and the radial sums built on it, against the per-function
sort-then-cumsum bodies they replaced.

The oracles below are those bodies verbatim (sort the distances from x,
cumsum along the order).  The rebuilt code performs the same floating-point
operations in the same order, so every comparison here is exact equality.
"""

import numpy as np
import pytest

from betascope import (BetaProfile, WeightedPointMeasure, cantor4,
                       cauchy_kernel, m_tilde, riesz_kernel, segment,
                       truncated_field)
from betascope.measure import RadialOrder
from betascope.operators import _TruncationSums


def tie_cloud():
    """Grid-snapped atoms: repeated sites and many equal distances."""
    rng = np.random.default_rng(7)
    pts = rng.integers(-3, 4, size=(60, 2)) * 0.125
    pts = np.vstack((pts, pts[:5]))
    return WeightedPointMeasure(pts, rng.uniform(0.5, 2.0, len(pts)), 1)


MEASURES = {
    "segment": lambda: segment(40),
    "cantor4": lambda: cantor4(3),
    "ties": tie_cloud,
}


def centres(measure):
    """Every atom (distance-0 ties included) plus a few off-atom points."""
    off = np.array([[0.0, 0.0], [0.3, -0.2], [0.0625, 0.1875]])
    return np.vstack((measure.points, off))


@pytest.fixture(params=sorted(MEASURES))
def measure(request):
    return MEASURES[request.param]()


# -- oracles: the bodies the primitive replaced --------------------------------

def old_sup_density(measure, center, floor):
    center = np.asarray(center, dtype=float).reshape(-1)
    dist = np.linalg.norm(measure.points - center, axis=1)
    w = measure.weights
    order = np.argsort(dist, kind="stable")
    dist_sorted = dist[order]
    cum = np.cumsum(w[order])
    candidates = np.unique(dist_sorted[dist_sorted > floor])
    radii = np.concatenate(([floor], candidates))
    counts = np.searchsorted(dist_sorted, radii, side="right")
    mask = counts > 0
    if not mask.any():
        return 0.0
    masses = cum[counts[mask] - 1]
    return float(np.max(masses / radii[mask] ** measure.target_dim))


def old_growth_grid(measure, scale_grid):
    scale_grid = np.asarray(scale_grid, dtype=float).reshape(-1)
    best = 0.0
    for c in measure.points:
        dist = np.linalg.norm(measure.points - c, axis=1)
        dist_sorted = np.sort(dist, kind="stable")
        order = np.argsort(dist, kind="stable")
        cum = np.cumsum(measure.weights[order])
        counts = np.searchsorted(dist_sorted, scale_grid, side="right")
        mask = counts > 0
        if mask.any():
            val = np.max(cum[counts[mask] - 1]
                         / scale_grid[mask] ** measure.target_dim)
            best = max(best, float(val))
    return best


class OldBetaProfile:
    def __init__(self, measure, center):
        center = np.asarray(center, dtype=float).reshape(-1)
        self.n = measure.target_dim
        self.d = measure.dim
        z = measure.points - center
        dist = np.linalg.norm(z, axis=1)
        order = np.argsort(dist, kind="stable")
        self.dist_sorted = dist[order]
        w = measure.weights[order]
        zs = z[order]
        self.cum_w = np.cumsum(w)
        self.cum_first = np.cumsum(w[:, None] * zs, axis=0)
        outer = zs[:, :, None] * zs[:, None, :]
        self.cum_second = np.cumsum(w[:, None, None] * outer, axis=0)

    def beta_sq_theta(self, radii):
        radii = np.atleast_1d(np.asarray(radii, dtype=float))
        k = np.searchsorted(self.dist_sorted, radii, side="right")
        beta_sq = np.zeros(radii.shape)
        theta = np.zeros(radii.shape)
        nz = k > 0
        if nz.any():
            ki = k[nz] - 1
            W = self.cum_w[ki]
            S1 = self.cum_first[ki]
            S2 = self.cum_second[ki]
            mean = S1 / W[:, None]
            cov = S2 - W[:, None, None] * (mean[:, :, None] * mean[:, None, :])
            eigvals = np.linalg.eigvalsh(cov)
            resid = np.clip(eigvals[:, : self.d - self.n].sum(axis=1), 0.0, None)
            r = radii[nz]
            beta_sq[nz] = resid / r ** (self.n + 2)
            theta[nz] = W / r**self.n
        return beta_sq, theta


class OldTruncationSums(_TruncationSums):
    """The old constructor; ``beyond`` and ``sup_norm`` are inherited."""

    def __init__(self, kernel, measure, x, damping=None):
        x = np.asarray(x, dtype=float)
        diffs = x[None, :] - measure.points
        dist = np.linalg.norm(diffs, axis=1)
        keep = dist > 0.0
        self.dist = np.sort(dist[keep], kind="stable")
        if self.dist.size == 0:
            self.suffix = np.zeros((1, kernel.out_dim))
            return
        terms = kernel(diffs[keep]) * measure.weights[keep][:, None]
        if damping is not None:
            terms = terms * damping[keep][:, None]
        order = np.argsort(dist[keep], kind="stable")
        rev = terms[order][::-1]
        acc = np.vstack((np.zeros((1, terms.shape[1])), np.cumsum(rev, axis=0)))
        self.suffix = acc[::-1]


def old_damping(kernel, measure, x, phi_x, phi_atoms):
    """The old per-atom suppression factors, one kernel evaluation of their
    own; the atoms at x keep factor 1."""
    diffs = np.asarray(x, dtype=float)[None, :] - measure.points
    dist = np.linalg.norm(diffs, axis=1)
    damping = np.ones(measure.size)
    nz = dist > 0.0
    ksq = np.sum(kernel(diffs[nz]) ** 2, axis=1)
    damping[nz] = 1.0 / (1.0 + ksq * (max(float(phi_x), 0.0)
                                      * np.maximum(phi_atoms[nz], 0.0))
                         ** kernel.n)
    return damping


def old_m_tilde(sigma, f, x, variant="plain"):
    fz = np.abs(np.asarray(f, dtype=float))
    if variant == "3/2":
        fz = fz**1.5
    dist = np.linalg.norm(sigma.points - np.asarray(x, dtype=float), axis=1)
    order = np.argsort(dist, kind="stable")
    dist_s = dist[order]
    num_cum = np.concatenate(([0.0], np.cumsum((fz * sigma.weights)[order])))
    den_cum = np.concatenate(([0.0], np.cumsum(sigma.weights[order])))
    positive = np.unique(dist_s[dist_s > 0.0])
    radii = [positive[0] / 2] if positive.size else []
    radii = np.unique(np.concatenate((radii, positive, positive / 3.0)))
    if radii.size == 0:
        best = num_cum[-1] / den_cum[-1]
        return best ** (2.0 / 3.0) if variant == "3/2" else best
    best = 0.0
    for r in radii:
        den = den_cum[int(np.searchsorted(dist_s, 3.0 * r, side="right"))]
        if den == 0.0:
            continue
        num = num_cum[int(np.searchsorted(dist_s, r, side="right"))]
        best = max(best, num / den)
    return best ** (2.0 / 3.0) if variant == "3/2" else best


# -- the primitive's conventions ---------------------------------------------

def test_radial_order_sums_match_direct_ball_sums(measure):
    x = measure.points[3]
    radial = RadialOrder(measure, x)
    dist = np.linalg.norm(measure.points - x, axis=1)
    assert np.array_equal(radial.dist, np.sort(dist))
    assert np.array_equal(radial.offsets, measure.points[radial.order] - x)
    w = measure.weights[radial.order]
    inside, beyond = radial.prefix(w), radial.suffix(w)
    assert inside[0] == 0.0 and beyond[-1] == 0.0
    for r in np.concatenate(([0.0], np.unique(dist), [0.05, 0.4])):
        k = radial.count(r)
        assert k == np.count_nonzero(dist <= r)
        assert inside[k] == pytest.approx(measure.weights[dist <= r].sum(),
                                          rel=1e-12, abs=0.0)
        assert beyond[k] == pytest.approx(measure.weights[dist > r].sum(),
                                          rel=1e-12, abs=0.0)


def test_sums_along_any_axis_are_the_axis_0_sums(measure):
    radial = RadialOrder(measure, measure.points[3])
    vals = np.random.default_rng(1).normal(size=(measure.size, 2, 3))
    lanes = np.moveaxis(vals, 0, -1)
    assert np.array_equal(radial.prefix(lanes, axis=-1),
                          np.moveaxis(radial.prefix(vals), 0, -1))
    assert np.array_equal(radial.suffix(lanes, axis=2),
                          np.moveaxis(radial.suffix(vals), 0, -1))


# -- bit equality with the replaced bodies ------------------------------------

def test_sup_density_bit_equal(measure):
    for x in centres(measure):
        for floor in (measure.r_min, 0.1, 10.0):
            assert measure.sup_density(x, floor) == \
                old_sup_density(measure, x, floor)


def test_growth_constant_grid_bit_equal(measure):
    grid = measure.r_min * 2.0 ** np.arange(0.0, 6.0, 0.5)
    assert measure.growth_constant(grid) == old_growth_grid(measure, grid)


def test_beta_profile_bit_equal(measure):
    dist = np.linalg.norm(measure.points - measure.points[0], axis=1)
    radii = np.concatenate((np.geomspace(measure.r_min, 2.0, 17),
                            np.unique(dist[dist > 0.0])))
    for x in centres(measure):
        new, old = BetaProfile(measure, x), OldBetaProfile(measure, x)
        assert new.cum_w[0] == 0.0
        assert np.array_equal(new.cum_w[1:], old.cum_w)
        assert np.array_equal(new.cum_first[1:], old.cum_first)
        assert np.array_equal(new.cum_second[1:], old.cum_second)
        for a, b in zip(new.beta_sq_theta(radii), old.beta_sq_theta(radii)):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("kernel", [riesz_kernel(1, 2), cauchy_kernel()],
                         ids=["riesz", "cauchy"])
def test_truncation_sums_bit_equal(measure, kernel):
    rng = np.random.default_rng(2)
    # some negative values: the damping clips Phi at 0
    phi_atoms = rng.uniform(-0.05, 0.5, size=measure.size)
    phi = {"phi_x": 0.3, "phi_atoms": phi_atoms}
    for x in centres(measure):
        damping = old_damping(kernel, measure, x, 0.3, phi_atoms)
        assert (damping < 1.0).any() and (damping == 1.0).any()
        for new_kw, old_kw in (({}, {}), (phi, {"damping": damping})):
            new = _TruncationSums(kernel, measure, x, **new_kw)
            old = OldTruncationSums(kernel, measure, x, **old_kw)
            assert np.array_equal(new.dist, old.dist)
            assert np.array_equal(new.suffix, old.suffix)
            assert new.sup_norm() == old.sup_norm()


@pytest.mark.parametrize("variant", ["plain", "3/2"])
def test_m_tilde_bit_equal(measure, variant):
    f = np.random.default_rng(3).normal(size=measure.size)
    for x in centres(measure):
        assert m_tilde(measure, f, x, variant) == \
            old_m_tilde(measure, f, x, variant)


def test_m_tilde_all_atoms_at_centre_bit_equal():
    m = WeightedPointMeasure(np.zeros((4, 2)), np.array([1.0, 2.0, 0.5, 1.5]), 1)
    f = np.array([0.3, -1.0, 2.0, 0.7])
    for variant in ("plain", "3/2"):
        assert m_tilde(m, f, (0.0, 0.0), variant) == \
            old_m_tilde(m, f, (0.0, 0.0), variant)


# -- truncated_field: one lookup answers every cutoff of a centre -------------

def old_truncated_field(kernel, measure, centers, eps_values):
    """The per-cutoff loop: one suffix lookup per cutoff."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    eps_values = np.asarray(eps_values, dtype=float)
    out = np.empty((centers.shape[0], eps_values.size, kernel.out_dim))
    for c, x in enumerate(centers):
        sums = _TruncationSums(kernel, measure, x)
        for e, eps in enumerate(eps_values):
            out[c, e] = sums.suffix[int(np.searchsorted(sums.dist, eps,
                                                        side="right"))]
    return out


@pytest.mark.parametrize("kernel", [riesz_kernel(1, 2), cauchy_kernel()],
                         ids=["riesz", "cauchy"])
def test_truncated_field_bit_equal_to_per_cutoff_loop(measure, kernel):
    dist = np.linalg.norm(measure.points - measure.points[0], axis=1)
    gaps = np.unique(dist[dist > 0.0])
    # cutoffs exactly on atom distances, below the smallest gap, off the
    # distances, at and beyond the diameter, in no particular order
    eps = np.concatenate((gaps, [gaps[0] / 2, 1e-300], gaps[:-1] * 1.5,
                          [measure.diameter, 2 * measure.diameter + 1.0]))
    eps = np.random.default_rng(4).permutation(eps)
    for x in (measure.points[0], measure.points[-1], centres(measure)):
        new = truncated_field(kernel, measure, x, eps)
        old = old_truncated_field(kernel, measure, x, eps)
        assert np.array_equal(new, old)
    at_atoms = truncated_field(kernel, measure, measure.points, eps)
    assert (at_atoms[:, eps > measure.diameter] == 0.0).all()
    # one cutoff per call agrees with the row of a many-cutoff sweep
    x = measure.points[0]
    sweep = truncated_field(kernel, measure, x, eps)[0]
    for e, row in zip(eps, sweep):
        assert np.array_equal(truncated_field(kernel, measure, x, [e])[0, 0],
                              row)
