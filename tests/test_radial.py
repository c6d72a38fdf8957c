"""The radial pass and the sums built on it, against the per-function
sort-then-cumsum bodies they replaced.

The oracles below are those bodies verbatim (sort the distances from x,
cumsum along the order).  The rebuilt code performs the same floating-point
operations in the same order, so every comparison here is exact equality.
"""

import numpy as np
import pytest

from betascope import (BetaProfile, WeightedPointMeasure, cantor4,
                       cauchy_kernel, lipschitz_graph, m_tilde, riesz_kernel,
                       segment, square_area, t_phi_eps, t_phi_star,
                       truncated_field)
from betascope import measure as measure_module
from betascope.measure import RadialBlock


def tie_cloud():
    """Grid-snapped atoms: repeated sites and many equal distances."""
    rng = np.random.default_rng(7)
    pts = rng.integers(-3, 4, size=(60, 2)) * 0.125
    pts = np.vstack((pts, pts[:5]))
    return WeightedPointMeasure(pts, rng.uniform(0.5, 2.0, len(pts)), 1)


def surface():
    """d = 3, n = 2: a curved sheet with uneven weights."""
    rng = np.random.default_rng(5)
    uv = rng.uniform(0.0, 1.0, size=(120, 2))
    pts = np.column_stack((uv, 0.3 * np.sin(3 * uv[:, 0]) * uv[:, 1]))
    return WeightedPointMeasure(pts, rng.uniform(0.5, 1.5, len(pts)), 2)


def helix():
    """d = 3, n = 1."""
    t = np.linspace(0.0, 3.0, 90)
    pts = np.column_stack((np.cos(2 * t), np.sin(2 * t), 0.4 * t))
    return WeightedPointMeasure(pts, np.full(len(t), 1.0 / len(t)), 1)


def single_atom():
    return WeightedPointMeasure([[0.25, -0.5]], [2.0], 1)


MEASURES = {
    "segment": lambda: segment(40),
    "cantor4": lambda: cantor4(3),
    "ties": tie_cloud,
}

# the density and flatness oracles also run on a graph, d = 3 and one atom
ALL_MEASURES = {
    **MEASURES,
    "graph": lambda: lipschitz_graph(150, seed=2),
    "surface": surface,
    "helix": helix,
    "single": single_atom,
}


def centres(measure):
    """Every atom (distance-0 ties included), then off-atom points.

    The last lies beyond the support by more than the resolution, so the
    smallest balls about it hold no atom.
    """
    pts = measure.points
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    reach = max(measure.diameter, measure.r_min)
    fixed = [[0.0, 0.0], [0.3, -0.2], [0.0625, 0.1875]]
    off = [0.5 * (lo + hi) + 0.013 * reach,
           hi + 0.3 * reach,
           lo - np.linspace(0.1, 0.2, measure.dim) * reach
           - 4.0 * measure.r_min]
    if measure.dim == 2:
        off = fixed + off
    return np.vstack((pts, off))


@pytest.fixture(params=sorted(MEASURES))
def measure(request):
    return MEASURES[request.param]()


@pytest.fixture(params=sorted(ALL_MEASURES))
def any_measure(request):
    return ALL_MEASURES[request.param]()


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


class OldTruncationSums:
    """The old per-point truncation sums: sort the positive distances, then
    cumsum the kernel terms farthest-first."""

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

    def beyond(self, eps):
        return self.suffix[np.searchsorted(self.dist, eps, side="right")]

    def sup_norm(self):
        if self.dist.size == 0:
            return 0.0
        _, first = np.unique(self.dist, return_index=True)
        positions = np.concatenate(([0], first[1:], [self.dist.size]))
        norms = np.linalg.norm(self.suffix[positions], axis=1)
        return float(norms.max())


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
    block = RadialBlock(measure, 1).sort(x)
    dist = np.linalg.norm(measure.points - x, axis=1)
    assert np.array_equal(block.dist[0], np.sort(dist))
    assert np.array_equal(block.mass[0], measure.weights[block.order[0]])
    inside = block.sums[0]
    assert inside[0] == 0.0
    for r in np.concatenate(([0.0], np.unique(dist), [0.05, 0.4])):
        k = block.count(r)[0]
        assert k == np.count_nonzero(dist <= r)
        assert inside[k] == pytest.approx(measure.weights[dist <= r].sum(),
                                          rel=1e-12, abs=0.0)


# -- bit equality with the replaced bodies ------------------------------------

def test_sup_density_bit_equal(any_measure):
    measure = any_measure
    # the last is capacity's floor
    floors = (measure.r_min, 0.1, 10.0,
              max(measure.r_min, measure.diameter / np.sqrt(measure.size)))
    for x in centres(measure):
        for floor in floors:
            assert measure.sup_density(x, floor) == \
                old_sup_density(measure, x, floor)
    exact = max(old_sup_density(measure, x, measure.r_min)
                for x in measure.points)
    assert measure.growth_constant(exact=True) == exact


def test_beta_profile_bit_equal(any_measure):
    measure = any_measure
    dist = np.linalg.norm(measure.points - measure.points[0], axis=1)
    radii = np.concatenate((np.geomspace(measure.r_min, 2.0, 17),
                            np.unique(dist[dist > 0.0])))
    for x in centres(measure):
        new, old = BetaProfile(measure, x), OldBetaProfile(measure, x)
        for a, b in zip(new.beta_sq_theta(radii), old.beta_sq_theta(radii)):
            assert np.array_equal(a, b)


def per_centre_cutoffs(measure, xs, rng):
    """Per centre: a cutoff on one of its atom distances, one off them,
    one beyond the diameter and one below every positive distance."""
    sweeps = []
    for pick in (lambda d: rng.choice(d), lambda d: rng.uniform(0.0, d[-1]),
                 lambda d: 2 * measure.diameter + 1.0, lambda d: 1e-300):
        eps = []
        for x in xs:
            dist = np.linalg.norm(measure.points - x, axis=1)
            eps.append(pick(np.sort(dist[dist > 0.0])))
        sweeps.append(np.array(eps))
    return sweeps


@pytest.mark.parametrize("kernel", [riesz_kernel(1, 2), cauchy_kernel()],
                         ids=["riesz", "cauchy"])
def test_truncation_sums_bit_equal(monkeypatch, measure, kernel):
    """The blocked t_phi_eps and t_phi_star, at every centre in one call,
    against the one-centre oracle: atoms at a centre, negative Phi and a
    cutoff of its own per centre."""
    rng = np.random.default_rng(2)
    xs = centres(measure)
    # some negative values: the damping clips Phi at 0
    phi_atoms = rng.uniform(-0.05, 0.5, size=measure.size)
    phi_xs = rng.uniform(-0.05, 0.5, size=len(xs))
    plain = [OldTruncationSums(kernel, measure, x) for x in xs]
    damped = []
    for x, phi_x in zip(xs, phi_xs):
        damping = old_damping(kernel, measure, x, phi_x, phi_atoms)
        if phi_x > 0.0:
            assert (damping < 1.0).any() and (damping == 1.0).any()
        damped.append(OldTruncationSums(kernel, measure, x, damping))
    sweeps = per_centre_cutoffs(measure, xs, rng)
    # at the default block budget and at one centre per block
    for budget in (measure_module.RADIAL_BLOCK_ELEMENTS, 1):
        monkeypatch.setattr(measure_module, "RADIAL_BLOCK_ELEMENTS", budget)
        for phi, old in ((phi_xs, damped), (np.zeros(len(xs)), plain)):
            for eps in sweeps:
                new = t_phi_eps(kernel, measure, xs, eps, phi, phi_atoms)
                assert np.array_equal(new, [o.beyond(e)
                                            for o, e in zip(old, eps)])
            sups = t_phi_star(kernel, measure, xs, phi, phi_atoms)
            assert sups.tolist() == [o.sup_norm() for o in old]


def m_tilde_three_half(sigma, f, xs):
    """The 3/2 maximal function of f from the plain one: M~ of |f|^{3/2},
    to the 2/3 as a Python float power, the steps of the variant that
    ``m_tilde`` no longer takes."""
    return [b ** (2.0 / 3.0)
            for b in m_tilde(sigma, np.abs(f) ** 1.5, xs).tolist()]


@pytest.mark.parametrize("variant", ["plain", "3/2"])
def test_m_tilde_bit_equal(monkeypatch, measure, variant):
    f = np.random.default_rng(3).normal(size=measure.size)
    xs = centres(measure)
    old = [old_m_tilde(measure, f, x, variant) for x in xs]
    new = {"plain": lambda: m_tilde(measure, f, xs).tolist(),
           "3/2": lambda: m_tilde_three_half(measure, f, xs)}[variant]
    for budget in (measure_module.RADIAL_BLOCK_ELEMENTS, 1):
        monkeypatch.setattr(measure_module, "RADIAL_BLOCK_ELEMENTS", budget)
        assert new() == old


def test_m_tilde_all_atoms_at_centre_bit_equal():
    m = WeightedPointMeasure(np.zeros((4, 2)), np.array([1.0, 2.0, 0.5, 1.5]), 1)
    f = np.array([0.3, -1.0, 2.0, 0.7])
    assert m_tilde(m, f, [(0.0, 0.0)])[0] == old_m_tilde(m, f, (0.0, 0.0))
    assert m_tilde_three_half(m, f, [(0.0, 0.0)])[0] == \
        old_m_tilde(m, f, (0.0, 0.0), "3/2")


# the maximal function of the constant 1 on these, at every atom and off
# the support
IDENTITY_MEASURES = {
    **ALL_MEASURES,
    "square": lambda: square_area(8),
    "duplicated": lambda: WeightedPointMeasure(
        np.repeat(cantor4(2).points, 2, axis=0), np.full(32, 1 / 32), 1),
    "wide_weights": lambda: WeightedPointMeasure(
        lipschitz_graph(61, seed=4).points, np.logspace(-300, 300, 61), 1),
}


@pytest.mark.parametrize("name", sorted(IDENTITY_MEASURES))
def test_mass_maximal_function_is_one(name):
    """M~_{sigma,3/2}1 = sup_r (sigma(B(x, r)) / sigma(B(x, 3r)))^(2/3) is
    exactly 1.0: no ratio exceeds 1, and the largest radius read holds
    every atom in both balls.  So the Cotlar check adds the constant 1.0
    in its place."""
    sigma = IDENTITY_MEASURES[name]()
    for x in centres(sigma):
        assert old_m_tilde(sigma, np.ones(sigma.size), x, "3/2") == 1.0


def test_one_eps_serves_every_centre():
    m = lipschitz_graph(50, seed=1)
    k = riesz_kernel(1, 2)
    phi = np.linspace(0.0, 0.3, m.size)
    xs = m.points[:5]
    assert np.array_equal(t_phi_eps(k, m, xs, 0.05, phi[:5], phi),
                          t_phi_eps(k, m, xs, np.full(5, 0.05), phi[:5], phi))


def test_suppressed_sums_with_every_atom_at_the_centre():
    m = WeightedPointMeasure(np.zeros((3, 2)), np.ones(3), 1)
    k = riesz_kernel(1, 2)
    phi = np.full(3, 0.2)
    assert np.array_equal(t_phi_eps(k, m, m.points, 0.1, phi, phi),
                          np.zeros((3, 2)))
    sups = t_phi_star(k, m, m.points, phi, phi)
    assert np.array_equal(sups, np.zeros(3))


# -- truncated_field: one lookup answers every cutoff of a centre -------------

def old_truncated_field(kernel, measure, centers, eps_values):
    """The per-cutoff loop: one suffix lookup per cutoff."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    eps_values = np.asarray(eps_values, dtype=float)
    out = np.empty((centers.shape[0], eps_values.size, kernel.out_dim))
    for c, x in enumerate(centers):
        sums = OldTruncationSums(kernel, measure, x)
        for e, eps in enumerate(eps_values):
            out[c, e] = sums.suffix[int(np.searchsorted(sums.dist, eps,
                                                        side="right"))]
    return out


@pytest.mark.parametrize("kernel", [riesz_kernel(1, 2), cauchy_kernel()],
                         ids=["riesz", "cauchy"])
def test_truncated_field_bit_equal_to_per_cutoff_loop(monkeypatch, measure,
                                                      kernel):
    dist = np.linalg.norm(measure.points - measure.points[0], axis=1)
    gaps = np.unique(dist[dist > 0.0])
    # cutoffs exactly on atom distances, below the smallest gap, off the
    # distances, at and beyond the diameter, at and below 0 (which must
    # not reach the atoms at the centre), in no particular order
    eps = np.concatenate((gaps, [gaps[0] / 2, 1e-300], gaps[:-1] * 1.5,
                          [measure.diameter, 2 * measure.diameter + 1.0],
                          [0.0, -1.0]))
    eps = np.random.default_rng(4).permutation(eps)
    # every atom (and the off-atom points) in one call, at the default
    # block budget and at one centre per block
    for budget in (measure_module.RADIAL_BLOCK_ELEMENTS, 1):
        monkeypatch.setattr(measure_module, "RADIAL_BLOCK_ELEMENTS", budget)
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


def test_near_counts_the_leading_zeros_once_per_sort():
    """``near`` is the count of each row's zero distances, read once per
    sort: duplicated atoms put up to three zeros at a row's head."""
    pts = np.repeat(np.random.default_rng(4).normal(size=(9, 2)),
                    [1, 2, 3, 1, 1, 2, 1, 1, 1], axis=0)
    measure = WeightedPointMeasure(pts, np.ones(len(pts)), 1)
    block = RadialBlock(measure, len(pts))
    for xs in (pts, pts[::-1][:5], np.zeros((2, 2)), pts[:1]):
        block.sort(xs)
        assert np.array_equal(block.near,
                              np.count_nonzero(block.dist == 0.0, axis=1))
        assert block.near is block.near


def test_truncated_field_in_eight_dimensions_bit_equal(monkeypatch):
    """From d = 8 on numpy's norm sums the squares pairwise, so the block's
    distances can differ from it in the last place.  The Riesz kernel then
    takes its own norms, and the field still equals the per-cutoff loop."""
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(150, 8))
    # repeated sites: atoms at distance 0 from some centres
    pts = np.vstack((pts, pts[:4]))
    measure = WeightedPointMeasure(pts, rng.uniform(0.5, 2.0, len(pts)), 1)
    kernel = riesz_kernel(1, 8)
    xs = np.vstack((pts, rng.normal(size=(3, 8))))
    block = RadialBlock(measure, len(xs)).sort(xs)
    norms = np.sort(np.linalg.norm(pts[None, :, :] - xs[:, None, :], axis=2),
                    axis=1, kind="stable")
    # the case at stake: some sorted distances are not the norms
    assert (block.dist != norms).any()
    # cutoffs off the atom distances, where the two roundings agree on
    # every count
    eps = np.concatenate(([0.0, 1e-300],
                          np.geomspace(0.05, 2 * measure.diameter, 23)))
    for budget in (measure_module.RADIAL_BLOCK_ELEMENTS, 1):
        monkeypatch.setattr(measure_module, "RADIAL_BLOCK_ELEMENTS", budget)
        new = truncated_field(kernel, measure, xs, eps)
        assert np.array_equal(new, old_truncated_field(kernel, measure, xs,
                                                       eps))
