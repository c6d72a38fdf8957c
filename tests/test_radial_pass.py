"""The blocked radial pass against the per-atom loops it replaced.

The oracles are the former per-atom code verbatim: ``jones_integral`` on
one profile per centre and the loops of ``jones_field`` and
``packing_audit`` over it.  The one-centre profile and density oracles,
the measures and the centres are ``test_radial``'s.  The pass sorts
blocks of centres at once, lane-major, and must reproduce every value bit
for bit, so every comparison here is exact equality.
"""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from betascope import (WeightedPointMeasure, beta_profile_rows, build_corona,
                       build_lattice, condition_check, jones_field,
                       lipschitz_graph, m_tilde, main_lemma_check,
                       packing_audit, riesz_kernel, t_phi_eps, t_phi_star,
                       truncated_field)
from betascope import beta as beta_module
from betascope import measure as measure_module
from betascope.beta import _checked_jones_grid, _moment_sums, jones_integrals
from betascope.measure import (RADIAL_BLOCK_ELEMENTS, Ball, RadialBlock,
                               _prefix, radial_pass)
from betascope.verify import _flatness_floor
from test_radial import (ALL_MEASURES, OldBetaProfile, centres, old_sup_density,
                         surface)


# -- oracles: the per-atom loops the pass replaced -----------------------------

def old_jones_integral(measure, center, r_lo, r_hi, scales_per_octave=4):
    r_lo, r_hi = float(r_lo), float(r_hi)
    if not (measure.r_min <= r_lo < r_hi):
        raise ValueError(
            f"need r_min <= r_lo < r_hi, got r_min={measure.r_min:.3g} "
            f"r_lo={r_lo:.3g} r_hi={r_hi:.3g}"
        )
    if int(scales_per_octave) < 1:
        raise ValueError("scales_per_octave must be >= 1")
    if measure.is_empty:
        return 0.0
    radii, log_rho = _checked_jones_grid(measure, r_lo, r_hi,
                                         scales_per_octave)
    beta_sq, theta = OldBetaProfile(measure, center).beta_sq_theta(radii)
    return float(np.sum(beta_sq * theta) * log_rho)


def old_jones_field(measure, r_lo=None, r_hi=None, scales_per_octave=4):
    if measure.is_empty:
        return np.zeros(0)
    if r_lo is None:
        r_lo = _flatness_floor(measure, scales_per_octave)
    else:
        r_lo = float(r_lo)
    r_hi = measure.diameter if r_hi is None else float(r_hi)
    if r_hi <= r_lo:
        return np.zeros(measure.size)

    def one(i):
        return old_jones_integral(
            measure, measure.points[i], r_lo, r_hi,
            scales_per_octave=scales_per_octave,
        )

    return np.array([one(i) for i in range(measure.size)])


def old_packing_energy(corona, scales_per_octave=4):
    measure = corona.measure
    r_lo = measure.r_min
    r_hi = corona.lattice.cells[corona.root_id].side
    energy = 0.0
    for i in range(measure.size):
        energy += measure.weights[i] * old_jones_integral(
            measure, measure.points[i], r_lo, r_hi,
            scales_per_octave=scales_per_octave,
        )
    return energy


# -- inputs ---------------------------------------------------------------

@pytest.fixture(params=sorted(ALL_MEASURES))
def measure(request):
    return ALL_MEASURES[request.param]()


def ranges(measure):
    """(r_lo, r_hi) pairs the commands use, where the grid is not empty."""
    hi = max(measure.diameter, 2.0 * measure.r_min)
    return [(measure.r_min, hi),
            (_flatness_floor(measure, 4), 1.5 * hi),
            (3.0 * measure.r_min, 0.5 * hi + 3.0 * measure.r_min)]


# -- flatness integrals -------------------------------------------------------

@pytest.mark.parametrize("scales_per_octave", [1, 4, 8])
def test_jones_integrals_equal_the_per_atom_loop(measure, scales_per_octave):
    xs = centres(measure)
    for r_lo, r_hi in ranges(measure):
        new = jones_integrals(measure, xs, r_lo, r_hi, scales_per_octave)
        old = [old_jones_integral(measure, x, r_lo, r_hi, scales_per_octave)
               for x in xs]
        assert np.array_equal(new, old)
        # the last off-atom centre's smallest balls are empty
        assert (np.linalg.norm(measure.points - xs[-1], axis=1)
                > r_lo).all()


def test_jones_field_equals_the_per_atom_loop(measure):
    assert np.array_equal(jones_field(measure), old_jones_field(measure))
    r_hi = max(measure.diameter, 2 * measure.r_min)
    assert np.array_equal(
        jones_field(measure, measure.r_min, r_hi, scales_per_octave=3),
        old_jones_field(measure, measure.r_min, r_hi, scales_per_octave=3))


@pytest.mark.parametrize("name", ["segment", "cantor4", "graph", "ties",
                                  "surface"])
def test_packing_energy_equals_the_per_atom_loop(name):
    measure = ALL_MEASURES[name]()
    corona = build_corona(build_lattice(measure))
    assert packing_audit(corona)["jones_energy"] == old_packing_energy(corona)
    old = old_packing_energy(corona, scales_per_octave=2)
    assert packing_audit(corona, scales_per_octave=2)["jones_energy"] == old


def test_condition_total_sums_the_old_integrals_in_index_order(measure):
    ball = Ball(measure.points[0], max(measure.diameter, 2 * measure.r_min))
    rec = condition_check(measure, ball)
    idx = measure.ball_indices(ball.center, ball.radius)
    total = 0.0
    for i in idx:
        total += measure.weights[i] * old_jones_integral(
            measure, measure.points[i], measure.r_min, ball.radius)
    assert rec["total"] == float(total)


def test_condition_sup_density_is_c0_when_the_ball_holds_every_atom(measure):
    # analyze reads c0 from the pass over its centroid ball
    centroid = measure.weights @ measure.points / measure.total_mass
    reach = float(np.max(np.linalg.norm(measure.points - centroid, axis=1)))
    rec = condition_check(measure, Ball(centroid, max(reach,
                                                      2 * measure.r_min)))
    assert rec["atoms"] == measure.size
    assert rec["sup_density"] == measure.growth_constant(exact=True)
    assert rec["sup_density"] == max(
        old_sup_density(measure, p, measure.r_min) for p in measure.points)


def test_profile_rows_equal_the_one_centre_profiles(measure):
    xs = centres(measure)
    r_lo, r_hi = ranges(measure)[0]
    radii, _ = _checked_jones_grid(measure, r_lo, r_hi, 4)
    rows = beta_profile_rows(measure, xs, r_lo, r_hi)
    assert len(rows) == len(xs)
    for x, got in zip(xs, rows):
        beta_sq, theta = OldBetaProfile(measure, x).beta_sq_theta(radii)
        want = [(float(r), float(math.sqrt(b)), float(t))
                for r, b, t in zip(radii, beta_sq, theta)]
        assert got == want


# -- density sups ---------------------------------------------------------------

def test_density_pass_equals_the_breakpoint_scan(measure):
    xs = centres(measure)
    floors = (measure.r_min, 0.1, 10.0,
              max(measure.r_min, measure.diameter / math.sqrt(measure.size)))
    for floor in floors:
        old = [old_sup_density(measure, x, floor) for x in xs]
        new = radial_pass(measure, xs,
                          lambda block: block.sup_density(floor))
        assert np.array_equal(new, old)


def test_flatness_and_density_share_one_pass(measure):
    """capacity's pair: integrals and sups from the same radial orders."""
    xs = centres(measure)
    r_lo, r_hi = ranges(measure)[0]
    floor = max(measure.r_min, measure.diameter / math.sqrt(measure.size))
    jones, sups = jones_integrals(measure, xs, r_lo, r_hi, floor=floor)
    assert np.array_equal(jones, [old_jones_integral(measure, x, r_lo, r_hi)
                                  for x in xs])
    assert np.array_equal(sups, [old_sup_density(measure, x, floor)
                                 for x in xs])


# -- the pass itself --------------------------------------------------------

@pytest.mark.parametrize("dim", [2, 3])
def test_lane_distances_are_the_norms(dim):
    rng = np.random.default_rng(dim)
    scale = rng.uniform(1e-3, 1e3, size=(2000, 1))
    pts = rng.normal(size=(2000, dim)) * scale
    measure = WeightedPointMeasure(pts, np.ones(2000), 1, r_min=1e-6)
    xs = rng.normal(size=(5, dim))
    block = RadialBlock(measure, len(xs)).sort(xs)
    for x, dist, offsets in zip(xs, block.dist, np.moveaxis(block.offsets,
                                                            0, -1)):
        norms = np.linalg.norm(pts - x, axis=1)
        order = np.argsort(norms, kind="stable")
        assert np.array_equal(dist, norms[order])
        assert np.array_equal(offsets, (pts - x)[order])


@pytest.mark.parametrize("build", [lambda: lipschitz_graph(300, seed=4),
                                   surface])
def test_blocks_stay_within_the_budget_and_reuse_one_workspace(monkeypatch,
                                                               build):
    measure = build()
    made = []
    init = RadialBlock.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(RadialBlock, "__init__", counting)

    def arrays(block):
        """Every array the block holds, but the measure's own data."""
        return [value for name, value in vars(block).items()
                if isinstance(value, np.ndarray)
                and name not in ("_points", "_weights")]

    widths = []
    sort = RadialBlock.sort

    def sorting(self, centers):
        sort(self, centers)
        widths.append(self.rows)
        return self

    monkeypatch.setattr(RadialBlock, "sort", sorting)
    size = measure.size

    def visit(block):
        assert all(a.size <= RADIAL_BLOCK_ELEMENTS for a in arrays(block))
        return block.sup_density(measure.r_min)

    radial_pass(measure, measure.points, visit)
    assert len(made) == 1 and sum(widths) == size
    # every block is sized by its d offset planes, the flatness moments
    # being streamed
    assert widths[0] == min(size, RADIAL_BLOCK_ELEMENTS
                            // (measure.dim * (size + 1)))
    # the flatness, truncation and main-lemma passes
    kernel = riesz_kernel(1, measure.dim)
    for run in (lambda: jones_field(measure),
                lambda: truncated_field(kernel, measure, measure.points,
                                        [measure.r_min]),
                lambda: main_lemma_check(measure, kernel)):
        made.clear()
        widths.clear()
        run()
        assert len(made) == 1 and sum(widths) == size
        assert widths[0] == min(size, RADIAL_BLOCK_ELEMENTS
                                // (measure.dim * (size + 1)))
        assert made[0].offsets.size > 0
        assert all(a.size <= RADIAL_BLOCK_ELEMENTS for a in arrays(made[0]))
    # each visit is told the slice of the centres its block holds: the
    # slices tile the centres once, in order, also at one centre a block
    for budget in (RADIAL_BLOCK_ELEMENTS, 1):
        monkeypatch.setattr(measure_module, "RADIAL_BLOCK_ELEMENTS", budget)
        held = []

        def told(block):
            assert block.centres.stop - block.centres.start == block.rows
            held.append(np.arange(size)[block.centres])
            return np.zeros(block.rows)

        radial_pass(measure, measure.points, told)
        assert np.array_equal(np.concatenate(held), np.arange(size))
        assert budget > 1 or len(held) == size


def test_every_sort_fills_the_mass_sums():
    measure = lipschitz_graph(120, seed=3)
    block = RadialBlock(measure, 3)
    # a full block, then a narrower one sorted into the same workspace
    for xs in (measure.points[:3], measure.points[3:5]):
        block.sort(xs)
        want = np.hstack((np.zeros((len(xs), 1)),
                          np.cumsum(block.mass, axis=1)))
        assert np.array_equal(block.sums, want)


def old_moment_sums(block, rows, counts):
    """The flatness reader's moment sums, one float lane at a time."""
    z, w = block.offsets, block.mass
    dim = z.shape[0]
    product = np.empty(w.shape)
    prefix = np.zeros((w.shape[0], w.shape[1] + 1))
    first = np.empty((rows.size, dim))
    second = np.empty((rows.size, dim, dim))
    at = rows * prefix.shape[1] + counts
    np.cumsum(w, axis=1, out=prefix[:, 1:])
    mass = prefix.take(at)
    for a in range(dim):
        np.multiply(w, z[a], out=product)
        np.cumsum(product, axis=1, out=prefix[:, 1:])
        first[:, a] = prefix.take(at)
    for a, b in itertools.combinations_with_replacement(range(dim), 2):
        np.multiply(z[a], z[b], out=product)
        np.multiply(w, product, out=product)
        np.cumsum(product, axis=1, out=prefix[:, 1:])
        second[:, a, b] = second[:, b, a] = prefix.take(at)
    return mass, first, second


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape
            and np.array_equal(np.ascontiguousarray(got).view(np.int64),
                               np.ascontiguousarray(want).view(np.int64)))


def test_prefix_sums_two_lanes_per_complex_step_bit_for_bit():
    """Each half of a complex prefix sum is its lane's float prefix sum,
    bit for bit, and raises the same warnings: signed zeros, subnormals,
    infinities, NaN and sums that overflow."""
    big, tiny = np.finfo(float).max, 5e-324
    rng = np.random.default_rng(8)
    re = np.array([
        [big, big, -big, 1.0, 2.0, 3.0],
        [-0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308, 0.0],
        [np.inf, -np.inf, 1.0, np.nan, -0.0, 4.0],
        [1e308, 1e308, 1e308, -1e308, 0.5, -0.0],
        *(rng.normal(size=(3, 6)) * 10.0 ** rng.integers(-300, 300, (3, 6))),
    ])
    im = np.array([
        [-0.0, 0.0, -0.0, tiny, tiny, -tiny],
        [big, big, np.nan, -big, np.inf, -np.inf],
        [0.1, 0.2, 0.3, -np.inf, np.inf, 1.0],
        [-big, -big, big, 2.0, -0.0, 0.0],
        *(rng.normal(size=(3, 6)) * 10.0 ** rng.integers(-300, 300, (3, 6))),
    ])
    lanes = np.empty(re.shape, dtype=complex)
    lanes.real, lanes.imag = re, im

    def summed(values, dtype):
        with warnings.catch_warnings(record=True) as seen, \
                np.errstate(all="warn"):
            warnings.simplefilter("always")
            out = _prefix(values, np.empty((len(values), 7), dtype=dtype))
        return out, {str(w.message) for w in seen}

    pair, told = summed(lanes, complex)
    real, told_re = summed(re, float)
    imag, told_im = summed(im, float)
    assert same_bits(pair.real, real) and same_bits(pair.imag, imag)
    assert told == told_re | told_im
    assert told == {"overflow encountered in accumulate",
                    "invalid value encountered in accumulate"}


@pytest.mark.parametrize("dim", [2, 3, 4, 8])
def test_moment_sums_equal_the_per_lane_sums(dim):
    """(d + 1)(d + 2) / 2 lanes, two per complex step and at d = 4 and 8
    an odd last one with a zero partner: every W, S1 and S2 entry is the
    per-lane float sum bit for bit, in a full block, in a narrower block
    sorted into the same workspace, and after a re-sort."""
    rng = np.random.default_rng(dim)
    pts = rng.normal(size=(150, dim)) * 10.0 ** rng.integers(-3, 3, (150, 1))
    pts[100:] = pts[:50]    # ties and zero distances
    weights = 10.0 ** rng.uniform(-6, 6, 150)
    measure = WeightedPointMeasure(pts, weights, 1)
    block = RadialBlock(measure, 6)
    for xs in (pts[:6], pts[40:43], rng.normal(size=(6, dim)), pts[:1]):
        block.sort(xs)
        rows = rng.integers(0, len(xs), 40)
        counts = rng.integers(0, measure.size + 1, 40)
        counts[:2] = measure.size, 1
        got = _moment_sums(block, rows, counts)
        for lane, want in zip(got, old_moment_sums(block, rows, counts)):
            assert same_bits(lane, want)
        assert same_bits(block.sums[rows, counts], got[0])


def test_a_sort_drops_the_mass_sums():
    """``sums`` is summed at its first read after a sort; a re-sort drops
    it, so the next read sums the new order."""
    graph = lipschitz_graph(120, seed=3)
    weights = np.random.default_rng(3).uniform(0.5, 2.0, graph.size)
    measure = WeightedPointMeasure(graph.points, weights, 1)
    block = RadialBlock(measure, 3)
    block.sort(measure.points[:3])
    stale = block.sums.copy()
    assert block.sums is block.sums
    block.sort(measure.points[-3:])
    assert "sums" not in vars(block)
    want = np.hstack((np.zeros((3, 1)), np.cumsum(block.mass, axis=1)))
    assert np.array_equal(block.sums, want)
    assert not np.array_equal(stale, want)


# each reader with no centres, and the shapes of its lanes
NO_CENTRES = {
    "jones_integrals": (
        lambda m, k, xs: jones_integrals(m, xs, m.r_min, m.diameter),
        [(0,)]),
    "jones_integrals_floor": (
        lambda m, k, xs: jones_integrals(m, xs, m.r_min, m.diameter,
                                         floor=m.r_min),
        [(0,), (0,)]),
    "beta_profile_rows": (
        lambda m, k, xs: beta_profile_rows(m, xs, m.r_min, m.diameter),
        [(0,)]),
    "truncated_field": (
        lambda m, k, xs: truncated_field(k, m, xs, [m.r_min, 0.1, 1.0]),
        [(0, 3, 2)]),
    "t_phi_eps": (
        lambda m, k, xs: t_phi_eps(k, m, xs, np.zeros(0), np.zeros(0),
                                   np.ones(m.size)),
        [(0, 2)]),
    "t_phi_star": (
        lambda m, k, xs: t_phi_star(k, m, xs, np.zeros(0), np.ones(m.size)),
        [(0,)]),
    "m_tilde": (
        lambda m, k, xs: m_tilde(m, np.ones(m.size), xs),
        [(0,)]),
    "sup_density": (
        lambda m, k, xs: radial_pass(
            m, xs, lambda block: block.sup_density(m.r_min)),
        [(0,)]),
}


@pytest.mark.parametrize("reader", sorted(NO_CENTRES))
def test_readers_answer_no_centres_with_empty_rows(reader):
    run, shapes = NO_CENTRES[reader]
    measure = lipschitz_graph(60, seed=2)
    got = run(measure, riesz_kernel(1, 2), np.empty((0, 2)))
    lanes = got if isinstance(got, tuple) else (got,)
    assert [np.shape(lane) for lane in lanes] == shapes


def test_truncated_field_of_an_empty_measure_is_zero():
    empty = WeightedPointMeasure(np.zeros((0, 2)), np.zeros(0), 1)
    got = truncated_field(riesz_kernel(1, 2), empty, np.zeros((3, 2)),
                          [0.0, 1.0])
    assert np.array_equal(got, np.zeros((3, 2, 2)))


def test_suppressed_sums_of_an_empty_measure_are_zero():
    empty = WeightedPointMeasure(np.zeros((0, 2)), np.zeros(0), 1)
    k, xs, phi = riesz_kernel(1, 2), np.zeros((3, 2)), np.ones(3)
    assert np.array_equal(t_phi_eps(k, empty, xs, 0.0, phi, np.zeros(0)),
                          np.zeros((3, 2)))
    assert np.array_equal(t_phi_star(k, empty, xs, phi, np.zeros(0)),
                          np.zeros(3))


def test_pass_memory_is_a_few_blocks_not_atoms_squared():
    measure = lipschitz_graph(2000, seed=1)
    r_lo, r_hi = measure.r_min, measure.diameter

    def peak(xs):
        tracemalloc.start()
        try:
            jones_integrals(measure, xs, r_lo, r_hi, floor=measure.r_min)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak(measure.points[:1])
    every = peak(measure.points)
    # a dense atoms x atoms float64 array alone would be 32 MB
    assert every < 16 * one
    assert every < 4e6
    # the truncation pass: its (atoms, cutoffs, 2) field plus one block
    tracemalloc.start()
    try:
        main_lemma_check(measure, riesz_kernel(1, 2))
        assert tracemalloc.get_traced_memory()[1] < 8e6
    finally:
        tracemalloc.stop()



def test_one_plane_fit_per_distinct_ball(monkeypatch, measure):
    """Radii whose balls hold the same atoms share one plane fit."""
    fitted = []
    plane_residuals = beta_module._plane_residuals

    def spy(W, S1, S2, n):
        fitted.append(len(W))
        return plane_residuals(W, S1, S2, n)

    monkeypatch.setattr(beta_module, "_plane_residuals", spy)
    xs = centres(measure)
    r_lo, r_hi = ranges(measure)[0]
    radii, _ = _checked_jones_grid(measure, r_lo, r_hi, 4)
    jones_integrals(measure, xs, r_lo, r_hi)
    distinct = 0
    for x in xs:
        dist = np.sort(np.linalg.norm(measure.points - x, axis=1))
        counts = np.searchsorted(dist, radii, side="right")
        distinct += np.unique(counts[counts > 0]).size
    assert sum(fitted) == distinct
