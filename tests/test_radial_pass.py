"""The blocked radial pass against the per-atom loops it replaced.

The oracles are the former per-atom code verbatim: ``jones_integral`` on
one profile per centre and the loops of ``jones_field`` and
``packing_audit`` over it.  The one-centre profile and density oracles,
the measures and the centres are ``test_radial``'s.  The pass sorts
blocks of centres at once, lane-major, and must reproduce every value bit
for bit, so every comparison here is exact equality.
"""

import math
import tracemalloc

import numpy as np
import pytest

from betascope import (WeightedPointMeasure, beta_profile_rows, build_corona,
                       build_lattice, condition_check, jones_field,
                       lipschitz_graph, packing_audit)
from betascope.beta import _jones_grid, jones_integrals
from betascope.measure import (RADIAL_BLOCK_ELEMENTS, Ball, RadialBlock,
                               radial_pass)
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
    radii, log_rho = _jones_grid(r_lo, r_hi, scales_per_octave)
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


def test_profile_rows_equal_the_one_centre_profiles(measure):
    xs = centres(measure)
    r_lo, r_hi = ranges(measure)[0]
    radii, _ = _jones_grid(r_lo, r_hi, 4)
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
        new = np.concatenate(radial_pass(
            measure, xs, lambda block: block.sup_density(floor)))
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
    block = RadialBlock(measure, len(xs), offsets=True).sort(xs)
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

    for lanes in (1, 6):
        made.clear()
        widths = []

        def visit(block):
            widths.append(block.rows)
            assert all(a.size <= RADIAL_BLOCK_ELEMENTS for a in arrays(block))
            return block.sup_density(measure.r_min)

        radial_pass(measure, measure.points, visit, lanes=lanes)
        assert len(made) == 1 and sum(widths) == measure.size
        # a density-only pass neither keeps nor gathers the offsets
        assert made[0]._offsets is None and "offsets" not in vars(made[0])
    # the flatness pass, which reads them
    made.clear()
    jones_field(measure)
    assert len(made) == 1
    assert made[0].offsets.size > 0
    assert all(a.size <= RADIAL_BLOCK_ELEMENTS for a in arrays(made[0]))


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

