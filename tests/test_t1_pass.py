"""The t1 ball check against the per-atom main lemma it is made of.

t1_ball_check runs main_lemma_check on each ball's restriction, whose
truncation energies come from one blocked pass over the atoms.  The oracle
is the former per-atom body: on each restriction, one old truncation-sum
object per atom, its rows added in atom order, plus the flatness energy.
The two must give the same ratios bit for bit, so every comparison here is
exact equality.
"""

import math
import tracemalloc

import numpy as np
import pytest

from betascope import (Ball, CZKernel, WeightedPointMeasure, cantor4,
                       cauchy_kernel, jones_field, lipschitz_graph,
                       main_lemma_check, riesz_kernel, segment, t1_ball_check)
from betascope import measure as measure_module
from betascope.measure import RadialBlock
from betascope.verify import _cutoff_grid
from test_radial import OldTruncationSums
from test_radial_pass import old_jones_field


def old_main_lemma_ratio(measure, kernel, scales_per_octave):
    eps_grid = _cutoff_grid(measure, scales_per_octave)
    out = np.zeros(len(eps_grid))
    for w, x in zip(measure.weights, measure.points):
        row = OldTruncationSums(kernel, measure, x).beyond(eps_grid)
        out += w * np.sum(row**2, axis=1)
    jones = jones_field(measure, scales_per_octave=scales_per_octave)
    return float(np.max(out)) / (measure.total_mass
                                 + float(measure.weights @ jones))


def old_t1_ratios(measure, kernel, balls, scales_per_octave=4):
    ratios = []
    for ball in balls:
        part = measure.restrict_ball(ball)
        if part.is_empty:
            ratios.append(0.0)
            continue
        ratios.append(old_main_lemma_ratio(part, kernel, scales_per_octave))
    return ratios


def tie_cloud():
    """Grid-snapped atoms: repeated sites and many equal distances."""
    rng = np.random.default_rng(11)
    pts = rng.integers(-4, 5, size=(70, 2)) * 0.125
    pts = np.vstack((pts, pts[:6]))
    return WeightedPointMeasure(pts, rng.uniform(0.5, 2.0, len(pts)), 1)


def helix():
    t = np.linspace(0.0, 3.0, 90)
    pts = np.column_stack((np.cos(2 * t), np.sin(2 * t), 0.4 * t))
    return WeightedPointMeasure(pts, np.full(len(t), 1.0 / len(t)), 1)


def surface():
    rng = np.random.default_rng(5)
    uv = rng.uniform(0.0, 1.0, size=(120, 2))
    pts = np.column_stack((uv, 0.3 * np.sin(3 * uv[:, 0]) * uv[:, 1]))
    return WeightedPointMeasure(pts, rng.uniform(0.5, 1.5, len(pts)), 2)


CASES = {
    "segment-riesz": (lambda: segment(150), lambda: riesz_kernel(1, 2)),
    "cantor-cauchy": (lambda: cantor4(3), cauchy_kernel),
    "graph-riesz": (lambda: lipschitz_graph(200, seed=3),
                    lambda: riesz_kernel(1, 2)),
    "ties-cauchy": (tie_cloud, cauchy_kernel),
    "helix-riesz3": (helix, lambda: riesz_kernel(1, 3)),
    "surface-riesz3": (surface, lambda: riesz_kernel(2, 3)),
}


MAIN_LEMMA_CASES = {
    "ties-riesz": (tie_cloud, lambda: riesz_kernel(1, 2)),
    "ties-cauchy": (tie_cloud, cauchy_kernel),
    "helix-riesz13": (helix, lambda: riesz_kernel(1, 3)),
    "helix-riesz23": (helix, lambda: riesz_kernel(2, 3)),
}


@pytest.mark.parametrize("one_per_block", [False, True],
                         ids=["default-budget", "one-centre-blocks"])
@pytest.mark.parametrize("name", sorted(MAIN_LEMMA_CASES))
def test_main_lemma_bit_equal_to_the_per_atom_oracle(monkeypatch, name,
                                                     one_per_block):
    """Truncation and flatness read one radial pass; each side still
    equals its own per-atom oracle bit for bit."""
    make_measure, make_kernel = MAIN_LEMMA_CASES[name]
    measure, kernel = make_measure(), make_kernel()
    if one_per_block:
        monkeypatch.setattr(measure_module, "RADIAL_BLOCK_ELEMENTS", 1)
    rec = main_lemma_check(measure, kernel)
    assert rec["ratio"] == old_main_lemma_ratio(measure, kernel, 4)
    assert rec["rhs"] == measure.total_mass + float(
        measure.weights @ old_jones_field(measure))


def test_main_lemma_sorts_each_atom_once(monkeypatch):
    sorted_centres = []
    sort = RadialBlock.sort

    def spy(self, centers):
        sorted_centres.append(np.array(centers, dtype=float))
        return sort(self, centers)

    monkeypatch.setattr(RadialBlock, "sort", spy)
    for measure in (lipschitz_graph(200, seed=3), helix()):
        sorted_centres.clear()
        main_lemma_check(measure, riesz_kernel(1, measure.dim))
        assert np.array_equal(np.concatenate(sorted_centres), measure.points)


def ball_sample(measure, count=24, seed=0):
    """Atom-centred balls with log-uniform radii, as verify samples them,
    plus off-atom, empty, single-atom, duplicate-site and whole balls."""
    rng = np.random.default_rng(seed)
    pts = measure.points
    centres = rng.choice(measure.size, size=count, replace=False)
    lo, hi = measure.r_min, 1.5 * measure.diameter
    radii = np.exp(rng.uniform(math.log(lo), math.log(hi), count))
    balls = [Ball(pts[c], float(r)) for c, r in zip(centres, radii)]
    centroid = pts.mean(axis=0)
    spread = pts.std(axis=0) + measure.r_min
    for _ in range(4):
        off = centroid + rng.normal(size=measure.dim) * spread
        balls.append(Ball(off, float(rng.uniform(0.1, 0.6)
                                     * measure.diameter)))
    balls.append(Ball(pts.max(axis=0) + 10 * measure.diameter, 0.5))
    # radius r_min holds no second site: diameter 0, below r_lo
    balls.append(Ball(pts[0], measure.r_min))
    balls.append(Ball(pts[-1], measure.r_min))
    balls.append(Ball(centroid, measure.diameter))
    return balls


@pytest.fixture(params=sorted(CASES))
def case(request):
    make_measure, make_kernel = CASES[request.param]
    measure = make_measure()
    return measure, make_kernel(), ball_sample(measure)


def test_ratios_bit_equal_to_per_ball_main_lemma(case):
    measure, kernel, balls = case
    rec = t1_ball_check(measure, kernel, balls)
    assert rec["params"]["per_ball"] == old_t1_ratios(measure, kernel, balls)
    assert rec["samples"] == len(balls)
    assert rec["ratio"] == max(rec["params"]["per_ball"])


def test_edge_balls_score_as_before(case):
    measure, kernel, balls = case
    per_ball = t1_ball_check(measure, kernel, balls)["params"]["per_ball"]
    empty, first, last = per_ball[-4], per_ball[-3], per_ball[-2]
    assert empty == 0.0
    # one site: no truncation energy, no flatness, ratio exactly 0
    assert first == 0.0 and last == 0.0


def test_scales_per_octave_follow_the_oracle():
    measure, kernel = cantor4(3), riesz_kernel(1, 2)
    balls = ball_sample(measure, count=12, seed=4)
    for spo in (1, 3, 8):
        rec = t1_ball_check(measure, kernel, balls, scales_per_octave=spo)
        assert rec["params"]["per_ball"] == old_t1_ratios(
            measure, kernel, balls, scales_per_octave=spo)


def test_small_blocks_change_no_bit(monkeypatch):
    """One centre per radial block still gives the same ratios: blocking
    only bounds the temporaries."""
    measure, kernel = tie_cloud(), cauchy_kernel()
    balls = ball_sample(measure, count=20, seed=2)
    want = t1_ball_check(measure, kernel, balls)
    monkeypatch.setattr(measure_module, "RADIAL_BLOCK_ELEMENTS", 1)
    assert t1_ball_check(measure, kernel, balls) == want


def test_no_balls_and_all_empty():
    measure, kernel = segment(20), riesz_kernel(1, 2)
    assert t1_ball_check(measure, kernel, [])["params"]["per_ball"] == []
    far = [Ball((40.0, 40.0), 1.0), Ball((-40.0, 0.0), 2.0)]
    assert t1_ball_check(measure, kernel, far)["params"]["per_ball"] == [
        0.0, 0.0]


def test_outside_terms_never_reach_a_ball():
    """Kernel values at atoms outside a ball are dropped, not scaled by
    zero: a non-finite value there must not turn the ball's sums to NaN."""
    near = np.column_stack((np.linspace(0.0, 1.0, 40), np.zeros(40)))
    far = near + np.array([50.0, 0.0])
    measure = WeightedPointMeasure(np.vstack((near, far)),
                                   np.full(80, 1.0 / 80), 1)
    riesz = riesz_kernel(1, 2)

    def fn(v, r):
        return np.where(r > 10.0, np.nan, riesz.fn(v, r))

    kernel = CZKernel("riesz-nan-far", 1, 2, 2, fn)
    balls = [Ball(near[c], r) for c, r in
             ((0, 0.3), (10, 0.5), (25, 0.2), (39, 1.0), (20, 0.05))]
    per_ball = t1_ball_check(measure, kernel, balls)["params"]["per_ball"]
    assert all(math.isfinite(r) for r in per_ball)
    assert per_ball == old_t1_ratios(measure, kernel, balls)


def test_memory_stays_below_a_dense_atoms_by_balls_array():
    """As many small balls as atoms: the check holds one restriction and
    its block temporaries at a time, never a dense atoms x balls float64
    array."""
    measure, kernel = lipschitz_graph(1000, seed=2), riesz_kernel(1, 2)
    rng = np.random.default_rng(3)
    radii = rng.uniform(1.0, 12.0, measure.size) * measure.r_min
    balls = [Ball(p, float(r)) for p, r in zip(measure.points, radii)]
    dense = 8 * measure.size * len(balls)
    tracemalloc.start()
    try:
        rec = t1_ball_check(measure, kernel, balls)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec["samples"] == len(balls)
    assert peak < dense / 2
