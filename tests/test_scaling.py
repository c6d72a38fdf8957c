"""Dilation covariance: the lattice takes its unit from the input.

Under x -> Lx, mu -> L^n mu neither beta_2 nor the density theta changes.
The lattice's unit s is a power of two read from the input, so a
power-of-two L multiplies s and every length built on it exactly: the
corona and every check's ratio come out bit for bit as on the undilated
input.
"""

import functools

import numpy as np
import pytest

from betascope import (Ball, WeightedPointMeasure, build_corona,
                       build_lattice, cantor4, lipschitz_graph, riesz_kernel,
                       t1_ball_check, verify_checks)

INPUTS = {
    "graph": lambda: lipschitz_graph(600),
    "cantor": lambda: cantor4(4),
}
# (build_lattice, build_corona) parameters: the CLI defaults and the
# regime of the acceptance suite
REGIMES = {
    "defaults": ({}, {}),
    "acceptance": ({"a0": 4.0, "c0": 400.0}, {"tau": 0.005}),
}
BALLS = 8


def dilated(measure, factor):
    """x -> factor x, mu -> factor^n mu."""
    n = measure.target_dim
    return WeightedPointMeasure(factor * measure.points,
                                factor ** n * measure.weights, n)


@functools.lru_cache(maxsize=None)
def outcome(name, regime, factor):
    """The lattice's scale over factor, the corona's tops and triggers,
    and the ratios of the verify_checks records and of t1_ball_check on
    the input dilated by factor."""
    measure = dilated(INPUTS[name](), factor)
    lattice_params, corona_params = REGIMES[regime]
    lattice = build_lattice(measure, **lattice_params)
    corona = build_corona(lattice, **corona_params)
    kernel = riesz_kernel(1, 2)
    records = verify_checks(kernel, corona)
    centres = np.random.default_rng(0).choice(measure.size, BALLS,
                                              replace=False)
    radii = factor * np.geomspace(0.02, 1.0, BALLS)
    t1 = t1_ball_check(measure, kernel, [
        Ball(measure.points[c], r) for c, r in zip(centres, radii)])
    return {
        "unit": lattice.scale / factor,
        "tops": corona.tops,
        "triggered": corona.triggered,
        "ratios": [record["ratio"] for record in records],
        "t1": t1["params"]["per_ball"],
    }


@pytest.mark.parametrize("factor", [0.125, 8.0])
@pytest.mark.parametrize("regime", sorted(REGIMES))
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_dilation_keeps_the_corona_and_every_ratio(name, regime, factor):
    assert outcome(name, regime, factor) == outcome(name, regime, 1.0)


def test_the_checks_see_more_than_one_tree():
    # the acceptance regime stops trees below the root, so the check
    # above compares a corona with structure, not one tree
    for name in INPUTS:
        assert len(outcome(name, "acceptance", 1.0)["tops"]) > 1, name
