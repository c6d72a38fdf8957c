"""Scaling laws of the main lemma under refinement.

``main_lemma_check`` with the planar Riesz kernel, on two families that
refine the same support.  J is the flatness energy, the record's rhs minus
the total mass.  Each margin below sits well inside the measured values,
which are given beside it.
"""

import numpy as np
import pytest

from betascope import cantor4, main_lemma_check, riesz_kernel, segment


def lemma_sides(measure):
    """The main lemma's lhs and its flatness energy J."""
    record = main_lemma_check(measure, riesz_kernel(1, 2))
    return record["lhs"], record["rhs"] - measure.total_mass


@pytest.fixture(scope="module")
def cantor_sides():
    return [lemma_sides(cantor4(g)) for g in (2, 3, 4, 5)]


@pytest.fixture(scope="module")
def segment_sides():
    return [lemma_sides(segment(n)) for n in (64, 256, 1024)]


def test_cantor_truncation_energy_grows_each_generation(cantor_sides):
    # measured lhs 1.0043, 1.5085, 2.0128, 2.5171: steps of 0.504
    steps = np.diff([lhs for lhs, _ in cantor_sides])
    assert (steps >= 0.4).all(), steps


def test_cantor_flatness_energy_strictly_increases(cantor_sides):
    # measured J 0.1037, 0.1430, 0.1906, 0.2453: the four-corner set never
    # looks flat, and each generation adds scales where it does not
    jones = np.array([j for _, j in cantor_sides])
    assert (np.diff(jones) > 0.0).all(), jones


def test_segment_is_flat_at_every_scale(segment_sides):
    # atoms on a line: every beta is exactly 0, so J is 0.0
    assert [j for _, j in segment_sides] == [0.0, 0.0, 0.0]


def test_segment_truncation_energy_converges(segment_sides):
    # measured lhs 3.0142, 3.2090, 3.2669: steps 0.1948, then 0.0579, so
    # each step is positive and at most half the one before
    steps = np.diff([lhs for lhs, _ in segment_sides])
    assert (steps > 0.0).all(), steps
    assert steps[1] <= steps[0] / 2, steps
