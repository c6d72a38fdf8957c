"""Inequality checks: square-function bounds, Cotlar-type maximal control,
pointwise domination of tree operators, and the capacity lower bound.

Every check returns a structured record with the inputs needed to reproduce
it and a finite headline number (usually a ratio).  Constants the theory
leaves unspecified become measured values; acceptance is stability of those
values under refinement, handled by the test suite and the baseline
comparison below.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from ._util import geometric_grid, ordered_sum
# perfbench/tracer.py patches parallel_map here by name
from ._util import parallel_map  # noqa: F401
from .beta import (_checked_jones_grid, _jones_grid, _jones_values,
                   _plane_residual_sq, _weighted_plane, jones_integrals)
# perfbench/tracer.py patches jones_integral here by name
from .beta import jones_integral  # noqa: F401
from .corona import (TreeGeometry, _packing_record, _packing_span,
                     packing_audit)
from .measure import WeightedPointMeasure, radial_pass
from .operators import (
    _block_damping,
    _cutoff_sums,
    _kernel_terms,
    _mass_maximal,
    _suffix,
    _suffix_sums,
    k_r_chain,
    m_tilde,
    t_phi_eps,
    t_phi_star,
)
# perfbench/tracer.py patches truncated_field here by name
from .operators import truncated_field  # noqa: F401

__all__ = [
    "jones_field",
    "main_lemma_check",
    "t1_ball_check",
    "cotlar_check",
    "pointwise_domination_check",
    "verify_checks",
    "capacity_lower_bound",
    "make_report",
    "compare_baseline",
]

REPORT_SCHEMA = "betascope-report/1"


def jones_field(measure: WeightedPointMeasure, r_lo=None, r_hi=None,
                scales_per_octave: int = 4) -> np.ndarray:
    """Per-atom multiscale flatness energy over [r_lo, r_hi].

    One blocked radial pass over the atoms (``jones_integrals``).
    """
    if measure.is_empty:
        return np.zeros(0)
    if r_lo is None:
        r_lo = _flatness_floor(measure, scales_per_octave)
    else:
        r_lo = float(r_lo)
    r_hi = measure.diameter if r_hi is None else float(r_hi)
    if r_hi <= r_lo:
        return np.zeros(measure.size)
    return jones_integrals(measure, measure.points, r_lo, r_hi,
                           scales_per_octave)


def _flatness_floor(measure, scales_per_octave: int) -> float:
    """Default lower radius of the flatness energy."""
    # same half-step offset as the default truncation grid: scale radii
    # must not land on exact inter-atom distances, or ball membership
    # flips under float-level perturbations of the coordinates
    return measure.r_min * 2.0 ** (1.0 / (2 * scales_per_octave))


def _cutoff_grid(measure, scales_per_octave: int) -> np.ndarray:
    """Truncation cutoffs of the square-function bound, up to the diameter."""
    hi = max(measure.diameter, measure.r_min)
    # the half-step offset keeps grid points away from dyadic multiples
    # of the minimum gap, where the truncation jumps and a float-level
    # perturbation of the input could flip an atom across the cutoff
    lo = measure.r_min / 2 * 2.0 ** (1.0 / (2 * scales_per_octave))
    return geometric_grid(lo, hi, scales_per_octave)


def _main_lemma_grids(measure, scales_per_octave: int):
    """The main lemma's cutoffs and its flatness grid (radii, log_rho)."""
    if measure.is_empty:
        raise ValueError("measure is empty")
    r_lo = _flatness_floor(measure, scales_per_octave)
    if measure.diameter > r_lo:
        grid = _jones_grid(r_lo, measure.diameter, scales_per_octave)
    else:
        grid = np.zeros(0), 0.0
    return _cutoff_grid(measure, scales_per_octave), grid


def main_lemma_check(measure, kernel, scales_per_octave: int = 4) -> dict:
    """Square-function bound: worst truncation energy against mass + flatness.

    lhs is the max over cutoffs of sum_i w_i |T_eps(x_i)|^2; rhs is the
    total mass plus the atom-weighted flatness energy up to the diameter.
    One radial pass serves both sides: each block's sorted rows are read
    by the truncation reader at the cutoffs (as ``truncated_field``), then
    by the flatness reader at the flatness radii (as ``jones_field``), so
    every atom is sorted once.
    """
    eps_grid, grid = _main_lemma_grids(measure, scales_per_octave)
    cuts = eps_grid.size

    def visit(block):
        # one search per row answers the cutoffs and the radii
        counts = block.count(np.concatenate((eps_grid, grid[0])))
        field = _cutoff_sums(_suffix_sums(kernel, block), block,
                             counts[:, :cuts])
        # with no radii every row's flatness sum is empty, so 0.0
        return (np.sum(field**2, axis=2),
                *_jones_values(block, [grid], counts[:, cuts:]))

    squares, jones = radial_pass(measure, measure.points, visit)
    return _main_lemma_record(measure, kernel, eps_grid, squares, jones,
                              scales_per_octave)


def _main_lemma_record(measure, kernel, eps_grid, squares, jones,
                       scales_per_octave: int) -> dict:
    """``main_lemma_check``'s record from each atom's squared truncations
    at the cutoffs and its flatness energy."""
    # atom by atom in index order, which fixes the summation order
    energies = ordered_sum(measure.weights[:, None] * squares)
    lhs = float(np.max(energies))
    rhs = measure.total_mass + float(measure.weights @ jones)
    return {
        "name": "main_lemma",
        "lhs": lhs,
        "rhs": rhs,
        "ratio": lhs / rhs,
        "samples": int(measure.size * eps_grid.size),
        "params": {
            "kernel": kernel.name,
            "eps_grid": [float(e) for e in eps_grid],
            "scales_per_octave": scales_per_octave,
        },
    }


def t1_ball_check(measure, kernel, balls, scales_per_octave: int = 4) -> dict:
    """main_lemma_check on ball restrictions; the worst ratio over the sample.

    A restriction keeps the atoms' index order and r_min; an empty ball
    scores 0.0.
    """
    ratios = []
    for ball in balls:
        part = measure.restrict_ball(ball)
        ratios.append(0.0 if part.is_empty else main_lemma_check(
            part, kernel, scales_per_octave)["ratio"])
    worst = max(ratios) if ratios else 0.0
    return {
        "name": "t1_balls",
        "lhs": worst,
        "rhs": 1.0,
        "ratio": worst,
        "samples": len(ratios),
        "params": {"kernel": kernel.name, "per_ball": ratios},
    }


def _strided(indices: np.ndarray, cap: int) -> np.ndarray:
    if indices.size <= cap:
        return indices
    return indices[:: max(1, indices.size // cap)][:cap]


def _tree_sigma(measure, corona, top_id: int):
    """The geometry of the tree rooted at ``top_id``, sigma = measure
    restricted to B0(R), and Phi_R at sigma's atoms."""
    geometry = TreeGeometry(corona, top_id)
    sigma = measure.restrict_ball(geometry.b0)
    return geometry, sigma, geometry.phi(sigma.points)


def cotlar_check(measure, kernel, corona, top_id: int,
                 max_samples: int = 128) -> dict:
    """Maximal suppressed operator against maximal functions of its output.

    With sigma the restriction to B0(R) and Phi_R the tree suppression:
    lhs(x) = sup_eps |T_{Phi,eps} sigma(x)| and
    rhs(x) = Mtilde_sigma(|T_Phi sigma|)(x) + Mtilde_{sigma,3/2}1(x),
    sampled over atoms of sigma: the Cotlar inequality with s = 1 applied
    to sigma itself.  Samples with rhs = 0 < lhs are excluded and counted
    in the record.
    """
    _, sigma, phi_sigma = _tree_sigma(measure, corona, top_id)
    # suppressed operator applied to sigma, at every sigma atom: eps = 0
    # leaves out only the atoms at the atom's own location
    field = t_phi_eps(kernel, sigma, sigma.points, np.zeros(sigma.size),
                      phi_sigma, phi_sigma)
    sample = _strided(np.arange(sigma.size), max_samples)
    points = sigma.points[sample]
    stars = t_phi_star(kernel, sigma, points, phi_sigma[sample], phi_sigma)
    return _cotlar_record(kernel, sigma, top_id, field, sample, stars,
                          m_tilde(sigma, np.ones(sigma.size), points,
                                  variant="3/2"))


def _cotlar_record(kernel, sigma, top_id: int, field, sample, stars,
                   ones_max) -> dict:
    """``cotlar_check``'s record from T_Phi sigma at every atom of sigma
    (``field``), and from T_{Phi,*} sigma (``stars``) and
    Mtilde_{sigma,3/2}1 (``ones_max``) at the ``sample`` atoms."""
    # row by row: the norm of one vector is a dot product, which rounds
    # unlike norm(axis=1)
    t_vals = np.array([float(np.linalg.norm(row)) for row in field])
    rhss = m_tilde(sigma, t_vals, sigma.points[sample],
                   variant="plain") + ones_max
    flagged = 0
    best = 0.0
    worst_lhs = worst_rhs = 0.0
    for lhs, rhs in zip(stars.tolist(), rhss.tolist()):
        if rhs == 0.0:
            if lhs > 0.0:
                flagged += 1
            continue
        if lhs / rhs > best:
            best, worst_lhs, worst_rhs = lhs / rhs, lhs, rhs
    return {
        "name": "cotlar",
        "lhs": worst_lhs,
        "rhs": worst_rhs,
        "ratio": best,
        "samples": int(sample.size),
        "params": {"kernel": kernel.name, "s": 1.0, "flagged": flagged,
                   "top": top_id},
    }


def pointwise_domination_check(measure, kernel, corona, bump, top_id: int,
                               max_samples: int = 128) -> dict:
    """Excess of the tree operator over the suppressed maximal operator.

    Per sampled atom x of the tree root R:
    c_x = max(0, |K_R(x)| - T_{Phi_R,*}(chi_{B0} mu)(x)) / theta(B_R);
    the record's ratio is the largest c_x.
    """
    geometry, sigma, phi_sigma = _tree_sigma(measure, corona, top_id)
    sample = _strided(corona.lattice.cells[top_id].point_indices, max_samples)
    points = measure.points[sample]
    stars = t_phi_star(kernel, sigma, points, geometry.phi(points), phi_sigma)
    return _pointwise_record(corona, kernel, bump, top_id, sample, stars)


def _pointwise_record(corona, kernel, bump, top_id: int, sample,
                      stars) -> dict:
    """``pointwise_domination_check``'s record from T_{Phi_R,*} at the
    ``sample`` atoms (``stars``)."""
    theta_ref = corona.theta_ref[top_id]
    excesses = [
        max(0.0, float(np.linalg.norm(k_r_chain(
            corona, kernel, bump, top_id, int(atom)))) - star) / theta_ref
        for atom, star in zip(sample, stars.tolist())]
    worst = max(excesses) if excesses else 0.0
    return {
        "name": "pointwise_domination",
        "lhs": worst,
        "rhs": 1.0,
        "ratio": worst,
        "samples": int(sample.size),
        "params": {"kernel": kernel.name, "top": top_id,
                   "bump_a0": bump.a0},
    }


def verify_checks(measure, kernel, corona, bump, scales_per_octave: int = 4,
                  max_samples: int = 128):
    """The records of ``main_lemma_check``, of ``cotlar_check`` and
    ``pointwise_domination_check`` on the root tree, and of
    ``packing_audit``, in that order, each equal to its check's own.

    B0 of the root holds every atom on inputs the lattice accepts, so sigma
    is the measure and both tree checks sample the same atoms.  Then one
    radial pass over the atoms serves all four: each block is searched
    once for the cutoffs and both flatness grids, the kernel is evaluated
    once for the plain terms (the truncations) and the terms damped by
    Phi_R (T_Phi sigma at every atom), the mass sums give
    Mtilde_{sigma,3/2}1 at the samples, and one flatness read serves both
    grids.  One ``t_phi_star`` call gives T_{Phi,*} at the samples for
    both tree checks, and one ``m_tilde`` call Cotlar's Mtilde_sigma of
    |T_Phi sigma|.  Should sigma leave atoms out, each check runs on its
    own.
    """
    top_id = corona.root_id
    _, sigma, phi = _tree_sigma(measure, corona, top_id)
    if sigma.size < measure.size:
        return (main_lemma_check(measure, kernel, scales_per_octave),
                cotlar_check(measure, kernel, corona, top_id, max_samples),
                pointwise_domination_check(measure, kernel, corona, bump,
                                           top_id, max_samples),
                packing_audit(corona, scales_per_octave))
    eps_grid, lemma_grid = _main_lemma_grids(measure, scales_per_octave)
    grids = [lemma_grid, _checked_jones_grid(
        measure, *_packing_span(corona), scales_per_octave)]
    radii = np.concatenate([eps_grid] + [grid[0] for grid in grids])
    cuts = eps_grid.size
    # the root cell holds every atom in index order, so both tree checks
    # sample these atoms
    sample = _strided(np.arange(measure.size), max_samples)

    def visit(block):
        counts = block.count(radii)
        vals, terms = _kernel_terms(kernel, block)
        damping = _block_damping(kernel, block, vals, phi, phi)
        del vals
        suffix = _suffix(terms, block)
        squares = np.sum(_cutoff_sums(suffix, block, counts[:, :cuts])**2,
                         axis=2)
        del suffix
        terms *= damping
        field = _suffix(terms, block)[np.arange(block.rows), block.near]
        del terms
        # the block's samples; the other rows keep 0.0
        ones_max = np.zeros(block.rows)
        rows = sample[(sample >= block.centres.start)
                      & (sample < block.centres.stop)] - block.centres.start
        ones_max[rows] = _mass_maximal(block, rows)
        return (squares, field, ones_max,
                *_jones_values(block, grids, counts[:, cuts:]))

    squares, field, ones_max, lemma_jones, packing_jones = radial_pass(
        measure, measure.points, visit)
    stars = t_phi_star(kernel, sigma, sigma.points[sample], phi[sample], phi)
    return (_main_lemma_record(measure, kernel, eps_grid, squares,
                               lemma_jones, scales_per_octave),
            _cotlar_record(kernel, sigma, top_id, field, sample, stars,
                           ones_max[sample]),
            _pointwise_record(corona, kernel, bump, top_id, sample, stars),
            _packing_record(corona, packing_jones))


def capacity_lower_bound(candidates, scales_per_octave: int = 8) -> dict:
    """Largest admissible multiple of each candidate measure, and its mass.

    Per support atom x of a candidate: A(x) is the sup over radii of the
    density theta(x, r), restricted to r >= max(r_min, diam/sqrt(N)) so a
    single atom's mass spike below the sampling scale cannot dominate;
    I(x) is the flatness energy over [r_min, diam] plus the exact tail
    integral beyond the diameter, where the in-ball set is frozen:
    there beta(x,r)^2 theta(x,r) = res * mass * r^(-2n-2) with res the
    whole-set plane residual, and the dr/r integral from diam to infinity
    is res * mass / ((2n+2) diam^(2n+2)).  The admissible multiple solves
    t A + t^2 I = 1, evaluated in the cancellation-free form
    t = 2/(A + sqrt(A^2 + 4 I)); the reported bound is t* ||mu|| for the
    worst atom, and the best candidate wins.
    """
    if isinstance(candidates, WeightedPointMeasure):
        candidates = [candidates]
    if not candidates:
        raise ValueError("need at least one candidate measure")
    entries = []
    for idx, mu in enumerate(candidates):
        if mu.is_empty:
            raise ValueError(f"candidate {idx} is empty")
        n = mu.target_dim
        diam = mu.diameter
        sub_resolution = diam <= mu.r_min
        if sub_resolution:
            floor = mu.r_min
            jones = np.zeros(mu.size)
            tail = 0.0
            dens = radial_pass(mu, mu.points,
                               lambda block: block.sup_density(floor))
        else:
            floor = max(mu.r_min, diam / math.sqrt(mu.size))
            # one radial order per atom serves its flatness and its density
            jones, dens = jones_integrals(mu, mu.points, mu.r_min, diam,
                                          scales_per_octave, floor=floor)
            centroid, basis, _ = _weighted_plane(mu.points, mu.weights, n)
            res = _plane_residual_sq(mu.points - centroid, mu.weights, basis)
            tail = res * mu.total_mass / ((2 * n + 2) * diam ** (2 * n + 2))
        energy = jones + tail
        t_vals = 2.0 / (dens + np.sqrt(dens**2 + 4.0 * energy))
        worst = int(np.argmin(t_vals))
        t_star_val = float(t_vals[worst])
        entries.append({
            "candidate": idx,
            "t_star": t_star_val,
            "bound": t_star_val * mu.total_mass,
            "worst_atom": worst,
            "density_floor": floor,
            "tail": tail,
            "sub_resolution": sub_resolution,
            "size": mu.size,
        })
    best = max(e["bound"] for e in entries)
    return {
        "name": "capacity",
        "lhs": best,
        "rhs": 1.0,
        "ratio": best,
        "samples": len(entries),
        "params": {"scales_per_octave": scales_per_octave,
                   "candidates": entries},
    }


def make_report(input_desc: dict, checks: list, config: dict,
                baseline_failures=None, stamp=None) -> dict:
    """Assemble the serializable report envelope."""
    return {
        "schema": REPORT_SCHEMA,
        "input": input_desc,
        "config": config,
        "checks": {rec["name"]: rec for rec in checks},
        "baseline_failures": baseline_failures,
        "generated_at": stamp,
    }


def _finite_number(label: str, value) -> float:
    """``value`` as a float; ValueError unless it is a finite JSON number."""
    # exact comparison: NaN, infinities and ints beyond any float all fail
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{label} must be a finite number, got {value!r}")
    return float(value)


def compare_baseline(report: dict, baseline: dict) -> list:
    """Mismatches of report check fields against stored baseline entries.

    Baseline format: {"checks": {name: {"value": v, "rel_tol": t,
    "field": "ratio"}}}; field defaults to "ratio" and rel_tol to 0.2.
    A baseline of any other shape raises KeyError, TypeError or
    AttributeError; a value or rel_tol that is not a finite number, or a
    negative rel_tol, raises ValueError.
    """
    failures = []
    for name, entry in baseline["checks"].items():
        target = _finite_number(f"{name}.value", entry["value"])
        rel_tol = _finite_number(f"{name}.rel_tol", entry.get("rel_tol", 0.2))
        if rel_tol < 0:
            raise ValueError(f"{name}.rel_tol must be >= 0, got {rel_tol}")
        record = report["checks"].get(name)
        field = entry.get("field", "ratio")
        if record is None or field not in record:
            failures.append(f"{name}: missing from report")
            continue
        actual = float(record[field])
        if not abs(actual - target) <= rel_tol * abs(target):
            failures.append(
                f"{name}.{field}: got {actual:.6g}, baseline {target:.6g} "
                f"(rel_tol {rel_tol})"
            )
    return failures
