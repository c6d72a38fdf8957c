"""Inequality checks: square-function bounds, Cotlar-type maximal control,
pointwise domination of tree operators, and the capacity lower bound.

Every check returns one ``check_record``: the inequality's two sides
``lhs`` and ``rhs``, their ``ratio`` (lhs / rhs, or 0.0 when rhs is not
positive), the number of ``samples`` behind them and the ``params`` that
reproduce them.  The ratio is the measured constant the theory leaves
unspecified; acceptance is stability of those values under refinement,
handled by the test suite and the baseline comparison below.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from ._util import ordered_sum, strided
# perfbench/tracer.py patches parallel_map here by name
from ._util import parallel_map  # noqa: F401
from .beta import (_checked_jones_grid, _jones_values, _octaves,
                   _plane_residual_sq, _weighted_plane, jones_integrals)
# perfbench/tracer.py patches jones_integral here by name
from .beta import jones_integral  # noqa: F401
from .corona import TreeGeometry, _packing_record, _packing_span
from .measure import WeightedPointMeasure, radial_pass
from .operators import (
    BumpFamily,
    _cutoff_sums,
    _kernel_terms,
    _norm_sq,
    _suffix,
    k_r_chain,
    m_tilde,
    t_phi_eps,
    t_phi_star,
)
# perfbench/tracer.py patches truncated_field here by name
from .operators import truncated_field  # noqa: F401

__all__ = [
    "check_record",
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


def check_record(name: str, lhs, rhs, samples: int, params: dict) -> dict:
    """One report entry: an inequality's two sides, their ratio (0.0 when
    rhs is not positive), the number of samples behind them and the
    parameters that reproduce them."""
    return {
        "name": name,
        "lhs": lhs,
        "rhs": rhs,
        "ratio": lhs / rhs if rhs > 0 else 0.0,
        "samples": samples,
        "params": params,
    }


def jones_field(measure: WeightedPointMeasure, r_lo=None, r_hi=None,
                scales_per_octave: int = 4) -> np.ndarray:
    """Per-atom multiscale flatness energy over [r_lo, r_hi].

    One blocked radial pass over the atoms (``jones_integrals``); an empty
    span (r_hi <= r_lo) gives 0.0 at every atom.
    """
    if r_lo is None:
        r_lo = _flatness_floor(measure, scales_per_octave)
    r_hi = measure.diameter if r_hi is None else r_hi
    return jones_integrals(measure, measure.points, r_lo, r_hi,
                           scales_per_octave)


def _flatness_floor(measure, scales_per_octave: int) -> float:
    """Default lower radius of the flatness energy."""
    # a half-step above r_min: grid radii stay off the dyadic multiples of
    # the minimum gap, where ball membership and the truncation jump, so a
    # float-level perturbation of the input cannot flip an atom across one
    return measure.r_min * 2.0 ** (1.0 / (2 * _octaves(scales_per_octave)))


def _cutoff_grid(measure, scales_per_octave: int) -> np.ndarray:
    """Truncation cutoffs of the square-function bound: ascending nodes
    lo * 2^(j/scales_per_octave) from half the flatness floor, lo in
    (r_min / 2, r_min / sqrt(2)], up to max(diameter, r_min): lo at least."""
    octaves = _octaves(scales_per_octave)
    lo = _flatness_floor(measure, octaves) / 2
    hi = max(measure.diameter, measure.r_min)
    count = int(math.floor(math.log2(hi / lo) * octaves + 1e-9)) + 1
    grid = lo * 2.0 ** (np.arange(count) / octaves)
    return grid[grid <= hi * (1 + 1e-12)]


def _main_lemma_grids(measure, scales_per_octave: int):
    """The main lemma's cutoffs and its flatness grid (radii, log_rho),
    empty when the diameter is below the flatness floor.  ValueError for
    an empty measure, and for an r_min whose flatness floor overflows."""
    if measure.is_empty:
        raise ValueError("measure is empty")
    floor = _flatness_floor(measure, scales_per_octave)
    if not math.isfinite(floor):
        raise ValueError(
            f"r_min={measure.r_min:.6g}: the flatness floor "
            f"r_min * 2^(1/(2 * scales_per_octave)) leaves float64 range")
    return _cutoff_grid(measure, scales_per_octave), _checked_jones_grid(
        measure, floor, measure.diameter, scales_per_octave)


def main_lemma_check(measure, kernel, scales_per_octave: int = 4) -> dict:
    """Square-function bound: worst truncation energy against mass + flatness.

    lhs is the max over cutoffs of sum_i w_i |T_eps(x_i)|^2; rhs is the
    total mass plus the atom-weighted flatness energy up to the diameter.
    One radial pass serves both sides through ``_lemma_reads``, so every
    atom is sorted once.
    """
    eps_grid, grid = _main_lemma_grids(measure, scales_per_octave)
    radii = np.concatenate((eps_grid, grid[0]))

    def visit(block):
        return _lemma_reads(block, _kernel_terms(kernel, block)[0],
                            block.count(radii), eps_grid.size, [grid])

    squares, jones = radial_pass(measure, measure.points, visit)
    return _main_lemma_record(measure, kernel, eps_grid, squares, jones,
                              scales_per_octave)


def _lemma_reads(block, terms, counts, cuts, grids):
    """Each row's squared truncations at the cutoffs, then its flatness sum
    over each of ``grids``, from the plain component-major kernel
    ``terms`` of ``block`` and the row counts at the cutoffs (the first
    ``cuts`` columns) and at the grids' radii.  ``terms`` is read, not
    changed."""
    # the suffix sums are dropped once the cutoffs are read; with no radii
    # every row's flatness sum is empty, so 0.0
    squares = _norm_sq(_cutoff_sums(_suffix(terms), block,
                                    counts[:, :cuts]))
    return (squares, *_jones_values(block, grids, counts[:, cuts:]))


def _main_lemma_record(measure, kernel, eps_grid, squares, jones,
                       scales_per_octave: int) -> dict:
    """``main_lemma_check``'s record from each atom's squared truncations
    at the cutoffs and its flatness energy."""
    # atom by atom in index order, which fixes the summation order
    energies = ordered_sum(measure.weights[:, None] * squares)
    lhs = float(np.max(energies))
    rhs = measure.total_mass + float(measure.weights @ jones)
    return check_record("main_lemma", lhs, rhs,
                        int(measure.size * eps_grid.size),
                        {"kernel": kernel.name,
                         "eps_grid": [float(e) for e in eps_grid],
                         "scales_per_octave": scales_per_octave})


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
    return check_record("t1_balls", max(ratios, default=0.0), 1.0,
                        len(ratios),
                        {"kernel": kernel.name, "per_ball": ratios})


def _root_phi(corona) -> np.ndarray:
    """Phi_R of the root tree R at every atom.

    The paper's checks on R run on sigma = chi_{B0(R)} mu.  On the root,
    r(R) is the lattice's scale s > diameter / 2, so B0(R) = B(z_R, 29 s)
    holds every atom and sigma is the corona's measure mu.
    """
    return TreeGeometry(corona, corona.root_id).phi(corona.measure.points)


def cotlar_check(kernel, corona, max_samples: int = 128) -> dict:
    """Maximal suppressed operator against maximal functions of its output.

    On the root tree R, where sigma is the corona's measure mu
    (``_root_phi``), with Phi_R the tree suppression:
    lhs(x) = sup_eps |T_{Phi,eps} mu(x)| and
    rhs(x) = Mtilde_mu(|T_Phi mu|)(x) + Mtilde_{mu,3/2}1(x),
    sampled over the atoms: the Cotlar inequality with s = 1 applied to mu
    itself.  The second term is the constant 1: it is the sup over r of
    (mu(B(x, r)) / mu(B(x, 3r)))^(2/3), no ratio of a ball's mass to a
    larger ball's exceeds 1, and a ball holding every atom reads exactly
    1.  So rhs >= 1, and the record's ``flagged`` count of samples with
    rhs = 0 < lhs is always 0.
    """
    measure, phi = corona.measure, _root_phi(corona)
    # suppressed operator applied to mu, at every atom: eps = 0 leaves out
    # only the atoms at the atom's own location
    field = t_phi_eps(kernel, measure, measure.points, np.zeros(measure.size),
                      phi, phi)
    sample = strided(np.arange(measure.size), max_samples)
    stars = t_phi_star(kernel, measure, measure.points[sample], phi[sample],
                       phi)
    return _cotlar_record(kernel, corona, field, sample, stars)


def _cotlar_record(kernel, corona, field, sample, stars) -> dict:
    """``cotlar_check``'s record from T_Phi mu at every atom (``field``)
    and from T_{Phi,*} mu at the ``sample`` atoms (``stars``)."""
    measure = corona.measure
    # row by row: the norm of one vector is a dot product, which rounds
    # unlike norm(axis=1)
    t_vals = np.array([float(np.linalg.norm(row)) for row in field])
    # Mtilde_{mu,3/2}1 is 1.0 (cotlar_check)
    rhss = m_tilde(measure, t_vals, measure.points[sample]) + 1.0
    best = worst_lhs = worst_rhs = 0.0
    for lhs, rhs in zip(stars.tolist(), rhss.tolist()):
        if lhs / rhs > best:
            best, worst_lhs, worst_rhs = lhs / rhs, lhs, rhs
    # with no sample chosen both sides stay 0.0, and so does the ratio
    return check_record("cotlar", worst_lhs, worst_rhs, int(sample.size),
                        {"kernel": kernel.name, "s": 1.0, "flagged": 0,
                         "top": corona.root_id})


def pointwise_domination_check(kernel, corona,
                               max_samples: int = 128) -> dict:
    """Excess of the tree operator over the suppressed maximal operator.

    Per sampled atom x of the root tree R, with K_R built on the bump
    family of the lattice's A0 and sigma the measure mu (``_root_phi``):
    c_x = max(0, |K_R(x)| - T_{Phi_R,*} mu(x)) / theta(B_R); the record's
    ratio is the largest c_x.
    """
    measure, phi = corona.measure, _root_phi(corona)
    sample = strided(np.arange(measure.size), max_samples)
    stars = t_phi_star(kernel, measure, measure.points[sample], phi[sample],
                       phi)
    return _pointwise_record(corona, kernel, sample, stars)


def _pointwise_record(corona, kernel, sample, stars) -> dict:
    """``pointwise_domination_check``'s record from T_{Phi_R,*} at the
    ``sample`` atoms (``stars``)."""
    top_id = corona.root_id
    bump = BumpFamily(corona.lattice.a0)
    theta_ref = corona.theta_ref[top_id]
    excesses = [
        max(0.0, float(np.linalg.norm(k_r_chain(
            corona, kernel, bump, top_id, int(atom)))) - star) / theta_ref
        for atom, star in zip(sample, stars.tolist())]
    return check_record("pointwise_domination", max(excesses, default=0.0),
                        1.0, int(sample.size),
                        {"kernel": kernel.name, "top": top_id,
                         "bump_a0": bump.a0})


def verify_checks(kernel, corona, scales_per_octave: int = 4,
                  max_samples: int = 128):
    """The records of ``main_lemma_check`` on the corona's measure, of
    ``cotlar_check`` and ``pointwise_domination_check``, and of
    ``packing_audit``, in that order, each equal to its check's own.

    Both tree checks sample the same atoms.  One radial pass over the
    atoms serves all four: each block is searched once for the cutoffs and
    both flatness grids, the kernel is evaluated once for the plain terms
    (the truncations and flatness, ``_lemma_reads``) and the terms damped
    by Phi_R (T_Phi mu at every atom).  One ``t_phi_star`` call gives
    T_{Phi,*} at the samples for both tree checks, and one ``m_tilde``
    call Cotlar's Mtilde_mu of |T_Phi mu|.
    """
    measure, phi = corona.measure, _root_phi(corona)
    eps_grid, lemma_grid = _main_lemma_grids(measure, scales_per_octave)
    grids = [lemma_grid, _checked_jones_grid(
        measure, *_packing_span(corona), scales_per_octave)]
    radii = np.concatenate([eps_grid] + [grid[0] for grid in grids])

    def visit(block):
        counts = block.count(radii)
        terms, damping = _kernel_terms(kernel, block, phi, phi)
        reads = _lemma_reads(block, terms, counts, eps_grid.size, grids)
        terms *= damping
        field = _suffix(terms)[:, np.arange(block.rows), block.near].T
        del terms
        return field, *reads

    field, squares, lemma_jones, packing_jones = radial_pass(
        measure, measure.points, visit)
    sample = strided(np.arange(measure.size), max_samples)
    stars = t_phi_star(kernel, measure, measure.points[sample], phi[sample],
                       phi)
    return (_main_lemma_record(measure, kernel, eps_grid, squares,
                               lemma_jones, scales_per_octave),
            _cotlar_record(kernel, corona, field, sample, stars),
            _pointwise_record(corona, kernel, sample, stars),
            _packing_record(corona, packing_jones))


def capacity_lower_bound(candidates, scales_per_octave: int = 8) -> dict:
    """Largest admissible multiple of each measure in the list
    ``candidates``, and its mass.

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
    worst atom, and the best candidate wins.  A candidate whose diameter is
    at most r_min is ``sub_resolution``: no span, so I(x) is 0.0, and no
    tail; A(x) is then read at r >= r_min.
    """
    if not candidates:
        raise ValueError("need at least one candidate measure")
    entries = []
    for idx, mu in enumerate(candidates):
        if mu.is_empty:
            raise ValueError(f"candidate {idx} is empty")
        n = mu.target_dim
        diam = mu.diameter
        sub_resolution = diam <= mu.r_min
        floor = max(mu.r_min, diam / math.sqrt(mu.size))
        # one radial order per atom serves its flatness and its density
        jones, dens = jones_integrals(mu, mu.points, mu.r_min, diam,
                                      scales_per_octave, floor=floor)
        tail = 0.0
        if not sub_resolution:
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
    return check_record("capacity", max(e["bound"] for e in entries), 1.0,
                        len(entries),
                        {"scales_per_octave": scales_per_octave,
                         "candidates": entries})


def make_report(input_desc: dict, checks: list, config: dict,
                stamp=None) -> dict:
    """Assemble the serializable report envelope; ``baseline_failures``
    stays None until a baseline comparison fills it."""
    return {
        "schema": REPORT_SCHEMA,
        "input": input_desc,
        "config": config,
        "checks": {rec["name"]: rec for rec in checks},
        "baseline_failures": None,
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
    AttributeError; a value or rel_tol that is not a finite number, a
    negative rel_tol, or a field that is not a number in the report raises
    ValueError.
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
        actual = record[field]
        if not isinstance(actual, (int, float)):
            raise ValueError(f"{name}.{field} is not a number in the report")
        if not abs(actual - target) <= rel_tol * abs(target):
            failures.append(
                f"{name}.{field}: got {actual:.6g}, baseline {target:.6g} "
                f"(rel_tol {rel_tol})"
            )
    return failures
