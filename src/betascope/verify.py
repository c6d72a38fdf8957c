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

import numpy as np
from scipy.spatial import cKDTree

from ._util import BLOCK_ELEMENTS, geometric_grid
# perfbench/tracer.py patches parallel_map here by name
from ._util import parallel_map  # noqa: F401
from .beta import (
    _fill_moments,
    _jones_grid,
    _lane_count,
    _moment_flatness,
    _moment_lanes,
    _plane_residual_sq,
    _weighted_plane,
    jones_integrals,
)
# perfbench/tracer.py patches jones_integral here by name
from .beta import jones_integral  # noqa: F401
from .corona import TreeGeometry
from .measure import RadialOrder, WeightedPointMeasure, radial_pass
from .operators import (
    k_r_chain,
    m_tilde,
    t_phi_eps,
    t_phi_star,
    truncated_field,
)

__all__ = [
    "jones_field",
    "main_lemma_check",
    "t1_ball_check",
    "cotlar_check",
    "pointwise_domination_check",
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


def _field_norms_sq(kernel, measure, eps_grid) -> np.ndarray:
    """For each cutoff, the weighted square sum of |T_eps| over the atoms."""
    out = np.zeros(len(eps_grid))
    for w, x in zip(measure.weights, measure.points):
        row = truncated_field(kernel, measure, x, eps_grid)[0]
        out += w * np.sum(row**2, axis=1)
    return out


def main_lemma_check(measure, kernel, scales_per_octave: int = 4) -> dict:
    """Square-function bound: worst truncation energy against mass + flatness.

    lhs is the max over cutoffs of sum_i w_i |T_eps(x_i)|^2; rhs is the
    total mass plus the atom-weighted flatness energy up to the diameter.
    """
    if measure.is_empty:
        raise ValueError("measure is empty")
    eps_grid = _cutoff_grid(measure, scales_per_octave)
    energies = _field_norms_sq(kernel, measure, eps_grid)
    lhs = float(np.max(energies))
    jones = jones_field(measure, scales_per_octave=scales_per_octave)
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


class _Ragged:
    """Rows of different lengths stored end to end in one flat array."""

    def __init__(self, rows):
        self.lengths = np.array([row.size for row in rows], dtype=np.intp)
        self.starts = np.cumsum(self.lengths) - self.lengths
        self.flat = np.concatenate(rows)

    def positions(self, rows) -> np.ndarray:
        """Flat positions of the given rows' entries, row after row."""
        lengths = self.lengths[rows]
        shift = self.starts[rows] - (np.cumsum(lengths) - lengths)
        return np.repeat(shift, lengths) + np.arange(lengths.sum())


class _T1Sample:
    """The non-empty balls of a t1 sample and their restrictions' grids.

    The grids are the ones main_lemma_check takes on each restriction.
    ``members``, ``eps`` and ``radii`` hold, per ball, its atoms in index
    order, its cutoff grid and its flatness radii (empty when the
    restriction is too small to carry any flatness).
    """

    def __init__(self, measure, balls, scales_per_octave: int):
        self.slots, self.masses = [], []
        atoms, cutoffs, grids = [], [], []
        self.log_rho = 0.0
        for slot, ball in enumerate(balls):
            idx = measure.ball_indices(ball.center, ball.radius)
            if idx.size == 0:
                continue
            mask = np.zeros(measure.size, dtype=bool)
            mask[idx] = True
            part = measure.restrict_mask(mask)
            self.slots.append(slot)
            self.masses.append(part.total_mass)
            atoms.append(idx)
            cutoffs.append(_cutoff_grid(part, scales_per_octave))
            r_lo = _flatness_floor(part, scales_per_octave)
            grid = np.empty(0)
            if part.diameter > r_lo:
                grid, self.log_rho = _jones_grid(r_lo, part.diameter,
                                                 scales_per_octave)
            grids.append(grid)
        if not self.slots:
            return
        self.members = _Ragged(atoms)
        self.eps = _Ragged(cutoffs)
        self.radii = _Ragged(grids)
        # moment lanes: mass, first moments, then the upper triangle of
        # the second moments
        dim = measure.dim
        self.lane = _moment_lanes(dim)[1]
        # balls per group: the masked moments are the largest temporary
        width = (measure.size + 1) * _lane_count(dim)
        self.group = max(1, BLOCK_ELEMENTS // width)


def _t1_atom(measure, kernel, atom: int, mine: np.ndarray,
             sample: _T1Sample):
    """Energy rows and flatness values of the balls ``mine`` at one atom.

    Returns the energies at ``sample.eps.positions(mine)`` and one
    flatness value per ball (0.0 for a ball without flatness radii).
    Every sum is taken along the atom's full radial order, with the atoms
    outside the ball set to +0.0: a partial sum plus +0.0 keeps its bits,
    so each sum equals the one along the ball's own radial order.  Values
    lie along the last axis, one lane per ball and kernel component or
    moment; the balls go through in groups of at most ``sample.group``.
    """
    size, dim = measure.size, measure.dim
    members, eps, radii = sample.members, sample.eps, sample.radii
    radial = RadialOrder(measure, measure.points[atom])
    near = int(radial.count(0.0))
    # x - p is formed exactly as -(p - x), as in the truncated sums
    vals = kernel(-radial.offsets[near:])
    terms = (vals * measure.weights[radial.order[near:]][:, None]).T
    # the BetaProfile moments about the atom, one lane each
    moments = np.empty((_lane_count(dim), size))
    moments[0] = measure.weights[radial.order]
    _fill_moments(moments, radial.offsets.T)
    rank = np.empty(size, dtype=np.intp)
    rank[radial.order] = np.arange(size)
    energies, flatness = [], []
    for lo in range(0, mine.size, sample.group):
        part = mine[lo:lo + sample.group]
        cols = np.arange(part.size)
        inside = np.zeros((part.size, size), dtype=bool)
        inside[np.repeat(cols, members.lengths[part]),
               rank[members.flat[members.positions(part)]]] = True
        fitted = cols[radii.lengths[part] > 0]
        cutoffs = eps.flat[eps.positions(part)]
        scales = radii.flat[radii.positions(part[fitted])]
        counts = radial.count(np.concatenate((cutoffs, scales)))

        beyond = radial.suffix(
            np.where(inside[:, None, near:], terms, 0.0), axis=-1)
        at = np.repeat(cols, eps.lengths[part])
        energies.append(np.sum(
            beyond[at, :, counts[:cutoffs.size] - near] ** 2, axis=1))

        values = np.zeros(part.size)
        if fitted.size:
            within = radial.prefix(
                np.where(inside[fitted][:, None, :], moments, 0.0), axis=-1)
            lengths = radii.lengths[part[fitted]]
            sums = within[np.repeat(cols[:fitted.size], lengths), :,
                          counts[cutoffs.size:]]
            beta_sq, theta = _moment_flatness(
                sums[:, 0], sums[:, 1:1 + dim], sums[:, sample.lane], scales,
                measure.target_dim)
            integrand = beta_sq * theta
            # each ball sums its own contiguous slice, as jones_integral
            # sums its own array
            ends = np.cumsum(lengths)
            for col, start, end in zip(fitted, ends - lengths, ends):
                values[col] = float(np.sum(integrand[start:end])
                                    * sample.log_rho)
        flatness.append(values)
    return np.concatenate(energies), np.concatenate(flatness)


def t1_ball_check(measure, kernel, balls, scales_per_octave: int = 4) -> dict:
    """main_lemma_check on ball restrictions; the worst ratio over the sample.

    One pass over the atoms the balls cover does the work of one
    main_lemma_check per ball.  A restriction keeps the atoms' index order
    and r_min, and the radial sort is stable, so a ball's radial order at
    an atom is the atom's full radial order filtered by the ball.  Each
    covered atom therefore gets one RadialOrder, one kernel evaluation and
    one set of moments, shared by every ball that holds it.  The atoms are
    reduced in index order, so each ball sums the same operands in the same
    order as main_lemma_check on its restriction, and the ratios are equal
    to its ratios bit for bit.  Temporaries stay within BLOCK_ELEMENTS per
    array; besides them the pass keeps one entry per (atom, ball) pair.
    """
    sample = _T1Sample(measure, balls, scales_per_octave)
    ratios = [0.0] * len(balls)
    if sample.slots:
        members, eps = sample.members, sample.eps
        energies = np.zeros(eps.flat.size)
        jones = np.zeros(members.flat.size)
        # the balls holding each covered atom, in ball order, and the
        # (atom, ball) pairs' positions in ball-major order
        pairs = np.argsort(members.flat, kind="stable")
        owners = np.repeat(np.arange(len(sample.slots)),
                           members.lengths)[pairs]
        covered, starts = np.unique(members.flat[pairs], return_index=True)
        bounds = np.append(starts, pairs.size)
        for k, atom in enumerate(covered):
            mine = owners[bounds[k]:bounds[k + 1]]
            energy, flatness = _t1_atom(measure, kernel, int(atom), mine,
                                        sample)
            energies[eps.positions(mine)] += measure.weights[atom] * energy
            jones[pairs[bounds[k]:bounds[k + 1]]] = flatness
        for b, slot in enumerate(sample.slots):
            lhs = float(np.max(energies[eps.positions([b])]))
            rhs = sample.masses[b]
            if sample.radii.lengths[b]:
                rows = members.positions([b])
                rhs += float(measure.weights[members.flat[rows]] @ jones[rows])
            ratios[slot] = lhs / rhs
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
    geometry = TreeGeometry(corona, top_id)
    b0 = geometry.b0
    sigma = measure.restrict_ball(b0)
    if sigma.is_empty:
        return {"name": "cotlar", "lhs": 0.0, "rhs": 0.0, "ratio": 0.0,
                "samples": 0, "params": {"kernel": kernel.name, "s": 1.0,
                                         "flagged": 0, "top": top_id}}
    phi_sigma = geometry.phi(sigma.points)
    ones = np.ones(sigma.size)

    # suppressed operator applied to sigma, at every sigma atom, with the
    # cutoff half the atom's nearest positive distance: any cutoff below
    # that distance selects the same suffix entry, so the KD-tree's
    # rounding of the distance cannot change the sum
    sites = np.unique(sigma.points, axis=0)
    if sites.shape[0] < 2:
        t_vals = np.zeros(sigma.size)
    else:
        gaps = cKDTree(sites).query(sigma.points, k=2)[0][:, 1]
        t_vals = np.array([
            float(np.linalg.norm(t_phi_eps(kernel, sigma, x, float(gap) / 2.0,
                                           phi, phi_sigma)))
            for x, gap, phi in zip(sigma.points, gaps, phi_sigma)])

    sample = _strided(np.arange(sigma.size), max_samples)
    flagged = 0
    best = 0.0
    worst_lhs = worst_rhs = 0.0
    for j in sample:
        x = sigma.points[j]
        lhs, _ = t_phi_star(kernel, sigma, x, phi_sigma[j], phi_sigma)
        rhs = (m_tilde(sigma, t_vals, x, variant="plain")
               + m_tilde(sigma, ones, x, variant="3/2"))
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
    geometry = TreeGeometry(corona, top_id)
    top_cell = corona.lattice.cells[top_id]
    sigma = measure.restrict_ball(geometry.b0)
    phi_sigma = geometry.phi(sigma.points)
    theta_ref = corona.theta_ref[top_id]
    sample = _strided(top_cell.point_indices, max_samples)

    def one(atom):
        x = measure.points[atom]
        k_r = float(np.linalg.norm(k_r_chain(corona, kernel, bump, top_id,
                                             int(atom))))
        phi_x = float(geometry.phi(x[None, :])[0])
        star, _ = t_phi_star(kernel, sigma, x, phi_x, phi_sigma)
        return max(0.0, k_r - star) / theta_ref

    excesses = [one(atom) for atom in sample]
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
            dens = np.concatenate(radial_pass(
                mu, mu.points, lambda block: block.sup_density(floor)))
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


def compare_baseline(report: dict, baseline: dict) -> list:
    """Mismatches of report check fields against stored baseline entries.

    Baseline format: {"checks": {name: {"value": v, "rel_tol": t,
    "field": "ratio"}}}; field defaults to "ratio".
    """
    failures = []
    for name, entry in baseline.get("checks", {}).items():
        record = report["checks"].get(name)
        field = entry.get("field", "ratio")
        if record is None or field not in record:
            failures.append(f"{name}: missing from report")
            continue
        actual = float(record[field])
        target = float(entry["value"])
        rel_tol = float(entry.get("rel_tol", 0.2))
        if not abs(actual - target) <= rel_tol * abs(target):
            failures.append(
                f"{name}.{field}: got {actual:.6g}, baseline {target:.6g} "
                f"(rel_tol {rel_tol})"
            )
    return failures
