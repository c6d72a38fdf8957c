"""Multiscale flatness coefficients for weighted point measures.

For a ball B = B(x, r) and an n-plane L the p-flatness of the measure is

    beta_p(B)^p = (1 / r^n) * sum_{x_i in B} w_i * (dist(x_i, L) / r)^p,

minimised over affine n-planes L.  For p = 2 the minimiser passes through
the weighted centroid of B with directions spanned by the top eigenvectors
of the weighted covariance, so beta_2 is computed exactly by an
eigendecomposition.

The multiscale aggregate is a left Riemann sum in logarithmic scale of
beta_2(x, r)^2 * density(x, r) over a geometric grid of radii, the discrete
counterpart of the integral dr / r against the same integrand.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._util import ordered_sum
from .measure import (Ball, RadialBlock, WeightedPointMeasure, _prefix,
                      radial_pass)

__all__ = [
    "BetaResult",
    "beta2",
    "BetaProfile",
    "jones_integral",
    "jones_integrals",
    "condition_check",
    "beta_profile_rows",
]

@dataclass(frozen=True)
class BetaResult:
    """Flatness value together with the witnessing plane.

    ``plane_point`` / ``plane_basis`` are None exactly when the ball holds
    no mass, in which case ``value`` is 0 by convention.  The basis rows are
    orthonormal directions spanning the plane; the point is the weighted
    centroid of the atoms in the ball.
    """

    value: float
    ball: Ball
    mass: float
    plane_point: np.ndarray | None
    plane_basis: np.ndarray | None


def _plane_residual_sq(z: np.ndarray, w: np.ndarray, basis: np.ndarray) -> float:
    """sum_i w_i * dist(z_i, span(basis))^2 for centred coordinates z.

    The distance is formed from the explicit orthogonal complement
    z - (z V^T) V rather than from eigenvalues or norm differences; for
    exactly coplanar atoms those alternatives lose all significant digits
    and report ~1e-8 instead of ~1e-16.
    """
    proj = z @ basis.T
    resid = z - proj @ basis
    return float(np.sum(w * np.sum(resid * resid, axis=1)))


def _weighted_plane(z: np.ndarray, w: np.ndarray, n: int):
    """Centroid and top-n eigenbasis of the weighted covariance of z."""
    total = float(np.sum(w))
    mean = (w @ z) / total
    zc = z - mean
    cov = (zc * w[:, None]).T @ zc
    eigvals, eigvecs = np.linalg.eigh(cov)
    basis = eigvecs[:, -n:].T  # rows, ascending eigenvalues -> take top n
    return mean, basis, eigvals


def beta2(measure: WeightedPointMeasure, ball: Ball,
          indices=None) -> BetaResult:
    """Exact 2-flatness of ``measure`` on the closed ball ``ball``.

    Raises for radii below the measure resolution.  An empty ball yields
    value 0 with a degenerate (None) plane.  ``indices``, if given, are the
    ball's atoms as ``measure.ball_indices`` returns them, and the ball is
    not queried again.
    """
    r = float(ball.radius)
    if r < measure.r_min:
        raise ValueError(
            f"beta query at r={r:.3g} below resolution r_min={measure.r_min:.3g}"
        )
    idx = measure.ball_indices(ball.center, r) if indices is None else indices
    if idx.size == 0:
        return BetaResult(0.0, ball, 0.0, None, None)
    n = measure.target_dim
    # Centre the coordinates at the ball centre first: all subsequent
    # moments are then O(r) and immune to large absolute coordinates.
    z = measure.points[idx] - ball.center
    w = measure.weights[idx]
    mean, basis, _ = _weighted_plane(z, w, n)
    residual = _plane_residual_sq(z - mean, w, basis)
    value = math.sqrt(max(residual, 0.0) / r ** (n + 2))
    return BetaResult(
        value, ball, float(np.sum(w)), ball.center + mean, basis
    )


class BetaProfile:
    """All-scales flatness of a single centre.

    Every closed ball about the centre is a prefix of the atoms in order
    of distance from it, so one radial pass at the centre answers any
    radii: the one-centre case of the pass behind ``beta_profile_rows``.
    The trailing eigenvalue route loses the last ~1e-8 of absolute
    accuracy on exactly flat data compared to beta2's direct residual;
    quantities integrated over scales tolerate that.
    """

    def __init__(self, measure: WeightedPointMeasure, center):
        self.measure = measure
        self.center = np.asarray(center, dtype=float).reshape(1, -1)

    def beta_sq_theta(self, radii):
        """Arrays (beta_2^2, theta) over the given radii."""
        radii = np.atleast_1d(np.asarray(radii, dtype=float))
        beta_sq, theta = radial_pass(
            self.measure, self.center,
            lambda block: _block_flatness(block, radii, block.count(radii)))
        return beta_sq[0], theta[0]


def _moment_sums(block: RadialBlock, rows, counts):
    """Mass, first and second moments about the centre of the balls that
    hold the ``counts[j]`` nearest atoms of block row ``rows[j]``.

    Returns (W, S1, S2) of shapes (balls,), (balls, d), (balls, d, d).
    The (d + 1)(d + 2) / 2 lanes, w z_a for each a, w (z_a z_b) for
    a <= b and w itself, in that order, are written two at a time into the
    real and imaginary halves of the block's complex workspace
    (``block.lanes``): at d = 2 the pairs are (w z_0, w z_1),
    (w z_0 z_0, w z_0 z_1) and (w z_1 z_1, w).  Each pair is
    summed along the rows by one complex prefix sum and gathered at the
    balls before the next is written; an odd last lane gets a zero
    partner.  A complex add is two float adds, so every sum is its lane's
    float prefix sum bit for bit.  z_a z_b and z_b z_a round alike, so one
    sum serves both entries.
    """
    z, w = block.offsets, block.mass
    dim = z.shape[0]
    lanes = [(a,) for a in range(dim)]
    lanes += itertools.combinations_with_replacement(range(dim), 2)
    lanes.append(())
    if len(lanes) % 2:
        lanes.append(None)
    halves = block.lanes.real, block.lanes.imag
    # each ball's entry of a (rows, atoms + 1) sum array, as a flat index
    at = rows * block.lane_sums.shape[1] + counts
    sums = np.empty((len(lanes), rows.size))
    for p in range(0, len(lanes), 2):
        for half, axes in zip(halves, lanes[p:p + 2]):
            if axes is None:
                half.fill(0.0)
            elif len(axes) == 2:
                np.multiply(z[axes[0]], z[axes[1]], out=half)
                np.multiply(w, half, out=half)
            elif axes:
                np.multiply(w, z[axes[0]], out=half)
            else:
                np.copyto(half, w)
        pair = _prefix(block.lanes, block.lane_sums).take(at)
        sums[p], sums[p + 1] = pair.real, pair.imag
    mass = lanes.index(())
    second = np.empty((rows.size, dim, dim))
    for (a, b), lane in zip(lanes[dim:mass], sums[dim:mass]):
        second[:, a, b] = second[:, b, a] = lane
    return sums[mass], sums[:dim].T, second


def _block_flatness(block: RadialBlock, radii, counts):
    """The flatness reader: arrays (beta_2^2, theta) over ``radii``, a row
    per centre of ``block``, whose balls hold ``counts`` atoms.

    Balls holding no atom keep 0.  Along a row, radii with equal counts
    hold the same atoms, so each run of neighbouring radii with one count
    gets one plane fit and every radius of it reads its residual.  Over a
    descending grid that is one fit per distinct (centre, count); grids
    side by side may fit a count once per grid.
    """
    n = block.target_dim
    beta_sq = np.zeros(counts.shape)
    theta = np.zeros(counts.shape)
    held = counts > 0
    fresh = held.copy()
    fresh[:, 1:] &= counts[:, 1:] != counts[:, :-1]
    rows, cols = np.nonzero(fresh)
    if rows.size:
        counts = counts[rows, cols]
        W, S1, S2 = _moment_sums(block, rows, counts)
        # every held ball reads the last fit at or before it in its row
        fit = (np.cumsum(fresh) - 1).reshape(held.shape)[held]
        r = np.broadcast_to(radii, held.shape)[held]
        beta_sq[held] = _plane_residuals(W, S1, S2, n)[fit] / r ** (n + 2)
        theta[held] = W[fit] / r**n
    return beta_sq, theta


def _plane_residuals(W, S1, S2, n: int):
    """Weighted squared distance to the best n-plane of closed balls, from
    their moment sums.

    W, S1 and S2 hold, per ball, the mass and the weighted first and
    second moments about the centre; every ball must hold mass.  The
    residual is the sum of the d - n smallest eigenvalues of the ball's
    covariance S2 - W mean mean^T, clipped at 0; n = d leaves no direction
    out, so every residual is 0.0.  In the plane ``_eigvalsh2`` fits all
    the planes from the covariances' lower triangles, in LAPACK's
    arithmetic with no LAPACK call; from d = 3 on one batched eigvalsh
    call does.
    """
    dim = S1.shape[1]
    if dim == n:
        return np.zeros(W.shape)
    mean = S1 / W[:, None]
    if dim == 2:
        m0, m1 = mean.T
        eigvals = _eigvalsh2(S2[:, 0, 0] - W * (m0 * m0),
                             S2[:, 1, 0] - W * (m1 * m0),
                             S2[:, 1, 1] - W * (m1 * m1))
    else:
        eigvals = np.linalg.eigvalsh(
            S2 - W[:, None, None] * (mean[:, :, None] * mean[:, None, :]))
    return np.clip(eigvals[:, : dim - n].sum(axis=1), 0.0, None)


# The largest |entry| of a 2 x 2 matrix that LAPACK's eigvalsh takes as it
# is lies in [2^-405, 2^485] (or is 0): dsyevd rescales above
# sqrt(eps / safmin) = 2^485, with eps = 2^-52 and safmin = 2^-1022, and
# dsterf below sqrt(safmin) / eps^2 = 2^-405, with eps = 2^-53.
_EIG2_RANGE = (2.0 ** -405, 2.0 ** 485)


def _eigvalsh2(d1, e, d2):
    """``np.linalg.eigvalsh`` of the symmetric 2 x 2 matrices with lower
    triangles (d1, e, d2), bit for bit, in numpy arithmetic: shape (m, 2),
    ascending.

    eigvalsh runs LAPACK's dsyevd on each lower triangle.  On a 2 x 2
    matrix dsytd2 leaves it as it is and dsterf finds the eigenvalues: the
    matrix splits when |e| <= sqrt|d1| sqrt|d2| 2^-53, its QL or QR sweep
    keeps the diagonal when e^2 <= 2^-106 |d1 d2|, and otherwise
    ``_dlae2`` gives the two; dlasrt then swaps a pair only when it is
    strictly out of order.  Each step is that arithmetic in the same
    order.  Rows that LAPACK rescales first (largest |entry| outside
    ``_EIG2_RANGE`` and not 0) and rows that are not finite go to eigvalsh
    itself.
    """
    ad1, ae, ad2 = np.abs(d1), np.abs(e), np.abs(d2)
    top = np.maximum(np.maximum(ad1, ae), ad2)
    tiny, huge = _EIG2_RANGE
    rescaled = ~(top <= huge) | ((top > 0.0) & (top < tiny))
    if rescaled.any():
        out = np.empty((top.size, 2))
        out[rescaled] = np.linalg.eigvalsh(np.stack(
            (np.stack((d1, e), -1), np.stack((e, d2), -1)), -2)[rescaled])
        kept = ~rescaled
        out[kept] = _eigvalsh2(d1[kept], e[kept], d2[kept])
        return out
    e2 = e * e
    # every entry is finite, so > is the negation of <=
    turn = ((ae > np.sqrt(ad1) * np.sqrt(ad2) * 2.0 ** -53)
            & (e2 > 2.0 ** -106 * np.abs(d1 * d2)))
    lo, hi = d1.copy(), d2.copy()
    lo[turn], hi[turn] = _dlae2(d1[turn], np.sqrt(e2[turn]), d2[turn],
                                (ad2 < ad1)[turn])
    swap = hi < lo
    return np.stack((np.where(swap, hi, lo), np.where(swap, lo, hi)), -1)


def _dlae2(d1, b, d2, qr):
    """LAPACK's dlae2 as dsterf calls it on [[d1, b], [b, d2]] with b > 0:
    the eigenvalues (rt1, rt2), rt1 the one of larger magnitude.

    dsterf passes the diagonal entry of smaller magnitude first (``qr``
    where |d2| < |d1|, its QR sweep), so dlae2's acmx is the other one.
    Its three branches for rt coincide here: with b > 0 the larger of
    |d1 - d2| and 2b is positive, and at a tie 1 + 1 is 2.
    """
    sm = d1 + d2
    adf = np.abs(d1 - d2)
    ab = b + b  # |2b|, as b > 0
    big, small = np.maximum(adf, ab), np.minimum(adf, ab)
    ratio = small / big
    rt = big * np.sqrt(1.0 + ratio * ratio)
    rt1 = 0.5 * np.where(sm < 0.0, sm - rt, sm + rt)
    acmx, acmn = np.where(qr, d1, d2), np.where(qr, d2, d1)
    rt2 = np.where(sm == 0.0, -0.5 * rt, (acmx / rt1) * acmn - (b / rt1) * b)
    return rt1, rt2


def _jones_values(block: RadialBlock, grids, counts) -> list:
    """Each row's left Riemann sum of beta_2^2 theta over each of ``grids``,
    pairs (radii, log_rho) whose balls hold ``counts`` atoms, the grids'
    columns side by side.

    One flatness read serves every grid, so the grids share the moment
    sums and one batch of plane fits; each grid's sum reads its own
    columns.
    """
    beta_sq, theta = _block_flatness(
        block, np.concatenate([radii for radii, _ in grids]), counts)
    values, at = [], 0
    for radii, log_rho in grids:
        cols = slice(at, at + radii.size)
        at = cols.stop
        values.append(np.sum(beta_sq[:, cols] * theta[:, cols], axis=1)
                      * log_rho)
    return values


def _octaves(scales_per_octave) -> int:
    """``scales_per_octave`` as an int; ValueError below 1."""
    octaves = int(scales_per_octave)
    if octaves < 1:
        raise ValueError("scales_per_octave must be >= 1")
    return octaves


def _checked_jones_grid(measure, r_lo, r_hi, scales_per_octave):
    """The flatness grid (radii, log_rho) over [r_lo, r_hi]: descending
    nodes r_j = r_hi * rho^-j in (r_lo, r_hi], rho = 2^(1/scales_per_octave),
    each of weight ln(rho), so a split of the span at a node reproduces the
    node set.  An empty span (r_hi <= r_lo) has no node: (np.zeros(0), 0.0).
    ValueError for scales_per_octave < 1, and for r_lo < r_min whatever
    r_hi is."""
    rho = 2.0 ** (1.0 / _octaves(scales_per_octave))
    r_lo, r_hi = float(r_lo), float(r_hi)
    if not measure.r_min <= r_lo:
        raise ValueError(f"need r_min <= r_lo, got r_min={measure.r_min:.3g} "
                         f"r_lo={r_lo:.3g}")
    if r_hi <= r_lo:
        return np.zeros(0), 0.0
    count = max(1, math.ceil(math.log(r_hi / r_lo) / math.log(rho) - 1e-9))
    radii = r_hi * rho ** (-np.arange(count, dtype=float))
    return radii, math.log(rho)


def jones_integrals(
    measure: WeightedPointMeasure,
    centers,
    r_lo: float,
    r_hi: float,
    scales_per_octave: int = 4,
    floor=None,
):
    """``jones_integral`` at every row of ``centers``, in one blocked pass.

    One radial pass over one reader (``_jones_values``): each block of
    centres is sorted once (RadialBlock) and its distinct balls are
    fitted in one batch (``_plane_residuals``); each centre's integrand is
    summed over its own row, so every value equals jones_integral at that
    centre bit for bit.  With a density ``floor`` the same orders also
    give each centre's sup_density(centre, floor), and the result is the
    pair (integrals, sups).  An empty span (r_hi <= r_lo) integrates to 0.0 at
    every centre; an r_lo below r_min raises whatever r_hi is.
    """
    radii, log_rho = _checked_jones_grid(measure, r_lo, r_hi,
                                         scales_per_octave)

    def visit(block):
        values, = _jones_values(block, [(radii, log_rho)], block.count(radii))
        return values if floor is None else (values, block.sup_density(floor))

    return radial_pass(measure, centers, visit)


def jones_integral(
    measure: WeightedPointMeasure,
    center,
    r_lo: float,
    r_hi: float,
    scales_per_octave: int = 4,
) -> float:
    """Discrete multiscale flatness integral at a centre.

    Left Riemann sum of beta_2(x, r)^2 * theta(x, r) in log scale over the
    geometric grid r_j = r_hi * rho^-j, rho = 2^(1/scales_per_octave).
    Requires r_min <= r_lo; an empty span (r_hi <= r_lo) integrates to 0.0.
    """
    center = np.asarray(center, dtype=float).reshape(1, -1)
    return float(jones_integrals(measure, center, r_lo, r_hi,
                                 scales_per_octave)[0])


def condition_check(
    measure: WeightedPointMeasure,
    ball: Ball,
    scales_per_octave: int = 4,
) -> dict:
    """Multiscale flatness of a ball, summed over its atoms, and its mass.

    Returns ``total``, the sum over atoms x_i in B of
    w_i * jones(x_i, r_min, r(B)) in atom index order, and ``mass``, mu(B).
    A ball that holds mass also gets ``sup_density``, the largest
    sup_density(x_i, r_min) over its atoms from the same radial orders: c0
    itself for a ball that holds every atom.  ``degenerate`` flags a
    massless ball (total 0.0, no sup_density) and a radius <= r_min, whose
    empty span integrates to total 0.0.
    """
    idx = measure.ball_indices(ball.center, ball.radius)
    mass = float(np.sum(measure.weights[idx]))
    record = {
        "ball_radius": float(ball.radius),
        "mass": mass,
        "atoms": int(idx.size),
        "degenerate": mass == 0.0 or ball.radius <= measure.r_min,
    }
    if mass == 0.0:
        record["total"] = 0.0
        return record
    jones, sups = jones_integrals(measure, measure.points[idx],
                                  measure.r_min, ball.radius,
                                  scales_per_octave, floor=measure.r_min)
    total = ordered_sum(measure.weights[idx] * jones)
    record.update(total=float(total), sup_density=float(np.max(sups)))
    return record


def beta_profile_rows(
    measure: WeightedPointMeasure,
    centers,
    r_lo: float,
    r_hi: float,
    scales_per_octave: int = 4,
):
    """(radius, beta2, theta) rows over the multiscale grid, coarse to fine.

    One list of rows per row of the (m, d) ``centers``, from one blocked
    pass, over ``jones_integrals``' grid: an empty span (r_hi <= r_lo)
    gives every centre no row, and an r_lo below r_min raises.
    """
    radii, _ = _checked_jones_grid(measure, r_lo, r_hi, scales_per_octave)
    beta_sq, theta = radial_pass(
        measure, centers,
        lambda block: _block_flatness(block, radii, block.count(radii)))
    return [
        [(float(r), float(math.sqrt(b)), float(t))
         for r, b, t in zip(radii, beta_row, theta_row)]
        for beta_row, theta_row in zip(beta_sq, theta)
    ]
