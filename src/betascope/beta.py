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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .measure import Ball, RadialBlock, WeightedPointMeasure, radial_pass

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

    @property
    def is_degenerate(self) -> bool:
        return self.plane_point is None


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


def beta2(measure: WeightedPointMeasure, ball: Ball) -> BetaResult:
    """Exact 2-flatness of ``measure`` on the closed ball ``ball``.

    Raises for radii below the measure resolution.  An empty ball yields
    value 0 with a degenerate (None) plane.
    """
    r = float(ball.radius)
    if r < measure.r_min:
        raise ValueError(
            f"beta query at r={r:.3g} below resolution r_min={measure.r_min:.3g}"
        )
    idx = measure.ball_indices(ball.center, r)
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
    """All-scales flatness of a single centre in O(log N) per radius.

    Sorting the atoms by distance to the centre once makes every closed
    ball a prefix of the sorted order; prefix sums of the weights and of
    the first and second weighted moments (taken about the centre, so every
    entry is O(r)) then give the in-ball covariance for any radius without
    revisiting the atoms.  The trailing eigenvalue route loses the last
    ~1e-8 of absolute accuracy on exactly flat data compared to beta2's
    direct residual; quantities integrated over scales tolerate that.

    This is the one-centre case of the blocked pass behind
    ``jones_integrals``; ``cum_w``, ``cum_first`` and ``cum_second`` are
    views of its moment sums.
    """

    def __init__(self, measure: WeightedPointMeasure, center):
        center = np.asarray(center, dtype=float).reshape(-1)
        self.n = measure.target_dim
        dim = measure.dim
        self.block = RadialBlock(measure, 1, _lane_count(dim),
                                 offsets=True).load(center, _fill_moments)
        sums = self.block.sums[:, 0]
        self.cum_w = sums[0]
        self.cum_first = sums[1:1 + dim].T
        self.cum_second = np.moveaxis(sums[_moment_lanes(dim)[1]], -1, 0)

    def beta_sq_theta(self, radii):
        """Arrays (beta_2^2, theta) over the given radii."""
        radii = np.atleast_1d(np.asarray(radii, dtype=float))
        beta_sq, theta = _block_flatness(self.block, radii, self.n)
        return beta_sq[0], theta[0]


@functools.cache
def _moment_lanes(dim: int):
    """The moment lanes' layout: mass, first moments, then second moments.

    Only the upper triangle of the second moments gets a lane: z_a z_b
    and z_b z_a round alike, so one lane serves both entries.  Returns
    the upper triangle's index pairs and the (dim, dim) lane of each
    second-moment entry; the arrays are shared, so they are read only.
    """
    upper = np.triu_indices(dim)
    lane = np.zeros((dim, dim), dtype=np.intp)
    lane[upper] = lane[upper[::-1]] = 1 + dim + np.arange(upper[0].size)
    for index in (*upper, lane):
        index.flags.writeable = False
    return upper, lane


def _lane_count(dim: int) -> int:
    """Lanes of the moments: mass, first moments, upper second moments."""
    return 1 + dim + dim * (dim + 1) // 2


def _fill_moments(lanes: np.ndarray, z: np.ndarray) -> None:
    """Write the moment lanes 1 and up from lane 0's weights.

    ``z`` holds the offsets p - x coordinate first, in the lanes' order:
    (d, atoms) for one centre or (d, centres, atoms) for a block.
    """
    w, dim = lanes[0], z.shape[0]
    for a in range(dim):
        np.multiply(w, z[a], out=lanes[1 + a])
    for k, (a, b) in enumerate(zip(*_moment_lanes(dim)[0]), start=1 + dim):
        np.multiply(z[a], z[b], out=lanes[k])
        np.multiply(w, lanes[k], out=lanes[k])


def _block_flatness(block: RadialBlock, radii, n: int):
    """Arrays (beta_2^2, theta) over ``radii``, a row per centre.

    ``block`` must be loaded with _fill_moments.  Balls holding no atom
    keep 0; all the others' planes are fitted by one _moment_flatness call.
    """
    counts = block.count(radii)
    beta_sq = np.zeros(counts.shape)
    theta = np.zeros(counts.shape)
    held = counts > 0
    if held.any():
        dim = block.offsets.shape[0]
        sums = block.sums[:, np.nonzero(held)[0], counts[held]].T
        beta_sq[held], theta[held] = _moment_flatness(
            sums[:, 0], sums[:, 1:1 + dim], sums[:, _moment_lanes(dim)[1]],
            np.broadcast_to(radii, counts.shape)[held], n)
    return beta_sq, theta


def _moment_flatness(W, S1, S2, radii, n: int):
    """(beta_2^2, theta) of closed balls from their moment sums.

    W, S1 and S2 hold, per ball, the mass and the weighted first and
    second moments about the centre; every ball must hold mass.  One
    batched eigvalsh call fits all the planes.
    """
    mean = S1 / W[:, None]
    cov = S2 - W[:, None, None] * (mean[:, :, None] * mean[:, None, :])
    eigvals = np.linalg.eigvalsh(cov)
    resid = np.clip(eigvals[:, : S1.shape[1] - n].sum(axis=1), 0.0, None)
    return resid / radii ** (n + 2), W / radii**n


def _jones_grid(r_lo: float, r_hi: float, scales_per_octave: int):
    """Geometric node radii r_hi * rho^-j descending towards r_lo.

    Nodes satisfy r_lo < r_j <= r_hi.  Each node carries weight ln(rho); a
    split of [r_lo, r_hi] at any node therefore reproduces the full node
    set exactly, which is the additivity the tests rely on.
    """
    rho = 2.0 ** (1.0 / int(scales_per_octave))
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

    Each block of centres is sorted once (RadialBlock) and all its
    m x R balls are fitted by one batched eigvalsh call; each centre's
    integrand is summed over its own row, so every value equals
    jones_integral at that centre bit for bit.  With a density ``floor``
    the same orders also give each centre's sup_density(centre, floor),
    and the result is the pair (integrals, sups).
    """
    r_lo, r_hi = float(r_lo), float(r_hi)
    if not (measure.r_min <= r_lo < r_hi):
        raise ValueError(
            f"need r_min <= r_lo < r_hi, got r_min={measure.r_min:.3g} "
            f"r_lo={r_lo:.3g} r_hi={r_hi:.3g}"
        )
    if int(scales_per_octave) < 1:
        raise ValueError("scales_per_octave must be >= 1")
    radii, log_rho = _jones_grid(r_lo, r_hi, scales_per_octave)
    n = measure.target_dim

    def visit(block):
        beta_sq, theta = _block_flatness(block, radii, n)
        values = np.sum(beta_sq * theta, axis=1) * log_rho
        return values if floor is None else (values, block.sup_density(floor))

    parts = radial_pass(measure, centers, visit, _lane_count(measure.dim),
                        _fill_moments)
    if floor is None:
        return np.concatenate(parts)
    return tuple(np.concatenate(lane) for lane in zip(*parts))


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
    Requires r_min <= r_lo < r_hi.
    """
    center = np.asarray(center, dtype=float).reshape(1, -1)
    return float(jones_integrals(measure, center, r_lo, r_hi,
                                 scales_per_octave)[0])


def condition_check(
    measure: WeightedPointMeasure,
    ball: Ball,
    scales_per_octave: int = 4,
) -> dict:
    """Mass-normalised multiscale flatness of a ball.

    Returns sum over atoms x_i in B of w_i * jones(x_i, r_min, r(B)),
    divided by mu(B), summed in atom index order.  A massless ball yields
    ratio 0.0 with a flag.
    """
    idx = measure.ball_indices(ball.center, ball.radius)
    mass = float(np.sum(measure.weights[idx]))
    record = {
        "ball_center": [float(v) for v in ball.center],
        "ball_radius": float(ball.radius),
        "mass": mass,
        "atoms": int(idx.size),
        "degenerate": mass == 0.0,
    }
    if mass == 0.0 or ball.radius <= measure.r_min:
        record.update(total=0.0, ratio=0.0)
        record["degenerate"] = True
        return record
    jones = jones_integrals(measure, measure.points[idx], measure.r_min,
                            ball.radius, scales_per_octave)
    total = 0.0
    for w, value in zip(measure.weights[idx], jones):
        total += w * value
    record.update(total=float(total), ratio=float(total / mass))
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
    pass.
    """
    radii, _ = _jones_grid(float(r_lo), float(r_hi), scales_per_octave)
    parts = radial_pass(
        measure, centers,
        lambda block: _block_flatness(block, radii, measure.target_dim),
        _lane_count(measure.dim), _fill_moments)
    return [
        [(float(r), float(math.sqrt(b)), float(t))
         for r, b, t in zip(radii, beta_row, theta_row)]
        for beta_sq, theta in parts
        for beta_row, theta_row in zip(beta_sq, theta)
    ]
