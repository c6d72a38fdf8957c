"""Odd singular kernels and their truncated, suppressed and maximal sums.

Kernels act on differences: a kernel of degree n satisfies |K(x)| <= c0/|x|^n
with matching decay for two derivatives.  Against a weighted point measure
every operator here is a finite sum; the truncation |x - y| > eps (strict)
is the only regularization, and the evaluation point's own atom is always
outside the truncation.

All truncated sums for one evaluation point flow through a single
sorted-by-distance suffix accumulation, so a sweep over many cutoffs costs
one sort and one search, and every cutoff of the same point sums in the
same order (deterministic results independent of sweep shape).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measure import RadialOrder, WeightedPointMeasure

__all__ = [
    "CZKernel",
    "KernelValidationError",
    "riesz_kernel",
    "cauchy_kernel",
    "make_kernel",
    "validate_kernel",
    "BumpFamily",
    "truncated_field",
    "t_phi_eps",
    "t_phi_star",
    "suppressed_kernel",
    "m_tilde",
    "k_r_chain",
    "k_r_telescoped",
]

GRAD_STEP_FACTOR = 1e-5
VALIDATION_SAMPLES = 1000
VALIDATION_SEED = 0
VALIDATION_TOL = 1.1


class KernelValidationError(ValueError):
    pass


@dataclass
class CZKernel:
    """Odd kernel with declared size/derivative constants.

    fn maps an (m, d) array of nonzero difference vectors to (m, out_dim)
    values.  constants = (c0, c1, c2) bound |grad^j K| by c_j/|x|^(n+j).
    """

    name: str
    n: int
    dim: int
    out_dim: int
    fn: object
    constants: tuple = field(default=(1.0, 1.0, 1.0))

    def __call__(self, diffs: np.ndarray) -> np.ndarray:
        diffs = np.atleast_2d(np.asarray(diffs, dtype=float))
        out = self.fn(diffs)
        return np.atleast_2d(np.asarray(out, dtype=float))


def riesz_kernel(n: int, d: int) -> CZKernel:
    """K(x) = x / |x|^(n+1), the n-Riesz kernel in dimension d.

    The derivative constants are exact Frobenius norms: with a = n+1 and
    b = a(a+2), |grad K| = sqrt(d - 2a + a^2)/|x|^(n+1) and
    |grad^2 K| = sqrt(a^2(3d+6) - 6ab + b^2)/|x|^(n+2) for every x.
    """
    if not 1 <= n < d:
        raise ValueError(f"need 1 <= n < d, got n={n}, d={d}")
    a = n + 1.0
    b = a * (a + 2.0)
    c1 = math.sqrt(d - 2.0 * a + a * a)
    c2 = math.sqrt(a * a * (3.0 * d + 6.0) - 6.0 * a * b + b * b)

    def fn(v):
        r = np.linalg.norm(v, axis=1)
        return v / r[:, None] ** (n + 1)

    return CZKernel(f"riesz({n},{d})", n, d, d, fn, (1.0, c1, c2))


def cauchy_kernel() -> CZKernel:
    """1/(zeta - z) as a 2-vector kernel of the difference w = z - zeta.

    -1/w in complex notation is (-w1, w2)/|w|^2; a coordinate reflection of
    the planar Riesz kernel, so it shares its exact constants.
    """
    riesz = riesz_kernel(1, 2)

    def fn(v):
        r2 = v[:, 0] ** 2 + v[:, 1] ** 2
        return np.column_stack((-v[:, 0], v[:, 1])) / r2[:, None]

    return CZKernel("cauchy", 1, 2, 2, fn, riesz.constants)


def make_kernel(kind: str, n: int | None = None,
                d: int | None = None) -> CZKernel:
    """Kernel factory: 'riesz' or 'cauchy', validated before it is returned."""
    if kind == "riesz":
        if n is None or d is None:
            raise ValueError("riesz kernel needs n and d")
        kernel = riesz_kernel(n, d)
    elif kind == "cauchy":
        kernel = cauchy_kernel()
    else:
        raise ValueError(f"unknown kernel kind {kind!r}")
    validate_kernel(kernel)
    return kernel


def validate_kernel(kernel: CZKernel) -> dict:
    """Sample the declared kernel bounds; raise listing the worst offender.

    Checks oddness (to a few ulp; exact for the built-ins), the size bound,
    first and second derivatives by central differences at step 1e-5|x|,
    and the smoothness of k(x, y) in x for |x - x'| <= |x - y|/2 against
    the mean-value constant 2^(n+1) c1.
    """
    rng = np.random.default_rng(VALIDATION_SEED)
    d = kernel.dim
    n = kernel.n
    c0, c1, c2 = kernel.constants
    dirs = rng.normal(size=(VALIDATION_SAMPLES, d))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    radii = np.exp(rng.uniform(math.log(1e-3), math.log(1e3),
                               VALIDATION_SAMPLES))
    xs = dirs * radii[:, None]

    report = {}
    vals = kernel(xs)
    odd_err = np.linalg.norm(kernel(-xs) + vals, axis=1)
    odd_ref = np.linalg.norm(vals, axis=1)
    report["oddness"] = _worst(xs, odd_err / (8 * np.finfo(float).eps * odd_ref))
    report["size"] = _worst(xs, np.linalg.norm(vals, axis=1) * radii**n / c0)

    h = GRAD_STEP_FACTOR * radii
    grad_sq = np.zeros(VALIDATION_SAMPLES)
    hess_sq = np.zeros(VALIDATION_SAMPLES)
    for j in range(d):
        e = np.zeros(d)
        e[j] = 1.0
        plus = kernel(xs + h[:, None] * e)
        minus = kernel(xs - h[:, None] * e)
        grad_sq += np.sum(((plus - minus) / (2 * h[:, None])) ** 2, axis=1)
        hess_sq += np.sum(((plus - 2 * vals + minus) / h[:, None] ** 2) ** 2,
                          axis=1)
        for k in range(j + 1, d):
            ek = np.zeros(d)
            ek[k] = 1.0
            pp = kernel(xs + h[:, None] * (e + ek))
            pm = kernel(xs + h[:, None] * (e - ek))
            mp = kernel(xs - h[:, None] * (e - ek))
            mm = kernel(xs - h[:, None] * (e + ek))
            mixed = (pp - pm - mp + mm) / (4 * h[:, None] ** 2)
            hess_sq += 2 * np.sum(mixed**2, axis=1)
    report["gradient"] = _worst(
        xs, np.sqrt(grad_sq) * radii ** (n + 1) / c1)
    report["hessian"] = _worst(
        xs, np.sqrt(hess_sq) * radii ** (n + 2) / c2)

    # smoothness in the first argument at fixed y
    ys = xs + dirs[::-1] * (3.0 * radii[:, None])
    steps = rng.uniform(0.01, 0.5, VALIDATION_SAMPLES)
    moves = rng.normal(size=(VALIDATION_SAMPLES, d))
    moves /= np.linalg.norm(moves, axis=1)[:, None]
    sep = np.linalg.norm(xs - ys, axis=1)
    xps = xs + moves * (steps * sep / 2)[:, None]
    smooth = np.linalg.norm(kernel(xs - ys) - kernel(xps - ys), axis=1)
    bound = 2 ** (n + 1) * c1 * np.linalg.norm(
        xs - xps, axis=1) / sep ** (n + 1)
    report["smoothness"] = _worst(xs, smooth / bound)

    for check, (ratio, x) in report.items():
        if not ratio <= VALIDATION_TOL:
            raise KernelValidationError(
                f"kernel {kernel.name!r} fails {check}: ratio {ratio:.4g} "
                f"at x={np.array2string(x, precision=6)}"
            )
    return report


def _worst(xs, ratios):
    ratios = np.where(np.isfinite(ratios), ratios, np.inf)
    i = int(np.argmax(ratios))
    return float(ratios[i]), xs[i]


class BumpFamily:
    """Radial cutoffs psi_k(z) = psi(a0^k |z|) and shells phi_k = psi_k - psi_{k+1}.

    psi is a quintic smoothstep: 1 up to radius 0.001, 0 from 0.01 on, and
    1 - (6 s^5 - 15 s^4 + 10 s^3) in between with s the normalized radius.
    phi_k is supported on the shell 0.001 a0^{-k-1} < |z| < 0.01 a0^{-k};
    for a0 >= 10 consecutive shells' transition bands are disjoint, which
    makes plateau values of partial sums exactly 1.
    """

    INNER = 0.001
    OUTER = 0.01

    def __init__(self, a0: float):
        if a0 <= 1.0:
            raise ValueError(f"a0 must exceed 1, got {a0}")
        self.a0 = float(a0)

    def psi(self, t):
        t = np.asarray(t, dtype=float)
        s = np.clip((t - self.INNER) / (self.OUTER - self.INNER), 0.0, 1.0)
        return 1.0 - s * s * s * (10.0 + s * (6.0 * s - 15.0))

    def psi_k(self, k: int, t):
        return self.psi(self.a0**k * np.asarray(t, dtype=float))

    def phi_k(self, k: int, t):
        t = np.asarray(t, dtype=float)
        return self.psi_k(k, t) - self.psi_k(k + 1, t)


class _TruncationSums:
    """Distance-sorted suffix sums of kernel terms at one evaluation point.

    suffix[j] holds the sum of all terms strictly farther than the j-th
    sorted distance position, accumulated farthest-first; lookups for any
    cutoff are O(log N) and share that one summation order.  Given the
    suppression values phi_atoms, each term is damped by the factor of
    ``suppressed_kernel``, computed from the kernel values already taken.
    """

    def __init__(self, kernel, measure, x, phi_x=0.0, phi_atoms=None):
        radial = RadialOrder(measure, x)
        # the evaluation point's own atoms lead the order at distance 0
        near = int(radial.count(0.0))
        self.dist = radial.dist[near:]
        if self.dist.size == 0:
            self.suffix = np.zeros((1, kernel.out_dim))
            return
        kept = radial.order[near:]
        # x - p is formed exactly as -(p - x): IEEE rounding is symmetric
        vals = kernel(-radial.offsets[near:])
        terms = vals * measure.weights[kept][:, None]
        if phi_atoms is not None:
            phi_y = np.asarray(phi_atoms, dtype=float)[kept]
            terms = terms * _damping(kernel, vals, float(phi_x), phi_y)[:, None]
        self.suffix = radial.suffix(terms)

    def beyond(self, eps) -> np.ndarray:
        """Sums of terms with distance strictly greater than each cutoff.

        A scalar cutoff gives one (out_dim,) row, an array of cutoffs one
        row per cutoff.
        """
        return self.suffix[np.searchsorted(self.dist, eps, side="right")]

    def sup_norm(self) -> tuple[float, float]:
        """Max over all cutoffs of |sum beyond cutoff|, with a witness eps."""
        if self.dist.size == 0:
            return 0.0, 0.0
        uniq, first = np.unique(self.dist, return_index=True)
        positions = np.concatenate(([0], first[1:], [self.dist.size]))
        witnesses = np.concatenate(([self.dist[0] / 2], uniq[:-1], [uniq[-1]]))
        norms = np.linalg.norm(self.suffix[positions], axis=1)
        i = int(np.argmax(norms))
        return float(norms[i]), float(witnesses[i])


def truncated_field(kernel, measure, centers, eps_values) -> np.ndarray:
    """T_eps at many centers and cutoffs: shape (centers, cutoffs, out_dim)."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    eps_values = np.asarray(eps_values, dtype=float)
    out = np.empty((centers.shape[0], eps_values.size, kernel.out_dim))
    for c, x in enumerate(centers):
        out[c] = _TruncationSums(kernel, measure, x).beyond(eps_values)
    return out


def _damping(kernel, vals, phi_x: float, phi_y: np.ndarray) -> np.ndarray:
    """1/(1 + |K|^2 (Phi(x) Phi(y))^n) from the kernel values K per row."""
    ksq = np.sum(vals**2, axis=1)
    return 1.0 / (1.0 + ksq * (max(phi_x, 0.0) * np.maximum(phi_y, 0.0))
                  ** kernel.n)


def suppressed_kernel(kernel, x, y, phi_x: float, phi_y: float) -> np.ndarray:
    """k_Phi(x, y): the kernel at x - y damped by 1/(1 + |k|^2 (Phi Phi)^n).

    Agrees with the plain kernel exactly when Phi(x) Phi(y) = 0 (the factor
    is then literally 1.0) and is antisymmetric whenever the kernel is odd.
    """
    diff = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    vals = kernel(diff[None, :])
    factor = _damping(kernel, vals, float(phi_x), np.array([float(phi_y)]))
    return vals[0] * factor[0]


def t_phi_eps(kernel, measure, x, eps, phi_x, phi_atoms) -> np.ndarray:
    """Suppressed truncated sum: kernel damped by Phi, cutoff |x - y| > eps."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return _TruncationSums(kernel, measure, x, phi_x, phi_atoms).beyond(eps)


def t_phi_star(kernel, measure, x, phi_x, phi_atoms) -> tuple[float, float]:
    """sup over eps > 0 of the suppressed truncation, with witness cutoff."""
    return _TruncationSums(kernel, measure, x, phi_x, phi_atoms).sup_norm()


def m_tilde(sigma: WeightedPointMeasure, f, x, variant: str = "plain") -> float:
    """sup over r of mean |f| on B(x, r) against sigma's mass on B(x, 3r).

    The ratio is piecewise constant between breakpoints (atom distances for
    the numerator, one third of them for the denominator), so the sup is a
    max over those radii.  variant '3/2' averages |f|^{3/2} and takes the
    2/3 power of the ratio.
    """
    if variant not in ("plain", "3/2"):
        raise ValueError(f"unknown variant {variant!r}")
    if sigma.is_empty:
        return 0.0
    fz = np.abs(np.asarray(f, dtype=float))
    if fz.shape != (sigma.size,):
        raise ValueError(
            f"f must give one value per atom: got shape {fz.shape}, "
            f"need ({sigma.size},)"
        )
    if variant == "3/2":
        fz = fz**1.5
    radial = RadialOrder(sigma, x)
    num_cum = radial.prefix((fz * sigma.weights)[radial.order])
    den_cum = radial.prefix(sigma.weights[radial.order])
    positive = np.unique(radial.dist[radial.dist > 0.0])
    radii = [positive[0] / 2] if positive.size else []
    radii = np.unique(np.concatenate((radii, positive, positive / 3.0)))
    if radii.size == 0:
        # every atom sits exactly at x
        best = num_cum[-1] / den_cum[-1]
        return best ** (2.0 / 3.0) if variant == "3/2" else best
    den = den_cum[radial.count(3.0 * radii)]
    num = num_cum[radial.count(radii)]
    valid = den != 0.0
    best = float(np.max(num[valid] / den[valid], initial=0.0))
    return best ** (2.0 / 3.0) if variant == "3/2" else best


def _chain_levels(corona, top_id: int, atom: int) -> list[int]:
    lattice = corona.lattice
    top = lattice.cells[top_id]
    if lattice.cell_of(atom, top.level).id != top_id:
        raise ValueError(f"atom {atom} is not in cell {top_id}")
    levels = []
    for level in range(top.level, lattice.max_depth + 1):
        cell = lattice.cell_of(atom, level)
        if int(corona.owner[cell.id]) != top_id:
            break
        levels.append(level)
    return levels


def k_r_chain(corona, kernel, bump: BumpFamily, top_id: int,
              atom: int) -> np.ndarray:
    """Tree-restricted operator at a support atom, level by level.

    Sums, over the tree cells containing the atom, the shell contribution
    sum_i phi_{J(Q)}(|x - x_i|) K(x - x_i) w_i.  The atom's own location is
    excluded (every shell vanishes at 0 anyway).
    """
    measure = corona.measure
    x = measure.points[atom]
    diffs = x[None, :] - measure.points
    dist = np.linalg.norm(diffs, axis=1)
    keep = dist > 0.0
    terms = kernel(diffs[keep]) * measure.weights[keep][:, None]
    out = np.zeros(kernel.out_dim)
    for level in _chain_levels(corona, top_id, atom):
        shell = bump.phi_k(level, dist[keep])
        out += shell @ terms
    return out


def k_r_telescoped(corona, kernel, bump: BumpFamily, top_id: int,
                   atom: int) -> np.ndarray:
    """Same operator collapsed to one pass: weights psi_a - psi_{b+1}.

    a is the tree root's level and b the deepest tree level at the atom;
    the shell sum telescopes to that difference of cutoffs.
    """
    levels = _chain_levels(corona, top_id, atom)
    a, b = levels[0], levels[-1]
    measure = corona.measure
    x = measure.points[atom]
    diffs = x[None, :] - measure.points
    dist = np.linalg.norm(diffs, axis=1)
    keep = dist > 0.0
    weights = bump.psi_k(a, dist[keep]) - bump.psi_k(b + 1, dist[keep])
    terms = kernel(diffs[keep]) * measure.weights[keep][:, None]
    return weights @ terms
