"""Odd singular kernels and their truncated, suppressed and maximal sums.

Kernels act on differences: a kernel of degree n satisfies |K(x)| <= c0/|x|^n
with matching decay for two derivatives.  Against a weighted point measure
every operator here is a finite sum; the truncation |x - y| > eps (strict)
is the only regularization, and the evaluation point's own atom is always
outside the truncation.

The truncated, suppressed and maximal sums over a block of evaluation
points come from one blocked radial pass (``measure.radial_pass``): each
point's atoms are sorted by distance once, and its kernel terms are summed
farthest-first into suffix sums.  Any cutoff of that point is then one
search in its sorted distances, and every cutoff of the same point sums in
the same order, whatever the block or the sweep.  Each reader indexes its
per-centre inputs (cutoffs, Phi) by the block's ``centres`` and returns
its block's rows; the pass stacks them in centre order.  The truncation
reader (``_cutoff_sums``) is a function of the sorted block alone, so
``verify.main_lemma_check`` reads the same block for its truncation
energies and for its flatness energies: one sort per atom.  One kernel
evaluation per block (``_kernel_terms``) gives the plain terms and the
damping factor of the suppressed kernel, so ``verify.verify_checks``
takes the truncations and T_Phi from it.  The terms and their sums are
stored component-major, (out_dim, rows, atoms), so each component is
summed along a contiguous row.  A kernel is one function of the offsets,
coordinate first, and their norms, which a block holds already.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measure import WeightedPointMeasure, _centre_rows, _prefix, radial_pass

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

    ``fn(v, r)`` maps nonzero differences v, coordinate axis first (d, ...),
    and their norms r (...) to the values, component axis first
    (out_dim, ...).  constants = (c0, c1, c2) bound |grad^j K| by
    c_j/|x|^(n+j).  Called on (m, d) rows, the kernel gives C-contiguous
    (m, out_dim) values with numpy's row norms.
    """

    name: str
    n: int
    dim: int
    out_dim: int
    fn: object
    constants: tuple = field(default=(1.0, 1.0, 1.0))

    def __call__(self, diffs: np.ndarray) -> np.ndarray:
        diffs = np.atleast_2d(np.asarray(diffs, dtype=float))
        out = self.fn(diffs.T, np.linalg.norm(diffs, axis=1))
        return np.ascontiguousarray(out.T, dtype=float)


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

    def fn(v, r):
        return v / r ** (n + 1)

    return CZKernel(f"riesz({n},{d})", n, d, d, fn, (1.0, c1, c2))


def cauchy_kernel() -> CZKernel:
    """1/(zeta - z) as a 2-vector kernel of the difference w = z - zeta.

    -1/w in complex notation is (-w1, w2)/|w|^2; a coordinate reflection of
    the planar Riesz kernel, so it shares its exact constants.  It fits only
    n = 1 in the plane, as ``make_kernel(kind, n, d)`` checks.  It reads 0
    where |w|^2 is 0: in a block, exactly at the centre's own atoms, whose
    distance is the root of the same sum.
    """
    def fn(v, r):
        den = v[0] ** 2 + v[1] ** 2
        out = np.divide(v, den, out=np.zeros(v.shape), where=den > 0.0)
        # -(w1/|w|^2) is (-w1)/|w|^2 bit for bit
        np.negative(out[0], out=out[0])
        return out

    return CZKernel("cauchy", 1, 2, 2, fn, riesz_kernel(1, 2).constants)


def make_kernel(kind: str, n: int, d: int) -> CZKernel:
    """Kernel factory for a measure of growth degree n in R^d: 'riesz', or
    'cauchy' when (n, d) = (1, 2); validated before it is returned."""
    if kind == "riesz":
        kernel = riesz_kernel(n, d)
    elif kind == "cauchy":
        if (n, d) != (1, 2):
            raise ValueError(
                "cauchy kernel needs a planar measure with target dimension 1")
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
    makes plateau values of partial sums exactly 1.  The tree operators
    take |z| in units of the lattice's scale s, as the cells are.
    """

    INNER = 0.001
    OUTER = 0.01

    def __init__(self, a0: float):
        if not 1.0 < a0 < math.inf:
            raise ValueError(f"a0 must be finite and exceed 1, got {a0}")
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


def _kernel_terms(kernel, block, phi_x=None, phi_y=None):
    """The terms K(x - p) w_p along the rows of ``block``, component-major:
    shape (out_dim, rows, atoms).  Given Phi at every centre of the pass
    (``phi_x``) and at every atom (``phi_y``), also the factor of
    ``suppressed_kernel`` per entry, (rows, atoms), from the kernel values;
    else None.

    The kernel takes the sorted offsets and their norms: the block's
    distances up to 7 coordinates, numpy's norms bit for bit; from 8 on
    numpy sums the squares pairwise, and so do the norms here.  The atoms
    at a row's centre lead it at distance 0; the kernel sees the norm 1.0
    there, so those entries are no terms and must not be summed.
    """
    # x - p is formed exactly as -(p - x): IEEE rounding is symmetric
    v = np.negative(block.offsets)
    norms = block.dist.copy() if len(v) < 8 else np.sqrt(_norm_sq(v))
    norms[block.dist == 0.0] = 1.0
    terms = kernel.fn(v, norms)
    del v, norms
    damping = None if phi_y is None else _damping(
        kernel, terms, phi_x[block.centres, None], phi_y[block.order])
    # the values become the terms in place
    terms *= block.mass
    return terms, damping


def _norm_sq(vals) -> np.ndarray:
    """Squared norms over the component axis (axis 0) of ``vals``.

    They are summed as numpy sums a row's squares along a contiguous last
    axis, so they equal ``np.sum(v**2, axis=-1)`` on the component-last
    layout bit for bit: in order up to 7 components, pairwise from 8 on.
    """
    squares = vals * vals
    if len(squares) < 8:
        return np.sum(squares, axis=0)
    return np.sum(np.moveaxis(squares, 0, -1).copy(), axis=-1)


def _suffix(terms) -> np.ndarray:
    """Farthest-first sums of the component-major ``terms`` of a block
    along each row.

    Entry [c, i, k] sums component c of the terms of row i from sorted
    position k on, so entry [:, i, count(r)] is the sum over |p - x| > r
    and the last entry is zero; the shape is (out_dim, rows, atoms + 1).
    The entries before a row's ``near`` count hold the stand-in terms at
    its centre, so they are no sums and must not be looked up.
    """
    out = np.empty(terms.shape[:-1] + (terms.shape[-1] + 1,))
    # prefix sums of the reversed rows, written reversed: out stays in
    # sorted order and contiguous
    _prefix(np.flip(terms, -1), np.flip(out, -1))
    return out


def _suffix_sums(kernel, block, phi_x=None, phi_y=None) -> np.ndarray:
    """``_suffix`` of the kernel terms of ``block``, each damped by the
    factor of ``suppressed_kernel`` when Phi is given (``_kernel_terms``).
    """
    terms, damping = _kernel_terms(kernel, block, phi_x, phi_y)
    if damping is not None:
        terms *= damping
    return _suffix(terms)


def _cutoff_sums(suffix, block, counts) -> np.ndarray:
    """The truncation reader: each row's sums beyond the cutoffs that hold
    ``counts`` atoms, component-major: (out_dim, rows, cutoffs).

    Counts are clamped past the atoms at the centre, which no truncation
    holds.
    """
    counts = np.maximum(counts, block.near[:, None])
    # each row's entries as flat indices into a component's (rows, atoms + 1)
    counts += (np.arange(block.rows) * suffix.shape[-1])[:, None]
    return suffix.reshape(len(suffix), -1).take(counts, axis=1)


def truncated_field(kernel, measure, centers, eps_values) -> np.ndarray:
    """T_eps at many centers and cutoffs: shape (centers, cutoffs, out_dim).

    One radial pass over one reader: each row's cutoffs are lookups in its
    suffix sums (``_cutoff_sums``).
    """
    eps_values = np.asarray(eps_values, dtype=float).reshape(-1)
    return radial_pass(
        measure, centers,
        lambda block: np.moveaxis(_cutoff_sums(
            _suffix_sums(kernel, block), block, block.count(eps_values)),
            0, -1))


def _phi_values(measure, centers, phi_centers, phi_atoms):
    """Phi at the centres and at the atoms as float arrays, checked."""
    phi_x = np.asarray(phi_centers, dtype=float).reshape(-1)
    phi_y = np.asarray(phi_atoms, dtype=float)
    if phi_x.shape != centers.shape[:1] or phi_y.shape != (measure.size,):
        raise ValueError(
            f"Phi must give one value per centre and one per atom: got "
            f"shapes {phi_x.shape} and {phi_y.shape}, need "
            f"({len(centers)},) and ({measure.size},)")
    return phi_x, phi_y


def _damping(kernel, vals, phi_x, phi_y: np.ndarray) -> np.ndarray:
    """1/(1 + |K|^2 (Phi(x) Phi(y))^n) from the kernel values K,
    component-major."""
    return 1.0 / (1.0 + _norm_sq(vals) * (np.maximum(phi_x, 0.0)
                                          * np.maximum(phi_y, 0.0))
                  ** kernel.n)


def suppressed_kernel(kernel, x, y, phi_x: float, phi_y: float) -> np.ndarray:
    """k_Phi(x, y): the kernel at x - y damped by 1/(1 + |k|^2 (Phi Phi)^n).

    Agrees with the plain kernel exactly when Phi(x) Phi(y) = 0 (the factor
    is then literally 1.0) and is antisymmetric whenever the kernel is odd.
    """
    diff = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    vals = kernel(diff[None, :])
    factor = _damping(kernel, vals.T, float(phi_x),
                      np.array([float(phi_y)]))
    return vals[0] * factor[0]


def t_phi_eps(kernel, measure, centers, eps, phi_centers,
              phi_atoms) -> np.ndarray:
    """Suppressed truncated sums, (centers, out_dim): row i sums the kernel
    damped by Phi over |x_i - y| > eps_i.

    ``eps`` and ``phi_centers`` (Phi at the centres) hold one value per
    centre, ``phi_atoms`` one per atom (other Phi lengths raise
    ValueError); a single eps serves every centre.  Every eps_i is >= 0;
    at eps_i = 0 the strict inequality leaves out exactly the atoms
    sitting at x_i, so the row sums over every atom at a positive distance.
    """
    centers = _centre_rows(centers, measure.dim)
    eps = np.broadcast_to(np.asarray(eps, dtype=float).reshape(-1),
                          centers.shape[:1])[:, None]
    if not (eps >= 0).all():
        raise ValueError(f"eps must be >= 0, got {eps.min()}")
    phi_x, phi_y = _phi_values(measure, centers, phi_centers, phi_atoms)

    def visit(block):
        suffix = _suffix_sums(kernel, block, phi_x, phi_y)
        # on a sorted row this count is the right-sided search
        counts = np.count_nonzero(block.dist <= eps[block.centres], axis=1)
        return suffix[:, np.arange(block.rows), counts].T

    return radial_pass(measure, centers, visit)


def t_phi_star(kernel, measure, centers, phi_centers,
               phi_atoms) -> np.ndarray:
    """sup over eps > 0 of the suppressed truncation's norm, one per
    centre; arguments as in ``t_phi_eps``.

    The sum beyond eps changes only where eps crosses an atom distance, so
    the sup is a max over the suffix entries that start a run of equal
    positive distances, and the final zero.  A centre with no atom at a
    positive distance reads only that zero, so it gets 0.0.
    """
    centers = _centre_rows(centers, measure.dim)
    phi_x, phi_y = _phi_values(measure, centers, phi_centers, phi_atoms)

    def visit(block):
        suffix = _suffix_sums(kernel, block, phi_x, phi_y)
        dist, near, size = block.dist, block.near, block.dist.shape[1]
        starts = np.ones((block.rows, size + 1), dtype=bool)
        starts[:, 1:size] = dist[:, 1:] != dist[:, :-1]
        starts &= np.arange(size + 1) >= near[:, None]
        norms = np.where(starts, np.sqrt(_norm_sq(suffix)), -np.inf)
        return norms.max(axis=1)

    return radial_pass(measure, centers, visit)


def m_tilde(sigma: WeightedPointMeasure, f, centers) -> np.ndarray:
    """sup over r of mean |f| on B(x, r) against sigma's mass on B(x, 3r).

    One value per row of ``centers``.  The ratio is piecewise constant
    between breakpoints (atom distances for the numerator, one third of
    them for the denominator), so the sup is a max over those radii.
    The radii read start at half the least positive distance d1, so the
    limit |f(x)| of the ratio on (0, d1/3) is missed where it is larger.
    """
    centers = _centre_rows(centers, sigma.dim)
    if sigma.is_empty:
        return np.zeros(centers.shape[0])
    fz = np.abs(np.asarray(f, dtype=float))
    if fz.shape != (sigma.size,):
        raise ValueError(
            f"f must give one value per atom: got shape {fz.shape}, "
            f"need ({sigma.size},)"
        )
    values = fz * sigma.weights

    def visit(block):
        # the mass sums are the denominators
        nums = _prefix(values[block.order], np.empty(block.sums.shape))
        return np.array([_sup_ratio(*row) for row in zip(block.dist, nums,
                                                          block.sums)])

    return radial_pass(sigma, centers, visit)


def _sup_ratio(dist, num_cum, den_cum) -> float:
    """max over breakpoint radii r of num(B(x, r)) / den(B(x, 3r)) at x."""
    positive = dist[dist > 0.0]
    radii = [positive[0] / 2] if positive.size else []
    radii = np.concatenate((radii, positive, positive / 3.0))
    if radii.size == 0:
        # every atom sits exactly at x
        return float(num_cum[-1] / den_cum[-1])
    den = den_cum[np.searchsorted(dist, 3.0 * radii, side="right")]
    num = num_cum[np.searchsorted(dist, radii, side="right")]
    valid = den != 0.0
    return float(np.max(num[valid] / den[valid], initial=0.0))


def _chain_levels(corona, top_id: int, atom: int) -> list[int]:
    """The levels, from the top's down, at which the atom's cell lies in
    the top's tree."""
    level = corona.lattice.cells[top_id].level
    chain = corona.lattice.assignment[level:, atom]
    if chain[0] != top_id:
        raise ValueError(f"atom {atom} is not in cell {top_id}")
    # a chain that leaves the tree never comes back to it
    inside = np.count_nonzero(corona.owner[chain] == top_id)
    return list(range(level, level + int(inside)))


def _shell_terms(corona, kernel, atom: int):
    """Distances in units of the lattice's scale s, and weighted kernel
    terms K(x - x_i) w_i, from a support atom x to every atom at a positive
    distance (each shell vanishes at 0)."""
    points, weights = corona.measure.points, corona.measure.weights
    diffs = points[atom][None, :] - points
    dist = np.linalg.norm(diffs, axis=1)
    keep = dist > 0.0
    return (dist[keep] / corona.lattice.scale,
            kernel(diffs[keep]) * weights[keep][:, None])


def k_r_chain(corona, kernel, bump: BumpFamily, top_id: int,
              atom: int) -> np.ndarray:
    """Tree-restricted operator at a support atom, level by level.

    Sums, over the tree cells containing the atom, the shell contribution
    sum_i phi_{J(Q)}(|x - x_i| / s) K(x - x_i) w_i, s the lattice's scale.
    """
    dist, terms = _shell_terms(corona, kernel, atom)
    out = np.zeros(kernel.out_dim)
    for level in _chain_levels(corona, top_id, atom):
        out += bump.phi_k(level, dist) @ terms
    return out


def k_r_telescoped(corona, kernel, bump: BumpFamily, top_id: int,
                   atom: int) -> np.ndarray:
    """Same operator collapsed to one pass: weights psi_a - psi_{b+1}.

    a is the tree root's level and b the deepest tree level at the atom;
    the shell sum telescopes to that difference of cutoffs.
    """
    levels = _chain_levels(corona, top_id, atom)
    dist, terms = _shell_terms(corona, kernel, atom)
    weights = bump.psi_k(levels[0], dist) - bump.psi_k(levels[-1] + 1, dist)
    return weights @ terms
