"""Acceptance suite: one test per shipped guarantee.

Each test prints a single [PASS] line once its assertions hold, so the
verbose run reads as a checklist.  Tolerances are part of the contract and
are deliberately not derived from the measured values.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from betascope import (Ball, BumpFamily, TreeGeometry, WeightedPointMeasure,
                       beta2, build_corona, build_lattice, cantor4,
                       capacity_lower_bound, cauchy_kernel, check_lattice,
                       k_r_chain, k_r_telescoped, lipschitz_graph,
                       main_lemma_check, packing_audit, riesz_kernel, segment,
                       square_area, suppressed_kernel)
from conftest import oracle_beta2, random_instance, two_cluster

RIESZ = riesz_kernel(1, 2)


def mark(num, text):
    print(f"[PASS] criterion {num}: {text}")


@pytest.fixture(scope="module")
def cantor_coronas():
    out = {}
    for g in (4, 5, 6):
        lat = build_lattice(cantor4(g), a0=4.0, c0=400.0)
        out[g] = build_corona(lat, a_stop=30.0, tau=0.005)
    return out


@pytest.fixture(scope="module")
def cluster_corona():
    lat = build_lattice(two_cluster(), a0=50.0, c0=4.0)
    return build_corona(lat, a_stop=30.0, tau=0.12)


def test_criterion_01_beta_matches_bruteforce_oracle():
    rng = np.random.default_rng(77)
    worst = 0.0
    for i in range(20):
        m, ball = random_instance(rng, 2 if i % 2 == 0 else 3)
        got = beta2(m, ball).value
        want = oracle_beta2(m, ball)
        worst = max(worst, abs(got - want))
    assert worst <= 1e-8, f"oracle gap {worst}"

    # flat supports: the fit must recover an exact zero
    worst_flat = 0.0
    for trial in range(50):
        t = np.linspace(-1.0, 1.0, 30)
        ang = rng.uniform(0.0, math.pi)
        direction = np.array([math.cos(ang), math.sin(ang)])
        offset = rng.uniform(-0.5, 0.5, size=2)
        pts = offset + t[:, None] * direction
        m = WeightedPointMeasure(pts, rng.uniform(0.5, 2.0, 30), 1)
        ball = Ball(tuple(pts[rng.integers(30)]), rng.uniform(0.3, 2.0))
        worst_flat = max(worst_flat, beta2(m, ball).value)
    for trial in range(50):
        uv = rng.uniform(-1.0, 1.0, size=(40, 2))
        e1 = rng.normal(size=3)
        e1 /= np.linalg.norm(e1)
        e2 = rng.normal(size=3)
        e2 -= (e2 @ e1) * e1
        e2 /= np.linalg.norm(e2)
        origin = rng.uniform(-0.5, 0.5, size=3)
        pts = origin + uv[:, :1] * e1 + uv[:, 1:] * e2
        m = WeightedPointMeasure(pts, rng.uniform(0.5, 2.0, 40), 2)
        ball = Ball(tuple(pts[rng.integers(40)]), rng.uniform(0.3, 2.0))
        worst_flat = max(worst_flat, beta2(m, ball).value)
    assert worst_flat <= 1e-12, f"flat-support beta {worst_flat}"
    mark(1, f"beta2 vs oracle gap {worst:.2e}; flat supports {worst_flat:.2e}")


def test_criterion_02_beta_density_bound():
    rng = np.random.default_rng(123)
    measures = [segment(300), lipschitz_graph(300, seed=1), cantor4(4),
                square_area(15)]
    for i in range(10):
        measures.append(random_instance(rng, 2 if i % 2 == 0 else 3)[0])
    checked = 0
    for m in measures:
        n = m.target_dim
        for _ in range(100):
            center = m.points[rng.integers(m.size)] + \
                rng.normal(scale=0.02, size=m.dim)
            radius = float(np.exp(rng.uniform(np.log(m.r_min),
                                              np.log(2.0 * m.diameter))))
            ball = Ball(tuple(center), radius)
            b = beta2(m, ball).value
            theta = m.ball_mass(center, radius) / radius ** n
            assert b * b <= 4.0 * theta + 1e-12, (b, theta, radius)
            checked += 1
    mark(2, f"beta^2 <= 4 theta on {checked} balls")


def test_criterion_03_annulus_tail_growth_bound():
    rng = np.random.default_rng(5)
    for m in (segment(300), lipschitz_graph(300, seed=1), cantor4(4),
              square_area(15)):
        c0 = m.growth_constant(exact=True)
        bound_const = m.tail_bound_constant()
        for _ in range(1000):
            x = m.points[rng.integers(m.size)]
            r = float(np.exp(rng.uniform(np.log(m.r_min),
                                         np.log(m.diameter))))
            tail = m.annulus_tail(x, r)
            assert tail <= bound_const * c0 / r + 1e-12, (tail, r, c0)
    mark(3, "annulus tail <= 2^(n+1) c0 / r at 1000 (x, r) per family")


def test_criterion_04_lattice_invariants():
    cases = [("segment", segment(1500)),
             ("cantor4(5)", cantor4(5)),
             ("square_area(50)", square_area(50)),
             ("lipschitz_graph(2000)", lipschitz_graph(2000, seed=0))]
    for name, m in cases:
        rep = check_lattice(build_lattice(m))
        assert rep["partition_ok"], name
        assert rep["nesting_ok"], name
        assert rep["five_b_violations"] == 0, name
        assert rep["diam_upper_ok"], name
        assert rep["radius_bracket_ok"], name
        assert rep["center_membership_ok"], name
    mark(4, "partition, nesting, 5B separation, diam <= side on 4 families")


def test_criterion_05_suppressed_kernel_identities():
    rng = np.random.default_rng(31)
    m = lipschitz_graph(600, seed=6)
    marker = np.array([0.3, 0.0])
    phi = np.linalg.norm(m.points - marker, axis=1)

    # (a) zero product of suppression radii: bitwise equality with the kernel
    for _ in range(10_000):
        i, j = rng.integers(0, m.size, 2)
        if i == j:
            continue
        x, y = m.points[i], m.points[j]
        plain = RIESZ((x - y)[None, :])[0]
        assert np.array_equal(suppressed_kernel(RIESZ, x, y, 0.0, phi[j]),
                              plain)

    # (b) antisymmetry, bitwise
    for _ in range(10_000):
        i, j = rng.integers(0, m.size, 2)
        if i == j:
            continue
        x, y = m.points[i], m.points[j]
        a = suppressed_kernel(RIESZ, x, y, phi[i], phi[j])
        b = suppressed_kernel(RIESZ, y, x, phi[j], phi[i])
        assert np.array_equal(a, -b)

    # (c) size bound constant, stable across one refinement level
    def c_emp(measure):
        p = np.linalg.norm(measure.points - marker, axis=1)
        gen = np.random.default_rng(0)
        i = gen.integers(0, measure.size, 10_000)
        j = gen.integers(0, measure.size, 10_000)
        keep = i != j
        i, j = i[keep], j[keep]
        diffs = measure.points[i] - measure.points[j]
        vals = np.linalg.norm(RIESZ(diffs), axis=1)
        sup = vals / (1.0 + vals ** 2 * p[i] * p[j])
        return float(np.max(sup * np.maximum(p[i], p[j])))

    c_coarse = c_emp(lipschitz_graph(400, seed=6))
    c_fine = c_emp(lipschitz_graph(800, seed=6))
    assert np.isfinite(c_coarse) and np.isfinite(c_fine)
    gap = abs(c_coarse - c_fine) / max(c_coarse, c_fine)
    assert gap <= 0.2, (c_coarse, c_fine)
    mark(5, f"identities bitwise on 10^4 pairs; size constant gap {gap:.3f}")


def test_criterion_06_kernel_chain_telescoping(cantor_coronas):
    lat = build_lattice(lipschitz_graph(500, seed=1))
    graph_cor = build_corona(lat)
    rng = np.random.default_rng(2)
    worst = 0.0
    pairs = 0
    for cor in (cantor_coronas[4], graph_cor):
        bump = BumpFamily(cor.lattice.a0)
        tops = list(cor.tops)
        while pairs < 500 * (1 if cor is cantor_coronas[4] else 2):
            top = int(tops[rng.integers(len(tops))])
            atoms = cor.lattice.cell(top).point_indices
            atom = int(atoms[rng.integers(len(atoms))])
            a = k_r_chain(cor, RIESZ, bump, top, atom)
            b = k_r_telescoped(cor, RIESZ, bump, top, atom)
            scale = max(np.linalg.norm(a), np.linalg.norm(b), 1e-30)
            worst = max(worst, np.linalg.norm(a - b) / scale)
            pairs += 1
    assert pairs == 1000
    assert worst <= 1e-12, worst
    mark(6, f"chain vs telescoped worst relative gap {worst:.2e} on 1000 pairs")


def test_criterion_07_tree_geometry_assertions(cluster_corona):
    cor = cluster_corona
    lat = cor.lattice
    a0 = lat.a0
    geo = TreeGeometry(cor, cor.root_id)
    rng = np.random.default_rng(14)

    # d_R is 1-Lipschitz (min over cells of |x - z| + side adds no slack)
    pts = rng.uniform(-0.3, 1.3, size=(10_000, 2))
    qts = pts + rng.normal(scale=0.05, size=pts.shape)
    gap = np.linalg.norm(pts - qts, axis=1)
    assert (np.abs(geo.d_r(pts) - geo.d_r(qts)) <= gap + 1e-12).all()

    # regularized cells sit inside stopping cells
    reg = geo.regularize()
    assert len(reg) > 0
    stop_atoms = [set(lat.cell(s).point_indices)
                  for s in cor.stops[cor.root_id]]
    for cid in reg:
        atoms = set(lat.cell(cid).point_indices)
        assert any(atoms <= s for s in stop_atoms), cid

    # two-sided distance bracket on each regularized cell's 50 side ball
    for cid in reg:
        cell = lat.cell(cid)
        side = cell.side
        sample = cell.center + rng.uniform(-1.0, 1.0, size=(50, 2)) * \
            (50.0 * side / math.sqrt(2.0))
        keep = np.linalg.norm(sample - cell.center, axis=1) <= 50.0 * side
        vals = geo.d_r(sample[keep])
        assert (vals >= 10.0 * side - 1e-12).all(), cid
        assert (vals <= 61.0 * a0 * side + 1e-12).all(), cid

    # suppression radius small on stopping cells
    for s in cor.stops[cor.root_id]:
        cell = lat.cell(s)
        phis = geo.phi(lat.measure.points[cell.point_indices])
        assert (phis <= cell.side / (10.0 * a0) + 1e-15).all(), s
    mark(7, f"d_R Lipschitz; {len(reg)} regularized cells bracketed and "
            f"inside {len(stop_atoms)} stops")


def test_criterion_08_packing_ratio_stable(cantor_coronas):
    ratios = [packing_audit(cantor_coronas[g])["ratio"] for g in (4, 5, 6)]
    mean = sum(ratios) / len(ratios)
    worst = max(abs(r - mean) / mean for r in ratios)
    assert worst <= 0.2, ratios
    mark(8, "packing ratios " +
            ", ".join(f"{r:.4f}" for r in ratios) +
            f" (max deviation {worst:.2%})")


def test_criterion_09_main_lemma_stability():
    cauchy = cauchy_kernel()
    families = [("segment", segment(600), segment(1200)),
                ("graph", lipschitz_graph(700, seed=0),
                 lipschitz_graph(1400, seed=0)),
                ("cantor", cantor4(4), cantor4(5))]
    lines = []
    for name, small, big in families:
        for kernel in (RIESZ, cauchy):
            a = main_lemma_check(small, kernel)["ratio"]
            b = main_lemma_check(big, kernel)["ratio"]
            assert np.isfinite(a) and np.isfinite(b)
            assert a < 100.0 and b < 100.0
            assert abs(b - a) <= 0.3 * a, (name, kernel.name, a, b)
            lines.append(f"{name}/{kernel.name} {a:.3f}->{b:.3f}")
    mark(9, "; ".join(lines))


def test_criterion_10_capacity_segment_and_scaling():
    rec = capacity_lower_bound([segment(1000)])
    assert rec["lhs"] == pytest.approx(0.5, abs=0.02), rec["lhs"]

    m = segment(400)
    scaled = WeightedPointMeasure(m.points, 3.7 * m.weights, m.target_dim,
                                  r_min=m.r_min)
    a = capacity_lower_bound([m])["lhs"]
    b = capacity_lower_bound([scaled])["lhs"]
    assert abs(a - b) <= 1e-12 * a, (a, b)
    mark(10, f"segment bound {rec['lhs']:.4f}; scaling drift "
             f"{abs(a - b) / a:.2e}")


def test_criterion_11_byte_identical_reports(tmp_path):
    mfile = tmp_path / "c3.csv"
    gen = subprocess.run(
        [sys.executable, "-m", "betascope.cli", "generate", "cantor4",
         "--generation", "3", "--out", str(mfile)],
        capture_output=True, text=True)
    assert gen.returncode == 0, gen.stderr

    def verify(out, threads):
        r = subprocess.run(
            [sys.executable, "-m", "betascope.cli", "verify",
             "--input", str(mfile), "--kernel", "riesz",
             "--threads", str(threads), "--out", str(out)],
            capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        return out.read_bytes()

    first = verify(tmp_path / "r1.json", 1)
    again = verify(tmp_path / "r2.json", 1)
    wide = verify(tmp_path / "r8.json", 8)
    assert first == again
    assert first == wide
    mark(11, f"reports byte-identical across reruns and threads 1 vs 8 "
             f"({len(first)} bytes)")
