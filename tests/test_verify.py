import json
import math

import numpy as np
import pytest

from betascope import (Ball, REPORT_SCHEMA, TreeGeometry, WeightedPointMeasure,
                       build_corona, build_lattice, cantor4,
                       capacity_lower_bound, cauchy_kernel,
                       compare_baseline, cotlar_check, jones_field,
                       lipschitz_graph, main_lemma_check, make_report,
                       packing_audit, pointwise_domination_check,
                       riesz_kernel, save_csv, segment, square_area,
                       t1_ball_check, verify_checks)
from betascope import cli, lattice, verify
from betascope.measure import RadialBlock, radial_pass


@pytest.fixture(scope="module")
def seg():
    return segment(150)


@pytest.fixture(scope="module")
def kernel():
    return riesz_kernel(1, 2)


@pytest.fixture(scope="module")
def graph_corona():
    lat = build_lattice(lipschitz_graph(300, seed=2))
    return build_corona(lat)


def tie_cloud_measure():
    """Grid-snapped atoms with repeated sites and equal distances."""
    rng = np.random.default_rng(3)
    pts = rng.integers(-6, 7, size=(80, 2)) * 0.0625
    pts = np.vstack((pts, pts[:8]))
    return WeightedPointMeasure(pts, rng.uniform(0.5, 2.0, len(pts)), 1)


class TestMainLemma:
    def test_record_shape(self, seg, kernel):
        rec = main_lemma_check(seg, kernel)
        assert rec["name"] == "main_lemma"
        assert rec["lhs"] >= 0.0 and rec["rhs"] > 0.0
        assert rec["ratio"] == pytest.approx(rec["lhs"] / rec["rhs"])
        assert rec["params"]["kernel"] == kernel.name

    def test_rhs_contains_mass_and_jones(self, seg, kernel):
        rec = main_lemma_check(seg, kernel)
        jones = float(np.dot(seg.weights, jones_field(seg)))
        assert rec["rhs"] == pytest.approx(seg.total_mass + jones, rel=1e-10)

    def test_rigid_motion_invariance(self, kernel):
        m = lipschitz_graph(120, seed=8)
        c, s = math.cos(1.1), math.sin(1.1)
        rot = np.array([[c, -s], [s, c]])
        moved = WeightedPointMeasure(m.points @ rot.T + np.array([2.0, -1.0]),
                                     m.weights, m.target_dim, r_min=m.r_min)
        a = main_lemma_check(m, kernel)["ratio"]
        b = main_lemma_check(moved, kernel)["ratio"]
        assert b == pytest.approx(a, rel=1e-8)

    def test_single_atom_never_crashes(self, kernel):
        m = WeightedPointMeasure(np.zeros((1, 2)), np.ones(1), 1)
        rec = main_lemma_check(m, kernel)
        assert np.isfinite(rec["ratio"])

    def test_two_atoms_never_crashes(self, kernel):
        m = WeightedPointMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]),
                                 np.array([0.5, 0.5]), 1)
        rec = main_lemma_check(m, kernel)
        assert np.isfinite(rec["ratio"])


class TestT1Balls:
    def test_per_ball_records(self, seg, kernel):
        balls = [Ball((0.3, 0.0), 0.2), Ball((0.7, 0.0), 0.1)]
        rec = t1_ball_check(seg, kernel, balls)
        assert rec["samples"] == 2
        per_ball = rec["params"]["per_ball"]
        assert len(per_ball) == 2
        assert all(r >= 0.0 for r in per_ball)
        assert rec["ratio"] == pytest.approx(max(per_ball))

    def test_empty_ball_scores_zero(self, seg, kernel):
        rec = t1_ball_check(seg, kernel, [Ball((50.0, 50.0), 0.1)])
        assert rec["params"]["per_ball"] == [0.0]

    def test_sanity_envelope(self, kernel):
        # restricted-ball ratios stay within a factor of the global one
        m = cantor4(4)
        whole = main_lemma_check(m, kernel)["ratio"]
        rng = np.random.default_rng(0)
        idx = rng.choice(m.size, size=50, replace=False)
        balls = [Ball(tuple(m.points[i]), float(rng.uniform(0.05, 0.5)))
                 for i in idx]
        rec = t1_ball_check(m, kernel, balls)
        assert rec["ratio"] <= max(whole, 1.0) * 10.0


class TestCotlar:
    def test_record_and_exclusions(self, graph_corona, kernel):
        rec = cotlar_check(kernel, graph_corona, max_samples=48)
        assert rec["name"] == "cotlar"
        assert rec["params"]["s"] == 1.0
        assert rec["samples"] > 0
        assert np.isfinite(rec["ratio"])

    def test_stability_under_refinement(self, kernel):
        ratios = []
        for count in (500, 2000):
            lat = build_lattice(lipschitz_graph(count, seed=4))
            cor = build_corona(lat)
            rec = cotlar_check(kernel, cor, max_samples=64)
            ratios.append(rec["ratio"])
        lo, hi = min(ratios), max(ratios)
        assert hi <= lo * 1.5 + 1e-12

    def test_cutoffs_sum_like_half_the_nearest_gap(self, kernel, monkeypatch):
        """The cutoff eps = 0, which leaves out only the atoms at each
        centre, gives the same sums, bit for bit, as half the nearest
        positive distance from a full distance scan."""
        cor = build_corona(build_lattice(tie_cloud_measure()))
        calls = []
        real = verify.t_phi_eps

        def spy(kern, sigma, centers, eps, phi_centers, phi_atoms):
            calls.append((sigma, centers, eps, phi_centers, phi_atoms))
            return real(kern, sigma, centers, eps, phi_centers, phi_atoms)

        monkeypatch.setattr(verify, "t_phi_eps", spy)
        cotlar_check(kernel, cor, max_samples=16)
        assert len(calls) == 1
        sigma, centers, eps, phi_centers, phi_atoms = calls[0]
        assert len(centers) == len(eps) == sigma.size
        for x, e, phi_x in zip(centers, eps, phi_centers):
            dists = np.linalg.norm(sigma.points - x, axis=1)
            scan = float(dists[dists > 0].min()) / 2.0
            assert np.array_equal(
                real(kernel, sigma, x, e, phi_x, phi_atoms),
                real(kernel, sigma, x, scan, phi_x, phi_atoms))

    def test_one_blocked_call_per_operator(self, graph_corona, kernel,
                                           monkeypatch):
        """Cotlar takes its field, its sups and each maximal function from
        one call over all its centres; the pointwise check its sups."""
        calls = []
        for name in ("t_phi_eps", "t_phi_star", "m_tilde"):
            real = getattr(verify, name)

            def spy(*args, _name=name, _real=real, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(verify, name, spy)
        cor = graph_corona
        rec = cotlar_check(kernel, cor, max_samples=48)
        assert rec["samples"] > 1
        assert sorted(calls) == ["m_tilde", "m_tilde", "t_phi_eps",
                                 "t_phi_star"]
        calls.clear()
        rec = pointwise_domination_check(kernel, cor, max_samples=48)
        assert rec["samples"] > 1
        assert calls == ["t_phi_star"]

    def test_coincident_atoms_keep_a_zero_field(self, kernel):
        m = WeightedPointMeasure(np.zeros((3, 2)), np.ones(3), 1)
        cor = build_corona(build_lattice(m))
        rec = cotlar_check(kernel, cor)
        assert rec["ratio"] == 0.0 and rec["samples"] == 3
        assert rec["params"]["flagged"] == 0


class TestPointwiseDomination:
    def test_record(self, graph_corona, kernel):
        rec = pointwise_domination_check(kernel, graph_corona,
                                         max_samples=48)
        assert rec["name"] == "pointwise_domination"
        assert rec["lhs"] >= 0.0
        assert np.isfinite(rec["ratio"])


def cloud_measure(dim: int, size: int, seed: int):
    """Uniform atoms in a small cube of R^dim, target dimension 1."""
    rng = np.random.default_rng(seed)
    return WeightedPointMeasure(rng.uniform(0.0, 0.3, (size, dim)),
                                rng.uniform(0.5, 1.5, size), 1)


FUSED_INPUTS = {
    "graph": lambda: (lipschitz_graph(300, seed=2), riesz_kernel(1, 2)),
    "cantor": lambda: (cantor4(3), riesz_kernel(1, 2)),
    "tie-cloud": lambda: (tie_cloud_measure(), riesz_kernel(1, 2)),
    "coincident": lambda: (WeightedPointMeasure(np.zeros((3, 2)), np.ones(3),
                                                1), riesz_kernel(1, 2)),
    # no radial form: the kernel takes the offsets alone
    "cauchy": lambda: (lipschitz_graph(120, seed=5), cauchy_kernel()),
    # 8 coordinates: the block's distances are not numpy's norms
    "d8-cloud": lambda: (cloud_measure(8, 40, 7), riesz_kernel(1, 8)),
}


# (build_lattice, build_corona) parameters: the library defaults and the
# regime of the acceptance suite
REGIMES = [({}, {}), ({"a0": 4.0, "c0": 400.0}, {"tau": 0.005})]


def standalone_checks(kernel, cor, max_samples):
    return (main_lemma_check(cor.measure, kernel),
            cotlar_check(kernel, cor, max_samples),
            pointwise_domination_check(kernel, cor, max_samples),
            packing_audit(cor))


class TestFusedChecks:
    @pytest.mark.parametrize("max_samples", [16, 128])
    @pytest.mark.parametrize("name", sorted(FUSED_INPUTS))
    def test_records_equal_the_standalone_checks(self, name, max_samples):
        measure, kern = FUSED_INPUTS[name]()
        for lattice_params, corona_params in REGIMES:
            cor = build_corona(build_lattice(measure, **lattice_params),
                               **corona_params)
            assert verify_checks(kern, cor, max_samples=max_samples) == \
                standalone_checks(kern, cor, max_samples), lattice_params

    def test_verify_sorts_each_atom_once(self, tmp_path, monkeypatch):
        """One verify sorts the atoms once for all its checks but t1's,
        and the samples twice more, for Cotlar's two maximal functions."""
        measure = lipschitz_graph(90, seed=4)
        save_csv(measure, tmp_path / "graph.csv")
        rows, in_t1 = [], []
        real_sort, real_t1 = RadialBlock.sort, cli.t1_ball_check

        def sort(block, centers):
            if not in_t1:
                rows.append(np.reshape(centers, (-1, measure.dim)).shape[0])
            return real_sort(block, centers)

        def t1_ball_check(*args, **kwargs):
            in_t1.append(True)
            try:
                return real_t1(*args, **kwargs)
            finally:
                in_t1.pop()

        monkeypatch.setattr(RadialBlock, "sort", sort)
        monkeypatch.setattr(cli, "t1_ball_check", t1_ball_check)
        samples = 16
        assert cli.main(["verify", "--input", str(tmp_path / "graph.csv"),
                         "--samples", str(samples),
                         "--out", str(tmp_path / "report.json")]) == 0
        assert sum(rows) == measure.size + 2 * samples


def graph_of_diameter(diameter):
    """lipschitz_graph(200, seed=6) dilated to the given diameter."""
    graph = lipschitz_graph(200, seed=6)
    return WeightedPointMeasure(graph.points * (diameter / graph.diameter),
                                graph.weights, 1)


SIGMA_INPUTS = {
    "segment": lambda: segment(100),
    "graph": lambda: lipschitz_graph(200, seed=6),
    "cantor": lambda: cantor4(4),
    "square": lambda: square_area(12),
    # just under 10, 0.3 and 40: the scale s sits below each diameter
    "widest": lambda: graph_of_diameter(10 * (1 - 1e-9)),
    "narrow": lambda: graph_of_diameter(0.3),
    "wide": lambda: graph_of_diameter(40.0),
    # the edge inputs: every atom twice, one atom, and a cloud in R^3
    "duplicated": lambda: WeightedPointMeasure(
        np.repeat(cantor4(2).points, 2, axis=0), np.full(32, 1 / 32), 1),
    "one-atom": lambda: WeightedPointMeasure([[0.25, 0.5]], [1.0], 1),
    "d3-cloud": lambda: WeightedPointMeasure(
        np.random.default_rng(0).uniform(size=(60, 3)), np.full(60, 1 / 60),
        2),
}


@pytest.mark.parametrize("a0", [4.0, lattice.DEFAULT_A0])
@pytest.mark.parametrize("name", sorted(SIGMA_INPUTS))
def test_the_root_trees_sigma_is_the_measure(name, a0):
    """The root tree's checks take sigma = chi_{B0(R)} mu to be the
    measure, and sample the root cell's atoms as the first atoms of the
    measure: B0(R) holds every atom and the root cell holds them in index
    order."""
    measure = SIGMA_INPUTS[name]()
    cor = build_corona(build_lattice(measure, a0=a0))
    sigma = measure.restrict_ball(TreeGeometry(cor, cor.root_id).b0)
    assert np.array_equal(sigma.points, measure.points)
    assert np.array_equal(sigma.weights, measure.weights)
    assert np.array_equal(cor.lattice.cells[cor.root_id].point_indices,
                          np.arange(measure.size))


class TestCapacity:
    def test_segment_half(self):
        rec = capacity_lower_bound([segment(1000)])
        assert rec["lhs"] == pytest.approx(0.5, abs=0.02)

    def test_scaling_invariance(self):
        m = segment(300)
        scaled = WeightedPointMeasure(m.points, 3.7 * m.weights,
                                      m.target_dim, r_min=m.r_min)
        a = capacity_lower_bound([m])["lhs"]
        b = capacity_lower_bound([scaled])["lhs"]
        assert b == pytest.approx(a, rel=1e-12)

    def test_monotone_in_added_points(self):
        # nested candidate families: adding a candidate cannot lower the sup
        small = [segment(200)]
        large = [segment(200), cantor4(3)]
        a = capacity_lower_bound(small)["lhs"]
        b = capacity_lower_bound(large)["lhs"]
        assert b >= a - 1e-15

    def test_entry_fields(self):
        rec = capacity_lower_bound([segment(100), cantor4(2)])
        entries = rec["params"]["candidates"]
        assert len(entries) == 2
        for e in entries:
            for key in ("bound", "t_star", "density_floor", "tail",
                        "worst_atom", "sub_resolution", "size"):
                assert key in e
        assert rec["lhs"] == pytest.approx(
            max(e["bound"] for e in entries))

    def test_degenerate_candidates(self):
        one = WeightedPointMeasure(np.zeros((1, 2)), np.ones(1), 1)
        two = WeightedPointMeasure(np.array([[0.0, 0.0], [0.5, 0.0]]),
                                   np.array([0.5, 0.5]), 1)
        rec = capacity_lower_bound([one, two])
        assert np.isfinite(rec["lhs"])

    def test_sub_resolution_entries_equal_the_former_branch(self):
        def former(idx, mu):
            # capacity_lower_bound's own pass for a diameter <= r_min
            floor = mu.r_min
            jones = np.zeros(mu.size)
            tail = 0.0
            dens = radial_pass(mu, mu.points,
                               lambda block: block.sup_density(floor))
            energy = jones + tail
            t_vals = 2.0 / (dens + np.sqrt(dens**2 + 4.0 * energy))
            worst = int(np.argmin(t_vals))
            return {"candidate": idx, "t_star": float(t_vals[worst]),
                    "bound": float(t_vals[worst]) * mu.total_mass,
                    "worst_atom": worst, "density_floor": floor,
                    "tail": tail, "sub_resolution": True, "size": mu.size}

        candidates = [
            WeightedPointMeasure([[0.25, 0.5]], [1.0], 1),
            WeightedPointMeasure(np.tile([[0.3, -0.7]], (4, 1)),
                                 np.full(4, 0.25), 1),
            WeightedPointMeasure([[0.0, 0.0], [0.5, 0.0]], [0.5, 0.5], 1,
                                 r_min=1.0),
        ]
        entries = capacity_lower_bound(candidates)["params"]["candidates"]
        for idx, (mu, entry) in enumerate(zip(candidates, entries)):
            # repr tells every bit of a float apart, the sign of 0.0 too
            assert repr(entry) == repr(former(idx, mu))


class TestReports:
    def test_schema_and_determinism(self, seg, kernel):
        checks = [main_lemma_check(seg, kernel)]
        desc = {"path": "seg.csv", "size": seg.size}
        config = {"kernel": "riesz"}
        a = make_report(desc, checks, config)
        b = make_report(desc, checks, config)
        assert a == b
        assert a["schema"] == REPORT_SCHEMA
        assert a["generated_at"] is None
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_stamp_opt_in(self, seg, kernel):
        checks = [main_lemma_check(seg, kernel)]
        rep = make_report({}, checks, {}, stamp="2026-08-21T00:00:00+00:00")
        assert rep["generated_at"] == "2026-08-21T00:00:00+00:00"

    def test_compare_baseline_pass_and_fail(self, seg, kernel):
        checks = [main_lemma_check(seg, kernel)]
        rep = make_report({}, checks, {})
        val = rep["checks"]["main_lemma"]["ratio"]
        ok = {"checks": {"main_lemma": {"value": val, "rel_tol": 0.01,
                                        "field": "ratio"}}}
        assert compare_baseline(rep, ok) == []
        bad = {"checks": {"main_lemma": {"value": val * 2.0, "rel_tol": 0.01,
                                         "field": "ratio"}}}
        failures = compare_baseline(rep, bad)
        assert len(failures) == 1
        assert "main_lemma" in failures[0]
        # a field the report holds but not as a number
        for field in ("params", "name"):
            pinned = {"checks": {"main_lemma": {"value": 1.0,
                                                "field": field}}}
            with pytest.raises(ValueError, match=f"^main_lemma.{field} is "
                               "not a number in the report$"):
                compare_baseline(rep, pinned)

    def test_compare_baseline_missing_check(self, seg, kernel):
        rep = make_report({}, [main_lemma_check(seg, kernel)], {})
        base = {"checks": {"nonexistent": {"value": 1.0, "rel_tol": 0.1,
                                           "field": "ratio"}}}
        failures = compare_baseline(rep, base)
        assert len(failures) == 1
