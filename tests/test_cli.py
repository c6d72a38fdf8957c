import hashlib
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from betascope import (WeightedPointMeasure, cantor4, cli, lipschitz_graph,
                       load_csv, save_csv, save_json, segment, square_area)


def run_cli(*args, cwd=None):
    # the child fails on a runtime warning, as pyproject's filterwarnings
    # makes the in-process tests do
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           "-m", "betascope.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


class TestGenerators:
    def test_cantor4_first_generation(self):
        m = cantor4(1)
        got = sorted(map(tuple, m.points.tolist()))
        assert got == [(0.0, 0.0), (0.0, 0.75), (0.75, 0.0), (0.75, 0.75)]
        assert np.allclose(m.weights, 0.25)
        assert m.target_dim == 1

    def test_cantor4_counts_and_mass(self):
        for g in (1, 2, 3):
            m = cantor4(g)
            assert m.size == 4 ** g
            assert m.total_mass == pytest.approx(1.0)
            assert np.allclose(m.weights, 4.0 ** -g)

    def test_cantor4_self_similar(self):
        # generation g+1 contains a copy of generation g scaled by 1/4
        a = cantor4(2)
        b = cantor4(3)
        small = {tuple(np.round(p / 4.0, 12)) for p in a.points}
        big = {tuple(np.round(p, 12)) for p in b.points}
        assert small <= big

    def test_segment_two_points(self):
        m = segment(2)
        assert sorted(m.points[:, 0].tolist()) == [0.0, 1.0]
        assert np.allclose(m.points[:, 1], 0.0)
        assert np.allclose(m.weights, 0.5)

    def test_segment_uniform(self):
        m = segment(11)
        assert m.size == 11
        assert np.allclose(np.diff(np.sort(m.points[:, 0])), 0.1)
        assert m.total_mass == pytest.approx(1.0)

    def test_square_area_grid(self):
        m = square_area(2)
        assert m.size == 4
        assert np.allclose(m.weights, 0.25)
        assert m.target_dim == 1       # deliberately non-flat normalization

    def test_lipschitz_graph_is_lipschitz(self):
        m = lipschitz_graph(200, slope_amp=0.8, seed=11)
        pts = m.points[np.argsort(m.points[:, 0])]
        dx = np.diff(pts[:, 0])
        dy = np.diff(pts[:, 1])
        assert (np.abs(dy) <= np.abs(dx) * (1.0 + 1e-9)).all()

    def test_lipschitz_graph_seeded(self):
        a = lipschitz_graph(50, seed=3)
        b = lipschitz_graph(50, seed=3)
        c = lipschitz_graph(50, seed=4)
        assert np.array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            segment(1)
        with pytest.raises(ValueError):
            cantor4(0)
        with pytest.raises(ValueError):
            square_area(1)
        with pytest.raises(ValueError):
            lipschitz_graph(1)


class TestCliRoundTrip:
    def test_generate_then_load(self, tmp_path):
        out = tmp_path / "c2.csv"
        r = run_cli("generate", "cantor4", "--generation", "2",
                    "--out", str(out))
        assert r.returncode == 0, r.stderr
        m = load_csv(out)
        assert m.size == 16

    def test_generate_json_by_extension(self, tmp_path):
        out = tmp_path / "seg.json"
        r = run_cli("generate", "segment", "--count", "10",
                    "--out", str(out))
        assert r.returncode == 0, r.stderr
        data = json.loads(out.read_text())
        assert len(data["points"]) == 10

    def test_verify_pipeline(self, tmp_path):
        mfile = tmp_path / "m.csv"
        rep = tmp_path / "rep.json"
        assert run_cli("generate", "segment", "--count", "40",
                       "--out", str(mfile)).returncode == 0
        r = run_cli("verify", "--input", str(mfile), "--kernel", "riesz",
                    "--out", str(rep))
        assert r.returncode == 0, r.stderr
        report = json.loads(rep.read_text())
        assert report["schema"].startswith("betascope-report/")
        assert "main_lemma" in report["checks"]
        assert report["generated_at"] is None

    def test_verify_takes_the_bump_family_from_the_lattice(self, tmp_path):
        """At A0 = 4 the pointwise check's bump family is the lattice's."""
        mfile = tmp_path / "m.csv"
        rep = tmp_path / "rep.json"
        save_csv(lipschitz_graph(100), mfile)
        assert cli.main(["verify", "--input", str(mfile), "--a0", "4",
                         "--c0", "400", "--tau", "0.005",
                         "--out", str(rep)]) == 0
        record = json.loads(rep.read_text())["checks"]["pointwise_domination"]
        assert record["params"]["bump_a0"] == 4.0

    def test_analyze_profile_csv(self, tmp_path):
        mfile = tmp_path / "m.csv"
        rep = tmp_path / "rep.json"
        prof = tmp_path / "prof.csv"
        run_cli("generate", "segment", "--count", "30", "--out", str(mfile))
        r = run_cli("analyze", "--input", str(mfile), "--centers", "4",
                    "--out", str(rep), "--profile-csv", str(prof))
        assert r.returncode == 0, r.stderr
        lines = prof.read_text().splitlines()
        assert lines[0] == "center_index,r,beta,theta,integrand"
        assert len(lines) > 4

    def test_capacity_multiple_inputs(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        rep = tmp_path / "cap.json"
        run_cli("generate", "segment", "--count", "50", "--out", str(a))
        run_cli("generate", "cantor4", "--generation", "2", "--out", str(b))
        r = run_cli("capacity", "--input", str(a), str(b),
                    "--out", str(rep))
        assert r.returncode == 0, r.stderr
        data = json.loads(rep.read_text())
        assert len(data["checks"]["capacity"]["params"]["candidates"]) == 2

    def test_lattice_boundary_audit(self, tmp_path):
        mfile = tmp_path / "m.csv"
        rep = tmp_path / "rep.json"
        run_cli("generate", "segment", "--count", "60", "--out", str(mfile))
        r = run_cli("lattice", "--input", str(mfile), "--boundary-audit",
                    "--out", str(rep))
        assert r.returncode == 0, r.stderr
        record = json.loads(rep.read_text())["checks"]["boundary_layers"]
        assert set(record["params"]) == {"0.2", "0.1", "0.05", "0.02"}
        assert record["ratio"] == max(record["params"].values())

    def test_config_records_the_flags_that_change_a_result(self, tmp_path):
        """Each report's config holds the command and the flags that change
        its result, and the flags that name files or only change how a run
        is carried out leave it as it is."""
        mfile, other = tmp_path / "m.csv", tmp_path / "copy.csv"
        save_csv(segment(20), mfile)
        save_csv(segment(20), other)
        bfile = tmp_path / "base.json"
        bfile.write_text('{"checks": {}}')
        cases = {
            "analyze": (
                ["--centers", "5", "--scales-per-octave", "3"],
                {"command": "analyze", "scales_per_octave": 3, "centers": 5},
                ["--threads", "2", "--profile-csv", str(tmp_path / "p.csv")]),
            "lattice": (
                ["--strict", "--a0", "6000", "--c0", "1.1",
                 "--max-depth", "3"],
                {"command": "lattice", "a0": 6000.0, "c0": 1.1,
                 "max_depth": 3, "strict": True},
                ["--boundary-audit", "--dump", str(tmp_path / "d.json")]),
            "corona": (
                ["--a0", "4", "--c0", "400", "--tau", "0.005",
                 "--a-stop", "50", "--scales-per-octave", "2"],
                {"command": "corona", "a0": 4.0, "c0": 400.0,
                 "a_stop": 50.0, "tau": 0.005, "max_depth": None,
                 "scales_per_octave": 2},
                ["--dump", str(tmp_path / "d.json")]),
            "verify": (
                ["--kernel", "cauchy", "--seed", "7", "--samples", "5"],
                {"command": "verify", "kernel": "cauchy", "a0": 20.0,
                 "c0": 4.0, "a_stop": 30.0, "tau": 0.12, "max_depth": None,
                 "scales_per_octave": 4, "seed": 7, "samples": 5},
                ["--threads", "2", "--baseline", str(bfile)]),
            "capacity": (
                ["--scales-per-octave", "6"],
                {"command": "capacity", "scales_per_octave": 6},
                ["--threads", "2"]),
        }
        for command, (flags, config, unrecorded) in cases.items():
            rep, rep2 = tmp_path / "rep.json", tmp_path / "rep2.json"
            assert cli.main([command, "--input", str(mfile), "--out",
                             str(rep), *flags]) == 0, command
            assert json.loads(rep.read_text())["config"] == config, command
            assert cli.main([command, "--input", str(other), "--out",
                             str(rep2), "--r-min", "0.01", "--stamp",
                             *flags, *unrecorded]) == 0, command
            assert json.loads(rep2.read_text())["config"] == config, command


@pytest.mark.parametrize("measure, flags", [
    (segment(30), ["--r-min", "1e300"]),
    (WeightedPointMeasure([[0.25, 0.5]], [1.0], 1), []),
], ids=["r_min_above_diameter", "one_atom"])
def test_empty_profile_span_writes_only_the_header(tmp_path, measure, flags):
    """The profile rows take jones_integrals' grid, so an empty span writes
    no row and the export leaves the report as it is."""
    mfile, prof = tmp_path / "m.csv", tmp_path / "prof.csv"
    save_csv(measure, mfile)
    reports = []
    for extra in ([], ["--profile-csv", str(prof)]):
        rep = tmp_path / f"rep{len(extra)}.json"
        assert cli.main(["analyze", "--input", str(mfile), "--out", str(rep),
                         *flags, *extra]) == 0, extra
        reports.append(rep.read_bytes())
    assert prof.read_text() == "center_index,r,beta,theta,integrand\n"
    assert reports[0] == reports[1]


@pytest.mark.parametrize("suffix", ["csv", "json"])
def test_r_min_flag_builds_one_measure(tmp_path, monkeypatch, suffix):
    """Under --r-min the loader builds the one measure with it, so the
    default r_min is never computed."""
    mfile = tmp_path / f"m.{suffix}"
    (save_csv if suffix == "csv" else save_json)(lipschitz_graph(40), mfile)

    def refuse(self):
        raise AssertionError("default r_min computed under --r-min")

    monkeypatch.setattr(WeightedPointMeasure, "_default_r_min", refuse)
    for command in ("analyze", "verify"):
        rep = tmp_path / f"{command}.json"
        assert cli.main([command, "--input", str(mfile), "--out", str(rep),
                         "--r-min", "0.01"]) == 0, command
        assert json.loads(rep.read_text())["input"]["r_min"] == 0.01


def test_bad_r_min_is_one_error_naming_the_input(tmp_path, capsys):
    mfile = tmp_path / "m.csv"
    save_csv(segment(10), mfile)
    for value in ("0", "-1", "inf", "nan"):
        assert cli.main(["analyze", "--input", str(mfile), "--out",
                         str(tmp_path / "rep.json"), "--r-min", value]) == 1
        assert capsys.readouterr().err == (
            f"error: {mfile}: r_min must be finite and positive, "
            f"got {float(value)}\n")


class TestCliExitCodes:
    def test_missing_input_is_one(self, tmp_path):
        r = run_cli("verify", "--input", str(tmp_path / "nope.csv"),
                    "--out", str(tmp_path / "rep.json"))
        assert r.returncode == 1
        assert "error" in r.stderr.lower()

    def test_corrupt_input_is_one(self, tmp_path):
        atom = '"points": [[0.0, 0.0]], "weights": [1.0]'
        cases = [
            ("bad.csv", "dim=2,n=1\n0.0,oops,1.0\n"),
            ("scalar.json", "5"),
            ("null_dim.json", '{"dim": null, "n": 1, %s}' % atom),
            ("null_n.json", '{"dim": 2, "n": null, %s}' % atom),
            ("real_dim.json", '{"dim": 2.5, "n": 1, %s}' % atom),
            ("bool_n.json", '{"dim": 2, "n": true, %s}' % atom),
            ("dict_weights.json",
             '{"dim": 2, "n": 1, "points": [[0.0, 0.0]], "weights": {}}'),
            ("row_weights.json", '{"dim": 2, "n": 1, "points": '
             '[[0.0, 0.0], [1.0, 0.0]], "weights": [[1, 2]]}'),
            ("column_weights.json", '{"dim": 2, "n": 1, "points": '
             '[[0.0, 0.0], [1.0, 0.0]], "weights": [[1], [2]]}'),
            ("scalar_weights.json",
             '{"dim": 2, "n": 1, "points": [[0.0, 0.0]], "weights": 5}'),
            ("no_atoms.json",
             '{"dim": 2, "n": 1, "points": [], "weights": []}'),
            ("syntax.json", '{"dim": 2, "n": 1,'),
            ("missing.csv", None),
        ]
        for name, text in cases:
            bad = tmp_path / name
            if text is not None:
                bad.write_text(text)
            r = run_cli("analyze", "--input", str(bad),
                        "--out", str(tmp_path / "rep.json"))
            assert r.returncode == 1, name
            # an uncaught exception also exits 1, with a traceback
            assert r.stderr.startswith("error:"), (name, r.stderr)
            assert "Traceback" not in r.stderr, name
            assert r.stderr.count(str(bad)) == 1, (name, r.stderr)

    def test_float_range_errors_are_one(self, tmp_path):
        # capacity: r ** (n + 2) underflows to a zero divisor of the
        # flatness; corona and verify: a ball's beta^2 theta overflows;
        # verify at --r-min 1e300: the Python float r ** (n + 2) overflows
        graph = lipschitz_graph(50)
        tiny, heavy = tmp_path / "tiny.csv", tmp_path / "heavy.csv"
        plain = tmp_path / "graph.csv"
        save_csv(WeightedPointMeasure(graph.points * 1e-150, graph.weights,
                                      1), tiny)
        save_csv(WeightedPointMeasure(graph.points,
                                      np.full(graph.size, 1e300), 1), heavy)
        save_csv(graph, plain)
        for command, data, *extra in (("capacity", tiny), ("corona", heavy),
                                      ("verify", heavy),
                                      ("verify", plain, "--r-min", "1e300")):
            rep = tmp_path / f"{command}.json"
            r = run_cli(command, "--input", str(data), "--out", str(rep),
                        *extra)
            assert r.returncode == 1, (command, r.stderr)
            last = r.stderr.splitlines()[-1]
            assert last.startswith("error:"), (command, r.stderr)
            assert str(data) in last and "float64 range" in last, last
            # the reason alone, not an errno tuple
            assert "((" not in last, last
            assert "Traceback" not in r.stderr, command
            # the first float error stops the command: no warning before
            assert "RuntimeWarning" not in r.stderr, (command, r.stderr)
            assert len(r.stderr.splitlines()) == 1, (command, r.stderr)
            assert not rep.exists(), command

    @pytest.mark.parametrize("atom, fault", [
        ([float("inf"), 0.0, 1.0], "coordinates must be finite"),
        ([1.0, 0.0, 0.0], "weight must be finite and > 0, got 0.0"),
        ([1.0, 0.0, -2.0], "weight must be finite and > 0, got -2.0"),
        ([1.0, 0.0, float("nan")], "weight must be finite and > 0, got nan"),
    ], ids=["coordinate", "zero", "negative", "nan"])
    def test_bad_atom_is_named_alike_in_both_formats(self, tmp_path, capsys,
                                                     atom, fault):
        """The measure checks the atoms, so a CSV and a JSON file with the
        same bad atom give one line that differs only in the path."""
        (tmp_path / "b.csv").write_text(
            "dim=2,n=1\n0.0,0.0,1.0\n\n" + ",".join(map(repr, atom)) + "\n")
        (tmp_path / "b.json").write_text(json.dumps(
            {"dim": 2, "n": 1, "points": [[0.0, 0.0], atom[:2]],
             "weights": [1.0, atom[2]]}))
        lines = {}
        for name in ("b.csv", "b.json"):
            assert cli.main(["analyze", "--input", str(tmp_path / name),
                             "--out", str(tmp_path / "rep.json")]) == 1
            lines[name] = capsys.readouterr().err
        csv_path = tmp_path / "b.csv"
        assert lines["b.csv"] == f"error: {csv_path}: atom 1: {fault}\n"
        assert lines["b.json"] == lines["b.csv"].replace("b.csv", "b.json")

    def test_cauchy_kernel_off_the_plane_is_one(self, tmp_path, capsys):
        mfile = tmp_path / "m.csv"
        save_csv(EDGE_INPUTS["cloud_3d"](), mfile)
        assert cli.main(["verify", "--input", str(mfile), "--kernel",
                         "cauchy", "--out", str(tmp_path / "rep.json")]) == 1
        assert capsys.readouterr().err == (
            "error: cauchy kernel needs a planar measure with target "
            "dimension 1\n")

    def test_non_finite_constant_is_one(self, tmp_path):
        mfile = tmp_path / "m.csv"
        run_cli("generate", "segment", "--count", "20", "--out", str(mfile))
        cases = [
            ("corona", "--a0", "inf", "A0"),
            ("corona", "--a0", "nan", "A0"),
            ("lattice", "--a0", "inf", "A0", "--strict"),
            ("corona", "--c0", "nan", "C0"),
            ("lattice", "--c0", "inf", "C0"),
            ("corona", "--a-stop", "nan", "a_stop"),
            ("verify", "--a-stop", "inf", "a_stop"),
            ("corona", "--tau", "nan", "tau"),
            ("verify", "--tau", "inf", "tau"),
        ]
        for command, flag, value, name, *extra in cases:
            case = (command, flag, value)
            rep = tmp_path / "rep.json"
            r = run_cli(command, "--input", str(mfile), "--out", str(rep),
                        flag, value, *extra)
            assert r.returncode == 1, (case, r.stderr)
            # an uncaught exception also exits 1, with a traceback
            assert r.stderr.startswith(f"error: {name} must be finite"), \
                (case, r.stderr)
            assert "Traceback" not in r.stderr, case
            assert not rep.exists(), case

    @pytest.mark.parametrize("command", ["lattice", "corona"])
    def test_too_deep_max_depth_is_one(self, tmp_path, command):
        # (10 * 20^-126)^2 underflows to 0: no net site closes its own atom
        mfile = tmp_path / "m.csv"
        run_cli("generate", "segment", "--count", "20", "--out", str(mfile))
        rep = tmp_path / "rep.json"
        r = run_cli(command, "--input", str(mfile), "--max-depth", "126",
                    "--out", str(rep))
        assert r.returncode == 1, r.stderr
        assert r.stderr.startswith("error: max_depth 126"), r.stderr
        assert "Traceback" not in r.stderr
        assert not rep.exists()

    def test_empty_file_is_one(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        r = run_cli("analyze", "--input", str(empty),
                    "--out", str(tmp_path / "rep.json"))
        assert r.returncode == 1

    def test_usage_error_is_two(self):
        assert run_cli("frobnicate").returncode == 2

    @pytest.mark.parametrize("command,flag", [
        ("analyze", "--centers"),
        ("verify", "--samples"),
        ("analyze", "--scales-per-octave"),
        ("corona", "--scales-per-octave"),
        ("verify", "--scales-per-octave"),
        ("capacity", "--scales-per-octave"),
        ("analyze", "--threads"),
        ("verify", "--threads"),
        ("capacity", "--threads"),
    ])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_count_is_two(self, tmp_path, command, flag, value):
        mfile = tmp_path / "m.csv"
        run_cli("generate", "segment", "--count", "20", "--out", str(mfile))
        rep = tmp_path / "rep.json"
        extra = []
        if command == "analyze":
            # the per-centre profile export is what divides by the count
            extra = ["--profile-csv", str(tmp_path / "p.csv")]
        r = run_cli(command, "--input", str(mfile), "--out", str(rep),
                    flag, value, *extra)
        assert r.returncode == 2
        assert f"argument {flag}: must be >= 1" in r.stderr
        assert not rep.exists()

    @pytest.mark.parametrize("command,flag,value", [
        ("lattice", "--threads", "2"),
        ("lattice", "--scales-per-octave", "4"),
        ("corona", "--threads", "2"),
    ])
    def test_unread_flag_is_two(self, tmp_path, command, flag, value):
        # lattice reads neither flag and corona reads no thread count
        mfile = tmp_path / "m.csv"
        run_cli("generate", "segment", "--count", "20", "--out", str(mfile))
        rep = tmp_path / "rep.json"
        r = run_cli(command, "--input", str(mfile), "--out", str(rep),
                    flag, value)
        assert r.returncode == 2
        assert f"unrecognized arguments: {flag}" in r.stderr
        assert not rep.exists()

    def test_baseline_mismatch_is_two(self, tmp_path):
        mfile = tmp_path / "m.csv"
        rep = tmp_path / "rep.json"
        run_cli("generate", "segment", "--count", "30", "--out", str(mfile))
        run_cli("verify", "--input", str(mfile), "--out", str(rep))
        report = json.loads(rep.read_text())
        base = {"checks": {"main_lemma": {
            "value": report["checks"]["main_lemma"]["ratio"] * 5.0,
            "rel_tol": 0.01, "field": "ratio"}}}
        bfile = tmp_path / "base.json"
        bfile.write_text(json.dumps(base))
        r = run_cli("verify", "--input", str(mfile), "--out",
                    str(tmp_path / "rep2.json"), "--baseline", str(bfile))
        assert r.returncode == 2
        assert "mismatch" in r.stderr

    def test_baseline_match_is_zero(self, tmp_path):
        mfile = tmp_path / "m.csv"
        rep = tmp_path / "rep.json"
        run_cli("generate", "segment", "--count", "30", "--out", str(mfile))
        run_cli("verify", "--input", str(mfile), "--out", str(rep))
        report = json.loads(rep.read_text())
        base = {"checks": {"main_lemma": {
            "value": report["checks"]["main_lemma"]["ratio"],
            "rel_tol": 0.01, "field": "ratio"}}}
        bfile = tmp_path / "base.json"
        bfile.write_text(json.dumps(base))
        r = run_cli("verify", "--input", str(mfile), "--out",
                    str(tmp_path / "rep2.json"), "--baseline", str(bfile))
        assert r.returncode == 0, r.stderr

    def test_malformed_baseline_is_one(self, tmp_path):
        mfile = tmp_path / "m.csv"
        run_cli("generate", "segment", "--count", "20", "--out", str(mfile))
        bfile = tmp_path / "base.json"
        bfile.write_text('{"not": "a baseline"}')
        r = run_cli("verify", "--input", str(mfile), "--out",
                    str(tmp_path / "rep.json"), "--baseline", str(bfile))
        assert r.returncode == 1

    @pytest.mark.parametrize("text,detail", [
        ('{"checks": {"main_lemma": {"value": 1e400}}}', "main_lemma.value"),
        ('{"checks": {"main_lemma": {"value": -1e400, "rel_tol": 0.5}}}',
         "main_lemma.value"),
        ('{"checks": {"main_lemma": {"value": NaN}}}', "main_lemma.value"),
        ('{"checks": {"main_lemma": {"value": "abc"}}}', "main_lemma.value"),
        ('{"checks": {"main_lemma": {"value": true}}}', "main_lemma.value"),
        ('{"checks": {"main_lemma": {"value": 0.5, "rel_tol": "x"}}}',
         "main_lemma.rel_tol"),
        ('{"checks": {"main_lemma": {"value": 0.5, "rel_tol": Infinity}}}',
         "main_lemma.rel_tol"),
        ('{"checks": {"main_lemma": {"value": 0.5, "rel_tol": -0.1}}}',
         "main_lemma.rel_tol"),
        ("[]", "not a baseline file"),
        ('{"checks": []}', "not a baseline file"),
        ('{"checks": {"main_lemma": 1}}', "not a baseline file"),
        ('{"checks": {"main_lemma": {"rel_tol": 0.1}}}',
         "not a baseline file"),
        ('{"checks": {"main_lemma": {"value": 1.0, "field": "params"}}}',
         "main_lemma.params is not a number in the report\n"),
        ('{"checks": {"main_lemma": {"value": 1.0, "field": "name"}}}',
         "main_lemma.name is not a number in the report\n"),
    ])
    def test_bad_baseline_is_one(self, tmp_path, capsys, text, detail):
        """A baseline of the wrong shape, a value or rel_tol that is no
        finite number, a negative rel_tol, or a field the report holds
        but not as a number: exit 1, naming the file."""
        mfile = tmp_path / "m.csv"
        save_csv(segment(20), mfile)
        bfile = tmp_path / "base.json"
        bfile.write_text(text)
        code = cli.main(["verify", "--input", str(mfile), "--out",
                         str(tmp_path / "rep.json"), "--baseline", str(bfile)])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith(f"error: {bfile}: {detail}"), err

    @pytest.mark.parametrize("text", [None, "not json"])
    def test_unreadable_baseline_stops_before_the_lattice(
            self, tmp_path, capsys, monkeypatch, text):
        """A missing or non-JSON baseline exits 1 before any check runs."""
        mfile = tmp_path / "m.csv"
        save_csv(segment(20), mfile)
        bfile = tmp_path / "base.json"
        if text is not None:
            bfile.write_text(text)

        def build_lattice(*args, **kwargs):
            raise AssertionError("the lattice was built before the baseline "
                                 "was read")

        monkeypatch.setattr(cli, "build_lattice", build_lattice)
        code = cli.main(["verify", "--input", str(mfile), "--out",
                         str(tmp_path / "rep.json"), "--baseline", str(bfile)])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith(f"error: {bfile}: "), err
        assert err.count("\n") == 1, err

    def test_unwritable_output_is_one(self, tmp_path):
        """An output path in a missing directory: one error line naming
        it, exit 1, no traceback."""
        mfile = tmp_path / "m.csv"
        save_csv(segment(20), mfile)
        report, gone = str(tmp_path / "rep.json"), tmp_path / "gone"
        cases = [
            ("lattice", "--input", str(mfile), "--out", f"{gone}/r.json"),
            ("lattice", "--input", str(mfile), "--out", report,
             "--dump", f"{gone}/d.json"),
            ("analyze", "--input", str(mfile), "--out", report,
             "--profile-csv", f"{gone}/p.csv"),
            ("generate", "segment", "--count", "5", "--out", f"{gone}/s.csv"),
        ]
        for args in cases:
            r = run_cli(*args)
            assert r.returncode == 1, (args, r.stderr)
            assert r.stderr == (f"error: {args[-1]}: No such file or "
                                "directory\n"), (args, r.stderr)

    def test_defaults_are_the_library_constants(self):
        from betascope import corona, lattice
        parser = cli.build_parser()
        for command in ("lattice", "corona", "verify"):
            args = parser.parse_args([command, "--input", "m", "--out", "r"])
            assert (args.a0, args.c0) == (lattice.DEFAULT_A0,
                                          lattice.DEFAULT_C0)
            if command != "lattice":
                assert (args.a_stop, args.tau) == (corona.DEFAULT_A_STOP,
                                                   corona.DEFAULT_TAU)

    def test_strict_lattice_rejected_at_defaults(self, tmp_path):
        mfile = tmp_path / "m.csv"
        run_cli("generate", "segment", "--count", "20", "--out", str(mfile))
        r = run_cli("lattice", "--input", str(mfile), "--strict",
                    "--out", str(tmp_path / "rep.json"))
        assert r.returncode == 1
        assert "5000" in r.stderr


# SHA-256 of the --dump files at the default parameters; any change to a
# cell, a flag, a tree or the JSON layout shows here
DUMP_DIGESTS = {
    ("segment", "lattice"):
        "cc5edb5ad721e260fee5ac5cf8ad24c319d2e0167fb668e86c52e9ad1aee3993",
    ("segment", "corona"):
        "20aa2942085a1b85e91ebf2f47a9dc304c3c1cfe2d3c3e85aa717669d4ce42c6",
    ("cantor4", "lattice"):
        "b274962bbeac132186cdd4087ff0b37142f4b5cbcc541d1080308e9b3a4a16d5",
    ("cantor4", "corona"):
        "212a673cdca885e7210cefcd846138164378d8d0dfb5f7c5ebc9c4bf88406fed",
    ("lipschitz_graph", "lattice"):
        "e3b02830251d4b0c3d9bc6c3ab50fc3ac0dc5b932aeb10a0645d5764fd3e5937",
    ("lipschitz_graph", "corona"):
        "088bf4b2e2fc272d505a0d72e23ef86a48caa6c669bd2765f7f0b2e1b010c439",
    ("square_area", "lattice"):
        "4f374ccb2bf7c5734a32bb4d7815e68fb7c2bebefe0893f9ecdfd1a6b61583a5",
    ("square_area", "corona"):
        "89e9e6197f97c2c0be330178ce57cc75b2ab4fc08876917274b35a9e7aa819ee",
}
DUMP_INPUTS = {
    "segment": lambda: segment(200),
    "cantor4": lambda: cantor4(4),
    "lipschitz_graph": lambda: lipschitz_graph(600),
    "square_area": lambda: square_area(20),
}


@pytest.mark.parametrize("family", sorted(DUMP_INPUTS))
def test_dump_files_keep_their_digests(tmp_path, family):
    mfile = tmp_path / "m.csv"
    save_csv(DUMP_INPUTS[family](), mfile)
    for command in ("lattice", "corona"):
        dump = tmp_path / f"{command}.json"
        assert cli.main([command, "--input", str(mfile), "--out",
                         str(tmp_path / "report.json"),
                         "--dump", str(dump)]) == 0
        digest = hashlib.sha256(dump.read_bytes()).hexdigest()
        assert digest == DUMP_DIGESTS[family, command], command


def _graph(scale):
    """lipschitz_graph(100) dilated by ``scale``: points times scale, and
    weights times scale^n with n = 1."""
    graph = lipschitz_graph(100)
    return WeightedPointMeasure(scale * graph.points, scale * graph.weights,
                                1)


EDGE_INPUTS = {
    "one_atom": lambda: WeightedPointMeasure([[0.25, 0.5]], [1.0], 1),
    # r_min = 1/2, and the centroid ball's radius is exactly r_min
    "two_equal": lambda: WeightedPointMeasure([[0.0, 0.0], [1.0, 0.0]],
                                              [1.0, 1.0], 1),
    "duplicated": lambda: WeightedPointMeasure(
        np.repeat(cantor4(2).points, 2, axis=0), np.full(32, 1 / 32), 1),
    "cloud_3d": lambda: WeightedPointMeasure(
        np.random.default_rng(0).uniform(size=(60, 3)), np.full(60, 1 / 60),
        2),
    "graph_x8": lambda: _graph(8.0),
}


@pytest.mark.parametrize("name", sorted(EDGE_INPUTS))
def test_edge_inputs_run_every_command_twice_alike(tmp_path, name):
    mfile = tmp_path / "m.csv"
    save_csv(EDGE_INPUTS[name](), mfile)
    for command in ("analyze", "capacity", "lattice", "corona", "verify"):
        runs = []
        for run in (1, 2):
            out = tmp_path / f"{command}{run}"
            out.mkdir()
            dump = (["--dump", str(out / "dump.json")]
                    if command in ("lattice", "corona") else [])
            assert cli.main([command, "--input", str(mfile), "--out",
                             str(out / "report.json"), *dump]) == 0, command
            runs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert runs[0] == runs[1], command


@pytest.mark.parametrize("name", sorted(DUMP_INPUTS) + sorted(EDGE_INPUTS))
def test_every_check_takes_its_ratio_from_its_sides(tmp_path, name):
    """Every report entry holds the six fields, and its ratio is lhs / rhs,
    or 0.0 when rhs is not positive."""
    measure = {**DUMP_INPUTS, **EDGE_INPUTS}[name]()
    mfile = tmp_path / "m.csv"
    save_csv(measure, mfile)
    runs = [["analyze", "--profile-csv", str(tmp_path / "profile.csv")],
            ["lattice", "--boundary-audit"], ["corona"], ["verify"],
            ["capacity"]]
    if measure.dim == 2 and measure.target_dim == 1:
        runs.append(["verify", "--kernel", "cauchy"])
    report = tmp_path / "report.json"
    for run in runs:
        assert cli.main([*run, "--input", str(mfile),
                         "--out", str(report)]) == 0, run
        for key, record in json.loads(report.read_text())["checks"].items():
            assert sorted(record) == ["lhs", "name", "params", "ratio",
                                      "rhs", "samples"], (run, key)
            assert record["name"] == key
            lhs, rhs = record["lhs"], record["rhs"]
            assert record["ratio"] == (lhs / rhs if rhs > 0 else 0.0), \
                (run, key)


def _ratios(tmp_path, scale):
    """Per command, every check's ratio on the graph dilated by scale."""
    mfile = tmp_path / f"m{scale!r}.csv"
    save_csv(_graph(scale), mfile)
    ratios = {}
    for command in ("lattice", "corona", "verify"):
        report = tmp_path / f"{command}{scale!r}.json"
        assert cli.main([command, "--input", str(mfile), "--out",
                         str(report)]) == 0, (command, scale)
        checks = json.loads(report.read_text())["checks"]
        ratios[command] = {name: rec["ratio"] for name, rec in checks.items()}
    return ratios


def test_power_of_two_dilations_keep_every_ratio(tmp_path):
    """The lattice takes its unit from the input, so a dilation by 2^40 or
    2^-40 leaves every check's ratio as it is, bit for bit."""
    unit = _ratios(tmp_path, 1.0)
    for scale in (2.0 ** 40, 2.0 ** -40):
        assert _ratios(tmp_path, scale) == unit, scale


@pytest.mark.parametrize("exponent", [500, -500])
def test_extreme_dilations_run_or_exit_one(tmp_path, exponent):
    """At 2^500 or 2^-500 a float may leave range: then the command exits
    1 with one error line and no traceback."""
    mfile = tmp_path / "m.csv"
    save_csv(_graph(2.0 ** exponent), mfile)
    for command in ("lattice", "corona", "verify", "analyze", "capacity"):
        r = run_cli(command, "--input", str(mfile), "--out",
                    str(tmp_path / f"{command}.json"))
        assert r.returncode in (0, 1), (command, r.stderr)
        if r.returncode == 1:
            assert r.stderr.startswith("error:"), (command, r.stderr)
            assert r.stderr.count("\n") == 1, (command, r.stderr)
        else:
            assert r.stderr == "", (command, r.stderr)


class TestCliDeterminism:
    def test_same_config_twice_byte_identical(self, tmp_path):
        mfile = tmp_path / "m.csv"
        run_cli("generate", "cantor4", "--generation", "3",
                "--out", str(mfile))
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        for out in (r1, r2):
            r = run_cli("verify", "--input", str(mfile), "--out", str(out))
            assert r.returncode == 0, r.stderr
        assert r1.read_bytes() == r2.read_bytes()

    def test_threads_flag_starts_no_thread(self, tmp_path, monkeypatch):
        """--threads is accepted and changes nothing: with CPUs to spare,
        --threads 8 starts no thread and writes the --threads 1 bytes."""
        mfile = tmp_path / "c3.csv"
        save_csv(cantor4(3), mfile)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        started = []
        start = threading.Thread.start

        def counting(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting)

        def outputs(threads):
            out = tmp_path / f"threads{threads}"
            out.mkdir()
            for command, extra in (
                    ("analyze", ["--profile-csv", str(out / "profile.csv")]),
                    ("verify", []), ("capacity", [])):
                assert cli.main([command, "--input", str(mfile),
                                 "--threads", str(threads),
                                 "--out", str(out / f"{command}.json"),
                                 *extra]) == 0
            return {p.name: p.read_bytes() for p in out.iterdir()}

        one = outputs(1)
        assert len(one) == 4
        assert outputs(8) == one
        assert started == []

    def test_stamp_opt_in(self, tmp_path):
        mfile = tmp_path / "m.csv"
        run_cli("generate", "segment", "--count", "20", "--out", str(mfile))
        rep = tmp_path / "rep.json"
        run_cli("analyze", "--input", str(mfile), "--out", str(rep),
                "--stamp")
        assert json.loads(rep.read_text())["generated_at"] is not None
