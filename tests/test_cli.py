import hashlib
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from betascope import (WeightedPointMeasure, cantor4, cli, lipschitz_graph,
                       load_csv, save_csv, segment, square_area)


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
        # flatness; corona and verify: a ball's beta^2 theta overflows
        graph = lipschitz_graph(50)
        tiny, heavy = tmp_path / "tiny.csv", tmp_path / "heavy.csv"
        save_csv(WeightedPointMeasure(graph.points * 1e-150, graph.weights,
                                      1), tiny)
        save_csv(WeightedPointMeasure(graph.points,
                                      np.full(graph.size, 1e300), 1), heavy)
        for command, data in (("capacity", tiny), ("corona", heavy),
                              ("verify", heavy)):
            rep = tmp_path / f"{command}.json"
            r = run_cli(command, "--input", str(data), "--out", str(rep))
            assert r.returncode == 1, (command, r.stderr)
            last = r.stderr.splitlines()[-1]
            assert last.startswith("error:"), (command, r.stderr)
            assert str(data) in last and "float64 range" in last, last
            assert "Traceback" not in r.stderr, command
            # the first float error stops the command: no warning before
            assert "RuntimeWarning" not in r.stderr, (command, r.stderr)
            assert len(r.stderr.splitlines()) == 1, (command, r.stderr)
            assert not rep.exists(), command

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
    ])
    def test_bad_baseline_is_one(self, tmp_path, capsys, text, detail):
        """A baseline of the wrong shape, a value or rel_tol that is no
        finite number, or a negative rel_tol: exit 1, naming the file."""
        mfile = tmp_path / "m.csv"
        save_csv(segment(20), mfile)
        bfile = tmp_path / "base.json"
        bfile.write_text(text)
        code = cli.main(["verify", "--input", str(mfile), "--out",
                         str(tmp_path / "rep.json"), "--baseline", str(bfile)])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith(f"error: {bfile}: {detail}"), err

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
    graph = lipschitz_graph(100)
    return WeightedPointMeasure(scale * graph.points, graph.weights, 1)


EDGE_INPUTS = {
    "one_atom": lambda: WeightedPointMeasure([[0.25, 0.5]], [1.0], 1),
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


def test_graph_past_the_root_separation_asks_to_rescale(tmp_path, capsys):
    # diameter 16 reaches the level-0 net separation 10
    mfile = tmp_path / "m.csv"
    save_csv(_graph(16.0), mfile)
    for command in ("lattice", "corona", "verify"):
        report = tmp_path / f"{command}.json"
        assert cli.main([command, "--input", str(mfile), "--out",
                         str(report)]) == 1, command
        assert "rescale" in capsys.readouterr().err, command
        assert not report.exists(), command


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
