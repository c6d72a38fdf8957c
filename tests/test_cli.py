import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from betascope import (cantor4, cli, lipschitz_graph, load_csv, save_csv,
                       segment, square_area)


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "betascope.cli", *args],
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
        ]
        for name, text in cases:
            bad = tmp_path / name
            bad.write_text(text)
            r = run_cli("analyze", "--input", str(bad),
                        "--out", str(tmp_path / "rep.json"))
            assert r.returncode == 1, name
            # an uncaught exception also exits 1, with a traceback
            assert r.stderr.startswith("error:"), (name, r.stderr)
            assert "Traceback" not in r.stderr, name

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

    def test_strict_lattice_rejected_at_defaults(self, tmp_path):
        mfile = tmp_path / "m.csv"
        run_cli("generate", "segment", "--count", "20", "--out", str(mfile))
        r = run_cli("lattice", "--input", str(mfile), "--strict",
                    "--out", str(tmp_path / "rep.json"))
        assert r.returncode == 1
        assert "5000" in r.stderr


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
