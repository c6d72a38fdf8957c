"""No command needs scipy or numpy.ma.

``analyze`` and ``capacity`` read r_min, the diameter and radial passes,
and ``lattice`` (with or without ``--boundary-audit``), ``corona`` and
``verify`` answer their ball and nearest-atom queries from a sorted numpy
sweep, so all of them run on numpy alone; scipy is a test dependency
only.  numpy.ma is imported by np.unique and np.isin, which no command
calls (``_util.unique`` stands in), so no command pays for its import.
Each case runs in a fresh interpreter with scipy and numpy.ma blocked, so
every import of either that its commands make raises and fails the case.

Besides ``cantor4(3)`` (``m``) the cases read its atoms duplicated
(``dup``), which leaves no cell with one atom, so every cell takes the
general path of the lattice net and the corona's ball statistics, and a
cloud in d = 8 (``d8``), which runs the paths where numpy sums 8 or more
squares pairwise.
"""

import json
import subprocess
import sys

import pytest

SCRIPT = """
import json, sys
sys.modules["scipy"] = None    # every scipy import now raises ImportError
sys.modules["numpy.ma"] = None    # and so does every numpy.ma import
import numpy as np
from betascope import WeightedPointMeasure, cantor4, cli, save_csv

folder, commands = sys.argv[1], json.loads(sys.argv[2])
m = cantor4(3)
save_csv(m, folder + "/m.csv")
save_csv(WeightedPointMeasure(np.repeat(m.points, 2, axis=0),
                              np.repeat(m.weights, 2), 1), folder + "/dup.csv")
cloud = np.random.default_rng(0).uniform(size=(64, 8))
save_csv(WeightedPointMeasure(cloud, np.full(64, 1 / 64), 1),
         folder + "/d8.csv")
for argv in commands:
    assert cli.main([a.replace("DIR", folder) for a in argv]) == 0, argv
"""


def command(name, data, *flags):
    return [name, "--input", f"DIR/{data}.csv", "--out",
            f"DIR/{data}-{name}.json", *flags]


def runs(data):
    """Every command on one input, with the flags that change its path."""
    return [command("analyze", data, "--profile-csv", f"DIR/{data}-p.csv"),
            command("capacity", data),
            command("lattice", data, "--boundary-audit", "--dump",
                    f"DIR/{data}-cells.json"),
            command("corona", data, "--dump", f"DIR/{data}-corona.json"),
            command("verify", data),
            command("verify", data, "--kernel", "cauchy")]


CASES = {
    "import": [],
    "analyze-capacity": [command("analyze", "m", "--profile-csv",
                                 "DIR/p.csv"),
                         command("capacity", "m")],
    "lattice-corona-verify": [command("lattice", "m"), command("corona", "m"),
                              command("verify", "m")],
    "lattice-boundary-audit": [command("lattice", "m", "--boundary-audit")],
    "dumps-cauchy": runs("m")[2:],
    "duplicated-atoms": runs("dup"),
    # every run but the Cauchy kernel's, which needs a planar measure
    "d8-cloud": runs("d8")[:5],
    # capacity's path for more than one candidate
    "two-candidates": [["capacity", "--input", "DIR/m.csv", "DIR/dup.csv",
                        "--out", "DIR/c.json"]],
}


@pytest.mark.parametrize("case", list(CASES))
def test_start_up_loads_no_scipy(tmp_path, case):
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path),
         json.dumps(CASES[case])],
        capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
