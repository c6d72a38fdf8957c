"""No command loads scipy.

``analyze`` and ``capacity`` read r_min, the diameter and radial passes,
and ``lattice`` (with or without ``--boundary-audit``), ``corona`` and
``verify`` answer their ball and nearest-atom queries from a sorted numpy
sweep, so all of them run on numpy alone; scipy is a test dependency
only.  Each case runs in a fresh interpreter, so the modules it lists are
the ones its commands loaded.
"""

import json
import subprocess
import sys

import pytest

SCRIPT = """
import json, sys
from betascope import cantor4, cli, save_csv

folder, commands = sys.argv[1], json.loads(sys.argv[2])
save_csv(cantor4(3), folder + "/m.csv")
for argv in commands:
    assert cli.main([a.replace("DIR", folder) for a in argv]) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

ANALYZE = ["analyze", "--input", "DIR/m.csv", "--out", "DIR/a.json",
           "--profile-csv", "DIR/p.csv"]
CAPACITY = ["capacity", "--input", "DIR/m.csv", "--out", "DIR/c.json"]
LATTICE = ["lattice", "--input", "DIR/m.csv", "--out", "DIR/l.json"]
CORONA = ["corona", "--input", "DIR/m.csv", "--out", "DIR/k.json"]
VERIFY = ["verify", "--input", "DIR/m.csv", "--out", "DIR/v.json"]


def scipy_modules(tmp_path, commands) -> list:
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path), json.dumps(commands)],
        capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("commands", [[], [ANALYZE, CAPACITY],
                                      [LATTICE, CORONA, VERIFY],
                                      [LATTICE + ["--boundary-audit"]]],
                         ids=["import", "analyze-capacity",
                              "lattice-corona-verify",
                              "lattice-boundary-audit"])
def test_start_up_loads_no_scipy(tmp_path, commands):
    assert scipy_modules(tmp_path, commands) == []
