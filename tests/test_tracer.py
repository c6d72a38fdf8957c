"""The benchmark tracer still finds every attribute it patches.

``perfbench/tracer.py`` wraps library functions at the module attributes
their callers resolve; renaming or removing one of them breaks the traced
benchmark.  This runs its install and uninstall in-process.
"""

import importlib.util
from pathlib import Path

from betascope import cantor4, cli, lipschitz_graph, save_csv, verify

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_attribute():
    tracer = load_tracer().Tracer()
    patched = tracer.install()
    try:
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original, attr
        names = {attr for owner, attr, _ in patched if owner is verify}
        assert {"truncated_field", "t_phi_eps", "t_phi_star", "m_tilde",
                "k_r_chain"} <= names
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, attr


def test_traced_reports_equal_untraced(tmp_path, monkeypatch):
    """Tracing adds spans and counts, never a report byte.  Both runs read
    the same relative input paths, which the reports record."""
    monkeypatch.chdir(tmp_path)
    save_csv(lipschitz_graph(60, seed=1), "graph.csv")
    save_csv(cantor4(3), "cantor.csv")
    commands = {
        "verify": ["verify", "--input", "graph.csv"],
        "corona": ["corona", "--input", "graph.csv", "--dump", "{}-dump"],
        "lattice": ["lattice", "--input", "graph.csv", "--dump", "{}-dump"],
        "analyze": ["analyze", "--input", "cantor.csv"],
        "capacity": ["capacity", "--input", "cantor.csv"],
    }

    def run_all(tag):
        for name, argv in commands.items():
            argv = [arg.format(f"{tag}-{name}") for arg in argv]
            assert cli.main([*argv, "--out", f"{tag}-{name}"]) == 0, name

    run_all("plain")
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        run_all("traced")
    finally:
        tracer.uninstall()
    assert tracer.counts["operators.t_phi_star_calls"] > 0
    plain = sorted(tmp_path.glob("plain-*"))
    # five reports and two dumps
    assert len(plain) == 7
    for path in plain:
        traced = path.with_name(path.name.replace("plain", "traced", 1))
        assert traced.read_bytes() == path.read_bytes(), path.name
