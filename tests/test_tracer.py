"""The benchmark tracer still finds every attribute it patches.

``perfbench/tracer.py`` wraps library functions at the module attributes
their callers resolve; renaming or removing one of them breaks the traced
benchmark.  This runs its install and uninstall in-process.
"""

import importlib.util
from pathlib import Path

from betascope import verify

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
