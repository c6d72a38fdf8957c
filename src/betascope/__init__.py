"""Multiscale flatness analysis of weighted point measures.

Building blocks: discrete measures with exact ball queries (``measure``),
least-squares flatness coefficients and their multiscale integrals
(``beta``), a nested hierarchy of cells (``lattice``), a stopping-time
decomposition of that hierarchy into trees (``corona``), truncated and
suppressed convolution operators (``operators``), and the inequality
checks plus report plumbing that tie them together (``verify``).
"""

from types import ModuleType as _Module

from ._util import dump_json, geometric_grid
from .beta import (
    BetaProfile,
    BetaResult,
    beta2,
    beta_profile_rows,
    condition_check,
    jones_integral,
)
from .corona import (
    CoronaTree,
    TreeGeometry,
    build_corona,
    corona_to_json,
    packing_audit,
    tree_density_audit,
)
from .generators import cantor4, lipschitz_graph, segment, square_area
from .lattice import (
    Cell,
    Lattice,
    boundary_audit,
    build_lattice,
    check_lattice,
    cover_by_doubling,
    lattice_to_json,
)
from .measure import (
    Ball,
    WeightedPointMeasure,
    load_csv,
    load_json,
    save_csv,
    save_json,
)
from .operators import (
    BumpFamily,
    CZKernel,
    KernelValidationError,
    cauchy_kernel,
    k_r_chain,
    k_r_telescoped,
    m_tilde,
    make_kernel,
    riesz_kernel,
    suppressed_kernel,
    t_phi_eps,
    t_phi_star,
    truncated_field,
    validate_kernel,
)
from .verify import (
    REPORT_SCHEMA,
    capacity_lower_bound,
    compare_baseline,
    cotlar_check,
    jones_field,
    main_lemma_check,
    make_report,
    pointwise_domination_check,
    t1_ball_check,
    verify_checks,
)

__version__ = "0.1.0"

# the names imported above, listed once
__all__ = sorted(name for name, value in globals().items()
                 if not (name.startswith("_") or isinstance(value, _Module)))
