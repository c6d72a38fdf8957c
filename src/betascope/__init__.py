"""Multiscale flatness analysis of weighted point measures.

Building blocks: discrete measures with exact ball queries (``measure``),
least-squares flatness coefficients and their multiscale integrals
(``beta``), a nested hierarchy of cells (``lattice``), a stopping-time
decomposition of that hierarchy into trees (``corona``), truncated and
suppressed convolution operators (``operators``), and the inequality
checks plus report plumbing that tie them together (``verify``).
"""

from ._util import dump_json, geometric_grid, parallel_map
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
    boundary_layer_mass,
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
)

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "BetaProfile",
    "BetaResult",
    "BumpFamily",
    "CZKernel",
    "Cell",
    "CoronaTree",
    "KernelValidationError",
    "Lattice",
    "REPORT_SCHEMA",
    "TreeGeometry",
    "WeightedPointMeasure",
    "beta2",
    "beta_profile_rows",
    "boundary_audit",
    "boundary_layer_mass",
    "build_corona",
    "build_lattice",
    "cantor4",
    "capacity_lower_bound",
    "cauchy_kernel",
    "check_lattice",
    "compare_baseline",
    "condition_check",
    "corona_to_json",
    "cotlar_check",
    "cover_by_doubling",
    "dump_json",
    "geometric_grid",
    "jones_field",
    "jones_integral",
    "k_r_chain",
    "k_r_telescoped",
    "lattice_to_json",
    "lipschitz_graph",
    "load_csv",
    "load_json",
    "m_tilde",
    "main_lemma_check",
    "make_kernel",
    "make_report",
    "packing_audit",
    "parallel_map",
    "pointwise_domination_check",
    "riesz_kernel",
    "save_csv",
    "save_json",
    "segment",
    "square_area",
    "suppressed_kernel",
    "t1_ball_check",
    "t_phi_eps",
    "t_phi_star",
    "tree_density_audit",
    "truncated_field",
    "validate_kernel",
]
