"""Exact invariants of quotient surfaces over real quadratic fields.

Layers, bottom up: integer utilities (ntheory), quadratic-form class numbers
(forms), exact field arithmetic and prime splitting (field), zeta values and
cusp resolutions (zeta), elliptic fixed-point machinery (elliptic), Chern
number assembly and the general-type sweep (chern), the tree-centre formalism
(trees), and a deterministic CLI (cli).
"""

from .chern import (
    ChernError,
    ChernReport,
    HypothesisError,
    LinearForm,
    ModeMixError,
    TableRow,
    UniquenessError,
    adjunction_self_intersection,
    c1sq_lower_bound,
    c2_lower_check,
    chern_numbers,
    classify,
    curve_chern_integrality,
    default_discriminants,
    genus_gamma0_rational,
    table_diff,
    theorem_table,
)
from .config import ConfigError, RunConfig, load_config
from .elliptic import (
    ALFixedPoints,
    EllipticCounts,
    EllipticError,
    atkin_lehner_refine,
    bounds_gamma0,
    counts_full_group,
    counts_gamma0,
    involution_action,
    root_count,
)
from .field import (
    FieldContext,
    FieldElement,
    PrimeIdealData,
    fundamental_unit,
    make_field,
    split_prime,
)
from .forms import h_bound, h_definite, h_narrow_indefinite
from .trees import (
    CenterResult,
    GroupAction,
    TreeGraph,
    sigma_primes,
    tree_center,
    verify_center_invariance,
    verify_equidistance,
)
from .zeta import CuspCycle, cusp_resolution, local_chern_divisor_sum, zeta_minus_one

__version__ = "0.1.0"

__all__ = [
    "ALFixedPoints", "CenterResult", "ChernError", "ChernReport",
    "ConfigError", "CuspCycle", "EllipticCounts", "EllipticError",
    "FieldContext", "FieldElement", "GroupAction", "HypothesisError",
    "LinearForm", "ModeMixError", "PrimeIdealData", "RunConfig", "TableRow",
    "TreeGraph", "UniquenessError", "adjunction_self_intersection",
    "atkin_lehner_refine", "bounds_gamma0", "c1sq_lower_bound",
    "c2_lower_check", "chern_numbers", "classify", "counts_full_group",
    "counts_gamma0", "curve_chern_integrality", "cusp_resolution",
    "default_discriminants", "fundamental_unit", "genus_gamma0_rational",
    "h_bound", "h_definite", "h_narrow_indefinite", "involution_action",
    "load_config", "local_chern_divisor_sum", "make_field", "root_count",
    "sigma_primes", "split_prime", "table_diff", "theorem_table",
    "tree_center", "verify_center_invariance", "verify_equidistance",
    "zeta_minus_one",
]
