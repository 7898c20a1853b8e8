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
    LinearForm,
    ModeMixError,
    TableRow,
    c1sq_lower_bound,
    c2_lower_check,
    chern_numbers,
    classify,
    default_discriminants,
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
    make_field,
    split_prime,
)
from .forms import h_bound, h_definite, h_narrow_indefinite
from .trees import CenterResult, TreeGraph, tree_center
from .zeta import CuspCycle, cusp_resolution, local_chern_divisor_sum, zeta_minus_one

__version__ = "0.1.0"

__all__ = [
    "ALFixedPoints", "CenterResult", "ChernError", "ChernReport",
    "ConfigError", "CuspCycle", "EllipticCounts", "EllipticError",
    "FieldContext", "FieldElement", "LinearForm", "ModeMixError",
    "PrimeIdealData", "RunConfig", "TableRow", "TreeGraph",
    "atkin_lehner_refine", "bounds_gamma0", "c1sq_lower_bound",
    "c2_lower_check", "chern_numbers", "classify", "counts_full_group",
    "counts_gamma0", "cusp_resolution", "default_discriminants",
    "h_bound", "h_definite", "h_narrow_indefinite",
    "involution_action", "load_config", "local_chern_divisor_sum",
    "make_field", "root_count", "split_prime", "table_diff", "theorem_table",
    "tree_center", "zeta_minus_one",
]
