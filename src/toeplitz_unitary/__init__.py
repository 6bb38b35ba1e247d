"""Unitary parts of contractive block Toeplitz operators, computed exactly on
truncated vector-valued Hardy spaces, with transfer-function realizations and
an executable theorem-scenario harness."""

from .symbols import (
    CircleGrid,
    InnerReport,
    MatrixSymbol,
    adjoint_symbol,
    bcl_symbol,
    block_diag_symbol,
    compose_scalar_polynomial,
    eval_disc,
    eval_symbol,
    is_inner,
    multiply,
    pointwise_unitarity_mask,
    sup_norm_estimate,
)
from .colligation import (
    Colligation,
    TransferReport,
    bcl_colligation,
    defect_identities,
    disc_grid,
    polynomial_from_colligation,
    tau_eval,
    validate,
)
from .decomposition import (
    ExtractionResult,
    Subspace,
    UnitaryPartReport,
    beurling_extract,
    cdot0_test,
    extract_constant_unitary,
    poly_calculus,
    reducing_check,
    toeplitz_unitary_part,
    toeplitz_unitary_part_brute,
    unitary_part_brute,
    unitary_part_matrix,
    unitary_parts,
    verify_maincondn,
    window_span,
)
from .scenarios import SCENARIOS, ScenarioResult, run_all, run_scenario

__version__ = "0.1.0"

__all__ = [
    "CircleGrid", "InnerReport", "MatrixSymbol",
    "adjoint_symbol", "bcl_symbol", "block_diag_symbol",
    "compose_scalar_polynomial", "eval_disc", "eval_symbol",
    "is_inner", "multiply", "pointwise_unitarity_mask", "sup_norm_estimate",
    "Colligation", "TransferReport", "bcl_colligation", "defect_identities",
    "disc_grid", "polynomial_from_colligation", "tau_eval", "validate",
    "ExtractionResult", "Subspace", "UnitaryPartReport", "beurling_extract",
    "cdot0_test", "extract_constant_unitary", "poly_calculus",
    "reducing_check", "toeplitz_unitary_part",
    "toeplitz_unitary_part_brute", "unitary_part_brute", "unitary_part_matrix",
    "unitary_parts", "verify_maincondn", "window_span",
    "SCENARIOS", "ScenarioResult", "run_all", "run_scenario",
]
