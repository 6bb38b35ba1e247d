"""Unitary parts of contractive block Toeplitz operators, computed exactly on
truncated vector-valued Hardy spaces, with transfer-function realizations and
an executable theorem-scenario harness."""

from .symbols import (
    CircleGrid,
    GridMask,
    InnerReport,
    MatrixSymbol,
    PolyMatrix,
    adjoint_symbol,
    bcl_symbol,
    block_diag_symbol,
    compose_scalar_polynomial,
    eval_on_grid,
    eval_symbol,
    is_inner,
    multiply,
    pointwise_unitarity_mask,
    sup_norm_estimate,
)
from .hardy import HardyVector, toeplitz_apply_exact
from .colligation import (
    Colligation,
    TransferReport,
    bcl_colligation,
    defect_identities,
    disc_grid,
    polynomial_from_colligation,
    random_colligation,
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
    isometric_part_matrix,
    poly_calculus,
    reducing_check,
    toeplitz_unitary_part,
    toeplitz_unitary_part_brute,
    unitary_part_brute,
    unitary_part_matrix,
    verify_maincondn,
)
from .scenarios import SCENARIOS, ScenarioResult, run_all, run_scenario

__version__ = "0.1.0"

__all__ = [
    "CircleGrid", "GridMask", "InnerReport", "MatrixSymbol", "PolyMatrix",
    "adjoint_symbol", "bcl_symbol", "block_diag_symbol",
    "compose_scalar_polynomial", "eval_on_grid", "eval_symbol", "is_inner",
    "multiply", "pointwise_unitarity_mask", "sup_norm_estimate",
    "HardyVector", "toeplitz_apply_exact",
    "Colligation", "TransferReport", "bcl_colligation", "defect_identities",
    "disc_grid", "polynomial_from_colligation", "random_colligation",
    "tau_eval", "validate",
    "ExtractionResult", "Subspace", "UnitaryPartReport", "beurling_extract",
    "cdot0_test", "extract_constant_unitary", "isometric_part_matrix",
    "poly_calculus", "reducing_check", "toeplitz_unitary_part",
    "toeplitz_unitary_part_brute", "unitary_part_brute", "unitary_part_matrix",
    "verify_maincondn",
    "SCENARIOS", "ScenarioResult", "run_all", "run_scenario",
]
