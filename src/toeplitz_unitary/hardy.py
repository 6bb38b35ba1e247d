"""Truncated vector-valued Hardy space and exact Toeplitz / Laurent action.

Vectors are polynomials h = sum_k a_k z^k with coefficients a_k in C^d; the
norm is the coefficient two-norm (Parseval), computed exactly and never by
quadrature.  Applying a trigonometric-polynomial symbol is an exact finite
convolution, so degree bookkeeping replaces truncation error: the result of
every operation carries all of its nonzero coefficients.

The adjoint Toeplitz operator is always realized through the adjoint symbol
(T_F^* = T_{F^*}), never as the transpose of a finite section; finite
sections appear only as the window matrices below, where the block-Toeplitz
matrix itself is the object of interest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_complex
from .symbols import MatrixSymbol


@dataclass(frozen=True, eq=False)
class HardyVector:
    """Polynomial vector with coefficients rows a_0 .. a_n in C^dim."""

    dim: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = as_complex(self.coeffs)
        if c.ndim != 2 or c.shape[1] != self.dim or c.shape[0] < 1:
            raise ValueError("coefficients must be a nonempty (n+1, dim) array")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    @staticmethod
    def constant(vec) -> "HardyVector":
        vec = as_complex(vec).reshape(1, -1)
        return HardyVector(vec.shape[1], vec)


def _banded_block_matrix(sym: MatrixSymbol, n_in: int, n_rows: int,
                         row_offset: int) -> np.ndarray:
    """Block matrix with block (j, k) = coefficient at j - k, j starting at
    row_offset.  Filled one diagonal per coefficient."""
    d_out, d_in = sym.dim_out, sym.dim_in
    blocks = np.zeros((n_rows, n_in, d_out, d_in), dtype=complex)
    cols = np.arange(n_in)
    for diff, mat in sym.coeffs.items():
        rows = cols + diff - row_offset
        keep = (rows >= 0) & (rows < n_rows)
        blocks[rows[keep], cols[keep]] = mat
    return blocks.transpose(0, 2, 1, 3).reshape(n_rows * d_out, n_in * d_in)


def toeplitz_window_matrix(sym: MatrixSymbol, n_in: int, n_out: int) -> np.ndarray:
    """Matrix of the exact Toeplitz action from degrees < n_in into degrees < n_out."""
    return _banded_block_matrix(sym, n_in, n_out, 0)


def convolve_block_columns(sym: MatrixSymbol, blocks: np.ndarray) -> np.ndarray:
    """Symbol convolution applied to a batch of coefficient columns.

    ``blocks`` has shape (n_in, dim_in, r): r vectors given by their n_in
    coefficient blocks.  Returns shape (n_in + 2 band, dim_out, r) covering
    output degrees shifted down by the band, one fused update per coefficient.
    """
    n_in, d_in, _ = blocks.shape
    if d_in != sym.dim_in:
        raise ValueError("coefficient blocks do not match the symbol dimension")
    band = sym.band
    out = np.zeros((n_in + 2 * band, sym.dim_out, blocks.shape[2]), dtype=complex)
    for diff, mat in sym.coeffs.items():
        at = diff + band
        out[at:at + n_in] += np.matmul(mat, blocks)
    return out


def toeplitz_apply_exact(sym: MatrixSymbol, h: HardyVector) -> HardyVector:
    """Analytic projection of the symbol action: exact coefficients of P_+(F h)."""
    if sym.dim_in != h.dim:
        raise ValueError(f"symbol expects dimension {sym.dim_in}, vector has {h.dim}")
    return HardyVector(sym.dim_out,
                       convolve_block_columns(sym, h.coeffs[:, :, None])[sym.band:, :, 0])


def laurent_window_matrix(sym: MatrixSymbol, n_in: int) -> tuple[np.ndarray, int]:
    """Matrix of the full symbol action on degrees < n_in, with its row offset.

    Rows cover output indices offset .. offset + rows/d_out - 1, where
    offset = -band; no coefficient of the product is dropped.  The banded
    structure only depends on relative degrees, so the same matrix applies to
    any translated input window (with a translated output offset).
    """
    band = sym.band
    offset = -band
    return _banded_block_matrix(sym, n_in, n_in + 2 * band, offset), offset

