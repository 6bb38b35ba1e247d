"""Exact Toeplitz / Laurent action on polynomials h = sum_k a_k z^k, a_k in C^d.

Applying a trigonometric-polynomial symbol to the coefficient blocks is an
exact finite convolution, so degree bookkeeping replaces truncation error:
the result carries all of its nonzero coefficients.

The adjoint Toeplitz operator is always realized through the adjoint symbol
(T_F^* = T_{F^*}), never as the transpose of a finite section; finite
sections appear only as ``toeplitz_window_matrix``, where the block-Toeplitz
matrix itself is the object of interest.

``convolve_block_columns`` takes one matmul per coefficient and sums them in
coefficient order; the rank decisions downstream depend on those bits.
"""

from __future__ import annotations

import numpy as np

from .symbols import MatrixSymbol


def toeplitz_window_matrix(sym: MatrixSymbol, n_in: int, n_out: int) -> np.ndarray:
    """Matrix of the exact Toeplitz action from degrees < n_in into degrees < n_out.

    Block (j, k) is the coefficient at j - k; filled one diagonal per
    coefficient.
    """
    d_out, d_in = sym.dim_out, sym.dim_in
    blocks = np.zeros((n_out, n_in, d_out, d_in), dtype=complex)
    cols = np.arange(n_in)
    for diff, mat in sym.coeffs.items():
        rows = cols + diff
        keep = (rows >= 0) & (rows < n_out)
        blocks[rows[keep], cols[keep]] = mat
    return blocks.transpose(0, 2, 1, 3).reshape(n_out * d_out, n_in * d_in)


def convolve_block_columns(sym: MatrixSymbol, blocks: np.ndarray) -> np.ndarray:
    """Symbol convolution applied to a batch of coefficient columns.

    ``blocks`` has shape (n_in, dim_in, r): r vectors given by their n_in
    coefficient blocks.  Returns shape (n_in + 2 band, dim_out, r) covering
    output degrees shifted down by the band, one fused update per coefficient
    in the order of the symbol's coefficients.
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

