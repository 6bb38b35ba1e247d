"""Truncated vector-valued Hardy space and exact Toeplitz / Laurent action.

Vectors are polynomials h = sum_k a_k z^k with coefficients a_k in C^d; the
norm is the coefficient two-norm (Parseval), computed exactly and never by
quadrature.  Applying a trigonometric-polynomial symbol is an exact finite
convolution, so degree bookkeeping replaces truncation error: the result of
every operation carries all of its nonzero coefficients.

The adjoint Toeplitz operator is always realized through the adjoint symbol
(T_F^* = T_{F^*}), never as the transpose of a finite section; finite
sections appear only in ``truncate`` where the block-Toeplitz matrix itself is
the object of interest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_complex, spectral_norm
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

    @property
    def degree_bound(self) -> int:
        return self.coeffs.shape[0] - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    @staticmethod
    def constant(vec) -> "HardyVector":
        vec = as_complex(vec).reshape(1, -1)
        return HardyVector(vec.shape[1], vec)


@dataclass(frozen=True, eq=False)
class LaurentVector:
    """Two-sided coefficient vector: rows cover indices offset .. offset+n."""

    dim: int
    offset: int
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

    def coeff(self, k: int) -> np.ndarray:
        i = k - self.offset
        if 0 <= i < self.coeffs.shape[0]:
            return self.coeffs[i]
        return np.zeros(self.dim, dtype=complex)

    def negative_part_norm(self) -> float:
        """Two-norm of the coefficients at strictly negative indices."""
        upto = min(-self.offset, self.coeffs.shape[0])
        if upto <= 0:
            return 0.0
        return float(np.linalg.norm(self.coeffs[:upto]))

    def is_analytic(self, tol: float = 0.0) -> bool:
        return self.negative_part_norm() <= tol

    def analytic_part(self) -> HardyVector:
        """Coefficients at indices >= 0, as a Hardy vector."""
        start = max(0, -self.offset)
        tail = self.coeffs[start:]
        if self.offset > 0:
            pad = np.zeros((self.offset, self.dim), dtype=complex)
            tail = np.vstack([pad, tail])
        if tail.shape[0] == 0:
            tail = np.zeros((1, self.dim), dtype=complex)
        return HardyVector(self.dim, tail)

    @staticmethod
    def from_hardy(h: HardyVector) -> "LaurentVector":
        return LaurentVector(h.dim, 0, h.coeffs)


@dataclass(frozen=True, eq=False)
class ToeplitzTruncation:
    """Finite section of a block Toeplitz operator on degrees 0 .. window-1."""

    symbol: MatrixSymbol
    window: int
    matrix: np.ndarray


def laurent_apply_exact(sym: MatrixSymbol, v: LaurentVector | HardyVector) -> LaurentVector:
    """Exact two-sided convolution of a symbol with a coefficient vector."""
    if isinstance(v, HardyVector):
        v = LaurentVector.from_hardy(v)
    if sym.dim_in != v.dim:
        raise ValueError(f"symbol expects dimension {sym.dim_in}, vector has {v.dim}")
    band = sym.band
    n_in = v.coeffs.shape[0]
    out = np.zeros((n_in + 2 * band, sym.dim_out), dtype=complex)
    for k, mat in sym.coeffs.items():
        shift = k + band
        out[shift:shift + n_in] += v.coeffs @ mat.T
    return LaurentVector(sym.dim_out, v.offset - band, out)


def toeplitz_apply_exact(sym: MatrixSymbol, h: HardyVector) -> HardyVector:
    """Analytic projection of the symbol action: exact coefficients of P_+(F h)."""
    return laurent_apply_exact(sym, h).analytic_part()


def truncate(sym: MatrixSymbol, window: int) -> ToeplitzTruncation:
    """Finite section with block (j, k) equal to the Fourier coefficient at j - k."""
    if not sym.is_square:
        raise ValueError("finite sections are built for square symbols")
    if window < 1:
        raise ValueError("window must be positive")
    return ToeplitzTruncation(sym, window, _banded_block_matrix(sym, window, window, 0))


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


def brown_halmos_residual(matrix: np.ndarray, dim: int) -> float:
    """Deviation from the shift-compression identity on the interior block.

    For the truncated shift S, S* M S reproduces M shifted one block up-left;
    genuine finite sections of block Toeplitz operators satisfy the identity
    exactly on the leading (window-1) x (window-1) blocks.
    """
    matrix = as_complex(matrix)
    n = matrix.shape[0]
    if matrix.shape != (n, n) or n % dim != 0:
        raise ValueError("matrix must be square with size divisible by the block dim")
    window = n // dim
    if window < 2:
        return 0.0
    s = toeplitz_window_matrix(MatrixSymbol.shift(dim), window, window)
    diff = s.conj().T @ matrix @ s - matrix
    inner = (window - 1) * dim
    return spectral_norm(diff[:inner, :inner])


def brown_halmos_check(t: ToeplitzTruncation, tol: float = 1e-12) -> tuple[float, bool]:
    res = brown_halmos_residual(t.matrix, t.symbol.dim_out)
    return res, res <= tol

