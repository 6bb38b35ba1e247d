"""Matrix-valued symbols on the unit circle and analytic matrix polynomials.

A symbol is a matrix-valued trigonometric (Laurent) polynomial

    F(e^{it}) = sum_k  A_k e^{ikt},      A_k complex dim_out x dim_in,

stored sparsely by integer Fourier index.  Analytic matrix polynomials
(nonnegative indices only) get their own type since they are evaluated on the
closed disc, not just on the circle.  Circle measure statements are tested on
uniform grids with a declared tolerance, never claimed almost-everywhere;
identities between trigonometric polynomials are checked on their Fourier
coefficients, which decide them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# spectral_norm is unused here, but the benchmark tests check that the tracer
# wraps and restores this module's binding of it
from .linalg import DEFAULT_TOL, as_complex, spectral_norm, spectral_norms  # noqa: F401

DEFAULT_GRID_SIZE = 512
# most complex entries one row-stacked product of ``_coefficient_products``
# holds (256 KB): 2**16 raised the peak RSS of the scenario-sweep and
# decompose-small benchmarks by 0.8-1.4 MB, with no clear gain in speed
# (2-vCPU x86-64 host, one OpenBLAS thread)
COEFF_PRODUCT_MAX_ENTRIES = 2 ** 14


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class MatrixSymbol:
    """Sparse Fourier-coefficient representation of a matrix trig polynomial.

    Parameters
    ----------
    dim_out, dim_in : int
        Codomain and domain dimensions of each coefficient matrix.
    coeffs : dict[int, array]
        Map from Fourier index k to the dim_out x dim_in coefficient.
        Absent keys mean zero; exact-zero coefficients are dropped.  Keys
        must be integers (numpy integers included): a fraction or a boolean
        is an error, not a value to round.
    """

    dim_out: int
    dim_in: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dim_out < 1 or self.dim_in < 1:
            raise ValueError("matrix symbol dimensions must be positive")
        clean = {}
        for k, mat in self.coeffs.items():
            if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
                raise ValueError(f"Fourier index {k!r} is not an integer")
            mat = as_complex(mat)
            if mat.shape != (self.dim_out, self.dim_in):
                raise ValueError(
                    f"coefficient at k={k} has shape {mat.shape}, "
                    f"expected {(self.dim_out, self.dim_in)}"
                )
            if mat.any():
                clean[int(k)] = _freeze(mat)
        object.__setattr__(self, "coeffs", clean)

    @property
    def band(self) -> int:
        """Smallest m with all coefficients supported in [-m, m]."""
        if not self.coeffs:
            return 0
        return max(abs(k) for k in self.coeffs)

    @property
    def is_square(self) -> bool:
        return self.dim_out == self.dim_in

    @property
    def is_analytic(self) -> bool:
        return all(k >= 0 for k in self.coeffs)

    def coeff(self, k: int) -> np.ndarray:
        """Fourier coefficient at index k (zero matrix when absent)."""
        got = self.coeffs.get(int(k))
        if got is None:
            return np.zeros((self.dim_out, self.dim_in), dtype=complex)
        return got

    @staticmethod
    def constant(mat) -> "MatrixSymbol":
        mat = as_complex(mat)
        return MatrixSymbol(mat.shape[0], mat.shape[1], {0: mat})

    @staticmethod
    def shift(dim: int) -> "MatrixSymbol":
        """The symbol e^{it} I, whose Toeplitz operator is the block shift."""
        return MatrixSymbol(dim, dim, {1: np.eye(dim)})

    @staticmethod
    def zero(dim_out: int, dim_in: int) -> "MatrixSymbol":
        return MatrixSymbol(dim_out, dim_in, {})

    def scale(self, c: complex) -> "MatrixSymbol":
        return MatrixSymbol(
            self.dim_out, self.dim_in, {k: c * m for k, m in self.coeffs.items()}
        )

    def add(self, other: "MatrixSymbol") -> "MatrixSymbol":
        if (self.dim_out, self.dim_in) != (other.dim_out, other.dim_in):
            raise ValueError("symbol shapes do not match")
        keys = set(self.coeffs) | set(other.coeffs)
        return MatrixSymbol(
            self.dim_out, self.dim_in, {k: self.coeff(k) + other.coeff(k) for k in keys}
        )


@dataclass(frozen=True, eq=False)
class PolyMatrix:
    """Analytic matrix polynomial P(z) = sum_k C_k z^k, possibly rectangular.

    ``coeffs`` lists C_0 .. C_degree; the leading coefficient is nonzero
    unless the polynomial is constant.
    """

    dim_out: int
    dim_in: int
    coeffs: tuple = ()

    def __post_init__(self):
        mats = [as_complex(c) for c in self.coeffs]
        if not mats:
            mats = [np.zeros((self.dim_out, self.dim_in), dtype=complex)]
        for c in mats:
            if c.shape != (self.dim_out, self.dim_in):
                raise ValueError("inconsistent polynomial coefficient shapes")
        while len(mats) > 1 and not np.any(mats[-1] != 0):
            mats.pop()
        object.__setattr__(self, "coeffs", tuple(_freeze(c) for c in mats))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def eval_at(self, z: complex) -> np.ndarray:
        """Evaluate at a point of the closed disc (Horner)."""
        acc = np.zeros((self.dim_out, self.dim_in), dtype=complex)
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def as_symbol(self) -> MatrixSymbol:
        return MatrixSymbol(
            self.dim_out, self.dim_in, {k: c for k, c in enumerate(self.coeffs)}
        )

    @staticmethod
    def from_symbol(sym: MatrixSymbol) -> "PolyMatrix":
        if not sym.is_analytic:
            raise ValueError("symbol has negative Fourier coefficients")
        deg = max(sym.coeffs, default=0)
        return PolyMatrix(
            sym.dim_out, sym.dim_in, tuple(sym.coeff(k) for k in range(deg + 1))
        )

    @staticmethod
    def identity(dim: int) -> "PolyMatrix":
        return PolyMatrix(dim, dim, (np.eye(dim),))


@dataclass(frozen=True, eq=False)
class CircleGrid:
    """Uniform grid t_j = 2 pi j / size on [0, 2 pi), weight 1/size per point."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("grid size must be positive")

    @property
    def points(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.size) / self.size

    @property
    def weight(self) -> float:
        return 1.0 / self.size


@dataclass(frozen=True, eq=False)
class GridMask:
    """Boolean flags over a circle grid with the induced measure estimate."""

    grid: CircleGrid
    flags: np.ndarray

    def __post_init__(self):
        flags = np.asarray(self.flags, dtype=bool)
        if flags.shape != (self.grid.size,):
            raise ValueError("flag vector does not match grid size")
        object.__setattr__(self, "flags", flags)

    @property
    def measure(self) -> float:
        return float(self.flags.mean())


@dataclass(frozen=True)
class InnerReport:
    """Residual of the isometry identity P(e^{it})* P(e^{it}) = I.

    ``residual`` is ``coefficient_norm_sum`` of the trigonometric polynomial
    P*P - I: an upper bound on the sup norm of the pointwise defect, zero
    exactly when the identity holds on the whole circle.
    """

    residual: float
    tol: float

    @property
    def is_inner(self) -> bool:
        return self.residual <= self.tol


def eval_symbol(sym: MatrixSymbol, t: float) -> np.ndarray:
    """Evaluate the finite Fourier sum at angle ``t`` (radians)."""
    out = np.zeros((sym.dim_out, sym.dim_in), dtype=complex)
    for k, mat in sym.coeffs.items():
        out += mat * np.exp(1j * k * t)
    return out


def eval_on_grid(sym: MatrixSymbol, grid: CircleGrid) -> np.ndarray:
    """Values at every grid point, stacked as (grid.size, dim_out, dim_in).

    The same Fourier sum as ``eval_symbol``, term by term in the same order,
    so every slice equals the per-point value exactly.
    """
    t = grid.points
    out = np.zeros((grid.size, sym.dim_out, sym.dim_in), dtype=complex)
    for k, mat in sym.coeffs.items():
        out += mat * np.exp(1j * k * t)[:, None, None]
    return out


def adjoint_symbol(sym: MatrixSymbol) -> MatrixSymbol:
    """Pointwise adjoint: coefficient at k becomes the adjoint of the one at -k."""
    return MatrixSymbol(
        sym.dim_in, sym.dim_out, {-k: mat.conj().T for k, mat in sym.coeffs.items()}
    )


def _coefficient_products(mats: list, operands: list):
    """Yield ``tuple(np.matmul(m, x) for x in operands)`` for each m in ``mats``.

    ``mats`` share one shape; ``operands`` are matrices, or stacks of them
    along one leading axis, with a common column count.  The matrices are
    stacked along the rows, a chunk of at most COEFF_PRODUCT_MAX_ENTRIES
    product entries at a time, so each operand takes one matmul per chunk and
    every product is a row block (a view) of it.  The bits are those of the
    separate calls: zgemm gives each output entry the same inner-dimension
    sum whatever the row count.  Matrix-vector shapes go to zgemv instead,
    whose bits depend on the row count and the layout, so one-row matrices
    and one-column operands keep one call per matrix.
    """
    if not mats or not operands:
        return
    rows = mats[0].shape[0]
    chunk = 1
    if rows > 1 and operands[0].shape[-1] > 1:
        entries = rows * sum(x.size // x.shape[-2] for x in operands)
        chunk = max(1, COEFF_PRODUCT_MAX_ENTRIES // entries)
    for start in range(0, len(mats), chunk):
        part = mats[start:start + chunk]
        stacked = part[0] if len(part) == 1 else np.concatenate(part)
        blocks = []
        for x in operands:
            prod = np.matmul(stacked, x)
            # row block i of the product as view i along the leading axis
            prod = prod.reshape(prod.shape[:-2] + (len(part), rows, prod.shape[-1]))
            blocks.append(prod.swapaxes(0, -3))
        yield from zip(*blocks)


def multiply(a: MatrixSymbol, b: MatrixSymbol) -> MatrixSymbol:
    """Pointwise product of symbols by exact coefficient convolution.

    Terms are summed per output index in the order of a's coefficients, then
    b's, starting from the first product itself.
    """
    if a.dim_in != b.dim_out:
        raise ValueError(
            f"cannot multiply {a.dim_out}x{a.dim_in} by {b.dim_out}x{b.dim_in} symbols"
        )
    out: dict[int, np.ndarray] = {}
    prods = _coefficient_products(list(a.coeffs.values()), list(b.coeffs.values()))
    for j, row in zip(a.coeffs, prods):
        for k, prod in zip(b.coeffs, row):
            idx = j + k
            cur = out.get(idx)
            out[idx] = prod if cur is None else cur + prod
    return MatrixSymbol(a.dim_out, b.dim_in, out)


def compose_scalar_polynomial(sym: MatrixSymbol, poly_coeffs) -> MatrixSymbol:
    """Exact symbol of u(F) = sum_j c_j F^j for a scalar polynomial u."""
    coeffs = np.atleast_1d(as_complex(poly_coeffs).ravel())
    acc = MatrixSymbol.zero(sym.dim_out, sym.dim_out)
    power = MatrixSymbol.constant(np.eye(sym.dim_out))
    for j, c in enumerate(coeffs):
        if c != 0:
            acc = acc.add(power.scale(c))
        if j < len(coeffs) - 1:
            power = multiply(power, sym)
    return acc


def coefficient_norm_sum(sym: MatrixSymbol) -> float:
    """Sum over k of the spectral norms of the Fourier coefficients.

    By the triangle inequality an upper bound on the sup norm of the symbol
    on the circle; zero exactly when every coefficient is, that is when the
    symbol vanishes almost everywhere.
    """
    if not sym.coeffs:
        return 0.0
    return float(spectral_norms(np.stack(list(sym.coeffs.values()))).sum())


def is_inner(theta: PolyMatrix, tol: float = DEFAULT_TOL) -> InnerReport:
    """Check that an analytic matrix polynomial has isometric boundary values.

    The residual takes every Fourier coefficient of the trig polynomial
    theta* theta - I, not only the zeroth Gram sum: the other coefficients
    are what rule out non-inner polynomials with an accidentally isometric
    coefficient Gram.
    """
    if theta.dim_out < theta.dim_in:
        raise ValueError("inner polynomials need dim_out >= dim_in")
    sym = theta.as_symbol()
    defect = multiply(adjoint_symbol(sym), sym).add(
        MatrixSymbol.constant(-np.eye(theta.dim_in)))
    return InnerReport(coefficient_norm_sum(defect), tol)


def pointwise_unitarity_mask(sym: MatrixSymbol, grid: CircleGrid,
                             tol: float = DEFAULT_TOL) -> GridMask:
    """Flag the grid points where the symbol value is unitary within ``tol``."""
    if not sym.is_square:
        raise ValueError("unitarity mask needs a square symbol")
    eye = np.eye(sym.dim_out)
    v = eval_on_grid(sym, grid)
    vh = v.conj().transpose(0, 2, 1)
    flags = (spectral_norms(vh @ v - eye) <= tol) & (spectral_norms(v @ vh - eye) <= tol)
    return GridMask(grid, flags)


def sup_norm_estimate(sym: MatrixSymbol, grid: CircleGrid | None = None) -> float:
    """Grid maximum of the largest singular value.

    A lower bound on the true sup norm; exact up to grid resolution for the
    trigonometric polynomials in scope.  A grid of fewer than 2 band + 1
    points raises ``ValueError``: a nonzero symbol can vanish on all of it
    (z^3 - z^-3 on 3 or 6 points), so the maximum would say nothing.
    """
    if grid is None:
        grid = CircleGrid(max(DEFAULT_GRID_SIZE, 2 * sym.band + 1))
    if grid.size < 2 * sym.band + 1:
        raise ValueError(
            f"grid size {grid.size} below 2*band+1 = {2 * sym.band + 1}")
    return float(spectral_norms(eval_on_grid(sym, grid)).max())


def bcl_symbol(u, p) -> MatrixSymbol:
    """The model symbol U (e^{it} P + (I - P)) for a unitary U and projection P."""
    u = as_complex(u)
    p = as_complex(p)
    eye = np.eye(u.shape[0])
    return MatrixSymbol(u.shape[0], u.shape[0], {0: u @ (eye - p), 1: u @ p})


def block_diag_symbol(symbols: list[MatrixSymbol]) -> MatrixSymbol:
    """Direct sum of square symbols (block-diagonal coefficientwise)."""
    dims = [s.dim_out for s in symbols]
    for s in symbols:
        if not s.is_square:
            raise ValueError("direct sums take square symbols")
    total = sum(dims)
    keys = set()
    for s in symbols:
        keys |= set(s.coeffs)
    out = {}
    for k in keys:
        mat = np.zeros((total, total), dtype=complex)
        at = 0
        for s, d in zip(symbols, dims):
            mat[at:at + d, at:at + d] = s.coeff(k)
            at += d
        out[k] = mat
    return MatrixSymbol(total, total, out)
