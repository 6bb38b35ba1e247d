"""Matrix-valued symbols on the unit circle.

A symbol is a matrix-valued trigonometric (Laurent) polynomial

    F(e^{it}) = sum_k  A_k e^{ikt},      A_k complex dim_out x dim_in,

stored sparsely by integer Fourier index.  An analytic matrix polynomial, such
as an inner polynomial theta or the transfer polynomial of a colligation, is a
symbol with no negative index (``is_analytic``): its degree is ``band``, and
``eval_disc`` evaluates it on the closed disc.  Circle measure statements are
tested on uniform grids with a declared tolerance, never claimed
almost-everywhere; identities between trigonometric polynomials are checked on
their Fourier coefficients, which decide them exactly.  ``eval_symbol``, the
one circle evaluator, takes an angle or an array of them (a grid's points).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# spectral_norm is unused here, but the benchmark tests check that the tracer
# wraps and restores this module's binding of it
from .linalg import DEFAULT_TOL, as_complex, block_diag, spectral_norm, spectral_norms  # noqa: F401

DEFAULT_GRID_SIZE = 512


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
        """Smallest m with all coefficients supported in [-m, m]; the degree
        of an analytic symbol."""
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
class CircleGrid:
    """Uniform grid t_j = 2 pi j / size on [0, 2 pi)."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("grid size must be positive")

    @property
    def points(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.size) / self.size


def default_grid(sym: MatrixSymbol) -> CircleGrid:
    """DEFAULT_GRID_SIZE points, or the 2 band + 1 that ``sup_norm_estimate``
    needs when that is more."""
    return CircleGrid(max(DEFAULT_GRID_SIZE, 2 * sym.band + 1))


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


def eval_symbol(sym: MatrixSymbol, t) -> np.ndarray:
    """Evaluate the finite Fourier sum at angle ``t`` (radians), or at an
    array of angles: the values then stack along its axes, each with the
    bits of the scalar call (the sum is taken term by term, elementwise)."""
    t = np.asarray(t)
    out = np.zeros(t.shape + (sym.dim_out, sym.dim_in), dtype=complex)
    for k, mat in sym.coeffs.items():
        out += mat * np.exp(1j * k * t)[..., None, None]
    return out


def eval_disc(sym: MatrixSymbol, z) -> np.ndarray:
    """Evaluate an analytic symbol at a point ``z`` of the closed disc.

    Horner's rule over the coefficients band .. 0.  ``z`` may also be an
    array of points: the values then stack along its axes, each slice with
    the bits of the scalar call at its point (the steps are elementwise).  A
    symbol with a negative Fourier index raises ``ValueError``: it has no
    value inside the disc.  So does a non-finite point, by name.  The
    modulus is not checked, so a point of the circle that rounds to
    modulus 1 + eps is evaluated.
    """
    if not sym.is_analytic:
        raise ValueError("symbol has negative Fourier coefficients")
    z = np.asarray(z)
    finite = np.isfinite(z)
    if not finite.all():
        raise ValueError(f"eval_disc needs finite points, got z={complex(z[~finite][0])!r}")
    acc = np.zeros(z.shape + (sym.dim_out, sym.dim_in), dtype=complex)
    z = z[..., None, None]
    for k in range(sym.band, -1, -1):
        acc = acc * z + sym.coeff(k)
    return acc


def adjoint_symbol(sym: MatrixSymbol) -> MatrixSymbol:
    """Pointwise adjoint: coefficient at k becomes the adjoint of the one at -k."""
    return MatrixSymbol(
        sym.dim_in, sym.dim_out, {-k: mat.conj().T for k, mat in sym.coeffs.items()}
    )


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
    for j, ma in a.coeffs.items():
        for k, mb in b.coeffs.items():
            prod = ma @ mb
            cur = out.get(j + k)
            out[j + k] = prod if cur is None else cur + prod
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


def is_inner(theta: MatrixSymbol, tol: float = DEFAULT_TOL) -> InnerReport:
    """Check that an analytic matrix polynomial has isometric boundary values.

    The residual takes every Fourier coefficient of the trig polynomial
    theta* theta - I, not only the zeroth Gram sum: the other coefficients
    are what rule out non-inner polynomials with an accidentally isometric
    coefficient Gram.  A symbol with a negative Fourier index raises
    ``ValueError``.
    """
    if theta.dim_out < theta.dim_in:
        raise ValueError("inner polynomials need dim_out >= dim_in")
    if not theta.is_analytic:
        raise ValueError("symbol has negative Fourier coefficients")
    defect = multiply(adjoint_symbol(theta), theta).add(
        MatrixSymbol.constant(-np.eye(theta.dim_in)))
    return InnerReport(coefficient_norm_sum(defect), tol)


def pointwise_unitarity_mask(sym: MatrixSymbol, grid: CircleGrid,
                             tol: float = DEFAULT_TOL) -> np.ndarray:
    """Flag the grid points where the symbol value is unitary within ``tol``.

    Only the isometry defect ||V*V - I|| is taken: for a square V, V*V and
    VV* have the same spectrum, so ||VV* - I|| is the same number and the
    co-isometry defect would decide nothing more.
    """
    if not sym.is_square:
        raise ValueError("unitarity mask needs a square symbol")
    v = eval_symbol(sym, grid.points)
    return spectral_norms(v.conj().transpose(0, 2, 1) @ v - np.eye(sym.dim_out)) <= tol


def sup_norm_estimate(sym: MatrixSymbol, grid: CircleGrid | None = None) -> float:
    """Grid maximum of the largest singular value.

    A lower bound on the true sup norm; exact up to grid resolution for the
    trigonometric polynomials in scope.  A symbol with a non-finite
    coefficient raises ``ValueError``.  A grid of fewer than 2 band + 1
    points raises ``ValueError``: a nonzero symbol can vanish on all of it
    (z^3 - z^-3 on 3 or 6 points), so the maximum would say nothing.
    """
    if grid is None:
        grid = default_grid(sym)
    if grid.size < 2 * sym.band + 1:
        raise ValueError(
            f"grid size {grid.size} below 2*band+1 = {2 * sym.band + 1}")
    # a non-finite coefficient gives non-finite values, which spectral_norms
    # refuses with a ValueError; the sum's own warnings would come first
    with np.errstate(invalid="ignore", over="ignore"):
        values = eval_symbol(sym, grid.points)
    return float(spectral_norms(values).max())


def bcl_symbol(u, p) -> MatrixSymbol:
    """The model symbol U (e^{it} P + (I - P)) for a unitary U and projection P."""
    u = as_complex(u)
    p = as_complex(p)
    eye = np.eye(u.shape[0])
    return MatrixSymbol(u.shape[0], u.shape[0], {0: u @ (eye - p), 1: u @ p})


def block_diag_symbol(symbols: list[MatrixSymbol]) -> MatrixSymbol:
    """Direct sum of square symbols (block-diagonal coefficientwise)."""
    for s in symbols:
        if not s.is_square:
            raise ValueError("direct sums take square symbols")
    total = sum(s.dim_out for s in symbols)
    keys = set()
    for s in symbols:
        keys |= set(s.coeffs)
    return MatrixSymbol(total, total, {k: block_diag([s.coeff(k) for s in symbols]) for k in keys})
