"""Helpers shared by the test modules.

Random instances, reference loops that the parity tests compare the
library kernels against, the invariance polish that the window part is
checked against, a Hardy vector with the exact Toeplitz action on it, and
the residual and angle checks that only tests use.  No test module imports
another; what two of them share lives here.

The symbol families come from the builders in ``scenarios`` with their
pair (Theta, U); a test reads a family's expected window part from
``window_span(family.theta, window)``, never from a hand-built basis.
"""

from dataclasses import dataclass

import numpy as np

from toeplitz_unitary.colligation import Colligation, TransferReport, tau_eval
from toeplitz_unitary.linalg import (
    DEFAULT_TOL,
    as_complex,
    haar_unitary,
    normalize_column_phases,
    nullspace,
    spectral_norm,
)
from toeplitz_unitary.decomposition import Subspace, _check_window_call
from toeplitz_unitary.hardy import convolve_block_columns
from toeplitz_unitary.scenarios import (
    colligation_family,
    direct_sum,
    planted_family,
    swap_family,
)
from toeplitz_unitary.symbols import MatrixSymbol, adjoint_symbol, multiply


def gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def assert_same_bits(got, want):
    """Equal values and equal signs of zero in both the real and imaginary parts."""
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


def random_contraction(n: int, rng: np.random.Generator, norm: float = 1.0) -> np.ndarray:
    """Complex Ginibre matrix rescaled to the requested spectral norm."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g * (norm / spectral_norm(g))


def planted_contraction(rng, n, d_unitary, strict_norm=0.8):
    """diag(unitary, strict contraction) hidden behind a random unitary frame."""
    t = np.zeros((n, n), dtype=complex)
    u0 = haar_unitary(d_unitary, rng) if d_unitary else np.zeros((0, 0))
    t[:d_unitary, :d_unitary] = u0
    if n > d_unitary:
        t[d_unitary:, d_unitary:] = random_contraction(n - d_unitary, rng, strict_norm)
    q = haar_unitary(n, rng)
    return q @ t @ q.conj().T, q[:, :d_unitary]


def random_colligation(dim_e: int, dim_k: int, rng: np.random.Generator) -> Colligation:
    """Haar-random valid colligation, by partitioning a random unitary."""
    m = haar_unitary(dim_e + dim_k, rng)
    return Colligation(
        dim_e,
        dim_k,
        A=m[:dim_e, :dim_e],
        B=m[:dim_e, dim_e:],
        C=m[dim_e:, :dim_e],
        D=m[dim_e:, dim_e:],
    )


def reference_defect_identities(w: Colligation, lambda_grid) -> TransferReport:
    """``defect_identities`` as one scalar ``tau_eval``, four solves and three
    SVD norms per point."""
    eye_e = np.eye(w.dim_e)
    eye_k = np.eye(w.dim_k)
    max_d1 = 0.0
    max_d2 = 0.0
    max_norm = 0.0
    pts = tuple(complex(z) for z in lambda_grid)
    for lam in pts:
        phi = tau_eval(w, lam)
        max_norm = max(max_norm, spectral_norm(phi))
        factor = 1.0 - abs(lam) ** 2
        if w.dim_k == 0:
            rhs1 = np.zeros((w.dim_e, w.dim_e))
            rhs2 = np.zeros((w.dim_e, w.dim_e))
        else:
            # B (I-lam D)^-1 (I-conj(lam) D*)^-1 B*
            y = np.linalg.solve(eye_k - np.conj(lam) * w.D.conj().T, w.B.conj().T)
            rhs1 = factor * (w.B @ np.linalg.solve(eye_k - lam * w.D, y))
            # C* (I-conj(lam) D*)^-1 (I-lam D)^-1 C
            x = np.linalg.solve(eye_k - lam * w.D, w.C)
            rhs2 = factor * (w.C.conj().T @ np.linalg.solve(
                eye_k - np.conj(lam) * w.D.conj().T, x))
        max_d1 = max(max_d1, spectral_norm(eye_e - phi @ phi.conj().T - rhs1))
        max_d2 = max(max_d2, spectral_norm(eye_e - phi.conj().T @ phi - rhs2))
    return TransferReport(pts, max_d1, max_d2, max_norm)


def rotated(parts, seed):
    """``direct_sum`` of the parts in the Haar frame drawn from ``seed``."""
    dim = direct_sum(parts).symbol.dim_out
    return direct_sum(parts, haar_unitary(dim, np.random.default_rng(seed)))


def colligation_rank_family(seed, rank):
    """``colligation_family`` with d0 = 1, d1 = 2 and the given projection
    rank: the draws of the benchmark's ``inputs.colligation_case``."""
    return colligation_family(np.random.default_rng(seed), 1, 2, rank)


# The report keeps the directions F and F* keep inside the window.  On a
# swap family that is one direction fewer than Theta H^2 cut with the
# window, which also holds the direction F pushes past it ((0, z^(w - 1))
# in the swap block's frame, ``swap_pushed_out``); reading the product
# kernel would keep it.
REPORT_SWAP_SHORTFALL = 1

# 1.02 sin 3t, F_{+-3} = -+0.51i: its grid maximum is 0.9944 on 7 points and
# 1.02 on 16, 64 and 512, so only a grid of enough points sees it is no
# contraction.
SIN3T = MatrixSymbol(1, 1, {3: [[-0.51j]], -3: [[0.51j]]})


def swap_pushed_out(theta, column, window):
    """z^(window - 1) times the swap's degree-0 column ``column`` of Theta."""
    v = np.zeros(theta.dim_out * window, dtype=complex)
    v[-theta.dim_out:] = theta.coeff(0)[:, column]
    return v


# (name, symbol factory, window): inputs whose rank decisions sit closest to
# the cut, the first to move under any roundoff change in the kernels; the
# colligations are analytic, so the kernel route is run through
# _window_eigenspaces as well.  Patching decomposition.nullspaces covers
# every kernel that _joint_kernels takes: the window kernels of the kernel
# route and the joint kernel of the stacked coefficients behind the constant
# part E_c; the candidates of F_0 and F(1) take eigenvalues only.  The
# unitary-part parity tests compare the matrix eigenspaces with the
# per-matrix loop
CANARIES = [
    ("colligation_rank1_seed14", lambda: colligation_rank_family(14, 1).symbol, 6),
    ("colligation_rank1_seed14", lambda: colligation_rank_family(14, 1).symbol, 8),
    ("swap", lambda: swap_family(np.random.default_rng(8)).symbol, 8),
    ("planted_d4", lambda: planted_family(np.random.default_rng(4), 2, 2).symbol, 8),
]


def parity_symbol(rng, d_out, d_in, count, adjoint=False, spread=3):
    """``count`` coefficients at shuffled, sparse indices, some holding -0.0
    rows; ``adjoint`` gives the Fortran-ordered coefficients of ``adjoint_symbol``."""
    if adjoint:
        d_out, d_in = d_in, d_out
    keys = rng.choice(np.arange(-spread * count, spread * count + 1), size=count, replace=False)
    coeffs = {}
    for k in keys:
        mat = gaussian(rng, d_out, d_in)
        if rng.uniform() < 0.3:
            mat[rng.integers(d_out)] = -0.0
            mat[rng.integers(d_out), rng.integers(d_in)] = 1.0  # never all zero
        coeffs[k] = mat
    sym = MatrixSymbol(d_out, d_in, coeffs)
    return adjoint_symbol(sym) if adjoint else sym


def reference_convolve_block_columns(sym, blocks):
    """``convolve_block_columns`` as one ``np.matmul`` per coefficient."""
    n_in, d_in, _ = blocks.shape
    if d_in != sym.dim_in:
        raise ValueError("coefficient blocks do not match the symbol dimension")
    band = sym.band
    out = np.zeros((n_in + 2 * band, sym.dim_out, blocks.shape[2]), dtype=complex)
    for diff, mat in sym.coeffs.items():
        at = diff + band
        out[at:at + n_in] += np.matmul(mat, blocks)
    return out


def reference_multiply(a, b):
    """``multiply`` as one matrix product per pair of coefficients."""
    if a.dim_in != b.dim_out:
        raise ValueError("symbol shapes do not match")
    out = {}
    for j, ma in a.coeffs.items():
        for k, mb in b.coeffs.items():
            idx = j + k
            cur = out.get(idx)
            out[idx] = ma @ mb if cur is None else cur + ma @ mb
    return MatrixSymbol(a.dim_out, b.dim_in, out)


def reference_toeplitz_unitary_part_brute(sym, window, tol=DEFAULT_TOL):
    """The window oracle by symbol powers: for m = 1 .. d window, the window
    polynomials h with F^m h and (F*)^m h analytic and
    F^m (F*)^m h = h = (F*)^m F^m h, as exact coefficient identities of the
    powers, grown incrementally."""
    _check_window_call(sym, window, tol)
    d = sym.dim_out
    n = d * window
    basis = np.eye(n, dtype=complex)
    fwd = MatrixSymbol.constant(np.eye(d))
    for _ in range(n):
        r = basis.shape[1]
        if r == 0:
            break
        fwd = multiply(fwd, sym)
        adj = adjoint_symbol(fwd)
        bm = fwd.band
        blocks = basis.reshape(window, d, r)
        conv_f = convolve_block_columns(fwd, blocks)
        conv_a = convolve_block_columns(adj, blocks)
        rows = []
        if bm:
            rows.append(conv_f[:bm].reshape(bm * d, r))
            rows.append(conv_a[:bm].reshape(bm * d, r))
        # products F^m (F^m)* and (F^m)* F^m by composed exact convolution;
        # the identity sits at output degrees 0 .. window-1, block offset 2 bm
        for outer, inner in ((fwd, conv_a), (adj, conv_f)):
            img = convolve_block_columns(outer, inner)
            img[2 * bm:2 * bm + window] -= blocks
            rows.append(img.reshape(-1, r))
        basis = normalize_column_phases(basis @ nullspace(np.vstack(rows), tol))
    return Subspace(n, basis, tol)


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


def toeplitz_apply_exact(sym, h: HardyVector) -> HardyVector:
    """Analytic projection of the symbol action: exact coefficients of P_+(F h)."""
    if sym.dim_in != h.dim:
        raise ValueError(f"symbol expects dimension {sym.dim_in}, vector has {h.dim}")
    return HardyVector(sym.dim_out,
                       convolve_block_columns(sym, h.coeffs[:, :, None])[sym.band:, :, 0])


def invariance_polish(basis, act, start, tol):
    """Largest part of span(basis) that every operator maps into itself.

    ``act(basis)`` returns the exact images of the basis columns, with the
    span's coordinates in rows start .. start + n - 1.  The rows below and
    above them count in full, the window part by its component off the span.
    Each iteration keeps the directions whose images stay in the span,
    within tol, until no direction is dropped.  Returns (basis, iterations).
    """
    n = basis.shape[0]
    iterations = 0
    for _ in range(n + 1):
        r = basis.shape[1]
        if r == 0:
            break
        rows = []
        for img in act(basis):
            inside = img[start:start + n]
            rows += [img[:start], img[start + n:], inside - basis @ (basis.conj().T @ inside)]
        coeff_null = nullspace(np.vstack(rows), tol)
        iterations += 1
        if coeff_null.shape[1] == r:
            break
        basis = normalize_column_phases(basis @ coeff_null)
    return basis, iterations


def principal_angles(b1, b2) -> np.ndarray:
    """Principal angles (radians, ascending) between two orthonormal ranges.

    Sine-based formulation: the cosine formula cannot resolve angles below
    sqrt(machine eps), which matters when certifying agreement at 1e-7.
    """
    b1 = as_complex(b1)
    b2 = as_complex(b2)
    if b1.shape[1] == 0 or b2.shape[1] == 0:
        return np.zeros(0)
    if b2.shape[1] > b1.shape[1]:
        b1, b2 = b2, b1
    residual = b2 - b1 @ (b1.conj().T @ b2)
    s = np.linalg.svd(residual, compute_uv=False)
    return np.arcsin(np.clip(np.sort(s), -1.0, 1.0))


def unitary_residuals(t, basis) -> dict:
    """Invariance and unitarity residuals of T on the span of ``basis``."""
    t = as_complex(t)
    basis = as_complex(basis)
    n = t.shape[0]
    if basis.shape[1] == 0:
        return {"invariance_fwd": 0.0, "invariance_adj": 0.0,
                "isometry": 0.0, "coisometry": 0.0}
    proj = basis @ basis.conj().T
    eye_r = np.eye(basis.shape[1])
    off = np.eye(n) - proj
    return {
        "invariance_fwd": spectral_norm(off @ (t @ basis)),
        "invariance_adj": spectral_norm(off @ (t.conj().T @ basis)),
        "isometry": spectral_norm(basis.conj().T @ t.conj().T @ t @ basis - eye_r),
        "coisometry": spectral_norm(basis.conj().T @ t @ t.conj().T @ basis - eye_r),
    }
