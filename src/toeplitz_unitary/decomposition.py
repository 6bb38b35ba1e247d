"""Unitary / completely-non-unitary decomposition of contractions.

Matrix level: the unitary part of a contraction T is the largest subspace that
is invariant for T and T* and on which both act isometrically.  It is computed
two independent ways,

* ``unitary_part_matrix``   - start from the singular spectrum at 1 and refine
  by invariance until a fixed point;
* ``unitary_part_brute``    - intersect the kernels of I - T^{*n} T^n and
  I - T^n T^{*n} over n = 1 .. n_max,

and the pair is kept as a cross-checking oracle throughout the test suite.

Toeplitz level: the same refinement runs on the degree window {polynomials of
degree < N}, with the operator action computed exactly by coefficient
convolution (no finite-section truncation error).  At the fixed point every
basis vector h satisfies, with certified residuals:

* the symbol action on h and the adjoint-symbol action on h are analytic,
* both preserve the Hardy norm of h,
* both map h back into the computed subspace.

On such a subspace the Toeplitz operator restricts to a unitary and the
subspace is reducing, so the result is a certified subspace of the true
unitary part; completeness is only claimed within the window.  For an
analytic symbol the subspace has a closed form, the window polynomials with
coefficients in the unitary part of F(0), and the same residuals certify it.
A wandering subspace construction then extracts the inner polynomial
spanning the subspace and the constant unitary it intertwines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    as_complex,
    normalize_column_phases,
    nullspace,
    orthonormal_columns,
    psd_kernel,
    right_svd,
    spectral_norm,
)
from .symbols import (
    DEFAULT_GRID_SIZE,
    CircleGrid,
    MatrixSymbol,
    PolyMatrix,
    adjoint_symbol,
    coefficient_norm_sum,
    is_inner,
    multiply,
    sup_norm_estimate,
)
from .hardy import convolve_block_columns, toeplitz_window_matrix


@dataclass(frozen=True, eq=False)
class Subspace:
    """Orthonormal-basis representation of a subspace with its tolerance."""

    ambient_dim: int
    basis: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        b = as_complex(self.basis)
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise ValueError("basis must be an (ambient_dim, r) array")
        if b.shape[1]:
            gram = b.conj().T @ b
            if spectral_norm(gram - np.eye(b.shape[1])) > 100 * self.tol:
                raise ValueError("basis columns are not orthonormal")
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        if self.dim == 0:
            return np.zeros((self.ambient_dim, self.ambient_dim), dtype=complex)
        return self.basis @ self.basis.conj().T


@dataclass(frozen=True, eq=False)
class ExtractionResult:
    """Inner polynomial extracted from a shift-invariant window subspace."""

    theta: PolyMatrix
    shift_residual: float
    span_residual: float


@dataclass(frozen=True, eq=False)
class UnitaryPartReport:
    """Outcome of the window decomposition of a Toeplitz operator.

    ``classification`` is one of ``trivial`` (no unitary vectors found in the
    window), ``constant_type`` (an inner polynomial and constant unitary were
    extracted and every residual is below tolerance) or
    ``extraction_inconclusive``.

    The three ``residual_*`` fields bound the sup norms on the circle of
    F theta - theta U, F* theta - theta U* and theta* theta - I from above
    (``coefficient_norm_sum``); each is zero exactly when its identity holds
    almost everywhere.
    """

    subspace: Subspace
    theta: PolyMatrix | None
    u_matrix: np.ndarray | None
    residual_intertwine_fwd: float
    residual_intertwine_adj: float
    residual_inner: float
    classification: str
    params: dict = field(default_factory=dict)
    certification: dict = field(default_factory=dict)
    extraction_residuals: dict = field(default_factory=dict)

    @property
    def certified_sound(self) -> bool:
        """Whether the subspace certification residuals meet the tolerance.

        Certification covers the subspace itself (analyticity, norm
        preservation, invariance, unitary restriction); extraction
        diagnostics only affect the classification.
        """
        tol = self.params.get("tol", DEFAULT_TOL)
        return all(v <= 100 * tol for v in self.certification.values())


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


def _check_contraction(t, tol):
    nrm = spectral_norm(t)
    if nrm > 1.0 + tol:
        raise ValueError(f"operator norm {nrm:.6g} exceeds 1 + tol")


NOISE_CUT = 1e-13


def _compress_rows(rows, cut: float = NOISE_CUT) -> np.ndarray:
    """Compress stacked constraint rows preserving their quadratic form.

    The returned rows are sigma-scaled right singular vectors, so the
    violation ``norm(rows @ x)`` of any direction is preserved exactly and
    weak constraints keep their natural (small) scale.  Only rows at the
    roundoff floor are dropped; nothing is renormalized, because dividing a
    weak row by its norm would amplify its roundoff into a spurious hard
    constraint.
    """
    m = np.vstack(rows)
    if m.size == 0:
        return m
    s, vh = right_svd(m)
    keep = s > cut * max(s[0], 1.0)
    return s[keep, None] * vh[keep]


def _constraint_refinement(initial_rows, operators, n, tol):
    """Largest subspace inside the kernel of the initial rows that is
    invariant (within tol) under every operator.

    Two phases.  First the constraint rows are grown by exact products
    ``rows @ op`` and form-preserving compression: past violations are never
    forgotten and no projector of a current iterate enters the data, which is
    what keeps slowly-dying directions from dragging exact kernel vectors
    along.  The invariance polish then removes the tails of decaying chains
    whose accumulated violations sit below tolerance.
    """
    rows = _compress_rows(initial_rows)
    basis = nullspace(rows, tol)
    for _ in range(n + 1):
        r = basis.shape[1]
        if r == 0:
            break
        rows = _compress_rows([rows] + [rows @ op for op in operators])
        basis = nullspace(rows, tol)
        if basis.shape[1] == r:
            break
    basis, _ = _invariance_polish(basis, lambda b: [op @ b for op in operators], 0, tol)
    return basis


def unitary_part_matrix(t, tol: float = DEFAULT_TOL) -> Subspace:
    """Largest subspace reducing a contraction to a unitary.

    Starts from the joint norm-preserving space of T and T* (the kernels of
    the two power defects at n = 1, equivalently the singular-value-1 spaces)
    and refines by joint invariance to its fixed point; there the span is
    invariant for T and T*, both act isometrically, hence unitarily.
    """
    t = as_complex(t)
    n = t.shape[0]
    _check_contraction(t, tol)
    eye = np.eye(n)
    basis = _constraint_refinement(
        [eye - t.conj().T @ t, eye - t @ t.conj().T],
        [t, t.conj().T], n, tol)
    return Subspace(n, basis, tol)


def unitary_part_brute(t, tol: float = DEFAULT_TOL, n_max: int | None = None) -> Subspace:
    """Unitary part by intersecting power-defect kernels; independent oracle.

    Accumulates ker(I - T^{*m} T^m) and ker(I - T^m T^{*m}) for
    m = 1 .. n_max.  The default budget 2 * ambient_dim leaves slack over the
    minimum required by the dimension-drop argument.
    """
    t = as_complex(t)
    n = t.shape[0]
    _check_contraction(t, tol)
    if n_max is None:
        n_max = 2 * n
    if n_max < n:
        raise ValueError("n_max must be at least the ambient dimension")
    eye = np.eye(n)
    basis = np.eye(n, dtype=complex)
    power = eye.astype(complex)
    for _ in range(n_max):
        power = power @ t
        for defect in (eye - power.conj().T @ power, eye - power @ power.conj().T):
            if basis.shape[1] == 0:
                return Subspace(n, basis, tol)
            restricted = basis.conj().T @ defect @ basis
            kern = psd_kernel(restricted, tol)
            basis = normalize_column_phases(basis @ kern)
    return Subspace(n, basis, tol)


def _stray_rows(basis: np.ndarray, images, start: int) -> np.ndarray:
    """Stacked parts of the images of span(basis) that leave the span.

    Each image holds the exact action of one operator on the basis columns,
    with the window coefficients in rows start .. start + n - 1.  Rows outside
    that range lie outside the window and count in full; the window part
    counts by its component orthogonal to the span.  The span is invariant
    under every operator, within tol, exactly when
    ``nullspace(rows, tol)`` keeps all basis columns.
    """
    n = basis.shape[0]
    rows = []
    for img in images:
        inside = img[start:start + n]
        rows += [img[:start], img[start + n:],
                 inside - basis @ (basis.conj().T @ inside)]
    return np.vstack(rows)


def _window_images(syms, basis: np.ndarray) -> list:
    """Exact actions of the symbols on the basis columns of a degree window.

    One (n + 2 band d, r) array per symbol, rows from degree -band on, so the
    window coefficients sit in rows band d .. band d + n - 1 (all symbols
    share the band).
    """
    r = basis.shape[1]
    blocks = basis.reshape(-1, syms[0].dim_in, r)
    return [convolve_block_columns(s, blocks).reshape(-1, r) for s in syms]


def _invariance_polish(basis: np.ndarray, act, start: int, tol: float):
    """Largest part of span(basis) that every operator maps into itself.

    ``act(basis)`` returns the exact images of the basis columns laid out as
    ``_stray_rows`` expects: the span's coordinates in rows start .. start + n
    - 1, rows outside them counting in full.  Each iteration keeps the
    directions whose images stay in the span, within tol, until no direction
    is dropped.  Returns (basis, iterations).
    """
    iterations = 0
    for _ in range(basis.shape[0] + 1):
        r = basis.shape[1]
        if r == 0:
            break
        coeff_null = nullspace(_stray_rows(basis, act(basis), start), tol)
        iterations += 1
        if coeff_null.shape[1] == r:
            break
        basis = normalize_column_phases(basis @ coeff_null)
    return basis, iterations


def _is_constant_unitary(sym: MatrixSymbol) -> bool:
    """Whether sym is a constant unitary V, entrywise within NOISE_CUT.

    Every coefficient at a nonzero index and every entry of V*V - I must be
    that small.
    """
    if any(np.abs(mat).max() > NOISE_CUT for k, mat in sym.coeffs.items() if k):
        return False
    v = sym.coeff(0)
    return np.abs(v.conj().T @ v - np.eye(sym.dim_in)).max() <= NOISE_CUT


def _structure_solution_basis(sym: MatrixSymbol, window: int, tol: float,
                              stop_when_closed: bool = False):
    """Window polynomials satisfying the power structure equations.

    For n = 1 .. d window accumulates the h with F^n h and (F*)^n h analytic and
    F^n (F*)^n h = h = (F*)^n F^n h, all by exact coefficient convolution.
    These constraints live at the two-sided (Laurent) level, so directions
    violating them fail with full-size margins; no slowly-decaying chains
    appear the way they do for window-projected invariance conditions.

    With ``stop_when_closed`` the loop ends at the first power m after which
    the solution span S is closed under the exact actions of F and F*: F S
    and F* S have no coefficient at a negative degree or at degree >= window
    and their window part lies in S.  S then solves every higher equation.
    By induction on k, F^k h and (F*)^k h stay in S for h in S, so they are
    analytic window polynomials; and since S solves the m = 1 equations,
    F^k (F*)^k h = F^(k-1) (F F*) (F*)^(k-1) h = F^(k-1) (F*)^(k-1) h = ... = h,
    and likewise (F*)^k F^k h = h.  The solution sets only shrink as the
    power grows, so S is also the answer of the full budget.  The test runs
    after the first power and then only after a power that lowers the
    dimension: an unchanged dimension means an unchanged span, whose test
    result is already known.

    Also with ``stop_when_closed``, the loop ends before solving power m once
    F^m is a constant unitary V (``_is_constant_unitary``).  F^m commutes with
    F, so F^(m+k) = V F^k = F^k V for every k >= 0.  Hence F^(m+k) h = V F^k h
    is analytic exactly when F^k h is, and (F*)^(m+k) h = V* (F*)^k h exactly
    when (F*)^k h is; F^(m+k) (F*)^(m+k) = F^k V V* (F*)^k = F^k (F*)^k and
    (F*)^(m+k) F^(m+k) = (F*)^k V* V F^k = (F*)^k F^k.  The power m equations
    hold for every h.  So every later equation repeats one already solved,
    and the span of the first m - 1 powers is the answer of the full budget.

    Returns (basis, powers solved, stop reason), the reason being ``closed``,
    ``periodic``, ``empty`` (no solution left) or ``budget`` (d window powers
    solved).
    """
    d = sym.dim_out
    n = d * window
    basis = np.eye(n, dtype=complex)
    fwd = MatrixSymbol.constant(np.eye(d))
    syms = (sym, adjoint_symbol(sym))
    powers, stop, tested_dim = 0, "budget", None
    for m in range(1, n + 1):
        r = basis.shape[1]
        if r == 0:
            break
        fwd = multiply(fwd, sym)  # m-th symbol power, grown incrementally
        if stop_when_closed and _is_constant_unitary(fwd):
            stop = "periodic"
            break
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
        powers = m
        r = basis.shape[1]
        if stop_when_closed and 0 < r != tested_dim:
            tested_dim = r
            images = _window_images(syms, basis)
            if nullspace(_stray_rows(basis, images, sym.band * d), tol).shape[1] == r:
                stop = "closed"
                break
    if basis.shape[1] == 0:
        stop = "empty"
    return basis, powers, stop


def _window_certificate(sym: MatrixSymbol, basis: np.ndarray) -> dict:
    """Certificate of a window subspace from the exact images of its basis.

    Analyticity, norm preservation and invariance of F and F* on
    span(basis), and unitarity of the restriction of F, all by exact
    coefficient convolution.  Empty for an empty basis.
    """
    if basis.shape[1] == 0:
        return {}
    n = basis.shape[0]
    start = sym.band * sym.dim_out
    images = _window_images((sym, adjoint_symbol(sym)), basis)
    gram = basis.conj().T @ basis
    cert = {}
    for name, img in zip(("fwd", "adj"), images):
        inside = img[start:start + n]
        # Parseval: norm preservation is B*B = (F B)*(F B) on the full image
        cert[f"analytic_{name}"] = spectral_norm(img[:start])
        cert[f"norm_{name}"] = spectral_norm(gram - img.conj().T @ img)
        cert[f"invariance_{name}"] = max(
            spectral_norm(img[start + n:]),
            spectral_norm(inside - basis @ (basis.conj().T @ inside)))
    coords = basis.conj().T @ images[0][start:start + n]
    cert["restriction_unitary"] = spectral_norm(
        coords.conj().T @ coords - np.eye(basis.shape[1]))
    return cert


def _window_refinement(sym: MatrixSymbol, window: int, tol: float):
    """Joint refinement on the degree window with exact symbol action.

    Starts from the structure-equation solutions, which already contain the
    target subspace, then polishes to the largest part that is invariant for
    the Toeplitz action and its adjoint without leaving the window.  The
    polish is a no-op whenever the structure solutions are window invariant
    (every planted family), and where it does remove directions the kill
    margins are boundary-coefficient sized, so the iteration stays stable.
    The polish and the certificate act on the basis columns by the same exact
    convolution as the closure test of the structure equations.
    Returns (basis, certification dict, trail) where the trail holds the
    polish iterations and the structure powers and stop reason.
    """
    syms = (sym, adjoint_symbol(sym))
    basis, powers, stop = _structure_solution_basis(sym, window, tol, stop_when_closed=True)
    basis, iterations = _invariance_polish(
        basis, lambda b: _window_images(syms, b), sym.band * sym.dim_out, tol)
    trail = {"refinement_iterations": iterations,
             "structure_powers": powers, "structure_stop": stop}
    return basis, _window_certificate(sym, basis), trail


def _analytic_window_part(sym: MatrixSymbol, window: int, tol: float):
    """Window part of an analytic symbol: polynomials with coefficients in E_u.

    E_u is the unitary part of F(0).  Every x in E_u has norm(F_0 x) =
    norm(x), so contractivity and Parseval force F_k x = 0 and F_k* x = 0
    for k >= 1: F = U0 + Psi splits along E_u, and T_F acts on H^2(E_u) as
    the constant unitary U0.  The unitary part of T_Psi is zero: by the
    paper's theorem it is Theta H^2 with Psi Theta = Theta U, and the lowest
    nonzero coefficient Theta_j satisfies Psi_0 Theta_j = Theta_j U, which
    would give Psi_0 a unitary part.  So the window part is kron(I, E_u).
    Returns (basis, certification dict, trail) like ``_window_refinement``.
    """
    e_u = unitary_part_matrix(sym.coeff(0), tol).basis
    basis = np.kron(np.eye(window), e_u)
    trail = {"refinement_iterations": 0,
             "structure_powers": 0, "structure_stop": "analytic"}
    return basis, _window_certificate(sym, basis), trail


def beurling_extract(m: Subspace, dim: int, tol: float = DEFAULT_TOL) -> ExtractionResult:
    """Extract the inner polynomial generating a shift-invariant window subspace.

    The wandering space m minus (shift of m) has an orthonormal basis that,
    read as polynomial columns, is the candidate inner polynomial.  Reported
    diagnostics: shift-invariance of the input and how much of the input
    span the candidate's polynomial multiples miss.
    """
    if m.dim == 0:
        raise ValueError("cannot extract from the zero subspace")
    if m.ambient_dim % dim:
        raise ValueError("ambient dimension is not a multiple of the coefficient dim")
    window = m.ambient_dim // dim

    # vectors of degree <= window - 2, in basis coordinates; the shift moves
    # their coefficients down one block and keeps them in the window
    top_rows = m.basis[(window - 1) * dim:, :]
    low = normalize_column_phases(m.basis @ nullspace(top_rows, tol))
    shifted = np.vstack([np.zeros((dim, low.shape[1])), low[:-dim]])
    shift_residual = spectral_norm(shifted - m.basis @ (m.basis.conj().T @ shifted))
    if shift_residual > tol:
        raise ValueError(
            f"subspace is not shift invariant within the window (residual {shift_residual:.3g})"
        )

    # z m stays in the window only for the vectors in low, so once the shift
    # check holds, the part of z m inside m is the span of shifted
    wandering = orthonormal_columns(m.basis - shifted @ (shifted.conj().T @ m.basis), tol)

    r = wandering.shape[1]
    blocks = wandering.reshape(window, dim, r)
    scale = max(np.max(np.abs(blocks)), 1.0)
    degree = window - 1
    while degree > 0 and np.all(np.abs(blocks[degree]) <= 1e-12 * scale):
        degree -= 1
    theta = PolyMatrix(dim, r, tuple(blocks[k] for k in range(degree + 1)))

    columns = []
    for j in range(r):
        dj = theta.degree
        while dj > 0 and np.linalg.norm(theta.coeffs[dj][:, j]) <= 1e-12 * scale:
            dj -= 1
        # theta column j and its shifts that fit in the window
        col = MatrixSymbol(dim, 1, {k: theta.coeffs[k][:, j:j + 1] for k in range(dj + 1)})
        columns.append(toeplitz_window_matrix(col, window - dj, window))
    span = orthonormal_columns(np.hstack(columns), tol)
    span_residual = spectral_norm(m.basis - span @ (span.conj().T @ m.basis))

    return ExtractionResult(
        theta=theta,
        shift_residual=shift_residual,
        span_residual=span_residual,
    )


def _pair_residuals(sym: MatrixSymbol, theta: PolyMatrix, u,
                    f_theta: MatrixSymbol) -> dict:
    """Residuals of the pair (theta, U) for the symbol F, as documented by
    ``verify_maincondn``.  ``f_theta`` is the product F theta, which
    ``extract_constant_unitary`` has already formed to find U.
    """
    theta_sym = theta.as_symbol()
    fwd = f_theta.add(multiply(theta_sym, MatrixSymbol.constant(-u)))
    adj = multiply(adjoint_symbol(sym), theta_sym).add(
        multiply(theta_sym, MatrixSymbol.constant(-u.conj().T)))
    return {
        "intertwine_fwd": coefficient_norm_sum(fwd),
        "intertwine_adj": coefficient_norm_sum(adj),
        "inner": is_inner(theta).residual,
        "unitary": spectral_norm(u.conj().T @ u - np.eye(theta.dim_in)),
    }


def extract_constant_unitary(sym: MatrixSymbol, theta: PolyMatrix):
    """Constant unitary intertwined with the symbol through an inner polynomial.

    U is the zeroth Fourier coefficient of theta* F theta (exact coefficient
    convolution).  Returns U and the raw residuals of the pair (theta, U),
    the four that ``verify_maincondn`` computes.
    """
    theta_sym = theta.as_symbol()
    f_theta = multiply(sym, theta_sym)
    u = multiply(adjoint_symbol(theta_sym), f_theta).coeff(0)
    return u, _pair_residuals(sym, theta, u, f_theta)


def verify_maincondn(sym: MatrixSymbol, theta: PolyMatrix, u,
                     tol: float = DEFAULT_TOL):
    """Residual check of the intertwining pair F theta = theta U (and adjoint).

    Returns (ok, residuals).  ``intertwine_fwd``, ``intertwine_adj`` and
    ``inner`` are ``coefficient_norm_sum`` of F theta - theta U,
    F* theta - theta U* and theta* theta - I, formed by exact coefficient
    convolution: each bounds the sup norm of its defect on the circle from
    above and is zero exactly when its identity holds almost everywhere.
    ``unitary`` is the norm of U*U - I.  ok requires every residual to be
    within tol.
    """
    u = as_complex(u)
    if theta.dim_out != sym.dim_in or u.shape != (theta.dim_in, theta.dim_in):
        raise ValueError("dimension mismatch between symbol, inner polynomial and unitary")
    residuals = _pair_residuals(sym, theta, u, multiply(sym, theta.as_symbol()))
    return all(v <= tol for v in residuals.values()), residuals


def toeplitz_unitary_part(sym: MatrixSymbol, window: int,
                          tol: float = DEFAULT_TOL,
                          grid: CircleGrid | None = None) -> UnitaryPartReport:
    """Window decomposition of a contractive block Toeplitz operator.

    Finds the largest subspace of polynomials of degree < window on which the
    exact symbol action is analytic, norm preserving and invariant in both
    directions, then attempts to extract the generating inner polynomial and
    the constant unitary it intertwines.  Every residual that backs the
    classification is carried in the report.

    An analytic symbol takes its subspace from the unitary part of F(0)
    (``structure_stop`` ``analytic``); any other symbol from the structure
    equations and the window polish.  Both certify it the same way.
    """
    if not sym.is_square:
        raise ValueError("decomposition needs a square symbol")
    if window < 1:
        raise ValueError("window must be positive")
    if grid is None:
        grid = CircleGrid(max(DEFAULT_GRID_SIZE, 2 * sym.band + 1))
    sup = sup_norm_estimate(sym, grid)
    if sup > 1.0 + tol:
        raise ValueError(f"symbol sup-norm estimate {sup:.6g} exceeds 1 + tol")

    d = sym.dim_out
    route = _analytic_window_part if sym.is_analytic else _window_refinement
    basis, cert, trail = route(sym, window, tol)
    subspace = Subspace(d * window, basis, tol)
    params = {
        "window": window,
        "band": sym.band,
        "dim": d,
        "tol": tol,
        "grid_size": grid.size,
        "sup_norm_estimate": sup,
        **trail,
    }

    if subspace.dim == 0:
        return UnitaryPartReport(
            subspace=subspace, theta=None, u_matrix=None,
            residual_intertwine_fwd=0.0, residual_intertwine_adj=0.0,
            residual_inner=0.0, classification="trivial",
            params=params, certification=cert,
        )

    try:
        extraction = beurling_extract(subspace, d, tol)
    except ValueError as exc:
        params = dict(params, extraction_error=str(exc))
        return UnitaryPartReport(
            subspace=subspace, theta=None, u_matrix=None,
            residual_intertwine_fwd=np.inf, residual_intertwine_adj=np.inf,
            residual_inner=np.inf, classification="extraction_inconclusive",
            params=params, certification=cert,
        )

    theta = extraction.theta
    u, residuals = extract_constant_unitary(sym, theta)
    diagnostics = {
        "shift_invariance": extraction.shift_residual,
        "span": extraction.span_residual,
    }
    ok = (all(v <= tol for v in residuals.values())
          and extraction.span_residual <= tol)
    return UnitaryPartReport(
        subspace=subspace,
        theta=theta,
        u_matrix=u,
        residual_intertwine_fwd=residuals["intertwine_fwd"],
        residual_intertwine_adj=residuals["intertwine_adj"],
        residual_inner=residuals["inner"],
        classification="constant_type" if ok else "extraction_inconclusive",
        params=params,
        certification=cert,
        extraction_residuals=diagnostics,
    )


def toeplitz_unitary_part_brute(sym: MatrixSymbol, window: int,
                                tol: float = DEFAULT_TOL) -> Subspace:
    """Window solutions of the power structure equations.

    For n = 1 .. d window accumulates the window polynomials h with F^n h and
    (F*)^n h analytic and F^n (F*)^n h = h = (F*)^n F^n h, all as exact
    coefficient identities of symbol powers.  This checks the defining
    equations of the unitary part directly, with no invariance iteration; the
    result contains the window restriction of the true unitary part, and in
    particular contains the ``toeplitz_unitary_part`` subspace.
    """
    if not sym.is_square:
        raise ValueError("decomposition needs a square symbol")
    basis, _, _ = _structure_solution_basis(sym, window, tol)
    return Subspace(sym.dim_out * window, basis, tol)


def reducing_check(v_basis, a, tol: float = DEFAULT_TOL) -> bool:
    """Whether the range of an isometry reduces ``a``, via the commutator test."""
    v = as_complex(v_basis)
    a = as_complex(a)
    if v.shape[1] and spectral_norm(v.conj().T @ v - np.eye(v.shape[1])) > 100 * tol:
        raise ValueError("basis columns are not isometric")
    proj = v @ v.conj().T
    return spectral_norm(a @ proj - proj @ a) <= tol


def cdot0_test(a, tol: float = DEFAULT_TOL) -> bool:
    """Whether the powers of a contraction tend to zero (spectral radius test)."""
    a = as_complex(a)
    _check_contraction(a, tol)
    radius = float(np.max(np.abs(np.linalg.eigvals(a)))) if a.size else 0.0
    return radius < 1.0 - tol


def poly_calculus(sym: MatrixSymbol, poly_coeffs, window: int,
                  tol: float = DEFAULT_TOL) -> np.ndarray:
    """Polynomial function of an analytic Toeplitz operator, on the window.

    Builds u(T) column by column with exact repeated symbol application; the
    returned rectangular matrix maps degrees < window into the enlarged exact
    window and its norm is checked against 1 + tol (von Neumann bound, since
    |u| < 1 on the boundary grid is required).
    """
    if not sym.is_analytic:
        raise ValueError("polynomial calculus needs an analytic symbol")
    if not sym.is_square:
        raise ValueError("polynomial calculus needs a square symbol")
    if sup_norm_estimate(sym) > 1.0 + tol:
        raise ValueError("symbol sup-norm estimate exceeds 1 + tol")
    coeffs = np.atleast_1d(as_complex(poly_coeffs).ravel())
    boundary_grid = CircleGrid(max(DEFAULT_GRID_SIZE, 4 * len(coeffs)))
    vals = np.polyval(coeffs[::-1], np.exp(1j * boundary_grid.points))
    if np.max(np.abs(vals)) >= 1.0:
        raise ValueError("scalar polynomial must satisfy |u| < 1 on the boundary grid")

    d = sym.dim_out
    deg_u = len(coeffs) - 1
    band = sym.band
    out_window = window + deg_u * band
    n_out = d * out_window
    result = np.zeros((n_out, d * window), dtype=complex)
    power = np.eye(d * window, dtype=complex)  # T^0 restricted to the window
    cur_window = window
    for j, c in enumerate(coeffs):
        if c != 0:
            result[: power.shape[0]] += c * power
        if j == deg_u:
            break
        power = toeplitz_window_matrix(sym, cur_window, cur_window + band) @ power
        cur_window += band
    nrm = spectral_norm(result)
    if nrm > 1.0 + tol:
        raise RuntimeError(f"calculus norm {nrm:.6g} exceeds the contractive bound")
    return result
