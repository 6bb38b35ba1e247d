"""Unitary / completely-non-unitary decomposition of contractions.

Matrix level: the unitary part of a contraction T is the largest subspace that
is invariant for T and T* and on which both act isometrically.  It is computed
two independent ways,

* ``unitary_part_matrix``   - the sum of the eigenspaces at the unimodular
  eigenvalues, each the joint kernel of T - lambda and T* - conj(lambda);
  it is ``unitary_parts`` on a stack of one, which takes a (G, n, n) stack
  in one pass of batched LAPACK calls, each slice with the bits it gets
  alone;
* ``unitary_part_brute``    - intersect the kernels of I - T^{*n} T^n and
  I - T^n T^{*n} over n = 1 .. 2 dim,

and the pair is kept as a cross-checking oracle throughout the test suite.

Toeplitz level: by the paper's theorem the unitary part is Theta H^2 with
F Theta = Theta U and F* Theta = Theta U*, so T_F acts on it as the unitary U.
Its constant part is H^2(E_c), E_c the vectors on which F acts as a constant
unitary, F(e^{it}) v = lambda v with |lambda| = 1 for every t: one d x d
problem on the stacked Fourier coefficients (``_constant_part``), and for an
analytic symbol the whole unitary part, E_c being then the unitary part of
F(0).  On the degree window {polynomials of degree < N} the window part is
kron(I, E_c) and, for any other symbol, the part of the remainder beside E_c
that F and F* keep inside the window: the sum of the joint eigenspaces of
T_F and T_F* at the candidates lambda, each one exact kernel with no
finite-section truncation error; the scenarios read one kernel of their
products (``_window_kernel``).  E_c and the window parts take their
candidates by one rule (``_candidates``), on F_0 and on F(1).  Every basis
vector h then satisfies, with certified residuals:

* the symbol action on h and the adjoint-symbol action on h are analytic,
* both preserve the Hardy norm of h,
* both map h back into the computed subspace.

On such a subspace the Toeplitz operator restricts to a unitary and the
subspace is reducing, so the result is a certified subspace of the true
unitary part; completeness is only claimed within the window.  When the
remainder adds nothing, the inner polynomial and the constant unitary it
intertwines are read off in closed form, theta = E_c and U = E_c* F_0 E_c;
otherwise a wandering subspace construction extracts them.
``window_span`` gives the span of an inner polynomial's column shifts that
fit in the window, Theta H^2 cut with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    above_cut,
    as_complex,
    empty_basis,
    normalize_column_phases,
    nullspace,
    nullspaces,
    orthonormal_bases,
    orthonormal_columns,
    spectral_norm,
    spectral_norms,
)
from .symbols import (
    DEFAULT_GRID_SIZE,
    CircleGrid,
    MatrixSymbol,
    adjoint_symbol,
    coefficient_norm_sum,
    default_grid,
    eval_symbol,
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
        _check_orthonormal(b[None], self.tol)
        self._freeze(b)

    def _freeze(self, b: np.ndarray) -> None:
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @classmethod
    def _stack(cls, ambient_dim: int, bases: list, tol: float) -> list:
        """One Subspace per (ambient_dim, r) basis, the orthonormality test
        run once per group of equal width instead of once per basis."""
        for width in {b.shape[1] for b in bases}:
            _check_orthonormal(np.stack([b for b in bases if b.shape[1] == width]), tol)
        out = []
        for b in bases:
            sub = object.__new__(cls)
            object.__setattr__(sub, "ambient_dim", ambient_dim)
            object.__setattr__(sub, "tol", tol)
            sub._freeze(b)
            out.append(sub)
        return out

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T


@dataclass(frozen=True, eq=False)
class ExtractionResult:
    """Inner polynomial extracted from a shift-invariant window subspace.

    ``theta`` is an analytic ``MatrixSymbol`` (dim x r) whose columns, read
    as coefficient vectors, are an orthonormal basis of the wandering space;
    its degree is ``theta.band``.
    """

    theta: MatrixSymbol
    shift_residual: float
    span_residual: float


@dataclass(frozen=True, eq=False)
class UnitaryPartReport:
    """Outcome of the window decomposition of a Toeplitz operator.

    ``classification`` is one of ``trivial`` (no unitary vectors found in the
    window), ``constant_type`` (an inner polynomial and constant unitary were
    extracted and every residual is below tolerance) or
    ``extraction_inconclusive``.

    ``residuals`` is the dict of the extracted pair (theta, U) that
    ``extract_constant_unitary`` returns and the classification reads:
    ``intertwine_fwd``, ``intertwine_adj`` and ``inner`` bound the sup norms
    on the circle of F theta - theta U, F* theta - theta U* and
    theta* theta - I from above (``coefficient_norm_sum``), each zero exactly
    when its identity holds almost everywhere, and ``unitary`` is the norm of
    U*U - I.  It is empty when no pair was extracted.

    ``theta`` is the extracted inner polynomial, an analytic ``MatrixSymbol``
    of degree ``theta.band``, and ``u_matrix`` the constant unitary U; both
    are None when no pair was extracted.
    """

    subspace: Subspace
    theta: MatrixSymbol | None
    u_matrix: np.ndarray | None
    classification: str
    params: dict = field(default_factory=dict)
    certification: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
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


def _check_orthonormal(bases: np.ndarray, tol: float) -> None:
    """Refuse a (G, n, r) stack of bases unless each is finite and has
    norm(B*B - I) <= 100 tol, the norms from one ``spectral_norms``."""
    count, _, r = bases.shape
    if count and r:
        if not np.isfinite(bases).all():
            raise ValueError("basis has non-finite entries")
        gram = bases.conj().transpose(0, 2, 1) @ bases
        if np.any(spectral_norms(gram - np.eye(r)) > 100 * tol):
            raise ValueError("basis columns are not orthonormal")


def _check_finite_square(t):
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError(f"operator must be a square matrix, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("operator has non-finite entries")


def _check_tol(tol):
    # a NaN tol passes every "x > 1 + tol" gate, so it is refused here
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")


def _check_contractions(stack, tol):
    """Refuse a (G, n, n) stack unless every slice is a finite contraction,
    the norms from one ``spectral_norms``."""
    _check_tol(tol)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"operators must be a (G, n, n) stack, got shape {stack.shape}")
    count = stack.shape[0]
    at = lambda g: f" (slice {g})" if count > 1 else ""
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"operator has non-finite entries{at(np.argmin(finite))}")
    if stack.size:
        norms = spectral_norms(stack)
        g = int(np.argmax(norms))
        if norms[g] > 1.0 + tol:
            raise ValueError(f"operator norm {norms[g]:.6g} exceeds 1 + tol{at(g)}")


def _check_contraction(t, tol):
    _check_finite_square(t)
    _check_contractions(t[None], tol)


def _check_window_call(sym: MatrixSymbol, window: int, tol):
    _check_tol(tol)
    if not sym.is_square:
        raise ValueError("the symbol must be square")
    if window < 1:
        raise ValueError(f"window must be positive, got {window!r}")


def _check_sup_norm(sym: MatrixSymbol, tol) -> float:
    """The sup-norm estimate on ``default_grid``; the one contractivity gate
    of the report, its window oracle and ``poly_calculus``, refusing an
    estimate above 1 + tol."""
    sup = sup_norm_estimate(sym, default_grid(sym))
    # written so that a NaN estimate is refused too
    if not sup <= 1.0 + tol:
        raise ValueError(f"symbol sup-norm estimate {sup:.6g} exceeds 1 + tol")
    return sup


def _joint_kernels(t: np.ndarray, t_adj: np.ndarray, factors: np.ndarray, tol: float) -> list:
    """Kernels of prod (T - lambda E) stacked on prod (T_adj - conj(lambda) E),
    one per row of the (G, m) array ``factors``.

    T and T_adj are one section pair, shared by every row, or (G, rows, cols)
    stacks of them.  Each factor is the leading block of T (of T_adj) on the
    previous factor's output degrees, and E = [I; 0]; for a square T it is
    all of T and E = I.  A single factor is taken as it is, with no product.
    All G kernels come from one ``nullspaces``, each with the bits of its
    matrix alone.
    """
    rows, cols = t.shape[-2:]
    excess = rows - cols
    sizes = [cols - k * excess for k in reversed(range(factors.shape[1]))]
    blocks = []
    for s, lams in ((t, factors), (t_adj, np.conj(factors))):
        steps = [s[..., :m + excess, :m] - lam[:, None, None] * np.eye(m + excess, m)
                 for m, lam in zip(sizes, lams.T)]
        blocks.append(reduce(lambda q, f: f @ q, steps))
    return nullspaces(np.concatenate(blocks, axis=1), tol)


def _near_circle(lams: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the candidate eigenvalues, those with |lambda| >= 1 - tol."""
    # hypot rounds like the scalar abs of each eigenvalue
    return np.hypot(lams.real, lams.imag) >= 1.0 - tol


def unitary_parts(stack, tol: float = DEFAULT_TOL) -> list:
    """Unitary part of each contraction in a (G, n, n) stack, as Subspaces.

    On C^n the unitary part is a finite unitary, so it is the sum of the
    eigenspaces of T at its unimodular eigenvalues.  For |lambda| = 1,
    T x = lambda x forces T* x = conj(lambda) x, since
    norm(T* x - conj(lambda) x)^2 = norm(T* x)^2 - norm(x)^2 <= 0; so each
    eigenspace is the joint kernel of T - lambda and T* - conj(lambda), and
    it reduces T.  The T* rows reject the eigenvectors of a non-normal block
    with eigenvalues near the circle.  The candidates are the eigenvalues
    with |lambda| >= 1 - tol, unmerged: one batched ``eigvals`` gives every
    slice's eigenvalues and one ``_joint_kernels`` the kernel of every
    (slice, candidate) pair.  The span of each slice's kernels is
    orthonormalized by one ``orthonormal_bases`` per group of slices with
    equal kernel widths.  Each slice's basis has the bits that the stack of
    that slice alone gives, whatever else the stack holds.  A stack that is
    not (G, n, n), has a non-finite entry or a slice of norm above 1 + tol
    raises ``ValueError``.
    """
    stack = as_complex(stack)
    _check_contractions(stack, tol)
    n = stack.shape[1]
    lams = np.linalg.eigvals(stack)
    slices, cols = np.nonzero(_near_circle(lams, tol))
    t = stack[slices]
    kernels = _joint_kernels(t, t.conj().transpose(0, 2, 1), lams[slices, cols][:, None], tol)
    spans = [[empty_basis(n)] for _ in stack]
    for g, kernel in zip(slices, kernels):
        spans[g].append(kernel)
    spans = [np.hstack(x) for x in spans]
    bases = {}
    for width in {x.shape[1] for x in spans}:
        members = [g for g, x in enumerate(spans) if x.shape[1] == width]
        bases.update(zip(members, orthonormal_bases(np.stack([spans[g] for g in members]), tol)))
    return Subspace._stack(n, [bases[g] for g in range(len(spans))], tol)


def unitary_part_matrix(t, tol: float = DEFAULT_TOL) -> Subspace:
    """Largest subspace reducing a contraction to a unitary: ``unitary_parts``
    on the stack of one."""
    t = as_complex(t)
    _check_finite_square(t)
    return unitary_parts(t[None], tol)[0]


def unitary_part_brute(t, tol: float = DEFAULT_TOL) -> Subspace:
    """Unitary part by intersecting power-defect kernels; independent oracle.

    Accumulates ker(I - T^{*m} T^m) and ker(I - T^m T^{*m}) for
    m = 1 .. 2 * ambient_dim, which leaves slack over the ambient_dim powers
    that the dimension-drop argument requires.  Each step keeps the
    ``nullspace`` of the defect restricted to the current basis.
    """
    t = as_complex(t)
    _check_contraction(t, tol)
    n = t.shape[0]
    eye = np.eye(n)
    basis = np.eye(n, dtype=complex)
    power = eye.astype(complex)
    for _ in range(2 * n):
        power = power @ t
        for defect in (eye - power.conj().T @ power, eye - power @ power.conj().T):
            if basis.shape[1] == 0:
                return Subspace(n, basis, tol)
            restricted = basis.conj().T @ defect @ basis
            kern = nullspace(restricted, tol)
            basis = normalize_column_phases(basis @ kern)
    return Subspace(n, basis, tol)


def _window_images(syms, basis: np.ndarray) -> list:
    """Exact actions of the symbols on the basis columns of a degree window.

    One (n + 2 band d, r) array per symbol, rows from degree -band on, so the
    window coefficients sit in rows band d .. band d + n - 1 (all symbols
    share the band).
    """
    r = basis.shape[1]
    blocks = basis.reshape(-1, syms[0].dim_in, r)
    return [convolve_block_columns(s, blocks).reshape(-1, r) for s in syms]


def _merged(lams, tol: float) -> list:
    """The values of ``lams`` in order, each left out when it is within tol
    of one already kept, since a repeated factor squares a small defect
    under the cut."""
    factors = []
    for lam in lams:
        if all(abs(lam - mu) > tol for mu in factors):
            factors.append(lam)
    return factors


def _candidates(mat: np.ndarray, tol: float) -> list:
    """Candidate unimodular eigenvalues of a d x d contraction: its
    eigenvalues with |lambda| >= 1 - tol (``_near_circle``), merged within
    tol (``_merged``); read on F_0 by ``_constant_part`` and on F(1) by both
    window routes, whose adjoint rows reject a candidate with no joint
    eigenvector."""
    lams = np.linalg.eigvals(mat)
    return _merged(lams[_near_circle(lams, tol)], tol)


def _constant_part(sym: MatrixSymbol, tol: float) -> np.ndarray:
    """E_c = {v : F(e^{it}) v = lambda v for every t, |lambda| = 1}, as a
    (d, c) orthonormal basis.

    Such a v has F_0 v = lambda v and F_k v = 0 for k != 0, and F* v =
    conj(lambda) v as well, since norm(F* v - conj(lambda) v)^2 =
    norm(F* v)^2 - norm(v)^2 <= 0 for a contraction; so E_c reduces every
    coefficient and T_F acts on H^2(E_c) as a constant unitary.  The
    candidates are those of F_0 (``_candidates``); for each, the joint
    kernel of the stacked coefficients [F_0 - lambda; F_k] and
    [F_0* - conj(lambda); F_k*], k != 0, from one ``_joint_kernels`` with
    E = [I; 0].  For an analytic symbol E_c is the unitary part of
    F(0) = F_0: there norm(F_0 v) = norm(v) already forces F_k v = 0 and
    F_k* v = 0 by Parseval.
    """
    f0 = sym.coeff(0)
    factors = _candidates(f0, tol)
    if not factors:
        return empty_basis(sym.dim_in)
    others = [c for k, c in sorted(sym.coeffs.items()) if k]
    t = np.vstack([f0] + others)
    t_adj = np.vstack([f0.conj().T] + [c.conj().T for c in others])
    kernels = _joint_kernels(t, t_adj, np.reshape(factors, (-1, 1)), tol)
    return orthonormal_columns(np.hstack(kernels), tol)


def _window_sections(sym: MatrixSymbol, degrees: int):
    """Sections of F and F* from degrees < degrees into degrees < degrees + band."""
    return [toeplitz_window_matrix(s, degrees, degrees + sym.band)
            for s in (sym, adjoint_symbol(sym))]


def _window_kernel(sym: MatrixSymbol, window: int, tol: float) -> np.ndarray:
    """ker q(T_F) cut with ker conj(q)(T_F*) on the window, q(x) = prod (x - lambda).

    Over the m candidates of F(1) (``_candidates``) these hold the sum of
    the joint kernels of T_F - lambda and T_F* - conj(lambda), which reduce
    T_F and carry no Jordan chain, as in ``_window_eigenspaces``; the
    factors are blocks of the exact sections from window + (m - 1) band
    degrees.
    """
    _check_window_call(sym, window, tol)
    factors = _candidates(eval_symbol(sym, 0.0), tol)
    if not factors:
        return empty_basis(sym.dim_in * window)
    t, t_adj = _window_sections(sym, window + (len(factors) - 1) * sym.band)
    return _joint_kernels(t, t_adj, np.array([factors]), tol)[0]


def _window_certificate(sym: MatrixSymbol, basis: np.ndarray) -> dict:
    """Certificate of a window subspace from the exact images of its basis.

    Analyticity, norm preservation and invariance of F and F* on
    span(basis), and unitarity of the restriction of F, all by exact
    coefficient convolution.  Each image has its window coefficients in rows
    start .. start + n - 1; the rows below them must vanish for
    analyticity, and the rows above them and the window part off the span
    for invariance.  Empty for an empty basis.
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


def _window_eigenspaces(sym: MatrixSymbol, window: int, tol: float):
    """Window part of a non-analytic symbol, or of the remainder beside its
    constant part: joint eigenspaces of T_F, T_F*.

    The part L of the unitary part that F and F* keep inside the window is
    finite and T_F is unitary on it, so it is spanned by eigenvectors
    T_F h = lambda h with |lambda| = 1; such an h has F h = lambda h a.e.,
    so det(F - lambda) vanishes wherever h does not, hence everywhere, and
    lambda is an eigenvalue of F(1).  The candidates are those of F(1)
    (``_candidates``), read at t = 0, a point of every ``CircleGrid``, so
    the gate has checked that F(1) is a contraction.  Conversely, if
    T_F h = lambda h and T_F* h = conj(lambda) h for h in the window,
    norm(F h) <= norm(h) = norm(P_+ F h) forces F h = lambda h and
    F* h = conj(lambda) h.  The window sections of F and F* into degrees
    < window + band hold T_F h and T_F* h exactly, so L is the sum of their
    joint kernels over the candidates (swap: 2 window - 2), one factor row
    per candidate in one ``_joint_kernels``; with no candidate L is zero.
    A candidate that is no constant eigenvalue of F, such as the eigenvalue
    of a non-normal block near the circle, gets an empty kernel: the T_F*
    rows reject its eigenvectors, as in ``unitary_parts``.  Returns
    (basis, trail: route, kernel_factors).
    """
    factors = _candidates(eval_symbol(sym, 0.0), tol)
    trail = {"route": "kernel", "kernel_factors": len(factors)}
    if not factors:
        return empty_basis(sym.dim_in * window), trail
    t, t_adj = _window_sections(sym, window)
    kernels = _joint_kernels(t, t_adj, np.reshape(factors, (-1, 1)), tol)
    return orthonormal_columns(np.hstack(kernels), tol), trail


def _remainder_window_part(sym: MatrixSymbol, e_c: np.ndarray, window: int, tol: float):
    """Window part of the remainder of F beside its constant part E_c.

    E_c reduces every coefficient, so F = F|E_c + F' with F' = Q'* F Q' on
    the orthocomplement Q' of E_c, and the window part of F' is found by
    ``_window_eigenspaces`` and lifted as kron(I, Q') K'.  With E_c = 0 the
    remainder is F itself and K' is returned as it is.  Returns (basis,
    trail) like ``_window_eigenspaces``.
    """
    c, d = e_c.shape[1], sym.dim_in
    if c == 0:
        return _window_eigenspaces(sym, window, tol)
    if c == d:
        return empty_basis(d * window), {"route": "kernel", "kernel_factors": 0}
    q = nullspace(e_c.conj().T, tol)
    rest = MatrixSymbol(d - c, d - c, {k: q.conj().T @ f @ q for k, f in sym.coeffs.items()})
    kernel, trail = _window_eigenspaces(rest, window, tol)
    r = kernel.shape[1]
    return (q @ kernel.reshape(window, d - c, r)).reshape(d * window, r), trail


def _column_degrees(blocks: np.ndarray, tol: float) -> np.ndarray:
    """Degree of each column of a (degrees, dim, r) coefficient stack: its
    last block whose norm is above the rank cut on the column's block norms
    (``above_cut``), 0 for a zero column."""
    live = above_cut(np.linalg.norm(blocks, axis=1).T, tol)
    return np.where(live.any(axis=1), len(blocks) - 1 - np.argmax(live[:, ::-1], axis=1), 0)


def window_span(theta: MatrixSymbol, window: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Theta H^2 cut with the window: the orthonormal span of the shifts
    z^k theta_j that fit in it.

    Column j of theta has degree delta_j (``_column_degrees``) and gives the
    shifts k < window - delta_j.  When theta is column reduced, as the
    symbol families' generators are, the predictable-degree property
    (Forney 1975) makes this all of Theta H^2 cut with the window, of
    dimension sum_j (window - delta_j).  A theta with a negative Fourier
    index or a window below 1 raises ``ValueError``.
    """
    if not theta.is_analytic:
        raise ValueError("symbol has negative Fourier coefficients")
    if window < 1:
        raise ValueError(f"window must be positive, got {window!r}")
    blocks = np.stack([theta.coeff(k) for k in range(theta.band + 1)])
    columns = [empty_basis(theta.dim_out * window)]
    for j, dj in enumerate(_column_degrees(blocks, tol)):
        if dj < window:
            col = MatrixSymbol(theta.dim_out, 1, {k: blocks[k, :, j:j + 1] for k in range(dj + 1)})
            columns.append(toeplitz_window_matrix(col, window - dj, window))
    return orthonormal_columns(np.hstack(columns), tol)


def beurling_extract(m: Subspace, dim: int, tol: float = DEFAULT_TOL) -> ExtractionResult:
    """Extract the inner polynomial generating a shift-invariant window subspace.

    The wandering space m minus (shift of m) has an orthonormal basis that,
    read as polynomial columns, is the candidate inner polynomial.  Reported
    diagnostics: shift-invariance of the input and how much of the input
    span the candidate's polynomial multiples (``window_span``) miss.
    """
    if m.dim == 0:
        raise ValueError("cannot extract from the zero subspace")
    if dim < 1 or m.ambient_dim % dim:
        raise ValueError(f"coefficient dim {dim} must be positive and divide the ambient dim")
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
    # theta's degree is the largest column degree, the rule of window_span
    degree = _column_degrees(blocks, tol).max()
    theta = MatrixSymbol(dim, r, {k: blocks[k] for k in range(degree + 1)})
    span = window_span(theta, window, tol)
    span_residual = spectral_norm(m.basis - span @ (span.conj().T @ m.basis))

    return ExtractionResult(
        theta=theta,
        shift_residual=shift_residual,
        span_residual=span_residual,
    )


def _pair_residuals(sym: MatrixSymbol, theta: MatrixSymbol, u,
                    f_theta: MatrixSymbol) -> dict:
    """Residuals of the pair (theta, U) for the symbol F, as documented by
    ``verify_maincondn``.  ``f_theta`` is the product F theta, which
    ``extract_constant_unitary`` has already formed to find U.
    """
    fwd = f_theta.add(multiply(theta, MatrixSymbol.constant(-u)))
    adj = multiply(adjoint_symbol(sym), theta).add(
        multiply(theta, MatrixSymbol.constant(-u.conj().T)))
    return {
        "intertwine_fwd": coefficient_norm_sum(fwd),
        "intertwine_adj": coefficient_norm_sum(adj),
        "inner": is_inner(theta).residual,
        "unitary": spectral_norm(u.conj().T @ u - np.eye(theta.dim_in)),
    }


def extract_constant_unitary(sym: MatrixSymbol, theta: MatrixSymbol):
    """Constant unitary intertwined with the symbol through an inner polynomial.

    U is the zeroth Fourier coefficient of theta* F theta (exact coefficient
    convolution).  Returns U and the raw residuals of the pair (theta, U),
    the four that ``verify_maincondn`` computes.
    """
    f_theta = multiply(sym, theta)
    u = multiply(adjoint_symbol(theta), f_theta).coeff(0)
    return u, _pair_residuals(sym, theta, u, f_theta)


def verify_maincondn(sym: MatrixSymbol, theta: MatrixSymbol, u,
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
    residuals = _pair_residuals(sym, theta, u, multiply(sym, theta))
    return all(v <= tol for v in residuals.values()), residuals


def toeplitz_unitary_part(sym: MatrixSymbol, window: int,
                          tol: float = DEFAULT_TOL) -> UnitaryPartReport:
    """Window decomposition of a contractive block Toeplitz operator.

    Finds the largest subspace of polynomials of degree < window on which the
    exact symbol action is analytic, norm preserving and invariant in both
    directions, then attempts to extract the generating inner polynomial and
    the constant unitary it intertwines.  Every residual that backs the
    classification is carried in the report.

    Every window part starts as kron(I, E_c), E_c the constant part of F
    (``_constant_part``).  For an analytic symbol that is all of it (the
    paper's analytic correspondence: ``route`` ``analytic``); any other
    symbol adds the joint eigenspaces of T_F' and T_F'* on the remainder F'
    beside E_c (``_remainder_window_part``, ``route`` ``kernel``).  Both
    certify the result with F itself, and ``params`` records the route,
    ``constant_part`` (dim E_c) and the remainder's merged candidate count
    ``kernel_factors``.  When the remainder adds nothing, the pair is read
    off in closed form, theta = E_c and U = E_c* F_0 E_c, and
    ``extraction_residuals`` is empty; otherwise ``beurling_extract`` runs
    on the whole subspace.  A non-finite or non-positive tol is refused, and
    so is a symbol that fails the contractivity gate ``_check_sup_norm``, on
    the grid that ``toeplitz_unitary_part_brute`` and ``poly_calculus`` use
    too (``params.grid_size`` records its size).
    """
    _check_window_call(sym, window, tol)
    sup = _check_sup_norm(sym, tol)

    d = sym.dim_out
    e_c = _constant_part(sym, tol)
    rest, trail = empty_basis(d * window), {"route": "analytic", "kernel_factors": 0}
    if not sym.is_analytic:
        rest, trail = _remainder_window_part(sym, e_c, window, tol)
    basis = np.hstack([np.kron(np.eye(window), e_c), rest]) if e_c.shape[1] else rest
    cert = _window_certificate(sym, basis)
    subspace = Subspace(d * window, basis, tol)
    params = {
        "window": window,
        "band": sym.band,
        "dim": d,
        "tol": tol,
        "grid_size": default_grid(sym).size,
        "sup_norm_estimate": sup,
        "constant_part": e_c.shape[1],
        **trail,
    }

    theta = u = None
    residuals, diagnostics = {}, {}
    classification = "trivial" if subspace.dim == 0 else "extraction_inconclusive"
    if subspace.dim and not rest.shape[1]:
        theta = MatrixSymbol.constant(e_c)
    elif subspace.dim:
        try:
            extraction = beurling_extract(subspace, d, tol)
        except ValueError as exc:
            params["extraction_error"] = str(exc)
        else:
            theta = extraction.theta
            diagnostics = {"shift_invariance": extraction.shift_residual,
                           "span": extraction.span_residual}
    if theta is not None:
        u, residuals = extract_constant_unitary(sym, theta)
        # beurling_extract refuses a shift residual over tol, so of the
        # diagnostics only the span residual can fail here
        if all(v <= tol for v in (*residuals.values(), *diagnostics.values())):
            classification = "constant_type"
    return UnitaryPartReport(
        subspace=subspace, theta=theta, u_matrix=u,
        classification=classification, params=params, certification=cert,
        residuals=residuals, extraction_residuals=diagnostics,
    )


def toeplitz_unitary_part_brute(sym: MatrixSymbol, window: int,
                                tol: float = DEFAULT_TOL) -> Subspace:
    """Window polynomials h with norm(T_F^m h) = norm(h) = norm(T_F*^m h) for
    m = 1 .. d window, the defining equations of the unitary part (Sz.-Nagy -
    Foias); independent oracle, with no candidate eigenvalues.

    It steps the operator, not a symbol power: with Y = F^(m-1) h and
    Z = (F*)^(m-1) h kept as exact Laurent images, step m asks for
    (I - F*F) Y = 0, (I - FF*) Z = 0 and F Y, F* Z analytic, then takes
    Y <- F Y and Z <- F* Z.  For a contraction I - F*F >= 0 pointwise, so
    (I - F*F) g = 0 exactly when norm(F g) = norm(g); over m these rows are
    the power identities (F*)^m F^m h = h = F^m (F*)^m h.  The symbol is
    gated like ``toeplitz_unitary_part``.  Each step keeps one ``nullspace``
    of its rows on the current basis, for analytic symbols too; the result
    contains the window restriction of the true unitary part.
    """
    _check_window_call(sym, window, tol)
    _check_sup_norm(sym, tol)
    d = sym.dim_out
    n = d * window
    adj = adjoint_symbol(sym)
    eye = MatrixSymbol.constant(np.eye(d))
    steps = ((sym, eye.add(multiply(adj, sym).scale(-1))),
             (adj, eye.add(multiply(sym, adj).scale(-1))))
    basis = np.eye(n, dtype=complex)
    images = [basis.reshape(window, d, n)] * 2
    for m in range(1, n + 1):
        r = basis.shape[1]
        if r == 0:
            break
        rows = []
        for i, (s, defect) in enumerate(steps):
            rows.append(convolve_block_columns(defect, images[i]))
            images[i] = convolve_block_columns(s, images[i])
            rows.append(images[i][:sym.band * m])
        kern = nullspace(np.vstack([x.reshape(-1, r) for x in rows]), tol)
        basis = basis @ kern
        images = [img @ kern for img in images]
    return Subspace(n, normalize_column_phases(basis), tol)


def reducing_check(v_basis, a, tol: float = DEFAULT_TOL) -> bool:
    """Whether the range of an isometry reduces ``a``, via the commutator test."""
    v = as_complex(v_basis)
    a = as_complex(a)
    # a need not be a contraction, so only its shape and entries are checked
    _check_finite_square(a)
    if v.ndim != 2 or v.shape[0] != a.shape[0]:
        raise ValueError(f"basis must be a matrix with {a.shape[0]} rows, got shape {v.shape}")
    _check_orthonormal(v[None], tol)
    proj = v @ v.conj().T
    return spectral_norm(a @ proj - proj @ a) <= tol


def cdot0_test(a, tol: float = DEFAULT_TOL) -> bool:
    """Whether the powers of a contraction tend to zero: it has no candidate
    unimodular eigenvalue (``_candidates``), so its spectral radius is < 1 - tol."""
    a = as_complex(a)
    _check_contraction(a, tol)
    return not _candidates(a, tol)


def poly_calculus(sym: MatrixSymbol, poly_coeffs, window: int,
                  tol: float = DEFAULT_TOL) -> np.ndarray:
    """Polynomial function of an analytic Toeplitz operator, on the window.

    Builds u(T) column by column with exact repeated symbol application; the
    returned rectangular matrix maps degrees < window into the enlarged exact
    window and its norm is checked against 1 + tol (von Neumann bound, since
    |u| < 1 on the boundary grid is required).  u needs at least one
    coefficient, all finite.
    """
    _check_window_call(sym, window, tol)
    if not sym.is_analytic:
        raise ValueError("polynomial calculus needs an analytic symbol")
    coeffs = np.atleast_1d(as_complex(poly_coeffs).ravel())
    if coeffs.size == 0 or not np.all(np.isfinite(coeffs)):
        raise ValueError("scalar polynomial needs one or more finite coefficients")
    _check_sup_norm(sym, tol)
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
