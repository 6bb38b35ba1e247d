"""Dense linear-algebra helpers shared across the package.

Only this module decides a rank, always at ``tol * max(largest singular
value, 1)`` (``above_cut``, which also cuts a polynomial column's block
norms to its degree).  The floor at 1 keeps kernels of numerically-zero
matrices well defined: everything in this package is built from
contractions, so 1 is the natural scale.

Kernels (``nullspaces``) and spans (``orthonormal_bases``) take (G, m, n)
stacks, each slice with the bits of its matrix alone; ``nullspace`` and
``orthonormal_columns`` are stacks of one.  Kernels need only the singular
values and right singular vectors (``right_svd``); tall inputs take them from
the SVD of the QR R factor, with the same bits as the plain SVD.

The norm of one matrix (``spectral_norm``) is its first singular value from
one SVD.  Stacks of small matrices, as the circle and disc checks make, go
through ``spectral_norms``, which takes the largest eigenvalue of a scaled
Gram matrix instead: within 8 eps (relative) of the SVD, and with bits that
depend only on the slice, not on the rest of the stack.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-8
# fewest columns for the R-factor route of ``right_svd``: below this the QR
# costs more than the left factor it saves (crossover measured at 2-6 rows per
# column on a 2-vCPU x86-64 host with one OpenBLAS thread)
R_FACTOR_MIN_COLS = 16


def as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


def spectral_norm(a) -> float:
    """Largest singular value; 0.0 for empty matrices."""
    a = as_complex(a)
    if a.size == 0:
        return 0.0
    # the first singular value, as ``np.linalg.norm(a, 2)`` takes it, without
    # its axis moves and ``amax``
    return float(np.linalg.svd(a, compute_uv=False)[0])


def _as_stack(stack, name: str) -> np.ndarray:
    stack = as_complex(stack)
    if stack.ndim != 3:
        raise ValueError(f"{name} needs a (G, m, n) stack, got shape {stack.shape}")
    return stack


def spectral_norms(stack) -> np.ndarray:
    """Largest singular value of each matrix in a (G, m, n) stack.

    Each slice is scaled by its largest entry modulus s, so no Gram entry
    overflows or underflows, and sigma_1 = s * sqrt(lambda_max(G)) for the
    Gram matrix G = A^H A on the smaller side.  A 1 x 1 or 2 x 2 Gram is
    built elementwise and its largest eigenvalue taken in closed form,
    (p + q)/2 + hypot((p - q)/2, |b|), which adds only positive terms; a
    larger one goes through one batched ``eigvalsh``.  lambda_max is
    perturbed by at most a few eps * ||A||^2, so each entry is within 8 eps
    (relative) of the SVD's sigma_1, not bitwise equal to it.  Every
    slice is computed on its own: an entry has the same bits whatever else
    the stack holds.  Empty and zero matrices give 0.0.  A stack that is
    not 3-D, or has a non-finite entry, raises ``ValueError``.
    """
    stack = _as_stack(stack, "spectral_norms")
    count, rows, cols = stack.shape
    if rows == 0 or cols == 0:
        return np.zeros(count)
    scale = np.abs(stack).max(axis=(1, 2))
    if not np.all(np.isfinite(scale)):
        raise ValueError("spectral_norms: stack has non-finite entries")
    a = stack / np.where(scale > 0.0, scale, 1.0)[:, None, None]
    if rows < cols:
        a = a.transpose(0, 2, 1)
    if a.shape[2] == 1:
        lam = (a.real ** 2 + a.imag ** 2).sum(axis=(1, 2))
    elif a.shape[2] == 2:
        x, y = a[:, :, 0], a[:, :, 1]
        p = (x.real ** 2 + x.imag ** 2).sum(axis=1)
        q = (y.real ** 2 + y.imag ** 2).sum(axis=1)
        b = (x.conj() * y).sum(axis=1)
        lam = 0.5 * (p + q) + np.hypot(0.5 * (p - q), np.abs(b))
    else:
        lam = np.linalg.eigvalsh(a.conj().transpose(0, 2, 1) @ a)[:, -1]
    return np.sqrt(np.maximum(lam, 0.0)) * scale


def block_diag(mats) -> np.ndarray:
    """Block-diagonal matrix of the (possibly rectangular or empty) blocks."""
    out = np.zeros(np.sum([np.shape(m) for m in mats], axis=0, dtype=int), dtype=complex)
    r = c = 0
    for m in mats:
        out[r:r + m.shape[0], c:c + m.shape[1]] = m
        r, c = r + m.shape[0], c + m.shape[1]
    return out


def empty_basis(n: int) -> np.ndarray:
    return np.zeros((n, 0), dtype=complex)


def normalize_column_phases(b: np.ndarray) -> np.ndarray:
    """Scale each column so its first significantly-nonzero entry is real positive.

    Makes orthonormalization output deterministic for golden-file tests.
    ``b`` is an (n, r) matrix or a (..., n, r) stack of them; every column is
    scaled on its own, by whole-array operations whose bits do not depend on
    the array's shape, so each slice of a stack, and each column, gets the
    bits that the 2-D call on it alone gives.  Zero columns are left as they
    are.  The pivot moduli come from ``hypot``, which rounds like the scalar
    ``abs`` (array ``abs`` of complex entries can differ by one ulp), so the
    output is bitwise equal to a per-column loop.
    """
    b = as_complex(b)
    if b.size == 0:
        return b.copy()
    flat = b.reshape((-1,) + b.shape[-2:])
    mags = np.abs(flat)
    top = mags.max(axis=1)
    first = np.argmax(mags > 1e-12 * top[:, None], axis=1)
    pivots = flat[np.arange(flat.shape[0])[:, None], first, np.arange(flat.shape[2])]
    moduli = np.hypot(pivots.real, pivots.imag)
    live = top > 0.0
    out = flat * np.conj(pivots / np.where(live, moduli, 1.0))[:, None]
    if not live.all():
        out = np.where(live[:, None], out, flat)
    return out.reshape(b.shape)


def above_cut(values: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the nonnegative ``values`` above the cut tol * max(sigma_1, 1),
    sigma_1 the largest value of each row along the last axis."""
    top = np.max(values, axis=-1, keepdims=True, initial=0.0)
    return values > tol * np.maximum(top, 1.0)


def _rank(s: np.ndarray, tol: float):
    """Count of singular values above the cut (``above_cut``).

    ``s`` holds descending singular values along its last axis, one row per
    matrix of a stack; an empty row gives 0.
    """
    return above_cut(s, tol).sum(axis=-1)


def orthonormal_bases(stack, tol: float = DEFAULT_TOL) -> list:
    """Orthonormal basis of the range of each matrix in a (G, m, n) stack:
    the first rank_g left singular vectors of slice g, from one batched SVD.
    Each has the bits of its matrix alone; the phases are set column by
    column, only up to the largest rank."""
    stack = _as_stack(stack, "orthonormal_bases")
    if stack.size == 0:
        return [empty_basis(stack.shape[1]) for _ in stack]
    u, s, _ = np.linalg.svd(stack, full_matrices=False)
    ranks = _rank(s, tol)
    u = normalize_column_phases(u[:, :, :ranks.max()])
    return [basis[:, :r] for basis, r in zip(u, ranks)]


def orthonormal_columns(x, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the range of ``x``: a stack of one."""
    return orthonormal_bases(as_complex(x)[None], tol)[0]


def right_svd(a: np.ndarray, full_matrices: bool = False):
    """Singular values and right singular vectors ``(s, vh)`` of ``a``.

    Equal, bit for bit, to the ``s`` and ``vh`` of ``np.linalg.svd(a,
    full_matrices)``, for a matrix or a (G, rows, cols) stack.  An economy
    SVD with rows >= 2 cols and cols >= R_FACTOR_MIN_COLS runs on the R
    factor of ``a``: zgesdd factors such inputs by QR first itself, and only
    its left factor, which is not formed here, needs the Q.
    """
    rows, cols = a.shape[-2:]
    if not full_matrices and rows >= 2 * cols and cols >= R_FACTOR_MIN_COLS:
        a = np.linalg.qr(a, mode="r")
    _, s, vh = np.linalg.svd(a, full_matrices=full_matrices)
    return s, vh


def nullspaces(stack, tol: float = DEFAULT_TOL) -> list:
    """Orthonormal basis of the kernel of each matrix in a (G, m, n) stack:
    the trailing n - rank_g right singular vectors of slice g, from one
    batched ``right_svd``.  Each has the bits of its matrix alone; the phases
    are set column by column, only from the smallest rank on."""
    stack = _as_stack(stack, "nullspaces")
    if stack.size == 0:
        return [np.eye(stack.shape[2], dtype=complex) for _ in stack]
    # the economy SVD already carries the full right factor when rows >= cols
    s, vh = right_svd(stack, full_matrices=stack.shape[1] < stack.shape[2])
    ranks = _rank(s, tol)
    low = ranks.min()
    v = normalize_column_phases(vh[:, low:].conj().transpose(0, 2, 1))
    return [basis[:, r - low:] for basis, r in zip(v, ranks)]


def nullspace(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of ``ker a``, of shape (a.shape[1], k): a stack of one."""
    return nullspaces(as_complex(a)[None], tol)[0]


def subspace_gap(b1, b2) -> float:
    """Operator-norm distance between the two range projectors."""
    b1 = as_complex(b1)
    b2 = as_complex(b2)
    return spectral_norm(b1 @ b1.conj().T - b2 @ b2.conj().T)


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_projection(n: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Random rank-``rank`` orthogonal projection on C^n."""
    if rank == 0:
        return np.zeros((n, n), dtype=complex)
    q = haar_unitary(n, rng)[:, :rank]
    return q @ q.conj().T

