"""Unitary system matrices and transfer-function evaluation.

A colligation is a block matrix

    W = [[A, B],
         [C, D]]  on  E + K,   A: E->E,  B: K->E,  C: E->K,  D: K->K,

unitary as a whole, realizing the Schur-class function

    tau_W(z) = A + z B (I - z D)^{-1} C        (|z| < 1).

Unitarity of W forces the two defect identities

    I - tau(z) tau(z)* = (1 - |z|^2) B (I - zD)^{-1} (I - conj(z) D*)^{-1} B*,
    I - tau(z)* tau(z) = (1 - |z|^2) C* (I - conj(z) D*)^{-1} (I - zD)^{-1} C,

which in particular make tau_W contractive on the disc.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, as_complex, block_diag, spectral_norm, spectral_norms
from .symbols import MatrixSymbol


@dataclass(frozen=True, eq=False)
class Colligation:
    """System matrix blocks; ``dim_e`` is the I/O space, ``dim_k`` the state space."""

    dim_e: int
    dim_k: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        if self.dim_e < 1 or self.dim_k < 0:
            raise ValueError("dim_e must be positive and dim_k nonnegative")
        shapes = {
            "A": (self.dim_e, self.dim_e),
            "B": (self.dim_e, self.dim_k),
            "C": (self.dim_k, self.dim_e),
            "D": (self.dim_k, self.dim_k),
        }
        for name, want in shapes.items():
            mat = as_complex(getattr(self, name))
            if mat.shape != want:
                raise ValueError(f"block {name} has shape {mat.shape}, expected {want}")
            if not np.all(np.isfinite(mat)):
                raise ValueError(f"block {name} has non-finite entries")
            mat = mat.copy()
            mat.setflags(write=False)
            object.__setattr__(self, name, mat)

    @property
    def system_matrix(self) -> np.ndarray:
        top = np.hstack([self.A, self.B])
        bottom = np.hstack([self.C, self.D])
        return np.vstack([top, bottom])


@dataclass(frozen=True)
class ColligationReport:
    """Residuals of W*W = I and WW* = I."""

    residual_left: float
    residual_right: float
    tol: float

    @property
    def is_valid(self) -> bool:
        return max(self.residual_left, self.residual_right) <= self.tol


@dataclass(frozen=True)
class TransferReport:
    """Grid maxima of the transfer-function defect identities."""

    lambda_grid: tuple
    max_defect1: float
    max_defect2: float
    max_norm: float


def validate(w: Colligation, tol: float = DEFAULT_TOL) -> ColligationReport:
    """Residuals of unitarity of the full system matrix.

    The single check W*W = I = WW* implies the familiar block identities
    (A*A + C*C = I, A*B + C*D = 0, DD* + CC* = I, ...) all at once.
    """
    m = w.system_matrix
    eye = np.eye(w.dim_e + w.dim_k)
    return ColligationReport(
        residual_left=spectral_norm(m.conj().T @ m - eye),
        residual_right=spectral_norm(m @ m.conj().T - eye),
        tol=tol,
    )


def tau_eval(w: Colligation, lam) -> np.ndarray:
    """Evaluate the transfer function at a point of the open disc.

    ``lam`` may also be an array of points: the values then stack along its
    axes, each slice with the bits of the scalar call at its point, since
    the solves and products run one slice at a time and the rest is
    elementwise.  The resolvent factor is applied through a linear solve,
    never an explicit inverse; ``I - lam D`` is invertible because
    ``norm(D) <= 1`` and |lam| < 1.  A point off the open disc, NaN
    included, raises ``ValueError`` naming it.
    """
    pts = np.asarray(lam, dtype=complex)
    # "not < 1" refuses NaN too; hypot rounds like the scalar abs
    off = ~(np.hypot(pts.real, pts.imag) < 1.0)
    if off.any():
        raise ValueError("transfer function evaluated only on |lambda| < 1, "
                         f"got lambda={complex(pts[off][0])!r}")
    if w.dim_k == 0:
        return np.broadcast_to(w.A, pts.shape + w.A.shape).copy()
    z = pts[..., None, None]
    eye_k = np.eye(w.dim_k)
    try:
        resolved = np.linalg.solve(eye_k - z * w.D, w.C)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"resolvent solve failed at lambda={lam!r}") from exc
    return w.A + z * (w.B @ resolved)


def defect_identities(w: Colligation, lambda_grid) -> TransferReport:
    """Check both defect identities on a grid of disc points.

    Residuals stay at rounding level for genuinely unitary colligations and
    grow past the perturbation size for invalid ones.  The whole grid takes
    one stacked pass: ``tau_eval`` (which refuses a point off the open disc),
    batched solves, and one ``spectral_norms`` for the three maxima, each
    within 8 eps (relative) of the SVD's.  An empty grid raises ``ValueError``.
    """
    pts = tuple(complex(z) for z in lambda_grid)
    if not pts:
        raise ValueError("defect identities need a non-empty lambda grid")
    z = np.array(pts)
    phi = tau_eval(w, z)
    phi_adj = phi.conj().transpose(0, 2, 1)
    defect1 = np.eye(w.dim_e) - phi @ phi_adj
    defect2 = np.eye(w.dim_e) - phi_adj @ phi
    if w.dim_k:
        z = z[:, None, None]
        factor = 1.0 - np.hypot(z.real, z.imag) ** 2
        fwd = np.eye(w.dim_k) - z * w.D
        adj = fwd.conj().transpose(0, 2, 1)
        defect1 -= factor * (w.B @ np.linalg.solve(fwd, np.linalg.solve(adj, w.B.conj().T)))
        defect2 -= factor * (w.C.conj().T @ np.linalg.solve(adj, np.linalg.solve(fwd, w.C)))
    norms = spectral_norms(np.concatenate([defect1, defect2, phi])).reshape(3, -1)
    return TransferReport(pts, *(float(v) for v in norms.max(axis=1)))


def bcl_colligation(u, p, tol: float = DEFAULT_TOL) -> Colligation:
    """Colligation with D = 0 realizing tau(z) = U ((I - P) + z P).

    ``u`` must be unitary and ``p`` an orthogonal projection; the state space
    is the range of P with an orthonormal basis Q, giving A = U(I - P),
    B = UQ (an isometry), C = Q* (a coisometry) and BC = UP.
    """
    u = as_complex(u)
    p = as_complex(p)
    n = u.shape[0]
    eye = np.eye(n)
    if spectral_norm(u.conj().T @ u - eye) > tol:
        raise ValueError("first argument is not unitary")
    if spectral_norm(p @ p - p) > tol or spectral_norm(p - p.conj().T) > tol:
        raise ValueError("second argument is not an orthogonal projection")
    rank = int(round(np.trace(p).real))
    if rank == 0:
        return Colligation(n, 0, u, np.zeros((n, 0)), np.zeros((0, n)), np.zeros((0, 0)))
    vals, vecs = np.linalg.eigh(0.5 * (p + p.conj().T))
    q = vecs[:, vals > 0.5]  # eigenvalues cluster at 0 and 1
    if q.shape[1] != rank:
        raise ValueError("projection rank is numerically ambiguous")
    return Colligation(
        dim_e=n,
        dim_k=rank,
        A=u @ (eye - p),
        B=u @ q,
        C=q.conj().T,
        D=np.zeros((rank, rank)),
    )


def polynomial_from_colligation(w: Colligation, tol: float = DEFAULT_TOL) -> MatrixSymbol:
    """Expand tau_W into an exact polynomial when D is nilpotent.

    tau_W(z) = A + sum_{k>=1} z^k B D^{k-1} C; the series terminates at the
    nilpotency index of D.  The result is an analytic symbol, so its degree
    is ``band``.  Colligations with non-nilpotent D are rejected, callers
    must evaluate tau_W pointwise instead.
    """
    coeffs = {0: w.A}
    power = np.eye(w.dim_k, dtype=complex)
    for k in range(1, w.dim_k + 2):
        if spectral_norm(power) <= tol:
            return MatrixSymbol(w.dim_e, w.dim_e, coeffs)
        coeffs[k] = w.B @ power @ w.C
        power = power @ w.D
    raise ValueError("state block D is not nilpotent; use tau_eval directly")


def embed_unitary_block(u0, w: Colligation) -> Colligation:
    """Direct sum of a unitary acting on fresh leading coordinates with ``w``.

    The result has A = diag(u0, w.A) and zero coupling between the new
    coordinates and the state space, so the planted block is reducing both for
    A and for the transfer function at every disc point.
    """
    u0 = as_complex(u0)
    d0 = u0.shape[0]
    b = np.vstack([np.zeros((d0, w.dim_k)), w.B])
    c = np.hstack([np.zeros((w.dim_k, d0)), w.C])
    return Colligation(d0 + w.dim_e, w.dim_k, block_diag([u0, w.A]), b, c, w.D)


def disc_grid(n: int, radius: float = 0.9) -> np.ndarray:
    """n equally spaced points on the circle of the given radius (|z| < 1).

    Raises ``ValueError`` unless n >= 1 and 0 <= radius < 1: on an empty grid
    every grid check would pass without evaluating anything.
    """
    if n < 1:
        raise ValueError("disc grid needs at least one point")
    if not 0.0 <= radius < 1.0:
        raise ValueError("disc grid radius must lie in [0, 1)")
    return radius * np.exp(2j * np.pi * np.arange(n) / n)
