"""Seeded benchmark inputs whose decompositions are known by construction.

Every generator here is the benchmark's own code and draws only from the
``numpy.random.Generator`` it is given.  The package's scenario generators
(``random_trig_scalar``, ``planted_block_symbol``, ...) are not used, so the
benchmark inputs stay fixed when those generators change.

Each ``Case`` carries the symbol coefficients, the window to decompose on,
and the expected answer: the subspace dimension, an orthonormal basis of the
expected window subspace, and the classifications accepted for it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# Fine grid for the certified sup-norm bound.  Bernstein's inequality for a
# trigonometric polynomial of degree ``band`` gives
#     sup |F| <= grid max / (1 - pi * band / G),
# so scaling by that bound makes every input a genuine contraction.
FINE_GRID = 4096

TRIVIAL = ("trivial",)
CONSTANT_TYPE = ("constant_type",)
# the swap family is certified but not yet extracted; a (theta, U) pair for
# non-constant inner generators would make it constant_type
SWAP_CLASSES = ("extraction_inconclusive", "constant_type")


@dataclass(frozen=True, eq=False)
class Case:
    """One decomposition input with its known answer."""

    name: str
    window: int
    coeffs: dict
    expected_basis: np.ndarray
    classifications: tuple

    @property
    def dim(self) -> int:
        return next(iter(self.coeffs.values())).shape[0]

    @property
    def expected_dim(self) -> int:
        return self.expected_basis.shape[1]


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def ginibre(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def certified_sup_bound(coeffs: dict) -> float:
    """Upper bound on the sup norm of the symbol on the whole circle."""
    band = max(abs(k) for k in coeffs)
    t = 2.0 * np.pi * np.arange(FINE_GRID) / FINE_GRID
    values = sum(np.exp(1j * k * t)[:, None, None] * c for k, c in coeffs.items())
    grid_max = float(np.max(np.linalg.norm(values, ord=2, axis=(1, 2))))
    return grid_max / (1.0 - math.pi * band / FINE_GRID)


def window_basis(dim: int, window: int, vectors) -> np.ndarray:
    """Orthonormal basis of span{v z^j} for the given (v, degrees) pairs."""
    cols = []
    for vec, degrees in vectors:
        for j in degrees:
            col = np.zeros(dim * window, dtype=complex)
            col[j * dim:(j + 1) * dim] = vec
            cols.append(col)
    if not cols:
        return np.zeros((dim * window, 0), dtype=complex)
    return np.column_stack(cols)


def planted_case(rng, d0: int, d1: int, window: int, band: int = 2,
                 tail_sup: float = 0.5) -> Case:
    """diag(W0, tail): W0 Haar unitary, tail a band-limited strict contraction.

    The unitary part on the window is every polynomial with coefficients in
    the W0 coordinates.
    """
    d = d0 + d1
    w0 = haar_unitary(d0, rng)
    tail = {k: ginibre(d1, rng) for k in range(-band, band + 1)}
    scale = tail_sup / certified_sup_bound(tail)
    coeffs = {}
    for k in range(-band, band + 1):
        c = np.zeros((d, d), dtype=complex)
        c[d0:, d0:] = scale * tail[k]
        if k == 0:
            c[:d0, :d0] = w0
        coeffs[k] = c
    eye = np.eye(d)
    basis = window_basis(d, window, [(eye[i], range(window)) for i in range(d0)])
    return Case(f"planted_d{d}_w{window}", window, coeffs, basis, CONSTANT_TYPE)


def colligation_case(rng, d0: int, d1: int, window: int, rank: int) -> Case:
    """Transfer polynomial A + z B C of a planted unitary colligation.

    W = [[A, B], [C, D]] with A = diag(U0, U1 (I - P)), B = [0; U1 Q],
    C = [0, Q*], D = 0, for Haar U0, U1 and a random projection P = Q Q* of
    the given rank (1 .. d1).  D = 0 makes the transfer function the
    degree-one polynomial A + z B C; the planted U0 block spans the unitary
    part.
    """
    d = d0 + d1
    u0 = haar_unitary(d0, rng)
    u1 = haar_unitary(d1, rng)
    q = haar_unitary(d1, rng)[:, :rank]
    p = q @ q.conj().T
    a = np.zeros((d, d), dtype=complex)
    a[:d0, :d0] = u0
    a[d0:, d0:] = u1 @ (np.eye(d1) - p)
    b = np.vstack([np.zeros((d0, rank)), u1 @ q])
    c = np.hstack([np.zeros((rank, d0)), q.conj().T])
    eye = np.eye(d)
    basis = window_basis(d, window, [(eye[i], range(window)) for i in range(d0)])
    return Case(f"colligation_d{d}_w{window}", window, {0: a, 1: b @ c}, basis,
                CONSTANT_TYPE)


def scalar_case(rng, window: int, band: int = 4) -> Case:
    """Nonconstant scalar trigonometric polynomial scaled below sup norm 1.

    Nonconstant contractive scalar symbols are completely non-unitary, so
    the expected window subspace is zero.
    """
    coeffs = {k: ginibre(1, rng) for k in range(-band, band + 1)}
    scale = 1.0 / certified_sup_bound(coeffs)
    coeffs = {k: scale * c for k, c in coeffs.items()}
    return Case(f"scalar_w{window}", window, coeffs,
                np.zeros((window, 0), dtype=complex), TRIVIAL)


def swap_case(rng, window: int) -> Case:
    """Q S Q* for the swap symbol S = [[0, phi z], [conj(phi) / z, 0]].

    S is a unitary involution; its window unitary part is
    {(z^j, 0): 1 <= j <= w-1} + {(0, z^j): 0 <= j <= w-2}, rotated by Q.
    """
    phase = np.exp(2j * np.pi * rng.uniform())
    q = haar_unitary(2, rng)
    e12 = np.array([[0.0, phase], [0.0, 0.0]])
    e21 = np.array([[0.0, 0.0], [np.conj(phase), 0.0]])
    coeffs = {1: q @ e12 @ q.conj().T, -1: q @ e21 @ q.conj().T}
    basis = window_basis(2, window, [(q[:, 0], range(1, window)),
                                     (q[:, 1], range(window - 1))])
    return Case(f"swap_w{window}", window, coeffs, basis, SWAP_CLASSES)


def symbol_json(case: Case) -> dict:
    """The CLI's symbol file format."""
    return {
        "dim_out": case.dim,
        "dim_in": case.dim,
        "coeffs": [{"k": k, "re": c.real.tolist(), "im": c.imag.tolist()}
                   for k, c in sorted(case.coeffs.items())],
    }


def write_symbol(case: Case, path) -> None:
    with open(path, "w") as fh:
        json.dump(symbol_json(case), fh)


def check_report(report: dict, case: Case, gap_tol: float = 1e-7) -> str | None:
    """Compare a decompose report with the known answer; None when it matches."""
    classification = report["classification"]
    if classification not in case.classifications:
        return f"classification {classification}"
    sub = report["subspace"]
    if sub["dim"] != case.expected_dim:
        return f"dimension {sub['dim']} != {case.expected_dim}"
    if case.expected_dim:
        basis = np.asarray(sub["basis"]["re"]) + 1j * np.asarray(sub["basis"]["im"])
        gap = projector_gap(basis, case.expected_basis)
        if gap > gap_tol:
            return f"subspace gap {gap:.3g}"
    return None


def projector_gap(b1: np.ndarray, b2: np.ndarray) -> float:
    """Operator-norm distance between the orthogonal projectors onto two
    column spans (orthonormalized here, so any spanning columns will do)."""
    q1 = np.linalg.qr(b1)[0]
    q2 = np.linalg.qr(b2)[0]
    return float(np.linalg.norm(q1 @ q1.conj().T - q2 @ q2.conj().T, 2))
