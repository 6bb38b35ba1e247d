"""The symbol families against the answer their construction fixes.

Each builder returns F with the pair (Theta, U) it was built from.  By the
paper's theorem the unitary part of T_F is Theta H^2, with F Theta = Theta U
and F* Theta = Theta U*, so the window part is ``window_span(theta, w)``, of
dimension sum_j (w - delta_j) over Theta's column degrees delta_j.
"""

import hashlib

import numpy as np
import pytest

from helpers import (
    CANARIES,
    REPORT_SWAP_SHORTFALL,
    assert_same_bits,
    rotating_family,
    swap_pushed_out,
)
from toeplitz_unitary.decomposition import (
    _window_kernel,
    toeplitz_unitary_part,
    verify_maincondn,
    window_span,
)
from toeplitz_unitary import scenarios
from toeplitz_unitary.linalg import haar_unitary, spectral_norm, subspace_gap
from toeplitz_unitary.scenarios import (
    colligation_family,
    direct_sum,
    planted_family,
    random_trig_matrix,
    swap_family,
)
from toeplitz_unitary.symbols import MatrixSymbol, block_diag_symbol, sup_norm_estimate

FAMILIES = {
    "swap": lambda rng: swap_family(rng),
    "u0_plus_swap": lambda rng: swap_family(rng, 2),
    "planted_d4": lambda rng: planted_family(rng, 2, 2),
    "colligation_rank1": lambda rng: colligation_family(rng, 1, 2, 1),
    "colligation": lambda rng: colligation_family(rng, 1, 2),
    "rotating": lambda rng: rotating_family(rng, 1),
    "rotating_degree2": lambda rng: rotating_family(rng, 2),
    "u0_plus_rotating": lambda rng: direct_sum([haar_unitary(1, rng), rotating_family(rng, 1)],
                                               haar_unitary(3, rng)),
}
# the families whose report falls REPORT_SWAP_SHORTFALL short of Theta H^2
SWAPS = ("swap", "u0_plus_swap")


def exact_degrees(theta):
    """Each column's last nonzero coefficient: the builders' Theta has exact zeros."""
    return [max(k for k, c in theta.coeffs.items() if c[:, j].any()) for j in range(theta.dim_in)]


@pytest.mark.parametrize("window", [4, 6, 8])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", FAMILIES)
def test_window_part_is_theta_h2(name, seed, window):
    family = FAMILIES[name](np.random.default_rng(seed))
    _, residuals = verify_maincondn(family.symbol, family.theta, family.u)
    assert max(residuals.values()) <= 1e-12, residuals
    span = window_span(family.theta, window)
    assert span.shape[1] == sum(window - d for d in exact_degrees(family.theta))
    kernel = _window_kernel(family.symbol, window, 1e-8)
    assert kernel.shape == span.shape
    assert subspace_gap(kernel, span) <= 1e-10
    rep = toeplitz_unitary_part(family.symbol, window)
    basis = rep.subspace.basis
    if name in SWAPS:
        assert basis.shape[1] == span.shape[1] - REPORT_SWAP_SHORTFALL
        assert spectral_norm(basis - span @ (span.conj().T @ basis)) <= 1e-10
        pushed_out = swap_pushed_out(family.theta, family.theta.dim_in - 1, window)
        assert np.linalg.norm(pushed_out.conj() @ basis) <= 1e-10
    else:
        assert basis.shape == span.shape
        assert subspace_gap(basis, span) <= 1e-10
        # the report's pair: a Theta of degree >= 1 comes from
        # beurling_extract, a constant one in closed form
        assert rep.classification == "constant_type"
        assert (rep.theta.band, rep.theta.dim_in) == (family.theta.band, family.theta.dim_in)
        assert bool(rep.extraction_residuals) == bool(family.theta.band)
        assert verify_maincondn(family.symbol, rep.theta, rep.u_matrix)[0]
        np.testing.assert_allclose(np.poly(rep.u_matrix), np.poly(family.u), atol=1e-10)


def parent_colligation_symbol(seed, rank, d0=1, d1=2):
    rng = np.random.default_rng(seed)
    u0, u1, q = haar_unitary(d0, rng), haar_unitary(d1, rng), haar_unitary(d1, rng)[:, :rank]
    a = np.zeros((d0 + d1, d0 + d1), dtype=complex)
    a[:d0, :d0], a[d0:, d0:] = u0, u1 @ (np.eye(d1) - q @ q.conj().T)
    b = np.vstack([np.zeros((d0, rank)), u1 @ q])
    c = np.hstack([np.zeros((rank, d0)), q.conj().T])
    return MatrixSymbol(d0 + d1, d0 + d1, {0: a, 1: b @ c})


def parent_rotated_swap_symbol(seed):
    rng = np.random.default_rng(seed)
    phase = np.exp(2j * np.pi * rng.uniform())
    q = haar_unitary(2, rng)
    e12 = np.array([[0.0, phase], [0.0, 0.0]])
    return MatrixSymbol(2, 2, {1: q @ e12 @ q.conj().T, -1: q @ e12.conj().T @ q.conj().T})


def parent_planted_block_symbol(rng, d0, d1):
    w0 = haar_unitary(d0, rng)
    return block_diag_symbol([MatrixSymbol.constant(w0), random_trig_matrix(rng, d1, 2, 0.5)])


# the generators the builders replace, as they were
PARENTS = {
    "colligation_rank1_seed14": lambda: parent_colligation_symbol(14, 1),
    "swap": lambda: parent_rotated_swap_symbol(8),
    "planted_d4": lambda: parent_planted_block_symbol(np.random.default_rng(4), 2, 2),
}


@pytest.mark.parametrize("name,make_symbol,window", CANARIES,
                         ids=[f"{c[0]}-w{c[2]}" for c in CANARIES])
def test_builders_keep_the_parent_bits(name, make_symbol, window):
    got, want = make_symbol(), PARENTS[name]()
    assert list(got.coeffs) == list(want.coeffs)
    for k, mat in want.coeffs.items():
        assert_same_bits(got.coeffs[k], mat)


def parent_trig_scalar(rng, band):
    """The scalar generator that ``random_trig_matrix(rng, 1, band, 1.0)``
    replaces, as it was; its loop never ran twice, since a draw with every
    k != 0 coefficient zero has probability zero."""
    while True:
        coeffs = {}
        for k in range(-band, band + 1):
            c = rng.standard_normal() + 1j * rng.standard_normal()
            coeffs[k] = np.array([[c]])
        sym = MatrixSymbol(1, 1, coeffs)
        if any(k != 0 for k in sym.coeffs):
            break
    return sym.scale(1.0 / sup_norm_estimate(sym))


# sha256 of the unscaled band-4 draws of the scalar generator, coefficients
# k = -4 .. 4 as complex128, for seeds 0 and 1: the inputs of the goor scenario
SCALAR_DRAWS = {
    0: "0f0d77489b89560613244891e6dd6e438a15132bb03afacb48b46e5d59b17025",
    1: "a9b543c247c91e6ab95857de5e9eb2107ac6e60ccf1019384e31c345e9604ab0",
}


@pytest.mark.parametrize("seed", sorted(SCALAR_DRAWS))
def test_scalar_draws_keep_the_parent_bits(seed, monkeypatch):
    got = random_trig_matrix(np.random.default_rng(seed), 1, 4, 1.0)
    want = parent_trig_scalar(np.random.default_rng(seed), 4)
    assert list(got.coeffs) == list(want.coeffs) == list(range(-4, 5))
    for k, mat in want.coeffs.items():
        assert_same_bits(got.coeffs[k], mat)
    # with the scale fixed at 1 the coefficients are the draws themselves
    monkeypatch.setattr(scenarios, "sup_norm_estimate", lambda sym: 1.0)
    draws = random_trig_matrix(np.random.default_rng(seed), 1, 4, 1.0)
    data = np.stack([draws.coeff(k) for k in range(-4, 5)]).tobytes()
    assert hashlib.sha256(data).hexdigest() == SCALAR_DRAWS[seed]
