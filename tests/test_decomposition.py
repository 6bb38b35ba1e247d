from functools import reduce

import numpy as np
import pytest

from helpers import (
    CANARIES,
    REPORT_SWAP_SHORTFALL,
    SIN3T,
    assert_same_bits,
    colligation_rank_family,
    invariance_polish,
    planted_contraction,
    principal_angles,
    random_contraction,
    reference_toeplitz_unitary_part_brute,
    rotated,
    swap_pushed_out,
    unitary_residuals,
)
from toeplitz_unitary import decomposition
from toeplitz_unitary.colligation import (
    bcl_colligation,
    embed_unitary_block,
    polynomial_from_colligation,
)
from toeplitz_unitary.linalg import (
    block_diag,
    haar_unitary,
    normalize_column_phases,
    nullspace,
    nullspaces,
    orthonormal_columns,
    random_projection,
    spectral_norm,
    subspace_gap,
)
from toeplitz_unitary.symbols import (
    CircleGrid,
    MatrixSymbol,
    adjoint_symbol,
    bcl_symbol,
    block_diag_symbol,
    compose_scalar_polynomial,
    eval_symbol,
    is_inner,
    sup_norm_estimate,
)
from toeplitz_unitary.hardy import convolve_block_columns, toeplitz_window_matrix
from toeplitz_unitary.decomposition import (
    ExtractionResult,
    Subspace,
    _constant_part,
    _joint_kernels,
    _candidates,
    _window_eigenspaces,
    _window_kernel,
    beurling_extract,
    cdot0_test,
    extract_constant_unitary,
    poly_calculus,
    reducing_check,
    toeplitz_unitary_part,
    toeplitz_unitary_part_brute,
    unitary_part_brute,
    unitary_part_matrix,
    unitary_parts,
    verify_maincondn,
    window_span,
)
from toeplitz_unitary.scenarios import (
    Family,
    colligation_family,
    direct_sum,
    planted_family,
    random_trig_matrix,
    swap_family,
)

P = np.diag([1.0, 0.0])


def f1_candidates(sym, tol):
    """The window routes' candidates: ``_candidates`` on F(1)."""
    return _candidates(eval_symbol(sym, 0.0), tol)


class TestUnitaryPartMatrix:
    def test_unitary_gives_full_space(self):
        u = haar_unitary(4, np.random.default_rng(0))
        assert unitary_part_matrix(u).dim == 4

    def test_strict_contraction_gives_zero(self):
        assert unitary_part_matrix(0.5 * np.eye(3)).dim == 0

    def test_planted_block_recovered(self):
        rng = np.random.default_rng(1)
        t, truth = planted_contraction(rng, 5, 2)
        sub = unitary_part_matrix(t)
        assert sub.dim == 2
        assert np.max(principal_angles(sub.basis, truth)) <= 1e-10
        res = unitary_residuals(t, sub.basis)
        assert max(res.values()) <= 1e-8

    def test_jordan_tail(self):
        rng = np.random.default_rng(2)
        u0 = haar_unitary(2, rng)
        j = np.array([[0.5, 0.3, 0.0], [0.0, 0.4, 0.2], [0.0, 0.0, 0.3]])
        t = np.zeros((5, 5), dtype=complex)
        t[:2, :2] = u0
        t[2:, 2:] = j
        sub = unitary_part_matrix(t)
        assert sub.dim == 2
        assert np.max(principal_angles(sub.basis, np.eye(5, 2))) <= 1e-10

    def test_expansive_rejected(self):
        with pytest.raises(ValueError):
            unitary_part_matrix(2.0 * np.eye(2))

    @pytest.mark.parametrize("func", [unitary_part_matrix, unitary_part_brute, cdot0_test])
    @pytest.mark.parametrize("t, message", [
        (np.zeros(3), "square matrix"),
        (np.zeros((2, 3)), "square matrix"),
        (np.zeros((2, 2, 2)), "square matrix"),
        (np.array(0.5), "square matrix"),
        (np.array([[np.nan, 0.0], [0.0, 0.0]]), "non-finite"),
        (np.array([[np.inf, 0.0], [0.0, 0.0]]), "non-finite"),
        (np.array([[0.0, 1j * np.inf], [0.0, 0.0]]), "non-finite"),
    ], ids=["vector", "rectangular", "stack", "scalar", "nan", "inf", "imag-inf"])
    def test_malformed_input_rejected(self, func, t, message):
        with pytest.raises(ValueError, match=message):
            func(t)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0], ids=["nan", "inf", "zero", "negative"])
@pytest.mark.parametrize("call", [
    lambda tol: toeplitz_unitary_part(MatrixSymbol.constant(2.0 * np.eye(2)), 4, tol=tol),
    lambda tol: unitary_part_matrix(2.0 * np.eye(2), tol),
    lambda tol: unitary_part_brute(2.0 * np.eye(2), tol),
    lambda tol: cdot0_test(2.0 * np.eye(2), tol),
    lambda tol: poly_calculus(MatrixSymbol.shift(1), [0.0, 0.5], 3, tol),
    lambda tol: toeplitz_unitary_part_brute(MatrixSymbol(1, 1, {0: [[0.25]], 1: [[0.5]]}), 4, tol),
], ids=["toeplitz_unitary_part", "unitary_part_matrix", "unitary_part_brute", "cdot0_test",
        "poly_calculus", "toeplitz_unitary_part_brute"])
def test_non_finite_or_non_positive_tol_rejected(call, tol):
    # 2 I is no contraction, but "2 > 1 + nan" is False, so a NaN tol would
    # pass every gate, and toeplitz_unitary_part would certify it trivial;
    # at tol nan every rank cut keeps all directions, so the brute oracle
    # would call the whole window of a strict contraction unitary
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        call(tol)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.inf], ids=["nan", "inf", "imag-inf"])
@pytest.mark.parametrize("call", [
    lambda sym: toeplitz_unitary_part(sym, 4),
    lambda sym: poly_calculus(sym, [0.0, 0.5], 4),
    lambda sym: toeplitz_unitary_part_brute(sym, 4),
], ids=["toeplitz_unitary_part", "poly_calculus", "toeplitz_unitary_part_brute"])
def test_non_finite_symbol_rejected(call, bad):
    # the grid values of such a symbol are non-finite, so its sup-norm
    # estimate must stop the call by name: a NaN estimate would pass a
    # "sup > 1 + tol" gate
    sym = MatrixSymbol(2, 2, {0: np.diag([0.25, bad]), 1: 0.25 * np.eye(2)})
    with pytest.raises(ValueError, match="non-finite"):
        call(sym)


@pytest.mark.parametrize("call", [
    lambda sym: toeplitz_unitary_part(sym, 4),
    lambda sym: poly_calculus(sym, [0.0, 0.5], 4),
], ids=["toeplitz_unitary_part", "poly_calculus"])
def test_expansive_symbol_rejected_with_its_estimate(call):
    # one gate serves both entry points; poly_calculus's own copy named no value
    with pytest.raises(ValueError) as info:
        call(MatrixSymbol.constant(1.01 * np.eye(2)))
    assert str(info.value) == "symbol sup-norm estimate 1.01 exceeds 1 + tol"


def test_brute_oracle_refuses_a_non_contraction():
    # the oracle gave dimension 0 on 1.5 I; its per-step rows are the power
    # equations only for a contraction, so it takes the same gate as
    # toeplitz_unitary_part, after the window check
    sym = MatrixSymbol.constant([[1.5]])
    with pytest.raises(ValueError) as info:
        toeplitz_unitary_part_brute(sym, 4)
    assert str(info.value) == "symbol sup-norm estimate 1.5 exceeds 1 + tol"
    with pytest.raises(ValueError, match="window must be positive"):
        toeplitz_unitary_part_brute(sym, 0)


@pytest.mark.parametrize("window", [0, -1])
@pytest.mark.parametrize("call", [
    lambda w: toeplitz_unitary_part(MatrixSymbol(1, 1, {0: [[0.25]], 1: [[0.5]]}), w),
    lambda w: toeplitz_unitary_part_brute(MatrixSymbol(1, 1, {0: [[0.25]], 1: [[0.5]]}), w),
    lambda w: poly_calculus(MatrixSymbol.shift(1), [0.0, 0.5], w),
], ids=["toeplitz_unitary_part", "toeplitz_unitary_part_brute", "poly_calculus"])
def test_window_below_one_rejected(call, window):
    # at window 0 the brute oracle returned an empty subspace and
    # poly_calculus a 1 x 0 matrix; at -1 both raised numpy's "negative
    # dimensions are not allowed"
    with pytest.raises(ValueError, match="window must be positive"):
        call(window)


@pytest.mark.parametrize("dim", [0, -1])
def test_beurling_extract_rejects_non_positive_dim(dim):
    # dim 0 raised ZeroDivisionError, and -1 divides every ambient dimension
    m = Subspace(4, np.eye(4, dtype=complex)[:, :2])
    with pytest.raises(ValueError, match=f"coefficient dim {dim} must be positive"):
        beurling_extract(m, dim)


class TestSubspaceCheck:
    @pytest.mark.parametrize("basis", [[[np.nan], [0.0]], [[np.inf], [0.0]], [[1.0], [1j * np.inf]]],
                             ids=["nan", "inf", "imag-inf"])
    def test_non_finite_basis_rejected_by_name(self, basis):
        # the Gram matmul warned, then its SVD raised LinAlgError
        with pytest.raises(ValueError, match="basis has non-finite entries"):
            Subspace(2, basis)

    def test_stack_with_one_bad_slice_rejected_by_name(self):
        good = [np.eye(3, 2), np.eye(3, 2)[::-1], haar_unitary(3, np.random.default_rng(0))[:, :2]]
        decomposition._check_orthonormal(np.stack(good), 1e-8)
        bad = good[2].copy()
        bad[1, 1] = np.nan
        with pytest.raises(ValueError, match="basis has non-finite entries"):
            decomposition._check_orthonormal(np.stack(good + [bad] + good), 1e-8)
        with pytest.raises(ValueError, match="not orthonormal"):
            decomposition._check_orthonormal(np.stack(good + [2.0 * good[0]]), 1e-8)


def matrix_sweep():
    """(name, T, truth) triples; truth is an orthonormal basis of the
    known unitary part, or None for a Ginibre matrix."""
    cases = []
    # planted diag(U0, strict contraction) in a random frame, n = 2-8,
    # and Ginibre matrices scaled to norm 1
    for seed in range(400):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        if seed % 2:
            cases.append((f"ginibre-{seed}", random_contraction(n, rng), None))
        else:
            t, truth = planted_contraction(rng, n, int(rng.integers(1, n + 1)))
            cases.append((f"planted-{seed}", t, truth))
    # truncated shift (isometric on all but one direction) beside a unitary
    for seed in range(40):
        rng = np.random.default_rng(1000 + seed)
        k, m = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        t = np.zeros((k + m, k + m), dtype=complex)
        t[:m, :m] = haar_unitary(m, rng)
        t[m:, m:] = np.eye(k, k=-1)
        q = haar_unitary(k + m, rng)
        cases.append((f"shift-{seed}", q @ t @ q.conj().T, q[:, :m]))
    # strict part of norm 1 - 1e-4, 1e4 tol from the circle
    for seed in range(40):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(2, 9))
        t, truth = planted_contraction(rng, n, int(rng.integers(1, n)), 1 - 1e-4)
        cases.append((f"strict-{seed}", t, truth))
    # F(1) of the symbol families: the colligation transfer polynomials
    # are unitary at z = 1; the planted and swap families' unitary part
    # at z = 1 is the range of Theta(1)
    for seed in range(60):
        for rank in (1, 2):
            value = eval_symbol(colligation_rank_family(seed, rank).symbol, 0.0)
            cases.append((f"colligation{rank}-{seed}", value, np.eye(3)))
        for name, family in (
                ("planted_d4", planted_family(np.random.default_rng(seed), 2, 2)),
                ("butz", swap_family(np.random.default_rng(seed), 2))):
            cases.append((f"{name}-{seed}", eval_symbol(family.symbol, 0.0),
                          eval_symbol(family.theta, 0.0)))
    # eigenvalues near the circle or near each other: a sqrt(tol) modulus
    # cut would admit 1 - 1e-6 and 1 - 1e-7, a sqrt(tol) merge would lose
    # e^(1e-6 i) and e^((0.7 + 1e-7) i)
    rng = np.random.default_rng(3000)
    eye = np.eye(4)
    q = haar_unitary(4, rng)

    def jordan(r, head):
        # r e^(0.3 i) [[1, 1 - r], [0, 1]] of norm below 1, beside head
        t = np.zeros((4, 4), dtype=complex)
        t[:2, :2] = head
        t[2:, 2:] = r * np.exp(0.3j) * np.array([[1.0, 1.0 - r], [0.0, 1.0]])
        return t

    near = [
        ("diag", np.diag([1.0, 1.0 - 1e-6, np.exp(1e-6j)]), eye[:3, [0, 2]]),
        ("close_pair", np.diag([np.exp(0.7j), np.exp((0.7 + 1e-7) * 1j), 0.5]),
         eye[:3, :2]),
        ("inside_pair", np.diag([-1.0, 1.0 - 1e-7]), eye[:2, :1]),
        ("jordan", q @ jordan(1 - 1e-4, haar_unitary(2, rng)) @ q.conj().T, q[:, :2]),
        ("jordan_inside", jordan(1 - 1e-6, np.diag([1j, 0.0])), eye[:, :1]),
        ("repeated", q @ np.diag([1.0, 1.0, 1j, 0.9]) @ q.conj().T, q[:, :3]),
    ]
    return cases + [(f"near-{name}", t, truth) for name, t, truth in near]


class TestUnitaryPartBrute:
    def test_eigen_kernel_matches_brute_on_sweep(self):
        wrong = []
        for name, t, truth in matrix_sweep():
            a = unitary_part_matrix(t)
            b = unitary_part_brute(t)
            if a.dim != b.dim or subspace_gap(a.basis, b.basis) > 1e-9:
                wrong.append((name, "brute", a.dim, b.dim))
            if truth is not None and (a.dim != truth.shape[1]
                                      or subspace_gap(a.basis, truth) > 1e-10):
                wrong.append((name, "planted", a.dim, truth.shape[1]))
        assert wrong == []

    def test_unitary_full(self):
        u = haar_unitary(3, np.random.default_rng(3))
        assert unitary_part_brute(u).dim == 3

    def test_nilpotent_shift_zero(self):
        s = np.diag(np.ones(3), -1)
        assert unitary_part_brute(s).dim == 0


def reference_psd_kernel(q, tol=1e-8):
    """Kernel of a Hermitian matrix from its eigenvalues, cut at
    tol * max(|top eigenvalue|, 1): what ``unitary_part_brute`` took of each
    restricted defect before it took its ``nullspace``."""
    q = np.asarray(q, dtype=complex)
    if q.shape[0] == 0:
        return np.zeros((0, 0), dtype=complex)
    w, v = np.linalg.eigh(0.5 * (q + q.conj().T))
    keep = np.abs(w) <= tol * max(abs(w[-1]), 1.0)
    return normalize_column_phases(v[:, keep])


class TestBruteKernelParity:
    """``unitary_part_brute`` cuts each restricted defect by its singular
    values.  For a Hermitian matrix sigma = |lambda|, and both cuts sit at
    tol * max(top, 1), so it keeps the dimensions the eigenvalue kernel gave;
    where the matrix route agrees, within its gap tolerance."""

    @staticmethod
    def _parts(t, monkeypatch):
        brute = unitary_part_brute(t)
        with monkeypatch.context() as patch:
            patch.setattr(decomposition, "nullspace", reference_psd_kernel)
            eigen = unitary_part_brute(t)
        assert brute.dim == eigen.dim
        return brute, eigen

    def _assert_same_parts(self, mats, monkeypatch):
        dims = []
        for t in mats:
            brute, eigen = self._parts(t, monkeypatch)
            matrix = unitary_part_matrix(t)
            assert brute.dim == matrix.dim
            assert subspace_gap(brute.basis, eigen.basis) <= 1e-9
            assert subspace_gap(brute.basis, matrix.basis) <= 1e-9
            dims.append(brute.dim)
        return dims

    def test_sweep(self, monkeypatch):
        dims = self._assert_same_parts([t for _, t, _ in matrix_sweep()], monkeypatch)
        assert len(dims) == 726 and max(dims) == 8 and min(dims) == 0

    @pytest.mark.parametrize("name,make_symbol,window", CANARIES,
                             ids=[f"{c[0]}-w{c[2]}" for c in CANARIES])
    def test_canaries(self, name, make_symbol, window, monkeypatch):
        sym = make_symbol()
        values = [eval_symbol(sym, t) for t in (0.0, np.pi)]
        if sym.is_analytic:
            values.append(sym.coeff(0))
        self._assert_same_parts(values, monkeypatch)
        # the square window sections of T_F and T_F*: the rank-1 colligation's
        # defects have singular values so close to the cut that the two
        # kernels differ by up to 3.2e-6 with the same dimension, and at
        # window 8 the matrix route keeps 8 directions where both keep 9
        for s in (sym, adjoint_symbol(sym)):
            self._parts(toeplitz_window_matrix(s, window, window), monkeypatch)


class TestToeplitzUnitaryPart:
    def test_constant_unitary_full_window(self):
        u = haar_unitary(2, np.random.default_rng(5))
        rep = toeplitz_unitary_part(MatrixSymbol.constant(u), 4)
        assert rep.classification == "constant_type"
        assert rep.subspace.dim == 8
        assert rep.theta.band == 0
        # constant generator: U is the symbol value conjugated by the basis
        align = rep.theta.coeff(0)
        np.testing.assert_allclose(align @ rep.u_matrix @ align.conj().T, u, atol=1e-10)

    def test_planted_block_dimension(self):
        family = direct_sum([haar_unitary(2, np.random.default_rng(6)),
                             MatrixSymbol(1, 1, {-1: [[0.2]], 0: [[0.1]], 1: [[0.15]]})])
        sym = family.symbol
        rep = toeplitz_unitary_part(sym, 6)
        assert rep.classification == "constant_type"
        assert rep.subspace.dim == window_span(family.theta, 6).shape[1]
        brute = toeplitz_unitary_part_brute(sym, 6)
        assert brute.dim == rep.subspace.dim
        assert np.max(principal_angles(rep.subspace.basis, brute.basis)) <= 1e-7

    def test_goor_scalar_trivial(self):
        sym = MatrixSymbol(1, 1, {0: [[0.25]], 1: [[0.5]]})
        rep = toeplitz_unitary_part(sym, 8)
        assert rep.classification == "trivial"
        assert rep.subspace.dim == 0

    def test_report_inside_brute_oracle(self):
        rng = np.random.default_rng(7)
        instances = [
            bcl_symbol(haar_unitary(2, rng), P),
            swap_family().symbol,
            block_diag_symbol([MatrixSymbol.constant(haar_unitary(1, rng)),
                               MatrixSymbol(1, 1, {1: [[0.4]]})]),
        ]
        for sym in instances:
            rep = toeplitz_unitary_part(sym, 5)
            brute = toeplitz_unitary_part_brute(sym, 5)
            if rep.subspace.dim:
                assert spectral_norm(
                    rep.subspace.basis
                    - brute.projector() @ rep.subspace.basis) <= 1e-7

    def test_swap_symbol_certified_but_inconclusive(self):
        # the unitary part is Theta H^2 with Theta = diag(z, 1), which is
        # shift invariant; cut with the window it has 2 w - 1 directions.
        # The report keeps the 2 w - 2 that F and F* keep inside the window,
        # without (0, z^(w - 1)); their span is not shift invariant in the
        # window, so extraction is inconclusive, and the certification
        # residuals still hold
        family = swap_family()
        rep = toeplitz_unitary_part(family.symbol, 5)
        assert rep.subspace.dim == window_span(family.theta, 5).shape[1] - REPORT_SWAP_SHORTFALL
        assert rep.classification == "extraction_inconclusive"
        assert rep.certified_sound
        assert max(rep.certification.values()) <= 1e-8

    def test_non_contractive_rejected(self):
        with pytest.raises(ValueError):
            toeplitz_unitary_part(MatrixSymbol.constant(2.0 * np.eye(2)), 4)

    @pytest.mark.parametrize("size", [3, 6, 7], ids=["grid3", "grid6", "grid7"])
    def test_undersampled_grid_rejected(self, size):
        # sup norm 1.4, but the symbol vanishes on the 3- and 6-point grids,
        # so sup_norm_estimate refuses them; the report's gate samples the
        # default grid
        sym = MatrixSymbol(1, 1, {3: [[0.7j]], -3: [[-0.7j]]})
        if size < 2 * sym.band + 1:
            with pytest.raises(ValueError, match=r"below 2\*band\+1 = 7"):
                sup_norm_estimate(sym, CircleGrid(size))
        else:
            assert sup_norm_estimate(sym, CircleGrid(size)) > 1.0 + 1e-8
        with pytest.raises(ValueError, match=r"exceeds 1 \+ tol"):
            toeplitz_unitary_part(sym, 4)

    @pytest.mark.parametrize("call", [toeplitz_unitary_part, toeplitz_unitary_part_brute],
                             ids=["report", "oracle"])
    def test_gate_refuses_a_non_contraction_between_few_points(self, call):
        assert sup_norm_estimate(SIN3T, CircleGrid(7)) < 1.0
        for size in (16, 64, 512):
            assert sup_norm_estimate(SIN3T, CircleGrid(size)) == pytest.approx(1.02)
        with pytest.raises(ValueError, match=r"exceeds 1 \+ tol"):
            call(SIN3T, 4)

    def test_reducing_and_restriction_on_constant_type(self):
        # constant-type subspaces reduce the window section and the
        # restriction in the generator basis is the block-constant unitary
        rng = np.random.default_rng(8)
        w0 = haar_unitary(1, rng)
        sym = block_diag_symbol([MatrixSymbol.constant(w0),
                                 MatrixSymbol(1, 1, {1: [[0.3]]})])
        n = 5
        rep = toeplitz_unitary_part(sym, n)
        assert rep.classification == "constant_type"
        t_win = toeplitz_window_matrix(sym, n, n)
        assert reducing_check(rep.subspace.basis, t_win, tol=1e-8)
        theta = rep.theta
        cols = []
        dim = sym.dim_out
        for k in range(n):
            for j in range(theta.dim_in):
                v = np.zeros(dim * n, dtype=complex)
                v[k * dim:(k + 1) * dim] = theta.coeff(0)[:, j]
                cols.append(v)
        canon = np.column_stack(cols)
        restriction = canon.conj().T @ t_win @ canon
        np.testing.assert_allclose(
            restriction, np.kron(np.eye(n), rep.u_matrix), atol=1e-10)

    def test_shift_invariance_certificate(self):
        sym = direct_sum([haar_unitary(2, np.random.default_rng(9)),
                          MatrixSymbol(1, 1, {1: [[0.4]]})]).symbol
        rep = toeplitz_unitary_part(sym, 5)
        # theta is read off the constant part, so no extraction runs
        assert rep.extraction_residuals == {}
        assert beurling_extract(rep.subspace, sym.dim_out).shift_residual <= 1e-8


def coll4():
    return colligation_family(np.random.default_rng(4), 1, 2)


def rank2_colligation():
    rng = np.random.default_rng(12)
    inner = bcl_colligation(haar_unitary(2, rng), random_projection(2, 2, rng))
    w = embed_unitary_block(haar_unitary(1, rng), inner)
    return polynomial_from_colligation(w)


def three_cycle():
    # [[0, 0, z], [1/z, 0, 0], [0, 1, 0]], whose cube is I
    unit = np.eye(3)
    return MatrixSymbol(3, 3, {1: np.outer(unit[0], unit[2]),
                               -1: np.outer(unit[1], unit[0]),
                               0: np.outer(unit[2], unit[1])})


def swap_tail():
    # swap plus a strict band-2 tail (grid sup norm 0.5), d = 4
    return [swap_family(), random_trig_matrix(np.random.default_rng(0), 2, 2, 0.5)]


def swap_nilpotent():
    # F^2 = diag(I, N^2) is constant but not unitary
    return [swap_family(), MatrixSymbol.constant(np.eye(3, k=-1))]


def polish(sym, basis):
    # the part of span(basis) that F and F* map into itself in the window
    syms = (sym, adjoint_symbol(sym))
    polished, _ = invariance_polish(
        basis, lambda b: decomposition._window_images(syms, b), sym.band * sym.dim_out, 1e-8)
    return polished


def guard_block():
    """N = [[a, c], [0, 0]] with a = 1 - 1e-9 and c = 0.99 sqrt(1 - a^2):
    a contraction whose eigenvalue a sits within tol of the candidate 1,
    and whose eigenvector N* does not share."""
    a = 1.0 - 1e-9
    return np.array([[a, 0.99 * np.sqrt(1.0 - a * a)], [0.0, 0.0]])


class TestWindowRoutesAgainstBrute:
    """The window kernel of q(T_F) and conj(q)(T_F*) against the window
    oracle ``toeplitz_unitary_part_brute``, which solves the power equations
    for m = 1 .. d window, and the window eigenspaces against the invariance
    polish of the oracle's span: in exact arithmetic the latter two are the
    part of the unitary part that F and F* keep inside the window."""

    @pytest.mark.parametrize("name, window", [
        ("planted_d2", 8), ("planted_d2", 16), ("planted_d4", 8), ("planted_d4", 16),
        ("colligation_rank2", 16), ("swap", 8), ("scalar_band4", 8), ("coll4", 6),
        ("nilpotent_constant", 4),
    ])
    def test_kernel_matches_brute(self, name, window):
        rng = np.random.default_rng(11)
        sym = {
            "planted_d2": lambda: planted_family(rng, 1, 1).symbol,
            "planted_d4": lambda: planted_family(rng, 2, 2).symbol,
            "colligation_rank2": rank2_colligation,
            "swap": lambda: swap_family().symbol,
            "scalar_band4": lambda: random_trig_matrix(rng, 1, 4, 1.0),
            "coll4": lambda: coll4().symbol,
            # F(1) = N has no unitary part: no candidate, an empty kernel
            "nilpotent_constant": lambda: MatrixSymbol.constant(np.eye(3, k=-1)),
        }[name]()
        kernel = _window_kernel(sym, window, 1e-8)
        full = toeplitz_unitary_part_brute(sym, window)
        assert kernel.shape == full.basis.shape
        assert subspace_gap(kernel, full.basis) <= 1e-7

    def test_coll4_kernel_matches_brute(self):
        # the kernel needs one factor per unimodular eigenvalue of F(1), three
        # here; the oracle takes all d window powers (coll4 is analytic, so
        # toeplitz_unitary_part would not take the kernel route)
        family = coll4()
        sym = family.symbol
        kernel = _window_kernel(sym, 6, 1e-8)
        basis, trail = _window_eigenspaces(sym, 6, 1e-8)
        assert kernel.shape[1] == basis.shape[1] == window_span(family.theta, 6).shape[1]
        assert trail == {"route": "kernel", "kernel_factors": 3}
        brute = toeplitz_unitary_part_brute(sym, 6)
        assert subspace_gap(basis, brute.basis) <= 1e-7

    def test_report_trail(self):
        rng = np.random.default_rng(13)
        family = planted_family(rng, 2, 2)
        planted = toeplitz_unitary_part(family.symbol, 8)
        # the planted block is the constant part; the tail has no candidate
        trail = ("route", "constant_part", "kernel_factors")
        assert [planted.params[k] for k in trail] == ["kernel", 2, 0]
        assert len(f1_candidates(family.symbol, 1e-8)) == 2
        expected = window_span(family.theta, 8).shape[1]
        assert planted.subspace.dim == _window_kernel(family.symbol, 8, 1e-8).shape[1] == expected
        # the kernel keeps (0, z^7), whose image under F leaves the window;
        # the window eigenspaces do not
        family = swap_family()
        swap = toeplitz_unitary_part(family.symbol, 8)
        assert [swap.params[k] for k in trail] == ["kernel", 0, 2]
        kernel = _window_kernel(family.symbol, 8, 1e-8)
        expected = window_span(family.theta, 8).shape[1]
        assert (kernel.shape[1], swap.subspace.dim) == (expected, expected - REPORT_SWAP_SHORTFALL)
        assert kernel.shape[1] == toeplitz_unitary_part_brute(family.symbol, 8).dim
        scalar_sym = random_trig_matrix(rng, 1, 4, 1.0)
        scalar = toeplitz_unitary_part(scalar_sym, 8)
        assert [scalar.params[k] for k in trail] == ["kernel", 0, 0]
        assert scalar.subspace.dim == 0
        assert _window_kernel(scalar_sym, 8, 1e-8).shape[1] == 0
        assert scalar.classification == "trivial"
        family = coll4()
        analytic = toeplitz_unitary_part(family.symbol, 6)
        assert [analytic.params[k] for k in trail] == ["analytic", family.theta.dim_in, 0]
        assert analytic.subspace.dim == window_span(family.theta, 6).shape[1]
        dropped = {"structure_powers", "structure_stop", "kernel_dim", "refinement_iterations"}
        for rep in (planted, swap, scalar, analytic):
            assert not dropped & rep.params.keys()

    @staticmethod
    def _polished_brute(sym, window):
        # the invariance polish applied to the window oracle's span
        return polish(sym, toeplitz_unitary_part_brute(sym, window).basis)

    @pytest.mark.parametrize("name, window", [
        ("swap", 4), ("swap", 8), ("swap", 16),
        ("u0_plus_swap", 4), ("u0_plus_swap", 8),
        ("three_cycle", 4), ("three_cycle", 8),
    ])
    def test_unitary_valued_kernel(self, name, window):
        # F is unitary-valued, so the oracle's power-1 equations only ask for
        # F h and F* h analytic, and no later power removes anything; the
        # kernel keeps the same span, the coefficients F pushes above the
        # window included
        sym = rotated({
            "swap": lambda: [swap_family()],
            "u0_plus_swap": lambda: [
                MatrixSymbol.constant(haar_unitary(2, np.random.default_rng(5))), swap_family()],
            "three_cycle": lambda: [three_cycle()],
        }[name](), 7).symbol
        kernel = _window_kernel(sym, window, 1e-8)
        full = toeplitz_unitary_part_brute(sym, window)
        assert kernel.shape == full.basis.shape
        assert subspace_gap(kernel, full.basis) <= 1e-12

    def test_non_unitary_constant_square_kernel_matches_brute(self):
        # F^2 = diag(I, N^2) is constant but not unitary: the power-2 equations
        # remove the polynomials along the middle coordinate of N, and F(1)
        # has no unimodular eigenvalue there
        sym = rotated(swap_nilpotent(), 7).symbol
        kernel = _window_kernel(sym, 4, 1e-8)
        full = toeplitz_unitary_part_brute(sym, 4)
        assert kernel.shape == full.basis.shape
        assert subspace_gap(kernel, full.basis) <= 1e-12

    def test_swap_plus_tail_kernel(self):
        # the tail's eigenvalues at t = 0 are strict, so only swap's two
        # factors enter; the kernel is swap's window part Theta H^2 cut
        # with the window, and the window eigenspaces leave out one direction
        family = rotated(swap_tail(), 7)
        sym = family.symbol
        basis, trail = _window_eigenspaces(sym, 8, 1e-8)
        kernel = _window_kernel(sym, 8, 1e-8)
        span = window_span(family.theta, 8)
        assert trail["kernel_factors"] == 2
        assert kernel.shape == span.shape and subspace_gap(kernel, span) <= 1e-10
        assert kernel.shape[1] == toeplitz_unitary_part_brute(sym, 8).dim
        polished = self._polished_brute(sym, 8)
        assert basis.shape == polished.shape == (32, span.shape[1] - REPORT_SWAP_SHORTFALL)
        assert subspace_gap(basis, polished) <= 1e-12
        basis, _ = _window_eigenspaces(sym, 32, 1e-8)
        expected = window_span(family.theta, 32).shape[1]
        assert (_window_kernel(sym, 32, 1e-8).shape[1], basis.shape[1]) == (
            expected, expected - REPORT_SWAP_SHORTFALL)

    @pytest.mark.parametrize("name, window", [
        ("swap_tail", 8), ("swap_nilpotent", 4), ("three_cycle", 8), ("coll4", 6),
    ])
    def test_eigenspaces_match_polished_brute(self, name, window):
        sym = {
            "swap_tail": lambda: rotated(swap_tail(), 7).symbol,
            "swap_nilpotent": lambda: rotated(swap_nilpotent(), 7).symbol,
            "three_cycle": lambda: rotated([three_cycle()], 7).symbol,
            "coll4": lambda: coll4().symbol,
        }[name]()
        basis, _ = _window_eigenspaces(sym, window, 1e-8)
        polished = self._polished_brute(sym, window)
        assert basis.shape == polished.shape
        assert subspace_gap(basis, polished) <= 1e-12

    def test_brute_oracle_keeps_full_budget(self, monkeypatch):
        # each step applies F once; the window part closes after one step,
        # but the oracle still takes all d window of them
        family = planted_family(np.random.default_rng(13), 2, 2)
        sym = family.symbol
        steps = []

        def counting_convolve(s, blocks):
            steps.append(s is sym)
            return convolve_block_columns(s, blocks)

        monkeypatch.setattr(decomposition, "convolve_block_columns", counting_convolve)
        assert toeplitz_unitary_part_brute(sym, 8).dim == window_span(family.theta, 8).shape[1]
        assert sum(steps) == 4 * 8


class TestWindowOracleParity:
    """The window oracle, which steps T_F and T_F* once per power, against
    the symbol-power loop it replaced
    (``helpers.reference_toeplitz_unitary_part_brute``): in exact arithmetic
    both solve the power equations for m = 1 .. d window."""

    @staticmethod
    def _assert_agree(sym, window):
        got = toeplitz_unitary_part_brute(sym, window)
        want = reference_toeplitz_unitary_part_brute(sym, window)
        assert got.dim == want.dim
        assert subspace_gap(got.basis, want.basis) <= 1e-9

    @pytest.mark.parametrize("d0, d1", [(1, 1), (1, 2), (2, 2)])
    def test_planted(self, d0, d1):
        for seed in range(8):
            self._assert_agree(planted_family(np.random.default_rng(seed), d0, d1).symbol, 6)

    @pytest.mark.parametrize("d0, d1", [(1, 2), (1, 3), (2, 2), (2, 3)])
    def test_prop_ds_colligations(self, d0, d1):
        for seed in range(2):
            self._assert_agree(colligation_family(np.random.default_rng(seed), d0, d1).symbol, 6)

    @pytest.mark.parametrize("window", [4, 6, 8])
    def test_rotated_swap(self, window):
        self._assert_agree(swap_family(np.random.default_rng(8)).symbol, window)

    def test_swap(self):
        self._assert_agree(swap_family().symbol, 6)

    @pytest.mark.parametrize("name,make_symbol,window", CANARIES,
                             ids=[f"{c[0]}-w{c[2]}" for c in CANARIES])
    def test_canaries_same_dimension(self, name, make_symbol, window):
        # both oracles cut near the rank threshold on the rank-1 colligation:
        # their gap reads 1.5e-8 at window 6 and 6.0e-6 at window 8 (1.3e-14
        # on the other two), so only the dimensions are compared
        sym = make_symbol()
        got = toeplitz_unitary_part_brute(sym, window)
        assert got.dim == reference_toeplitz_unitary_part_brute(sym, window).dim


class TestUnitaryKernel:
    """The window kernel, ker q(T_F) cut with ker conj(q)(T_F*), and the report
    where their candidate step can go wrong, and on inputs where the window
    oracle falls short of Theta H^2 cut with the window."""

    @pytest.mark.parametrize("window", [6, 10])
    def test_swap_plus_rank1_colligation_tail(self, window):
        # the report's swap part beside the colligation's planted block, all
        # inside Theta H^2 cut with the window; on 13 of these 60 inputs, all
        # at window 10, the window oracle keeps only 27 or 28 of the span's
        # 29 directions, so the answer is read from window_span
        wrong = []
        for seed in range(30):
            family = rotated([swap_family(), colligation_rank_family(seed, 1)], 7)
            basis = toeplitz_unitary_part(family.symbol, window).subspace.basis
            span = window_span(family.theta, window)
            pushed_out = swap_pushed_out(family.theta, 1, window)
            if (basis.shape[1] != span.shape[1] - REPORT_SWAP_SHORTFALL
                    or spectral_norm(basis - span @ (span.conj().T @ basis)) > 1e-7
                    or np.linalg.norm(pushed_out.conj() @ basis) > 1e-7):
                wrong.append((seed, basis.shape[1]))
        assert wrong == []

    def test_candidates_within_tol_merge(self):
        # F(1) has the unimodular eigenvalue 1 twice; the squared factor
        # (T - 1)^2 would shrink the 1 - 1e-5 direction's 1e-5 to 1e-10,
        # under the cut
        tail = random_trig_matrix(np.random.default_rng(0), 2, 2, 0.5)
        head = Family(MatrixSymbol.constant(np.diag([1.0, 1.0, 1.0 - 1e-5])),
                      MatrixSymbol.constant(np.eye(3, 2)), np.eye(2))
        family = rotated([head, tail], 7)
        rep = toeplitz_unitary_part(family.symbol, 8)
        assert (rep.params["constant_part"], rep.subspace.dim) == (2, 16)
        assert subspace_gap(rep.subspace.basis, window_span(family.theta, 8)) <= 1e-7
        # the kernel route, which the report runs only on the remainder,
        # merges the same way
        assert len(f1_candidates(family.symbol, 1e-8)) == 1
        assert _window_eigenspaces(family.symbol, 8, 1e-8)[0].shape[1] == 16

    def test_candidates_beyond_tol_stay_apart(self):
        # two constant eigenvalues 1e-7 apart: one shared factor would leave
        # the second direction a 1e-7 defect, over the cut
        tail = random_trig_matrix(np.random.default_rng(0), 2, 2, 0.5)
        phases = np.exp(1j * np.array([0.7, 0.7 + 1e-7]))
        family = rotated([np.diag(phases), tail], 7)
        rep = toeplitz_unitary_part(family.symbol, 8)
        assert (rep.params["constant_part"], rep.subspace.dim) == (2, 16)
        assert subspace_gap(rep.subspace.basis, window_span(family.theta, 8)) <= 1e-7
        assert len(f1_candidates(family.symbol, 1e-8)) == 2
        assert _window_eigenspaces(family.symbol, 8, 1e-8)[0].shape[1] == 16

    def test_candidates_read_at_t0(self, monkeypatch):
        # a random scalar of grid sup norm 1 is a contraction on the 512-point
        # grid only; F(1) is the grid value at t = 0, so the gate has checked
        # that the matrix whose eigenvalues give the window candidates is a
        # contraction.  One rule reads F_0 for the constant part, then F(1).
        # With no candidate no window section is built
        seen = []
        candidates = decomposition._candidates

        def recording(mat, tol):
            seen.append(mat)
            return candidates(mat, tol)

        def no_sections(*args):
            raise AssertionError("window sections built with no candidate")

        monkeypatch.setattr(decomposition, "_candidates", recording)
        monkeypatch.setattr(decomposition, "_window_sections", no_sections)
        rng = np.random.default_rng(0)
        for _ in range(20):
            sym = random_trig_matrix(rng, 1, 4, 1.0)
            rep = toeplitz_unitary_part(sym, 8)
            assert (rep.classification, rep.params["kernel_factors"]) == ("trivial", 0)
            assert np.array_equal(seen[-2], sym.coeff(0))
            assert np.array_equal(seen[-1], eval_symbol(sym, CircleGrid(512).points)[0])
        assert len(seen) == 40

    @pytest.mark.parametrize("planted", [True, False], ids=["planted", "swap"])
    def test_butz_kernel_matches_brute(self, planted):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            sym = (planted_family(rng, 2, 1) if planted else swap_family(rng, 2)).symbol
            kernel = _window_kernel(sym, 6, 1e-8)
            brute = toeplitz_unitary_part_brute(sym, 6)
            assert kernel.shape == brute.basis.shape
            assert subspace_gap(kernel, brute.basis) <= 1e-10


class TestWindowEigenspaces:
    """The window part of a non-analytic symbol, the joint eigenspaces of
    T_F and T_F* at the candidates, against the invariance polish of the
    window kernel of the products q(T_F) and conj(q)(T_F*): both are the part
    of the unitary part that F and F* keep inside the window."""

    @staticmethod
    def _sweep():
        cases = []
        for window in (4, 8, 16):
            cases.append((f"swap-{window}", rotated([swap_family()], 7).symbol, window))
        for window in (4, 8):
            cases.append((f"three_cycle-{window}", rotated([three_cycle()], 7).symbol, window))
            cases.append((f"swap_nilpotent-{window}", rotated(swap_nilpotent(), 7).symbol,
                          window))
        for window in (8, 16):
            cases.append((f"swap_tail-{window}", rotated(swap_tail(), 7).symbol, window))
        for seed in range(10):
            cases.append((f"butz-{seed}", swap_family(np.random.default_rng(seed), 2).symbol, 6))
        for seed in range(5):
            sym = planted_family(np.random.default_rng(seed), 2, 2).symbol
            cases.append((f"planted_d4-{seed}", sym, 8))
        for seed in range(0, 30, 3):
            sym = rotated([swap_family(), colligation_rank_family(seed, 1)], 7).symbol
            cases.append((f"swap_rank1-{seed}", sym, 6))
        return cases

    def test_matches_polished_kernel(self):
        wrong = []
        for name, sym, window in self._sweep():
            basis, trail = _window_eigenspaces(sym, window, 1e-8)
            polished = polish(sym, _window_kernel(sym, window, 1e-8))
            if (basis.shape != polished.shape or trail["route"] != "kernel"
                    or subspace_gap(basis, polished) > 1e-10):
                wrong.append((name, basis.shape[1], polished.shape[1]))
        assert wrong == []

    @staticmethod
    def _tf_only_kernel(sym, window, tol):
        # ker q(T_F) with no T_F* rows, one window section per factor
        q = np.eye(sym.dim_in * window, dtype=complex)
        degrees = window
        for lam in f1_candidates(sym, tol):
            img = toeplitz_window_matrix(sym, degrees, degrees + sym.band) @ q
            img[:q.shape[0]] -= lam * q
            q, degrees = img, degrees + sym.band
        return nullspace(q, tol)

    def test_adjoint_rows_reject_a_non_normal_block(self):
        # diag(1, N, 0.3 (z + 1/z)) with N = [[a, c], [0, 0]] a contraction
        # whose eigenvalue a = 1 - 1e-9 sits within tol of the candidate 1:
        # T_F - 1 moves the polynomials along N's eigenvector by 1e-9, under
        # the cut, so a kernel of T_F factors alone holds 12 directions;
        # T_F* - 1 moves them by c = 4.4e-5, so both window kernels keep the
        # 6 of the first coordinate
        sym = block_diag_symbol([MatrixSymbol.constant(np.eye(1)),
                                 MatrixSymbol.constant(guard_block()),
                                 MatrixSymbol(1, 1, {1: [[0.3]], -1: [[0.3]]})])
        assert self._tf_only_kernel(sym, 6, 1e-8).shape[1] == 12
        kernel = _window_kernel(sym, 6, 1e-8)
        basis, trail = _window_eigenspaces(sym, 6, 1e-8)
        assert (kernel.shape[1], basis.shape[1], trail["kernel_factors"]) == (6, 6, 1)
        assert subspace_gap(kernel, basis) <= 1e-10
        assert subspace_gap(basis, np.kron(np.eye(6), np.eye(4, 1))) <= 1e-10
        rep = toeplitz_unitary_part(sym, 6)
        assert (rep.subspace.dim, rep.classification) == (6, "constant_type")
        assert rep.certified_sound

    @pytest.mark.parametrize("window", [4, 6, 8])
    @pytest.mark.parametrize("frame", [None, 5], ids=["identity", "haar"])
    def test_candidate_with_no_joint_eigenvector(self, frame, window):
        # diag(-1, N, 0.3 (z + 1/z)), N as above: the constant part is the
        # first coordinate, and the remainder's F(1) has the candidate a,
        # whose eigenvectors N* does not share, so its window kernel is
        # empty; the product kernel with the factor x - a keeps the window
        # of the first coordinate as well
        q = None if frame is None else haar_unitary(4, np.random.default_rng(frame))
        family = direct_sum([-np.eye(1), MatrixSymbol.constant(guard_block()),
                             MatrixSymbol(1, 1, {1: [[0.3]], -1: [[0.3]]})], q)
        rep = toeplitz_unitary_part(family.symbol, window)
        trail = [rep.params[k] for k in ("route", "constant_part", "kernel_factors")]
        assert (rep.subspace.dim, trail) == (window, ["kernel", 1, 1])
        assert subspace_gap(rep.subspace.basis, window_span(family.theta, window)) <= 1e-12
        assert rep.classification == "constant_type"
        assert _window_kernel(family.symbol, window, 1e-8).shape[1] == window


def reference_joint_kernel(t, t_adj, lam, tol):
    """The single-factor joint kernel as it was built before the products."""
    eye = np.eye(*t.shape)
    return nullspace(np.vstack([t - lam * eye, t_adj - np.conj(lam) * eye]), tol)


def reference_product_kernel(t, t_adj, factors, tol):
    """The multi-factor joint kernel as the 2-D product loop built it, one
    section pair and one list of factors at a time."""
    excess = t.shape[0] - t.shape[1]
    sizes = [t.shape[1] - k * excess for k in reversed(range(len(factors)))]
    rows = []
    for s, lams in ((t, factors), (t_adj, np.conj(factors))):
        steps = [s[:m + excess, :m] - lam * np.eye(m + excess, m) for m, lam in zip(sizes, lams)]
        rows.append(reduce(lambda q, f: f @ q, steps))
    return nullspace(np.vstack(rows), tol)


class TestJointKernelParity:
    """``_joint_kernels`` is the one builder of the joint matrices.  One
    factor builds T - lambda E on T_adj - conj(lambda) E with no product, and
    each kernel of a stack has the bits of its matrix alone, so the matrix
    unitary part and both window parts keep every bit of the per-matrix
    kernels."""

    @pytest.mark.parametrize("seed", range(8))
    def test_square_contractions(self, seed):
        rng = np.random.default_rng(seed)
        t, _ = planted_contraction(rng, 3 + seed % 4, 1 + seed % 3)
        kernels = [np.zeros((t.shape[0], 0))]
        for lam in np.linalg.eigvals(t):
            got, = _joint_kernels(t, t.conj().T, np.array([[lam]]), 1e-8)
            want = reference_joint_kernel(t, t.conj().T, lam, 1e-8)
            assert_same_bits(got, want)
            if abs(lam) >= 1.0 - 1e-8:
                kernels.append(want)
        want = orthonormal_columns(np.hstack(kernels), 1e-8)
        assert_same_bits(unitary_part_matrix(t).basis, want)

    def test_mixed_stack_of_candidates(self):
        # every eigenvalue of contractions with 0 to 4 unimodular ones, a
        # repeated eigenvalue and a point off the spectrum, in one stack
        rng = np.random.default_rng(11)
        q = haar_unitary(4, rng)
        mats = [planted_contraction(rng, 4, k)[0] for k in range(5)]
        mats.append(q @ np.diag([1.0, 1.0, 1j, 0.5]) @ q.conj().T)
        pairs = [(t, lam) for t in mats for lam in np.linalg.eigvals(t)]
        pairs.append((mats[2], np.exp(0.3j)))
        order = rng.permutation(len(pairs))
        t = np.stack([pairs[i][0] for i in order])
        lams = np.array([pairs[i][1] for i in order])
        got = _joint_kernels(t, t.conj().transpose(0, 2, 1), lams[:, None], 1e-8)
        widths = []
        for g, i in enumerate(order):
            mat, lam = pairs[i]
            assert_same_bits(got[g], reference_joint_kernel(mat, mat.conj().T, lam, 1e-8))
            widths.append(got[g].shape[1])
        assert sorted(widths) == [0] * 10 + [1] * 13 + [2] * 2

    SECTIONS = CANARIES + [
        ("swap", lambda: swap_family().symbol, 4),
        ("swap", lambda: swap_family().symbol, 16),
        ("planted_d4", lambda: planted_family(np.random.default_rng(4), 2, 2).symbol, 16),
        ("planted_d4_seed9", lambda: planted_family(np.random.default_rng(9), 2, 2).symbol, 8),
    ]

    @pytest.mark.parametrize("name,make_symbol,window", SECTIONS,
                             ids=[f"{c[0]}-w{c[2]}" for c in SECTIONS])
    def test_window_sections(self, name, make_symbol, window):
        sym = make_symbol()
        n_out = window + sym.band
        t = toeplitz_window_matrix(sym, window, n_out)
        t_adj = toeplitz_window_matrix(adjoint_symbol(sym), window, n_out)
        factors = f1_candidates(sym, 1e-8)
        assert factors
        kernels = [np.zeros((t.shape[1], 0))]
        for lam in factors:
            want = reference_joint_kernel(t, t_adj, lam, 1e-8)
            assert_same_bits(_joint_kernels(t, t_adj, np.array([[lam]]), 1e-8)[0], want)
            kernels.append(want)
        basis, _ = _window_eigenspaces(sym, window, 1e-8)
        assert_same_bits(basis, orthonormal_columns(np.hstack(kernels), 1e-8))

    @pytest.mark.parametrize("name,make_symbol,window", SECTIONS,
                             ids=[f"{c[0]}-w{c[2]}" for c in SECTIONS])
    def test_one_pair_with_many_factor_rows(self, name, make_symbol, window):
        # rows of two factors on the sections from window + band degrees:
        # the pair is shared by every row, and each row's kernel is the call
        # on that row alone
        sym = make_symbol()
        band = sym.band
        t = toeplitz_window_matrix(sym, window + band, window + 2 * band)
        t_adj = toeplitz_window_matrix(adjoint_symbol(sym), window + band, window + 2 * band)
        lam, mu = (f1_candidates(sym, 1e-8) * 2)[:2]
        factors = np.array([[lam, mu], [mu, lam], [lam, lam], [0.5, np.exp(0.3j)]])
        got = _joint_kernels(t, t_adj, factors, 1e-8)
        assert len(got) == len(factors)
        for kernel, row in zip(got, factors):
            assert_same_bits(kernel, _joint_kernels(t, t_adj, row[None], 1e-8)[0])
            assert_same_bits(kernel, reference_product_kernel(t, t_adj, row, 1e-8))

    PRODUCTS = SECTIONS + [
        ("swap_tail", lambda: rotated(swap_tail(), 7).symbol, 8)]

    @pytest.mark.parametrize("name,make_symbol,window", PRODUCTS,
                             ids=[f"{c[0]}-w{c[2]}" for c in PRODUCTS])
    def test_window_kernel_product(self, name, make_symbol, window):
        sym = make_symbol()
        factors = f1_candidates(sym, 1e-8)
        t, t_adj = decomposition._window_sections(sym, window + (len(factors) - 1) * sym.band)
        want = reference_product_kernel(t, t_adj, factors, 1e-8)
        assert_same_bits(_window_kernel(sym, window, 1e-8), want)

    @pytest.mark.parametrize("name,make_symbol", [
        ("swap", lambda: swap_family(np.random.default_rng(8)).symbol),
        ("planted_d4", lambda: planted_family(np.random.default_rng(4), 2, 2).symbol),
    ])
    def test_window_eigenspaces_makes_one_kernel_call(self, name, make_symbol, monkeypatch):
        # one nullspaces stack, for every window kernel at once; F(1)'s
        # candidates take no kernel of their own
        sym = make_symbol()
        stacks = []

        def counted(stack, tol):
            stacks.append(np.shape(stack))
            return nullspaces(stack, tol)

        def refused(*args):
            raise AssertionError("a window kernel went through nullspace")

        monkeypatch.setattr(decomposition, "nullspaces", counted)
        monkeypatch.setattr(decomposition, "nullspace", refused)
        _, trail = _window_eigenspaces(sym, 8, 1e-8)
        assert len(stacks) == 1
        assert stacks[0][0] == trail["kernel_factors"] >= 2


def reference_unitary_part(t, tol=1e-8):
    """The per-matrix unitary part as it was before the stacked pass: the
    contraction check, ``eigvals``, one joint kernel per candidate and
    ``orthonormal_columns`` of their span."""
    t = np.asarray(t, dtype=complex)
    assert np.all(np.isfinite(t)) and spectral_norm(t) <= 1.0 + tol
    kernels = [np.zeros((t.shape[0], 0), dtype=complex)]
    for lam in np.linalg.eigvals(t):
        if abs(lam) >= 1.0 - tol:
            kernel = reference_joint_kernel(t, t.conj().T, lam, tol)
            if kernel.shape[1]:
                kernels.append(kernel)
    return orthonormal_columns(np.hstack(kernels), tol)


class TestUnitaryPartsParity:
    """Each slice of ``unitary_parts`` has the bits of the per-matrix loop on
    it alone, and ``unitary_part_matrix`` is the stack of one: batched LAPACK
    factors every slice with its own call, and the joint matrices, the cut
    and the phases are elementwise."""

    @staticmethod
    def _assert_parity(stack):
        stack = np.asarray(stack, dtype=complex)
        parts = unitary_parts(stack)
        assert len(parts) == len(stack)
        for part, t in zip(parts, stack):
            want = reference_unitary_part(t)
            assert_same_bits(part.basis, want)
            assert_same_bits(unitary_part_matrix(t).basis, want)
        return [part.dim for part in parts]

    def test_sweep(self):
        # the 726 sweep matrices, one stack per size, in sweep order
        by_size = {}
        for _, t, _ in matrix_sweep():
            by_size.setdefault(t.shape[0], []).append(t)
        dims = []
        for mats in by_size.values():
            dims += self._assert_parity(mats)
        assert len(dims) == 726 and max(dims) == 8 and min(dims) == 0

    @pytest.mark.parametrize("name,make_symbol,window", CANARIES,
                             ids=[f"{c[0]}-w{c[2]}" for c in CANARIES])
    def test_canaries(self, name, make_symbol, window):
        # F(1), F(0) and F(-1), and the square window sections of T_F and
        # T_F*, whose 16 to 32 columns take the R-factor route
        sym = make_symbol()
        values = [eval_symbol(sym, t) for t in (0.0, np.pi)]
        if sym.is_analytic:
            values.append(sym.coeff(0))
        self._assert_parity(values)
        sections = [toeplitz_window_matrix(s, window, window) for s in (sym, adjoint_symbol(sym))]
        assert sections[0].shape[0] >= 16
        self._assert_parity(sections)

    def test_mixed_eigenvalue_counts_and_ranks(self):
        # 0 to 4 unimodular eigenvalues, a repeated one (a kernel of rank 2
        # beside kernels of rank 1), a Jordan block at the circle, and
        # eigenvalues within tol of it, shuffled into one stack
        rng = np.random.default_rng(5)
        q = haar_unitary(4, rng)
        jordan = np.zeros((4, 4), dtype=complex)
        jordan[:2, :2] = 0.999 * np.array([[1.0, 0.001], [0.0, 1.0]])
        jordan[2:, 2:] = haar_unitary(2, rng)
        mats = [planted_contraction(rng, 4, k)[0] for k in (0, 1, 2, 3, 4, 2, 1)]
        mats += [q @ np.diag([1.0, 1.0, 1j, 0.9]) @ q.conj().T,
                 q @ np.diag([1.0, 1.0, 1.0, 1.0]) @ q.conj().T,
                 q @ jordan @ q.conj().T,
                 np.diag([1.0, 1.0 - 1e-9, np.exp(1e-9j), 0.5]),
                 np.diag([-1.0, 1.0 - 1e-7, 0.0, 0.0])]
        order = rng.permutation(len(mats))
        dims = self._assert_parity([mats[i] for i in order])
        assert sorted(dims) == [0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4]

    def test_non_normal_guard_block(self):
        # F(1) of the guard symbol diag(1, N, 0.3 (z + 1/z)): N's eigenvalue
        # 1 - 1e-9 is a candidate, and only the T* rows reject its vector
        guard = np.zeros((4, 4), dtype=complex)
        guard[0, 0], guard[1:3, 1:3], guard[3, 3] = 1.0, guard_block(), 0.6
        rng = np.random.default_rng(6)
        q = haar_unitary(4, rng)
        assert self._assert_parity([guard, q @ guard @ q.conj().T, guard.T]) == [1, 1, 1]

    def test_one_by_one_and_empty_stacks(self):
        scalars = [1.0, 0.5, np.exp(1j), 1.0 - 1e-9, 1.0 - 1e-7, 0.0, -1.0]
        dims = self._assert_parity(np.reshape(scalars, (-1, 1, 1)))
        assert dims == [1, 0, 1, 1, 0, 0, 1]
        assert unitary_parts(np.zeros((0, 3, 3))) == []
        empty = unitary_parts(np.zeros((2, 0, 0)))
        assert [(p.ambient_dim, p.basis.shape) for p in empty] == [(0, (0, 0))] * 2

    @pytest.mark.parametrize("bad, message", [
        (2.0 * np.eye(3), r"exceeds 1 \+ tol \(slice 2\)"),
        (np.diag([np.nan, 0.0, 0.0]), r"non-finite entries \(slice 2\)"),
        (np.diag([0.0, 1j * np.inf, 0.0]), r"non-finite entries \(slice 2\)"),
    ], ids=["expansive", "nan", "imag-inf"])
    def test_one_bad_slice_rejected(self, bad, message):
        stack = np.stack([np.eye(3), 0.5 * np.eye(3), bad, np.eye(3)])
        with pytest.raises(ValueError, match=message):
            unitary_parts(stack)

    @pytest.mark.parametrize("stack", [np.eye(3), np.zeros((2, 2, 3)), np.zeros((1, 1, 2, 2))],
                             ids=["2-d", "rectangular", "4-d"])
    def test_malformed_stack_rejected(self, stack):
        with pytest.raises(ValueError, match=r"\(G, n, n\) stack"):
            unitary_parts(stack)


class TestAnalyticRoute:
    """Analytic symbols take their window part from the unitary part of F(0).

    The sweep is the benchmark's colligation family: d0 = 1 planted unitary
    coordinate, d1 = 2, projection rank 1 and 2, windows 6 and 10, seeds
    0-29.  The planted answer and the window pipeline are independent of the
    route; the brute oracle is compared on rank 2 only, since on rank 1 at
    w = 10 it misses the planted block on 8 of the 30 seeds, by up to 1.7e-6.
    """

    @pytest.mark.parametrize("rank, window", [(1, 6), (1, 10), (2, 6), (2, 10)])
    def test_analytic_route_sweep(self, rank, window):
        wrong, outside, brute_wrong = [], [], []
        for seed in range(30):
            family = colligation_rank_family(seed, rank)
            sym = family.symbol
            planted = window_span(family.theta, window)
            rep = toeplitz_unitary_part(sym, window)
            assert rep.params["route"] == "analytic"
            if (rep.classification != "constant_type" or not rep.certified_sound
                    or rep.subspace.dim != planted.shape[1]
                    or subspace_gap(rep.subspace.basis, planted) > 1e-7):
                wrong.append(seed)
            loop, _ = _window_eigenspaces(sym, window, 1e-8)
            if spectral_norm(loop - rep.subspace.projector() @ loop) > 1e-7:
                outside.append(seed)
            if rank == 2:
                brute = toeplitz_unitary_part_brute(sym, window)
                if (brute.dim != rep.subspace.dim
                        or subspace_gap(brute.basis, rep.subspace.basis) > 1e-7):
                    brute_wrong.append(seed)
        assert (wrong, outside, brute_wrong) == ([], [], [])

    def test_constant_term_without_unitary_part_is_trivial(self, monkeypatch):
        # nilpotent F(0) and a strict contraction: E_c = 0, and the empty
        # window basis must not reach the symbol action
        def no_images(*args):
            raise AssertionError("_window_images called on an empty basis")

        monkeypatch.setattr(decomposition, "_window_images", no_images)
        for sym in (MatrixSymbol(2, 2, {0: np.eye(2, k=1), 1: 0.5 * np.eye(2, k=-1)}),
                    MatrixSymbol(1, 1, {0: [[0.25]], 1: [[0.5]]})):
            rep = toeplitz_unitary_part(sym, 5)
            assert rep.classification == "trivial"
            assert rep.subspace.basis.shape == (sym.dim_out * 5, 0)
            assert rep.certification == {}
            assert (rep.params["route"], rep.params["kernel_factors"]) == ("analytic", 0)


class TestConstantPart:
    """The constant part E_c, where F acts as a constant unitary, and the
    closed form it gives the report.  On an analytic symbol E_c is the
    unitary part of F(0), the paper's analytic correspondence; where the
    remainder beside E_c adds nothing, theta = E_c and U = E_c* F_0 E_c
    with no extraction."""

    @staticmethod
    def _block_bcl(seed, a, b):
        """The model symbol U((I - P) + z P) with U = Q diag(U_a, U_b) Q* and
        P = Q diag(0, I_b) Q*: F = Q diag(U_a, z U_b) Q*, whose unitary part
        is H^2 of Q's first a columns."""
        rng = np.random.default_rng(seed)
        q = haar_unitary(a + b, rng)
        u_a = haar_unitary(a, rng)
        u = q @ block_diag([u_a, haar_unitary(b, rng)]) @ q.conj().T
        p = q @ np.diag([0.0] * a + [1.0] * b) @ q.conj().T
        sym = polynomial_from_colligation(bcl_colligation(u, p))
        return Family(sym, MatrixSymbol.constant(q[:, :a]), u_a)

    @staticmethod
    def _analytic_symbols():
        # TestAnalyticRoute's colligation sweep, Haar and block model
        # symbols, and scenario_wold_dichotomy's constant unitaries
        syms = [colligation_rank_family(seed, rank).symbol
                for seed in range(30) for rank in (1, 2)]
        for seed in range(10):
            rng = np.random.default_rng(seed)
            for dim in (2, 3):
                u = haar_unitary(dim, rng)
                syms.append(polynomial_from_colligation(
                    bcl_colligation(u, random_projection(dim, seed % (dim + 1), rng))))
                syms.append(MatrixSymbol.constant(haar_unitary(dim, np.random.default_rng(seed))))
            syms.append(TestConstantPart._block_bcl(seed, 1 + seed % 2, 1).symbol)
        return syms

    def test_matches_the_unitary_part_of_f0_on_analytic_symbols(self):
        dims = []
        for sym in self._analytic_symbols():
            e_c = _constant_part(sym, 1e-8)
            part = unitary_part_matrix(sym.coeff(0)).basis
            assert e_c.shape == part.shape
            assert subspace_gap(e_c, part) <= 1e-12
            dims.append(e_c.shape[1])
        assert len(dims) == 110 and (min(dims), max(dims)) == (0, 3)

    FAMILIES = {
        "planted_d2": lambda rng: planted_family(rng, 1, 1),
        "planted_d4": lambda rng: planted_family(rng, 2, 2),
        "colligation_rank1": lambda rng: colligation_family(rng, 1, 2, 1),
        "colligation": lambda rng: colligation_family(rng, 2, 2),
        "bcl_block": lambda rng: TestConstantPart._block_bcl(int(rng.integers(100)), 2, 1),
        "constant_unitary": lambda rng: direct_sum([haar_unitary(3, rng)]),
    }

    @pytest.mark.parametrize("window", [4, 8])
    @pytest.mark.parametrize("name", FAMILIES)
    def test_closed_form(self, name, window):
        for seed in range(4):
            family = self.FAMILIES[name](np.random.default_rng(seed))
            sym = family.symbol
            rep = toeplitz_unitary_part(sym, window)
            assert rep.classification == "constant_type" and rep.certified_sound
            assert (rep.theta.band, rep.extraction_residuals) == (0, {})
            assert rep.params["constant_part"] == family.theta.dim_in
            span = window_span(rep.theta, window)
            assert span.shape == rep.subspace.basis.shape
            assert subspace_gap(span, rep.subspace.basis) <= 1e-12
            assert subspace_gap(window_span(family.theta, window), rep.subspace.basis) <= 1e-12
            assert verify_maincondn(sym, rep.theta, rep.u_matrix)[0]

    @pytest.mark.parametrize("window", [5, 8])
    def test_swap_beside_a_constant_unitary(self, window):
        # u0 + swap in a Haar frame: E_c is the u0 block and the remainder
        # adds the swap part, so the whole span goes through beurling_extract
        # and reads as it did on the kernel route alone
        for seed in range(4):
            family = swap_family(np.random.default_rng(seed), 2)
            rep = toeplitz_unitary_part(family.symbol, window)
            assert [rep.params[k] for k in ("constant_part", "kernel_factors")] == [2, 2]
            expected = window_span(family.theta, window).shape[1] - REPORT_SWAP_SHORTFALL
            assert rep.subspace.dim == expected == 4 * window - 2
            assert rep.classification == "extraction_inconclusive"
            assert "extraction_error" in rep.params
            kernel, _ = _window_eigenspaces(family.symbol, window, 1e-8)
            assert kernel.shape == rep.subspace.basis.shape
            assert subspace_gap(kernel, rep.subspace.basis) <= 1e-10

    def test_constant_part_can_fill_a_non_analytic_symbol(self):
        # a negative coefficient under the rank cut leaves E_c all of C^d,
        # with no remainder to compress
        u = haar_unitary(2, np.random.default_rng(6))
        sym = MatrixSymbol(2, 2, {0: u, -1: 1e-12 * np.eye(2)})
        rep = toeplitz_unitary_part(sym, 4)
        assert [rep.params[k] for k in ("route", "constant_part", "kernel_factors")] == [
            "kernel", 2, 0]
        assert (rep.subspace.dim, rep.classification, rep.extraction_residuals) == (
            8, "constant_type", {})
        e_c = rep.theta.coeff(0)
        np.testing.assert_allclose(rep.u_matrix, e_c.conj().T @ u @ e_c, atol=1e-12)

    @pytest.mark.parametrize("name, make_symbol", [
        ("swap", lambda: swap_family().symbol),
        ("rotated_swap", lambda: swap_family(np.random.default_rng(8)).symbol),
        ("scalar", lambda: random_trig_matrix(np.random.default_rng(3), 1, 4, 1.0)),
    ])
    def test_no_constant_part_keeps_the_kernel_bits(self, name, make_symbol):
        # with E_c = 0 the remainder is F itself
        sym = make_symbol()
        rep = toeplitz_unitary_part(sym, 8)
        assert rep.params["constant_part"] == 0
        assert_same_bits(rep.subspace.basis, _window_eigenspaces(sym, 8, 1e-8)[0])


def dense_certification(sym, basis, window):
    """The window certificate from dense Laurent window matrices L (full symbol
    action on degrees < window, rows from degree -band), as it was computed
    before the certificate moved onto the basis columns; L is read off
    ``convolve_block_columns`` on identity blocks."""
    d = sym.dim_out
    n = d * window
    band_rows = sym.band * d
    proj = basis @ basis.conj().T
    cert = {}
    for name, s in (("fwd", sym), ("adj", adjoint_symbol(sym))):
        lap = convolve_block_columns(s, np.eye(n).reshape(window, d, n)).reshape(-1, n)
        img = lap[band_rows:] @ basis
        cert[f"analytic_{name}"] = spectral_norm(lap[:band_rows] @ basis)
        cert[f"norm_{name}"] = spectral_norm(
            basis.conj().T @ (np.eye(n) - lap.conj().T @ lap) @ basis)
        cert[f"invariance_{name}"] = max(
            spectral_norm(img[n:]), spectral_norm(img[:n] - proj @ img[:n]))
        if name == "fwd":
            coords = basis.conj().T @ img[:n]
    cert["restriction_unitary"] = spectral_norm(
        coords.conj().T @ coords - np.eye(basis.shape[1]))
    return cert


def intersection_extract(m, dim, tol=1e-8):
    """``beurling_extract`` as it was with dense matrices: shift residual by
    the complementary projector of m, wandering space as m minus the
    intersection of S m and m, both in the window extended by one degree and
    intersected through stacked complementary projectors."""
    window = m.ambient_dim // dim
    n = m.ambient_dim
    top_rows = m.basis[(window - 1) * dim:, :]
    low = normalize_column_phases(m.basis @ nullspace(top_rows, tol))
    s_ext = toeplitz_window_matrix(MatrixSymbol.shift(dim), window, window + 1)
    shift_residual = 0.0
    if low.shape[1]:
        shift_residual = spectral_norm((np.eye(n) - m.projector()) @ (s_ext[:n] @ low))
    if shift_residual > tol:
        raise ValueError("subspace is not shift invariant within the window")
    basis_ext = np.vstack([m.basis, np.zeros((dim, m.dim))])
    shifted = s_ext @ m.basis
    eye = np.eye(n + dim)
    zm = nullspace(np.vstack([eye - shifted @ shifted.conj().T,
                              eye - basis_ext @ basis_ext.conj().T]), tol)
    wandering = basis_ext
    if zm.shape[1]:
        wandering = orthonormal_columns(basis_ext - zm @ (zm.conj().T @ basis_ext), tol)
    wandering = normalize_column_phases(wandering)[:n, :]

    r = wandering.shape[1]
    blocks = wandering.reshape(window, dim, r)
    scale = max(np.max(np.abs(blocks)), 1.0)
    degree = window - 1
    while degree > 0 and np.all(np.abs(blocks[degree]) <= 1e-12 * scale):
        degree -= 1
    theta = MatrixSymbol(dim, r, {k: blocks[k] for k in range(degree + 1)})
    columns = []
    for j in range(r):
        dj = theta.band
        while dj > 0 and np.linalg.norm(theta.coeff(dj)[:, j]) <= 1e-12 * scale:
            dj -= 1
        col = MatrixSymbol(dim, 1, {k: theta.coeff(k)[:, j:j + 1] for k in range(dj + 1)})
        columns.append(toeplitz_window_matrix(col, window - dj, window))
    span = orthonormal_columns(np.hstack(columns), tol)
    return ExtractionResult(
        theta=theta, shift_residual=shift_residual,
        span_residual=spectral_norm(m.basis - span @ (span.conj().T @ m.basis)))


class TestExactWindowAction:
    """The window certificate and extraction act on the basis columns by
    exact convolution; they agree with the dense Laurent-matrix and
    projector-intersection formulas they replace."""

    @staticmethod
    def symbol(name):
        rng = np.random.default_rng(21)
        return {
            "planted_d2": lambda: planted_family(rng, 1, 1).symbol,
            "planted_d4": lambda: planted_family(rng, 2, 2).symbol,
            "colligation_rank2": rank2_colligation,
            "swap": lambda: swap_family().symbol,
            "coll4": lambda: coll4().symbol,
        }[name]()

    @staticmethod
    def classification(sym, ext, tol=1e-8):
        # res includes the innerness of ext.theta
        _, res = extract_constant_unitary(sym, ext.theta)
        ok = max(res.values()) <= tol and ext.span_residual <= tol
        return "constant_type" if ok else "extraction_inconclusive"

    @pytest.mark.parametrize("name, window", [
        ("planted_d2", 8), ("planted_d4", 8), ("colligation_rank2", 8), ("swap", 5),
        ("coll4", 6),
    ])
    def test_certification_matches_dense_laurent_matrices(self, name, window):
        sym = self.symbol(name)
        rep = toeplitz_unitary_part(sym, window)
        assert rep.subspace.dim
        want = dense_certification(sym, rep.subspace.basis, window)
        assert set(rep.certification) == set(want)
        for key, value in want.items():
            assert abs(rep.certification[key] - value) <= 1e-13, key

    @pytest.mark.parametrize("name, window, brute", [
        ("planted_d2", 8, False), ("planted_d4", 6, False), ("colligation_rank2", 8, False),
        ("coll4", 6, False), ("swap", 4, True), ("swap", 8, True),
    ])
    def test_extraction_matches_projector_intersection(self, name, window, brute):
        sym = self.symbol(name)
        if brute:
            m = toeplitz_unitary_part_brute(sym, window)
        else:
            m = toeplitz_unitary_part(sym, window).subspace
        assert m.dim
        got = beurling_extract(m, sym.dim_out)
        want = intersection_extract(m, sym.dim_out)
        assert got.theta.band == want.theta.band
        assert got.theta.dim_in == want.theta.dim_in
        stacked = [np.vstack([e.theta.coeff(k) for k in range(e.theta.band + 1)])
                   for e in (got, want)]
        assert subspace_gap(*map(orthonormal_columns, stacked)) <= 1e-12
        assert self.classification(sym, got) == self.classification(sym, want)


class TestWindowSpan:
    def test_non_analytic_theta_is_refused(self):
        # its k = -1 coefficient has no place in Theta H^2 cut with the window
        theta = MatrixSymbol(2, 1, {-1: [[1.0], [0.0]], 0: [[0.0], [1.0]]})
        with pytest.raises(ValueError, match="symbol has negative Fourier coefficients"):
            window_span(theta, 3)

    @pytest.mark.parametrize("window", [0, -2])
    def test_window_below_one_is_refused(self, window):
        with pytest.raises(ValueError, match="window must be positive"):
            window_span(MatrixSymbol.constant([[0.0], [1.0]]), window)


class TestBeurlingExtract:
    def test_coordinate_subspace(self):
        # polynomials supported on the second coordinate: constant inclusion
        m = Subspace(10, window_span(MatrixSymbol.constant([[0.0], [1.0]]), 5))
        ext = beurling_extract(m, 2)
        assert ext.theta.band == 0
        np.testing.assert_allclose(np.abs(ext.theta.coeff(0)), [[0.0], [1.0]], atol=1e-12)
        assert ext.span_residual <= 1e-12

    def test_shifted_full_space(self):
        # z times everything, scalar case
        n = 5
        basis = np.eye(n, dtype=complex)[:, 1:]
        m = Subspace(n, basis)
        ext = beurling_extract(m, 1)
        assert ext.theta.band == 1
        np.testing.assert_allclose(np.abs(ext.theta.coeff(1)), [[1.0]], atol=1e-12)

    def test_round_trip_recovery(self):
        # span of an inner 2x1 polynomial times low-degree monomials
        theta0 = MatrixSymbol(2, 1, {0: [[0.6], [0.0]], 1: [[0.0], [0.8]]})
        m = Subspace(12, window_span(theta0, 6))
        assert m.dim == 5
        ext = beurling_extract(m, 2)
        assert ext.theta.band == 1
        assert is_inner(ext.theta).residual <= 1e-10
        # ranges agree pointwise up to the right unitary factor
        for t in CircleGrid(32).points:
            v0, v1 = eval_symbol(theta0, t), eval_symbol(ext.theta, t)
            assert spectral_norm(v0 @ v0.conj().T - v1 @ v1.conj().T) <= 1e-10

    def test_degree_does_not_depend_on_the_coefficient_frame(self):
        # span{e1 + z 9e-13 (0, 1, 1), z e1} in C^3, window 2: every entry of
        # the top block is under 1e-12, its column norm 1.27e-12 is not.  A
        # rule that trims theta's degree entry by entry gave degree 0 in this
        # frame and degree 1 once a rotation moves (0, 1, 1) onto one axis.
        # The degree is the rank cut on the block norms, so the 1.27e-12
        # block is roundoff in every frame: degree 0, and both shifts of
        # theta fit in the window, so no direction is lost
        h = np.zeros((6, 2), dtype=complex)
        h[0, 0], h[4:, 0], h[3, 1] = 1.0, 0.9e-12, 1.0
        c = np.sqrt(0.5)
        rotation = np.array([[1.0, 0.0, 0.0], [0.0, c, c], [0.0, -c, c]])
        for frame in (np.eye(3), rotation):
            basis = orthonormal_columns(np.kron(np.eye(2), frame) @ h)
            ext = beurling_extract(Subspace(6, basis), 3)
            assert ext.theta.band == 0
            assert ext.span_residual <= 1e-8

    def test_rejects_non_invariant(self):
        # span of a single degree-one vector is not shift invariant
        n = 4
        v = np.zeros(n, dtype=complex)
        v[0] = v[1] = 1.0 / np.sqrt(2.0)
        m = Subspace(n, v.reshape(-1, 1))
        with pytest.raises(ValueError):
            beurling_extract(m, 1)

    def test_rejects_zero_subspace(self):
        with pytest.raises(ValueError):
            beurling_extract(Subspace(4, np.zeros((4, 0))), 1)


class TestExtractConstantUnitary:
    def test_constant_symbol_identity_generator(self):
        u0 = haar_unitary(2, np.random.default_rng(10))
        theta = MatrixSymbol.constant(np.eye(2))
        u, res = extract_constant_unitary(MatrixSymbol.constant(u0), theta)
        np.testing.assert_allclose(u, u0, atol=1e-14)
        assert max(res.values()) <= 1e-13

    def test_block_inclusion(self):
        u0 = haar_unitary(2, np.random.default_rng(11))
        family = direct_sum([u0, MatrixSymbol(1, 1, {1: [[0.3]]})])
        u, res = extract_constant_unitary(family.symbol, family.theta)
        np.testing.assert_allclose(u, u0, atol=1e-14)
        assert max(res.values()) <= 1e-13

    def test_model_symbol_kernel_inclusion(self):
        sym = bcl_symbol(np.eye(2), P)
        theta = MatrixSymbol.constant([[0.0], [1.0]])
        u, res = extract_constant_unitary(sym, theta)
        np.testing.assert_allclose(u, [[1.0]], atol=1e-14)
        assert max(res.values()) <= 1e-13

    def test_verify_maincondn_on_same_instances(self):
        u0 = haar_unitary(2, np.random.default_rng(12))
        families = [direct_sum([u0]), direct_sum([u0, MatrixSymbol(1, 1, {1: [[0.3]]})])]
        cases = [(f.symbol, f.theta) for f in families]
        cases.append((bcl_symbol(np.eye(2), P), MatrixSymbol.constant([[0.0], [1.0]])))
        for sym, theta in cases:
            u, _ = extract_constant_unitary(sym, theta)
            ok, res = verify_maincondn(sym, theta, u)
            assert ok and max(res.values()) <= 1e-13, res

    def test_verify_rejects_wrong_unitary(self):
        u0 = haar_unitary(2, np.random.default_rng(13))
        ok, _ = verify_maincondn(
            MatrixSymbol.constant(u0), MatrixSymbol.constant(np.eye(2)), np.eye(2))
        assert not ok


class TestMainTheoremRoundTrip:
    def test_planted_intertwining_appears_in_window_part(self):
        # a symbol built to intertwine a planted (theta, u) pair has the
        # theta-multiples inside its computed window subspace
        family = direct_sum([haar_unitary(2, np.random.default_rng(14)),
                             MatrixSymbol(1, 1, {-1: [[0.2]], 1: [[0.25]]})])
        sym, theta = family.symbol, family.theta
        ok, _ = verify_maincondn(sym, theta, family.u)
        assert ok
        n = 5
        rep = toeplitz_unitary_part(sym, n)
        planted = window_span(theta, n)
        assert spectral_norm(
            planted - rep.subspace.projector() @ planted) <= 1e-8
        # and conversely the extracted pair verifies
        ok, _ = verify_maincondn(sym, rep.theta, rep.u_matrix)
        assert ok


class TestReducingCheck:
    def test_full_space_always_reduces(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((3, 3))
        assert reducing_check(np.eye(3), a)

    def test_coordinate_direction(self):
        assert reducing_check(np.array([[1.0], [0.0]]), np.diag([1.0, 2.0]))

    def test_agrees_with_direct_definition(self):
        rng = np.random.default_rng(16)
        agree = 0
        for trial in range(200):
            n = int(rng.integers(2, 6))
            r = int(rng.integers(1, n))
            if trial % 2:
                v = haar_unitary(n, rng)[:, :r]
                a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            else:
                # constructed reducing instance: block diagonal in a frame
                q = haar_unitary(n, rng)
                blocks = np.zeros((n, n), dtype=complex)
                blocks[:r, :r] = rng.standard_normal((r, r))
                blocks[r:, r:] = rng.standard_normal((n - r, n - r))
                a = q @ blocks @ q.conj().T
                v = q[:, :r]
            proj = v @ v.conj().T
            off = np.eye(n) - proj
            direct = (spectral_norm(off @ a @ v) <= 1e-8
                      and spectral_norm(off @ a.conj().T @ v) <= 1e-8)
            assert reducing_check(v, a) == direct
            agree += 1
        assert agree == 200

    def test_non_isometric_rejected(self):
        with pytest.raises(ValueError, match="basis columns are not orthonormal"):
            reducing_check(2.0 * np.eye(2), np.eye(2))

    @pytest.mark.parametrize("v, a, message", [
        (np.eye(2), np.array([[np.nan, 0.0], [0.0, 1.0]]), "operator has non-finite"),
        (np.eye(2), np.array([[1.0, 1j * np.inf], [0.0, 1.0]]), "operator has non-finite"),
        (np.array([[np.inf], [0.0]]), np.eye(2), "basis has non-finite"),
        (np.eye(2), np.eye(3), "with 3 rows"),
        (np.eye(3)[:, :1], np.eye(2), "with 2 rows"),
        (np.array([1.0, 0.0]), np.eye(2), "basis must be a matrix"),
        (np.eye(2), np.zeros((2, 3)), "square matrix"),
        (np.eye(2), np.zeros(2), "square matrix"),
    ], ids=["nan-operator", "inf-operator", "inf-basis", "short-basis",
            "long-basis", "1d-basis", "non-square-operator", "1d-operator"])
    def test_malformed_input_rejected(self, v, a, message):
        with pytest.raises(ValueError, match=message):
            reducing_check(v, a)


class TestCdot0:
    def test_half_identity(self):
        assert cdot0_test(0.5 * np.eye(3))

    def test_unitary_false(self):
        assert not cdot0_test(haar_unitary(3, np.random.default_rng(17)))

    def test_jordan_like(self):
        a = np.array([[0.9, 0.1], [0.0, 0.9]])
        assert cdot0_test(a)
        assert spectral_norm(np.linalg.matrix_power(a, 64)) < 0.01


class TestPolyCalculus:
    def test_zero_polynomial(self):
        m = poly_calculus(MatrixSymbol.shift(1), [0.0], 3)
        assert spectral_norm(m) == 0.0

    def test_half_shift(self):
        m = poly_calculus(MatrixSymbol.shift(1), [0.0, 0.5], 3)
        expected = 0.5 * toeplitz_window_matrix(MatrixSymbol.shift(1), 3, 4)
        np.testing.assert_allclose(m, expected, atol=1e-14)

    def test_matches_composed_symbol(self):
        sym = MatrixSymbol(1, 1, {0: [[0.25]], 1: [[0.5]]})
        coeffs = [0.0, 0.25, 0.25]
        m = poly_calculus(sym, coeffs, 6)
        composed = compose_scalar_polynomial(sym, coeffs)
        direct = toeplitz_window_matrix(composed, 6, 6 + 2 * sym.band)
        np.testing.assert_allclose(m, direct, atol=1e-12)
        assert spectral_norm(m) <= 1.0 + 1e-9

    def test_unimodular_polynomial_rejected(self):
        with pytest.raises(ValueError):
            poly_calculus(MatrixSymbol.shift(1), [0.0, 1.0], 3)

    def test_non_analytic_rejected(self):
        sym = MatrixSymbol(1, 1, {-1: [[0.5]]})
        with pytest.raises(ValueError):
            poly_calculus(sym, [0.0, 0.5], 3)

    @pytest.mark.parametrize("coeffs", [(), [], [np.nan], [0.0, np.inf], [0.25, 1j * np.nan]],
                             ids=["empty-tuple", "empty-list", "nan", "inf", "imag-nan"])
    def test_empty_or_non_finite_coefficients_rejected(self, coeffs):
        # u needs a degree to size the output window, and finite values for
        # the |u| < 1 test to mean anything
        with pytest.raises(ValueError, match="finite coefficients"):
            poly_calculus(MatrixSymbol(1, 1, {0: [[0.25]], 1: [[0.5]]}), coeffs, 4)
