"""The rank-decision kernels against in-test copies of their plain versions.

``nullspace`` takes (sigma, V^H) from ``right_svd``, which factors tall
inputs by QR first, and
``normalize_column_phases`` works on whole arrays.  Every rank decision sits
at a ``tol * max(sigma_1, 1)`` cut, so these must give the same bits as the
plain SVD and the per-column loop below, not just close values.  The same
holds for the coefficient products of ``convolve_block_columns`` and
``multiply``, whose in-test copies live in helpers.py.
"""

import numpy as np
import pytest

from helpers import (
    CANARIES,
    assert_same_bits,
    gaussian,
    reference_convolve_block_columns,
    reference_multiply,
)
from toeplitz_unitary import decomposition, hardy, linalg, symbols
from toeplitz_unitary.decomposition import (
    _window_eigenspaces,
    toeplitz_unitary_part,
    toeplitz_unitary_part_brute,
)
from toeplitz_unitary.linalg import (
    DEFAULT_TOL,
    R_FACTOR_MIN_COLS,
    empty_basis,
    haar_unitary,
    normalize_column_phases,
    nullspace,
    nullspaces,
    orthonormal_bases,
    orthonormal_columns,
    right_svd,
)
from toeplitz_unitary.symbols import MatrixSymbol


def reference_normalize_column_phases(b):
    b = np.asarray(b, dtype=complex).copy()
    if b.ndim > 2:
        # a stack, one matrix at a time
        return np.array([reference_normalize_column_phases(x) for x in b]).reshape(b.shape)
    for j in range(b.shape[1]):
        col = b[:, j]
        mags = np.abs(col)
        top = mags.max() if mags.size else 0.0
        if top == 0.0:
            continue
        i = int(np.argmax(mags > 1e-12 * top))
        phase = col[i] / abs(col[i])
        b[:, j] = col * np.conj(phase)
    return b


def reference_nullspace(a, tol=DEFAULT_TOL):
    a = np.asarray(a, dtype=complex)
    n = a.shape[1]
    if a.size == 0 or n == 0:
        return np.eye(n, dtype=complex) if n else empty_basis(0)
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < n)
    cut = tol * max(s[0] if s.size else 0.0, 1.0)
    r = int(np.sum(s > cut))
    return reference_normalize_column_phases(vh[r:].conj().T)


def reference_orthonormal_columns(x, tol=DEFAULT_TOL):
    x = np.asarray(x, dtype=complex)
    if x.size == 0:
        return empty_basis(x.shape[0])
    u, s, _ = np.linalg.svd(x, full_matrices=False)
    r = int(np.sum(s > tol * max(s[0], 1.0)))
    return reference_normalize_column_phases(u[:, :r])


def same_bits(x, y):
    """Equal shapes and equal bit patterns (so -0.0 differs from 0.0)."""
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def _planted(rng, rows, cols, rank):
    """A rows x cols matrix of the given rank, so its kernel has cols - rank."""
    if rank == 0:
        return np.zeros((rows, cols), dtype=complex)
    return gaussian(rng, rows, rank) @ gaussian(rng, rank, cols)


@pytest.fixture
def qr_calls(monkeypatch):
    """Counts the QR factorizations ``right_svd`` makes."""
    calls = []
    qr = np.linalg.qr

    def counting_qr(a, *args, **kwargs):
        calls.append(a.shape)
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    return calls


class TestRFactorRoute:
    def test_every_planted_kernel_rank(self, qr_calls):
        rng = np.random.default_rng(0)
        n = R_FACTOR_MIN_COLS
        for rank in range(n + 1):
            for rows in (2 * n, 5 * n):
                a = _planted(rng, rows, n, rank)
                kern = nullspace(a)
                assert same_bits(kern, reference_nullspace(a))
                assert kern.shape[1] == n - rank
        assert len(qr_calls) == 2 * (n + 1)

    @pytest.mark.parametrize("cols", [R_FACTOR_MIN_COLS, 17, 24, 40, 64, 80])
    def test_tall_inputs_match_plain_svd(self, cols, qr_calls):
        rng = np.random.default_rng(cols)
        for rows in (2 * cols, 2 * cols + 1, 3 * cols, 7 * cols, 12 * cols):
            for rank in (0, 1, cols // 2, cols - 1, cols):
                a = _planted(rng, rows, cols, rank)
                assert same_bits(nullspace(a), reference_nullspace(a))
                # weak rows next to strong ones, as when the window oracle
                # stacks constraint rows of very different size
                stacked = np.vstack([a[:rows // 2], 1e-9 * a[rows // 2:]])
                assert same_bits(nullspace(stacked), reference_nullspace(stacked))
        assert len(qr_calls) == 2 * 5 * 5

    def test_right_svd_matches_economy_svd(self):
        rng = np.random.default_rng(7)
        for cols in (R_FACTOR_MIN_COLS, 33):
            a = gaussian(rng, 4 * cols, cols)
            _, s, vh = np.linalg.svd(a, full_matrices=False)
            s_r, vh_r = right_svd(a)
            assert same_bits(s_r, s) and same_bits(vh_r, vh)

    @pytest.mark.parametrize("shape", [
        (2 * R_FACTOR_MIN_COLS - 1, R_FACTOR_MIN_COLS),  # too few rows
        (12 * (R_FACTOR_MIN_COLS - 1), R_FACTOR_MIN_COLS - 1),  # too few columns
        (40, 40), (8, 30), (1, 60), (2, 1), (300, 3),
    ])
    def test_below_thresholds_take_the_plain_route(self, shape, qr_calls):
        rng = np.random.default_rng(sum(shape))
        rows, cols = shape
        for rank in {0, 1, min(rows, cols) // 2, min(rows, cols)}:
            a = _planted(rng, rows, cols, rank)
            assert same_bits(nullspace(a), reference_nullspace(a))
        assert qr_calls == []

    def test_full_svd_takes_the_plain_route(self, qr_calls):
        a = gaussian(np.random.default_rng(5), 4 * R_FACTOR_MIN_COLS, R_FACTOR_MIN_COLS)
        _, s, vh = np.linalg.svd(a)
        s_r, vh_r = right_svd(a, full_matrices=True)
        assert same_bits(s_r, s) and same_bits(vh_r, vh)
        assert qr_calls == []

    def test_empty_inputs(self):
        for shape in ((0, 5), (5, 0), (0, 0)):
            a = np.zeros(shape, dtype=complex)
            assert same_bits(nullspace(a), reference_nullspace(a))

    @pytest.mark.parametrize("shape", [(4 * R_FACTOR_MIN_COLS, R_FACTOR_MIN_COLS), (6, 4)])
    def test_nan_input_raises_on_both_routes(self, shape):
        a = np.full(shape, np.nan, dtype=complex)
        with pytest.raises(np.linalg.LinAlgError):
            nullspace(a)


class TestNormalizeColumnPhases:
    @pytest.mark.parametrize("rows", [1, 2, 3, 7, 32, 100])
    @pytest.mark.parametrize("cols", [1, 2, 5, 16, 33])
    def test_matches_per_column_loop(self, rows, cols):
        rng = np.random.default_rng(100 * rows + cols)
        for k in range(8):
            b = gaussian(rng, rows, cols)
            if k % 2:
                b *= 10.0 ** rng.integers(-20, 5, size=(rows, cols))
            if k == 2:
                b = np.asfortranarray(b)
            if k == 4:
                b = b.real.copy()
            assert same_bits(normalize_column_phases(b), reference_normalize_column_phases(b))

    def test_zero_columns_stay_untouched(self):
        rng = np.random.default_rng(1)
        for cols in (1, 2, 5):
            b = gaussian(rng, 6, cols)
            b[:, 0] = 0.0
            b[3, 0] = -0.0
            out = normalize_column_phases(b)
            assert same_bits(out, reference_normalize_column_phases(b))
            assert same_bits(out[:, 0], b[:, 0])
        with np.errstate(all="raise"):
            assert same_bits(normalize_column_phases(np.zeros((3, 4))), np.zeros((3, 4), complex))

    def test_entries_below_the_pivot_threshold_are_skipped(self):
        rng = np.random.default_rng(2)
        b = gaussian(rng, 5, 4)
        b[0] *= 1e-13  # below 1e-12 of every column maximum
        # tiny, but above 1e-12 of its column maximum
        b[1, 1] = 2e-12 * np.abs(b[2:, 1]).max() * np.exp(1j)
        out = normalize_column_phases(b)
        assert same_bits(out, reference_normalize_column_phases(b))
        # row 1 holds the pivot of every column, made real positive to roundoff
        assert np.all(np.abs(out[1].imag) <= 1e-15 * out[1].real)

    def test_single_row_inputs(self):
        # one-element products take another numpy kernel than longer ones
        rng = np.random.default_rng(3)
        for cols in (1, 2, 3, 9):
            for _ in range(50):
                b = gaussian(rng, 1, cols)
                assert same_bits(normalize_column_phases(b), reference_normalize_column_phases(b))
        b = gaussian(rng, 1, 3)
        b[0, 1] = 0.0
        assert same_bits(normalize_column_phases(b), reference_normalize_column_phases(b))

    @pytest.mark.parametrize("shape", [(0, 3), (4, 0), (0, 0)])
    def test_empty_inputs(self, shape):
        assert same_bits(normalize_column_phases(np.zeros(shape)),
                         reference_normalize_column_phases(np.zeros(shape)))

    def test_input_is_not_modified(self):
        b = gaussian(np.random.default_rng(4), 6, 3)
        kept = b.copy()
        normalize_column_phases(b)
        assert same_bits(b, kept)


class TestStackParity:
    """Each slice of a stacked ``normalize_column_phases`` or ``right_svd``
    has the bits of the 2-D call on it alone, on the inputs of the 2-D tests
    above; the matrix unitary part relies on this to take all its kernels
    and spans in batched calls."""

    @staticmethod
    def _assert_slices(func, stack):
        out = func(stack)
        for got, x in zip(out, stack):
            assert same_bits(got, func(x))
        return out

    @staticmethod
    def _adversarial(rng, rows, cols):
        # zero columns (one holding -0.0), a column whose leading entries sit
        # under the pivot threshold, a lone live column and a plain one
        zero = gaussian(rng, rows, cols)
        zero[:, 0] = 0.0
        zero[rows - 1, 0] = -0.0
        below = gaussian(rng, rows, cols)
        below[0] *= 1e-13
        lone = np.zeros((rows, cols), dtype=complex)
        lone[:, -1] = gaussian(rng, rows)
        lone[0, 0] = -0.0
        scaled = gaussian(rng, rows, cols) * 10.0 ** rng.integers(-20, 5, size=(rows, cols))
        return np.stack([zero, below, lone, scaled, gaussian(rng, rows, cols)])

    @pytest.mark.parametrize("rows", [1, 2, 3, 7, 32])
    @pytest.mark.parametrize("cols", [1, 2, 5])
    def test_normalize_slices(self, rows, cols):
        rng = np.random.default_rng(10 * rows + cols)
        stack = self._adversarial(rng, rows, cols)
        out = self._assert_slices(normalize_column_phases, stack)
        for got, x in zip(out, stack):
            assert same_bits(got, reference_normalize_column_phases(x))
        # a stack of stacks, and the same stack with column-major slices
        assert same_bits(normalize_column_phases(stack.reshape((5, 1, rows, cols))),
                         out.reshape((5, 1, rows, cols)))
        column_major = np.ascontiguousarray(stack.transpose(0, 2, 1)).transpose(0, 2, 1)
        assert same_bits(normalize_column_phases(column_major), out)

    def test_normalize_single_rows(self):
        rng = np.random.default_rng(3)
        for cols in (1, 2, 3, 9):
            stack = gaussian(rng, 50, 1, cols)
            stack[7, 0, 0] = 0.0
            self._assert_slices(normalize_column_phases, stack)

    def test_normalize_empty_stacks(self):
        for shape in [(0, 3, 2), (2, 0, 3), (2, 4, 0)]:
            assert same_bits(normalize_column_phases(np.zeros(shape)), np.zeros(shape, complex))

    @pytest.mark.parametrize("rows, cols", [(4 * R_FACTOR_MIN_COLS, R_FACTOR_MIN_COLS),
                                            (2 * R_FACTOR_MIN_COLS, R_FACTOR_MIN_COLS),
                                            (6, 4), (3, 3)])
    def test_right_svd_slices(self, rows, cols, qr_calls):
        rng = np.random.default_rng(rows + cols)
        stack = np.stack([_planted(rng, rows, cols, rank) for rank in range(0, cols + 1, 2)])
        s, vh = right_svd(stack)
        for k, a in enumerate(stack):
            s1, vh1 = right_svd(a)
            assert same_bits(s[k], s1) and same_bits(vh[k], vh1)
        # the R-factor route takes one batched QR, as the 2-D call takes one
        tall = rows >= 2 * cols and cols >= R_FACTOR_MIN_COLS
        assert len(qr_calls) == (1 + len(stack) if tall else 0)


class TestKernelSpanStackParity:
    """Each basis of ``nullspaces`` and ``orthonormal_bases`` has the bits of
    the 2-D call on its slice alone and of the plain SVD loop, whatever the
    ranks of the other slices: the phases are set only on the columns from
    the smallest kernel rank on, or up to the largest span rank, and column
    by column."""

    SHAPES = [(3, 3), (6, 4), (2, 5), (1, 6), (5, 1),
              (2 * R_FACTOR_MIN_COLS, R_FACTOR_MIN_COLS),
              (4 * R_FACTOR_MIN_COLS, R_FACTOR_MIN_COLS + 3)]

    @staticmethod
    def _ragged(rng, rows, cols):
        # every rank from 0 to full, a full-rank slice with weak rows beside
        # strong ones, and one with a -0.0 column, shuffled
        full = min(rows, cols)
        mats = [_planted(rng, rows, cols, rank) for rank in range(full + 1)]
        weak = _planted(rng, rows, cols, full)
        weak[rows // 2:] *= 1e-9
        signed = gaussian(rng, rows, cols)
        signed[:, 0] = -0.0
        mats += [weak, signed]
        return np.stack([mats[i] for i in rng.permutation(len(mats))])

    @pytest.mark.parametrize("rows, cols", SHAPES)
    def test_nullspaces_slices(self, rows, cols, qr_calls):
        stack = self._ragged(np.random.default_rng(rows + 7 * cols), rows, cols)
        kernels = nullspaces(stack)
        assert len(kernels) == len(stack)
        for got, a in zip(kernels, stack):
            assert_same_bits(got, nullspace(a))
            assert_same_bits(got, reference_nullspace(a))
        assert {k.shape[1] for k in kernels} >= {cols - min(rows, cols), cols}
        # the R-factor route takes one batched QR, as each 2-D call takes one
        tall = rows >= 2 * cols and cols >= R_FACTOR_MIN_COLS
        assert len(qr_calls) == (1 + len(stack) if tall else 0)

    @pytest.mark.parametrize("rows, cols", SHAPES)
    def test_orthonormal_bases_slices(self, rows, cols):
        stack = self._ragged(np.random.default_rng(rows + 5 * cols), rows, cols)
        bases = orthonormal_bases(stack)
        assert len(bases) == len(stack)
        for got, x in zip(bases, stack):
            assert_same_bits(got, orthonormal_columns(x))
            assert_same_bits(got, reference_orthonormal_columns(x))
        assert {b.shape[1] for b in bases} >= {0, min(rows, cols)}

    @pytest.mark.parametrize("rank", [0, 3])
    def test_uniform_ranks(self, rank):
        # every slice full rank, or every slice zero: one end of the phase
        # window is empty
        rng = np.random.default_rng(rank)
        stack = np.stack([_planted(rng, 5, 3, rank) for _ in range(4)])
        for got, a in zip(nullspaces(stack), stack):
            assert_same_bits(got, reference_nullspace(a))
            assert got.shape == (3, 3 - rank)
        for got, x in zip(orthonormal_bases(stack), stack):
            assert_same_bits(got, reference_orthonormal_columns(x))
            assert got.shape == (5, rank)

    @pytest.mark.parametrize("shape", [(0, 3, 2), (0, 0, 0), (2, 0, 3), (2, 4, 0), (3, 0, 0)])
    def test_empty_stacks(self, shape):
        stack = np.zeros(shape, dtype=complex)
        kernels, bases = nullspaces(stack), orthonormal_bases(stack)
        assert len(kernels) == len(bases) == shape[0]
        for kernel, basis, a in zip(kernels, bases, stack):
            assert_same_bits(kernel, nullspace(a))
            assert_same_bits(kernel, reference_nullspace(a))
            assert_same_bits(basis, orthonormal_columns(a))
            assert_same_bits(basis, reference_orthonormal_columns(a))

    @pytest.mark.parametrize("func", [nullspaces, orthonormal_bases])
    @pytest.mark.parametrize("shape", [(3, 3), (3,), (1, 2, 3, 3)])
    def test_non_stack_rejected(self, func, shape):
        with pytest.raises(ValueError, match=r"\(G, m, n\) stack"):
            func(np.zeros(shape))


class TestSpectralNorm:
    """``spectral_norm`` reads the first singular value off one SVD call; it
    must give the bits of ``np.linalg.norm(a, 2)``, which calls the same
    gufunc through ``moveaxis`` and ``amax``."""

    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (24, 24), (24, 12), (12, 24),
                                       (40, 3), (3, 40)])
    def test_matches_norm_2(self, shape):
        rng = np.random.default_rng(sum(shape))
        for _ in range(20):
            a = gaussian(rng, *shape)
            assert linalg.spectral_norm(a) == np.linalg.norm(a, 2)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (24, 12), (12, 24)])
    def test_real_inputs_match_norm_2(self, shape):
        rng = np.random.default_rng(sum(shape))
        for _ in range(20):
            a = rng.standard_normal(shape)
            assert linalg.spectral_norm(a) == np.linalg.norm(a.astype(complex), 2)

    @pytest.mark.parametrize("shape", [(0, 3), (4, 0), (0, 0)])
    def test_empty_inputs_give_zero(self, shape):
        value = linalg.spectral_norm(np.zeros(shape))
        assert value == 0.0 and type(value) is float


EPS = np.finfo(float).eps
# the shapes the kernel is checked on: every m, n <= 6, so the closed-form
# 1 x 1 and 2 x 2 Grams and the eigvalsh route each see wide, tall and square
KERNEL_SHAPES = [(m, n) for m in range(1, 7) for n in range(1, 7)]


def _adversarial_stacks(rng, m, n):
    """(name, stack) pairs that stress a Gram-eigenvalue norm: repeated
    sigma_1 (isometries), rank one, zero slices, extreme scales, a planted
    unitary block, a near-tie at sigma_1 and columns of very different size."""
    k = min(m, n)
    yield "gaussian", gaussian(rng, 16, m, n)
    yield "isometry", np.stack([haar_unitary(max(m, n), rng)[:m, :n] for _ in range(8)])
    yield "rank1", np.stack([np.outer(gaussian(rng, m), gaussian(rng, n).conj())
                             for _ in range(8)])
    zeros = gaussian(rng, 8, m, n)
    zeros[::2] = 0.0
    yield "zero_slices", zeros
    for scale in (1e200, 1e-200, 1e300, 1e-300):
        yield f"scale_{scale:g}", scale * gaussian(rng, 8, m, n)
    planted = np.zeros((8, m, n), dtype=complex)
    for block in planted:
        r = int(rng.integers(1, k + 1))
        block[:r, :r] = haar_unitary(r, rng)
        block[r:, r:] = gaussian(rng, m - r, n - r) / 8
    yield "planted_unitary", planted
    tie = 1.0 + np.r_[0.0, np.full(k - 1, 1e-9)]
    yield "near_tie", np.stack([(haar_unitary(m, rng)[:, :k] * tie) @ haar_unitary(n, rng)[:k]
                                for _ in range(8)])
    yield "column_scales", gaussian(rng, 8, m, n) * np.logspace(-150, 150, n)


class TestSpectralNorms:
    """``spectral_norms`` takes sigma_1 from the largest eigenvalue of a
    scaled Gram matrix, not from an SVD: it must stay within 8 eps
    (relative) of ``np.linalg.svd``, and give each slice the bits it gets
    alone."""

    @pytest.mark.parametrize("m, n", KERNEL_SHAPES)
    def test_within_8_eps_of_svd(self, m, n):
        rng = np.random.default_rng(10 * m + n)
        for name, stack in _adversarial_stacks(rng, m, n):
            svd = np.array([np.linalg.svd(a, compute_uv=False)[0] for a in stack])
            got = linalg.spectral_norms(stack)
            assert np.all(np.abs(got - svd) <= 8 * EPS * svd), name

    @pytest.mark.parametrize("m, n", KERNEL_SHAPES)
    def test_each_slice_has_its_own_bits(self, m, n):
        rng = np.random.default_rng(10 * m + n)
        for name, stack in _adversarial_stacks(rng, m, n):
            alone = [linalg.spectral_norms(a[None])[0] for a in stack]
            assert same_bits(linalg.spectral_norms(stack), np.array(alone)), name

    @pytest.mark.parametrize("shape", [(4, 0, 3), (4, 3, 0), (4, 0, 0), (4, 1, 1),
                                       (4, 2, 5), (4, 5, 2), (4, 3, 3), (0, 3, 3)])
    def test_empty_and_zero_matrices_give_zero(self, shape):
        norms = linalg.spectral_norms(np.zeros(shape))
        assert norms.shape == (shape[0],) and same_bits(norms, np.zeros(shape[0]))

    @pytest.mark.parametrize("stack, message", [
        (np.eye(2), "stack"),
        (np.zeros(3), "stack"),
        (np.zeros((2, 2, 2, 2)), "stack"),
        (np.array([[[np.nan, 0.0], [0.0, 1.0]]]), "non-finite"),
        (np.array([[[0.5, 0.0], [0.0, np.inf]]]), "non-finite"),
        (np.array([[[0.5]], [[1j * np.inf]]]), "non-finite"),
        (np.array([[[0.5, 0.2, 0.1]], [[-np.inf, 0.0, 0.0]]]).transpose(0, 2, 1), "non-finite"),
    ], ids=["2-d", "1-d", "4-d", "nan", "inf", "imag-inf", "tall-inf"])
    def test_malformed_stack_rejected(self, stack, message):
        with pytest.raises(ValueError, match=message):
            linalg.spectral_norms(stack)

    def test_coefficient_norm_sum_keeps_zero_and_tiny_apart(self):
        assert symbols.coefficient_norm_sum(MatrixSymbol.zero(2, 3)) == 0.0
        zero_block = MatrixSymbol(2, 2, {1: [[0.0, 0.0], [0.0, 1e-200]]})
        assert symbols.coefficient_norm_sum(zero_block) == 1e-200
        tiny = MatrixSymbol(3, 3, {2: 1e-200 * np.ones((3, 3))})
        assert symbols.coefficient_norm_sum(tiny) > 0.0


@pytest.mark.parametrize("name,make_symbol,window", CANARIES,
                         ids=[f"{c[0]}-w{c[2]}" for c in CANARIES])
def test_decomposition_matches_reference_kernels(name, make_symbol, window, monkeypatch):
    sym = make_symbol()
    fast = toeplitz_unitary_part(sym, window)
    fast_loop = _window_eigenspaces(sym, window, DEFAULT_TOL)
    with monkeypatch.context() as patch:
        for module in (linalg, decomposition):
            patch.setattr(module, "normalize_column_phases", reference_normalize_column_phases)
        patch.setattr(decomposition, "nullspace", reference_nullspace)
        patch.setattr(decomposition, "nullspaces",
                      lambda stack, tol: [reference_nullspace(a, tol) for a in stack])
        reference = toeplitz_unitary_part(sym, window)
        reference_loop = _window_eigenspaces(sym, window, DEFAULT_TOL)
    assert same_bits(fast.subspace.basis, reference.subspace.basis)
    assert fast.params == reference.params
    assert fast.certification == reference.certification
    assert fast.classification == reference.classification
    assert same_bits(fast_loop[0], reference_loop[0])
    assert fast_loop[1:] == reference_loop[1:]


@pytest.mark.parametrize("name,make_symbol,window", CANARIES,
                         ids=[f"{c[0]}-w{c[2]}" for c in CANARIES])
def test_decomposition_matches_per_coefficient_products(name, make_symbol, window,
                                                        monkeypatch):
    sym = make_symbol()
    fast = toeplitz_unitary_part(sym, window)
    fast_loop = _window_eigenspaces(sym, window, DEFAULT_TOL)
    fast_brute = toeplitz_unitary_part_brute(sym, window)
    with monkeypatch.context() as patch:
        for module in (hardy, decomposition):
            patch.setattr(module, "convolve_block_columns", reference_convolve_block_columns)
        for module in (symbols, decomposition):
            patch.setattr(module, "multiply", reference_multiply)
        reference = toeplitz_unitary_part(sym, window)
        reference_loop = _window_eigenspaces(sym, window, DEFAULT_TOL)
        reference_brute = toeplitz_unitary_part_brute(sym, window)
    assert same_bits(fast.subspace.basis, reference.subspace.basis)
    assert fast.params == reference.params
    assert fast.certification == reference.certification
    assert fast.classification == reference.classification
    assert same_bits(fast_loop[0], reference_loop[0])
    assert fast_loop[1:] == reference_loop[1:]
    assert same_bits(fast_brute.basis, reference_brute.basis)
