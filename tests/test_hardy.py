import numpy as np
import pytest

from helpers import (
    HardyVector,
    assert_same_bits,
    gaussian,
    parity_symbol,
    reference_convolve_block_columns,
    toeplitz_apply_exact,
)
from toeplitz_unitary.linalg import haar_unitary, spectral_norm
from toeplitz_unitary.symbols import (
    MatrixSymbol,
    adjoint_symbol,
    bcl_symbol,
    is_inner,
    multiply,
    sup_norm_estimate,
)
from toeplitz_unitary.hardy import convolve_block_columns, toeplitz_window_matrix

P = np.diag([1.0, 0.0])


def random_hardy(rng, dim, degree):
    return HardyVector(
        dim, rng.standard_normal((degree + 1, dim)) + 1j * rng.standard_normal((degree + 1, dim)))


def laurent_apply(sym, h):
    """Full symbol action on h: coefficients at indices -band .. deg h + band."""
    return convolve_block_columns(sym, h.coeffs[:, :, None])[:, :, 0], -sym.band


def row_form_apply(sym, h):
    """Reference P_+(F h): one row-form product h @ F_k^T per Fourier coefficient."""
    band = sym.band
    n_in = h.coeffs.shape[0]
    out = np.zeros((n_in + 2 * band, sym.dim_out), dtype=complex)
    for k, mat in sym.coeffs.items():
        out[k + band:k + band + n_in] += h.coeffs @ mat.T
    return out[band:]


class TestConvolveParity:
    """The convolution against an in-test loop of one matmul per coefficient."""

    @pytest.mark.parametrize("adjoint", [False, True], ids=["plain", "adjoint"])
    @pytest.mark.parametrize("d_out", [1, 2, 3, 4, 5])
    def test_matches_per_coefficient_loop(self, d_out, adjoint):
        rng = np.random.default_rng(10 * d_out + adjoint)
        for d_in in (1, 2, 3, 5):
            for n_in, r in ((1, 1), (1, 2), (1, 3), (1, 40), (1, 57), (4, 1), (4, 2), (7, 5)):
                sym = parity_symbol(rng, d_out, d_in, int(rng.integers(1, 9)), adjoint)
                blocks = gaussian(rng, n_in, d_in, r)
                blocks[rng.integers(n_in)] = -0.0
                assert_same_bits(convolve_block_columns(sym, blocks),
                                 reference_convolve_block_columns(sym, blocks))

    def test_strided_blocks(self):
        rng = np.random.default_rng(20)
        sym = parity_symbol(rng, 3, 2, 6)
        base = gaussian(rng, 8, 2, 6)
        for blocks in (base[::-1], base[::2], base[:, :, ::-2], np.asfortranarray(base),
                       base.transpose(0, 2, 1).copy().transpose(0, 2, 1)):
            assert_same_bits(convolve_block_columns(sym, blocks),
                             reference_convolve_block_columns(sym, blocks))

    def test_many_coefficients(self):
        # 73 3x3 coefficients on 78 slices of up to 12 columns
        rng = np.random.default_rng(21)
        for adjoint in (False, True):
            sym = parity_symbol(rng, 3, 3, 73, adjoint, spread=1)
            for r in (1, 2, 12):
                blocks = gaussian(rng, 78, 3, r)
                assert_same_bits(convolve_block_columns(sym, blocks),
                                 reference_convolve_block_columns(sym, blocks))

    def test_empty_and_zero_column_inputs(self):
        rng = np.random.default_rng(22)
        sym = parity_symbol(rng, 2, 2, 3)
        for blocks in (np.zeros((3, 2, 0), complex), gaussian(rng, 3, 2, 4)):
            for s in (sym, MatrixSymbol.zero(2, 2)):
                assert_same_bits(convolve_block_columns(s, blocks),
                                 reference_convolve_block_columns(s, blocks))


class TestToeplitzApply:
    def test_shift_on_constant(self):
        h = HardyVector.constant([1.0, 2.0])
        out = toeplitz_apply_exact(MatrixSymbol.shift(2), h)
        np.testing.assert_allclose(out.coeffs, [[0, 0], [1, 2]])

    def test_adjoint_shift_kills_constants(self):
        h = HardyVector.constant([1.0, 2.0])
        sym = MatrixSymbol(2, 2, {-1: np.eye(2)})
        out = toeplitz_apply_exact(sym, h)
        assert out.norm() == 0.0

    def test_model_symbol_on_constant(self):
        h = HardyVector.constant([3.0, 4.0])
        out = toeplitz_apply_exact(bcl_symbol(np.eye(2), P), h)
        # P-complement part stays constant, P part moves up one degree
        np.testing.assert_allclose(out.coeffs, [[0, 4], [3, 0]])

    def test_matches_truncation_inside_window(self):
        rng = np.random.default_rng(0)
        coeffs = {k: rng.standard_normal((2, 2)) for k in (-1, 0, 1)}
        sym = MatrixSymbol(2, 2, coeffs)
        h = random_hardy(rng, 2, 3)
        out = toeplitz_apply_exact(sym, h)
        n = 3 + 1 + sym.band
        section = toeplitz_window_matrix(sym, n, n)
        flat = section @ np.concatenate([h.coeffs, np.zeros((n - 4, 2))]).ravel()
        np.testing.assert_allclose(out.coeffs[:n].ravel(), flat, atol=1e-13)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        sym = MatrixSymbol(2, 2, {k: rng.standard_normal((2, 2)) for k in (-2, 0, 1)})
        g = random_hardy(rng, 2, 4)
        h = random_hardy(rng, 2, 4)
        alpha = 0.7 - 0.2j
        combined = HardyVector(2, alpha * g.coeffs + h.coeffs)
        lhs = toeplitz_apply_exact(sym, combined).coeffs
        rhs = alpha * toeplitz_apply_exact(sym, g).coeffs + toeplitz_apply_exact(sym, h).coeffs
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            toeplitz_apply_exact(MatrixSymbol.shift(2), HardyVector.constant([1.0]))

    def test_matches_row_form_loop(self):
        # the batched kernel sums in another order than h @ F_k^T: equal up to
        # roundoff, and exactly equal when every coefficient is one column
        rng = np.random.default_rng(12)
        for trial in range(200):
            d_out, d_in = rng.integers(1, 4, size=2)
            if trial % 4 == 0:
                d_in = 1
            sym = MatrixSymbol(d_out, d_in, {
                k: rng.standard_normal((d_out, d_in)) + 1j * rng.standard_normal((d_out, d_in))
                for k in rng.choice(np.arange(-3, 4), size=rng.integers(1, 5), replace=False)})
            h = random_hardy(rng, d_in, int(rng.integers(0, 6)))
            got = toeplitz_apply_exact(sym, h).coeffs
            want = row_form_apply(sym, h)
            assert got.shape == want.shape
            if d_in == 1:
                assert np.array_equal(got, want)
            else:
                assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


class TestLaurentApply:
    """The full (two-sided) symbol action, read off ``convolve_block_columns``."""

    def test_constant_symbol(self):
        u = haar_unitary(2, np.random.default_rng(2))
        h = HardyVector(2, np.array([[1.0, 0.0], [0.0, 2.0]]))
        out, offset = laurent_apply(MatrixSymbol.constant(u), h)
        assert offset == 0
        np.testing.assert_allclose(out[0], u @ [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(out[1], u @ [0.0, 2.0], atol=1e-14)

    def test_down_shift_leaves_analytic(self):
        sym = MatrixSymbol(1, 1, {-1: [[1.0]]})
        out, offset = laurent_apply(sym, HardyVector.constant([1.0]))
        assert offset == -1
        np.testing.assert_allclose(out, [[1.0], [0.0], [0.0]])

    def test_model_symbol_preserves_kernel_vectors(self):
        sym = bcl_symbol(np.eye(2), P)
        eta = HardyVector.constant([0.0, 1.0])  # P eta = 0
        out, offset = laurent_apply(sym, eta)
        assert offset == -1
        assert np.linalg.norm(out[:-offset]) == 0.0
        np.testing.assert_allclose(out[-offset], [0.0, 1.0])
        assert abs(np.linalg.norm(out) - eta.norm()) < 1e-15

    def test_norm_is_circle_average(self):
        # Parseval: coefficient norm of F h equals the L2 norm on the circle
        rng = np.random.default_rng(3)
        sym = MatrixSymbol(2, 2, {k: rng.standard_normal((2, 2)) * 0.5 for k in (-1, 0, 2)})
        h = random_hardy(rng, 2, 3)
        out, _ = laurent_apply(sym, h)
        from toeplitz_unitary.symbols import CircleGrid, eval_symbol

        grid = CircleGrid(64)
        total = 0.0
        hpoly = h.coeffs
        for t in grid.points:
            hval = sum(hpoly[k] * np.exp(1j * k * t) for k in range(hpoly.shape[0]))
            total += np.linalg.norm(eval_symbol(sym, t) @ hval) ** 2 / grid.size
        assert abs(np.sqrt(total) - np.linalg.norm(out)) < 1e-12


class TestTruncate:
    """Finite sections: ``toeplitz_window_matrix(sym, n, n)``."""

    def test_constant_block_diagonal(self):
        u = haar_unitary(2, np.random.default_rng(4))
        m = toeplitz_window_matrix(MatrixSymbol.constant(u), 3, 3)
        np.testing.assert_allclose(m, np.kron(np.eye(3), u), atol=1e-15)

    def test_shift_is_nilpotent_lower(self):
        m = toeplitz_window_matrix(MatrixSymbol.shift(1), 3, 3)
        np.testing.assert_allclose(m, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])

    def test_model_symbol_window_two(self):
        m = toeplitz_window_matrix(bcl_symbol(np.eye(2), P), 2, 2)
        pp = np.eye(2) - P
        expected = np.block([[pp, np.zeros((2, 2))], [P, pp]])
        np.testing.assert_allclose(m, expected, atol=1e-15)

    def test_norm_bounded_by_symbol(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            sym = MatrixSymbol(
                2, 2, {k: rng.standard_normal((2, 2)) for k in range(-2, 3)})
            m = toeplitz_window_matrix(sym, 6, 6)
            assert spectral_norm(m) <= sup_norm_estimate(sym) + 1e-9


class TestBrownHalmos:
    """Finite sections M satisfy S* M S = M on the leading (n-1) x (n-1)
    blocks, S the truncated block shift."""

    @staticmethod
    def interior_residual(sym, n):
        m = toeplitz_window_matrix(sym, n, n)
        s = toeplitz_window_matrix(MatrixSymbol.shift(sym.dim_out), n, n)
        inner = (n - 1) * sym.dim_out
        return spectral_norm((s.conj().T @ m @ s - m)[:inner, :inner])

    def test_truncations_satisfy_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            sym = MatrixSymbol(
                2, 2, {k: rng.standard_normal((2, 2)) for k in range(-2, 3)})
            assert self.interior_residual(sym, 5) <= 1e-12

    def test_constant_symbol_exact(self):
        assert self.interior_residual(MatrixSymbol.constant(np.eye(2)), 4) == 0.0


class TestWindowMatrices:
    def test_window_matrix_matches_apply(self):
        rng = np.random.default_rng(8)
        sym = MatrixSymbol(2, 2, {k: rng.standard_normal((2, 2)) for k in (-1, 1)})
        h = random_hardy(rng, 2, 3)
        out = toeplitz_apply_exact(sym, h)
        m = toeplitz_window_matrix(sym, 4, 5)
        np.testing.assert_allclose(m @ h.coeffs.ravel(), out.coeffs.ravel(), atol=1e-13)


class TestIsometryCharacterization:
    """Norm preservation on polynomial vectors versus innerness of the symbol."""

    def build_cases(self):
        rng = np.random.default_rng(10)
        inner = [
            MatrixSymbol.constant(haar_unitary(2, rng)),
            bcl_symbol(haar_unitary(2, rng), P),
            multiply(bcl_symbol(np.eye(2), P), bcl_symbol(haar_unitary(2, rng), np.eye(2) - P)),
        ]
        non_inner = [
            MatrixSymbol.constant(0.5 * np.eye(2)),
            MatrixSymbol(2, 2, {0: 0.9 * np.eye(2), 1: 0.05 * np.eye(2)}),
        ]
        return rng, inner, non_inner

    def preserves_norm(self, sym, rng, samples=100):
        worst = 0.0
        for _ in range(samples):
            h = random_hardy(rng, sym.dim_in, 8)
            worst = max(worst, abs(toeplitz_apply_exact(sym, h).norm() - h.norm()))
        return worst <= 1e-10

    def test_isometry_iff_inner(self):
        rng, inner, non_inner = self.build_cases()
        for sym in inner:
            assert is_inner(sym).is_inner
            assert self.preserves_norm(sym, rng)
        for sym in non_inner:
            assert not is_inner(sym).is_inner
            assert not self.preserves_norm(sym, rng)

    def test_two_sided_iff_constant_unitary(self):
        rng = np.random.default_rng(11)
        u = haar_unitary(2, rng)
        both_sided = [MatrixSymbol.constant(u)]
        one_sided = [MatrixSymbol.shift(2), bcl_symbol(np.eye(2), P)]
        for sym in both_sided:
            assert self.preserves_norm(sym, rng)
            assert self.preserves_norm(adjoint_symbol(sym), rng)
            assert sym.band == 0
        for sym in one_sided:
            assert self.preserves_norm(sym, rng)
            assert not self.preserves_norm(adjoint_symbol(sym), rng)
