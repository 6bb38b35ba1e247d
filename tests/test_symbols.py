import numpy as np
import pytest

from test_hardy import assert_same_bits, parity_symbol
from toeplitz_unitary import symbols
from toeplitz_unitary.linalg import haar_unitary, spectral_norm, spectral_norms
from toeplitz_unitary.symbols import (
    CircleGrid,
    MatrixSymbol,
    PolyMatrix,
    adjoint_symbol,
    bcl_symbol,
    compose_scalar_polynomial,
    eval_on_grid,
    eval_symbol,
    is_inner,
    multiply,
    pointwise_unitarity_mask,
    sup_norm_estimate,
)

P = np.diag([1.0, 0.0])
E12 = np.array([[0.0, 1.0], [0.0, 0.0]])
E21 = np.array([[0.0, 0.0], [1.0, 0.0]])


def random_symbol(rng, dim_out, dim_in, band, scale=1.0):
    coeffs = {
        k: scale * (rng.standard_normal((dim_out, dim_in))
                    + 1j * rng.standard_normal((dim_out, dim_in)))
        for k in range(-band, band + 1)
    }
    return MatrixSymbol(dim_out, dim_in, coeffs)


class TestEval:
    def test_constant(self):
        sym = MatrixSymbol.constant(np.eye(2))
        np.testing.assert_allclose(eval_symbol(sym, 1.3), np.eye(2))

    def test_model_symbol_at_zero(self):
        sym = bcl_symbol(np.eye(2), P)
        np.testing.assert_allclose(eval_symbol(sym, 0.0), np.eye(2), atol=1e-15)

    def test_two_term(self):
        sym = MatrixSymbol(2, 2, {-1: E12, 1: E21})
        expected = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        np.testing.assert_allclose(eval_symbol(sym, np.pi / 2), expected, atol=1e-15)


class TestAdjoint:
    def test_constant(self):
        u = haar_unitary(3, np.random.default_rng(0))
        adj = adjoint_symbol(MatrixSymbol.constant(u))
        np.testing.assert_allclose(adj.coeff(0), u.conj().T)

    def test_model_symbol(self):
        adj = adjoint_symbol(bcl_symbol(np.eye(2), P))
        assert set(adj.coeffs) == {-1, 0}
        np.testing.assert_allclose(adj.coeff(-1), P)
        np.testing.assert_allclose(adj.coeff(0), np.eye(2) - P)

    def test_involution_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            sym = random_symbol(rng, 3, 2, band=3)
            back = adjoint_symbol(adjoint_symbol(sym))
            assert set(back.coeffs) == set(sym.coeffs)
            for k in sym.coeffs:
                np.testing.assert_array_equal(back.coeff(k), sym.coeff(k))

    def test_pointwise_adjoint(self):
        rng = np.random.default_rng(2)
        sym = random_symbol(rng, 2, 2, band=2)
        adj = adjoint_symbol(sym)
        for t in CircleGrid(17).points:
            np.testing.assert_allclose(
                eval_symbol(adj, t), eval_symbol(sym, t).conj().T, atol=1e-13)


class TestMultiply:
    def test_identity(self):
        rng = np.random.default_rng(3)
        sym = random_symbol(rng, 2, 2, band=2)
        prod = multiply(MatrixSymbol.constant(np.eye(2)), sym)
        for k in sym.coeffs:
            np.testing.assert_allclose(prod.coeff(k), sym.coeff(k))

    def test_model_times_adjoint_is_identity(self):
        sym = bcl_symbol(np.eye(2), P)
        prod = multiply(sym, adjoint_symbol(sym))
        assert set(prod.coeffs) == {0}
        np.testing.assert_allclose(prod.coeff(0), np.eye(2))

    def test_monomials(self):
        z = MatrixSymbol(1, 1, {1: [[1.0]]})
        prod = multiply(z, z)
        assert set(prod.coeffs) == {2}
        np.testing.assert_allclose(prod.coeff(2), [[1.0]])

    def test_dimension_mismatch(self):
        a = MatrixSymbol.constant(np.eye(2))
        b = MatrixSymbol.constant(np.eye(3))
        with pytest.raises(ValueError):
            multiply(a, b)

    def test_pointwise_product(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = random_symbol(rng, 2, 3, band=2)
            b = random_symbol(rng, 3, 2, band=3)
            prod = multiply(a, b)
            assert prod.band <= a.band + b.band
            for t in CircleGrid(23).points:
                lhs = eval_symbol(prod, t)
                rhs = eval_symbol(a, t) @ eval_symbol(b, t)
                assert spectral_norm(lhs - rhs) < 1e-12 * max(spectral_norm(rhs), 1.0)

    def test_power_matches_repeated_eval(self):
        rng = np.random.default_rng(5)
        sym = random_symbol(rng, 2, 2, band=1, scale=0.4)
        cube = compose_scalar_polynomial(sym, [0, 0, 0, 1])
        for t in CircleGrid(9).points:
            np.testing.assert_allclose(
                eval_symbol(cube, t),
                np.linalg.matrix_power(eval_symbol(sym, t), 3), atol=1e-12)


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


def assert_same_symbol(got, want):
    """Same key order, same coefficient bits and layouts."""
    assert (got.dim_out, got.dim_in) == (want.dim_out, want.dim_in)
    assert list(got.coeffs) == list(want.coeffs)
    for k, mat in want.coeffs.items():
        assert_same_bits(got.coeffs[k], mat)
        assert got.coeffs[k].flags.c_contiguous == mat.flags.c_contiguous


class TestMultiplyParity:
    """Row-stacked coefficient products against one product per pair."""

    @pytest.mark.parametrize("d_out", [1, 2, 3, 4, 5])
    def test_matches_per_pair_loop(self, d_out):
        rng = np.random.default_rng(30 + d_out)
        for d_mid in (1, 2, 3):
            for d_in in (1, 2, 4):
                for adj_a, adj_b in ((False, False), (True, False), (False, True), (True, True)):
                    a = parity_symbol(rng, d_out, d_mid, int(rng.integers(1, 8)), adj_a)
                    b = parity_symbol(rng, d_mid, d_in, int(rng.integers(1, 5)), adj_b)
                    assert_same_symbol(multiply(a, b), reference_multiply(a, b))

    def test_cancellation_and_signed_zeros(self):
        # terms that cancel exactly drop their index; -0.0 products keep their sign
        a = MatrixSymbol(2, 2, {0: np.eye(2), 1: np.eye(2), 3: [[-0.0, 1.0], [2.0, -0.0]]})
        b = MatrixSymbol(2, 2, {1: np.eye(2), 0: -np.eye(2), -5: [[1.0, -0.0], [-0.0, 1.0]]})
        got = multiply(a, b)
        assert_same_symbol(got, reference_multiply(a, b))
        assert 1 not in got.coeffs

    @pytest.mark.parametrize("max_entries", [1, None, 2 ** 40], ids=["one", "default", "huge"])
    def test_many_coefficients_across_chunks(self, max_entries, monkeypatch):
        # symbol powers of the brute oracle: dozens of 3x3 coefficients
        if max_entries is not None:
            monkeypatch.setattr(symbols, "COEFF_PRODUCT_MAX_ENTRIES", max_entries)
        rng = np.random.default_rng(40)
        for count in (40, 2000):
            for adj_a, adj_b in ((False, False), (True, True)):
                a = parity_symbol(rng, 3, 3, count, adj_a, spread=1)
                b = parity_symbol(rng, 3, 3, 3, adj_b, spread=1)
                assert_same_symbol(multiply(a, b), reference_multiply(a, b))
                assert_same_symbol(multiply(b, a), reference_multiply(b, a))

    def test_powers(self):
        rng = np.random.default_rng(41)
        for d in (1, 2, 3, 4):
            sym = random_symbol(rng, d, d, band=1, scale=0.5)
            adj = adjoint_symbol(sym)
            fast = slow = MatrixSymbol.constant(np.eye(d))
            for _ in range(12):
                fast, slow = multiply(fast, sym), reference_multiply(slow, sym)
                assert_same_symbol(fast, slow)
                assert_same_symbol(multiply(adjoint_symbol(fast), fast),
                                   reference_multiply(adjoint_symbol(slow), slow))
                assert_same_symbol(multiply(fast, adj), reference_multiply(slow, adj))

    def test_zero_symbols(self):
        rng = np.random.default_rng(42)
        a = parity_symbol(rng, 2, 3, 4)
        for x, y in ((a, MatrixSymbol.zero(3, 2)), (MatrixSymbol.zero(2, 2), a)):
            assert multiply(x, y).coeffs == {}


class TestIsInner:
    def test_constant_isometric_column(self):
        theta = PolyMatrix(2, 1, (np.array([[1.0], [0.0]]),))
        rep = is_inner(theta)
        assert rep.is_inner and rep.residual == 0.0

    def test_shift_times_identity(self):
        theta = PolyMatrix(2, 2, (np.zeros((2, 2)), np.eye(2)))
        assert is_inner(theta).is_inner

    def test_half_identity(self):
        rep = is_inner(PolyMatrix(2, 2, (0.5 * np.eye(2),)))
        assert not rep.is_inner
        np.testing.assert_allclose(rep.residual, 0.75, atol=1e-14)

    def test_gram_sum_alone_is_not_enough(self):
        # (1 + z)/sqrt(2) has isometric coefficient Gram but is not inner
        c = 1.0 / np.sqrt(2.0)
        theta = PolyMatrix(1, 1, ([[c]], [[c]]))
        rep = is_inner(theta)
        assert not rep.is_inner
        # the coefficients at +-1 are 1/2 each, and the sup norm of the
        # defect cos(t) is 1
        np.testing.assert_allclose(rep.residual, 1.0, atol=1e-14)

    def test_grid_and_coefficient_tests_agree(self):
        """The coefficient residual bounds the defect on a fine grid, and is
        within 1e-8 exactly on the two inner instances."""
        rng = np.random.default_rng(6)
        instances = []
        for _ in range(10):
            raw = random_symbol(rng, 2, 2, band=2, scale=5.0)
            analytic = MatrixSymbol(2, 2, {k: m for k, m in raw.coeffs.items() if k >= 0})
            instances.append(PolyMatrix.from_symbol(analytic))
        u = haar_unitary(2, rng)
        instances.append(PolyMatrix.from_symbol(bcl_symbol(u, P)))
        instances.append(PolyMatrix(2, 2, (u,)))
        for j, theta in enumerate(instances):
            rep = is_inner(theta)
            v = eval_on_grid(theta.as_symbol(), CircleGrid(4096))
            defect = v.conj().transpose(0, 2, 1) @ v - np.eye(2)
            assert rep.residual >= spectral_norms(defect).max()
            assert (rep.residual <= 1e-8) == (j >= 10)

    def test_rectangular_wide_rejected(self):
        with pytest.raises(ValueError):
            is_inner(PolyMatrix(1, 2, (np.ones((1, 2)),)))


class TestUnitarityMask:
    def test_constant_unitary_measure_one(self):
        u = haar_unitary(2, np.random.default_rng(7))
        for g in (8, 10, 512):
            mask = pointwise_unitarity_mask(MatrixSymbol.constant(u), CircleGrid(g))
            assert mask.measure == 1.0

    def test_model_symbol_measure_one(self):
        mask = pointwise_unitarity_mask(bcl_symbol(np.eye(2), P), CircleGrid(256))
        assert mask.measure == 1.0

    def test_strict_contraction_measure_zero(self):
        mask = pointwise_unitarity_mask(
            MatrixSymbol.constant(0.5 * np.eye(2)), CircleGrid(64))
        assert mask.measure == 0.0


class TestSupNorm:
    def test_constant_unitary(self):
        u = haar_unitary(3, np.random.default_rng(8))
        assert abs(sup_norm_estimate(MatrixSymbol.constant(u)) - 1.0) < 1e-12

    def test_half_identity(self):
        assert abs(sup_norm_estimate(MatrixSymbol.constant(0.5 * np.eye(2))) - 0.5) < 1e-15

    def test_model_symbol(self):
        assert abs(sup_norm_estimate(bcl_symbol(np.eye(2), P)) - 1.0) < 1e-12


class TestComposeScalarPolynomial:
    def test_matches_pointwise(self):
        rng = np.random.default_rng(9)
        sym = random_symbol(rng, 2, 2, band=1, scale=0.3)
        coeffs = [0.1, 0.0, 0.5]
        comp = compose_scalar_polynomial(sym, coeffs)
        for t in CircleGrid(13).points:
            v = eval_symbol(sym, t)
            expected = 0.1 * np.eye(2) + 0.5 * (v @ v)
            np.testing.assert_allclose(eval_symbol(comp, t), expected, atol=1e-12)


class TestValidation:
    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            MatrixSymbol(0, 1, {})
        with pytest.raises(ValueError):
            MatrixSymbol(2, 2, {0: np.eye(3)})

    def test_zero_coefficients_dropped(self):
        sym = MatrixSymbol(2, 2, {0: np.eye(2), 3: np.zeros((2, 2))})
        assert set(sym.coeffs) == {0}
        assert sym.band == 0

    @pytest.mark.parametrize("key", [0.7, 1.0, -2.5, True, np.float64(1.0), "1", None])
    def test_non_integer_keys_rejected(self, key):
        # int(0.7) == 0 would silently replace the 0.5 at k = 0
        with pytest.raises(ValueError, match="not an integer"):
            MatrixSymbol(1, 1, {0: [[0.5]], key: [[0.25]]})

    def test_numpy_integer_keys_accepted(self):
        sym = MatrixSymbol(1, 1, {np.int64(-2): [[0.5]], np.int32(1): [[0.25]], 3: [[1.0]]})
        assert list(sym.coeffs) == [-2, 1, 3]
        assert all(type(k) is int for k in sym.coeffs)

    def test_nonzero_test_on_complex_entries(self):
        sym = MatrixSymbol(1, 2, {0: [[0.0, 1e-300j]], 1: [[np.nan, 0.0]],
                                  2: [[-0.0, -0.0j]], 3: [[0.0, complex(-0.0, -0.0)]]})
        assert list(sym.coeffs) == [0, 1]

    def test_polymatrix_trims_leading_zeros(self):
        p = PolyMatrix(1, 1, ([[1.0]], [[0.0]], [[0.0]]))
        assert p.degree == 0

    def test_grid_points_and_weights(self):
        for g in (1, 7, 64):
            grid = CircleGrid(g)
            pts = grid.points
            assert pts[0] == 0.0 and np.all(np.diff(pts) > 0) and pts[-1] < 2 * np.pi
            assert abs(grid.weight * g - 1.0) < 1e-15
