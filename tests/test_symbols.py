import numpy as np
import pytest

from helpers import assert_same_bits, parity_symbol, reference_multiply
from toeplitz_unitary.linalg import haar_unitary, spectral_norm, spectral_norms
from toeplitz_unitary.symbols import (
    CircleGrid,
    MatrixSymbol,
    adjoint_symbol,
    bcl_symbol,
    compose_scalar_polynomial,
    default_grid,
    eval_disc,
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

    def test_disc_value_of_polynomial(self):
        # (1 - z^2) E12 + z^3 E21 has a zero coefficient at z
        sym = MatrixSymbol(2, 2, {0: E12, 2: -E12, 3: E21})
        for z in (0.0, 0.5j, -0.3 + 0.4j, np.exp(0.7j)):
            np.testing.assert_allclose(
                eval_disc(sym, z), (1 - z * z) * E12 + z ** 3 * E21, atol=1e-15)
        for t in (0.0, 1.3, np.pi):
            np.testing.assert_allclose(
                eval_disc(sym, np.exp(1j * t)), eval_symbol(sym, t), atol=1e-14)

    def test_disc_rejects_negative_index(self):
        with pytest.raises(ValueError, match="negative Fourier"):
            eval_disc(MatrixSymbol(2, 2, {-1: E12, 1: E21}), 0.5)


class TestEvalDiscParity:
    """Each slice of ``eval_disc`` on an array of points has the bits of the
    scalar call: Horner's steps are elementwise."""

    POINTS = np.concatenate([0.9 * np.exp(2j * np.pi * np.arange(32) / 32),
                             np.exp(1j * np.linspace(0.0, 6.0, 7)), [0.0, -0.5, 0.25j]])

    @pytest.mark.parametrize("d_out, d_in, band", [(3, 3, 1), (2, 3, 2), (1, 1, 4), (4, 2, 0)])
    def test_slices_match_scalar_calls(self, d_out, d_in, band):
        rng = np.random.default_rng(d_out + 10 * d_in + 100 * band)
        sym = MatrixSymbol(d_out, d_in, {k: rng.standard_normal((d_out, d_in))
                                         + 1j * rng.standard_normal((d_out, d_in))
                                         for k in range(band + 1)})
        values = eval_disc(sym, self.POINTS)
        assert values.shape == (len(self.POINTS), d_out, d_in)
        for value, z in zip(values, self.POINTS):
            assert_same_bits(value, eval_disc(sym, z))
            assert_same_bits(value, eval_disc(sym, complex(z)))
        assert_same_bits(eval_disc(sym, self.POINTS[:40].reshape(5, 8)),
                         values[:40].reshape(5, 8, d_out, d_in))
        reals = np.array([0.0, 0.5, -0.7])
        for value, x in zip(eval_disc(sym, reals), reals):
            assert_same_bits(value, eval_disc(sym, float(x)))

    @pytest.mark.parametrize("z", [np.nan, np.inf, complex(0.0, -np.inf), complex("nan"),
                                   np.array([0.5, np.nan]), np.array([[0.1j], [np.inf]])],
                             ids=["nan", "inf", "imag-inf", "complex-nan", "stack-nan", "stack-inf"])
    def test_non_finite_point_rejected_by_name(self, z):
        # Horner's rule returned an all-NaN value without a word
        sym = MatrixSymbol(2, 2, {0: E12, 1: E21})
        with pytest.raises(ValueError, match="finite points, got z=.*(nan|inf)"):
            eval_disc(sym, z)


class TestEvalSymbolParity:
    """Each slice of ``eval_symbol`` on an array of angles has the bits of the
    scalar call: the Fourier sum is taken term by term, elementwise."""

    ANGLES = np.concatenate([CircleGrid(64).points, np.linspace(-7.0, 7.0, 9),
                             [0.0, -0.0, np.pi, 2.0 * np.pi, 1e6]])

    @pytest.mark.parametrize("d_out, d_in, count", [(1, 1, 1), (2, 3, 4), (3, 2, 6), (4, 4, 3)])
    def test_slices_match_scalar_calls(self, d_out, d_in, count):
        rng = np.random.default_rng(d_out + 10 * d_in + 100 * count)
        for adjoint in (False, True):
            # shuffled sparse indices, some coefficients holding -0.0 rows
            sym = parity_symbol(rng, d_out, d_in, count, adjoint=adjoint)
            values = eval_symbol(sym, self.ANGLES)
            assert values.shape == (len(self.ANGLES), sym.dim_out, sym.dim_in)
            for value, t in zip(values, self.ANGLES):
                assert_same_bits(value, eval_symbol(sym, t))
                assert_same_bits(value, eval_symbol(sym, float(t)))
            assert_same_bits(eval_symbol(sym, self.ANGLES[:72].reshape(8, 9)),
                             values[:72].reshape(8, 9, sym.dim_out, sym.dim_in))

    def test_zero_symbol_and_no_angles(self):
        zero = MatrixSymbol.zero(2, 3)
        assert_same_bits(eval_symbol(zero, self.ANGLES), np.zeros((len(self.ANGLES), 2, 3), complex))
        assert_same_bits(eval_symbol(zero, 0.5), np.zeros((2, 3), complex))
        sym = parity_symbol(np.random.default_rng(0), 2, 3, 4)
        assert eval_symbol(sym, np.zeros(0)).shape == (0, 2, 3)


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


def assert_same_symbol(got, want):
    """Same key order, same coefficient bits and layouts."""
    assert (got.dim_out, got.dim_in) == (want.dim_out, want.dim_in)
    assert list(got.coeffs) == list(want.coeffs)
    for k, mat in want.coeffs.items():
        assert_same_bits(got.coeffs[k], mat)
        assert got.coeffs[k].flags.c_contiguous == mat.flags.c_contiguous


class TestMultiplyParity:
    """The product against an in-test loop of one product per pair."""

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

    def test_many_coefficients(self):
        # dozens to thousands of 3x3 coefficients
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
        theta = MatrixSymbol.constant([[1.0], [0.0]])
        rep = is_inner(theta)
        assert rep.is_inner and rep.residual == 0.0

    def test_shift_times_identity(self):
        theta = MatrixSymbol.shift(2)
        assert is_inner(theta).is_inner

    def test_half_identity(self):
        rep = is_inner(MatrixSymbol.constant(0.5 * np.eye(2)))
        assert not rep.is_inner
        np.testing.assert_allclose(rep.residual, 0.75, atol=1e-14)

    def test_gram_sum_alone_is_not_enough(self):
        # (1 + z)/sqrt(2) has isometric coefficient Gram but is not inner
        c = 1.0 / np.sqrt(2.0)
        theta = MatrixSymbol(1, 1, {0: [[c]], 1: [[c]]})
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
            instances.append(analytic)
        u = haar_unitary(2, rng)
        instances.append(bcl_symbol(u, P))
        instances.append(MatrixSymbol.constant(u))
        for j, theta in enumerate(instances):
            rep = is_inner(theta)
            v = eval_symbol(theta, CircleGrid(4096).points)
            defect = v.conj().transpose(0, 2, 1) @ v - np.eye(2)
            assert rep.residual >= spectral_norms(defect).max()
            assert (rep.residual <= 1e-8) == (j >= 10)

    def test_rectangular_wide_rejected(self):
        with pytest.raises(ValueError):
            is_inner(MatrixSymbol.constant(np.ones((1, 2))))

    def test_negative_index_rejected(self):
        # an inner function of z-bar: isometric on the circle, not analytic
        with pytest.raises(ValueError, match="negative Fourier"):
            is_inner(adjoint_symbol(MatrixSymbol.shift(2)))


class TestUnitarityMask:
    def test_constant_unitary_measure_one(self):
        u = haar_unitary(2, np.random.default_rng(7))
        for g in (8, 10, 512):
            mask = pointwise_unitarity_mask(MatrixSymbol.constant(u), CircleGrid(g))
            assert mask.mean() == 1.0

    def test_model_symbol_measure_one(self):
        mask = pointwise_unitarity_mask(bcl_symbol(np.eye(2), P), CircleGrid(256))
        assert mask.mean() == 1.0

    def test_strict_contraction_measure_zero(self):
        mask = pointwise_unitarity_mask(
            MatrixSymbol.constant(0.5 * np.eye(2)), CircleGrid(64))
        assert mask.mean() == 0.0


class TestSupNorm:
    def test_constant_unitary(self):
        u = haar_unitary(3, np.random.default_rng(8))
        assert abs(sup_norm_estimate(MatrixSymbol.constant(u)) - 1.0) < 1e-12

    def test_half_identity(self):
        assert abs(sup_norm_estimate(MatrixSymbol.constant(0.5 * np.eye(2))) - 0.5) < 1e-15

    def test_model_symbol(self):
        assert abs(sup_norm_estimate(bcl_symbol(np.eye(2), P)) - 1.0) < 1e-12

    def test_default_grid(self):
        for band, size in ((0, 512), (255, 512), (256, 513), (300, 601)):
            sym = MatrixSymbol(1, 1, {-band: [[0.5]]})
            assert default_grid(sym).size == size
            assert abs(sup_norm_estimate(sym, default_grid(sym)) - 0.5) < 1e-15


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
        # exact-zero top coefficients are dropped, so the degree (band) of an
        # analytic polynomial is that of its last nonzero coefficient
        p = MatrixSymbol(1, 1, {0: [[1.0]], 1: [[0.0]], 2: [[0.0]]})
        assert list(p.coeffs) == [0] and p.band == 0 and p.is_analytic
        q = MatrixSymbol(1, 1, {0: [[1.0]], 1: [[0.0]], 2: [[0.5]], 3: [[-0.0]]})
        assert list(q.coeffs) == [0, 2] and q.band == 2

    def test_grid_points_and_weights(self):
        for g in (1, 7, 64):
            grid = CircleGrid(g)
            pts = grid.points
            assert pts[0] == 0.0 and np.all(np.diff(pts) > 0) and pts[-1] < 2 * np.pi
