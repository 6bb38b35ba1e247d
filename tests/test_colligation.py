import numpy as np
import pytest

from helpers import assert_same_bits, random_colligation, reference_defect_identities
from toeplitz_unitary.linalg import DEFAULT_TOL, haar_unitary, random_projection, spectral_norm
from toeplitz_unitary.symbols import CircleGrid, eval_disc, eval_symbol
from toeplitz_unitary.colligation import (
    Colligation,
    bcl_colligation,
    defect_identities,
    disc_grid,
    embed_unitary_block,
    polynomial_from_colligation,
    tau_eval,
    validate,
)

P = np.diag([1.0, 0.0])


class TestValidate:
    def test_unitary_with_empty_state(self):
        u = haar_unitary(3, np.random.default_rng(0))
        w = Colligation(3, 0, u, np.zeros((3, 0)), np.zeros((0, 3)), np.zeros((0, 0)))
        assert validate(w).is_valid

    def test_bcl_is_exactly_unitary(self):
        rng = np.random.default_rng(1)
        w = bcl_colligation(haar_unitary(4, rng), random_projection(4, 2, rng))
        rep = validate(w)
        assert max(rep.residual_left, rep.residual_right) <= 1e-12

    def test_half_identity_invalid(self):
        w = Colligation(2, 0, 0.5 * np.eye(2), np.zeros((2, 0)),
                        np.zeros((0, 2)), np.zeros((0, 0)))
        rep = validate(w)
        assert not rep.is_valid
        np.testing.assert_allclose(rep.residual_left, 0.75, atol=1e-14)

    def test_valid_colligation_block_norms(self):
        # unitarity of W forces norm(A) <= 1 and norm(D) <= 1
        rng = np.random.default_rng(20)
        for _ in range(10):
            w = random_colligation(int(rng.integers(1, 5)), int(rng.integers(0, 5)), rng)
            assert validate(w).is_valid
            assert spectral_norm(w.A) <= 1 + 1e-12
            assert spectral_norm(w.D) <= 1 + 1e-12


@pytest.mark.parametrize("block", ["A", "B", "C", "D"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.inf], ids=["nan", "inf", "imag-inf"])
@pytest.mark.parametrize("call", [
    validate,
    lambda w: defect_identities(w, disc_grid(4, 0.5)),
    polynomial_from_colligation,
], ids=["validate", "defect_identities", "polynomial_from_colligation"])
def test_non_finite_block_rejected(call, bad, block):
    # with A = [[nan]], validate and defect_identities raised LinAlgError
    # ("SVD did not converge") and polynomial_from_colligation returned a
    # symbol with a NaN coefficient; the blocks are refused where they enter
    blocks = {"A": [[0.0]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]]}
    blocks[block] = [[bad]]
    with pytest.raises(ValueError, match=f"block {block} has non-finite entries"):
        call(Colligation(1, 1, **blocks))


class TestTauEval:
    def test_at_zero_returns_a(self):
        rng = np.random.default_rng(2)
        w = random_colligation(3, 2, rng)
        np.testing.assert_array_equal(tau_eval(w, 0.0), w.A)

    def test_no_state_space_constant(self):
        u = haar_unitary(2, np.random.default_rng(3))
        w = Colligation(2, 0, u, np.zeros((2, 0)), np.zeros((0, 2)), np.zeros((0, 0)))
        for lam in (0.0, 0.3 + 0.2j, -0.9):
            np.testing.assert_allclose(tau_eval(w, lam), u)

    def test_model_colligation_at_half(self):
        w = bcl_colligation(np.eye(2), P)
        np.testing.assert_allclose(tau_eval(w, 0.5), np.diag([0.5, 1.0]), atol=1e-14)

    def test_boundary_rejected(self):
        w = random_colligation(2, 1, np.random.default_rng(4))
        with pytest.raises(ValueError):
            tau_eval(w, 1.0)

    @pytest.mark.parametrize("lam, shown", [
        (complex("nan"), "nan"), (float("nan"), "nan"), (complex(0.0, float("nan")), "nan"),
        (float("inf"), "inf"), (complex(-float("inf"), 0.5), "inf"), (1.0, "1"),
        (np.array([0.5, 0.2j, complex("nan"), 0.1]), "nan"),
        (np.array([[0.5, 0.2j], [1.0 + 1e-9, 0.0]]), "1.000000001"),
    ], ids=["nan", "real-nan", "imag-nan", "inf", "neg-inf", "one", "stack-nan", "stack-off"])
    def test_off_disc_point_rejected_by_name(self, lam, shown):
        # "abs(nan) >= 1" is False, so the old gate let NaN through and
        # returned an all-NaN value
        w = random_colligation(2, 1, np.random.default_rng(4))
        with pytest.raises(ValueError, match=f"only on \\|lambda\\| < 1, got lambda=.*{shown}"):
            tau_eval(w, lam)

    def test_contractive_on_disc(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            w = random_colligation(int(rng.integers(1, 5)), int(rng.integers(0, 5)), rng)
            for lam in disc_grid(16, 0.99):
                assert spectral_norm(tau_eval(w, lam)) <= 1.0 + 1e-9


class TestDefectIdentities:
    def test_no_state_space_vanishes(self):
        # signed permutation: exactly unitary in floating point
        u = np.array([[0.0, -1.0], [1.0, 0.0]])
        w = Colligation(2, 0, u, np.zeros((2, 0)), np.zeros((0, 2)), np.zeros((0, 0)))
        rep = defect_identities(w, disc_grid(8))
        assert rep.max_defect1 == 0.0 and rep.max_defect2 == 0.0

    def test_random_valid_colligation(self):
        rng = np.random.default_rng(7)
        w = random_colligation(3, 2, rng)
        rep = defect_identities(w, disc_grid(100, 0.99))
        assert rep.max_defect1 <= 1e-10
        assert rep.max_defect2 <= 1e-10
        assert rep.max_norm <= 1.0 + 1e-9

    def test_nan_point_rejected_by_name(self):
        # a NaN point passed the tau_eval gate, and the defect solve then
        # raised "LinAlgError: SVD did not converge"
        w = random_colligation(3, 2, np.random.default_rng(7))
        with pytest.raises(ValueError, match="got lambda=.*nan"):
            defect_identities(w, [0.5, complex("nan")])

    def test_perturbed_colligation_detected(self):
        rng = np.random.default_rng(8)
        w = random_colligation(3, 2, rng)
        a_perturbed = w.A + 1e-3 * rng.standard_normal((3, 3))
        bad = Colligation(3, 2, a_perturbed, w.B, w.C, w.D)
        rep = defect_identities(bad, disc_grid(100, 0.99))
        assert max(rep.max_defect1, rep.max_defect2) > 1e-4

    @pytest.mark.parametrize("grid", [[], np.zeros(0)], ids=["list", "array"])
    def test_empty_grid_rejected(self, grid):
        # every maximum read 0.0 on no points, which looked like a pass
        w = random_colligation(3, 2, np.random.default_rng(7))
        with pytest.raises(ValueError, match="non-empty lambda grid"):
            defect_identities(w, grid)


class TestDefectIdentitiesParity:
    """The stacked pass of ``defect_identities`` against the per-point loop
    of ``helpers.reference_defect_identities``: the norms come from
    ``spectral_norms`` instead of one SVD per matrix, so they agree within
    8 eps (relative), not bit for bit."""

    EPS = np.finfo(float).eps

    @staticmethod
    def _criterion_2_colligations():
        # the draws of test_acceptance.py's criterion 2
        for seed in range(100):
            rng = np.random.default_rng(2000 + seed)
            dim_e = int(rng.integers(1, 7))
            dim_k = int(rng.integers(0, 7))
            yield random_colligation(dim_e, dim_k, rng)

    def _assert_agree(self, w, grid):
        got = defect_identities(w, grid)
        want = reference_defect_identities(w, grid)
        assert got.lambda_grid == want.lambda_grid
        assert abs(got.max_norm - want.max_norm) <= 8 * self.EPS * want.max_norm
        assert max(got.max_defect1, got.max_defect2) <= 1e-10
        assert max(want.max_defect1, want.max_defect2) <= 1e-10

    def test_criterion_2_colligations(self):
        shapes = set()
        for w in self._criterion_2_colligations():
            self._assert_agree(w, disc_grid(64, 0.99))
            shapes.add((w.dim_e, w.dim_k))
        assert {e for e, _ in shapes} == set(range(1, 7))
        assert {k for _, k in shapes} == set(range(7))

    @pytest.mark.parametrize("grid", [[0.5 - 0.25j], [0.0], [0.0, 0.9j, -0.3]],
                             ids=["one-point", "zero", "with-zero"])
    @pytest.mark.parametrize("dim_e, dim_k", [(3, 2), (1, 4), (2, 0)])
    def test_small_grids(self, grid, dim_e, dim_k):
        w = random_colligation(dim_e, dim_k, np.random.default_rng(10 * dim_e + dim_k))
        self._assert_agree(w, grid)

    def test_perturbed_colligation(self):
        # the input of TestDefectIdentities::test_perturbed_colligation_detected
        rng = np.random.default_rng(8)
        w = random_colligation(3, 2, rng)
        bad = Colligation(3, 2, w.A + 1e-3 * rng.standard_normal((3, 3)), w.B, w.C, w.D)
        grid = disc_grid(100, 0.99)
        got = defect_identities(bad, grid)
        want = reference_defect_identities(bad, grid)
        for name in ("max_defect1", "max_defect2", "max_norm"):
            a, b = getattr(got, name), getattr(want, name)
            assert abs(a - b) <= 1e-12 * b, name
        for rep in (got, want):
            assert rep.max_defect1 > 1e-4 and rep.max_defect2 > 1e-4


class TestTauEvalParity:
    """Each slice of ``tau_eval`` on an array of points has the bits of the
    scalar call: the solves and products run one slice at a time, the rest
    is elementwise."""

    POINTS = np.concatenate([disc_grid(32, 0.9), disc_grid(5, 0.3), [0.0, -0.5, 0.25j]])

    @pytest.mark.parametrize("dim_e, dim_k", [(3, 2), (1, 1), (1, 3), (2, 0), (4, 1)])
    def test_slices_match_scalar_calls(self, dim_e, dim_k):
        rng = np.random.default_rng(10 * dim_e + dim_k)
        for _ in range(4):
            w = random_colligation(dim_e, dim_k, rng)
            values = tau_eval(w, self.POINTS)
            assert values.shape == (len(self.POINTS), dim_e, dim_e)
            for value, lam in zip(values, self.POINTS):
                assert_same_bits(value, tau_eval(w, lam))
                assert_same_bits(value, tau_eval(w, complex(lam)))
            grid = self.POINTS[:36].reshape(6, 6)
            assert_same_bits(tau_eval(w, grid), values[:36].reshape(6, 6, dim_e, dim_e))

    def test_scalar_point_gives_a_matrix(self):
        w = random_colligation(3, 2, np.random.default_rng(1))
        assert tau_eval(w, 0.5).shape == (3, 3)
        assert tau_eval(w, np.array([])).shape == (0, 3, 3)

    def test_no_state_space_values_are_copies(self):
        u = haar_unitary(2, np.random.default_rng(3))
        w = Colligation(2, 0, u, np.zeros((2, 0)), np.zeros((0, 2)), np.zeros((0, 0)))
        values = tau_eval(w, self.POINTS)
        assert values.flags.writeable and not np.shares_memory(values, w.A)
        for value in values:
            assert_same_bits(value, w.A.copy())


class TestDiscGrid:
    @pytest.mark.parametrize("n, radius", [(0, 0.9), (-1, 0.9), (4, 1.0),
                                           (4, -0.1), (4, float("nan"))])
    def test_rejects(self, n, radius):
        # an empty grid made defect_identities report 0.0 on no points
        with pytest.raises(ValueError):
            disc_grid(n, radius)


class TestBclColligation:
    def test_zero_projection(self):
        u = haar_unitary(2, np.random.default_rng(9))
        w = bcl_colligation(u, np.zeros((2, 2)))
        assert w.dim_k == 0
        np.testing.assert_allclose(w.A, u)

    def test_full_projection_gives_shift_symbol(self):
        u = haar_unitary(2, np.random.default_rng(10))
        w = bcl_colligation(u, np.eye(2))
        assert w.dim_k == 2
        np.testing.assert_allclose(w.A, np.zeros((2, 2)), atol=1e-14)
        poly = polynomial_from_colligation(w)
        assert poly.band == 1
        np.testing.assert_allclose(poly.coeff(1), u, atol=1e-14)

    def test_paper_example_symbol(self):
        w = bcl_colligation(np.eye(2), P)
        poly = polynomial_from_colligation(w)
        np.testing.assert_allclose(poly.coeff(0), np.eye(2) - P, atol=1e-14)
        np.testing.assert_allclose(poly.coeff(1), P, atol=1e-14)

    def test_block_identities(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            u = haar_unitary(n, rng)
            p = random_projection(n, int(rng.integers(1, n + 1)), rng)
            w = bcl_colligation(u, p)
            assert spectral_norm(w.A.conj().T @ w.B) <= 1e-12
            assert spectral_norm(w.A @ w.C.conj().T) <= 1e-12
            assert spectral_norm(w.B.conj().T @ w.B - np.eye(w.dim_k)) <= 1e-12
            assert spectral_norm(w.C @ w.C.conj().T - np.eye(w.dim_k)) <= 1e-12
            np.testing.assert_allclose(w.B @ w.C, u @ p, atol=1e-12)

    def test_non_projection_rejected(self):
        u = haar_unitary(2, np.random.default_rng(12))
        with pytest.raises(ValueError):
            bcl_colligation(u, 0.5 * np.eye(2))


class TestPolynomialFromColligation:
    def test_no_state_space(self):
        u = haar_unitary(2, np.random.default_rng(13))
        w = Colligation(2, 0, u, np.zeros((2, 0)), np.zeros((0, 2)), np.zeros((0, 0)))
        poly = polynomial_from_colligation(w)
        assert poly.band == 0 and poly.is_analytic
        np.testing.assert_allclose(poly.coeff(0), u)

    @staticmethod
    def _two_step_nilpotent():
        # Unitary completion with prescribed nilpotent state block
        s = 0.6
        d = np.array([[0.0, s], [0.0, 0.0]])
        a = -d.conj().T
        b = np.diag([1.0, np.sqrt(1 - s * s)])
        c = np.diag([np.sqrt(1 - s * s), 1.0])
        return Colligation(2, 2, a, b, c, d)

    @staticmethod
    def _bcl_rank2():
        rng = np.random.default_rng(15)
        return bcl_colligation(haar_unitary(3, rng), random_projection(3, 2, rng))

    def test_two_step_nilpotent_matches_tau(self):
        w = self._two_step_nilpotent()
        assert validate(w).is_valid
        poly = polynomial_from_colligation(w)
        assert poly.band == 2
        for lam in disc_grid(16, 0.8):
            np.testing.assert_allclose(
                eval_disc(poly, lam), tau_eval(w, lam), atol=1e-10)

    def test_disc_evaluation_is_dense_horner(self):
        # the Horner loop over the dense coefficient list A, BC, BDC, ...,
        # built as the expansion builds it, gives the same bits
        for w in (self._two_step_nilpotent(), self._bcl_rank2()):
            dense = [w.A]
            power = np.eye(w.dim_k, dtype=complex)
            while spectral_norm(power) > DEFAULT_TOL:
                dense.append(w.B @ power @ w.C)
                power = power @ w.D
            poly = polynomial_from_colligation(w)
            assert poly.band == len(dense) - 1
            for lam in (*disc_grid(16, 0.9), 1.0, -1j, 0.0):
                acc = np.zeros((w.dim_e, w.dim_e), dtype=complex)
                for c in reversed(dense):
                    acc = acc * lam + c
                assert np.array_equal(eval_disc(poly, lam), acc)

    def test_non_nilpotent_rejected(self):
        rng = np.random.default_rng(14)
        while True:
            w = random_colligation(2, 2, rng)
            if spectral_norm(np.linalg.matrix_power(w.D, 2)) > 1e-6:
                break
        with pytest.raises(ValueError):
            polynomial_from_colligation(w)

    def test_tau_agreement_on_grid(self):
        w = self._bcl_rank2()
        poly = polynomial_from_colligation(w)
        worst = max(
            spectral_norm(eval_disc(poly, lam) - tau_eval(w, lam))
            for lam in disc_grid(16, 0.9))
        assert worst <= 1e-10


class TestEmbedUnitaryBlock:
    def test_transfer_function_splits(self):
        rng = np.random.default_rng(16)
        u0 = haar_unitary(2, rng)
        inner = bcl_colligation(haar_unitary(2, rng), random_projection(2, 1, rng))
        w = embed_unitary_block(u0, inner)
        assert validate(w).is_valid
        for lam in disc_grid(8, 0.7):
            val = tau_eval(w, lam)
            np.testing.assert_allclose(val[:2, :2], u0, atol=1e-13)
            np.testing.assert_allclose(val[:2, 2:], 0.0, atol=1e-13)
            np.testing.assert_allclose(val[2:, :2], 0.0, atol=1e-13)
            np.testing.assert_allclose(val[2:, 2:], tau_eval(inner, lam), atol=1e-13)


class TestGridEvaluationConsistency:
    def test_polynomial_symbol_on_circle(self):
        rng = np.random.default_rng(17)
        w = bcl_colligation(haar_unitary(2, rng), random_projection(2, 1, rng))
        poly = polynomial_from_colligation(w)
        for t in CircleGrid(16).points:
            np.testing.assert_allclose(
                eval_symbol(poly, t), eval_disc(poly, np.exp(1j * t)), atol=1e-13)
