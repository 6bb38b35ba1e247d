import numpy as np
import pytest

from test_linalg import colligation_symbol
from toeplitz_unitary import decomposition
from toeplitz_unitary.colligation import (
    bcl_colligation,
    embed_unitary_block,
    polynomial_from_colligation,
)
from toeplitz_unitary.linalg import (
    haar_unitary,
    normalize_column_phases,
    nullspace,
    orthonormal_columns,
    principal_angles,
    random_contraction,
    random_projection,
    spectral_norm,
    subspace_gap,
)
from toeplitz_unitary.symbols import (
    CircleGrid,
    MatrixSymbol,
    PolyMatrix,
    adjoint_symbol,
    bcl_symbol,
    block_diag_symbol,
    compose_scalar_polynomial,
    is_inner,
    multiply,
)
from toeplitz_unitary.hardy import convolve_block_columns, toeplitz_window_matrix
from toeplitz_unitary.decomposition import (
    ExtractionResult,
    Subspace,
    _invariance_polish,
    _structure_solution_basis,
    _window_refinement,
    beurling_extract,
    cdot0_test,
    extract_constant_unitary,
    poly_calculus,
    reducing_check,
    toeplitz_unitary_part,
    toeplitz_unitary_part_brute,
    unitary_part_brute,
    unitary_part_matrix,
    unitary_residuals,
    verify_maincondn,
)
from toeplitz_unitary.scenarios import (
    planted_block_symbol,
    planted_colligation,
    random_trig_scalar,
    swap_inner_symbol,
)

P = np.diag([1.0, 0.0])


def planted_contraction(rng, n, d_unitary, strict_norm=0.8):
    """diag(unitary, strict contraction) hidden behind a random unitary frame."""
    t = np.zeros((n, n), dtype=complex)
    u0 = haar_unitary(d_unitary, rng) if d_unitary else np.zeros((0, 0))
    t[:d_unitary, :d_unitary] = u0
    if n > d_unitary:
        t[d_unitary:, d_unitary:] = random_contraction(n - d_unitary, rng, strict_norm)
    q = haar_unitary(n, rng)
    return q @ t @ q.conj().T, q[:, :d_unitary]


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


class TestUnitaryPartBrute:
    def test_matches_refinement_on_sweep(self):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 9))
            if seed % 2:
                t = random_contraction(n, rng)
                truth_dim = None
            else:
                d0 = int(rng.integers(1, n + 1))
                t, _ = planted_contraction(rng, n, d0)
                truth_dim = d0
            a = unitary_part_matrix(t)
            b = unitary_part_brute(t)
            assert a.dim == b.dim
            if truth_dim is not None:
                assert a.dim == truth_dim
            if a.dim:
                assert np.max(principal_angles(a.basis, b.basis)) <= 1e-7

    def test_unitary_full(self):
        u = haar_unitary(3, np.random.default_rng(3))
        assert unitary_part_brute(u).dim == 3

    def test_nilpotent_shift_zero(self):
        s = np.diag(np.ones(3), -1)
        assert unitary_part_brute(s).dim == 0

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            unitary_part_brute(np.eye(3), n_max=2)


class TestInvariancePolish:
    """The polish shared by the matrix and the window refinements, on the
    truncated forward shift S e_k = e_(k+1) of C^6."""

    SHIFT = np.eye(6, k=-1)

    @staticmethod
    def polish(basis, op, start=0):
        return _invariance_polish(basis, lambda b: [op @ b], start, 1e-8)

    def test_chain_leaving_the_span_is_removed(self):
        # S e4 = e5 leaves span(e0..e4); then e3, e2, e1 and e0 follow
        basis, _ = self.polish(np.eye(6)[:, :5].astype(complex), self.SHIFT)
        assert basis.shape[1] == 0

    def test_invariant_span_is_kept(self):
        start = np.eye(6)[:, 2:].astype(complex)
        basis, iterations = self.polish(start, self.SHIFT)
        assert basis.shape[1] == 4
        assert iterations == 1
        assert subspace_gap(basis, start) <= 1e-12

    def test_rows_outside_the_window_count_in_full(self):
        # a seventh row takes S e5 out of the window
        basis, _ = self.polish(np.eye(6)[:, 2:].astype(complex), np.eye(7, 6, k=-1))
        assert basis.shape[1] == 0

    def test_rows_below_the_window_count_in_full(self):
        # with the window in rows 1..6, np.eye(7, 6) is the backward shift
        # e_k -> e_(k-1) with e0 sent to row 0, below the window; the window
        # part alone would keep span(e0..e3)
        basis, _ = self.polish(np.eye(6)[:, :4].astype(complex), np.eye(7, 6), start=1)
        assert basis.shape[1] == 0


class TestToeplitzUnitaryPart:
    def test_constant_unitary_full_window(self):
        u = haar_unitary(2, np.random.default_rng(5))
        rep = toeplitz_unitary_part(MatrixSymbol.constant(u), 4)
        assert rep.classification == "constant_type"
        assert rep.subspace.dim == 8
        assert rep.theta.degree == 0
        # constant generator: U is the symbol value conjugated by the basis
        align = rep.theta.coeffs[0]
        np.testing.assert_allclose(align @ rep.u_matrix @ align.conj().T, u, atol=1e-10)

    def test_planted_block_dimension(self):
        rng = np.random.default_rng(6)
        w0 = haar_unitary(2, rng)
        psi = MatrixSymbol(1, 1, {-1: [[0.2]], 0: [[0.1]], 1: [[0.15]]})
        sym = block_diag_symbol([MatrixSymbol.constant(w0), psi])
        rep = toeplitz_unitary_part(sym, 6)
        assert rep.classification == "constant_type"
        assert rep.subspace.dim == 2 * 6
        brute = toeplitz_unitary_part_brute(sym, 6)
        assert brute.dim == rep.subspace.dim
        assert np.max(principal_angles(rep.subspace.basis, brute.basis)) <= 1e-7

    def test_goor_scalar_trivial(self):
        sym = MatrixSymbol(1, 1, {0: [[0.25]], 1: [[0.5]]})
        rep = toeplitz_unitary_part(sym, 8)
        assert rep.classification == "trivial"
        assert rep.subspace.dim == 0

    def test_refinement_contained_in_structure_solutions(self):
        rng = np.random.default_rng(7)
        instances = [
            bcl_symbol(haar_unitary(2, rng), P),
            MatrixSymbol(2, 2, {1: np.array([[0, 1], [0, 0]]),
                                -1: np.array([[0, 0], [1, 0]])}),
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
        # unitary part generated by diag(z, 1): not expressible inside the
        # window as a shift-invariant span, certification residuals still hold
        sym = MatrixSymbol(2, 2, {1: np.array([[0, 1], [0, 0]]),
                                  -1: np.array([[0, 0], [1, 0]])})
        rep = toeplitz_unitary_part(sym, 5)
        assert rep.subspace.dim == 8
        assert rep.classification == "extraction_inconclusive"
        assert rep.certified_sound
        assert max(rep.certification.values()) <= 1e-8

    def test_non_contractive_rejected(self):
        with pytest.raises(ValueError):
            toeplitz_unitary_part(MatrixSymbol.constant(2.0 * np.eye(2)), 4)

    @pytest.mark.parametrize("size, message", [
        (3, r"below 2\*band\+1 = 7"), (6, r"below 2\*band\+1 = 7"), (7, r"exceeds 1 \+ tol"),
    ], ids=["grid3", "grid6", "grid7"])
    def test_undersampled_grid_rejected(self, size, message):
        # sup norm 1.4, but the symbol vanishes on the 3- and 6-point grids
        sym = MatrixSymbol(1, 1, {3: [[0.7j]], -3: [[-0.7j]]})
        with pytest.raises(ValueError, match=message):
            toeplitz_unitary_part(sym, 4, grid=CircleGrid(size))

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
                v[k * dim:(k + 1) * dim] = theta.coeffs[0][:, j]
                cols.append(v)
        canon = np.column_stack(cols)
        restriction = canon.conj().T @ t_win @ canon
        np.testing.assert_allclose(
            restriction, np.kron(np.eye(n), rep.u_matrix), atol=1e-10)

    def test_shift_invariance_certificate(self):
        rng = np.random.default_rng(9)
        sym = block_diag_symbol([MatrixSymbol.constant(haar_unitary(2, rng)),
                                 MatrixSymbol(1, 1, {1: [[0.4]]})])
        rep = toeplitz_unitary_part(sym, 5)
        assert rep.extraction_residuals["shift_invariance"] <= 1e-8


class TestStructureEarlyStop:
    """The structure equations stop once their span is closed under F and F*."""

    @staticmethod
    def _coll4():
        w, _ = planted_colligation(np.random.default_rng(4), 1, 2)
        return polynomial_from_colligation(w).as_symbol()

    @staticmethod
    def _rank2_colligation():
        rng = np.random.default_rng(12)
        inner = bcl_colligation(haar_unitary(2, rng), random_projection(2, 2, rng))
        w = embed_unitary_block(haar_unitary(1, rng), inner)
        return polynomial_from_colligation(w).as_symbol()

    @pytest.mark.parametrize("name, window", [
        ("planted_d2", 8), ("planted_d2", 16), ("planted_d4", 8), ("planted_d4", 16),
        ("colligation_rank2", 16), ("swap", 8), ("scalar_band4", 8), ("coll4", 6),
        ("nilpotent_constant", 4),
    ])
    def test_early_stop_matches_full_budget(self, name, window):
        rng = np.random.default_rng(11)
        sym = {
            "planted_d2": lambda: planted_block_symbol(rng, 1, 1)[0],
            "planted_d4": lambda: planted_block_symbol(rng, 2, 2)[0],
            "colligation_rank2": self._rank2_colligation,
            "swap": swap_inner_symbol,
            "scalar_band4": lambda: random_trig_scalar(rng, 4),
            "coll4": self._coll4,
            # the first-power span holds the polynomials along e2; F e2 = e3
            # leaves it while F and F* keep the window, so only the in-span
            # part of the closure test keeps the loop going
            "nilpotent_constant": lambda: MatrixSymbol.constant(np.eye(3, k=-1)),
        }[name]()
        early, _, _ = _structure_solution_basis(sym, window, 1e-8, stop_when_closed=True)
        full = toeplitz_unitary_part_brute(sym, window)
        assert early.shape == full.basis.shape
        assert subspace_gap(early, full.basis) <= 1e-7

    def test_coll4_needs_more_than_two_powers(self):
        # its structure span first closes after 12 powers (dimension 17 after
        # the first power), so a blind cap on the powers shows here
        # (coll4 is analytic, so toeplitz_unitary_part would not run the loop)
        sym = self._coll4()
        basis, _, trail = _window_refinement(sym, 6, 1e-8)
        assert basis.shape[1] == 6
        assert trail["structure_stop"] == "closed"
        assert trail["structure_powers"] > 2
        brute = toeplitz_unitary_part_brute(sym, 6)
        assert subspace_gap(basis, brute.basis) <= 1e-7

    def test_stop_reasons(self):
        rng = np.random.default_rng(13)
        planted = toeplitz_unitary_part(planted_block_symbol(rng, 2, 2)[0], 8)
        assert (planted.params["structure_stop"], planted.params["structure_powers"]) == ("closed", 1)
        swap = toeplitz_unitary_part(swap_inner_symbol(), 8)
        assert (swap.params["structure_stop"], swap.params["structure_powers"]) == ("periodic", 1)
        early, _, _ = _structure_solution_basis(swap_inner_symbol(), 8, 1e-8, stop_when_closed=True)
        assert early.shape[1] == toeplitz_unitary_part_brute(swap_inner_symbol(), 8).dim
        scalar = toeplitz_unitary_part(random_trig_scalar(rng, 4), 8)
        assert (scalar.params["structure_stop"], scalar.params["structure_powers"]) == ("empty", 1)
        analytic = toeplitz_unitary_part(self._coll4(), 6)
        assert (analytic.params["structure_stop"], analytic.params["structure_powers"]) == ("analytic", 0)
        assert analytic.params["refinement_iterations"] == 0

    @staticmethod
    def _rotated(sym, seed):
        q = haar_unitary(sym.dim_out, np.random.default_rng(seed))
        return MatrixSymbol(sym.dim_out, sym.dim_in,
                            {k: q @ mat @ q.conj().T for k, mat in sym.coeffs.items()})

    @staticmethod
    def _three_cycle():
        # [[0, 0, z], [1/z, 0, 0], [0, 1, 0]], whose cube is I
        unit = np.eye(3)
        return MatrixSymbol(3, 3, {1: np.outer(unit[0], unit[2]),
                                   -1: np.outer(unit[1], unit[0]),
                                   0: np.outer(unit[2], unit[1])})

    @pytest.mark.parametrize("name, window, period", [
        ("swap", 4, 2), ("swap", 8, 2), ("swap", 16, 2),
        ("u0_plus_swap", 4, 2), ("u0_plus_swap", 8, 2),
        ("three_cycle", 4, 3), ("three_cycle", 8, 3),
    ])
    def test_periodic_stop_matches_full_budget(self, name, window, period):
        # F^period is a constant unitary (I, diag(U0^2, I), I), so the loop solves
        # period - 1 powers and stops with the full budget's span
        sym = self._rotated({
            "swap": swap_inner_symbol,
            "u0_plus_swap": lambda: block_diag_symbol([
                MatrixSymbol.constant(haar_unitary(2, np.random.default_rng(5))),
                swap_inner_symbol()]),
            "three_cycle": self._three_cycle,
        }[name](), 7)
        early, powers, stop = _structure_solution_basis(sym, window, 1e-8, stop_when_closed=True)
        assert (stop, powers) == ("periodic", period - 1)
        full = toeplitz_unitary_part_brute(sym, window)
        assert early.shape == full.basis.shape
        assert subspace_gap(early, full.basis) <= 1e-12

    def test_non_unitary_constant_power_is_not_periodic(self):
        # F^2 = diag(I, N^2) is constant but not unitary: the power-2 equations
        # remove the polynomials along the middle coordinate of N, which
        # the power-1 equations keep
        sym = self._rotated(block_diag_symbol([
            swap_inner_symbol(), MatrixSymbol.constant(np.eye(3, k=-1))]), 7)
        early, _, stop = _structure_solution_basis(sym, 4, 1e-8, stop_when_closed=True)
        assert stop != "periodic"
        full = toeplitz_unitary_part_brute(sym, 4)
        assert early.shape == full.basis.shape
        assert subspace_gap(early, full.basis) <= 1e-12

    def test_brute_oracle_keeps_full_budget(self, monkeypatch):
        calls = []

        def counting_multiply(a, b):
            calls.append(1)
            return multiply(a, b)

        monkeypatch.setattr(decomposition, "multiply", counting_multiply)
        sym = planted_block_symbol(np.random.default_rng(13), 2, 2)[0]
        assert toeplitz_unitary_part_brute(sym, 8).dim == 16
        assert len(calls) == 4 * 8


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
        planted = np.kron(np.eye(window), np.eye(3)[:, :1])
        wrong, outside, brute_wrong = [], [], []
        for seed in range(30):
            sym = colligation_symbol(seed, rank)
            rep = toeplitz_unitary_part(sym, window)
            assert rep.params["structure_stop"] == "analytic"
            if (rep.classification != "constant_type" or not rep.certified_sound
                    or rep.subspace.dim != window
                    or subspace_gap(rep.subspace.basis, planted) > 1e-7):
                wrong.append(seed)
            loop, _, _ = _window_refinement(sym, window, 1e-8)
            if spectral_norm(loop - rep.subspace.projector() @ loop) > 1e-7:
                outside.append(seed)
            if rank == 2:
                brute = toeplitz_unitary_part_brute(sym, window)
                if (brute.dim != rep.subspace.dim
                        or subspace_gap(brute.basis, rep.subspace.basis) > 1e-7):
                    brute_wrong.append(seed)
        assert (wrong, outside, brute_wrong) == ([], [], [])

    def test_constant_term_without_unitary_part_is_trivial(self, monkeypatch):
        # nilpotent F(0) and a strict contraction: E_u = 0, and the empty
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
            assert (rep.params["structure_stop"], rep.params["structure_powers"]) == ("analytic", 0)


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
    theta = PolyMatrix(dim, r, tuple(blocks[k] for k in range(degree + 1)))
    columns = []
    for j in range(r):
        dj = theta.degree
        while dj > 0 and np.linalg.norm(theta.coeffs[dj][:, j]) <= 1e-12 * scale:
            dj -= 1
        col = MatrixSymbol(dim, 1, {k: theta.coeffs[k][:, j:j + 1] for k in range(dj + 1)})
        columns.append(toeplitz_window_matrix(col, window - dj, window))
    span = orthonormal_columns(np.hstack(columns), tol)
    return ExtractionResult(
        theta=theta, shift_residual=shift_residual,
        span_residual=spectral_norm(m.basis - span @ (span.conj().T @ m.basis)))


class TestExactWindowAction:
    """The window polish, certificate and extraction act on the basis columns
    by exact convolution; they agree with the dense Laurent-matrix and
    projector-intersection formulas they replace."""

    @staticmethod
    def symbol(name):
        rng = np.random.default_rng(21)
        return {
            "planted_d2": lambda: planted_block_symbol(rng, 1, 1)[0],
            "planted_d4": lambda: planted_block_symbol(rng, 2, 2)[0],
            "colligation_rank2": TestStructureEarlyStop._rank2_colligation,
            "swap": swap_inner_symbol,
            "coll4": TestStructureEarlyStop._coll4,
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
        assert got.theta.degree == want.theta.degree
        assert got.theta.dim_in == want.theta.dim_in
        assert subspace_gap(orthonormal_columns(np.vstack(got.theta.coeffs)),
                            orthonormal_columns(np.vstack(want.theta.coeffs))) <= 1e-12
        assert self.classification(sym, got) == self.classification(sym, want)


class TestBeurlingExtract:
    def test_coordinate_subspace(self):
        # polynomials supported on the second coordinate: constant inclusion
        n, d = 5, 2
        cols = []
        for k in range(n):
            v = np.zeros(n * d, dtype=complex)
            v[k * d + 1] = 1.0
            cols.append(v)
        m = Subspace(n * d, np.column_stack(cols))
        ext = beurling_extract(m, d)
        assert ext.theta.degree == 0
        np.testing.assert_allclose(np.abs(ext.theta.coeffs[0]), [[0.0], [1.0]], atol=1e-12)
        assert ext.span_residual <= 1e-12

    def test_shifted_full_space(self):
        # z times everything, scalar case
        n = 5
        basis = np.eye(n, dtype=complex)[:, 1:]
        m = Subspace(n, basis)
        ext = beurling_extract(m, 1)
        assert ext.theta.degree == 1
        np.testing.assert_allclose(np.abs(ext.theta.coeffs[1]), [[1.0]], atol=1e-12)

    def test_round_trip_recovery(self):
        # span of an inner 2x1 polynomial times low-degree monomials
        a, b = 0.6, 0.8
        theta0 = PolyMatrix(2, 1, (np.array([[a], [0.0]]), np.array([[0.0], [b]])))
        n = 6
        cols = []
        for k in range(n - 1):
            v = np.zeros(2 * n, dtype=complex)
            v[2 * k] = a
            v[2 * (k + 1) + 1] = b
            cols.append(v)
        from toeplitz_unitary.linalg import orthonormal_columns

        m = Subspace(2 * n, orthonormal_columns(np.column_stack(cols)))
        ext = beurling_extract(m, 2)
        assert ext.theta.degree == 1
        assert is_inner(ext.theta).residual <= 1e-10
        # ranges agree pointwise up to the right unitary factor
        from toeplitz_unitary.symbols import CircleGrid, eval_symbol

        s0, s1 = theta0.as_symbol(), ext.theta.as_symbol()
        for t in CircleGrid(32).points:
            v0, v1 = eval_symbol(s0, t), eval_symbol(s1, t)
            assert spectral_norm(v0 @ v0.conj().T - v1 @ v1.conj().T) <= 1e-10

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
        theta = PolyMatrix.identity(2)
        u, res = extract_constant_unitary(MatrixSymbol.constant(u0), theta)
        np.testing.assert_allclose(u, u0, atol=1e-14)
        assert max(res.values()) <= 1e-13

    def test_block_inclusion(self):
        rng = np.random.default_rng(11)
        u0 = haar_unitary(2, rng)
        sym = block_diag_symbol([MatrixSymbol.constant(u0),
                                 MatrixSymbol(1, 1, {1: [[0.3]]})])
        theta = PolyMatrix(3, 2, (np.vstack([np.eye(2), np.zeros((1, 2))]),))
        u, res = extract_constant_unitary(sym, theta)
        np.testing.assert_allclose(u, u0, atol=1e-14)
        assert max(res.values()) <= 1e-13

    def test_model_symbol_kernel_inclusion(self):
        sym = bcl_symbol(np.eye(2), P)
        theta = PolyMatrix(2, 1, (np.array([[0.0], [1.0]]),))
        u, res = extract_constant_unitary(sym, theta)
        np.testing.assert_allclose(u, [[1.0]], atol=1e-14)
        assert max(res.values()) <= 1e-13

    def test_verify_maincondn_on_same_instances(self):
        rng = np.random.default_rng(12)
        u0 = haar_unitary(2, rng)
        cases = [
            (MatrixSymbol.constant(u0), PolyMatrix.identity(2)),
            (block_diag_symbol([MatrixSymbol.constant(u0),
                                MatrixSymbol(1, 1, {1: [[0.3]]})]),
             PolyMatrix(3, 2, (np.vstack([np.eye(2), np.zeros((1, 2))]),))),
            (bcl_symbol(np.eye(2), P), PolyMatrix(2, 1, (np.array([[0.0], [1.0]]),))),
        ]
        for sym, theta in cases:
            u, _ = extract_constant_unitary(sym, theta)
            ok, res = verify_maincondn(sym, theta, u)
            assert ok and max(res.values()) <= 1e-13, res

    def test_verify_rejects_wrong_unitary(self):
        u0 = haar_unitary(2, np.random.default_rng(13))
        ok, _ = verify_maincondn(
            MatrixSymbol.constant(u0), PolyMatrix.identity(2), np.eye(2))
        assert not ok


class TestMainTheoremRoundTrip:
    def test_planted_intertwining_appears_in_window_part(self):
        # a symbol built to intertwine a planted (theta, u) pair has the
        # theta-multiples inside its computed window subspace
        rng = np.random.default_rng(14)
        w0 = haar_unitary(2, rng)
        sym = block_diag_symbol([MatrixSymbol.constant(w0),
                                 MatrixSymbol(1, 1, {-1: [[0.2]], 1: [[0.25]]})])
        theta = PolyMatrix(3, 2, (np.vstack([np.eye(2), np.zeros((1, 2))]),))
        ok, _ = verify_maincondn(sym, theta, w0)
        assert ok
        n = 5
        rep = toeplitz_unitary_part(sym, n)
        planted_cols = []
        for k in range(n):
            for j in range(2):
                v = np.zeros(3 * n, dtype=complex)
                v[3 * k:3 * k + 3] = theta.coeffs[0][:, j]
                planted_cols.append(v)
        planted = np.column_stack(planted_cols)
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
        with pytest.raises(ValueError):
            reducing_check(2.0 * np.eye(2), np.eye(2))


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
