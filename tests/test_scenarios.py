import numpy as np
import pytest

from helpers import HardyVector, toeplitz_apply_exact
from toeplitz_unitary import scenarios
from toeplitz_unitary.colligation import bcl_colligation, polynomial_from_colligation
from toeplitz_unitary.decomposition import _window_kernel, toeplitz_unitary_part_brute, window_span
from toeplitz_unitary.linalg import haar_unitary, subspace_gap
from toeplitz_unitary.symbols import MatrixSymbol
from toeplitz_unitary.serialize import canonical_dumps
from toeplitz_unitary.scenarios import (
    SCENARIOS,
    colligation_family,
    direct_sum,
    run_all,
    run_scenario,
    scenario_analytic_main,
    scenario_bcl_example,
    scenario_bcl_theorem,
    scenario_butz_equivalence,
    scenario_cnu_calculus,
    scenario_goor,
    scenario_laurent,
    scenario_prop_ds,
    scenario_wold_dichotomy,
)


class TestDefaults:
    def test_every_registered_scenario_passes(self):
        for name in SCENARIOS:
            result = run_scenario(name)
            assert result.overall, (name, [c for c in result.checks if not c.passed])

    def test_overall_is_conjunction(self):
        result = run_scenario("goor")
        assert result.overall == all(c.passed for c in result.checks)

    def test_results_are_deterministic(self):
        first = [r.to_json() for r in run_all(seed=5)]
        second = [r.to_json() for r in run_all(seed=5)]
        assert canonical_dumps(first) == canonical_dumps(second)


class TestGoor:
    def test_seed_sweep(self):
        for seed in range(5):
            assert scenario_goor(seed=seed, degree=3, window=10).overall

    def test_pure_monomial_instance(self):
        # a single unimodular frequency is nonconstant and has no unitary part
        from toeplitz_unitary.decomposition import toeplitz_unitary_part

        sym = MatrixSymbol(1, 1, {1: [[1.0]]})
        rep = toeplitz_unitary_part(sym, 8)
        assert rep.subspace.dim == 0

    def test_cosine_instance(self):
        # (z + conj(z)) / 2: real-valued, sup norm 1, nonconstant
        from toeplitz_unitary.decomposition import (
            toeplitz_unitary_part,
            toeplitz_unitary_part_brute,
        )

        sym = MatrixSymbol(1, 1, {1: [[0.5]], -1: [[0.5]]})
        assert toeplitz_unitary_part(sym, 10).subspace.dim == 0
        assert toeplitz_unitary_part_brute(sym, 10).dim == 0

    def test_constant_excluded(self):
        with pytest.raises(ValueError):
            scenario_goor(degree=0)


class TestBclExample:
    def test_default_identity_case(self):
        result = scenario_bcl_example()
        assert result.overall
        assert result.records["claim_discrepancy"] is True
        assert result.records["computed_subspace"]["dim"] == 8
        assert result.records["claimed_containment"]["max_dim_if_true"] == 2

    def test_zero_projection_full_window(self):
        result = scenario_bcl_example(u=np.eye(2), p=np.zeros((2, 2)), window=4)
        assert result.overall
        assert result.records["subspace_dim"] == 8

    def test_full_projection_trivial(self):
        result = scenario_bcl_example(u=np.eye(2), p=np.eye(2), window=4)
        assert result.overall
        assert result.records["subspace_dim"] == 0

    def test_general_unitary_records_only(self):
        u = haar_unitary(2, np.random.default_rng(3))
        result = scenario_bcl_example(u=u, p=np.diag([1.0, 0.0]), window=4)
        assert result.overall
        assert not result.parameters["identity_case"]


    def test_samples_take_one_convolution(self, monkeypatch):
        # T_F acts on the 20 random sample vectors in one convolution, and the
        # isometry residual keeps the bits of the per-vector loop it replaced
        # (exactly so here: the model symbol's entries are 0 and 1)
        shapes = []
        convolve = scenarios.convolve_block_columns

        def recording(sym, blocks):
            shapes.append(blocks.shape)
            return convolve(sym, blocks)

        monkeypatch.setattr(scenarios, "convolve_block_columns", recording)
        result = scenario_bcl_example()
        assert shapes == [(5, 2, 20)]
        sym = polynomial_from_colligation(bcl_colligation(np.eye(2), np.diag([1.0, 0.0])))
        rng = np.random.default_rng(7)
        want = 0.0
        for _ in range(20):
            h = HardyVector(2, rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)))
            want = max(want, abs(toeplitz_apply_exact(sym, h).norm() - h.norm()))
        check = next(c for c in result.checks if c.name == "toeplitz_isometry_on_samples")
        assert check.residual == want


class TestButz:
    @pytest.mark.parametrize("window", [0, -1])
    def test_window_below_one_rejected(self, window):
        # window 0 gave an empty kernel and a failed result; -1 raised
        # numpy's "negative dimensions are not allowed"
        with pytest.raises(ValueError, match=f"window must be positive, got {window}"):
            scenario_butz_equivalence(window=window)

    def test_planted_seeds(self):
        for seed in range(4):
            result = scenario_butz_equivalence(seed=seed, planted=True)
            assert result.overall
            conds = result.records["conditions"]
            assert all(conds.values())

    def test_non_product_seeds(self):
        for seed in range(4):
            result = scenario_butz_equivalence(seed=seed, planted=False, d0=1)
            assert result.overall
            conds = result.records["conditions"]
            assert not any(conds.values())

    def test_parameters_are_those_that_built_the_symbol(self):
        # the swap family has no tail: d1 builds nothing, so it is not
        # recorded, and two values of it give the same result
        swaps = [scenario_butz_equivalence(seed=3, planted=False, d1=d1) for d1 in (1, 3)]
        assert canonical_dumps(swaps[0].to_json()) == canonical_dumps(swaps[1].to_json())
        assert sorted(swaps[0].parameters) == ["d0", "planted", "seed", "tol", "window"]
        planted = scenario_butz_equivalence(seed=3, planted=True, d1=3)
        assert (planted.parameters["d0"], planted.parameters["d1"]) == (2, 3)

    def test_empty_part_records_no_residuals(self):
        # an empty part has no restriction to measure: the residuals are
        # null, which a strict JSON writer accepts, not Infinity
        from toeplitz_unitary.decomposition import Subspace
        from toeplitz_unitary.linalg import empty_basis
        from toeplitz_unitary.scenarios import _butz_conditions

        sym = MatrixSymbol(1, 1, {0: [[0.5]]})
        *conds, info = _butz_conditions(sym, Subspace(4, empty_basis(4)), 1, 4, 1e-8)
        assert conds == [False, False, False]
        assert info["restriction_residual"] is None
        assert info["pointwise_residual"] is None
        canonical_dumps(info)

    def test_extra_inner_scalar_block_contributes_nothing(self):
        # diag(W0, unimodular z): product form with exactly the W0 window;
        # the shift block has no unitary part
        family = direct_sum([haar_unitary(2, np.random.default_rng(5)),
                             MatrixSymbol(1, 1, {1: [[np.exp(0.7j)]]})])
        m = toeplitz_unitary_part_brute(family.symbol, 5)
        assert m.dim == window_span(family.theta, 5).shape[1]

    def test_rotation_with_half_shift_tail(self):
        # rotation by angle 1 on the plane plus the scalar tail z/2, d = 3
        from toeplitz_unitary.scenarios import _butz_conditions

        c, s = np.cos(1.0), np.sin(1.0)
        family = direct_sum([np.array([[c, -s], [s, c]]), MatrixSymbol(1, 1, {1: [[0.5]]})])
        sym, window = family.symbol, 5
        m = toeplitz_unitary_part_brute(sym, window)
        assert m.dim == window_span(family.theta, window).shape[1]
        cond_i, cond_ii, cond_iii, _ = _butz_conditions(sym, m, 3, window, 1e-8)
        assert cond_i and cond_ii and cond_iii


class TestPropDS:
    def test_planted_seeds(self):
        for seed in range(3):
            result = scenario_prop_ds(seed=seed)
            assert result.overall
            names = [c.name for c in result.checks]
            assert "witness_intertwines_at_disc_points" in names

    def test_unitary_constant_case(self):
        # full planted block, no state space: the symbol is a constant
        # unitary and everything is unitary
        result = scenario_prop_ds(seed=1, d0=2, d1=0)
        assert result.overall
        family = colligation_family(np.random.default_rng(1), 2, 0)
        assert result.records["window_part_dim"] == window_span(family.theta, 6).shape[1]

    def test_small_planted_block(self):
        result = scenario_prop_ds(seed=1, d0=2, d1=1)
        assert result.overall

    def test_empty_block_is_vacuous(self):
        result = scenario_prop_ds(seed=0, d0=0)
        assert result.overall
        assert "note" in result.records

    def test_empty_disc_grid_rejected(self):
        # with no disc points the disc checks used to pass on nothing
        with pytest.raises(ValueError):
            scenario_prop_ds(n_lambda=0)

    @pytest.mark.parametrize("d0, d1", [(1, 2), (1, 3), (2, 2), (2, 3)])
    def test_kernel_matches_brute_on_prop_ds_symbols(self, d0, d1):
        # check (iii) reads the exact kernel: it is Theta H^2 cut with the
        # window, and the full-budget brute oracle, independent of both,
        # checks it on the same symbols
        window = 6
        wrong = []
        for seed in range(16):
            family = colligation_family(np.random.default_rng(seed), d0, d1)
            span = window_span(family.theta, window)
            kernel = _window_kernel(family.symbol, window, 1e-8)
            brute = toeplitz_unitary_part_brute(family.symbol, window, 1e-8)
            if kernel.shape != span.shape or subspace_gap(kernel, span) > 1e-10:
                wrong.append((seed, "theta", kernel.shape[1]))
            if brute.dim == span.shape[1] and subspace_gap(kernel, brute.basis) > 1e-7:
                wrong.append((seed, "brute", brute.dim))
        assert wrong == []

    def test_seed_43010_contains_block(self):
        # the brute oracle missed the planted block by 1.66e-6 here
        result = scenario_prop_ds(seed=43010)
        assert result.overall
        check = next(c for c in result.checks if c.name == "window_part_contains_block")
        assert check.residual <= 1e-12

    def test_window_check_reads_kernel_not_brute_oracle(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("prop_ds ran the brute oracle")

        monkeypatch.setattr(scenarios, "toeplitz_unitary_part_brute", refuse)
        assert scenario_prop_ds(seed=0).overall
        # an empty kernel must fail check (iii): it reads neither the
        # report's Phi(0) subspace nor the constant term's part
        monkeypatch.setattr(scenarios, "_window_kernel",
                            lambda sym, window, tol: np.zeros((sym.dim_in * window, 0)))
        failed = [c.name for c in scenario_prop_ds(seed=0).checks if not c.passed]
        assert failed == ["window_part_contains_block"]


    def test_disc_sweep_is_one_stacked_pass(self, monkeypatch):
        # checks (i) and (ii) take every unitary part from one unitary_parts
        # call, and the disc values from one tau_eval and one eval_disc call
        # on all the points; no call is made per point
        calls = []

        def recording(name, func, arg):
            def wrapper(*args, **kwargs):
                calls.append((name, np.shape(args[arg])))
                return func(*args, **kwargs)
            return wrapper

        for name, arg in (("unitary_part_matrix", 0), ("unitary_parts", 0),
                          ("tau_eval", 1), ("eval_disc", 1)):
            monkeypatch.setattr(scenarios, name, recording(name, getattr(scenarios, name), arg))
        assert scenario_prop_ds(seed=0, n_lambda=32).overall
        assert sorted(calls) == [("eval_disc", (32,)), ("tau_eval", (32,)),
                                 ("unitary_parts", (33, 3, 3))]


class TestWold:
    def test_seed_sweep(self):
        for seed in range(5):
            result = scenario_wold_dichotomy(seed=seed, dim=2 + seed % 3)
            assert result.overall
            assert result.records["branch_unitary"] is True
            assert result.records["branch_cdot0"] is False

    def test_non_isometric_rejected(self):
        shift_like = MatrixSymbol(2, 2, {1: np.eye(2)})
        with pytest.raises(ValueError):
            scenario_wold_dichotomy(phi=shift_like)

    def test_negative_index_rejected(self):
        # unitary constant term, so only the negative index is at fault
        phi = MatrixSymbol(2, 2, {0: np.eye(2), -1: 0.1 * np.eye(2)})
        with pytest.raises(ValueError, match="negative Fourier"):
            scenario_wold_dichotomy(phi=phi)


class TestAnalyticMainAndBcl:
    def test_planted_seeds(self):
        for seed in range(3):
            assert scenario_analytic_main(seed=seed).overall

    def test_probe_records_not_asserts(self):
        result = scenario_analytic_main(seed=2, planted=False)
        assert result.overall
        assert "condition_holds" in result.records

    def test_bcl_theorem_identity(self):
        result = scenario_bcl_theorem(u=np.eye(2), p=np.diag([1.0, 0.0]))
        assert result.overall
        assert result.records["condition_i"] is True
        assert result.records["constant_term_part_dim"] == 1

    def test_bcl_theorem_shift_vacuous(self):
        result = scenario_bcl_theorem(u=np.eye(2), p=np.eye(2))
        assert result.overall
        assert result.records["window_part_dim"] == 0

    def test_bcl_theorem_seed_sweep(self):
        # the implication is never violated over random unitaries and
        # projections on C^3
        for seed in range(50):
            assert scenario_bcl_theorem(seed=seed, dim=3, window=5).overall


class TestLaurentAndCalculus:
    def test_laurent_builtins(self):
        result = scenario_laurent()
        assert result.overall
        measures = result.records["measures"]
        assert measures["model_symbol"] == 1.0
        assert measures["strict_contraction"] == 0.0
        assert measures["mixed_never_unitary"] == 0.0

    def test_calculus_instances(self):
        assert scenario_cnu_calculus(instance="goor_scalar").overall
        assert scenario_cnu_calculus(instance="strict_matrix",
                                     poly_coeffs=(0.0, 0.25, 0.25)).overall
        assert scenario_cnu_calculus(instance="random_analytic", seed=3).overall

    def test_unknown_instance(self):
        with pytest.raises(ValueError):
            scenario_cnu_calculus(instance="nope")

    def test_complex_coefficient_is_refused(self):
        # the parameters record real parts: (0, 0.5j) would read as (0, 0)
        with pytest.raises(ValueError, match="poly_coeffs must be real"):
            scenario_cnu_calculus(poly_coeffs=(0.0, 0.5j))
        result = scenario_cnu_calculus(poly_coeffs=(0.0, 0.5 + 0j))
        assert result.parameters["poly_coeffs"] == [0.0, 0.5]


class TestRegistry:
    def test_unknown_name(self):
        with pytest.raises(KeyError):
            run_scenario("missing")
