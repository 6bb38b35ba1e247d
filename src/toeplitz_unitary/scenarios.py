"""Executable theorem scenarios.

Each scenario instantiates one characterization result on constructed or
seeded-random data, runs the relevant operations and emits a ScenarioResult
with one (name, residual, passed) row per check.  Planted instances, where
the ground truth is known by construction, carry the assertions; randomized
sweeps only assert implication directions, and contrapositive probes are
recorded without being asserted.  Everything is deterministic given the seed.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    as_complex,
    haar_unitary,
    nullspace,
    orthonormal_columns,
    random_projection,
    spectral_norm,
    subspace_gap,
)
from .symbols import (
    DEFAULT_GRID_SIZE,
    CircleGrid,
    MatrixSymbol,
    PolyMatrix,
    bcl_symbol,
    block_diag_symbol,
    compose_scalar_polynomial,
    is_inner,
    pointwise_unitarity_mask,
    sup_norm_estimate,
)
from .hardy import HardyVector, toeplitz_apply_exact, toeplitz_window_matrix
from .colligation import (
    Colligation,
    bcl_colligation,
    disc_grid,
    embed_unitary_block,
    polynomial_from_colligation,
    tau_eval,
    validate,
)
from .decomposition import (
    Subspace,
    beurling_extract,
    cdot0_test,
    extract_constant_unitary,
    poly_calculus,
    toeplitz_unitary_part,
    toeplitz_unitary_part_brute,
    unitary_part_matrix,
    verify_maincondn,
)


@dataclass(frozen=True)
class ScenarioCheck:
    name: str
    residual: float
    passed: bool


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    scenario_id: str
    parameters: dict
    checks: tuple
    records: dict = field(default_factory=dict)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "scenario_id": self.scenario_id,
            "parameters": self.parameters,
            "checks": [
                {"name": c.name, "residual": c.residual, "passed": bool(c.passed)}
                for c in self.checks
            ],
            "records": self.records,
            "overall": bool(self.overall),
        }


def _check(name, residual, tol) -> ScenarioCheck:
    residual = float(residual)
    return ScenarioCheck(name, residual, residual <= tol)


def _check_bool(name, condition) -> ScenarioCheck:
    return ScenarioCheck(name, 0.0 if condition else 1.0, bool(condition))


def random_trig_scalar(rng, band: int, nonconstant: bool = True) -> MatrixSymbol:
    """Random scalar trigonometric polynomial, normalized to grid sup norm 1."""
    while True:
        coeffs = {}
        for k in range(-band, band + 1):
            c = rng.standard_normal() + 1j * rng.standard_normal()
            coeffs[k] = np.array([[c]])
        sym = MatrixSymbol(1, 1, coeffs)
        if not nonconstant or any(k != 0 for k in sym.coeffs):
            break
    return sym.scale(1.0 / sup_norm_estimate(sym))


def random_trig_matrix(rng, dim: int, band: int, sup: float) -> MatrixSymbol:
    """Random matrix trigonometric polynomial scaled to grid sup norm ``sup``."""
    coeffs = {}
    for k in range(-band, band + 1):
        coeffs[k] = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    sym = MatrixSymbol(dim, dim, coeffs)
    return sym.scale(sup / sup_norm_estimate(sym))


def planted_block_symbol(rng, d0: int, d1: int, band: int = 2,
                         sup: float = 0.5) -> tuple[MatrixSymbol, np.ndarray]:
    """diag(W0, strictly contractive block); returns (symbol, W0)."""
    w0 = haar_unitary(d0, rng)
    tail = random_trig_matrix(rng, d1, band, sup)
    return block_diag_symbol([MatrixSymbol.constant(w0), tail]), w0


def swap_inner_symbol(phase: complex = 1.0) -> MatrixSymbol:
    """Unitary-valued symbol whose unitary part is shift-invariant but not of
    product (coefficient-subspace) form: it is generated by diag(z, 1)."""
    e12 = np.array([[0.0, phase], [0.0, 0.0]])
    e21 = np.array([[0.0, 0.0], [np.conj(phase), 0.0]])
    return MatrixSymbol(2, 2, {1: e12, -1: e21})


def coefficient_embedding(window: int, basis: np.ndarray) -> np.ndarray:
    """Window basis of {polynomials with all coefficients in range(basis)}."""
    return np.kron(np.eye(window), basis)


def product_form_core(m: Subspace, dim: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Largest coefficient subspace whose full degree window sits inside m."""
    window = m.ambient_dim // dim
    off = np.eye(m.ambient_dim) - m.projector()
    return nullspace(np.vstack([off[:, k * dim:(k + 1) * dim] for k in range(window)]), tol)


def coefficient_span(m: Subspace, dim: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Smallest coefficient subspace containing every coefficient of m."""
    window = m.ambient_dim // dim
    blocks = m.basis.reshape(window, dim, m.dim)
    stacked = np.concatenate([blocks[k] for k in range(window)], axis=1)
    return orthonormal_columns(stacked, tol)


def scenario_goor(seed: int = 0, degree: int = 4, window: int = 12,
                  tol: float = DEFAULT_TOL) -> ScenarioResult:
    """Nonconstant contractive scalar symbols have no unitary vectors."""
    if degree < 1:
        raise ValueError("degree must be at least 1 (constant symbols excluded)")
    rng = np.random.default_rng(seed)
    sym = random_trig_scalar(rng, band=degree)
    report = toeplitz_unitary_part(sym, window, tol)
    brute = toeplitz_unitary_part_brute(sym, window, tol)
    checks = (
        _check_bool("window_part_trivial", report.subspace.dim == 0),
        _check_bool("structure_equation_part_trivial", brute.dim == 0),
    )
    return ScenarioResult(
        "goor",
        {"seed": seed, "degree": degree, "window": window, "tol": tol},
        checks,
        records={"classification": report.classification,
                 "sup_norm": report.params["sup_norm_estimate"]},
    )


def scenario_bcl_example(u=None, p=None, window: int = 8,
                         tol: float = DEFAULT_TOL) -> ScenarioResult:
    """Model symbol U(zP + (I-P)): isometric multiplication with the computed
    unitary vectors, plus the containment-in-constants record.

    For U = I the computed subspace is the full window over ker P, strictly
    larger than any subspace of the constants; the ``claim_discrepancy``
    record keeps both the computed answer and the classical containment claim.
    """
    if u is None:
        u = np.eye(2)
    if p is None:
        p = np.diag([1.0, 0.0])
    u = as_complex(u)
    p = as_complex(p)
    d = u.shape[0]
    w = bcl_colligation(u, p, tol)
    rep_coll = validate(w, tol)
    sym = polynomial_from_colligation(w).as_symbol()
    inner_rep = is_inner(PolyMatrix.from_symbol(sym), tol=tol)

    rng = np.random.default_rng(7)
    norm_dev = 0.0
    for _ in range(20):
        h = HardyVector(d, rng.standard_normal((5, d)) + 1j * rng.standard_normal((5, d)))
        norm_dev = max(norm_dev, abs(toeplitz_apply_exact(sym, h).norm() - h.norm()))

    report = toeplitz_unitary_part(sym, window, tol)
    rank = int(round(np.trace(p).real))
    checks = [
        _check("colligation_unitary", max(rep_coll.residual_left, rep_coll.residual_right), tol),
        _check("symbol_inner", inner_rep.residual, tol),
        _check("toeplitz_isometry_on_samples", norm_dev, 100 * tol),
    ]
    records: dict = {
        "classification": report.classification,
        "subspace_dim": report.subspace.dim,
        "window": window,
    }

    identity_case = spectral_norm(u - np.eye(d)) <= tol
    if identity_case:
        expected_dim = (d - rank) * window
        kerp = nullspace(p, tol)
        planted = coefficient_embedding(window, kerp)
        checks.append(_check_bool("subspace_dim", report.subspace.dim == expected_dim))
        checks.append(_check("subspace_matches_kernel_window",
                             subspace_gap(report.subspace.basis, planted), 100 * tol))
        if rank and report.theta is not None:
            checks.append(_check_bool("theta_constant", report.theta.degree == 0))
            align = kerp.conj().T @ report.theta.coeffs[0]
            checks.append(_check("theta_spans_kernel",
                                 spectral_norm(report.theta.coeffs[0] - kerp @ align), tol))
            checks.append(_check("u_is_identity",
                                 spectral_norm(report.u_matrix - np.eye(d - rank)), tol))
        # containment-in-constants claim: whenever ker P is nonzero the
        # computed subspace has vectors of every degree below the window, so
        # the claimed containment fails; both answers are recorded.
        beyond_constants = spectral_norm(report.subspace.basis[d:, :])
        records["claim_discrepancy"] = bool(beyond_constants > tol)
        records["computed_subspace"] = {
            "dim": report.subspace.dim,
            "description": "full degree window over ker P",
            "norm_beyond_constant_coefficients": beyond_constants,
        }
        records["claimed_containment"] = {
            "description": "kernel intersection contained in the constant vectors",
            "max_dim_if_true": d,
        }
        expected_flag = expected_dim > 0 and window >= 2
        checks.append(_check_bool("discrepancy_flag_set",
                                  records["claim_discrepancy"] == expected_flag))
    return ScenarioResult(
        "bcl_example",
        {"dim": d, "rank_p": rank, "window": window, "tol": tol,
         "identity_case": identity_case},
        tuple(checks),
        records=records,
    )


def _butz_conditions(sym: MatrixSymbol, m: Subspace, dim: int, window: int,
                     tol: float):
    """Mechanical truth values of the three product-form characterizations."""
    if m.dim == 0:
        return False, False, False, {"core_dim": 0, "span_dim": 0,
                                     "restriction_residual": np.inf,
                                     "pointwise_residual": np.inf}
    # (i): m equals the full window over some coefficient subspace
    core = product_form_core(m, dim, tol)
    cond_i = core.shape[1] * window == m.dim

    # (ii): the restriction acts as one constant matrix on every coefficient;
    # the best unitary candidate is the polar factor of the pairing
    span = coefficient_span(m, dim, tol)
    band = sym.band
    images = toeplitz_window_matrix(sym, window, window + band) @ m.basis
    x_blocks = np.concatenate(list(m.basis.reshape(window, dim, m.dim)), axis=1)
    y_blocks = np.concatenate(list(images.reshape(window + band, dim, m.dim)), axis=1)
    x_pad = np.concatenate(
        [x_blocks, np.zeros((dim, band * m.dim), dtype=complex)], axis=1)
    uu, _, vh = np.linalg.svd(y_blocks @ x_pad.conj().T)
    w_hat = uu @ vh
    res_ii = spectral_norm(w_hat @ x_pad - y_blocks)
    cond_ii = res_ii <= 100 * tol and span.shape[1] > 0

    # (iii): the coefficient span reduces the symbol pointwise to a constant
    # unitary: all nonzero-index coefficients kill it, both sides
    j = span
    res_iii = 0.0
    if j.shape[1]:
        for k, mat in sym.coeffs.items():
            if k != 0:
                res_iii = max(res_iii, spectral_norm(mat @ j),
                              spectral_norm(mat.conj().T @ j))
        a0 = sym.coeff(0)
        off = np.eye(dim) - j @ j.conj().T
        res_iii = max(res_iii, spectral_norm(off @ (a0 @ j)),
                      spectral_norm(off @ (a0.conj().T @ j)))
        res_iii = max(res_iii, spectral_norm(
            (a0 @ j).conj().T @ (a0 @ j) - np.eye(j.shape[1])))
        cond_iii = res_iii <= 100 * tol
    else:
        cond_iii = False
    return cond_i, cond_ii, cond_iii, {"core_dim": core.shape[1],
                                       "span_dim": span.shape[1],
                                       "restriction_residual": res_ii,
                                       "pointwise_residual": res_iii}


def scenario_butz_equivalence(seed: int = 0, window: int = 6, d0: int = 2,
                              d1: int = 1, planted: bool = True,
                              tol: float = DEFAULT_TOL) -> ScenarioResult:
    """Three-way equivalence for product-form unitary parts.

    Planted block symbols diag(W0, strictly contractive) satisfy all three
    conditions; instances built from the nonconstant inner generator
    diag(z, 1) violate all three while still having unitary vectors.  The
    biconditional between pointwise condition and product form is asserted on
    every instance.
    """
    rng = np.random.default_rng(seed)
    if planted:
        sym, w0 = planted_block_symbol(rng, d0, d1)
        dim = d0 + d1
    else:
        base = swap_inner_symbol(np.exp(1j * rng.uniform(0, 2 * np.pi)))
        blocks = [base]
        if d0:
            blocks.insert(0, MatrixSymbol.constant(haar_unitary(d0, rng)))
        sym = block_diag_symbol(blocks)
        dim = d0 + 2
        q = haar_unitary(dim, rng)
        sym = MatrixSymbol(dim, dim, {k: q @ c @ q.conj().T for k, c in sym.coeffs.items()})

    m = toeplitz_unitary_part_brute(sym, window, tol)
    cond_i, cond_ii, cond_iii, info = _butz_conditions(sym, m, dim, window, tol)

    checks = [
        _check_bool("unitary_vectors_exist", m.dim > 0),
        _check_bool("pointwise_iff_product_form", cond_iii == cond_i),
    ]
    if planted:
        planted_core = np.vstack([np.eye(d0), np.zeros((d1, d0))]).astype(complex)
        expected = coefficient_embedding(window, planted_core)
        checks.append(_check_bool("all_three_hold", cond_i and cond_ii and cond_iii))
        checks.append(_check("subspace_is_planted_window",
                             subspace_gap(m.basis, expected), 100 * tol))
        # restriction agrees with the constant block Toeplitz of W0
        t_win = toeplitz_window_matrix(sym, window, window)
        w0_full = np.zeros((dim, dim), dtype=complex)
        w0_full[:d0, :d0] = w0
        canon = orthonormal_columns(expected, tol)
        restriction = canon.conj().T @ t_win @ canon
        constant = canon.conj().T @ np.kron(np.eye(window), w0_full) @ canon
        checks.append(_check("restriction_is_constant_toeplitz",
                             spectral_norm(restriction - constant), 100 * tol))
    else:
        checks.append(_check_bool("all_three_fail",
                                  not (cond_i or cond_ii or cond_iii)))
        ext = beurling_extract(m, dim, tol)
        u, _ = extract_constant_unitary(sym, ext.theta)
        ok, residuals = verify_maincondn(sym, ext.theta, u, tol=100 * tol)
        checks.append(_check_bool("nonconstant_generator_intertwines", ok))
        checks.append(_check_bool("generator_not_constant", ext.theta.degree >= 1))
    return ScenarioResult(
        "butz_equivalence",
        {"seed": seed, "window": window, "d0": d0, "d1": d1,
         "planted": planted, "tol": tol},
        tuple(checks),
        records={"conditions": {"product_form": cond_i,
                                "constant_restriction": cond_ii,
                                "pointwise_constant_unitary": cond_iii},
                 **info},
    )


def planted_colligation(rng, d0: int, d1: int) -> tuple[Colligation, np.ndarray]:
    """Colligation whose A has the planted unitary block on the leading coords.

    ``d1 = 0`` gives the degenerate case with no state space: A is unitary
    and the transfer function is the constant U0.
    """
    u0 = haar_unitary(d0, rng) if d0 else np.zeros((0, 0))
    if d1 == 0:
        if d0 == 0:
            raise ValueError("need at least one nonempty block")
        return Colligation(d0, 0, u0, np.zeros((d0, 0)), np.zeros((0, d0)),
                           np.zeros((0, 0))), u0
    u1 = haar_unitary(d1, rng)
    rank = int(rng.integers(1, d1 + 1))
    p1 = random_projection(d1, rank, rng)
    inner = bcl_colligation(u1, p1)
    if d0 == 0:
        return inner, u0
    return embed_unitary_block(u0, inner), u0


def scenario_prop_ds(seed: int = 0, d0: int = 1, d1: int = 2, window: int = 6,
                     n_lambda: int = 32, tol: float = DEFAULT_TOL) -> ScenarioResult:
    """Planted-block implications between the unitary parts of the constant
    term, the disc values, and the multiplication operator, with the constant
    inclusion witness checked at disc points."""
    rng = np.random.default_rng(seed)
    w, u0 = planted_colligation(rng, d0, d1)
    dim = d0 + d1
    rep = validate(w, tol)
    phi = polynomial_from_colligation(w)
    sym = phi.as_symbol()
    lam_grid = disc_grid(n_lambda, 0.9)

    checks = [
        _check("colligation_unitary", max(rep.residual_left, rep.residual_right), tol)
    ]
    records: dict = {}
    if d0 == 0:
        part0 = unitary_part_matrix(w.A, tol)
        records["constant_term_part_dim"] = part0.dim
        records["note"] = "no planted block; implication assertions vacuous"
        return ScenarioResult(
            "prop_ds", {"seed": seed, "d0": d0, "d1": d1, "window": window,
                        "n_lambda": n_lambda, "tol": tol},
            tuple(checks), records=records)

    inclusion = np.vstack([np.eye(d0), np.zeros((d1, d0))]).astype(complex)
    # (i) the constant term has the planted unitary part
    part0 = unitary_part_matrix(w.A, tol)
    res_i = spectral_norm(inclusion - part0.projector() @ inclusion)
    checks.append(_check("constant_term_contains_block", res_i, 100 * tol))
    # (ii) every disc value has a unitary part
    worst = 0.0
    for lam in lam_grid:
        part_lam = unitary_part_matrix(tau_eval(w, lam), tol)
        worst = max(worst, spectral_norm(
            inclusion - part_lam.projector() @ inclusion))
    checks.append(_check("disc_values_contain_block", worst, 100 * tol))
    # (iii) the multiplication operator has unitary vectors in the window;
    # the planted block is checked against the structure-equation subspace,
    # whose Laurent-level constraints are insensitive to window-boundary
    # chains, while the certified refinement only asserts nontriviality
    report = toeplitz_unitary_part(sym, window, tol)
    structure = toeplitz_unitary_part_brute(sym, window, tol)
    planted_window = coefficient_embedding(window, inclusion)
    res_iii = spectral_norm(
        planted_window - structure.projector() @ planted_window)
    checks.append(_check_bool("window_part_nontrivial", report.subspace.dim > 0))
    checks.append(_check("certified_part_sound",
                         max(report.certification.values(), default=0.0), 100 * tol))
    checks.append(_check("window_part_contains_block", res_iii, 100 * tol))
    # pointwise witness: constant inclusion and the planted unitary, for A
    # and for the value at each disc point
    th = inclusion
    res_w = max(spectral_norm(w.A @ th - th @ u0),
                spectral_norm(w.A.conj().T @ th - th @ u0.conj().T))
    for lam in lam_grid:
        val = phi.eval_at(lam)
        res_w = max(
            res_w,
            spectral_norm(val @ th - th @ u0),
            spectral_norm(val.conj().T @ th - th @ u0.conj().T),
        )
    checks.append(_check("witness_intertwines_at_disc_points", res_w, 1e-10))
    records["window_part_dim"] = report.subspace.dim
    return ScenarioResult(
        "prop_ds",
        {"seed": seed, "d0": d0, "d1": d1, "window": window,
         "n_lambda": n_lambda, "tol": tol},
        tuple(checks), records=records)


def scenario_wold_dichotomy(phi: PolyMatrix | None = None, seed: int = 0,
                            dim: int = 2, window: int = 6,
                            tol: float = DEFAULT_TOL) -> ScenarioResult:
    """For an analytic contractive symbol with isometric constant term,
    exactly one of the branches fires: unitary vectors in the window, or
    powers of the constant term tending to zero.

    On square matrices an isometric constant term is already unitary, and a
    contractive analytic symbol with unitary constant term is constant (its
    realization has no output coupling), so the first branch always fires;
    the constancy defect is recorded to document the rigidity.
    """
    if phi is None:
        rng = np.random.default_rng(seed)
        phi = PolyMatrix(dim, dim, (haar_unitary(dim, rng),))
    a0 = phi.coeffs[0]
    iso_defect = spectral_norm(a0.conj().T @ a0 - np.eye(phi.dim_in))
    if iso_defect > tol:
        raise ValueError("constant term is not isometric")
    sym = phi.as_symbol()
    report = toeplitz_unitary_part(sym, window, tol)
    branch_unitary = report.subspace.dim > 0
    branch_cdot0 = cdot0_test(a0, tol)
    eigs = np.abs(np.linalg.eigvals(a0))
    nonconstant = spectral_norm(
        np.vstack([c for c in phi.coeffs[1:]])) if phi.degree else 0.0
    checks = (
        _check_bool("exactly_one_branch", branch_unitary != branch_cdot0),
        _check_bool("spectrum_decides_branch",
                    branch_cdot0 == bool(np.max(eigs) < 1 - tol)),
    )
    return ScenarioResult(
        "wold_dichotomy",
        {"seed": seed, "dim": phi.dim_in, "window": window, "tol": tol},
        checks,
        records={"branch_unitary": branch_unitary, "branch_cdot0": branch_cdot0,
                 "window_part_dim": report.subspace.dim,
                 "constancy_defect": nonconstant,
                 "spectral_radius": float(np.max(eigs))},
    )


def _norm_condition_residual(basis: np.ndarray, a: np.ndarray, dim: int,
                             adjoint: bool = False) -> float:
    """Defect of coefficientwise isometry of a constant matrix on a window span."""
    if basis.shape[1] == 0:
        return 0.0
    window = basis.shape[0] // dim
    op = a.conj().T if adjoint else a
    big = np.kron(np.eye(window), op)
    img = big @ basis
    return spectral_norm(img.conj().T @ img - np.eye(basis.shape[1]))


def scenario_analytic_main(seed: int = 0, d0: int = 1, d1: int = 2,
                           window: int = 6, planted: bool = True,
                           tol: float = DEFAULT_TOL) -> ScenarioResult:
    """If the constant term acts isometrically on the computed unitary
    vectors, it has a unitary part of its own; probes where the hypothesis
    fails are recorded, never asserted.

    The symbol is analytic, so ``toeplitz_unitary_part`` takes its subspace
    from the unitary part of the constant term: the implication holds here
    by construction.  The independent evidence is
    ``tests/test_decomposition.py::TestAnalyticRoute``, which compares that
    route with the planted block, the window pipeline and the brute oracle.
    """
    rng = np.random.default_rng(seed)
    w, _ = planted_colligation(rng, d0 if planted else 0, d1)
    dim = w.dim_e
    phi = polynomial_from_colligation(w)
    sym = phi.as_symbol()
    report = toeplitz_unitary_part(sym, window, tol)
    condition_res = _norm_condition_residual(report.subspace.basis, w.A, dim)
    condition_holds = report.subspace.dim > 0 and condition_res <= 100 * tol
    part0 = unitary_part_matrix(w.A, tol)

    checks = []
    if planted:
        checks.append(_check_bool("window_part_nontrivial", report.subspace.dim > 0))
        checks.append(_check("constant_term_isometric_on_part", condition_res, 100 * tol))
    if condition_holds:
        checks.append(_check_bool("constant_term_part_nontrivial", part0.dim > 0))
    records = {
        "window_part_dim": report.subspace.dim,
        "condition_residual": condition_res,
        "condition_holds": condition_holds,
        "constant_term_part_dim": part0.dim,
    }
    if not checks:
        checks.append(_check_bool("probe_recorded", True))
    return ScenarioResult(
        "analytic_main",
        {"seed": seed, "d0": d0, "d1": d1, "window": window,
         "planted": planted, "tol": tol},
        tuple(checks), records=records)


def scenario_bcl_theorem(u=None, p=None, seed: int | None = None, dim: int = 3,
                         window: int = 6, tol: float = DEFAULT_TOL) -> ScenarioResult:
    """Degree-one model symbols: either norm condition on the computed
    unitary vectors forces a unitary part of the constant term.

    The model symbol is analytic, so the computed vectors come from the
    unitary part of the constant term and the implication holds by
    construction; ``tests/test_decomposition.py::TestAnalyticRoute`` holds
    the independent evidence.
    """
    if u is None or p is None:
        rng = np.random.default_rng(0 if seed is None else seed)
        u = haar_unitary(dim, rng)
        p = random_projection(dim, int(rng.integers(0, dim + 1)), rng)
    u = as_complex(u)
    p = as_complex(p)
    dim = u.shape[0]
    w = bcl_colligation(u, p, tol)
    sym = polynomial_from_colligation(w).as_symbol()
    report = toeplitz_unitary_part(sym, window, tol)
    basis = report.subspace.basis

    res_i = _norm_condition_residual(basis, w.A, dim)
    res_ii_norm = _norm_condition_residual(basis, w.A, dim, adjoint=True)
    if report.subspace.dim:
        zeroth = basis[:dim, :]
        res_ii_orth = spectral_norm(p @ zeroth)
    else:
        res_ii_orth = 0.0
    cond_i = report.subspace.dim > 0 and res_i <= 100 * tol
    cond_ii = report.subspace.dim > 0 and max(res_ii_norm, res_ii_orth) <= 100 * tol

    checks = []
    part0 = unitary_part_matrix(w.A, tol)
    if cond_i or cond_ii:
        checks.append(_check_bool("constant_term_part_nontrivial", part0.dim > 0))
    else:
        checks.append(_check_bool("implication_vacuous", True))
    return ScenarioResult(
        "bcl_theorem",
        {"seed": seed, "dim": dim, "rank_p": int(round(np.trace(p).real)),
         "window": window, "tol": tol},
        tuple(checks),
        records={"window_part_dim": report.subspace.dim,
                 "condition_i_residual": res_i,
                 "condition_ii_residuals": [res_ii_norm, res_ii_orth],
                 "condition_i": cond_i, "condition_ii": cond_ii,
                 "constant_term_part_dim": part0.dim},
    )


def scenario_laurent(sym: MatrixSymbol | None = None, expected_measure: float | None = None,
                     grid_size: int = DEFAULT_GRID_SIZE,
                     tol: float = DEFAULT_TOL) -> ScenarioResult:
    """Measure of the pointwise unitarity set on the grid.

    For trigonometric polynomial symbols the unitarity set has measure 0 or 1:
    the defect determinant is itself a trigonometric polynomial, so vanishing
    on a set of positive measure forces it to vanish identically.  The
    scenario asserts the constructed 0/1 instances and documents that proper
    positive-measure sets are out of reach for this symbol class.
    """
    grid = CircleGrid(grid_size)
    if sym is None:
        instances = [
            ("model_symbol", bcl_symbol(np.eye(2), np.diag([1.0, 0.0])), 1.0),
            ("strict_contraction", MatrixSymbol.constant(0.5 * np.eye(2)), 0.0),
            ("mixed_never_unitary",
             block_diag_symbol([MatrixSymbol(1, 1, {1: [[1.0]]}),
                                MatrixSymbol.constant([[0.5]])]), 0.0),
        ]
    else:
        instances = [("input", sym, expected_measure)]
    checks = []
    records = {}
    for name, s, expected in instances:
        mask = pointwise_unitarity_mask(s, grid, tol)
        records[name] = mask.measure
        if expected is not None:
            checks.append(_check(f"{name}_measure", abs(mask.measure - expected), 0.0))
    return ScenarioResult(
        "laurent", {"grid_size": grid_size, "tol": tol}, tuple(checks),
        records={"measures": records,
                 "note": "trig polynomial symbols admit only measure 0 or 1"},
    )


def scenario_cnu_calculus(seed: int = 0, instance: str = "goor_scalar",
                          poly_coeffs=(0.0, 0.5), window: int = 8,
                          tol: float = DEFAULT_TOL) -> ScenarioResult:
    """Polynomial calculus preserves complete non-unitarity.

    The base symbol must have no unitary vectors in the window; u(T) is then
    checked to be contractive with no unitary vectors either, via the exact
    composed symbol.
    """
    if instance == "goor_scalar":
        sym = MatrixSymbol(1, 1, {0: [[0.25]], 1: [[0.5]]})
    elif instance == "strict_matrix":
        sym = block_diag_symbol([MatrixSymbol(1, 1, {1: [[0.5]]}),
                                 MatrixSymbol.constant([[1.0 / 3.0]])])
    elif instance == "random_analytic":
        rng = np.random.default_rng(seed)
        raw = random_trig_matrix(rng, 2, 2, 1.0)
        sym = MatrixSymbol(2, 2, {k: c for k, c in raw.coeffs.items() if k >= 0})
        sym = sym.scale(0.9 / sup_norm_estimate(sym))
    else:
        raise ValueError(f"unknown instance {instance!r}")

    base = toeplitz_unitary_part(sym, window, tol)
    composed = compose_scalar_polynomial(sym, poly_coeffs)
    after = toeplitz_unitary_part(composed, window, tol)
    calc = poly_calculus(sym, poly_coeffs, window, tol)
    deg_u = len(np.atleast_1d(poly_coeffs)) - 1
    direct = toeplitz_window_matrix(composed, window, window + deg_u * sym.band)
    checks = (
        _check_bool("base_part_trivial", base.subspace.dim == 0),
        _check_bool("calculus_part_trivial", after.subspace.dim == 0),
        _check("calculus_contractive", max(spectral_norm(calc) - 1.0, 0.0), 1e-9),
        _check("calculus_matches_composed_symbol",
               spectral_norm(calc - direct), 100 * tol),
    )
    return ScenarioResult(
        "cnu_calculus",
        {"seed": seed, "instance": instance,
         "poly_coeffs": [complex(c).real for c in np.atleast_1d(poly_coeffs)],
         "window": window, "tol": tol},
        checks,
        records={"calculus_norm": spectral_norm(calc)},
    )


SCENARIOS = {
    "goor": scenario_goor,
    "bcl_example": scenario_bcl_example,
    "butz_equivalence": scenario_butz_equivalence,
    "prop_ds": scenario_prop_ds,
    "wold_dichotomy": scenario_wold_dichotomy,
    "analytic_main": scenario_analytic_main,
    "bcl_theorem": scenario_bcl_theorem,
    "laurent": scenario_laurent,
    "cnu_calculus": scenario_cnu_calculus,
}


def run_scenario(name: str, seed: int | None = None, window: int | None = None,
                 tol: float | None = None) -> ScenarioResult:
    """Run one registered scenario with optional overrides."""
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}")
    kwargs = {}
    fn = SCENARIOS[name]
    params = inspect.signature(fn).parameters
    if seed is not None and "seed" in params:
        kwargs["seed"] = seed
    if window is not None and "window" in params:
        kwargs["window"] = window
    if tol is not None and "tol" in params:
        kwargs["tol"] = tol
    return fn(**kwargs)


def run_all(seed: int | None = None, window: int | None = None,
            tol: float | None = None) -> list[ScenarioResult]:
    return [run_scenario(name, seed=seed, window=window, tol=tol)
            for name in SCENARIOS]
