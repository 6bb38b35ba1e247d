"""Acceptance criteria, one test per criterion.

Every test prints a single pass/fail line (outside pytest capture) and
asserts the criterion at its stated tolerance.  All tolerances are pinned
here; nothing is deferred to later calibration.
"""

import numpy as np
import pytest

from helpers import (
    HardyVector,
    planted_contraction,
    principal_angles,
    random_colligation,
    random_contraction,
    toeplitz_apply_exact,
    unitary_residuals,
)
from toeplitz_unitary.linalg import (
    haar_unitary,
    random_projection,
    spectral_norm,
    subspace_gap,
)
from toeplitz_unitary.symbols import (
    MatrixSymbol,
    adjoint_symbol,
    bcl_symbol,
    is_inner,
    multiply,
)
from toeplitz_unitary.colligation import defect_identities, disc_grid
from toeplitz_unitary.decomposition import (
    reducing_check,
    toeplitz_unitary_part,
    toeplitz_unitary_part_brute,
    unitary_part_brute,
    unitary_part_matrix,
    verify_maincondn,
    window_span,
)
from toeplitz_unitary.scenarios import (
    planted_family,
    run_all,
    scenario_analytic_main,
    scenario_bcl_example,
    scenario_butz_equivalence,
    scenario_cnu_calculus,
    scenario_goor,
    scenario_prop_ds,
    scenario_wold_dichotomy,
)
from toeplitz_unitary.serialize import canonical_dumps, report_to_json


@pytest.fixture(autouse=True)
def _terminal(capfd):
    _finish.capfd = capfd
    yield
    _finish.capfd = None


def _finish(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:2d} {status}  {description}{detail}"
    if getattr(_finish, "capfd", None) is not None:
        with _finish.capfd.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, f"criterion {num} failed{detail}"


def test_criterion_1_decomposition_oracle_equivalence():
    worst_angle = 0.0
    worst_residual = 0.0
    ok = True
    for seed in range(200):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(1, 9))
        if seed % 2:
            t = random_contraction(n, rng, norm=float(rng.uniform(0.7, 1.0)))
        else:
            t, _ = planted_contraction(rng, n, int(rng.integers(0, n + 1)), 0.85)
        a = unitary_part_matrix(t, 1e-8)
        b = unitary_part_brute(t, 1e-8)
        ok = ok and a.dim == b.dim
        if a.dim and b.dim:
            worst_angle = max(worst_angle, float(np.max(principal_angles(a.basis, b.basis))))
            for sub in (a, b):
                worst_residual = max(worst_residual,
                                     max(unitary_residuals(t, sub.basis).values()))
    ok = ok and worst_angle <= 1e-7 and worst_residual <= 1e-8
    _finish(1, "decomposition oracle equivalence on 200 contractions", ok,
            f" (max angle {worst_angle:.2e}, max residual {worst_residual:.2e})")


def test_criterion_2_transfer_identities():
    worst_defect = 0.0
    worst_norm = 0.0
    for seed in range(100):
        rng = np.random.default_rng(2000 + seed)
        dim_e = int(rng.integers(1, 7))
        dim_k = int(rng.integers(0, 7))
        w = random_colligation(dim_e, dim_k, rng)
        rep = defect_identities(w, disc_grid(64, 0.99))
        worst_defect = max(worst_defect, rep.max_defect1, rep.max_defect2)
        worst_norm = max(worst_norm, rep.max_norm)
    ok = worst_defect <= 1e-10 and worst_norm <= 1.0 + 1e-9
    _finish(2, "transfer defect identities on 100 colligations", ok,
            f" (max defect {worst_defect:.2e}, max norm {worst_norm:.12f})")


def test_criterion_3_goor_suite():
    failures = []
    for seed in range(50):
        band = 1 + seed % 4
        result = scenario_goor(seed=3000 + seed, degree=band, window=12)
        if not result.overall:
            failures.append(seed)
    _finish(3, "50 nonconstant scalar symbols are completely non-unitary",
            not failures, f" (failures: {failures})" if failures else "")


def test_criterion_4_planted_round_trip():
    ok = True
    detail = ""
    for seed in range(50):
        window = 8
        family = planted_family(np.random.default_rng(4000 + seed), 1 + seed % 2,
                                1 + (seed // 2) % 2)
        sym, w0, inclusion = family.symbol, family.u, family.theta.coeff(0)

        report = toeplitz_unitary_part(sym, window, 1e-8)
        brute = toeplitz_unitary_part_brute(sym, window, 1e-8)
        expected = window_span(family.theta, window)
        if not (report.subspace.dim == expected.shape[1] == brute.dim
                and report.classification == "constant_type"):
            ok, detail = False, f" (seed {seed}: dim {report.subspace.dim})"
            break
        if max(np.max(principal_angles(report.subspace.basis, basis))
               for basis in (brute.basis, expected)) > 1e-7:
            ok, detail = False, f" (seed {seed}: oracle angle)"
            break
        theta0 = report.theta.coeff(0)
        if report.theta.band != 0 or subspace_gap(theta0, inclusion) > 1e-7:
            ok, detail = False, f" (seed {seed}: generator range)"
            break
        align = inclusion.conj().T @ theta0
        if spectral_norm(align @ report.u_matrix @ align.conj().T - w0) > 1e-8:
            ok, detail = False, f" (seed {seed}: unitary mismatch)"
            break
        passed, _ = verify_maincondn(sym, report.theta, report.u_matrix, tol=1e-8)
        if not passed:
            ok, detail = False, f" (seed {seed}: intertwining)"
            break
    _finish(4, "50 planted block symbols round-trip through extraction", ok, detail)


def test_criterion_5_bcl_example():
    result = scenario_bcl_example(window=8)
    records = result.records
    ok = (result.overall
          and records["subspace_dim"] == 8
          and records["claim_discrepancy"] is True
          and "computed_subspace" in records
          and "claimed_containment" in records)
    _finish(5, "model symbol example with containment-claim discrepancy", ok,
            f" (dim {records['subspace_dim']}, flag {records.get('claim_discrepancy')})")


def test_criterion_6_butz_equivalence_suite():
    joint_ok = True
    for seed in range(12):
        result = scenario_butz_equivalence(seed=6000 + seed, planted=True,
                                           d0=1 + seed % 2, d1=1 + seed % 3 % 2)
        conds = result.records["conditions"]
        joint_ok = joint_ok and result.overall and all(conds.values())
    for seed in range(8):
        result = scenario_butz_equivalence(seed=6100 + seed, planted=False,
                                           d0=seed % 2)
        conds = result.records["conditions"]
        joint_ok = joint_ok and result.overall and not any(conds.values())
    _finish(6, "three-way product-form equivalence on 20 instances", joint_ok)


def test_criterion_7_analytic_suite():
    ok = True
    for seed in range(30):
        d0 = 1 + seed % 2
        d1 = 2 + seed % 2
        r1 = scenario_prop_ds(seed=7000 + seed, d0=d0, d1=d1, window=6, n_lambda=32)
        r2 = scenario_analytic_main(seed=7000 + seed, d0=d0, d1=d1, window=6)
        witness = [c for c in r1.checks if c.name == "witness_intertwines_at_disc_points"]
        ok = ok and r1.overall and r2.overall and witness and witness[0].residual <= 1e-10
    _finish(7, "constant-term correspondence on 30 planted colligations", bool(ok))


def test_criterion_8_wold_dichotomy():
    ok = True
    for seed in range(20):
        result = scenario_wold_dichotomy(seed=8000 + seed, dim=1 + seed % 4, window=6)
        branches = (result.records["branch_unitary"], result.records["branch_cdot0"])
        ok = ok and result.overall and sum(branches) == 1
    _finish(8, "isometric constant term forces exactly one branch, 20 instances", ok)


def _norm_preserving(sym, rng, samples=100, degree=8):
    worst = 0.0
    for _ in range(samples):
        h = HardyVector(sym.dim_in,
                        rng.standard_normal((degree + 1, sym.dim_in))
                        + 1j * rng.standard_normal((degree + 1, sym.dim_in)))
        worst = max(worst, abs(toeplitz_apply_exact(sym, h).norm() - h.norm()))
    return worst <= 1e-10


def test_criterion_9_isometry_characterizations():
    rng = np.random.default_rng(9000)
    inner_instances = []
    for i in range(20):
        if i % 4 == 0:
            inner_instances.append(MatrixSymbol.constant(haar_unitary(2, rng)))
        else:
            factors = 1 + i % 3
            sym = MatrixSymbol.constant(np.eye(2))
            for _ in range(factors):
                sym = multiply(sym, bcl_symbol(haar_unitary(2, rng),
                                               random_projection(2, 1, rng)))
            inner_instances.append(sym)
    non_inner_instances = []
    for i in range(20):
        if i % 3 == 0:
            non_inner_instances.append(MatrixSymbol.constant(
                float(rng.uniform(0.2, 0.9)) * haar_unitary(2, rng)))
        elif i % 3 == 1:
            raw = {k: rng.standard_normal((2, 2)) for k in (0, 1, 2)}
            sym = MatrixSymbol(2, 2, raw)
            from toeplitz_unitary.symbols import sup_norm_estimate

            non_inner_instances.append(sym.scale(0.9 / sup_norm_estimate(sym)))
        else:
            base = bcl_symbol(haar_unitary(2, rng), random_projection(2, 1, rng))
            bump = MatrixSymbol(2, 2, {1: 1e-3 * np.eye(2)})
            non_inner_instances.append(base.add(bump).scale(1 / (1 + 1e-3)))

    ok = True
    forward = {}
    for sym in inner_instances:
        rep = is_inner(sym, tol=1e-8)
        forward[id(sym)] = _norm_preserving(sym, rng)
        ok = ok and rep.is_inner and forward[id(sym)]
    for sym in non_inner_instances:
        rep = is_inner(sym, tol=1e-8)
        forward[id(sym)] = _norm_preserving(sym, rng)
        ok = ok and (not rep.is_inner) and (not forward[id(sym)])

    # two-sided preservation picks out exactly the constant unitary symbols
    for sym in inner_instances + non_inner_instances:
        both = forward[id(sym)] and _norm_preserving(adjoint_symbol(sym), rng)
        constant_unitary = sym.band == 0 and spectral_norm(
            sym.coeff(0).conj().T @ sym.coeff(0) - np.eye(2)) <= 1e-10
        ok = ok and both == constant_unitary
    _finish(9, "isometry and unitary symbol characterizations on 40 instances", ok)


def test_criterion_10_reducing_property():
    rng = np.random.default_rng(10000)
    agreements = 0
    for trial in range(500):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, n))
        if trial % 2:
            v = haar_unitary(n, rng)[:, :r]
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        else:
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
        if reducing_check(v, a, 1e-8) == direct:
            agreements += 1
    _finish(10, "reducing-subspace commutator test on 500 pairs",
            agreements == 500, f" ({agreements}/500)")


def test_criterion_11_calculus():
    cases = (
        [("goor_scalar", c, 0) for c in [(0.0, 0.5), (0.0, 0.25, 0.25), (0.0, 0.0, 0.5)]]
        + [("strict_matrix", c, 0) for c in [(0.0, 0.5), (0.0, 0.25, 0.25), (0.0, 0.0, 0.5)]]
        + [("random_analytic", (0.0, 0.5), seed) for seed in range(4)]
    )
    ok = True
    worst_norm = 0.0
    for instance, coeffs, seed in cases:
        result = scenario_cnu_calculus(seed=11000 + seed, instance=instance,
                                       poly_coeffs=coeffs, window=8)
        ok = ok and result.overall
        worst_norm = max(worst_norm, result.records["calculus_norm"])
    ok = ok and worst_norm <= 1.0 + 1e-9
    _finish(11, "polynomial calculus keeps complete non-unitarity, 10 instances",
            ok, f" (max norm {worst_norm:.9f})")


def test_criterion_12_determinism():
    suite1 = canonical_dumps([r.to_json() for r in run_all(seed=12)])
    suite2 = canonical_dumps([r.to_json() for r in run_all(seed=12)])
    sym = bcl_symbol(np.eye(2), np.diag([1.0, 0.0]))
    rep1 = canonical_dumps(report_to_json(
        toeplitz_unitary_part(sym, 8, 1e-8), config={"seed": 12}))
    rep2 = canonical_dumps(report_to_json(
        toeplitz_unitary_part(sym, 8, 1e-8), config={"seed": 12}))
    ok = suite1 == suite2 and rep1 == rep2
    _finish(12, "identical seeds give byte-identical reports", ok)
