"""The circle checks against reference loops.

Every grid check evaluates the whole grid in one call.  The references below
evaluate one point at a time with ``eval_symbol`` and ``spectral_norm``; the
two routes must agree exactly, not just within a tolerance.

The residuals of ``is_inner``, ``extract_constant_unitary`` and
``verify_maincondn`` are sums of coefficient norms instead.  They must match
a reference convolution loop and bound the pointwise defects on a fine grid
from above.
"""

import numpy as np
import pytest

from toeplitz_unitary.decomposition import extract_constant_unitary, verify_maincondn
from toeplitz_unitary.linalg import (
    haar_unitary,
    random_projection,
    spectral_norm,
    spectral_norms,
)
from toeplitz_unitary.symbols import (
    DEFAULT_GRID_SIZE,
    CircleGrid,
    MatrixSymbol,
    PolyMatrix,
    bcl_symbol,
    eval_on_grid,
    eval_symbol,
    is_inner,
    pointwise_unitarity_mask,
    sup_norm_estimate,
)

CASES = [(d, band) for d in (1, 2, 3, 4) for band in (1, 2, 4)]


def _gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _instance(d, band):
    """A square symbol, a d x r polynomial of degree band and an r x r unitary."""
    rng = np.random.default_rng(100 * d + band)
    sym = MatrixSymbol(d, d, {k: _gaussian(rng, d, d) / (2 * band + 1)
                              for k in range(-band, band + 1)})
    r = 1 + band % d
    theta = PolyMatrix(d, r, tuple(_gaussian(rng, d, r) for _ in range(band + 1)))
    return sym, theta, haar_unitary(r, rng), rng


def _defect(v):
    return spectral_norm(v.conj().T @ v - np.eye(v.shape[1]))


def _coefficient_reference(sym, theta, u):
    """Coefficient norm sums of F theta - theta U, F* theta - theta U* and
    theta* theta - I, one coefficient product at a time."""
    th = dict(enumerate(theta.coeffs))
    eye = np.eye(theta.dim_in)

    def defect(left, right):
        out = {k: -c for k, c in right.items()}
        for j, a in left.items():
            for k, b in th.items():
                out[j + k] = out.get(j + k, 0) + a @ b
        return sum(spectral_norm(c) for c in out.values())

    adj = {-k: c.conj().T for k, c in sym.coeffs.items()}
    th_adj = {-k: c.conj().T for k, c in th.items()}
    return {"intertwine_fwd": defect(sym.coeffs, {k: c @ u for k, c in th.items()}),
            "intertwine_adj": defect(adj, {k: c @ u.conj().T for k, c in th.items()}),
            "inner": defect(th_adj, {0: eye})}


def _grid_defects(sym, theta, u):
    """The same three defects' maxima on 4096 points, lower bounds on their
    sup norms (the batched evaluation equals the per-point loop, see above)."""
    grid = CircleGrid(4096)
    phi = eval_on_grid(sym, grid)
    th = eval_on_grid(theta.as_symbol(), grid)

    def adjoint(v):
        return v.conj().transpose(0, 2, 1)

    return {"intertwine_fwd": spectral_norms(phi @ th - th @ u).max(),
            "intertwine_adj": spectral_norms(adjoint(phi) @ th - th @ u.conj().T).max(),
            "inner": spectral_norms(adjoint(th) @ th - np.eye(theta.dim_in)).max()}


def _assert_bounds_and_matches(residuals, sym, theta, u):
    reference = _coefficient_reference(sym, theta, u)
    lower = _grid_defects(sym, theta, u)
    for key, value in residuals.items():
        if key == "unitary":
            assert value == _defect(u)
            continue
        assert abs(value - reference[key]) <= 1e-12 * max(1.0, reference[key]), key
        assert value >= lower[key], key


@pytest.mark.parametrize("d, band", CASES)
def test_eval_on_grid_matches_eval_symbol(d, band):
    sym, theta, _, _ = _instance(d, band)
    grid = CircleGrid(DEFAULT_GRID_SIZE)
    for s in (sym, theta.as_symbol()):
        values = eval_on_grid(s, grid)
        assert values.shape == (grid.size, s.dim_out, s.dim_in)
        for j, t in enumerate(grid.points):
            assert np.array_equal(values[j], eval_symbol(s, t))


@pytest.mark.parametrize("d, band", CASES)
def test_sup_norm_estimate_matches_loop(d, band):
    sym, _, _, _ = _instance(d, band)
    grid = CircleGrid(max(DEFAULT_GRID_SIZE, 2 * band + 1))
    best = 0.0
    for t in grid.points:
        best = max(best, spectral_norm(eval_symbol(sym, t)))
    assert sup_norm_estimate(sym) == best


@pytest.mark.parametrize("d, band", CASES)
def test_is_inner_grid_residual_matches_loop(d, band):
    sym, theta, u, _ = _instance(d, band)
    rep = is_inner(theta)
    _assert_bounds_and_matches({"inner": rep.residual}, sym, theta, u)
    assert rep.is_inner == (rep.residual <= 1e-8)


@pytest.mark.parametrize("d, band", CASES)
def test_unitarity_mask_matches_loop(d, band):
    sym, _, _, rng = _instance(d, band)
    # unitary model symbol plus a small perturbation, with tol at the median
    # defect, so that about half of the points are flagged
    near = bcl_symbol(haar_unitary(d, rng), random_projection(d, 1, rng)).add(sym.scale(1e-6))
    grid = CircleGrid(DEFAULT_GRID_SIZE)
    defects = []
    for t in grid.points:
        v = eval_symbol(near, t)
        defects.append((_defect(v), spectral_norm(v @ v.conj().T - np.eye(d))))
    tol = float(np.median([max(pair) for pair in defects]))
    expected = [a <= tol and b <= tol for a, b in defects]
    flags = pointwise_unitarity_mask(near, grid, tol).flags
    assert flags.tolist() == expected
    assert 0 < flags.sum() < grid.size


@pytest.mark.parametrize("d, band", CASES)
def test_extract_constant_unitary_matches_loop(d, band):
    sym, theta, _, _ = _instance(d, band)
    u, residuals = extract_constant_unitary(sym, theta)
    assert set(residuals) == {"intertwine_fwd", "intertwine_adj", "inner", "unitary"}
    _assert_bounds_and_matches(residuals, sym, theta, u)


@pytest.mark.parametrize("d, band", CASES)
def test_verify_maincondn_matches_loop(d, band):
    sym, theta, u, _ = _instance(d, band)
    ok, residuals = verify_maincondn(sym, theta, u)
    assert set(residuals) == {"intertwine_fwd", "intertwine_adj", "inner", "unitary"}
    _assert_bounds_and_matches(residuals, sym, theta, u)
    assert ok == all(v <= 1e-8 for v in residuals.values())


def test_spectral_norms_match_per_matrix():
    stack = _gaussian(np.random.default_rng(3), 6, 3, 2)
    assert spectral_norms(stack).tolist() == [spectral_norm(m) for m in stack]
    for shape in ((4, 0, 3), (4, 3, 0), (4, 0, 0)):
        assert spectral_norms(np.zeros(shape)).tolist() == [0.0] * 4
