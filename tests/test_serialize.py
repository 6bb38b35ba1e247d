import json
import os

import numpy as np
import pytest

from toeplitz_unitary.linalg import haar_unitary, random_projection
from toeplitz_unitary.symbols import MatrixSymbol, PolyMatrix, bcl_symbol
from toeplitz_unitary.colligation import bcl_colligation
from toeplitz_unitary.decomposition import toeplitz_unitary_part
from toeplitz_unitary.serialize import (
    canonical_dumps,
    colligation_from_json,
    colligation_to_json,
    decode_matrix,
    encode_matrix,
    polymatrix_from_json,
    polymatrix_to_json,
    report_to_json,
    symbol_from_json,
    symbol_to_json,
    write_json_atomic,
)


def test_matrix_round_trip():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    np.testing.assert_array_equal(decode_matrix(encode_matrix(m)), m)


def test_symbol_round_trip():
    sym = bcl_symbol(haar_unitary(2, np.random.default_rng(1)), np.diag([1.0, 0.0]))
    back = symbol_from_json(symbol_to_json(sym))
    assert set(back.coeffs) == set(sym.coeffs)
    for k in sym.coeffs:
        np.testing.assert_array_equal(back.coeff(k), sym.coeff(k))


def test_polymatrix_round_trip():
    p = PolyMatrix(2, 1, (np.array([[0.3], [0.1]]), np.array([[0.0], [0.9]])))
    back = polymatrix_from_json(polymatrix_to_json(p))
    assert back.degree == p.degree
    for a, b in zip(back.coeffs, p.coeffs):
        np.testing.assert_array_equal(a, b)


def test_polymatrix_rejects_negative_indices():
    with pytest.raises(ValueError):
        polymatrix_from_json({"dim_out": 1, "dim_in": 1, "degree": 1,
                              "coeffs": [{"k": -1, "re": [[1.0]], "im": [[0.0]]}]})


def test_colligation_round_trip():
    rng = np.random.default_rng(2)
    w = bcl_colligation(haar_unitary(3, rng), random_projection(3, 1, rng))
    back = colligation_from_json(colligation_to_json(w))
    for name in "ABCD":
        np.testing.assert_array_equal(getattr(back, name), getattr(w, name))


def test_symbol_rejects_repeated_index():
    with pytest.raises(ValueError, match="more than once"):
        symbol_from_json({"dim_out": 1, "dim_in": 1, "coeffs": [
            {"k": 0, "re": [[5.0]], "im": [[0.0]]},
            {"k": 0, "re": [[0.5]], "im": [[0.0]]}]})


def test_polymatrix_rejects_repeated_index():
    with pytest.raises(ValueError, match="more than once"):
        polymatrix_from_json({"dim_out": 1, "dim_in": 1, "degree": 1, "coeffs": [
            {"k": 1, "re": [[1.0]], "im": [[0.0]]},
            {"k": 1, "re": [[0.0]], "im": [[0.0]]}]})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("part", ["re", "im"])
def test_decode_matrix_rejects_non_finite(part, value):
    obj = {"re": [[1.0, 0.0]], "im": [[0.0, 0.0]]}
    obj[part][0][1] = value
    with pytest.raises(ValueError, match="finite"):
        decode_matrix(obj)


def test_report_serialization_carries_everything():
    sym = MatrixSymbol.constant(haar_unitary(2, np.random.default_rng(3)))
    report = toeplitz_unitary_part(sym, 3)
    obj = report_to_json(report, config={"window": 3, "seed": 0})
    text = canonical_dumps(obj)
    parsed = json.loads(text)
    assert parsed["schema"] == "hardy-unitary-report/1"
    assert parsed["classification"] == "constant_type"
    assert parsed["subspace"]["dim"] == 6
    assert parsed["theta"]["degree"] == 0
    assert "intertwine_fwd" in parsed["residuals"]
    assert parsed["config"]["seed"] == 0


def test_atomic_write(tmp_path):
    path = tmp_path / "out" / "report.json"
    write_json_atomic(str(path), {"b": 1, "a": [1.5, 2.25]})
    text = path.read_text()
    assert text == canonical_dumps({"a": [1.5, 2.25], "b": 1}) + "\n"
    leftovers = [f for f in os.listdir(path.parent) if f.endswith(".tmp")]
    assert not leftovers
