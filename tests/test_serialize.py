import json
import os

import numpy as np
import pytest

from toeplitz_unitary.linalg import haar_unitary, random_projection
from toeplitz_unitary.symbols import MatrixSymbol, bcl_symbol
from toeplitz_unitary.colligation import Colligation, bcl_colligation
from toeplitz_unitary.decomposition import toeplitz_unitary_part
from toeplitz_unitary.scenarios import run_all, swap_family
from toeplitz_unitary.serialize import (
    analytic_symbol_from_json,
    analytic_symbol_to_json,
    canonical_dumps,
    colligation_from_json,
    colligation_to_json,
    decode_matrix,
    encode_matrix,
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
    # z^2 e_1 has zero coefficients below its degree, which are written out
    for coeffs in ({0: [[0.3], [0.1]], 1: [[0.0], [0.9]]}, {2: [[1.0], [0.0]]}):
        p = MatrixSymbol(2, 1, coeffs)
        obj = analytic_symbol_to_json(p)
        assert obj["degree"] == p.band == max(coeffs)
        assert [c["k"] for c in obj["coeffs"]] == list(range(p.band + 1))
        back = analytic_symbol_from_json(obj)
        assert back.is_analytic and back.band == p.band
        assert list(back.coeffs) == list(p.coeffs)
        for k in range(p.band + 1):
            np.testing.assert_array_equal(back.coeff(k), p.coeff(k))


def test_polymatrix_rejects_negative_indices():
    with pytest.raises(ValueError):
        analytic_symbol_from_json({"dim_out": 1, "dim_in": 1, "degree": 1,
                                   "coeffs": [{"k": -1, "re": [[1.0]], "im": [[0.0]]}]})
    with pytest.raises(ValueError, match="negative Fourier"):
        analytic_symbol_to_json(MatrixSymbol(1, 1, {-1: [[1.0]], 0: [[0.5]]}))


def test_colligation_round_trip():
    rng = np.random.default_rng(2)
    w = bcl_colligation(haar_unitary(3, rng), random_projection(3, 1, rng))
    back = colligation_from_json(colligation_to_json(w))
    for name in "ABCD":
        np.testing.assert_array_equal(getattr(back, name), getattr(w, name))


@pytest.mark.parametrize("dim_k", [0, 2])
def test_colligation_round_trip_through_json_text(dim_k):
    # C and D of a colligation with no state space are written as [], which
    # read back with shape (0,): the file was refused as malformed
    m = haar_unitary(3 + dim_k, np.random.default_rng(dim_k))
    w = Colligation(3, dim_k, m[:3, :3], m[:3, 3:], m[3:, :3], m[3:, 3:])
    back = colligation_from_json(json.loads(json.dumps(colligation_to_json(w))))
    for name in "ABCD":
        assert getattr(back, name).shape == getattr(w, name).shape
        np.testing.assert_array_equal(getattr(back, name), getattr(w, name))


def test_symbol_rejects_repeated_index():
    with pytest.raises(ValueError, match="more than once"):
        symbol_from_json({"dim_out": 1, "dim_in": 1, "coeffs": [
            {"k": 0, "re": [[5.0]], "im": [[0.0]]},
            {"k": 0, "re": [[0.5]], "im": [[0.0]]}]})


def test_polymatrix_rejects_repeated_index():
    with pytest.raises(ValueError, match="more than once"):
        analytic_symbol_from_json({"dim_out": 1, "dim_in": 1, "degree": 1, "coeffs": [
            {"k": 1, "re": [[1.0]], "im": [[0.0]]},
            {"k": 1, "re": [[0.0]], "im": [[0.0]]}]})


SYMBOL = {"dim_out": 1, "dim_in": 1, "coeffs": [{"k": 0, "re": [[0.5]], "im": [[0.0]]}]}
POLY = {"dim_out": 1, "dim_in": 1, "degree": 1,
        "coeffs": [{"k": 0, "re": [[0.5]], "im": [[0.0]]}]}


def _with(obj, key, value):
    obj = json.loads(json.dumps(obj))
    if key == "k":
        obj["coeffs"][0]["k"] = value
    else:
        obj[key] = value
    return obj


NON_INTEGERS = [1.9, 0.7, 1.0, True, "1"]


@pytest.mark.parametrize("value", NON_INTEGERS)
@pytest.mark.parametrize("key", ["dim_out", "dim_in", "k"])
def test_symbol_rejects_non_integer(key, value):
    # int() used to truncate: dim_out 1.9 loaded as 1, k 0.7 as 0, True as 1
    with pytest.raises(ValueError, match="must be an integer"):
        symbol_from_json(_with(SYMBOL, key, value))


@pytest.mark.parametrize("value", NON_INTEGERS)
@pytest.mark.parametrize("key", ["degree", "dim_out", "dim_in", "k"])
def test_polymatrix_rejects_non_integer(key, value):
    with pytest.raises(ValueError, match="must be an integer"):
        analytic_symbol_from_json(_with(POLY, key, value))


@pytest.mark.parametrize("value", NON_INTEGERS)
@pytest.mark.parametrize("key", ["dim_e", "dim_k"])
def test_colligation_rejects_non_integer(key, value):
    rng = np.random.default_rng(2)
    obj = colligation_to_json(bcl_colligation(haar_unitary(3, rng), random_projection(3, 1, rng)))
    with pytest.raises(ValueError, match="must be an integer"):
        colligation_from_json(_with(obj, key, value))


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
    assert set(parsed["residuals"]) == {"intertwine_fwd", "intertwine_adj",
                                        "inner", "unitary"}
    assert parsed["config"]["seed"] == 0


def test_atomic_write(tmp_path):
    path = tmp_path / "out" / "report.json"
    write_json_atomic(str(path), {"b": 1, "a": [1.5, 2.25]})
    text = path.read_text()
    assert text == canonical_dumps({"a": [1.5, 2.25], "b": 1}) + "\n"
    leftovers = [f for f in os.listdir(path.parent) if f.endswith(".tmp")]
    assert not leftovers


def _reference_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1)


WRITER_EDGE_CASES = {
    "empty_dict": {},
    "empty_list": [],
    "nested_empty": {"a": {}, "b": [], "c": [[], {}], "d": {"e": {"f": []}}},
    "tuple": (1.5, (2.5, "x"), ()),
    "mixed_list": [1.0, 2, True, None],
    "floats_then_other": [1.0, 2.0, "three", [4.0], {"five": 5.0}],
    "signed_zero_and_extremes": [-0.0, 0.0, 5e-324, -5e-324, 1e300, 1e-300,
                                 1.7976931348623157e308, 0.1, 1 / 3],
    "numpy_leaves": {"x": np.float64(0.1), "xs": [np.float64(2.5), 3.25],
                     "m": np.arange(6.0).reshape(2, 3).tolist()},
    "scalars": [0, -7, 2 ** 70, False, True, None, "", "plain"],
    "strings": {"quote \" and \\ backslash": "tab\tnew\nline\x00\x1f\x7f",
                "non-ascii \u00e9\u03b8\u2192\U0001d54b": "\u00d8 \ud83d\ude00"},
    "top_level_float": 2.5,
    "top_level_string": "\u0398",
}


@pytest.mark.parametrize("obj", WRITER_EDGE_CASES.values(), ids=WRITER_EDGE_CASES.keys())
def test_canonical_dumps_matches_json_dumps(obj):
    assert canonical_dumps(obj) == _reference_dumps(obj)


def test_canonical_dumps_matches_json_dumps_on_reports():
    analytic = toeplitz_unitary_part(bcl_symbol(np.eye(2), np.diag([1.0, 0.0])), 6)
    kernel = toeplitz_unitary_part(swap_family().symbol, 8)
    trivial = toeplitz_unitary_part(MatrixSymbol(1, 1, {0: [[0.25]], 1: [[0.5]]}), 6)
    assert (analytic.params["route"], kernel.params["route"]) == ("analytic", "kernel")
    assert trivial.classification == "trivial"
    for report in (analytic, kernel, trivial):
        obj = report_to_json(report, config={"command": "decompose", "window": 6})
        assert canonical_dumps(obj) == _reference_dumps(obj)


def test_canonical_dumps_matches_json_dumps_on_scenarios():
    objs = [r.to_json() for r in run_all(seed=0)]
    assert canonical_dumps(objs) == _reference_dumps(objs)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"),
                                   np.float64("nan")])
@pytest.mark.parametrize("where", ["leaf", "float_list", "mixed_list"])
def test_canonical_dumps_rejects_non_finite(value, where):
    leaf = {"leaf": value, "float_list": [1.0, value],
            "mixed_list": [1, value]}[where]
    with pytest.raises(ValueError, match="non-finite"):
        canonical_dumps({"outer": {"inner": leaf}})


@pytest.mark.parametrize("obj", [{1: 0.5}, {"a": {None: 1}}, [{2.0: "x"}]])
def test_canonical_dumps_rejects_non_string_keys(obj):
    with pytest.raises(TypeError, match="keys must be strings"):
        canonical_dumps(obj)


@pytest.mark.parametrize("obj", [{"a": np.int64(1)}, [np.array([1.0])], {"s": {1.0}},
                                 complex(1, 2)])
def test_canonical_dumps_rejects_unknown_types(obj):
    with pytest.raises(TypeError, match="not JSON serializable"):
        canonical_dumps(obj)


def test_refused_object_leaves_no_file(tmp_path):
    path = tmp_path / "report.json"
    with pytest.raises(ValueError):
        write_json_atomic(str(path), {"residual": float("inf")})
    assert os.listdir(tmp_path) == []
