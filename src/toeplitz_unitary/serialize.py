"""JSON encoding of symbols, inner polynomials, colligations and reports.

Complex matrices are encoded as separate row-major ``re`` / ``im`` lists of
finite 64-bit floats.  Serialization is canonical (sorted keys, fixed separators) and
files are written atomically, so identical runs produce byte-identical files.

The canonical text is exactly ``json.dumps(obj, sort_keys=True, indent=1)``,
built by string joins rather than the standard library's pure-Python indenting
encoder: a list of floats is written with one join over ``float.__repr__``.
The writer is strict JSON (RFC 8259): a non-finite float is a ``ValueError``,
and a non-string key or a value of any other type is a ``TypeError``.
"""

from __future__ import annotations

import json
import os
import tempfile
from json.encoder import encode_basestring_ascii

import numpy as np

from .colligation import Colligation
from .decomposition import Subspace, UnitaryPartReport
from .symbols import MatrixSymbol

SCHEMA_VERSION = "hardy-unitary-report/1"


def encode_matrix(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def decode_matrix(obj) -> np.ndarray:
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=float)
    if re.shape != im.shape:
        raise ValueError("re and im parts have different shapes")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError("matrix entries must be finite")
    return re + 1j * im


def _json_int(obj, key: str) -> int:
    """``obj[key]``, which must be a JSON integer: a fraction, a boolean or a
    string is an error, not a value to round."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def _indexed_coeffs(obj) -> dict:
    """The ``coeffs`` list of a file as {k: matrix}; a repeated k is an error."""
    coeffs = {}
    for c in obj.get("coeffs", []):
        k = _json_int(c, "k")
        if k in coeffs:
            raise ValueError(f"coefficient index {k} appears more than once")
        coeffs[k] = decode_matrix(c)
    return coeffs


def symbol_to_json(sym: MatrixSymbol) -> dict:
    coeffs = [
        {"k": k, **encode_matrix(sym.coeffs[k])} for k in sorted(sym.coeffs)
    ]
    return {"dim_out": sym.dim_out, "dim_in": sym.dim_in, "coeffs": coeffs}


def symbol_from_json(obj) -> MatrixSymbol:
    return MatrixSymbol(_json_int(obj, "dim_out"), _json_int(obj, "dim_in"),
                        _indexed_coeffs(obj))


def analytic_symbol_to_json(p: MatrixSymbol) -> dict:
    """An analytic symbol with its ``degree`` and every coefficient 0 ..
    degree written out, zero ones included; a negative index is an error."""
    if not p.is_analytic:
        raise ValueError("symbol has negative Fourier coefficients")
    return {
        "dim_out": p.dim_out,
        "dim_in": p.dim_in,
        "degree": p.band,
        "coeffs": [{"k": k, **encode_matrix(p.coeff(k))} for k in range(p.band + 1)],
    }


def analytic_symbol_from_json(obj) -> MatrixSymbol:
    """The analytic symbol of an ``analytic_symbol_to_json`` object; an index
    outside 0 .. degree is an error."""
    degree = _json_int(obj, "degree")
    dim_out, dim_in = _json_int(obj, "dim_out"), _json_int(obj, "dim_in")
    coeffs = _indexed_coeffs(obj)
    if any(k < 0 or k > degree for k in coeffs):
        raise ValueError("polynomial coefficient index out of range")
    return MatrixSymbol(dim_out, dim_in, coeffs)


def colligation_to_json(w: Colligation) -> dict:
    return {
        "dim_e": w.dim_e,
        "dim_k": w.dim_k,
        "A": encode_matrix(w.A),
        "B": encode_matrix(w.B),
        "C": encode_matrix(w.C),
        "D": encode_matrix(w.D),
    }


def colligation_from_json(obj) -> Colligation:
    dim_e, dim_k = _json_int(obj, "dim_e"), _json_int(obj, "dim_k")
    a, b, c, d = (decode_matrix(obj[name]) for name in "ABCD")
    # with no state space C and D have no rows, and [] keeps no column count
    if dim_k == 0 and c.size == d.size == 0:
        c, d = c.reshape(0, max(dim_e, 0)), d.reshape(0, 0)
    return Colligation(dim_e, dim_k, a, b, c, d)


def subspace_to_json(s: Subspace) -> dict:
    return {
        "ambient_dim": s.ambient_dim,
        "dim": s.dim,
        "tol": s.tol,
        "basis": encode_matrix(s.basis),
    }


def report_to_json(report: UnitaryPartReport, config: dict | None = None) -> dict:
    obj = {
        "schema": SCHEMA_VERSION,
        "classification": report.classification,
        "subspace": subspace_to_json(report.subspace),
        "theta": None if report.theta is None else analytic_symbol_to_json(report.theta),
        "u_matrix": None if report.u_matrix is None else encode_matrix(report.u_matrix),
        "residuals": report.residuals,
        "params": report.params,
        "certification": report.certification,
        "extraction_residuals": report.extraction_residuals,
    }
    if config is not None:
        obj["config"] = config
    return obj


def _encode(obj, pad: str) -> str:
    """Canonical JSON text of ``obj``, whose line is indented by ``pad``."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        if "n" in text:  # inf, -inf, nan: finite reprs hold no letter n
            raise ValueError(f"non-finite float {text} is not valid JSON")
        return text
    inner = pad + " "
    sep = ",\n" + inner
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
        body = sep.join(encode_basestring_ascii(key) + ": " + _encode(obj[key], inner)
                        for key in sorted(obj))
        return "{\n" + inner + body + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        try:
            body = sep.join(map(float.__repr__, obj))
        except TypeError:  # not all floats: encode item by item
            body = sep.join(_encode(item, inner) for item in obj)
        else:
            if "n" in body:
                raise ValueError("non-finite float in a list is not valid JSON")
        return "[\n" + inner + body + "\n" + pad + "]"
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def canonical_dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=1)``, byte for byte, but strict."""
    return _encode(obj, "")


def write_json_atomic(path: str, obj) -> None:
    """Serialize canonically and rename into place.

    The text is built before the temporary file is made, so an object the
    writer refuses leaves no file behind.
    """
    text = canonical_dumps(obj)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_json(path: str):
    with open(path) as fh:
        return json.load(fh)
