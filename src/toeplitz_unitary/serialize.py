"""JSON encoding of symbols, polynomial matrices, colligations and reports.

Complex matrices are encoded as separate row-major ``re`` / ``im`` lists of
finite 64-bit floats.  Serialization is canonical (sorted keys, fixed separators) and
files are written atomically, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .colligation import Colligation
from .decomposition import Subspace, UnitaryPartReport
from .symbols import MatrixSymbol, PolyMatrix

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


def _indexed_coeffs(obj) -> dict:
    """The ``coeffs`` list of a file as {k: matrix}; a repeated k is an error."""
    coeffs = {}
    for c in obj.get("coeffs", []):
        k = int(c["k"])
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
    return MatrixSymbol(int(obj["dim_out"]), int(obj["dim_in"]), _indexed_coeffs(obj))


def polymatrix_to_json(p: PolyMatrix) -> dict:
    return {
        "dim_out": p.dim_out,
        "dim_in": p.dim_in,
        "degree": p.degree,
        "coeffs": [{"k": k, **encode_matrix(c)} for k, c in enumerate(p.coeffs)],
    }


def polymatrix_from_json(obj) -> PolyMatrix:
    degree = int(obj["degree"])
    dim_out, dim_in = int(obj["dim_out"]), int(obj["dim_in"])
    mats = [np.zeros((dim_out, dim_in), dtype=complex) for _ in range(degree + 1)]
    for k, m in _indexed_coeffs(obj).items():
        if k < 0 or k > degree:
            raise ValueError("polynomial coefficient index out of range")
        mats[k] = m
    return PolyMatrix(dim_out, dim_in, tuple(mats))


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
    return Colligation(
        int(obj["dim_e"]),
        int(obj["dim_k"]),
        decode_matrix(obj["A"]),
        decode_matrix(obj["B"]),
        decode_matrix(obj["C"]),
        decode_matrix(obj["D"]),
    )


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
        "theta": None if report.theta is None else polymatrix_to_json(report.theta),
        "u_matrix": None if report.u_matrix is None else encode_matrix(report.u_matrix),
        "residuals": {
            "intertwine_fwd": report.residual_intertwine_fwd,
            "intertwine_adj": report.residual_intertwine_adj,
            "inner": report.residual_inner,
        },
        "params": report.params,
        "certification": report.certification,
        "extraction_residuals": report.extraction_residuals,
    }
    if config is not None:
        obj["config"] = config
    return obj


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)


def write_json_atomic(path: str, obj) -> None:
    """Serialize canonically and rename into place."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(canonical_dumps(obj))
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_json(path: str):
    with open(path) as fh:
        return json.load(fh)
