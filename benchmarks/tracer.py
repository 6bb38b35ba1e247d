"""Span tracing of the package layers from outside the package.

A layer is one module of ``toeplitz_unitary``.  ``Tracer.install`` wraps
every public function a layer defines, in every package namespace that binds
it, the defining module included, so intra-module calls such as
``sup_norm_estimate`` calling ``eval_symbol`` are spans too.  ``uninstall``
puts the originals back.  Private helpers (leading underscore), class methods
and functions reached through containers (the scenario registry) are not
wrapped: their time is self time of the traced caller.

Spans are kept in memory as (name id, start, end, parent span, op id) and
written out once at the end.  Self time of a span is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from collections import Counter
from time import perf_counter

import numpy as np

PACKAGE = "toeplitz_unitary"
LAYERS = ("cli", "decomposition", "symbols", "hardy", "linalg",
          "colligation", "serialize", "scenarios")
# public decomposition entry points counted by ``decomposition.calls``
ENTRY_POINTS = ("toeplitz_unitary_part", "toeplitz_unitary_part_brute",
                "unitary_part_matrix", "beurling_extract",
                "extract_constant_unitary", "verify_maincondn", "poly_calculus")


def _convolve_flops(args, kwargs, result) -> int:
    """Real flops of ``convolve_block_columns``, computed from operand shapes:
    per coefficient one complex (d_out x d_in) @ (d_in x r) product per input
    block (8 flops per multiply-add) and one complex accumulate (2 flops)."""
    sym, blocks = args[0], args[1]
    n_in, d_in, r = blocks.shape
    per_coeff = n_in * sym.dim_out * r * (8 * d_in + 2)
    return len(sym.coeffs) * per_coeff


def _nullspace_noop(args, kwargs, result) -> int:
    """1 when the kernel keeps every input column (the call removed nothing)."""
    return int(result.shape[1] == np.shape(args[0])[1])


def _bytes_written(args, kwargs, result) -> int:
    return os.path.getsize(args[0])


# extra counters taken at a span boundary: span name -> (counter, function)
EXTRA_COUNTERS = {
    "hardy.convolve_block_columns": ("hardy.convolve_flops", _convolve_flops),
    "linalg.nullspace": ("linalg.nullspace_noops", _nullspace_noop),
    "serialize.write_json_atomic": ("serialize.bytes_written", _bytes_written),
}


class Tracer:
    """Wraps the layer functions and records one span per call."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.counters: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._patches: list = []
        self._wrappers: dict = {}

    def install(self) -> None:
        """Bind the wrappers; they are built once, so spans of repeated
        installs share name ids."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        if not self._wrappers:
            for layer in LAYERS:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
                for attr, fn in vars(module).items():
                    if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                            and not attr.startswith("_")):
                        self._wrappers[fn] = self._wrap(fn, f"{layer}.{attr}")
        wrappers = self._wrappers
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((namespace, attr, value))
                    namespace[attr] = wrappers[value]

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patches):
            namespace[attr] = original
        self._patches.clear()

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        extra = EXTRA_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.op)
            if extra is not None:
                self.counters[extra[0]] += extra[1](args, kwargs, result)
            return result

        return traced

    def arrays(self) -> dict:
        """Spans as columns: name id, start, end, parent index, op id."""
        if any(s is None for s in self.spans):
            raise RuntimeError("a span is still open")
        cols = list(zip(*self.spans)) if self.spans else [(), (), (), (), ()]
        return {
            "name": np.asarray(cols[0], dtype=np.int32),
            "start": np.asarray(cols[1], dtype=float),
            "end": np.asarray(cols[2], dtype=float),
            "parent": np.asarray(cols[3], dtype=np.int64),
            "op": np.asarray(cols[4], dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())

    def summary(self) -> dict:
        """Self time per layer, call count per span name, extra counters."""
        cols = self.arrays()
        dur = cols["end"] - cols["start"]
        parent = cols["parent"]
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=dur.size)
        self_time = dur - child_time
        layer_of = np.asarray([LAYERS.index(n.split(".")[0]) for n in self.names],
                              dtype=np.int64)
        span_layer = layer_of[cols["name"]]
        layer_self = np.bincount(span_layer, weights=self_time, minlength=len(LAYERS))
        calls = np.bincount(cols["name"], minlength=len(self.names))
        # inclusive time of hardy / linalg / symbols calls made directly from
        # decomposition: the structure equations, polish and extraction kernels
        parent_layer = np.where(has_parent, span_layer[np.maximum(parent, 0)], -1)
        kernel = np.isin(span_layer, [LAYERS.index(x) for x in ("hardy", "linalg", "symbols")])
        from_decomp = kernel & (parent_layer == LAYERS.index("decomposition"))
        return {
            "self_s": {layer: float(layer_self[i]) for i, layer in enumerate(LAYERS)},
            "calls": {name: int(calls[i]) for i, name in enumerate(self.names) if calls[i]},
            "counters": dict(self.counters),
            "kernels_from_decomposition_s": float(dur[from_decomp].sum()),
            "spans": int(dur.size),
        }
