"""Set-up, timing, tracing and metrics of one benchmark run.

``run_untraced`` gives the end-to-end metrics, ``run_traced`` the per-layer
ones.  Both call ``cli.main`` in-process, so JSON load, decomposition,
serialization and exit-code logic are inside every timed operation, and both
check every command's output against the answer known by construction.
End-to-end times of the workloads marked ``host_scaled`` are scaled to a
nominal host speed (``HostSpeed``).
"""

from __future__ import annotations

import glob
import io
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import numpy as np

from tracer import ENTRY_POINTS, LAYERS, Tracer
from workloads import WORKLOADS

# set-up is repeated this many times per run and its median reported
SETUP_REPEATS = 3
TAIL_BEYOND = 10

# On a shared host the same command runs up to 30% slower for minutes at a
# time while other tenants load the machine, with CPU time rising as much as
# wall time.  A fixed reference kernel that calls no package code is timed
# between commands, at most every CAL_EVERY_S, and a run's times are scaled by
# CAL_NOMINAL_S / (median kernel time of the run): seconds at the speed of a
# quiet 2-vCPU x86-64 host, where the kernel takes CAL_NOMINAL_S.
CAL_NOMINAL_S = 0.0078
CAL_EVERY_S = 0.5
_CAL_RNG = np.random.default_rng(20240201)
_CAL_POINTS = _CAL_RNG.standard_normal((64, 3, 3)) + 1j * _CAL_RNG.standard_normal((64, 3, 3))
_CAL_DENSE = _CAL_RNG.standard_normal((48, 48)) + 1j * _CAL_RNG.standard_normal((48, 48))

UNREADABLE = "unreadable output"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import toeplitz_unitary.cli; "
                "print(time.perf_counter() - t)")


def run_op(cli, op) -> tuple[float, str | None]:
    """Time one command; return (seconds, failure reason or None)."""
    sink = io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            code = cli.main(list(op.argv))
    except Exception:
        latency = perf_counter() - start
        return latency, "raised: " + traceback.format_exc(limit=-2).strip()
    latency = perf_counter() - start
    if code != 0:
        lines = sink.getvalue().strip().splitlines()
        return latency, f"exit {code}: {lines[-1] if lines else ''}"
    try:
        return latency, op.check()
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return latency, f"{UNREADABLE}: {exc!r}"


def measure_import(root: str) -> float:
    """Seconds to import the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root, env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip())


def setup(cli, workload, seed: int, root: str, workdir: str):
    """Import, input generation, symbol files and one warm-up command.

    Returns (variants, timings dict, warm-up failure or None).
    """
    import_s = measure_import(root)
    start = perf_counter()
    for sub in ("in", "out"):
        os.makedirs(os.path.join(workdir, sub), exist_ok=True)
    variants = workload.make_variants(seed, workdir)
    inputs_s = perf_counter() - start
    warmup_s, warmup_failure = run_op(cli, variants[0][0])
    return variants, {"import_s": import_s, "inputs_s": inputs_s,
                      "warmup_s": warmup_s}, warmup_failure


def calibration_kernel_s() -> float:
    """Seconds for the reference kernel: per-point small-matrix norms, dense
    SVDs and an interpreter loop, the kinds of work the commands do."""
    start = perf_counter()
    for m in _CAL_POINTS:
        np.linalg.norm(m, 2)
    for _ in range(4):
        np.linalg.svd(_CAL_DENSE)
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    return perf_counter() - start


class HostSpeed:
    """The host's speed during one run against the nominal one."""

    def __init__(self):
        calibration_kernel_s()  # first call pays one-off costs
        self.kernel_s = []
        self.last = -math.inf

    def tick(self, force: bool = False) -> None:
        """Time the kernel if CAL_EVERY_S has passed since the last time."""
        if force or perf_counter() - self.last >= CAL_EVERY_S:
            self.kernel_s.append(calibration_kernel_s())
            self.last = perf_counter()

    def scale(self) -> float:
        """Factor that turns this run's seconds into nominal-speed seconds."""
        return CAL_NOMINAL_S / statistics.median(self.kernel_s)


def tail_percentile(latencies) -> dict:
    """Highest integer percentile with at least TAIL_BEYOND samples above its
    nearest-rank position; falls back to the maximum for small samples."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return {"percentile": 100, "value": xs[-1], "samples": n, "beyond": 0}
    p = math.floor(100 * (n - TAIL_BEYOND) / n)
    rank = max(math.ceil(p * n / 100), 1)
    return {"percentile": p, "value": xs[rank - 1], "samples": n, "beyond": n - rank}


def measure(cli, variants, passes: int, speed: HostSpeed):
    """Run ``passes`` passes, cycling through the variants.

    The amount of work depends on the seed and the pass count only, so
    ``attempted`` and ``failed`` repeat exactly from run to run.
    Returns [(variant, index, latency, failure) per command].
    """
    samples = []
    for p in range(passes):
        v = p % len(variants)
        for i, op in enumerate(variants[v]):
            speed.tick()
            latency, failure = run_op(cli, op)
            samples.append((v, i, latency, failure))
    return samples


def repeat_identical(cli, op) -> bool:
    """Run ``op`` again into a fresh path and compare output bytes."""
    first = _output_bytes(op.output)
    again = op.with_output(op.output + ".repeat")
    run_op(cli, again)
    return first == _output_bytes(again.output)


def _output_bytes(path: str) -> list:
    """Bytes of a report file, or of every JSON file in a results directory."""
    files = [path] if os.path.isfile(path) else sorted(glob.glob(os.path.join(path, "*.json")))
    out = []
    for f in files:
        with open(f, "rb") as fh:
            out.append(fh.read())
    return out


def environment() -> dict:
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        cfg = {}
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{cfg.get('name')} {cfg.get('version')}",
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_untraced(cli, workload_name: str, seed: int, seconds: float,
                 root: str, workdir: str) -> dict:
    workload = WORKLOADS[workload_name]
    speed = HostSpeed()
    setups = []
    warmup_failures = []
    for _ in range(SETUP_REPEATS):
        speed.tick(force=True)
        variants, timings, warm_fail = setup(cli, workload, seed, root, workdir)
        speed.tick(force=True)
        setups.append(timings)
        warmup_failures.append(warm_fail)

    passes = workload.passes_for(seconds)
    samples = measure(cli, variants, passes, speed)
    raw = [s[2] for s in samples]
    failures = [{"variant": v, "index": i, "reason": f}
                for v, i, _, f in samples if f is not None]
    attempted = len(samples)
    identical = repeat_identical(cli, variants[0][0])
    correct = attempted - len(failures)
    raw_setup_s = statistics.median(sum(t.values()) for t in setups)
    raw_tail = tail_percentile(raw)
    unscaled = {
        "ops_per_s": correct / sum(raw),
        "op_s_p50": statistics.median(raw),
        "op_s_tail": raw_tail["value"],
        "setup_s": raw_setup_s,
    }
    scale = speed.scale() if workload.host_scaled else 1.0
    tail = dict(raw_tail, value=raw_tail["value"] * scale)
    metrics = {
        "ops_per_s": (unscaled["ops_per_s"] / scale, "1/s"),
        "op_s_p50": (unscaled["op_s_p50"] * scale, "s"),
        "op_s_tail": (tail["value"], "s"),
        "setup_s": (raw_setup_s * scale, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {
        "workload": workload_name,
        "seed": seed,
        "trace": 0,
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "repeat_byte_identical": identical,
        "metrics": metrics,
        "unscaled_metrics": unscaled,
        "host_speed": {"nominal_kernel_s": CAL_NOMINAL_S,
                       "kernel_s_median": statistics.median(speed.kernel_s),
                       "kernel_runs": len(speed.kernel_s),
                       "scale": scale},
        "tail": tail,
        "passes": passes,
        "busy_s": sum(raw),
        "setup_runs": setups,
        "warmup_failures": warmup_failures,
        "failures": failures,
        "latencies": [{"variant": v, "index": i, "s": lat} for v, i, lat, _ in samples],
        "environment": environment(),
    }


def run_traced(cli, workload_name: str, seed: int, root: str, workdir: str,
               spans_path: str) -> dict:
    workload = WORKLOADS[workload_name]
    variants, timings, warm_fail = setup(cli, workload, seed, root, workdir)
    ops = [op for p in range(workload.trace_passes)
           for op in variants[p % len(variants)]]

    # each command runs untraced and then traced, so that drift in machine
    # speed does not enter the overhead ratio
    tracer = Tracer()
    untraced, traced = [], []
    for i, op in enumerate(ops):
        untraced.append(run_op(cli, op))
        if i == 0:
            first_bytes = _output_bytes(op.output)
        tracer.op = i
        tracer.install()
        try:
            traced.append(run_op(cli, op))
        finally:
            tracer.uninstall()
    tracer.save(spans_path)
    # the traced rerun of the first command doubles as the repeat check
    identical = first_bytes == _output_bytes(ops[0].output)

    summary = tracer.summary()
    n = len(ops)
    untraced_s = sum(lat for lat, _ in untraced)
    traced_s = sum(lat for lat, _ in traced)
    calls = summary["calls"]
    counters = summary["counters"]
    nullspace_calls = calls.get("linalg.nullspace", 0)
    metrics = {f"{layer}.self_s": (summary["self_s"][layer] / n, "s/op")
               for layer in LAYERS}
    metrics.update({
        "hardy.convolve_calls": (calls.get("hardy.convolve_block_columns", 0) / n, "calls/op"),
        "hardy.convolve_flops": (counters.get("hardy.convolve_flops", 0) / n, "flop/op"),
        "linalg.nullspace_calls": (nullspace_calls / n, "calls/op"),
        "linalg.nullspace_noop_ratio": (
            counters.get("linalg.nullspace_noops", 0) / nullspace_calls
            if nullspace_calls else 0.0, "ratio"),
        "linalg.spectral_norm_calls": (calls.get("linalg.spectral_norm", 0) / n, "calls/op"),
        "symbols.eval_points": (calls.get("symbols.eval_symbol", 0) / n, "points/op"),
        "symbols.multiply_calls": (calls.get("symbols.multiply", 0) / n, "calls/op"),
        "serialize.bytes_written": (counters.get("serialize.bytes_written", 0) / n, "B/op"),
        "colligation.tau_evals": (calls.get("colligation.tau_eval", 0) / n, "calls/op"),
        "decomposition.calls": (
            sum(calls.get(f"decomposition.{e}", 0) for e in ENTRY_POINTS) / n, "calls/op"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
    })
    failures = ([{"pass": "untraced", "index": i, "reason": f}
                 for i, (_, f) in enumerate(untraced) if f is not None]
                + [{"pass": "traced", "index": i, "reason": f}
                   for i, (_, f) in enumerate(traced) if f is not None])
    return {
        "workload": workload_name,
        "seed": seed,
        "trace": 1,
        "attempted": 2 * n,
        "failed": len(failures),
        "fail_ratio": len(failures) / (2 * n),
        "repeat_byte_identical": identical,
        "metrics": metrics,
        "ops": n,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "layer_self_sum_s": sum(summary["self_s"].values()),
        "kernels_from_decomposition_share": summary["kernels_from_decomposition_s"] / traced_s,
        "entry_point_calls": {e: calls.get(f"decomposition.{e}", 0) for e in ENTRY_POINTS},
        "counters": counters,
        "calls": calls,
        "spans": summary["spans"],
        "spans_file": os.path.basename(spans_path),
        "setup": timings,
        "warmup_failure": warm_fail,
        "failures": failures,
        "latencies": [{"untraced_s": u, "traced_s": t}
                      for (u, _), (t, _) in zip(untraced, traced)],
        "environment": environment(),
    }
