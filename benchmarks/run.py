"""Benchmark of the ``toeplitz-unitary`` CLI, one workload per run.

Run from the repository root:

    python3 benchmarks/run.py --workload decompose-large --seed 0 --seconds 30 --trace 0

Workloads: decompose-large, decompose-small, scenario-sweep (see
``workloads.py`` and ``README.md``).  ``--trace 0`` measures the end-to-end
metrics with tracing off, with times of the interpreter-bound workloads
scaled to a nominal host speed (see ``harness.HostSpeed``); ``--trace 1`` runs a fixed set of commands once
untraced and once traced and reports the per-layer metrics.  Every metric is
printed with its unit, the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, and the full results are
written to ``benchmarks/results/``.

``failed`` counts commands that exited non-zero, raised, or gave an answer
other than the one known by construction; ``fail_ratio`` is failed /
attempted.  ``correct`` is false when outputs could not be verified: a
command that produced no checkable output, or a repeated command whose
report bytes differ.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
# the keys of workloads.WORKLOADS, which imports numpy and so must wait until
# the BLAS thread variables are set
WORKLOAD_NAMES = ("decompose-large", "decompose-small", "scenario-sweep")
# one BLAS thread: runs are steadier and never oversubscribe the CPUs
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "toeplitz_unitary", "__init__.py")):
        print(f"error: no package source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import harness
    from toeplitz_unitary import cli

    os.makedirs(RESULTS_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    workdir = os.path.join(RESULTS_DIR, f"work-{tag}-{os.getpid()}")
    try:
        if args.trace:
            result = harness.run_traced(cli, args.workload, args.seed, ROOT, workdir,
                                        os.path.join(RESULTS_DIR, f"{tag}-spans.npz"))
        else:
            result = harness.run_untraced(cli, args.workload, args.seed, args.seconds,
                                          ROOT, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    unverifiable = [f for f in result["failures"]
                    if f["reason"].startswith(harness.UNREADABLE)]
    correct = not unverifiable and result["repeat_byte_identical"]
    result["correct"] = correct
    name = f"{tag}-{'traced' if args.trace else 'untraced'}.json"
    with open(os.path.join(RESULTS_DIR, name), "w") as fh:
        json.dump(result, fh, indent=1, default=str)

    for key, (value, unit) in result["metrics"].items():
        print(f"{key}: {value!r} {unit}")
    print(f"fail_ratio: {result['fail_ratio']!r} ({result['failed']} of "
          f"{result['attempted']} commands)")
    if "tail" in result:
        tail = result["tail"]
        print(f"op_s_tail is p{tail['percentile']} of {tail['samples']} samples "
              f"({tail['beyond']} beyond)")
        speed = result["host_speed"]
        print(f"times above are scaled by {speed['scale']!r}: reference kernel "
              f"{speed['kernel_s_median']!r} s here (median of {speed['kernel_runs']}), "
              f"{speed['nominal_kernel_s']} s nominal")
        for key, value in result["unscaled_metrics"].items():
            print(f"unscaled {key}: {value!r}")
    for failure in result["failures"]:
        print(f"failed: {failure}")
    print(f"environment: {json.dumps(result['environment'])}")
    print(f"results: {os.path.relpath(os.path.join(RESULTS_DIR, name), ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
