"""The three benchmark workloads: CLI commands with answers known in advance.

One operation is one ``toeplitz-unitary`` command run in-process through
``cli.main``.  A workload is a list of variants; each variant is one pass of
commands, and passes cycle through the variants.  Inputs come from the
workload seed alone.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import inputs


@dataclass(frozen=True)
class Op:
    """One CLI command, where it writes, and how its output is checked."""

    argv: tuple
    output: str
    check: Callable[[], str | None]

    def with_output(self, output: str) -> "Op":
        argv = list(self.argv)
        argv[argv.index("--out") + 1] = output
        return Op(tuple(argv), output, self.check)


@dataclass(frozen=True)
class Workload:
    name: str
    make_variants: Callable[[int, str], list]
    # passes run untraced and then traced in a --trace 1 run
    trace_passes: int
    # seconds one pass takes at the nominal host speed (harness.HostSpeed) on a
    # 2-vCPU x86-64 host with one BLAS thread
    pass_s: float
    # whether end-to-end times are scaled to the nominal host speed; see WORKLOADS
    host_scaled: bool

    def passes_for(self, seconds: float) -> int:
        """Passes in a run of about ``seconds`` at the nominal pass time.

        A fixed count rather than a time limit, so that every run of a seed
        does the same commands and reports the same failures.
        """
        return max(1, round(seconds / self.pass_s))


def _decompose_ops(cases_per_variant, seed: int, workdir: str) -> list:
    variants = []
    for v, cases in enumerate(cases_per_variant):
        ops = []
        for i, case in enumerate(cases):
            symbol = os.path.join(workdir, "in", f"v{v}_{i}_{case.name}.json")
            report = os.path.join(workdir, "out", f"v{v}_{i}_{case.name}.json")
            inputs.write_symbol(case, symbol)
            argv = ("decompose", "--input", symbol, "--out", report,
                    "--window", str(case.window), "--seed", str(seed))
            ops.append(Op(argv, report, _report_check(report, case)))
        variants.append(ops)
    return variants


def _report_check(path: str, case) -> Callable[[], str | None]:
    def check():
        with open(path) as fh:
            return inputs.check_report(json.load(fh), case)
    return check


# Colligations use the full projection rank d1 = 2.  With rank 1 some seeds
# give an ``extraction_inconclusive`` report, at times with too small a
# subspace, and a workload must not fail on some seeds and pass on others;
# test_benchmark.py keeps one such rank-1 input as an expected failure.
COLLIGATION_RANK = 2


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload))])


def large_variants(seed: int, workdir: str) -> list:
    """Two passes of 39 decompositions in three window tiers.

    Per pass: ten commands of each smallest window (d=4 w=8, d=2 w=16,
    colligation w=16), two of each middle window (12, 24, 24) and one of each
    largest (16, 32, 32), so each tier takes about a third of the time.
    Command latencies drift by 20% or more on a shared machine; the many
    short commands give the latency quantiles enough samples, and with fewer
    than ten longer commands the tail percentile stays among them.
    """
    rng = _rng(seed, "decompose-large")

    def family(k: int, window: int):
        if k == 0:
            return inputs.planted_case(rng, 2, 2, window)
        if k == 1:
            return inputs.planted_case(rng, 1, 1, window)
        return inputs.colligation_case(rng, 1, 2, window, rank=COLLIGATION_RANK)

    small, middle, large = (8, 16, 16), (12, 24, 24), (16, 32, 32)
    variants = []
    for _ in range(2):
        cases = []
        for k, rounds in enumerate((4, 3, 3)):
            cases += [family(j, small[j]) for _ in range(rounds) for j in range(3)]
            cases += [family(k, middle[k]) for _ in range(2)]
            cases.append(family(k, large[k]))
        variants.append(cases)
    return _decompose_ops(variants, seed, workdir)


def small_variants(seed: int, workdir: str) -> list:
    """Four passes of 25 small decompositions (scalar, swap, colligation)."""
    rng = _rng(seed, "decompose-small")
    variants = []
    for _ in range(4):
        cases = [inputs.scalar_case(rng, w) for w in range(4, 13)]
        cases += [inputs.swap_case(rng, w) for w in range(4, 17)]
        cases += [inputs.colligation_case(rng, 1, 2, w, rank=COLLIGATION_RANK)
                  for w in (4, 5, 6)]
        variants.append(cases)
    return _decompose_ops(variants, seed, workdir)


SCENARIO_SEEDS_PER_RUN = 64
# Scenario seeds 0 .. 255 all pass every scenario.  Some other seeds fail
# prop_ds (43010: the window part misses the planted block by 1.7e-6, as with
# rank-1 colligation inputs), and a workload must not fail on some benchmark
# seeds and pass on others.
SCENARIO_SEED_POOL = 256


def scenario_variants(seed: int, workdir: str) -> list:
    """One ``scenario all`` command per pass, on 64 scenario seeds drawn
    without replacement from 0 .. SCENARIO_SEED_POOL - 1."""
    pool = _rng(seed, "scenario-sweep").permutation(SCENARIO_SEED_POOL)
    variants = []
    for i, scenario_seed in enumerate(pool[:SCENARIO_SEEDS_PER_RUN]):
        out = os.path.join(workdir, "out", f"s{i}")
        argv = ("scenario", "--scenario", "all", "--seed", str(scenario_seed), "--out", out)
        variants.append([Op(argv, out, _scenario_check(out))])
    return variants


def _scenario_check(out: str) -> Callable[[], str | None]:
    def check():
        with open(os.path.join(out, "index.json")) as fh:
            index = json.load(fh)
        failed = sorted(k for k, ok in index["results"].items() if not ok)
        if failed or not index["all_pass"]:
            return "scenarios failed: " + ", ".join(failed)
        if len(index["results"]) != 9:
            return f"{len(index['results'])} scenario results, expected 9"
        return None
    return check


# The reference kernel tracks the interpreter-bound commands of
# decompose-small and scenario-sweep: over ten seeds, scaling cut their
# IQR/median spreads from 0.06-0.09 to 0.03-0.07, and unscaled spreads reached
# 0.21-0.36 in busier hours.  It does not track the dense numpy work of
# decompose-large, whose op_s_tail spread it raised (0.07 to 0.16, and 0.12 to
# 0.20), so those times stay unscaled.
WORKLOADS = {
    w.name: w for w in (
        Workload("decompose-large", large_variants, trace_passes=1, pass_s=34.0,
                 host_scaled=False),
        Workload("decompose-small", small_variants, trace_passes=1, pass_s=2.0,
                 host_scaled=True),
        Workload("scenario-sweep", scenario_variants, trace_passes=3, pass_s=0.86,
                 host_scaled=True),
    )
}
