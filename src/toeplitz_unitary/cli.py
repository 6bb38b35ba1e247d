"""Command-line front end.

Three commands: ``decompose`` (window decomposition of a symbol file),
``transfer`` (colligation validation and transfer-function identities) and
``scenario`` (run one or all theorem scenarios).  Stdout carries a short human
summary; the JSON files carry the machine-readable truth, with the full
configuration embedded so any report is reproducible from its own contents.

Exit codes: 0 success, 1 I/O or parse error, 2 domain validation failure,
3 internal assertion (a residual exceeded its tolerance where success was
required).
"""

from __future__ import annotations

import argparse
import math
import os
import sys


from .colligation import defect_identities, disc_grid, validate
from .decomposition import toeplitz_unitary_part
from .linalg import DEFAULT_TOL
from .scenarios import SCENARIOS, run_scenario
from .serialize import (
    SCHEMA_VERSION,
    colligation_from_json,
    load_json,
    report_to_json,
    symbol_from_json,
    write_json_atomic,
)
from .symbols import DEFAULT_GRID_SIZE, CircleGrid

EXIT_OK = 0
EXIT_IO = 1
EXIT_DOMAIN = 2
EXIT_ASSERTION = 3


def _tolerance(text: str) -> float:
    """Argument type of ``--tol``: a finite float > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and > 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toeplitz-unitary",
        description="Unitary-part computations for block Toeplitz operators "
                    "on truncated vector-valued Hardy spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser(
        "decompose",
        help="window unitary/c.n.u. decomposition of a contractive symbol",
    )
    p_dec.add_argument("--input", required=True, help="symbol JSON file")
    p_dec.add_argument("--out", required=True, help="report JSON output path")
    p_dec.add_argument("--window", type=int, default=8,
                       help="degree window size N (default 8)")
    p_dec.add_argument("--grid", type=int, default=DEFAULT_GRID_SIZE,
                       help="circle grid size (default %(default)s)")
    p_dec.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                       help="classification tolerance (default %(default)s)")
    p_dec.add_argument("--seed", type=int, default=0,
                       help="seed recorded in the report (default 0)")

    p_tr = sub.add_parser(
        "transfer",
        help="validate a colligation and check the transfer-function identities",
    )
    p_tr.add_argument("--input", required=True, help="colligation JSON file")
    p_tr.add_argument("--out", required=True, help="report JSON output path")
    p_tr.add_argument("--grid", type=int, default=64,
                      help="number of disc sample points (default 64)")
    p_tr.add_argument("--radius", type=float, default=0.95,
                      help="disc sample radius < 1 (default 0.95)")
    p_tr.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                      help="validation tolerance (default %(default)s)")

    p_sc = sub.add_parser("scenario", help="run one or all theorem scenarios")
    p_sc.add_argument("--scenario", default="all",
                      help="scenario id or 'all' (default); known ids: "
                           + ", ".join(sorted(SCENARIOS)))
    p_sc.add_argument("--out", default="scenario-results",
                      help="output directory (default scenario-results)")
    p_sc.add_argument("--seed", type=int, default=None,
                      help="seed override for seeded scenarios")
    p_sc.add_argument("--window", type=int, default=None,
                      help="window override for windowed scenarios")
    p_sc.add_argument("--tol", type=_tolerance, default=None,
                      help="tolerance override")
    return parser


def _config_dict(args, keys) -> dict:
    return {"command": args.command,
            **{k: getattr(args, k) for k in keys if getattr(args, k) is not None}}


def cmd_decompose(args) -> int:
    if args.window < 1 or args.grid < 1:
        print("error: window and grid must be positive", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        raw = load_json(args.input)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        sym = symbol_from_json(raw)
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: malformed symbol file: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        report = toeplitz_unitary_part(sym, args.window, args.tol,
                                       grid=CircleGrid(args.grid))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN

    config = _config_dict(args, ["input", "window", "grid", "tol", "seed"])
    obj = report_to_json(report, config)
    try:
        write_json_atomic(args.out, obj)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO

    print(f"classification: {report.classification}")
    print(f"subspace dimension: {report.subspace.dim} "
          f"(window {args.window}, ambient {report.subspace.ambient_dim})")
    if report.theta is not None:
        print(f"inner polynomial: degree {report.theta.degree}, "
              f"{report.theta.dim_out}x{report.theta.dim_in}")
        print(f"residuals: fwd {report.residual_intertwine_fwd:.3e} "
              f"adj {report.residual_intertwine_adj:.3e} "
              f"inner {report.residual_inner:.3e}")
    print(f"report written to {args.out}")
    if not report.certified_sound:
        worst = max(report.certification.values(), default=0.0)
        print(f"error: certification residual {worst:.3e} exceeds tolerance",
              file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def cmd_transfer(args) -> int:
    if not 0 <= args.radius < 1 or args.grid < 1:
        print("error: need 0 <= radius < 1, grid >= 1", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        raw = load_json(args.input)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        w = colligation_from_json(raw)
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: malformed colligation file: {exc}", file=sys.stderr)
        return EXIT_IO

    rep = validate(w, args.tol)
    if not rep.is_valid:
        print(f"error: colligation is not unitary "
              f"(residuals {rep.residual_left:.3e}, {rep.residual_right:.3e})",
              file=sys.stderr)
        return EXIT_DOMAIN

    grid = disc_grid(args.grid, args.radius)
    tr = defect_identities(w, grid)
    config = _config_dict(args, ["input", "grid", "radius", "tol"])
    obj = {
        "schema": SCHEMA_VERSION,
        "validation": {"residual_left": rep.residual_left,
                       "residual_right": rep.residual_right},
        "lambda_grid": [{"re": z.real, "im": z.imag} for z in tr.lambda_grid],
        "max_defect1": tr.max_defect1,
        "max_defect2": tr.max_defect2,
        "max_norm": tr.max_norm,
        "config": config,
    }
    try:
        write_json_atomic(args.out, obj)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"colligation valid (residual {max(rep.residual_left, rep.residual_right):.3e})")
    print(f"defect identities: {tr.max_defect1:.3e} / {tr.max_defect2:.3e}, "
          f"max transfer norm {tr.max_norm:.9f}")
    print(f"report written to {args.out}")
    if tr.max_norm > 1.0 + args.tol or max(tr.max_defect1, tr.max_defect2) > 1e-8:
        print("error: transfer identities exceeded tolerance", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def cmd_scenario(args) -> int:
    names = sorted(SCENARIOS) if args.scenario == "all" else [args.scenario]
    for name in names:
        if name not in SCENARIOS:
            print(f"error: unknown scenario {name!r}; known: "
                  + ", ".join(sorted(SCENARIOS)), file=sys.stderr)
            return EXIT_DOMAIN

    results = []
    for name in names:
        try:
            result = run_scenario(name, seed=args.seed, window=args.window,
                                  tol=args.tol)
        except ValueError as exc:
            print(f"error: scenario {name} rejected its input: {exc}",
                  file=sys.stderr)
            return EXIT_DOMAIN
        results.append(result)

    index = {"schema": SCHEMA_VERSION, "results": {}, "all_pass": True}
    try:
        for result in results:
            path = os.path.join(args.out, f"{result.scenario_id}.json")
            write_json_atomic(path, result.to_json())
            index["results"][result.scenario_id] = bool(result.overall)
            index["all_pass"] = index["all_pass"] and bool(result.overall)
        write_json_atomic(os.path.join(args.out, "index.json"), index)
    except OSError as exc:
        print(f"error: cannot write results: {exc}", file=sys.stderr)
        return EXIT_IO

    for result in results:
        mark = "PASS" if result.overall else "FAIL"
        print(f"{mark} {result.scenario_id} ({len(result.checks)} checks)")
    print(f"results written to {args.out}")
    return EXIT_OK if index["all_pass"] else EXIT_ASSERTION


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "decompose":
        return cmd_decompose(args)
    if args.command == "transfer":
        return cmd_transfer(args)
    return cmd_scenario(args)


if __name__ == "__main__":
    sys.exit(main())
