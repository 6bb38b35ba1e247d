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
import functools
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it.

    ``parse_args`` builds a new namespace on every call, so one parser serves
    any number of ``main`` calls in a process.
    """
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
                      help="number of disc sample points, >= 1 (default 64)")
    p_tr.add_argument("--radius", type=float, default=0.95,
                      help="disc sample radius in [0, 1) (default 0.95)")
    p_tr.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                      help="tolerance of the validation and the transfer "
                           "identities (default %(default)s)")

    p_sc = sub.add_parser("scenario", help="run one or all theorem scenarios")
    p_sc.add_argument("--scenario", default="all",
                      help="scenario id or 'all' (default); known ids: "
                           + ", ".join(sorted(SCENARIOS)))
    p_sc.add_argument("--out", default="scenario-results",
                      help="output directory (default scenario-results)")
    p_sc.add_argument("--seed", type=int, default=None,
                      help="seed override for seeded scenarios")
    return parser


def _config_dict(args, keys) -> dict:
    return {"command": args.command, **{k: getattr(args, k) for k in keys}}


class CommandError(Exception):
    """Ends a command: ``main`` prints the message and returns the exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read(path: str, decode, kind: str):
    """Load a JSON input file and decode it; I/O and format errors exit 1."""
    try:
        raw = load_json(path)
    except (OSError, ValueError) as exc:
        raise CommandError(EXIT_IO, f"cannot read {path}: {exc}") from exc
    try:
        return decode(raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise CommandError(EXIT_IO, f"malformed {kind} file: {exc}") from exc


def _write(path: str, obj) -> None:
    try:
        write_json_atomic(path, obj)
    except (OSError, ValueError) as exc:
        raise CommandError(EXIT_IO, f"cannot write {path}: {exc}") from exc


def cmd_decompose(args) -> int:
    sym = _read(args.input, symbol_from_json, "symbol")
    try:
        report = toeplitz_unitary_part(sym, args.window, args.tol)
    except ValueError as exc:
        raise CommandError(EXIT_DOMAIN, str(exc)) from exc

    config = _config_dict(args, ["input", "window", "tol", "seed"])
    _write(args.out, report_to_json(report, config))

    print(f"classification: {report.classification}")
    print(f"subspace dimension: {report.subspace.dim} "
          f"(window {args.window}, ambient {report.subspace.ambient_dim})")
    if report.theta is not None:
        print(f"inner polynomial: degree {report.theta.band}, "
              f"{report.theta.dim_out}x{report.theta.dim_in}")
        print("residuals: " + " ".join(
            f"{name} {value:.3e}" for name, value in report.residuals.items()))
    print(f"report written to {args.out}")
    if not report.certified_sound:
        worst = max(report.certification.values(), default=0.0)
        print(f"error: certification residual {worst:.3e} exceeds tolerance",
              file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def cmd_transfer(args) -> int:
    try:
        grid = disc_grid(args.grid, args.radius)
    except ValueError as exc:
        raise CommandError(EXIT_DOMAIN, str(exc)) from exc
    w = _read(args.input, colligation_from_json, "colligation")
    rep = validate(w, args.tol)
    if not rep.is_valid:
        raise CommandError(EXIT_DOMAIN, f"colligation is not unitary (residuals "
                           f"{rep.residual_left:.3e}, {rep.residual_right:.3e})")
    tr = defect_identities(w, grid)
    config = _config_dict(args, ["input", "grid", "radius", "tol"])
    _write(args.out, {
        "schema": SCHEMA_VERSION,
        "validation": {"residual_left": rep.residual_left,
                       "residual_right": rep.residual_right},
        "lambda_grid": [{"re": z.real, "im": z.imag} for z in tr.lambda_grid],
        "max_defect1": tr.max_defect1,
        "max_defect2": tr.max_defect2,
        "max_norm": tr.max_norm,
        "config": config,
    })
    print(f"colligation valid (residual {max(rep.residual_left, rep.residual_right):.3e})")
    print(f"defect identities: {tr.max_defect1:.3e} / {tr.max_defect2:.3e}, "
          f"max transfer norm {tr.max_norm:.9f}")
    print(f"report written to {args.out}")
    if tr.max_norm > 1.0 + args.tol or max(tr.max_defect1, tr.max_defect2) > args.tol:
        print("error: transfer identities exceeded tolerance", file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def cmd_scenario(args) -> int:
    names = sorted(SCENARIOS) if args.scenario == "all" else [args.scenario]
    for name in names:
        if name not in SCENARIOS:
            raise CommandError(EXIT_DOMAIN, f"unknown scenario {name!r}; known: "
                               + ", ".join(sorted(SCENARIOS)))

    results = []
    for name in names:
        try:
            result = run_scenario(name, seed=args.seed)
        except ValueError as exc:
            raise CommandError(EXIT_DOMAIN,
                               f"scenario {name} rejected its input: {exc}") from exc
        results.append(result)

    index = {"schema": SCHEMA_VERSION, "results": {}, "all_pass": True}
    for result in results:
        _write(os.path.join(args.out, f"{result.scenario_id}.json"), result.to_json())
        index["results"][result.scenario_id] = bool(result.overall)
        index["all_pass"] = index["all_pass"] and bool(result.overall)
    _write(os.path.join(args.out, "index.json"), index)

    for result in results:
        mark = "PASS" if result.overall else "FAIL"
        print(f"{mark} {result.scenario_id} ({len(result.checks)} checks)")
    print(f"results written to {args.out}")
    return EXIT_OK if index["all_pass"] else EXIT_ASSERTION


COMMANDS = {"decompose": cmd_decompose, "transfer": cmd_transfer,
            "scenario": cmd_scenario}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
