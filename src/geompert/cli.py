"""Command-line front end.

Commands
--------
geompert expand --model FILE --order K [--gauge zero-diag] --out DIR
    Solve the model and write report.json + series.csv.
geompert verify --model FILE --order K [--q-lo R --q-hi R --points N]
    Run every verification check; report JSON goes to stdout.
geompert sweep --model FILE --q-max R --points N [--order K] --out DIR
    Exact-diagonalization sweep; writes report.json, series.csv, sweep.csv.
geompert models list | export NAME
    Inspect the built-in models.

Exit codes: 0 pass, 1 report verdict fail, 2 bad input (usage, schema,
malformed matrices), 3 degenerate spectrum, 4 numerical/oracle failure.
The GEOMPERT_GAP_TOL environment variable (a decimal string) overrides the
degeneracy threshold; a value that is not finite and positive exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .errors import (
    DegenerateSpectrum,
    GeompertError,
    NonFiniteEntry,
    NonSquare,
    PipelineError,
    SchemaError,
)
from .models import BUILTIN_MODELS, builtin_model, parse_model, serialize_model
from .pipeline import ALL_CHECKS, FAST_CHECKS, report_json, run_pipeline

EXIT_PASS = 0
EXIT_VERDICT_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_NUMERICAL = 4


@cache  # parse_args keeps no state on the parser
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geompert",
        description="Perturbation series for polynomial Hamiltonian families, with oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    expand = sub.add_parser("expand", help="solve a model and emit its series")
    expand.add_argument("--model", required=True, help="model JSON file")
    expand.add_argument("--order", required=True, type=int, help="series order K")
    expand.add_argument("--gauge", default="zero-diag", choices=["zero-diag"])
    expand.add_argument("--out", required=True, help="output directory")

    verify = sub.add_parser("verify", help="run all verification checks")
    verify.add_argument("--model", required=True)
    verify.add_argument("--order", required=True, type=int)
    verify.add_argument("--q-lo", type=float, default=1e-4)
    verify.add_argument("--q-hi", type=float, default=1e-2)
    verify.add_argument("--points", type=int, default=25)

    sweep = sub.add_parser("sweep", help="exact spectrum sweep to CSV")
    sweep.add_argument("--model", required=True)
    sweep.add_argument("--q-max", required=True, type=float)
    sweep.add_argument("--points", required=True, type=int)
    sweep.add_argument("--order", type=int, default=3, help="series order for residual column")
    sweep.add_argument("--out", required=True)

    models = sub.add_parser("models", help="list or export built-in models")
    models.add_argument("action", choices=["list", "export"])
    models.add_argument("name", nargs="?", help="model name (for export)")
    return parser


def _load_model(path: str):
    if path in BUILTIN_MODELS:
        return builtin_model(path)
    with open(path, "rb") as fh:
        return parse_model(fh.read())


def _error_exit(exc: Exception) -> int:
    stage = None
    cause = exc
    if isinstance(exc, PipelineError):
        stage = exc.stage
        cause = exc.cause
    diag = {"error": type(cause).__name__, "message": str(cause)}
    if stage is not None:
        diag["stage"] = stage
    print(json.dumps(diag), file=sys.stderr)
    if isinstance(cause, (SchemaError, NonSquare, NonFiniteEntry)):
        return EXIT_BAD_INPUT
    if isinstance(cause, DegenerateSpectrum):
        return EXIT_DEGENERATE
    return EXIT_NUMERICAL


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "models":
            if args.action == "list":
                for name in BUILTIN_MODELS:
                    print(name)
                return EXIT_PASS
            if not args.name:
                print("models export requires a model name", file=sys.stderr)
                return EXIT_BAD_INPUT
            try:
                doc = builtin_model(args.name)
            except KeyError as exc:
                print(str(exc), file=sys.stderr)
                return EXIT_BAD_INPUT
            sys.stdout.write(serialize_model(doc))
            return EXIT_PASS

        if args.command == "expand":
            doc = _load_model(args.model)
            report = run_pipeline(
                doc, args.order, FAST_CHECKS, args.out, gauge=args.gauge
            )
            return EXIT_PASS if report.passed else EXIT_VERDICT_FAIL

        if args.command == "verify":
            doc = _load_model(args.model)
            report = run_pipeline(
                doc,
                args.order,
                ALL_CHECKS,
                None,
                q_lo=args.q_lo,
                q_hi=args.q_hi,
                points=args.points,
            )
            sys.stdout.write(report_json(report))
            return EXIT_PASS if report.passed else EXIT_VERDICT_FAIL

        if args.command == "sweep":
            doc = _load_model(args.model)
            report = run_pipeline(
                doc,
                args.order,
                FAST_CHECKS,
                args.out,
                sweep=(args.q_max, args.points),
            )
            return EXIT_PASS if report.passed else EXIT_VERDICT_FAIL

        raise AssertionError("unreachable")
    except FileNotFoundError as exc:
        print(json.dumps({"error": "FileNotFound", "message": str(exc)}), file=sys.stderr)
        return EXIT_BAD_INPUT
    except ValueError as exc:
        print(json.dumps({"error": "ValueError", "message": str(exc)}), file=sys.stderr)
        return EXIT_BAD_INPUT
    except GeompertError as exc:
        return _error_exit(exc)


if __name__ == "__main__":
    sys.exit(main())
