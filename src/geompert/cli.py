"""Command-line front end.

Commands
--------
geompert expand --model FILE --order K --out DIR
    Solve the model and write report.json + series.csv.
geompert verify --model FILE --order K [--q-lo R --q-hi R --points N]
    Run every verification check; report JSON goes to stdout.
geompert sweep --model FILE --q-max R --points N [--order K] --out DIR
    Exact-diagonalization sweep; writes report.json, series.csv, sweep.csv.
geompert models list | export NAME
    Inspect the built-in models.

Exit codes: 0 pass, 1 report verdict fail, 2 bad input (usage, schema,
malformed matrices, a model or output path that cannot be read or written,
a missing or unknown `models export` name, a request too large to
allocate), 3 degenerate spectrum, 4 numerical/oracle failure.  Every
failure but a usage error prints one JSON line to stderr (`_fail`), with
the stage of one raised inside a stage, and the sample q of a degenerate
spectrum or an ambiguous pairing.
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


def _export(name: str | None) -> str:
    """The JSON text of a built-in model; a missing or unknown name is a ValueError."""
    if not name:
        raise ValueError("models export requires a model name")
    try:
        return serialize_model(builtin_model(name))
    except KeyError as exc:  # only the name lookup raises it here
        raise ValueError(exc.args[0]) from None


# exit code and diagnostic `error` name by exception class (of a PipelineError,
# its cause): the first row that matches applies; None is the class's own name
_FAILURES = {
    FileNotFoundError: (EXIT_BAD_INPUT, "FileNotFound"),
    OSError: (EXIT_BAD_INPUT, None),  # reading the model, creating or writing the output
    ValueError: (EXIT_BAD_INPUT, "ValueError"),
    MemoryError: (EXIT_BAD_INPUT, "MemoryError"),  # a request too large to allocate
    (SchemaError, NonSquare, NonFiniteEntry): (EXIT_BAD_INPUT, None),
    DegenerateSpectrum: (EXIT_DEGENERATE, None),
    GeompertError: (EXIT_NUMERICAL, None),
}


def _fail(exc: Exception) -> int:
    """Print the one-line JSON diagnostic of a failure; return its exit code."""
    stage = getattr(exc, "stage", None)
    cause = exc.cause if isinstance(exc, PipelineError) else exc
    code, name = next(row for cls, row in _FAILURES.items() if isinstance(cause, cls))
    diag = {"error": name or type(cause).__name__, "message": str(cause)}
    if stage is not None:
        diag["stage"] = stage
    q = getattr(cause, "q", None)  # where a DegenerateSpectrum or PairingAmbiguous was found
    if q is not None:
        diag["q"] = q
    print(json.dumps(diag), file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "models":
            if args.action == "list":
                for name in BUILTIN_MODELS:
                    print(name)
            else:
                sys.stdout.write(_export(args.name))
            return EXIT_PASS

        verify = args.command == "verify"
        window = {"q_lo": args.q_lo, "q_hi": args.q_hi, "points": args.points} if verify else {}
        report = run_pipeline(
            _load_model(args.model),
            args.order,
            ALL_CHECKS if verify else FAST_CHECKS,
            None if verify else args.out,
            sweep=(args.q_max, args.points) if args.command == "sweep" else None,
            **window,
        )
        if verify:
            sys.stdout.write(report_json(report))
        return EXIT_PASS if report.passed else EXIT_VERDICT_FAIL
    except (OSError, ValueError, MemoryError, GeompertError) as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
