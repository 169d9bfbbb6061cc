"""Spans around calls into each geompert module, recorded from outside it.

`Tracer.install` rebinds public functions to timing wrappers in every
geompert module that holds them (a name imported with `from .x import y`
lives in the importer's namespace too, so each binding is replaced), and
`numpy.linalg.eig`/`eigvals`, which the program looks up at call time.
Each span records name, start, end, parent span and op id, plus a count
taken from the call's arguments where one is defined.  Spans stay in memory
until the run ends; `layer_metrics` turns them into per-op numbers.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import numpy as np


def _words(wp, *_args, **_kwargs):
    return len(wp.words), sum(len(w.letters) for w in wp.words)


def _text_bytes(text, *_args, **_kwargs):
    return len(text), 0


# (module, function, count taken from the arguments or None)
TRACED = (
    ("geompert.cli", "main", None),
    ("geompert.models", "parse_model", _text_bytes),
    ("geompert.models", "builtin_model", None),
    ("geompert.pipeline", "run_pipeline", None),
    ("geompert.pipeline", "report_json", None),
    ("geompert.pipeline", "series_csv", None),
    ("geompert.pipeline", "sweep_csv", None),
    ("geompert.spectral", "eigenframe", None),
    ("geompert.generators", "solve_generators", None),
    ("geompert.generators", "hierarchy_residuals", None),
    ("geompert.corrections", "build_series", None),
    ("geompert.corrections", "state_corrections_recursive", None),
    ("geompert.corrections", "eigenvalue_corrections", None),
    ("geompert.corrections", "state_corrections_bell", None),
    ("geompert.corrections", "eigenvalue_corrections_bell", None),
    ("geompert.corrections", "crosscheck_linear", None),
    ("geompert.bellpoly", "dual_bell_words", None),
    ("geompert.bellpoly", "evaluate_words", _words),
    ("geompert.oracle", "exact_spectrum_sweep", None),
    ("geompert.oracle", "fd_eigenvalue_derivatives", None),
    ("geompert.oracle", "series_residual_order", None),
    ("geompert.oracle", "state_ray_residual", None),
    ("numpy.linalg", "eig", None),
    ("numpy.linalg", "eigvals", None),
)


class Tracer:
    def __init__(self):
        # (name, start, end, parent index or -1, op id, count, count2)
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # reserved so that children can name their parent
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                extra = count(*args, **kwargs) if count else (0, 0)
                spans[index] = (name, start, end, parent, self.op, *extra)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        holders = [
            m for key, m in sys.modules.items()
            if key == "geompert" or key.startswith("geompert.")
        ]
        for module_name, attr, count in TRACED:
            original = getattr(sys.modules[module_name], attr)
            name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
            wrapper = self._wrap(name, original, count)
            targets = [np.linalg] if module_name == "numpy.linalg" else holders
            for module in targets:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._undo):
            setattr(module, key, original)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# metric -> span names whose outermost occurrences are summed (ms) or counted
_TIMES = {
    "bellpoly.eval_ms": ("bellpoly.evaluate_words",),
    "bellpoly.words_ms": ("bellpoly.dual_bell_words",),
    "corrections.bell_route_ms": (
        "corrections.state_corrections_bell",
        "corrections.eigenvalue_corrections_bell",
    ),
    "corrections.series_ms": ("corrections.build_series",),
    "generators.solve_ms": ("generators.solve_generators",),
    "generators.hierarchy_ms": ("generators.hierarchy_residuals",),
    "spectral.eigenframe_ms": ("spectral.eigenframe",),
    "oracle.lapack_ms": ("linalg.eig", "linalg.eigvals"),
    "oracle.ray_ms": ("oracle.state_ray_residual",),
    "oracle.fd_ms": ("oracle.fd_eigenvalue_derivatives",),
    "oracle.slope_ms": ("oracle.series_residual_order",),
    "oracle.sweep_ms": ("oracle.exact_spectrum_sweep",),
    "pipeline.serialize_ms": (
        "pipeline.report_json", "pipeline.series_csv", "pipeline.sweep_csv",
    ),
    "models.parse_ms": ("models.parse_model",),
}
_CALLS = {
    "bellpoly.words_calls": "bellpoly.dual_bell_words",
    "corrections.recursive_calls": "corrections.state_corrections_recursive",
    "generators.solve_calls": "generators.solve_generators",
    "spectral.eigenframe_calls": "spectral.eigenframe",
    "oracle.eig_calls": "linalg.eig",
    "oracle.eigvals_calls": "linalg.eigvals",
}
# metric -> (span name, index of the span's count)
_COUNTS = {
    "bellpoly.words_applied": ("bellpoly.evaluate_words", 0),
    "bellpoly.matvecs": ("bellpoly.evaluate_words", 1),
    "models.bytes_in": ("models.parse_model", 0),
}
_SELF = {"pipeline.self_ms": "pipeline.run_pipeline", "cli.self_ms": "cli.main"}

LAYER_METRICS = tuple(_TIMES) + tuple(_CALLS) + tuple(_COUNTS) + tuple(_SELF)


def layer_metrics(spans) -> dict[int, dict[str, float]]:
    """Per-op layer metrics.  Self time is a span's duration minus its children's."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    per_op: dict[int, dict[str, float]] = {}
    for i, (name, start, end, parent, op, c1, c2) in enumerate(spans):
        row = per_op.setdefault(op, dict.fromkeys(LAYER_METRICS, 0.0))
        for metric, names in _TIMES.items():
            if name in names and not _has_ancestor(spans, parent, names):
                row[metric] += (end - start) * 1e3
        for metric, target in _CALLS.items():
            if name == target:
                row[metric] += 1
        for metric, (target, field) in _COUNTS.items():
            if name == target:
                row[metric] += (c1, c2)[field]
        for metric, target in _SELF.items():
            if name == target:
                row[metric] += (end - start - child_time[i]) * 1e3
    return per_op


def _has_ancestor(spans, parent: int, names) -> bool:
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False
