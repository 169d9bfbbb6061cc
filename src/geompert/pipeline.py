"""Composition of the full expand/verify/sweep pipeline into a Report.

A run goes frame -> generators -> series block -> enabled checks, and only
then touches the filesystem (a failing stage emits no partial output).  The
q = 0 frame (which records the degeneracy threshold), the generators and one
block kernel call for all states (state blocks S^(0..K) and eigenvalue
corrections h^(0..K)) are computed once and passed to the series rows, the
sweep and every check; each exact-diagonalization check makes one sweep for
all states, and no per-state object is built.  This module keeps the gates
and the shape of the report only: the oracle builds every check's sample
grid and owns every noise floor, the contour's radius rule and the window
rule, which every run applies before the frame.  The residual window is its
grid: the check reads the window's ends from the grid's pinned first and
last samples.  Each exact reading covers one quantity: `residual_order`
reads the states, as ray slopes over the window, and `fd_concordance`'s
contour the eigenvalue corrections h^(1..kc).  Every check is one line of
the `_CHECKS` table, in report order; it builds its entry first and decides
from the entry's own values and thresholds, so a reported threshold is the
one applied.  It returns whether
it passed (None when skipped) and its entry, and `run_pipeline` loops the
table and derives every status in one place.  Reports are deterministic for
fixed input and flags; the timestamp and the per-stage timings live in the
metadata block, never in the comparison payload.
Reports are strict JSON, written by one writer with one `isinstance` chain;
a non-finite float raises ValueError rather than being written.  A container
formats its leaves of exact type `float`, `int` and `str` in place, and every
other value goes through the chain.  Each output file is formatted and
encoded before it is opened, so a formatting error leaves it untouched.
sweep.csv, the one large output, is written as the blocks of rows it is
formatted in, never joined, and formats its floats through one vector
kernel, `floattext.g17`, whose bytes are `'%.17g'`'s: it rounds 17 digits in
`long double` and hands every element whose rounding that type cannot decide
(within its error bound of a half, an exact tie, zero, subnormal, not
finite) to `'%.17g'` itself; where `long double` is plain double that is
every element.
series.csv and report.json hold a few hundred floats and stay on `_FLOAT`.
"""

from __future__ import annotations

import datetime
import json
import math
import os
import time
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import __version__, floattext
from .corrections import (
    _all_block,
    _crosscheck,
    _equation_residuals,
    _horner,
    _row_residuals,
    _rs_block,
)
from .errors import GeompertError, PipelineError
from .generators import hierarchy_residuals, solve_generators
from .models import ModelDocument
from .oracle import (_CONTOUR_POINTS, _continued_sweep, _contour_coefficients, _require_window,
                     _residual_grid, _residual_slopes)
from .spectral import _conditioning, eigenframe, is_real, require_count

# the most q samples a command takes, for the verify window and the sweep: each
# sample is one eigensolve, and a sweep writes four numbers per state per sample
MAX_POINTS = 10_000
# the highest series order a run takes, whatever its checks: a cap on a hostile
# order until the run bounds its own work (its stacks grow like K N^2)
MAX_ORDER = 25
# the highest order the residual, contour and gauge checks and the Hermitian check's
# textbook comparison read; its imaginary-part bound reads every order up to K
_CHECK_ORDER = 3


@dataclass(frozen=True, eq=False)
class Report:
    """Machine-readable pipeline result."""

    model: str
    parameters: dict
    frame_summary: dict
    series_rows: list
    checks: dict
    verdict: str
    metadata: dict
    # the sweep's q (Q,), exact values (Q, N) and series residuals (Q, N)
    sweep: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(default=None)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "parameters": self.parameters,
            "frame": self.frame_summary,
            "series": self.series_rows,
            "checks": self.checks,
            "verdict": self.verdict,
            "metadata": self.metadata,
        }


# the one format of every float written: 17 significant digits parse back bit for bit
_FLOAT = "%.17g"
_quote = json.encoder.encode_basestring_ascii  # the escaping of json.dumps


def _json_text(obj, pad: str = "") -> str:
    """JSON with floats rendered to 17 significant digits; `pad` is the
    indentation of the line that holds `obj`.  A non-finite float raises
    ValueError (JSON has no literal for it), and an `int` subclass other than
    `bool` TypeError, as a numpy integer does."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"cannot serialize the non-finite float {obj!r}")
        return _FLOAT % obj
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        items = ",\n".join(
            f"{inner}{_quote(str(k))}: {text}"
            for k, text in zip(obj, _item_texts(obj.values(), inner))
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        return "[\n" + inner + (",\n" + inner).join(_item_texts(obj, inner)) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if type(obj) is int:  # a top-level int: `_item_texts` formats a container's
        return str(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _item_texts(values, pad: str) -> list[str]:
    """The JSON text of each item of a container, in order: a finite `float`,
    an `int` or a `str`, by exact type, is formatted here, and every other
    value by `_json_text`, which raises TypeError on an `int` subclass (`str`
    of an IntEnum member need not be a JSON number) and a numpy integer."""
    return [
        _FLOAT % v if type(v) is float and math.isfinite(v)
        else str(v) if type(v) is int
        else _quote(v) if type(v) is str
        else _json_text(v, pad)
        for v in values
    ]


def report_json(report: Report) -> str:
    return _json_text(report.to_dict()) + "\n"


def series_csv(report: Report) -> str:
    row = f"%d,%d,{_FLOAT},{_FLOAT}"
    lines = ["n,k,re,im"]
    lines.extend(row % (r["n"], r["k"], r["re"], r["im"]) for r in report.series_rows)
    return "\n".join(lines) + "\n"


# the floats of sweep.csv formatted in one kernel call, three a row; at least
# one sample's rows.  Measured on the benchmark's sweep, the kernel is fastest
# near 4 000 a call: smaller blocks pay its fixed cost (about 0.1 ms a call)
# more often, and larger ones allocate arrays that the C allocator maps afresh,
# page by page, on every call
_CSV_BLOCK_VALUES = 4096


def _sweep_csv_blocks(report: Report) -> list:
    """The ASCII bytes of sweep.csv, one bytes-like object per block of rows."""
    if report.sweep is None:
        raise ValueError("report holds no sweep data")
    qs, values, residuals = report.sweep
    count, dim = values.shape
    # a row is led by its newline: the words of q (formatted once per sample,
    # led by "\n"), of ",n" (one word: the dimension is below 10^7) and of the
    # three fields, in a table whose NUL bytes are dropped once per block of rows
    words = floattext.WORDS
    row = 4 * words + 1
    q_texts = (f"\n%-{8 * words - 1}.17g" * count % tuple(qs.tolist())).encode()
    q_texts = np.frombuffer(q_texts.replace(b" ", b"\0"), dtype=floattext.WORD).reshape(count, words)
    states = b"".join((b",%d" % n).ljust(8, b"\0") for n in range(dim))
    states = np.frombuffer(states, dtype=floattext.WORD)
    step = max(1, _CSV_BLOCK_VALUES // (3 * dim))
    blocks = [b"q,n,re,im,residual"]
    for lo in range(0, count, step):
        block = slice(lo, lo + step)
        buf = bytearray(len(qs[block]) * dim * row * floattext.WORD.itemsize)
        table = np.frombuffer(buf, dtype=floattext.WORD).reshape(-1, dim, row)
        table[..., :words] = q_texts[block, None]
        table[..., words] = states
        floattext.g17(
            np.stack((values.real[block], values.imag[block], residuals[block]), axis=-1),
            table[..., words + 1 :].reshape(*table.shape[:2], 3, words),
        )
        blocks.append(buf.translate(None, b"\0"))
    blocks.append(b"\n")
    return blocks


def sweep_csv(report: Report) -> str:
    return str(b"".join(_sweep_csv_blocks(report)), "ascii")


@contextmanager
def _stage(name: str, timings: dict):
    """Tag errors with the stage, record its elapsed ms in `timings`.

    A library error is wrapped in a PipelineError; a ValueError, OSError or
    MemoryError keeps its type and gains a `stage` attribute.
    """
    start = time.perf_counter()
    try:
        yield
    except GeompertError as exc:
        raise PipelineError(name, exc) from exc
    except (ValueError, OSError, MemoryError) as exc:
        exc.stage = name
        raise
    finally:
        timings[name] = (time.perf_counter() - start) * 1e3


def _worst_relative(a: np.ndarray, b: np.ndarray) -> float:
    """Worst max|a - b| per column (along axis -2) over max(1, max|a|) of the column."""
    scale = np.maximum(1.0, np.abs(a).max(axis=-2))
    return float(np.max(np.abs(a - b).max(axis=-2) / scale))


# each check reads the run's values it names, builds its entry and decides from
# the entry's own values and thresholds; it returns (ok, entry), ok None for a
# skipped check, and run_pipeline writes the status in front of the entry's keys
def _check_hierarchy(*, hamiltonian, gens, **_):
    # each order's defect over the size of that order's own terms, floored at 1:
    # |H_a| |K^(l-a)|, |K_1^(l)| and (l+1) |H_(l+1)| in max-norm; a scale shared
    # by all orders is set by the largest terms and hides errors in small ones.
    # Capped at that shared scale, the largest entry of every H_j and K, so
    # that no order's gate is looser than it: products of terms above 1 exceed it
    defects = hierarchy_residuals(hamiltonian, gens)
    k = np.abs(gens._kc).max(axis=(2, 3))  # (2, orders): K_0 and K_1
    sizes = [float(np.abs(term).max()) for term in hamiltonian.terms]
    scale = np.maximum(1.0, k[1])
    k = k.max(axis=0)
    for a, size in enumerate(sizes[: len(defects) + 1]):
        scale[a:] = np.maximum(scale[a:], size * k[: len(defects) - a])
        if a:  # (l+1) |H_(l+1)| at l = a - 1
            scale[a - 1] = max(scale[a - 1], a * size)
    scale = np.minimum(scale, max(1.0, *sizes, float(k.max())))
    order = int(np.argmax(defects / scale))
    entry = {
        "max_residual": float(defects[order]),
        "scale": float(scale[order]),
        "threshold": 1e-11 * float(scale[order]),
        "order": order,
    }
    return entry["max_residual"] <= entry["threshold"], entry


def _check_routes(*, gens, frame, h, order: int, **_):
    # the run's h^(0..K) against the RS recursion in the frame W H_j V: it reads
    # the solve's brackets `gens._hf` but not its recursion, in time linear in K
    rs = _rs_block(gens._hf, frame.eigenvalues, order)
    entry = {
        "eigenvalue_route_deviation": _worst_relative(h, rs),
        "eigenvalue_threshold": 1e-11,
    }
    return entry["eigenvalue_route_deviation"] <= entry["eigenvalue_threshold"], entry


def _check_equation(*, hamiltonian, frame, states, h, **_):
    # two readings: the frame-free residual, and its eigenvalue row on the
    # frame's left eigenvectors, which weighs each h^(k) against its own equation
    full = _equation_residuals(hamiltonian.terms, states, h)
    row = _row_residuals(hamiltonian.terms, frame.left, states, h)
    (order, state), (row_order, row_state) = (
        np.unravel_index(int(np.argmax(r)), r.shape) for r in (full, row)
    )
    entry = {
        "max_relative_residual": float(full[order, state]),
        "threshold": 1e-12,
        "state": int(state),
        "order": int(order),
        "row_relative_residual": float(row[row_order, row_state]),
        "row_threshold": 1e-12,
        "row_state": int(row_state),
        "row_order": int(row_order),
    }
    return (entry["max_relative_residual"] <= entry["threshold"]
            and entry["row_relative_residual"] <= entry["row_threshold"]), entry


def _check_residual_order(*, hamiltonian, frame, states, kc, residual_qs, **_):
    # the window reads the states only, as rays: the contour is h's exact reading
    slopes, floors, blind = _residual_slopes(frame, hamiltonian, states[: kc + 1], residual_qs)
    entry = {
        **({"reason": "window below the noise floor"} if blind else {}),
        "order_checked": kc,
        "threshold": kc + 0.8,
        "ray_slopes": slopes,
        "ray_floors": floors,
        "window": [float(residual_qs[0]), float(residual_qs[-1])],
    }
    # a state without a slope has too few residuals above its noise floor:
    # it is better than required, unless no residual can reach the floor
    low = any(s is not None and s < entry["threshold"] for s in entry["ray_slopes"])
    return "reason" not in entry and not low, entry


def _check_fd(*, hamiltonian, frame, h, kc, **_):
    ref = h[1 : kc + 1]
    coeffs, radius, bar, margin = _contour_coefficients(frame, hamiltonian, h, kc)
    devs = np.abs(coeffs - ref) / np.maximum(1.0, np.abs(ref))
    rows = devs.T.ravel().tolist()  # state-major: row i is n, k - 1 = divmod(i, kc)
    entry = {
        "max_deviation": float(devs.max()),
        "threshold": 1e-5,
        "radius": radius,
        "points": _CONTOUR_POINTS,
        "noise_bar": bar,
        "pair_margin": margin if math.isfinite(margin) else None,  # inf: N = 1 or exact
        "entries": [{"n": i // kc, "k": i % kc + 1, "deviation": d} for i, d in enumerate(rows)],
    }
    return entry["max_deviation"] <= entry["threshold"], entry


def _check_hermitian(*, hamiltonian, frame, h, kc, **_):
    if not hamiltonian.is_hermitian():
        return None, {"reason": "family is not Hermitian"}
    excess = np.abs(h.imag) - (1e-10 * np.abs(h.real) + 1e-12)
    # the run's series against textbook RS in the orthonormal frame V^dagger H_j V
    v = frame.right
    terms = [v.conj().T @ t @ v for t in hamiltonian.terms[1:]]
    textbook = _rs_block(terms, frame.eigenvalues, kc)
    dev = float(np.max(np.abs(h[: kc + 1] - textbook) / np.maximum(1.0, np.abs(textbook))))
    entry = {
        "worst_imag_excess": max(float(excess.max()), 0.0),
        "textbook_deviation": dev,
        "textbook_threshold": 1e-10,
    }
    return (entry["worst_imag_excess"] <= 0.0
            and entry["textbook_deviation"] <= entry["textbook_threshold"]), entry


def _check_linear(*, hamiltonian, gens, **_):
    if hamiltonian.degree != 1:
        return None, {"reason": "family is not linear"}
    result = _crosscheck(gens)
    entry = {
        "max_relative_deviation": result.max_relative_deviation,
        "threshold": result.tolerance,
    }
    return entry["max_relative_deviation"] <= entry["threshold"], entry


def _check_gauge(*, hamiltonian, frame, states, h, kc, **_):
    # the order-kc series reads the generators of orders 0..kc-1 only
    diags = 0.5 * np.exp(1j * np.arange(1, kc * frame.dim + 1)).reshape(kc, frame.dim)
    shifted = solve_generators(hamiltonian, frame, kc - 1, k0_diagonals=diags)
    shifted_states, h_shifted = _all_block(shifted, kc)
    entry = {
        "eigenvalue_deviation": _worst_relative(h[: kc + 1], h_shifted),
        "threshold": 1e-10,
        "state_correction_change": float(np.abs(shifted_states[1] - states[1]).max()),
        "gauge": shifted.gauge,
    }
    return entry["eigenvalue_deviation"] <= entry["threshold"], entry


# every check, in report order
_CHECKS = {
    "hierarchy": _check_hierarchy,
    "route_equivalence": _check_routes,
    "equation_residual": _check_equation,
    "residual_order": _check_residual_order,
    "fd_concordance": _check_fd,
    "hermitian_reduction": _check_hermitian,
    "linear_crosscheck": _check_linear,
    "gauge_invariance": _check_gauge,
}
ALL_CHECKS = frozenset(_CHECKS)
FAST_CHECKS = frozenset({"hierarchy", "route_equivalence", "equation_residual"})


def run_pipeline(
    doc: ModelDocument,
    order: int,
    checks: Iterable[str] = ALL_CHECKS,
    out_dir=None,
    *,
    q_lo: float = 1e-4,
    q_hi: float = 1e-2,
    points: int = 25,
    sweep: tuple[float, int] | None = None,
) -> Report:
    """Run the full pipeline on a model document and return the Report.

    Each input is vetted whatever the checks and held as a plain Python value
    from here on: `order` (a Python or numpy integer) as an int, `checks` (any
    iterable of names, read once; unknown names raise ValueError) as a
    frozenset, `q_lo`, `q_hi` and the sweep's q_max as floats, the counts as ints.
    When `out_dir` is given, report.json and series.csv (plus sweep.csv when
    sweep data was requested) are written there after everything succeeds;
    an `out_dir` that cannot be a directory (it, or its nearest existing
    ancestor, exists and is not one) raises NotADirectoryError before any work.
    An order above MAX_ORDER, more than MAX_POINTS samples in the residual
    window (`points`) or in the sweep, a window that `oracle._require_window`
    rejects (an end that is not a real number, fewer than 5 samples, or fewer
    than 8 to a decade), a `sweep` that is not a (q_max, points) tuple or list
    and a sweep q_max that is not a finite positive real number raise
    ValueError before any work too.
    `metadata["timings"]` holds each stage's elapsed milliseconds.
    """
    order, checks = require_count("order", order), frozenset(checks)
    unknown = checks - ALL_CHECKS
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds {MAX_ORDER}, the highest series order a run takes")
    kc = min(order, _CHECK_ORDER)
    points = _require_points("points", points)
    _require_window((q_lo, q_hi), points, kc)
    q_lo, q_hi = float(q_lo), float(q_hi)
    residual_qs = _residual_grid((q_lo, q_hi), points) if "residual_order" in checks else None
    if out_dir is not None:
        _require_directory(out_dir)
    if sweep is not None:
        if not (isinstance(sweep, (tuple, list)) and len(sweep) == 2):
            raise ValueError(f"sweep must be a (q_max, points) pair, got {sweep!r}")
        if not (is_real(sweep[0]) and 0 < sweep[0] < np.inf):
            raise ValueError(f"sweep q_max must be a finite positive real number, got {sweep[0]!r}")
        sweep = float(sweep[0]), _require_points("sweep points", sweep[1])

    timings: dict[str, float] = {}
    with _stage("validate", timings):
        hamiltonian = doc.to_hamiltonian()
    with _stage("eigenframe", timings):
        frame = eigenframe(hamiltonian.term(0))
    with _stage("generators", timings):
        gens = solve_generators(hamiltonian, frame, max(order, 2))
    with _stage("corrections", timings):
        states, h = _all_block(gens, order)

    run = dict(hamiltonian=hamiltonian, frame=frame, gens=gens, states=states, h=h,
               order=order, kc=kc, residual_qs=residual_qs)
    results: dict[str, dict] = {}
    for name, check in _CHECKS.items():
        if name in checks:  # each check runs in its own stage
            with _stage(f"check:{name}", timings):
                ok, entry = check(**run)
            # the one place a check's status is written
            status = "skipped" if ok is None else "pass" if ok else "fail"
            results[name] = {"status": status, **entry}

    sweep_arrays = None
    if sweep is not None:
        with _stage("sweep", timings):
            qs = np.linspace(0.0, sweep[0], sweep[1])
            curve, _ = _continued_sweep(frame, hamiltonian, qs, False)
            residuals = np.abs(curve.values - _horner(h.T, curve.qs))
            sweep_arrays = (curve.qs, curve.values.T, residuals.T)

    verdict = "fail" if any(r["status"] == "fail" for r in results.values()) else "pass"
    series_rows = [
        {"n": n, "k": k, "re": value.real, "im": value.imag}
        for n, series in enumerate(h.T.tolist())
        for k, value in enumerate(series)
    ]

    report = Report(
        model=doc.name,
        parameters={
            "order": order,
            "gauge": gens.gauge,
            # the window and the sweep are listed only where they are read
            **({"q_lo": q_lo, "q_hi": q_hi, "points": points} if residual_qs is not None else {}),
            **({"sweep": {"q_max": sweep[0], "points": sweep[1]}} if sweep is not None else {}),
            "checks": sorted(checks),
        },
        frame_summary={
            "eigenvalues": [
                [float(e.real), float(e.imag)] for e in frame.eigenvalues
            ],
            # no pair of eigenvalues, no gap
            "min_gap": float(frame.min_gap) if frame.dim > 1 else None,
        },
        series_rows=series_rows,
        checks=results,
        verdict=verdict,
        metadata={
            "tool": f"geompert {__version__}",
            "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "model_metadata": dict(sorted(doc.metadata.items())),
            "frame": _conditioning(frame),
            "timings": timings,
        },
        sweep=sweep_arrays,
    )

    if out_dir is not None:
        with _stage("write", timings):
            _write_outputs(report, out_dir)
    return report


def _require_points(name: str, value) -> int:
    """`value` as an int: an integer from 1 to MAX_POINTS, else ValueError naming `name`."""
    count = require_count(name, value)
    if count > MAX_POINTS:
        raise ValueError(f"{name} must be at most {MAX_POINTS}, got {value!r}")
    return count


def _require_directory(out_dir) -> None:
    """Raise NotADirectoryError unless `out_dir`, or where it does not exist
    yet its nearest existing ancestor, is a directory."""
    path = os.path.abspath(out_dir)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise NotADirectoryError(
            f"output path {str(out_dir)!r} cannot be a directory: {path!r} exists and is not one"
        )


def _write_outputs(report: Report, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name, text in [("report.json", report_json), ("series.csv", series_csv)]:
        data = text(report).encode()  # before the file is opened, and so truncated
        with open(os.path.join(out_dir, name), "wb") as fh:
            fh.write(data)
    if report.sweep is not None:
        blocks = _sweep_csv_blocks(report)  # written as formatted, never joined
        with open(os.path.join(out_dir, "sweep.csv"), "wb") as fh:
            fh.writelines(blocks)
