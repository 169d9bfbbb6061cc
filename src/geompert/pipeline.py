"""Composition of the full expand/verify/sweep pipeline into a Report.

A run goes frame -> generators -> series block -> enabled checks, and only
then touches the filesystem (a failing stage emits no partial output).  The
q = 0 frame, the degeneracy threshold, the generators and one block kernel
call for all states (state blocks S^(0..K) and eigenvalue corrections
h^(0..K)) are computed once and passed to the series rows, the sweep and
every check; each exact-diagonalization check makes one sweep for all
states, and no per-state object is built.  Reports are deterministic for
fixed input and flags; the timestamp and the per-stage timings live in the
metadata block, never in the comparison payload.
"""

from __future__ import annotations

import datetime
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .corrections import (
    _all_block,
    _bell_block,
    _crosscheck,
    _horner,
    _rs_closed_forms,
    _series_block,
)
from .errors import GeompertError, PipelineError, ResidualUnderflow
from .generators import hierarchy_residuals, solve_generators
from .models import ModelDocument
from .oracle import (
    _FD_STEP,
    RAY_FLOOR,
    RESIDUAL_FLOOR,
    _continued_sweep,
    _fd_block,
    _fd_grid,
    _fit_above_floor,
    _ray_residual_block,
    _value_residual_block,
)
from .spectral import double_bracket, eigenframe, resolve_gap_tol

ALL_CHECKS = frozenset(
    {
        "hierarchy",
        "route_equivalence",
        "residual_order",
        "fd_concordance",
        "hermitian_reduction",
        "linear_crosscheck",
        "gauge_invariance",
    }
)
FAST_CHECKS = frozenset({"hierarchy", "route_equivalence"})

_GAUGE_SEED = 20210707


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


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _json_text(obj, level: int = 0) -> str:
    """JSON with floats rendered to 17 significant digits."""
    pad = "  " * level
    inner = "  " * (level + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(inner + _json_text(v, level + 1) for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {_json_text(v, level + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def report_json(report: Report) -> str:
    return _json_text(report.to_dict()) + "\n"


def series_csv(report: Report) -> str:
    lines = ["n,k,re,im"]
    for row in report.series_rows:
        lines.append(f"{row['n']},{row['k']},{_fmt(row['re'])},{_fmt(row['im'])}")
    return "\n".join(lines) + "\n"


def sweep_csv(report: Report) -> str:
    if report.sweep is None:
        raise ValueError("report holds no sweep data")
    qs, values, residuals = report.sweep
    lines = ["q,n,re,im,residual"]
    for q, re, im, res in zip(
        qs.tolist(), values.real.tolist(), values.imag.tolist(), residuals.tolist()
    ):
        row = _fmt(q) + ",%d,%.17g,%.17g,%.17g"  # the same digits as _fmt
        lines.extend(row % cols for cols in zip(range(len(re)), re, im, res))
    return "\n".join(lines) + "\n"


@contextmanager
def _stage(name: str, timings: dict):
    """Tag library errors with the stage; record its elapsed ms in `timings`."""
    start = time.perf_counter()
    try:
        yield
    except GeompertError as exc:
        raise PipelineError(name, exc) from exc
    finally:
        timings[name] = (time.perf_counter() - start) * 1e3


def _worst_relative(a: np.ndarray, b: np.ndarray) -> float:
    """Worst max|a - b| per column (along axis -2) over max(1, max|a|) of the column."""
    scale = np.maximum(1.0, np.abs(a).max(axis=-2))
    return float(np.max(np.abs(a - b).max(axis=-2) / scale))


def _check_hierarchy(hamiltonian, gens) -> dict:
    residuals = hierarchy_residuals(hamiltonian, gens)
    matrices = (*hamiltonian.terms, *gens.k0, *gens.k1)
    scale = max([1.0] + [float(np.abs(m).max()) for m in matrices])
    worst = float(residuals.max())
    ok = worst <= 1e-11 * scale
    return {
        "status": "pass" if ok else "fail",
        "max_residual": worst,
        "scale": scale,
        "threshold": 1e-11 * scale,
    }


def _check_routes(gens, states, h, order: int) -> dict:
    cols = np.arange(gens.frame.dim)
    bell, hb = _series_block(gens, cols, order, _bell_block(gens, cols, order))
    state_dev = _worst_relative(states, bell)
    value_dev = _worst_relative(h, hb)
    ok = state_dev <= 1e-12 and value_dev <= 1e-11
    return {
        "status": "pass" if ok else "fail",
        "state_route_deviation": state_dev,
        "state_threshold": 1e-12,
        "eigenvalue_route_deviation": value_dev,
        "eigenvalue_threshold": 1e-11,
    }


def _slope_or_none(qs, residual, floor):
    try:
        return _fit_above_floor(qs, residual, floor)
    except ResidualUnderflow:
        return None  # below the noise floor everywhere: better than required


def _check_residual_order(
    hamiltonian, frame, states, h, order, q_lo, q_hi, points, gap_tol
) -> dict:
    kc = min(order, 3)
    qs = np.logspace(np.log10(q_lo), np.log10(q_hi), points)
    curve, vectors = _continued_sweep(frame, hamiltonian, qs, gap_tol, True)
    corrections = states[: kc + 1].transpose(2, 0, 1)  # (state, k, component)
    rays = _ray_residual_block(vectors, corrections, curve.qs)
    threshold = kc + 0.8
    window_qs, residuals = _value_residual_block(
        curve.qs, curve.values, h[: kc + 1].T, (q_lo, q_hi)
    )
    value_slopes = [_slope_or_none(window_qs, r, RESIDUAL_FLOOR) for r in residuals]
    ray_slopes = [_slope_or_none(curve.qs, r, RAY_FLOOR) for r in rays]
    ok = not any(s is not None and s < threshold for s in value_slopes + ray_slopes)
    return {
        "status": "pass" if ok else "fail",
        "order_checked": kc,
        "threshold": threshold,
        "eigenvalue_slopes": value_slopes,
        "ray_slopes": ray_slopes,
        "window": [q_lo, q_hi],
    }


def _check_fd(hamiltonian, frame, h, order, gap_tol) -> dict:
    ks = range(1, min(order, 3) + 1)
    grid = _fd_grid(_FD_STEP, ks)
    curve, _ = _continued_sweep(frame, hamiltonian, grid, gap_tol, False)
    estimates = {k: _fd_block(curve, _FD_STEP, k) for k in ks}
    rows = []
    for n in range(frame.dim):
        for k in ks:
            ref = complex(h[k, n])
            dev = abs(complex(estimates[k][n]) - ref) / max(1.0, abs(ref))
            rows.append({"n": n, "k": k, "deviation": dev})
    worst = max([0.0] + [row["deviation"] for row in rows])
    ok = worst <= 1e-5
    return {
        "status": "pass" if ok else "fail",
        "max_deviation": worst,
        "threshold": 1e-5,
        "entries": rows,
    }


def _check_hermitian(hamiltonian, frame, h) -> dict:
    if not hamiltonian.is_hermitian():
        return {"status": "skipped", "reason": "family is not Hermitian"}
    excess = np.abs(h.imag) - (1e-10 * np.abs(h.real) + 1e-12)
    ok = bool(np.all(excess <= 0))
    detail = {"worst_imag_excess": max(float(excess.max()), 0.0)}
    if hamiltonian.degree == 1:
        # orthonormal-frame reduction: the closed forms evaluated with the
        # conjugate-transpose frame must match the biorthogonal ones
        v, h1, h = frame.right, hamiltonian.term(1), frame.eigenvalues
        ortho = _rs_closed_forms(v.conj().T @ h1 @ v, h)
        ref = _rs_closed_forms(double_bracket(frame, h1), h)
        dev = float(np.max(np.abs(ortho - ref) / np.maximum(1.0, np.abs(ref))))
        detail["textbook_deviation"] = dev
        detail["textbook_threshold"] = 1e-10
        if dev > 1e-10:
            ok = False
    return {"status": "pass" if ok else "fail", **detail}


def _check_linear(hamiltonian, gens) -> dict:
    if hamiltonian.degree != 1:
        return {"status": "skipped", "reason": "family is not linear"}
    result = _crosscheck(gens, hamiltonian.term(1), tolerance=1e-10)
    return {
        "status": "pass" if result.passed else "fail",
        "max_relative_deviation": result.max_relative_deviation,
        "threshold": result.tolerance,
    }


def _check_gauge(hamiltonian, frame, states, h, order) -> dict:
    # the order-kc series reads the generators of orders 0..kc-1 only
    kc = min(order, 3)
    rng = np.random.default_rng(_GAUGE_SEED)
    diags = [
        0.5 * (rng.standard_normal(frame.dim) + 1j * rng.standard_normal(frame.dim))
        for _ in range(kc)
    ]
    shifted = solve_generators(hamiltonian, frame, kc - 1, k0_diagonals=diags)
    shifted_states, h_shifted = _all_block(shifted, kc)
    value_dev = _worst_relative(h[: kc + 1], h_shifted)
    state_change = float(np.abs(shifted_states[1] - states[1]).max())
    ok = value_dev <= 1e-10
    return {
        "status": "pass" if ok else "fail",
        "eigenvalue_deviation": value_dev,
        "threshold": 1e-10,
        "state_correction_change": state_change,
        "gauge": shifted.gauge,
    }


def _require_count(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def run_pipeline(
    doc: ModelDocument,
    order: int,
    checks: frozenset[str] | set[str] = ALL_CHECKS,
    out_dir=None,
    *,
    gauge: str = "zero-diag",
    q_lo: float = 1e-4,
    q_hi: float = 1e-2,
    points: int = 25,
    sweep: tuple[float, int] | None = None,
    gap_tol: float | None = None,
) -> Report:
    """Run the full pipeline on a model document and return the Report.

    `checks` selects the verification steps; unknown names raise ValueError.
    When `out_dir` is given, report.json and series.csv (plus sweep.csv when
    sweep data was requested) are written there after everything succeeds.
    `metadata["timings"]` holds each stage's elapsed milliseconds.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if gauge != "zero-diag":
        raise ValueError(f"unsupported gauge {gauge!r}")
    unknown = set(checks) - ALL_CHECKS
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    if "residual_order" in checks and not 0 < q_lo < q_hi < np.inf:
        raise ValueError(
            f"residual window must satisfy finite 0 < q_lo < q_hi, "
            f"got q_lo = {q_lo!r}, q_hi = {q_hi!r}"
        )
    if "residual_order" in checks:
        _require_count("points", points)
        decades = np.log10(q_hi) - np.log10(q_lo)
        if points / decades < 8.0 - 1e-9:
            raise ValueError(
                f"residual_order needs at least 8 points per decade of the window: "
                f"points = {points} over q_lo = {q_lo!r} to q_hi = {q_hi!r} "
                f"({decades:.3g} decades)"
            )
    if sweep is not None:
        if not 0 < sweep[0] < np.inf:
            raise ValueError(f"sweep q_max must be finite and positive, got {sweep[0]!r}")
        _require_count("sweep points", sweep[1])

    timings: dict[str, float] = {}
    with _stage("validate", timings):
        hamiltonian = doc.to_hamiltonian()
    with _stage("eigenframe", timings):
        tol = resolve_gap_tol(gap_tol)
        frame = eigenframe(hamiltonian.term(0), gap_tol=tol)
    with _stage("generators", timings):
        gens = solve_generators(hamiltonian, frame, max(order, 2))
    with _stage("corrections", timings):
        states, h = _all_block(gens, order)

    # in report order; each check runs in its own stage
    steps = {
        "hierarchy": lambda: _check_hierarchy(hamiltonian, gens),
        "route_equivalence": lambda: _check_routes(gens, states, h, order),
        "residual_order": lambda: _check_residual_order(
            hamiltonian, frame, states, h, order, q_lo, q_hi, points, tol
        ),
        "fd_concordance": lambda: _check_fd(hamiltonian, frame, h, order, tol),
        "hermitian_reduction": lambda: _check_hermitian(hamiltonian, frame, h),
        "linear_crosscheck": lambda: _check_linear(hamiltonian, gens),
        "gauge_invariance": lambda: _check_gauge(hamiltonian, frame, states, h, order),
    }
    results: dict[str, dict] = {}
    for name, check in steps.items():
        if name in checks:
            with _stage(f"check:{name}", timings):
                results[name] = check()

    sweep_arrays = None
    if sweep is not None:
        with _stage("sweep", timings):
            qs = np.linspace(0.0, float(sweep[0]), sweep[1])
            curve, _ = _continued_sweep(frame, hamiltonian, qs, tol, False)
            residuals = np.abs(curve.values - _horner(h.T, curve.qs))
            sweep_arrays = (curve.qs, curve.values.T, residuals.T)

    verdict = "fail" if any(r["status"] == "fail" for r in results.values()) else "pass"
    series_rows = [
        {"n": n, "k": k, "re": float(value.real), "im": float(value.imag)}
        for n, series in enumerate(h.T)
        for k, value in enumerate(series)
    ]

    report = Report(
        model=doc.name,
        parameters={
            "order": order,
            "gauge": gauge,
            "q_lo": float(q_lo),
            "q_hi": float(q_hi),
            "points": int(points),
            "checks": sorted(checks),
        },
        frame_summary={
            "eigenvalues": [
                [float(e.real), float(e.imag)] for e in frame.eigenvalues
            ],
            "min_gap": float(frame.min_gap),
        },
        series_rows=series_rows,
        checks=results,
        verdict=verdict,
        metadata={
            "tool": f"geompert {__version__}",
            "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "model_metadata": dict(sorted(doc.metadata.items())),
            "timings": timings,
        },
        sweep=sweep_arrays,
    )

    if out_dir is not None:
        with _stage("write", timings):
            _write_outputs(report, out_dir)
    return report


def _write_outputs(report: Report, out_dir) -> None:
    import pathlib

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report_json(report), encoding="utf-8")
    (out / "series.csv").write_text(series_csv(report), encoding="utf-8")
    if report.sweep is not None:
        (out / "sweep.csv").write_text(sweep_csv(report), encoding="utf-8")
