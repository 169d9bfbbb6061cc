"""Composition of the full expand/verify/sweep pipeline into a Report.

A run goes frame -> generators -> per-state series -> enabled checks, and
only then touches the filesystem (a failing stage emits no partial output).
Reports are deterministic for fixed input and flags; the only timestamp
lives in the metadata block, never in the comparison payload.
"""

from __future__ import annotations

import datetime
import json
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .corrections import (
    _bell_block,
    _rs_closed_forms,
    _series_block,
    build_all_series,
    crosscheck_linear,
)
from .errors import GeompertError, PipelineError, ResidualUnderflow
from .generators import hierarchy_residuals, solve_generators
from .models import ModelDocument
from .oracle import (
    RAY_FLOOR,
    exact_spectrum_sweep,
    fd_eigenvalue_derivatives,
    log_log_slope,
    series_residual_order,
    state_ray_residual,
)
from .spectral import double_bracket, eigenframe

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
    sweep_rows: list | None = field(default=None)

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
    if report.sweep_rows is None:
        raise ValueError("report holds no sweep data")
    lines = ["q,n,re,im,residual"]
    for row in report.sweep_rows:
        lines.append(
            f"{_fmt(row['q'])},{row['n']},{_fmt(row['re'])},"
            f"{_fmt(row['im'])},{_fmt(row['residual'])}"
        )
    return "\n".join(lines) + "\n"


def _stage(name: str):
    class _Ctx:
        def __enter__(self):
            return None

        def __exit__(self, exc_type, exc, tb):
            if exc is not None and isinstance(exc, GeompertError):
                raise PipelineError(name, exc) from exc
            return False

    return _Ctx()


def _worst_relative(a: np.ndarray, b: np.ndarray) -> float:
    """Largest per-column max|a - b| relative to max(1, max|a|) of the column."""
    scale = np.maximum(1.0, np.abs(a).max(axis=0))
    return float(np.max(np.abs(a - b).max(axis=0) / scale))


def _check_hierarchy(hamiltonian, gens) -> dict:
    residuals = hierarchy_residuals(hamiltonian, gens)
    scale = max(
        [1.0]
        + [float(np.abs(m).max()) for m in hamiltonian.terms]
        + [float(np.abs(m).max()) for m in gens.k0]
        + [float(np.abs(m).max()) for m in gens.k1]
    )
    worst = float(residuals.max())
    ok = worst <= 1e-11 * scale
    return {
        "status": "pass" if ok else "fail",
        "max_residual": worst,
        "scale": scale,
        "threshold": 1e-11 * scale,
    }


def _check_routes(gens, order: int) -> dict:
    cols = np.arange(gens.frame.dim)
    rec, ha = _series_block(gens, cols, order)
    bell, hb = _series_block(gens, cols, order, _bell_block(gens, cols, order))
    state_dev = max(_worst_relative(a, b) for a, b in zip(rec, bell))
    value_dev = _worst_relative(ha, hb)
    ok = state_dev <= 1e-12 and value_dev <= 1e-11
    return {
        "status": "pass" if ok else "fail",
        "state_route_deviation": state_dev,
        "state_threshold": 1e-12,
        "eigenvalue_route_deviation": value_dev,
        "eigenvalue_threshold": 1e-11,
    }


def _filtered_slope(qs: np.ndarray, residuals: np.ndarray, floor: float):
    usable = residuals >= floor
    if int(usable.sum()) < 5:
        return None
    return log_log_slope(qs[usable], residuals[usable])


def _check_residual_order(hamiltonian, series_list, order, q_lo, q_hi, points) -> dict:
    kc = min(order, 3)
    qs = np.logspace(np.log10(q_lo), np.log10(q_hi), points)
    curve = exact_spectrum_sweep(hamiltonian, qs)
    threshold = kc + 0.8
    value_slopes = []
    ray_slopes = []
    ok = True
    for n, series in enumerate(series_list):
        try:
            slope = series_residual_order(curve, series, n, kc, (q_lo, q_hi))
        except ResidualUnderflow:
            slope = None  # below the noise floor everywhere: better than required
        if slope is not None and slope < threshold:
            ok = False
        value_slopes.append(slope)
        rays = state_ray_residual(hamiltonian, series, n, kc, qs)
        ray = _filtered_slope(qs, rays, RAY_FLOOR)
        if ray is not None and ray < threshold:
            ok = False
        ray_slopes.append(ray)
    return {
        "status": "pass" if ok else "fail",
        "order_checked": kc,
        "threshold": threshold,
        "eigenvalue_slopes": value_slopes,
        "ray_slopes": ray_slopes,
        "window": [q_lo, q_hi],
    }


def _check_fd(hamiltonian, series_list, order) -> dict:
    kc = min(order, 3)
    worst = 0.0
    rows = []
    for n, series in enumerate(series_list):
        for k in range(1, kc + 1):
            fd = fd_eigenvalue_derivatives(hamiltonian, n, k)
            ref = complex(series.eigenvalue_corrections[k])
            dev = abs(fd - ref) / max(1.0, abs(ref))
            worst = max(worst, dev)
            rows.append({"n": n, "k": k, "deviation": dev})
    ok = worst <= 1e-5
    return {
        "status": "pass" if ok else "fail",
        "max_deviation": worst,
        "threshold": 1e-5,
        "entries": rows,
    }


def _check_hermitian(hamiltonian, frame, series_list) -> dict:
    if not hamiltonian.is_hermitian():
        return {"status": "skipped", "reason": "family is not Hermitian"}
    coeffs = np.array([s.eigenvalue_corrections for s in series_list])
    excess = np.abs(coeffs.imag) - (1e-10 * np.abs(coeffs.real) + 1e-12)
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


def _check_linear(hamiltonian) -> dict:
    if hamiltonian.degree != 1:
        return {"status": "skipped", "reason": "family is not linear"}
    result = crosscheck_linear(hamiltonian)
    return {
        "status": "pass" if result.passed else "fail",
        "max_relative_deviation": result.max_relative_deviation,
        "threshold": result.tolerance,
    }


def _check_gauge(hamiltonian, frame, gens, series_list, order) -> dict:
    kc = min(order, 3)
    rng = np.random.default_rng(_GAUGE_SEED)
    diags = [
        0.5 * (rng.standard_normal(frame.dim) + 1j * rng.standard_normal(frame.dim))
        for _ in range(gens.order + 1)
    ]
    shifted = solve_generators(hamiltonian, frame, gens.order, k0_diagonals=diags)
    states, h_shifted = _series_block(shifted, np.arange(frame.dim), kc)
    ref = np.array([s.eigenvalue_corrections[: kc + 1] for s in series_list]).T
    value_dev = _worst_relative(ref, h_shifted)
    first = np.array([s.state_corrections[1] for s in series_list]).T
    state_change = float(np.abs(states[1] - first).max())
    ok = value_dev <= 1e-10
    return {
        "status": "pass" if ok else "fail",
        "eigenvalue_deviation": value_dev,
        "threshold": 1e-10,
        "state_correction_change": state_change,
        "gauge": shifted.gauge,
    }


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
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if gauge != "zero-diag":
        raise ValueError(f"unsupported gauge {gauge!r}")
    unknown = set(checks) - ALL_CHECKS
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")

    with _stage("validate"):
        hamiltonian = doc.to_hamiltonian()
    with _stage("eigenframe"):
        frame = eigenframe(hamiltonian.term(0), gap_tol=gap_tol)
    with _stage("generators"):
        gens = solve_generators(hamiltonian, frame, max(order, 2))
    with _stage("corrections"):
        series_list = build_all_series(gens, order)

    results: dict[str, dict] = {}
    if "hierarchy" in checks:
        with _stage("check:hierarchy"):
            results["hierarchy"] = _check_hierarchy(hamiltonian, gens)
    if "route_equivalence" in checks:
        with _stage("check:route_equivalence"):
            results["route_equivalence"] = _check_routes(gens, order)
    if "residual_order" in checks:
        with _stage("check:residual_order"):
            results["residual_order"] = _check_residual_order(
                hamiltonian, series_list, order, q_lo, q_hi, points
            )
    if "fd_concordance" in checks:
        with _stage("check:fd_concordance"):
            results["fd_concordance"] = _check_fd(hamiltonian, series_list, order)
    if "hermitian_reduction" in checks:
        with _stage("check:hermitian_reduction"):
            results["hermitian_reduction"] = _check_hermitian(
                hamiltonian, frame, series_list
            )
    if "linear_crosscheck" in checks:
        with _stage("check:linear_crosscheck"):
            results["linear_crosscheck"] = _check_linear(hamiltonian)
    if "gauge_invariance" in checks:
        with _stage("check:gauge_invariance"):
            results["gauge_invariance"] = _check_gauge(
                hamiltonian, frame, gens, series_list, order
            )

    sweep_rows = None
    if sweep is not None:
        with _stage("sweep"):
            q_max, n_points = sweep
            qs = np.linspace(0.0, float(q_max), int(n_points))
            curve = exact_spectrum_sweep(hamiltonian, qs, gap_tol=gap_tol)
            coeffs = np.array([s.eigenvalue_corrections for s in series_list])
            powers = curve.qs[:, None] ** np.arange(order + 1)
            truncated = np.sum(powers[:, None, :] * coeffs[None, :, :], axis=2)
            residuals = np.abs(curve.values.T - truncated)
            sweep_rows = []
            for i, q in enumerate(curve.qs):
                for n in range(frame.dim):
                    exact = curve.values[n, i]
                    sweep_rows.append(
                        {
                            "q": float(q),
                            "n": n,
                            "re": float(exact.real),
                            "im": float(exact.imag),
                            "residual": float(residuals[i, n]),
                        }
                    )

    verdict = "pass"
    for res in results.values():
        if res["status"] == "fail":
            verdict = "fail"

    series_rows = []
    for n, series in enumerate(series_list):
        for k, h in enumerate(series.eigenvalue_corrections):
            series_rows.append(
                {"n": n, "k": k, "re": float(h.real), "im": float(h.imag)}
            )

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
                [float(h.real), float(h.imag)] for h in frame.eigenvalues
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
        },
        sweep_rows=sweep_rows,
    )

    if out_dir is not None:
        with _stage("write"):
            _write_outputs(report, out_dir)
    return report


def _write_outputs(report: Report, out_dir) -> None:
    import pathlib

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report_json(report), encoding="utf-8")
    (out / "series.csv").write_text(series_csv(report), encoding="utf-8")
    if report.sweep_rows is not None:
        (out / "sweep.csv").write_text(sweep_csv(report), encoding="utf-8")
