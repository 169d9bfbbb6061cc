"""The benchmark's workloads: inputs made from a seed, one op each, checks.

Every workload is closed-loop with one caller: the next op starts only after
the previous one has returned and its outputs have been checked.  The CLI
workloads call `geompert.cli.main(argv)` in-process; `series-api` follows
the library path of the README.  This module needs only numpy (and the
program itself for running an op), so the worker process that imports it
carries no reference machinery in its memory footprint.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Cauchy contour of the seeded-family references.  At |q| = 0.04 the worst
# deviation from the series over seeds 0-9 was 2.0e-9 relative (k = 3,
# N = 64); at 0.02 it was 1.3e-8, because roundoff grows like r^-k.
CONTOUR_RADIUS = 0.04
CONTOUR_POINTS = 64

# A coefficient passes when |value - reference| <= RTOL |reference| + floor_k.
# RTOL sits 50x above the worst relative deviation measured on correct series
# and 10x below the 1e-6 relative perturbation the self-test must catch.
RTOL = 1e-7
# floor_k = NOISE_FACTOR * sigma / r^k, where sigma is the roundoff level of
# the contour's own FFT, read from bins far beyond any real coefficient.
# Correct series deviated by at most 11 sigma / r^k (k = 0) over seeds 0-9.
NOISE_FACTOR = 30.0
# The toy reference is exact; the program's worst deviation was 4.4e-16.
TOY_FLOOR = 1e-12
# Exact sweep values against the benchmark's own eigvals at the same q, as a
# set, relative to max(1, |value|).
SWEEP_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int  # dimension of the model (2 for the built-in toy-sec5)
    order: int  # series order the op produces
    checked_order: int  # highest order compared against the reference
    argv: tuple[str, ...] | None  # CLI arguments; None for the library path


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "expand-highorder", 2, 12, 12,
            ("expand", "--model", "toy-sec5", "--order", "12", "--out", "{out}"),
        ),
        Workload("verify-dense", 16, 3, 3, ("verify", "--model", "{model}", "--order", "3")),
        Workload(
            "sweep-wide", 32, 3, 3,
            ("sweep", "--model", "{model}", "--q-max", "0.2", "--points", "200",
             "--order", "3", "--out", "{out}"),
        ),
        Workload("series-api", 64, 10, 3, None),
    )
}

SWEEP_Q_MAX = 0.2
SWEEP_POINTS = 200


def seeded_family(rng: np.random.Generator, dim: int) -> list[np.ndarray]:
    """h0 = diag(0..N-1) + 0.01 randn, h1 complex Gaussian, h2 real Gaussian."""
    h0 = np.diag(np.arange(dim, dtype=float)) + 0.01 * rng.standard_normal((dim, dim))
    h1 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h2 = rng.standard_normal((dim, dim))
    return [h0.astype(np.complex128), h1, h2.astype(np.complex128)]


def model_text(name: str, terms) -> str:
    """A model document in the program's JSON format (floats round-trip)."""
    doc = {
        "name": name,
        "dim": int(terms[0].shape[0]),
        "terms": [
            {
                "order": j,
                "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in m],
            }
            for j, m in enumerate(terms)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def cli_argv(workload: Workload, model: str | None, out: Path) -> list[str]:
    return [a.format(model=model, out=out) for a in workload.argv]


def run_cli(geompert_cli, argv: list[str]) -> tuple[int, str]:
    """One in-process CLI call; returns its exit code and captured stdout."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = geompert_cli.main(argv)
    return code, out.getvalue()


def run_api(geompert, hamiltonian, order: int) -> np.ndarray:
    """The README library path for every state; returns h_n^(k) as (N, K+1)."""
    frame = geompert.eigenframe(hamiltonian.term(0))
    gens = geompert.solve_generators(hamiltonian, frame, order)
    series = [geompert.build_series(gens, n, order) for n in range(frame.dim)]
    return np.array([s.eigenvalue_corrections for s in series])


class CheckFailed(Exception):
    """An op's output is missing, malformed or off the reference."""


def series_from_rows(rows, dim: int, order: int) -> np.ndarray:
    """(N, K+1) complex array from (n, k, re, im) rows, with shape checks."""
    if len(rows) != dim * (order + 1):
        raise CheckFailed(f"{len(rows)} series rows, expected {dim * (order + 1)}")
    values = np.full((dim, order + 1), np.nan, dtype=np.complex128)
    for n, k, re, im in rows:
        values[int(n), int(k)] = complex(float(re), float(im))
    if not np.all(np.isfinite(values)):
        raise CheckFailed("series rows are not finite or do not cover every (n, k)")
    return values


def read_series_csv(path: Path, dim: int, order: int) -> np.ndarray:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "n,k,re,im":
        raise CheckFailed(f"{path.name}: missing or wrong header")
    return series_from_rows([ln.split(",") for ln in lines[1:]], dim, order)


def check_series(values: np.ndarray, reference: np.ndarray, tolerance: np.ndarray) -> None:
    kmax = reference.shape[1]
    dev = np.abs(values[:, :kmax] - reference)
    if np.any(dev > tolerance):
        n, k = np.unravel_index(int(np.argmax(dev / tolerance)), dev.shape)
        raise CheckFailed(
            f"h_{n}^({k}) = {values[n, k]} is {dev[n, k]:.3g} from the reference "
            f"{reference[n, k]} (tolerance {tolerance[n, k]:.3g})"
        )


def read_sweep_csv(path: Path, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """q grid and (points, N) exact values from sweep.csv."""
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "q,n,re,im,residual":
        raise CheckFailed(f"{path.name}: missing or wrong header")
    if len(lines) - 1 != dim * SWEEP_POINTS:
        raise CheckFailed(f"{len(lines) - 1} sweep rows, expected {dim * SWEEP_POINTS}")
    table = np.array([ln.split(",") for ln in lines[1:]], dtype=float)
    if not np.all(np.isfinite(table)):
        raise CheckFailed("sweep rows are not finite")
    table = table.reshape(SWEEP_POINTS, dim, 5)
    if np.any(table[:, :, 0] != table[:, :1, 0]) or np.any(table[:, :, 1] != np.arange(dim)):
        raise CheckFailed("sweep rows are not grouped by q with states 0..N-1")
    return table[:, 0, 0], table[:, :, 2] + 1j * table[:, :, 3]


def check_sweep(qs: np.ndarray, values: np.ndarray, reference: np.ndarray) -> None:
    """Each q's values must match the reference eigenvalues one to one."""
    if not np.array_equal(qs, np.linspace(0.0, SWEEP_Q_MAX, SWEEP_POINTS)):
        raise CheckFailed("sweep q grid differs from the requested one")
    dist = np.abs(values[:, :, None] - reference[:, None, :])
    nearest = np.argmin(dist, axis=2)
    for i in range(qs.size):
        if np.unique(nearest[i]).size != nearest.shape[1]:
            raise CheckFailed(f"sweep values at q = {qs[i]} are not the exact spectrum")
    tol = SWEEP_RTOL * np.maximum(1.0, np.abs(values))
    if np.any(dist.min(axis=2) > tol):
        raise CheckFailed("sweep values are off the exact spectrum")


def tolerances(reference: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """Per-coefficient tolerance RTOL |reference| + floor_k."""
    return RTOL * np.abs(reference) + floor[None, :]
