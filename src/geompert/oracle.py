"""Independent verification against exact diagonalization.

Nothing here reuses the perturbative machinery: eigenvalue curves come from
dense diagonalization of H(q) at sample points, continued in q by nearest-
neighbor matching anchored at the canonical q = 0 frame.  A check's grid
does not depend on the state, so `_continued_sweep` diagonalizes it once for
all states, from a frame the caller computed once.  Truncated series are
then certified empirically:

* `series_residual_order` fits the log-log slope of |h_n(q) - truncation|;
  a correct order-K series scales at least like q^(K+1).
* `fd_eigenvalue_derivatives` estimates h_n^(k) = (1/k!) d^k h_n / dq^k by
  central differences with one Richardson extrapolation step.
* `state_ray_residual` measures the angle between the truncated eigenvector
  and the exact one, as rays, so gauge and normalization drop out.

All three are one-row views of the all-state helpers `_value_residual_block`,
`_fd_block` and `_ray_residual_block`, which the pipeline calls on one sweep
per check with the coefficients of its one series block.

Pairing is guarded: if the runner-up match is within a factor 2 of the best
match the continuation is ambiguous and the sweep is rejected instead of
silently mislabeling branches.

The sampler is blocked: each block of samples is one H(q) stack, one stacked
LAPACK call and one batch of pairing tables, and the blocks run on threads
over the CPUs in the process's affinity mask.  Stacked calls equal
per-sample calls bit for bit and block sizes depend on N alone, so results
do not depend on the CPU count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import factorial

import numpy as np

from .corrections import PerturbationSeries, _horner, _rowdot
from .errors import (
    DegenerateSpectrum,
    InsufficientOrder,
    PairingAmbiguous,
    ResidualUnderflow,
)
from .generators import PolynomialHamiltonian
from .spectral import SpectralFrame, eigenframe, require_state, resolve_gap_tol

# residuals below this are roundoff, not signal
RESIDUAL_FLOOR = 1e-14
# ray residuals keep a little more headroom over eigenvector noise
RAY_FLOOR = 1e-13
_MIN_FIT_POINTS = 5
_MARGIN_FACTOR = 2.0
# finite-difference spacing; the stencil also samples at half of it
_FD_STEP = 1e-3


@dataclass(frozen=True, eq=False)
class SpectrumCurve:
    """Exact eigenvalue curves h_n(q), continuously paired across samples.

    Row n of `values` follows the state that sits at canonical frame index n
    at q = 0.  `pair_margin` is the smallest ratio of runner-up to best match
    distance seen while pairing (> 2 by construction, inf if no steps).
    """

    qs: np.ndarray
    values: np.ndarray
    pair_margin: float


def _usable_cpus() -> int:
    """The number of CPUs this process may run on (1 where that is unknown)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _pair_block(prev: np.ndarray, vals: np.ndarray, qs: np.ndarray, gap_tol: float):
    """Match each row of raw eigenvalues `vals` (b, N), sampled at `qs`, to
    the same row of `prev` (b, N), the raw eigenvalues of the sample before
    it: nearest-successor picks (b, N) and the smallest step margin.

    The paired previous row is `prev` permuted, which permutes the rows of the
    distance table only, so every flag and margin equals the paired step's.
    Raises, at the first sample where one holds, DegenerateSpectrum for a
    degenerate spectrum, then PairingAmbiguous when the runner-up candidate
    is within a factor 2 of the best one or two states claim one successor.
    """
    n = vals.shape[1]
    if n == 1:
        return np.zeros(vals.shape, dtype=np.intp), np.inf
    gaps = np.abs(vals[:, :, None] - vals[:, None, :])
    gaps[:, np.arange(n), np.arange(n)] = np.inf
    degenerate = gaps.min(axis=(1, 2)) < gap_tol * np.maximum(1.0, np.abs(vals).max(axis=1))
    dist = np.abs(prev[:, :, None] - vals[:, None, :])
    picks = np.argmin(dist, axis=2)
    part = np.partition(dist, 1, axis=2)
    best, runner = part[..., 0], part[..., 1]
    with np.errstate(divide="ignore"):
        ratios = np.where(best > 0, runner / np.maximum(best, 1e-300), np.inf)
    margins = ratios.min(axis=1)
    ambiguous = np.any(runner < _MARGIN_FACTOR * best, axis=1)
    ordered = np.sort(picks, axis=1)
    twice = np.any(ordered[:, 1:] == ordered[:, :-1], axis=1)
    faulty = degenerate | ambiguous | twice
    if faulty.any():
        i = int(np.argmax(faulty))
        q = float(qs[i])
        if degenerate[i]:
            raise DegenerateSpectrum(f"spectrum numerically degenerate at q = {q:.6g}")
        if ambiguous[i]:
            raise PairingAmbiguous(
                f"eigenvalue continuation ambiguous at q = {q:.6g} "
                f"(margin {float(margins[i]):.3g} < {_MARGIN_FACTOR})"
            )
        raise PairingAmbiguous(f"two states matched the same eigenvalue at q = {q:.6g}")
    return picks, float(margins.min())


def _continued_sweep(frame: SpectralFrame, hamiltonian: PolynomialHamiltonian, qs,
                     gap_tol: float, want_vectors: bool):
    """Eigen-curves over qs (every sweep checks its grid here), continued from
    the q = 0 frame, and exact eigenvectors (state, sample, component) on request."""
    qs = np.array(qs, dtype=float)  # a copy: the curve freezes it
    if qs.ndim != 1 or qs.size == 0 or not np.all(np.isfinite(qs)):
        raise ValueError("qs must be a non-empty 1-D sequence of finite values")
    if np.any(np.diff(qs) <= 0):
        raise ValueError("qs must be strictly increasing")
    n = frame.dim
    values = np.zeros((n, qs.size), dtype=np.complex128)
    vectors = np.zeros((n, qs.size, n), dtype=np.complex128) if want_vectors else None
    margin = np.inf

    # the smallest block b with b N > 500, above which numpy releases the GIL
    # in a stacked LAPACK call: only full blocks gain from a thread
    size = 500 // n + 1
    split = int(np.searchsorted(qs, 0.0))  # first sample at q >= 0
    chains = (np.arange(split, qs.size), np.arange(split - 1, -1, -1))
    blocks = [chain[s : s + size] for chain in chains for s in range(0, chain.size, size)]

    def diagonalize(block):
        stack = hamiltonian.at_block(qs[block])
        if want_vectors:
            return np.linalg.eig(stack)
        return np.linalg.eigvals(stack), None

    workers = min(_usable_cpus(), qs.size // size)
    pool = None
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # lazy: ~10 ms to import

        pool = ThreadPoolExecutor(workers)
    try:
        results = pool.map(diagonalize, blocks) if pool else map(diagonalize, blocks)
        for block, (vals, vecs) in zip(blocks, results):
            if block[0] in (split, split - 1):  # a chain starts at the frame
                prev, perm = frame.eigenvalues, np.arange(n)
            before = np.vstack([prev[None], vals[:-1]])  # each sample's raw predecessor
            picks, step = _pair_block(before, vals, qs[block], gap_tol)
            margin = min(margin, step)
            for i, k in enumerate(block.tolist()):
                perm = picks[i][perm]
                values[:, k] = vals[i][perm]
                if want_vectors:
                    vectors[:, k, :] = vecs[i][:, perm].T
            prev = vals[-1]
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    for arr in (qs, values):
        arr.setflags(write=False)
    return SpectrumCurve(qs=qs, values=values, pair_margin=margin), vectors


def exact_spectrum_sweep(
    hamiltonian: PolynomialHamiltonian,
    qs,
    gap_tol: float | None = None,
) -> SpectrumCurve:
    """Diagonalize H(q) at each sample and pair eigenvalues into curves.

    `qs` must be strictly increasing; pairing is anchored at q = 0 by the
    canonical frame of H_0 and folded outward in both directions, so samples
    should start near zero.  Identical inputs give bitwise-identical curves.
    """
    tol = resolve_gap_tol(gap_tol)
    frame = eigenframe(hamiltonian.term(0), gap_tol=tol)
    return _continued_sweep(frame, hamiltonian, qs, tol, False)[0]


def log_log_slope(xs: np.ndarray, ys: np.ndarray) -> float:
    """Least-squares slope of log(ys) against log(xs)."""
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def _fit_above_floor(qs: np.ndarray, residual: np.ndarray, floor: float) -> float:
    """Log-log slope of the residuals at or above `floor` (at least five)."""
    usable = residual >= floor
    if int(usable.sum()) < _MIN_FIT_POINTS:
        raise ResidualUnderflow(
            f"only {int(usable.sum())} residuals above {floor:g}; "
            "window too small to measure a slope"
        )
    return log_log_slope(qs[usable], residual[usable])


def _value_residual_block(qs: np.ndarray, exact: np.ndarray, coeffs: np.ndarray,
                          window: tuple[float, float]):
    """The samples of `qs` inside the window and the (S, Q) residuals of the
    truncations of (S, K+1) coefficients against (S, len(qs)) exact values."""
    q_lo, q_hi = float(window[0]), float(window[1])
    if not (0.0 < q_lo < q_hi):
        raise ValueError("window must satisfy 0 < q_lo < q_hi")
    sel = (qs >= q_lo) & (qs <= q_hi)
    qs = qs[sel]
    if qs.size == 0:
        raise ValueError("window contains no curve samples")
    decades = np.log10(q_hi / q_lo)
    if decades > 0 and qs.size / decades < 8.0 - 1e-9:
        raise ValueError("need at least 8 samples per decade in the window")
    return qs, np.abs(exact[:, sel] - _horner(coeffs, qs))


def _require_series_order(series: PerturbationSeries, order: int) -> None:
    if order < 0:
        raise ValueError("order must be non-negative")
    if series.order < order:
        raise InsufficientOrder(f"series holds order {series.order}, requested {order}")


def series_residual_order(
    curve: SpectrumCurve,
    series: PerturbationSeries,
    n: int,
    order: int,
    window: tuple[float, float],
) -> float:
    """Empirical convergence order of a truncated eigenvalue series.

    Fits the log-log slope of |h_n(q) - sum_{k<=order} q^k h^(k)| over the
    window.  A correct series gives a slope of at least order + 1 (more when
    the next coefficient vanishes); the check threshold order + 0.8 leaves
    room for both.  Points below the roundoff floor are excluded from the
    fit; if fewer than five usable points remain the window cannot support a
    slope estimate and ResidualUnderflow is raised.
    """
    n = require_state(n, curve.values.shape[0])
    _require_series_order(series, order)
    coeffs = series.eigenvalue_corrections[None, : order + 1]
    qs, residual = _value_residual_block(curve.qs, curve.values[n : n + 1], coeffs, window)
    return _fit_above_floor(qs, residual[0], RESIDUAL_FLOOR)


_STENCILS = {
    1: ((-1, 1), (-0.5, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
    4: ((-2, -1, 0, 1, 2), (1.0, -4.0, 6.0, -4.0, 1.0)),
}


def _fd_grid(step: float, ks) -> list[float]:
    """The union of the order-`ks` stencils at spacings step and step/2."""
    if not (np.isfinite(step) and step > 0):
        raise ValueError("step must be finite and positive")
    return sorted({o * h for k in ks for o in _STENCILS[k][0] for h in (step, step / 2)})


def _fd_block(curve: SpectrumCurve, step: float, k: int) -> np.ndarray:
    """h^(k) of every state, from a curve sampled on a `_fd_grid` holding k."""
    offsets, weights = _STENCILS[k]
    column = {float(q): i for i, q in enumerate(curve.qs)}

    def stencil(h: float) -> np.ndarray:
        terms = (w * curve.values[:, column[o * h]] for o, w in zip(offsets, weights))
        return sum(terms) / h ** k

    return (4.0 * stencil(step / 2) - stencil(step)) / 3.0 / factorial(k)


def fd_eigenvalue_derivatives(
    hamiltonian: PolynomialHamiltonian,
    n: int,
    k: int,
    step: float = _FD_STEP,
    gap_tol: float | None = None,
) -> complex:
    """Finite-difference estimate of the series coefficient h_n^(k).

    Central stencil of second-order accuracy at spacings `step` and step/2,
    combined by one Richardson extrapolation, divided by k!.  The whole
    stencil must stay inside the non-degenerate region.
    """
    n = require_state(n, hamiltonian.dim)
    if not 1 <= k <= 4:
        raise ValueError("derivative order k must be in 1..4")
    curve = exact_spectrum_sweep(hamiltonian, _fd_grid(step, (k,)), gap_tol)
    return complex(_fd_block(curve, step, k)[n])


def _rownorm(x: np.ndarray) -> np.ndarray:
    return np.sqrt(_rowdot(x.real, x.real) + _rowdot(x.imag, x.imag))


def _ray_residual_block(exact: np.ndarray, corrections: np.ndarray, qs) -> np.ndarray:
    """(S, Q) ray residuals of the truncations of (S, K+1, N) state corrections
    against (S, Q, N) exact eigenvectors, from the projection residual, which
    stays accurate down to roundoff."""
    # scalar powers: numpy's vector power can differ in the last bit
    powers = np.array([[q**kk for kk in range(corrections.shape[1])] for q in qs.tolist()])
    truncated = np.zeros_like(exact)
    for kk in range(corrections.shape[1]):
        truncated = truncated + powers[:, kk, None] * corrections[:, None, kk, :]
    bra = exact.conj()
    overlap = _rowdot(bra, truncated) / _rowdot(bra, exact)
    residual = truncated - overlap[:, :, None] * exact
    return _rownorm(residual) / np.maximum(_rownorm(truncated), 1e-300)


def state_ray_residual(
    hamiltonian: PolynomialHamiltonian,
    series: PerturbationSeries,
    n: int,
    order: int,
    qs,
    gap_tol: float | None = None,
) -> np.ndarray:
    """Sine of the angle between truncated and exact eigenvectors, per q.

    Both vectors are compared as rays (overall complex factors ignored), so
    the result is insensitive to gauge and normalization choices.
    """
    n = require_state(n, hamiltonian.dim)
    _require_series_order(series, order)
    tol = resolve_gap_tol(gap_tol)
    frame = eigenframe(hamiltonian.term(0), gap_tol=tol)
    curve, vectors = _continued_sweep(frame, hamiltonian, qs, tol, True)
    corrections = np.array(series.state_corrections[: order + 1])[None]
    return _ray_residual_block(vectors[n : n + 1], corrections, curve.qs)[0]
