"""Independent verification against exact diagonalization.

Nothing here reuses the perturbative machinery: eigenvalue curves come from
dense diagonalization of H(q) at sample points, continued in q by nearest-
neighbor matching anchored at the canonical q = 0 frame.  A check's grid
does not depend on the state, so `_continued_sweep` diagonalizes it once for
all states, from a frame the caller computed once.  H(0) = H_0 exactly, so
a q = 0 sample is that frame, its eigenvalues and right vectors, and takes
no LAPACK call.  Truncated series are then certified empirically:

* `series_residual_order` fits the log-log slope of |h_n(q) - truncation|;
  a correct order-K series scales at least like q^(K+1).  `_fit_block`
  fits every state's slope at once, in closed form (centred least squares
  over each row's points above the noise floor).
* `fd_eigenvalue_derivatives` estimates h_n^(k) = (1/k!) d^k h_n / dq^k by
  central differences at the fixed step `_FD_STEP`, one Richardson step.
* `state_ray_residual` measures the angle between the truncated eigenvector
  and the exact one, as rays, so gauge and normalization drop out.

All three are one-row views of the all-state helpers `_horner` (with
`_fit_block`), `_fd_coefficients` and `_ray_residual_block`.  The pipeline
reads each quantity once: the eigenvalue corrections by
`_contour_coefficients`, the trapezoidal rule on |q| = r (Lyness and Moler
1967), whose exact samples weigh equally where the stencil weighs them by
step^-k, and the states by `_residual_slopes`, their ray slopes over the
residual window.  The ray residuals have the same bits alone or in a block;
the ray slopes do not, since the pipeline fits above measured floors.

This module owns every sampling decision of the checks: the grids
(`_residual_grid`, which the pipeline calls before it builds the frame when
`residual_order` runs, the contour and the stencils), the window rule
(`_require_window`, which the pipeline applies to every run's window and
`series_residual_order` to its samples), the rule that q^K is a finite
float (`_require_power`, for the window and the ray residuals), the noise
floors and the rule that a window is below the noise floor.  The pipeline's
ray floors are measured: `_residual_slopes` compares its sweep's eigenvectors
with those of the twin H(q)/3 at three samples, and takes 10 times each
state's noise, never less than RAY_FLOOR, the constant floor of the public
ray view.  A sweep pairs under the degeneracy threshold its frame records.

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

from .corrections import PerturbationSeries, _horner
from .errors import DegenerateSpectrum, PairingAmbiguous, ResidualUnderflow
from .generators import PolynomialHamiltonian
from .spectral import (SpectralFrame, _degenerate, _frozen, _rowdot, _rownorm, eigenframe,
                       is_integer, is_real, min_pairwise_gap, require_count, require_order,
                       require_state)

# residuals below this are roundoff, not signal
RESIDUAL_FLOOR = 1e-14
# ray residuals keep a little more headroom over eigenvector noise
RAY_FLOOR = 1e-13
# the fewest residuals a slope is fitted to, and so the fewest samples of a window
_MIN_FIT_POINTS = 5
# the fewest samples per decade of a window that a slope fit is given
_PER_DECADE = 8
_MARGIN_FACTOR = 2.0
# a measured noise floor is this many times the noise
_NOISE_FACTOR = 10.0
# finite-difference spacing; the stencil also samples at half of it
_FD_STEP = 1e-3
# the samples, roundoff target, noise bar and radius count of `_contour_coefficients`
_CONTOUR_POINTS, _CONTOUR_TARGET, _CONTOUR_BAR, _CONTOUR_TRIES = 16, 1e-9, 1e-6, 6


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
    if vals.shape[1] == 1:
        return np.zeros(vals.shape, dtype=np.intp), np.inf
    degenerate = _degenerate(min_pairwise_gap(vals), vals, gap_tol)
    dist = np.abs(prev[:, :, None] - vals[:, None, :])
    picks = np.argmin(dist, axis=2)
    part = np.partition(dist, 1, axis=2)
    best, runner = part[..., 0], part[..., 1]
    with np.errstate(over="ignore"):  # a constant eigenvalue: best 0, the ratio inf
        ratios = np.where(best > 0, runner / np.maximum(best, 1e-300), np.inf)
    margins = ratios.min(axis=1)
    ambiguous = np.any(runner < _MARGIN_FACTOR * best, axis=1)
    twice = np.any(np.sort(picks, axis=1) != np.arange(vals.shape[1]), axis=1)
    faulty = degenerate | ambiguous | twice
    if faulty.any():
        i = int(np.argmax(faulty))
        q = float(qs[i])
        if degenerate[i]:
            raise DegenerateSpectrum(f"spectrum numerically degenerate at q = {q:.6g}", q=q)
        if ambiguous[i]:
            raise PairingAmbiguous(
                f"eigenvalue continuation ambiguous at q = {q:.6g} "
                f"(margin {float(margins[i]):.3g} < {_MARGIN_FACTOR})", q=q
            )
        raise PairingAmbiguous(f"two states matched the same eigenvalue at q = {q:.6g}", q=q)
    return picks, float(margins.min())


def _continued_sweep(frame: SpectralFrame, hamiltonian: PolynomialHamiltonian, qs,
                     want_vectors: bool):
    """Eigen-curves over qs (every sweep checks its grid here), continued from the q = 0
    frame under its `gap_tol`, and exact eigenvectors (state, sample, component) on request."""
    qs = np.asarray(qs)
    if np.iscomplexobj(qs):
        if np.any(qs.imag != 0):
            raise ValueError("qs must be real: a sample has a nonzero imaginary part")
        qs = qs.real
    qs = np.array(qs, dtype=float)  # a copy: the curve freezes it
    if qs.ndim != 1 or qs.size == 0 or not np.all(np.isfinite(qs)):
        raise ValueError("qs must be a non-empty 1-D sequence of finite values")
    if np.any(np.diff(qs) <= 0):
        raise ValueError("qs must be strictly increasing")
    n = frame.dim
    values = np.zeros((n, qs.size), dtype=np.complex128)
    vectors = np.zeros((n, qs.size, n), dtype=np.complex128) if want_vectors else None
    margin = np.inf

    # the smallest block b with b N > 500: numpy (2.4, measured) holds the GIL
    # through a stacked `eigvals` of b N <= 500 and releases it above, for N from
    # 4 to 64; a stacked `eig` released it at every b N measured, down to 128.
    # Only blocks that release it gain from a thread.
    size = 500 // n + 1
    split = int(np.searchsorted(qs, 0.0))  # first sample at q >= 0
    start = split
    if split < qs.size and qs[split] == 0.0:  # H(0) = H_0: the sample is the frame
        values[:, split] = frame.eigenvalues
        if want_vectors:
            vectors[:, split, :] = frame.right.T
        start += 1
    chains = (np.arange(start, qs.size), np.arange(split - 1, -1, -1))
    blocks = [chain[s : s + size] for chain in chains for s in range(0, chain.size, size)]

    def diagonalize(block):
        stack = hamiltonian.at_block(qs[block])
        if want_vectors:
            return np.linalg.eig(stack)
        return np.linalg.eigvals(stack), None

    workers = min(_usable_cpus(), (qs.size - (start - split)) // size)
    pool = None
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # lazy: ~10 ms to import

        pool = ThreadPoolExecutor(workers)
    try:
        results = pool.map(diagonalize, blocks) if pool else map(diagonalize, blocks)
        for block, (vals, vecs) in zip(blocks, results):
            if block[0] in (start, split - 1):  # a chain starts at the frame
                prev, perm = frame.eigenvalues, np.arange(n)
            before = np.vstack([prev[None], vals[:-1]])  # each sample's raw predecessor
            picks, step = _pair_block(before, vals, qs[block], frame.gap_tol)
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
    return SpectrumCurve(qs=_frozen(qs), values=_frozen(values), pair_margin=margin), vectors


def exact_spectrum_sweep(hamiltonian: PolynomialHamiltonian, qs) -> SpectrumCurve:
    """Diagonalize H(q) at each sample and pair eigenvalues into curves.

    `qs` must be strictly increasing; pairing is anchored at q = 0 by the
    canonical frame of H_0 and folded outward in both directions, so samples
    should start near zero.  Identical inputs give bitwise-identical curves.
    """
    frame = eigenframe(hamiltonian.term(0))
    return _continued_sweep(frame, hamiltonian, qs, False)[0]


def _fit_block(qs: np.ndarray, residuals: np.ndarray, floor) -> list:
    """Log-log slope of each row of residuals (S, Q) over its points at or
    above `floor`, one float or each row's (S, 1); None for a row with fewer
    than five such points.  The least-squares slopes come from centred sums,
    each along its row's own contiguous axis, so a row's slope has the same
    bits whether it is fitted alone or in a block."""
    usable = residuals >= floor
    rows = np.flatnonzero(usable.sum(axis=1) >= _MIN_FIT_POINTS)
    mask = usable[rows]
    count = mask.sum(axis=1)
    x = np.where(mask, np.log(qs), 0.0)
    # ones stand in for the unusable residuals, which may be zero: log 1 = 0
    y = np.log(np.where(mask, residuals[rows], 1.0))
    dx = np.where(mask, x - (x.sum(axis=1) / count)[:, None], 0.0)
    dy = np.where(mask, y - (y.sum(axis=1) / count)[:, None], 0.0)
    slopes: list = [None] * residuals.shape[0]
    fitted = (dx * dy).sum(axis=1) / (dx * dx).sum(axis=1)
    for row, slope in zip(rows.tolist(), fitted.tolist()):
        slopes[row] = slope
    return slopes


def _require_power(q, order: int, name: str) -> None:
    """Raise ValueError naming `name` = q unless q ** order is a finite float."""
    with np.errstate(over="ignore"):
        if not np.isfinite(np.float64(q) ** order):
            raise ValueError(f"{name} = {q!r} overflows a float at order {order}")


def _require_window(window: tuple[float, float], points, order: int) -> None:
    """Raise ValueError unless `window` is a finite 0 < q_lo < q_hi of real numbers
    (`spectral.is_real`) whose q_hi ** order, the largest power a series of `order` takes
    there, is a finite float, and `points` samples cover it, at least `_PER_DECADE` to a
    decade and at least `_MIN_FIT_POINTS`, the fewest a slope is fitted to, in all."""
    q_lo, q_hi = window
    for name, q in (("q_lo", q_lo), ("q_hi", q_hi)):
        if not is_real(q):
            raise ValueError(f"residual window {name} must be a real number, got {q!r}")
    if not 0 < q_lo < q_hi < np.inf:
        raise ValueError(
            f"residual window must satisfy finite 0 < q_lo < q_hi, "
            f"got q_lo = {q_lo!r}, q_hi = {q_hi!r}"
        )
    _require_power(q_hi, order, "residual window q_hi")
    require_count("points", points)
    decades = np.log10(q_hi) - np.log10(q_lo)
    if points / decades < _PER_DECADE - 1e-9:
        raise ValueError(
            f"residual_order needs at least {_PER_DECADE} points per decade of the window: "
            f"points = {points} over q_lo = {q_lo!r} to q_hi = {q_hi!r} ({decades:.3g} decades)"
        )
    if points < _MIN_FIT_POINTS:
        raise ValueError(
            f"residual_order needs at least {_MIN_FIT_POINTS} samples in the window to fit "
            f"a slope: points = {points} over q_lo = {q_lo!r} to q_hi = {q_hi!r}"
        )


def _residual_grid(window: tuple[float, float], points: int) -> np.ndarray:
    """`points` samples of a window that `_require_window` accepted, evenly in log q,
    the ends exactly q_lo and q_hi."""
    q_lo, q_hi = window
    qs = np.logspace(np.log10(q_lo), np.log10(q_hi), points)
    qs[0], qs[-1] = q_lo, q_hi  # logspace can miss either end by an ulp
    return qs


def _residual_slopes(frame: SpectralFrame, hamiltonian: PolynomialHamiltonian,
                     states: np.ndarray, qs: np.ndarray):
    """Ray slopes of every state for a (K+1, N, N) state block, from one eigenvector sweep
    over the grid `qs` (a `_residual_grid`) and fitted above each state's ray floor; those
    floors (N,); and whether the grid is below the noise floor: no ray slope, some
    S_n^(k) not 0 for k >= 1, and every q_hi^k ||S_n^(k)|| under its state's floor.

    The noise is measured against the twin H(q)/3, whose eigenvectors are H(q)'s under
    other roundoff, at the grid's first, middle and last samples: a state's noise is the
    largest sine between its two eigenvectors, the twin's eigenvalues times 3 pairing the
    vectors.  A floor is `_NOISE_FACTOR` times the noise, and at least RAY_FLOOR, since an
    exactly computed family has no twin noise."""
    curve, vectors = _continued_sweep(frame, hamiltonian, qs, True)
    picked = [0, qs.size // 2, qs.size - 1]
    twin_values, twin_vectors = np.linalg.eig(hamiltonian.at_block(qs[picked]) / 3)
    # the twin's eigenvalues, times 3, pair with the sweep's as one sample pairs with the next
    picks, _ = _pair_block(curve.values[:, picked].T, 3 * twin_values, qs[picked], frame.gap_tol)
    # each (state, sample) is one row, the twin's vector its order-0 series
    twin = np.take_along_axis(twin_vectors, picks[:, None, :], 2).transpose(2, 0, 1)
    rows = (-1, 1, frame.dim)
    sines = _ray_residual_block(vectors[:, picked].reshape(rows), twin.reshape(rows), np.ones(1))
    floors = np.maximum(_NOISE_FACTOR * sines.reshape(frame.dim, -1).max(axis=1), RAY_FLOOR)
    corrections = states.transpose(2, 0, 1)  # (N, K+1, N): row k of state n is S_n^(k)
    slopes = _fit_block(curve.qs, _ray_residual_block(vectors, corrections, curve.qs),
                        floors[:, None])
    reach = _rownorm(corrections[:, 1:]) * float(curve.qs[-1]) ** np.arange(1.0, len(states))
    blind = bool(np.any(corrections[:, 1:] != 0) and np.all(reach.max(axis=1) < floors)
                 and all(s is None for s in slopes))
    return slopes, floors.tolist(), blind


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
    slope estimate and ResidualUnderflow is raised.  The window obeys the
    pipeline window's rule, `_require_window`, with the curve samples inside
    it as the points, so a window of fewer than five samples raises
    ValueError before any fit.
    """
    n = require_state(n, curve.values.shape[0])
    order = require_order(order, series.order)
    sel = (curve.qs >= window[0]) & (curve.qs <= window[1])
    _require_window(window, int(sel.sum()), order)
    qs = curve.qs[sel]
    residual = np.abs(curve.values[n : n + 1, sel]
                      - _horner(series.eigenvalue_corrections[None, : order + 1], qs))
    slope = _fit_block(qs, residual, RESIDUAL_FLOOR)[0]
    if slope is None:
        raise ResidualUnderflow(
            f"only {int((residual >= RESIDUAL_FLOOR).sum())} residuals above "
            f"{RESIDUAL_FLOOR:g}; window too small to measure a slope"
        )
    return slope


_STENCILS = {
    1: ((-1, 1), (-0.5, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
    4: ((-2, -1, 0, 1, 2), (1.0, -4.0, 6.0, -4.0, 1.0)),
}


def _fd_coefficients(frame: SpectralFrame, hamiltonian: PolynomialHamiltonian, k) -> np.ndarray:
    """h^(k) of every state (N,), k in 1..4, from one eigenvalue sweep over its stencil at
    spacings _FD_STEP and _FD_STEP/2."""
    offsets, weights = _STENCILS[k]
    grid = sorted({o * s for o in offsets for s in (_FD_STEP, _FD_STEP / 2)})
    curve, _ = _continued_sweep(frame, hamiltonian, grid, False)
    column = {float(q): i for i, q in enumerate(curve.qs)}

    def stencil(s: float) -> np.ndarray:
        return sum(w * curve.values[:, column[o * s]] for o, w in zip(offsets, weights)) / s ** k

    return (4.0 * stencil(_FD_STEP / 2) - stencil(_FD_STEP)) / 3.0 / factorial(k)


def fd_eigenvalue_derivatives(hamiltonian: PolynomialHamiltonian, n: int, k: int) -> complex:
    """Finite-difference estimate of the series coefficient h_n^(k).

    Central stencil of second-order accuracy at spacings `_FD_STEP` and half of it,
    combined by one Richardson extrapolation, divided by k!.  The whole
    stencil must stay inside the non-degenerate region.
    """
    n = require_state(n, hamiltonian.dim)
    if not is_integer(k) or not 1 <= k <= 4:
        raise ValueError(f"derivative order k must be an integer in 1..4, got {k!r}")
    frame = eigenframe(hamiltonian.term(0))
    return complex(_fd_coefficients(frame, hamiltonian, k)[n])


def _contour_coefficients(frame: SpectralFrame, hamiltonian: PolynomialHamiltonian,
                          h: np.ndarray, kc: int):
    """h^(1..kc) of every state (kc, N) by the trapezoidal rule on |q| = r over one `eigvals`
    of P samples paired with the series h (K+1, N) there by `_pair_block`; with r, the noise
    bar (the largest gap to the even samples' rule, over max(1, |h^(k)|)) and the pairing
    margin (inf for N = 1 or an exact match).  The first r puts roundoff u max(1, max|h^(0)|)
    max_n s_n / r^kc (s_n the eigenvalue conditions) at `_CONTOUR_TARGET`; r halves while the
    pairing raises or the bar exceeds `_CONTOUR_BAR`; the smallest bar's r is returned."""
    p = _CONTOUR_POINTS
    ks = np.arange(1, kc + 1)
    turns = np.exp(2j * np.pi * np.arange(p) / p)
    # rows: h^(k) r^k by the full rule, then by the even samples (weight 2/P each)
    rule = np.exp(-2j * np.pi * (np.outer(ks, np.arange(p)) % p) / p) / p
    rule = np.vstack([rule, rule * (np.arange(p) % 2 == 0) * 2])
    scale = max(1.0, float(np.abs(frame.eigenvalues).max())) * float(_rownorm(frame.left).max())
    radius = min(0.1, (2.0**-52 * scale / _CONTOUR_TARGET) ** (1 / kc))
    best, error = None, None
    for _ in range(_CONTOUR_TRIES):
        qs = radius * turns
        vals = np.linalg.eigvals(hamiltonian.at_block(qs))
        try:  # a raised q is the radius: a finite float
            picks, margin = _pair_block(_horner(h.T, qs).T, vals, np.full(p, radius),
                                        frame.gap_tol)
        except (DegenerateSpectrum, PairingAmbiguous) as exc:
            error = exc
        else:
            paired = np.take_along_axis(vals, picks, 1)
            full, half = (rule @ paired).reshape(2, kc, -1) / radius ** ks[:, None]
            bar = float((np.abs(full - half) / np.maximum(1.0, np.abs(full))).max())
            if best is None or bar < best[2]:
                best = full, radius, bar, margin
            if bar <= _CONTOUR_BAR:
                break
        radius /= 2
    if best is None:
        raise error
    return best


def _ray_residual_block(exact: np.ndarray, corrections: np.ndarray, qs) -> np.ndarray:
    """(S, Q) ray residuals of the truncations of (S, K+1, N) state corrections
    against (S, Q, N) exact eigenvectors, from the projection residual, which
    stays accurate down to roundoff."""
    qs = qs.tolist()  # scalar powers: numpy's vector power can differ in the last bit
    _require_power(max(qs, key=abs), corrections.shape[1] - 1, "q")
    powers = np.array([[q**kk for kk in range(corrections.shape[1])] for q in qs])
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
) -> np.ndarray:
    """Sine of the angle between truncated and exact eigenvectors, per q.

    Both vectors are compared as rays (overall complex factors ignored), so
    the result is insensitive to gauge and normalization choices.
    """
    n = require_state(n, hamiltonian.dim)
    order = require_order(order, series.order)
    frame = eigenframe(hamiltonian.term(0))
    curve, vectors = _continued_sweep(frame, hamiltonian, qs, True)
    corrections = np.array(series.state_corrections[: order + 1])[None]
    return _ray_residual_block(vectors[n : n + 1], corrections, curve.qs)[0]
