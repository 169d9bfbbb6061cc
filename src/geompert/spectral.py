"""Biorthogonal spectral frames for dense complex matrices.

A non-Hermitian matrix H0 with a non-degenerate spectrum has distinct right
eigenvectors |n> (columns of V) and dual row vectors <<n| (rows of W) with

    H0 V = V diag(h),      W = V^{-1},      W V = 1.

Choosing W as the exact matrix inverse of V absorbs the Hilbert-space metric
into the dual vectors: <<m|n> = delta_mn holds by construction, and the
"double bracket" matrix element of any operator A is

    [[A]]_mn = <<m| A |n> = (W A V)_mn.

For Hermitian H0 the frame reduces to the orthonormal one (W = V^dagger) and
[[A]] is the ordinary matrix element.

A real H0 is diagonalized in real arithmetic (LAPACK's real solver), which
is faster and returns complex eigenvalues as exact conjugate pairs, the one
with negative imaginary part first in canonical order.  The eigensolve is
accepted when the Frobenius residual ||H0 V - V diag(h)||_F is at most
DEFAULT_FRAME_TOL ||H0||_F / sqrt(N), a fixed gate; since ||R||_2 <= ||R||_F
and ||H0||_F / sqrt(N) <= ||H0||_2, this implies the spectral-norm test at
||H0||_2, without two singular value decompositions.

The degeneracy threshold is resolved here and nowhere else: `eigenframe`
reads it once (argument, else GEOMPERT_GAP_TOL, else the default) and
records it as `SpectralFrame.gap_tol`, which every exact sweep continued
from the frame pairs under.  Every other function that builds its own
frame calls `eigenframe(H_0)`, so GEOMPERT_GAP_TOL is its only way in.  The
test itself, a minimum gap below gap_tol * max(1, max|h|), is `_degenerate`,
for one spectrum or a stack.

All returned objects are immutable (`_frozen` is the one way an array is
made read-only); operations are pure functions and safe to share across
threads.

The stacked kernels (`generators`, `corrections`, with the RS route
`corrections._rs_block`, and `oracle`) make one numpy call per order where a
loop made one per term, and keep the loop's bits by two rules, whose
primitives live here:

  - a stacked `np.matmul` makes one BLAS call per item, the call the item's
    product makes alone, never one wide GEMM; `_rowdot` (and `_rownorm`) is
    one BLAS dot per entry, that of `np.vdot`, whatever the batch shape;
  - `_reduce` adds (or subtracts) in order along a leading axis that is never
    numpy's inner loop, by taking the stack as real pairs (a complex stack of
    single numbers, a 1 x 1 family or one state, is summed pairwise), and a
    sum whose sign of zero matters starts from a zero item: 0 - c is +0 where
    -c is -0.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    InsufficientOrder,
    NonFiniteEntry,
    NonSquare,
    NumericalFailure,
)

DEFAULT_FRAME_TOL = 1e-10
DEFAULT_GAP_TOL = 1e-8
GAP_TOL_ENV = "GEOMPERT_GAP_TOL"

# relative threshold for locating the first "nonzero" component when fixing
# eigenvector phases
_PHASE_TOL = 1e-12


def as_complex_matrix(a) -> np.ndarray:
    """Validate and return `a` as a non-empty, square, finite complex128 array."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or not arr.size:
        raise NonSquare(f"expected a non-empty square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteEntry("matrix contains NaN or infinite entries")
    return arr


def resolve_gap_tol(gap_tol: float | None = None) -> float:
    """Degeneracy threshold: explicit argument, else GEOMPERT_GAP_TOL, else default.

    Raises ValueError unless the chosen value is finite and positive; NaN,
    zero or a negative threshold would switch the degeneracy guard off.
    """
    source, value = "gap_tol", gap_tol
    if value is None:
        source, value = GAP_TOL_ENV, os.environ.get(GAP_TOL_ENV, DEFAULT_GAP_TOL)
    tol = float(value)
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"{source} must be finite and positive, got {value!r}")
    return tol


def is_integer(value) -> bool:
    """Whether `value` is an int or a numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def require_state(n, dim: int) -> int:
    """`n` as a state index: an integer 0 <= n < dim (a bool is not one).

    Raises IndexError naming `n` and `dim`, so a negative index never wraps
    around to another state.
    """
    if not (is_integer(n) and 0 <= n < dim):
        raise IndexError(f"state index n = {n!r} must be an integer with 0 <= n < N = {dim}")
    return int(n)


def require_count(name: str, value) -> None:
    """Raise ValueError naming `name` unless `value` is an integer >= 1 (not a bool)."""
    if not is_integer(value) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def require_order(order, most: int | None = None) -> int:
    """`order` as a series order: an integer >= 0 (not a bool), else ValueError naming
    `order`, and at most `most`, the highest order the input supports, else InsufficientOrder."""
    if not is_integer(order):
        raise ValueError(f"order must be an integer, got {order!r}")
    if order < 0:
        raise ValueError("order must be non-negative")
    if most is not None and order > most:
        raise InsufficientOrder(f"requested order {order} exceeds the available order {most}")
    return int(order)


@cache  # np.triu_indices costs more than the gaps of a small stack
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices (i < j) of the strict upper triangle of n x n, read-only."""
    i, j = np.triu_indices(n, 1)
    return _frozen(i), _frozen(j)


def min_pairwise_gap(values):
    """Smallest |h_i - h_j| over i != j of one spectrum (a float), or of each
    spectrum of a (..., N) stack (an array); inf for fewer than two values.
    Each unordered pair is measured once: |a - b| = |b - a| bit for bit."""
    values = np.asarray(values)
    i, j = _pairs(values.shape[-1])
    gaps = np.abs(values[..., i] - values[..., j]).min(axis=-1, initial=np.inf)
    return float(gaps) if values.ndim == 1 else gaps


def _degenerate(gap, values: np.ndarray, gap_tol: float):
    """Whether a spectrum, or each spectrum of a (..., N) stack, is numerically
    degenerate: its `min_pairwise_gap` `gap` below gap_tol * max(1, max|h|)."""
    return gap < gap_tol * np.maximum(1.0, np.abs(values).max(axis=-1))


def _conditioning(frame: SpectralFrame) -> dict:
    """How well conditioned `frame` is, as a report's `metadata["frame"]`: the
    relative gap the degeneracy test compares with gap_tol (None for one
    state), gap_tol, kappa = ||V||_2 ||W||_2, the ratio of V's extreme singular
    values (`np.linalg.cond(V)` bit for bit, at a third of its cost on a small
    frame), and each state's eigenvalue condition ||l_n|| ||r_n||, which is
    ||l_n||, since V's columns have unit norm."""
    scale = max(1.0, float(np.abs(frame.eigenvalues).max()))
    sigma = np.linalg.svd(frame.right, compute_uv=False)  # descending
    return {
        "relative_gap": frame.min_gap / scale if frame.dim > 1 else None,
        "gap_tol": frame.gap_tol,
        "kappa": float(sigma[0] / sigma[-1]),
        "eigenvalue_condition": _rownorm(frame.left).tolist(),
    }


def _frozen(a: np.ndarray) -> np.ndarray:
    """`a`, made read-only."""
    a.setflags(write=False)
    return a


def _reduce(ufunc, terms: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """terms[0] o terms[1] o ... in that order, o = `ufunc` (np.add, np.subtract),
    over the leading axis of a complex stack, into `out` if given (module docstring)."""
    real = None if out is None else out.view(np.float64)
    return ufunc.reduce(terms.view(np.float64), axis=0, out=real).view(np.complex128)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum(a * b) over the last axis: one BLAS dot (that of `np.vdot`) per
    entry, whatever the batch shape, so each entry keeps a loop's bits."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _rownorm(x: np.ndarray) -> np.ndarray:
    """The 2-norm over the last axis, as the pair of real dots `np.linalg.norm`
    takes of a contiguous complex vector."""
    return np.sqrt(_rowdot(x.real, x.real) + _rowdot(x.imag, x.imag))


@dataclass(frozen=True, eq=False)
class SpectralFrame:
    """Eigendata of an unperturbed matrix in canonical order.

    Attributes
    ----------
    dim : int
        Matrix dimension N.
    eigenvalues : (N,) complex ndarray
        Sorted by (real, imaginary) ascending.
    right : (N, N) complex ndarray
        Columns are unit-norm right eigenvectors, phase-fixed so the first
        component above the noise floor is real positive.
    left : (N, N) complex ndarray
        Rows are the dual vectors; exactly the matrix inverse of `right`.
    min_gap : float
        Smallest pairwise eigenvalue distance.
    gap_tol : float
        The relative degeneracy threshold the frame was built with; every
        exact sweep continued from the frame pairs under it.
    """

    dim: int
    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray
    min_gap: float
    gap_tol: float


def _normalize_columns(vecs: np.ndarray) -> np.ndarray:
    """Unit 2-norm columns with the first significant component real positive.

    One pass over all columns.  Each norm is `_rownorm` of a contiguous copy
    of the column, so every column keeps a per-column loop's bits.
    """
    out = np.array(vecs, dtype=np.complex128)
    out /= _rownorm(out.T.copy())  # column j as a contiguous row
    mags = np.abs(out)
    idx = np.argmax(mags > _PHASE_TOL * mags.max(axis=0), axis=0)
    cols = np.arange(out.shape[1])
    out *= mags[idx, cols] / out[idx, cols]
    return out


def eigenframe(h0, *, gap_tol: float | None = None) -> SpectralFrame:
    """Diagonalize `h0` and build its biorthogonal frame.

    Parameters
    ----------
    h0 : array_like
        Non-empty square complex matrix with finite entries.
    gap_tol : float, optional
        Relative degeneracy threshold; default from GEOMPERT_GAP_TOL or 1e-8.

    Raises
    ------
    DegenerateSpectrum
        If the smallest eigenvalue gap is below gap_tol * max(1, spectral
        radius); the perturbative scheme is invalid there.
    NumericalFailure
        If the eigensolver residual ||H0 V - V diag(h)||_F exceeds
        DEFAULT_FRAME_TOL ||H0||_F / sqrt(N), or ||W V - 1|| exceeds it.
    """
    h0 = as_complex_matrix(h0)
    n = h0.shape[0]
    # real LAPACK for a real H0: conjugate pairs come out exact
    values, vectors = np.linalg.eig(h0 if h0.imag.any() else h0.real)
    order = np.lexsort((values.imag, values.real))
    values = values[order].astype(np.complex128)
    vectors = _normalize_columns(vectors[:, order])

    gap = min_pairwise_gap(values)
    tol = resolve_gap_tol(gap_tol)
    if _degenerate(gap, values, tol):
        raise DegenerateSpectrum(
            f"minimum eigenvalue gap {gap:.3e} below threshold "
            f"(relative tolerance {tol:.1e})", q=0.0
        )

    left = np.linalg.inv(vectors)

    # Frobenius norms: a stricter test than the 2-norm one (module docstring)
    scale = float(np.linalg.norm(h0)) / np.sqrt(n)
    residual = float(np.linalg.norm(h0 @ vectors - vectors * values))
    if residual > DEFAULT_FRAME_TOL * max(scale, np.finfo(float).tiny):
        raise NumericalFailure(
            f"eigensolver residual {residual:.3e} exceeds tolerance"
        )
    bio = float(np.linalg.norm(left @ vectors - np.eye(n), np.inf))
    if bio > DEFAULT_FRAME_TOL:
        raise NumericalFailure(
            f"biorthonormality defect {bio:.3e} exceeds tolerance"
        )

    return SpectralFrame(dim=n, eigenvalues=_frozen(values), right=_frozen(vectors),
                         left=_frozen(left), min_gap=gap, gap_tol=tol)


def double_bracket(frame: SpectralFrame, a) -> np.ndarray:
    """Matrix of double-bracket elements [[A]]_mn = <<m| A |n> = (W A V)_mn."""
    a = as_complex_matrix(a)
    if a.shape[0] != frame.dim:
        raise DimensionMismatch(
            f"operator dimension {a.shape[0]} != frame dimension {frame.dim}"
        )
    return frame.left @ a @ frame.right
