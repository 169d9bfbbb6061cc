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
from the frame pairs under.

All returned objects are immutable; operations are pure functions and safe
to share across threads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

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


def min_pairwise_gap(values: np.ndarray) -> float:
    """Smallest |h_i - h_j| over i != j (inf for fewer than two values)."""
    values = np.asarray(values)
    if values.size < 2:
        return np.inf
    dist = np.abs(values[:, None] - values[None, :])
    np.fill_diagonal(dist, np.inf)
    return float(dist.min())


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

    One pass over all columns.  Each squared norm is the pair of BLAS dots
    that `np.linalg.norm` takes over the real and imaginary parts of a
    contiguous copy of the column, so every column keeps a per-column
    loop's bits.
    """
    out = np.array(vecs, dtype=np.complex128)
    rows = out.T.copy()  # column j as a contiguous row
    re, im = rows.real, rows.imag
    squares = (re[:, None, :] @ re[:, :, None]) + (im[:, None, :] @ im[:, :, None])
    out /= np.sqrt(squares[:, 0, 0])
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

    radius = float(np.max(np.abs(values)))
    gap = min_pairwise_gap(values)
    tol = resolve_gap_tol(gap_tol)
    if gap < tol * max(1.0, radius):
        raise DegenerateSpectrum(
            f"minimum eigenvalue gap {gap:.3e} below threshold "
            f"(relative tolerance {tol:.1e})"
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

    for arr in (values, vectors, left):
        arr.setflags(write=False)
    return SpectralFrame(
        dim=n, eigenvalues=values, right=vectors, left=left, min_gap=gap, gap_tol=tol
    )


def double_bracket(frame: SpectralFrame, a) -> np.ndarray:
    """Matrix of double-bracket elements [[A]]_mn = <<m| A |n> = (W A V)_mn."""
    a = as_complex_matrix(a)
    if a.shape[0] != frame.dim:
        raise DimensionMismatch(
            f"operator dimension {a.shape[0]} != frame dimension {frame.dim}"
        )
    return frame.left @ a @ frame.right
