"""Order-by-order solution of the transport-generator hierarchy.

For a polynomial family H(q) = sum_j q^j H_j the parameter-transport
generator decomposes adiabatically as K(q,t) = K_1(q) t + K_0(q), with

    [H, K_0] = i (K_1 - dH/dq),        [H, K_1] = 0.

Expanding everything in powers of q and matching coefficients turns each
order ell into elementwise arithmetic in the eigenframe of H_0 (where
[H_0, X] has entries (h_m - h_n) X_mn):

  (i)   off-diagonal K_1^(ell) from the order-ell part of [H, K_1] = 0,
  (ii)  diagonal K_1^(ell) from the diagonal of the first equation,
  (iii) off-diagonal K_0^(ell) from its off-diagonal, dividing by the gaps,
  (iv)  diagonal K_0^(ell): pure gauge, set to zero (or to caller-supplied
        values; shifts commuting with H_0 change eigenstate representatives
        but never eigenvalues).

Each order only consumes strictly lower orders, so the sweep is a single
forward pass.  Matrices are conjugated back to the computational basis at
the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConsistencyFailure, DimensionMismatch
from .spectral import SpectralFrame, as_complex_matrix, double_bracket, eigenframe

GAUGE_ZERO_DIAGONAL = "zero-diagonal"
GAUGE_CUSTOM_DIAGONAL = "custom-diagonal"

# relative tolerance on the implied-zero diagonal in step (i)
_CONSISTENCY_RTOL = 1e-10


class PolynomialHamiltonian:
    """Coefficient family {H_j} of H(q) = sum_j q^j H_j.

    `terms[j]` multiplies q^j; all terms share one dimension.  Missing higher
    orders are zero.  The family is immutable after construction.
    """

    def __init__(self, terms: Sequence):
        mats = [as_complex_matrix(t) for t in terms]
        if not mats:
            raise ValueError("need at least the constant term H_0")
        dim = mats[0].shape[0]
        for j, m in enumerate(mats):
            if m.shape[0] != dim:
                raise DimensionMismatch(
                    f"term {j} has dimension {m.shape[0]}, expected {dim}"
                )
        self._terms = tuple(m.copy() for m in mats)
        for m in self._terms:
            m.setflags(write=False)

    @property
    def dim(self) -> int:
        return self._terms[0].shape[0]

    @property
    def degree(self) -> int:
        return len(self._terms) - 1

    @property
    def terms(self) -> tuple[np.ndarray, ...]:
        return self._terms

    def term(self, j: int) -> np.ndarray:
        """H_j, a zero matrix for j beyond the polynomial degree."""
        if j < 0:
            raise ValueError("term index must be non-negative")
        if j <= self.degree:
            return self._terms[j]
        return np.zeros((self.dim, self.dim), dtype=np.complex128)

    def at(self, q: float) -> np.ndarray:
        """Evaluate H(q)."""
        return self.at_block([q])[0]

    def at_block(self, qs) -> np.ndarray:
        """H(q) at each of `qs`, as a (len(qs), N, N) stack.

        Raises ValueError naming q where a power q^j or an entry of H(q) is
        not finite.
        """
        qs = np.asarray(qs)
        dtype = np.result_type(qs, float)
        qs = qs.astype(dtype).tolist()  # python scalars: their pow raises on overflow
        # scalar powers: numpy's vector power can differ in the last bit
        powers = np.zeros((len(qs), len(self._terms)), dtype=dtype)
        for i, q in enumerate(qs):
            try:
                powers[i] = [q ** j for j in range(len(self._terms))]
            except OverflowError:
                raise ValueError(f"H(q) is not finite at q = {q:.6g}") from None
        out = np.zeros((len(qs), self.dim, self.dim), dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):
            for j, m in enumerate(self._terms):
                out += powers[:, j, None, None] * m
        finite = np.isfinite(out).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"H(q) is not finite at q = {qs[int(np.argmin(finite))]:.6g}")
        return out

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        scale = max(1.0, max(float(np.abs(m).max()) for m in self._terms))
        return all(
            float(np.abs(m - m.conj().T).max()) <= tol * scale for m in self._terms
        )


@dataclass(frozen=True, eq=False)
class GeneratorSeries:
    """Solved generator coefficients K_0^(j), K_1^(j), j = 0..order.

    Matrices live in the computational basis; `gauge` records how the
    residual diagonal freedom of K_0 was fixed.  `_block` holds the series
    block of the highest order requested (`corrections._all_block`); every
    construction, `dataclasses.replace` included, starts it empty.
    """

    order: int
    k0: tuple[np.ndarray, ...]
    k1: tuple[np.ndarray, ...]
    gauge: str
    frame: SpectralFrame
    _block: tuple | None = field(default=None, init=False, repr=False, compare=False)


def _commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def solve_generators(
    hamiltonian: PolynomialHamiltonian,
    frame: SpectralFrame,
    order: int,
    *,
    k0_diagonals: Sequence[np.ndarray] | None = None,
) -> GeneratorSeries:
    """Solve the commutator hierarchy up to the given order.

    Parameters
    ----------
    hamiltonian : PolynomialHamiltonian
        The family H(q); `frame` must be the eigenframe of its constant term.
    frame : SpectralFrame
        Canonical frame of H_0.
    order : int
        Highest generator order to solve (>= 0).
    k0_diagonals : sequence of (N,) arrays, optional
        Eigenframe diagonal of each K_0^(ell).  Default: all zero (the
        canonical gauge).  Nonzero choices exercise the residual gauge
        freedom and are propagated through all higher orders.

    Raises
    ------
    ConsistencyFailure
        If the diagonal of the commuting-part equation fails to vanish,
        which cannot happen for a frame actually built from H_0.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    if frame.dim != hamiltonian.dim:
        raise DimensionMismatch(
            f"frame dimension {frame.dim} != Hamiltonian dimension {hamiltonian.dim}"
        )
    if k0_diagonals is not None:
        if len(k0_diagonals) < order + 1:
            raise ValueError("need one K_0 diagonal per order")
        diags = [np.asarray(d, dtype=np.complex128) for d in k0_diagonals]
        for d in diags:
            if d.shape != (frame.dim,):
                raise DimensionMismatch("K_0 diagonal has wrong length")
        custom = any(np.any(d != 0) for d in diags[: order + 1])
    else:
        diags = None
        custom = False

    n = frame.dim
    degree = hamiltonian.degree
    h = frame.eigenvalues
    delta = h[:, None] - h[None, :]
    np.fill_diagonal(delta, 1.0)  # off-diagonal use only
    off = ~np.eye(n, dtype=bool)

    # frame representation of each Hamiltonian coefficient (zeros past degree)
    ah = [double_bracket(frame, m) for m in hamiltonian.terms]
    ah += [np.zeros((n, n), dtype=np.complex128)] * (order + 2 - len(ah))

    k0f: list[np.ndarray] = []
    k1f: list[np.ndarray] = []
    for ell in range(order + 1):
        amax = min(degree, ell)

        rhs1 = np.zeros((n, n), dtype=np.complex128)
        scale1 = 1.0
        for a in range(1, amax + 1):
            rhs1 -= _commutator(ah[a], k1f[ell - a])
            scale1 = max(
                scale1,
                float(np.abs(ah[a]).max()) * float(np.abs(k1f[ell - a]).max()),
            )
        worst = float(np.abs(np.diag(rhs1)).max()) if n else 0.0
        if worst > _CONSISTENCY_RTOL * scale1:
            raise ConsistencyFailure(
                f"order {ell}: commuting-part equation has nonzero diagonal "
                f"{worst:.3e} (scale {scale1:.3e})"
            )
        k1 = np.zeros((n, n), dtype=np.complex128)
        k1[off] = rhs1[off] / delta[off]

        comm0 = np.zeros((n, n), dtype=np.complex128)
        for a in range(1, amax + 1):
            comm0 += _commutator(ah[a], k0f[ell - a])
        np.fill_diagonal(
            k1, (ell + 1) * np.diag(ah[ell + 1]) - 1j * np.diag(comm0)
        )

        rhs0 = 1j * k1 - 1j * (ell + 1) * ah[ell + 1] - comm0
        k0 = np.zeros((n, n), dtype=np.complex128)
        k0[off] = rhs0[off] / delta[off]
        if diags is not None:
            np.fill_diagonal(k0, diags[ell])

        k1f.append(k1)
        k0f.append(k0)

    v, w = frame.right, frame.left
    k0_out = tuple(_frozen(v @ m @ w) for m in k0f)
    k1_out = tuple(_frozen(v @ m @ w) for m in k1f)
    return GeneratorSeries(
        order=order,
        k0=k0_out,
        k1=k1_out,
        gauge=GAUGE_CUSTOM_DIAGONAL if custom else GAUGE_ZERO_DIAGONAL,
        frame=frame,
    )


def _frozen(m: np.ndarray) -> np.ndarray:
    m.setflags(write=False)
    return m


def solve_model(hamiltonian: PolynomialHamiltonian, order: int, **kwargs) -> GeneratorSeries:
    """Convenience: build the frame of H_0 and solve in one call."""
    frame = eigenframe(hamiltonian.term(0), gap_tol=kwargs.pop("gap_tol", None))
    return solve_generators(hamiltonian, frame, order, **kwargs)


def hierarchy_residuals(
    hamiltonian: PolynomialHamiltonian, gens: GeneratorSeries
) -> np.ndarray:
    """Per-order defect norms of both commutator equations.

    For each ell <= gens.order, returns the entrywise max-norm of

        sum_a [H_a, K_0^(ell-a)] - i K_1^(ell) + i (ell+1) H_{ell+1}
        sum_a [H_a, K_1^(ell-a)]

    (max of the two).  Both vanish to roundoff for a valid solution, and are
    insensitive to diagonal (gauge) shifts of K_0 that commute with H_0.
    """
    if hamiltonian.dim != gens.frame.dim:
        raise DimensionMismatch("Hamiltonian and generator dimensions differ")
    degree = hamiltonian.degree
    out = np.zeros(gens.order + 1)
    for ell in range(gens.order + 1):
        amax = min(degree, ell)
        d0 = -1j * gens.k1[ell] + 1j * (ell + 1) * hamiltonian.term(ell + 1)
        d1 = np.zeros_like(d0)
        for a in range(amax + 1):
            d0 = d0 + _commutator(hamiltonian.term(a), gens.k0[ell - a])
            d1 = d1 + _commutator(hamiltonian.term(a), gens.k1[ell - a])
        out[ell] = max(float(np.abs(d0).max()), float(np.abs(d1).max()))
    return out
