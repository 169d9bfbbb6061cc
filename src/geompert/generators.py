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
forward pass.  The solved coefficients stay in the frame, as two
(order + 1, N, N) stacks that the series kernel reads directly; the
computational-basis matrices V K W are formed only when a consumer reads
`GeneratorSeries.k0` or `.k1`, with one stacked product per stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConsistencyFailure, DimensionMismatch
from .spectral import SpectralFrame, as_complex_matrix, double_bracket, eigenframe, require_order

GAUGE_ZERO_DIAGONAL = "zero-diagonal"
GAUGE_CUSTOM_DIAGONAL = "custom-diagonal"

# relative tolerance on the implied-zero diagonal in step (i)
_CONSISTENCY_RTOL = 1e-10
_HERMITIAN_TOL = 1e-12  # relative, for `PolynomialHamiltonian.is_hermitian`


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

    def is_hermitian(self) -> bool:
        scale = max(1.0, max(float(np.abs(m).max()) for m in self._terms))
        return all(
            float(np.abs(m - m.conj().T).max()) <= _HERMITIAN_TOL * scale for m in self._terms
        )


@dataclass(frozen=True, eq=False)
class GeneratorSeries:
    """Solved generator coefficients K_0^(j), K_1^(j), j = 0..order.

    `k0` and `k1` are tuples of read-only computational-basis matrices;
    `gauge` records how the residual diagonal freedom of K_0 was fixed.  The
    series kernel reads the frame stacks `_k0f`, `_k1f` ((order + 1, N, N),
    entries [[K]] = W K V).  A solve fills those and forms `k0`/`k1` on
    first read, one stacked V K W per stack, cached; a race may recompute
    them but never returns a partial tuple.  Direct construction (and
    `dataclasses.replace`) takes `k0`/`k1` and forms the stacks once.
    `_block` holds the series block of the highest order requested
    (`corrections._all_block`); every construction starts it empty.
    """

    order: int
    k0: tuple[np.ndarray, ...]
    k1: tuple[np.ndarray, ...]
    gauge: str
    frame: SpectralFrame
    _block: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _k0f: np.ndarray = field(init=False, repr=False, compare=False)
    _k1f: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.frame.dim
        for name in ("k0", "k1"):
            mats = getattr(self, name)
            if len(mats) != self.order + 1 or any(np.shape(m) != (n, n) for m in mats):
                raise DimensionMismatch(
                    f"{name} must hold order + 1 = {self.order + 1} matrices of shape "
                    f"({n}, {n}), got {[np.shape(m) for m in mats]}"
                )
        w, v = self.frame.left, self.frame.right
        object.__setattr__(self, "_k0f", _frozen(w @ np.stack(self.k0) @ v))
        object.__setattr__(self, "_k1f", _frozen(w @ np.stack(self.k1) @ v))

    @classmethod
    def _from_frame(cls, order, k0f, k1f, gauge, frame) -> GeneratorSeries:
        """A series over the frame stacks, its `k0`/`k1` not yet formed."""
        gens = object.__new__(cls)
        gens.__dict__.update(
            order=order, gauge=gauge, frame=frame, _block=None,
            _k0f=_frozen(k0f), _k1f=_frozen(k1f),
        )
        return gens

    def __getattr__(self, name):
        # reached only while `k0`/`k1` are not yet set: form the view once
        if name not in ("k0", "k1"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        stack = self._k0f if name == "k0" else self._k1f
        view = tuple(_frozen(self.frame.right @ stack @ self.frame.left))
        object.__setattr__(self, name, view)
        return view


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
    order = require_order(order)
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
    np.fill_diagonal(delta, 1.0)  # off-diagonal use only: the diagonals are overwritten

    # frame representation of each Hamiltonian coefficient (zeros past degree)
    ah = [double_bracket(frame, m) for m in hamiltonian.terms]
    ah += [np.zeros((n, n), dtype=np.complex128)] * (order + 2 - len(ah))
    ah_max = [float(np.abs(m).max(initial=0.0)) for m in ah[: degree + 1]]

    k0f = np.empty((order + 1, n, n), dtype=np.complex128)
    k1f = np.empty((order + 1, n, n), dtype=np.complex128)
    for ell in range(order + 1):
        amax = min(degree, ell)

        rhs1 = np.zeros((n, n), dtype=np.complex128)
        scale1 = 1.0
        for a in range(1, amax + 1):
            rhs1 -= _commutator(ah[a], k1f[ell - a])
            scale1 = max(scale1, ah_max[a] * float(np.abs(k1f[ell - a]).max(initial=0.0)))
        worst = float(np.abs(np.diag(rhs1)).max(initial=0.0))
        if worst > _CONSISTENCY_RTOL * scale1:
            raise ConsistencyFailure(
                f"order {ell}: commuting-part equation has nonzero diagonal "
                f"{worst:.3e} (scale {scale1:.3e})"
            )
        k1 = np.divide(rhs1, delta, out=k1f[ell])

        comm0 = np.zeros((n, n), dtype=np.complex128)
        for a in range(1, amax + 1):
            comm0 += _commutator(ah[a], k0f[ell - a])
        np.fill_diagonal(
            k1, (ell + 1) * np.diag(ah[ell + 1]) - 1j * np.diag(comm0)
        )

        rhs0 = 1j * k1 - 1j * (ell + 1) * ah[ell + 1] - comm0
        k0 = np.divide(rhs0, delta, out=k0f[ell])
        np.fill_diagonal(k0, 0.0 if diags is None else diags[ell])

    return GeneratorSeries._from_frame(
        order, k0f, k1f, GAUGE_CUSTOM_DIAGONAL if custom else GAUGE_ZERO_DIAGONAL, frame
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
    Each H_a adds one stacked commutator to all orders' defects, a = 0, 1, ...
    """
    if hamiltonian.dim != gens.frame.dim:
        raise DimensionMismatch("Hamiltonian and generator dimensions differ")
    size = gens.order + 1
    k0, k1 = np.stack(gens.k0), np.stack(gens.k1)
    d0, d1 = -1j * k1, np.zeros_like(k1)
    for ell, term in enumerate(hamiltonian.terms[1 : size + 1]):
        d0[ell] += 1j * (ell + 1) * term  # H_{ell+1}: none past the degree
    for a, term in enumerate(hamiltonian.terms[:size]):
        for d, k in ((d0, k0), (d1, k1)):
            comm = term @ k[: size - a]
            comm -= k[: size - a] @ term
            d[a:] += comm
    return np.maximum(np.abs(d0).max(axis=(1, 2)), np.abs(d1).max(axis=(1, 2)))
