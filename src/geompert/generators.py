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
forward pass.  The solved coefficients stay in the frame, as one
(2, order + 1, N, N) stack (K_0, then K_1) that the series kernel reads
directly; the computational-basis matrices V K W are formed only when a
consumer reads `GeneratorSeries.k0` or `.k1`, with one stacked product.

Each order takes all its commutators [A_a, K^(ell-a)] of both stacks from
one stacked product pair and sums them in one reduce, and keeps the bits of
one product and one addition per term, by the two stacking rules stated in
`spectral`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConsistencyFailure, DimensionMismatch
from .spectral import (SpectralFrame, _frozen, as_complex_matrix, double_bracket,
                       eigenframe, require_order)

GAUGE_ZERO_DIAGONAL = "zero-diagonal"
GAUGE_CUSTOM_DIAGONAL = "custom-diagonal"

# relative tolerance on the implied-zero diagonal in step (i)
_CONSISTENCY_RTOL = 1e-10
_HERMITIAN_TOL = 1e-12  # relative, for `PolynomialHamiltonian.is_hermitian`
_CHUNK_ENTRIES = 8192  # matrix entries per stack in one chunk of `hierarchy_residuals`


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
        self._terms = tuple(_frozen(m.copy()) for m in mats)

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

    `k0` and `k1` are tuples of read-only computational-basis matrices, the
    items of the stack `_kc` ((2, order + 1, N, N): K_0 then K_1); `gauge`
    records how the residual diagonal freedom of K_0 was fixed.  The series
    kernel reads the frame stack `_kf` of the same shape (entries
    [[K]] = W K V), as `_k0f` and `_k1f`.  A solve fills that and forms `_kc`
    and the tuples on first read, one stacked V K W, cached; a race may
    recompute them but never returns a partial tuple.  Direct construction
    (and `dataclasses.replace`) takes any `k0`/`k1` and forms both stacks once.
    `_hf` is the solve's read-only (degree, N, N) stack [[H_1]]..[[H_p]], the
    one bracket of the family that the checks read; direct construction has none.
    `_block` holds the series block of the highest order requested
    (`corrections._all_block`); every construction starts it empty.
    """

    order: int
    k0: tuple[np.ndarray, ...]
    k1: tuple[np.ndarray, ...]
    gauge: str
    frame: SpectralFrame
    _block: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _hf: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _kf: np.ndarray = field(init=False, repr=False, compare=False)
    _kc: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.frame.dim
        for name in ("k0", "k1"):
            mats = getattr(self, name)
            if len(mats) != self.order + 1 or any(np.shape(m) != (n, n) for m in mats):
                raise DimensionMismatch(
                    f"{name} must hold order + 1 = {self.order + 1} matrices of shape "
                    f"({n}, {n}), got {[np.shape(m) for m in mats]}"
                )
        stack = _frozen(np.array([self.k0, self.k1], dtype=np.complex128))
        object.__setattr__(self, "_kf", _frozen(self.frame.left @ stack @ self.frame.right))
        self.__dict__.update(k0=tuple(stack[0]), k1=tuple(stack[1]), _kc=stack)

    @classmethod
    def _from_frame(cls, order, kf, gauge, frame, hf) -> GeneratorSeries:
        """A series over the frame stacks `kf` and `hf`, its `k0`/`k1` not yet formed."""
        gens = object.__new__(cls)
        gens.__dict__.update(order=order, gauge=gauge, frame=frame, _block=None,
                             _kf=_frozen(kf), _hf=hf)
        return gens

    @property
    def _k0f(self) -> np.ndarray:
        return self._kf[0]

    @property
    def _k1f(self) -> np.ndarray:
        return self._kf[1]

    def __getattr__(self, name):
        # reached only while `_kc` is not yet set: form it and the tuples once
        if name not in ("k0", "k1", "_kc"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        stack = _frozen(self.frame.right @ self._kf @ self.frame.left)
        self.__dict__.update(k0=tuple(stack[0]), k1=tuple(stack[1]), _kc=stack)
        return getattr(self, name)


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
        Eigenframe diagonal of each K_0^(ell), held as one (order + 1, N)
        array, zero by default (the canonical gauge).  Nonzero choices exercise
        the residual gauge freedom and are propagated through all higher orders.

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
    diags = np.zeros((order + 1, frame.dim), dtype=np.complex128)
    if k0_diagonals is not None:
        if len(k0_diagonals) < order + 1:
            raise ValueError("need one K_0 diagonal per order")
        given = [np.asarray(d, dtype=np.complex128) for d in k0_diagonals]
        if any(d.shape != (frame.dim,) for d in given):
            raise DimensionMismatch("K_0 diagonal has wrong length")
        diags[:] = given[: order + 1]

    n = frame.dim
    degree = hamiltonian.degree
    h = frame.eigenvalues
    delta = h[:, None] - h[None, :]
    np.fill_diagonal(delta, 1.0)  # off-diagonal use only: the diagonals are overwritten

    # the frame stack A_1..A_p of H_1..H_p, kept on the series; [[H_0]] = diag(h)
    terms = np.array([double_bracket(frame, m) for m in hamiltonian.terms[1:]], np.complex128)
    terms = _frozen(terms.reshape(degree, n, n))
    # the drives (ell + 1) [[H_{ell+1}]] of the K_1 diagonal, zero past the degree
    drive = np.zeros((max(order + 1, degree), n), dtype=np.complex128)
    drive[:degree] = np.arange(1, degree + 1)[:, None] * terms.diagonal(axis1=1, axis2=2)

    # kf[0] is the K_0 stack, kf[1] the K_1 stack, `diagonals` views their
    # diagonals; implied[ell] is the diagonal of step (i)'s right-hand side
    kf = np.empty((2, order + 1, n, n), dtype=np.complex128)
    diagonals = kf.reshape(2, order + 1, n * n)[..., :: n + 1]
    implied = np.empty((order + 1, n), dtype=np.complex128)
    # comm[s, 0] = 0 and comm[s, a] = [A_a, K_s^(ell-a)]; ka holds K A, then
    # the drive; comm0 holds sum_a comm[0, a] and `scratch` i diag(comm0)
    comm = np.zeros((2, degree + 1, n, n), dtype=np.complex128)
    ka = np.empty((2, degree, n, n), dtype=np.complex128)
    comm0 = np.empty((n, n), dtype=np.complex128)
    scratch = np.empty(n, dtype=np.complex128)
    # views taken once: for each number a = min(ell, p) of terms an order takes,
    # its operands and sums; and rev[:, i] = kf[:, order - i], so an order's
    # lower stacks are one slice
    spans = [(terms[:a], comm[:, 1 : a + 1], ka[:, :a], comm[1, : a + 1], comm[0, : a + 1])
             for a in range(degree + 1)]
    rev = kf[:, ::-1]
    for ell in range(order + 1):
        amax = min(degree, ell)
        a_terms, products, kas, sum1, sum0 = spans[amax]
        # every commutator of the order from one stacked product pair
        lower = rev[:, order + 1 - ell : order + 1 - ell + amax]  # K^(ell-1), ..., K^(ell-amax)
        np.matmul(a_terms, lower, out=products)
        np.matmul(lower, a_terms, out=kas)
        np.subtract(products, kas, out=products)
        # 0 - c_1 - c_2 - ... (into K_1^(ell)'s slot) and 0 + c_1 + c_2 + ..., each in order
        np.subtract.reduce(sum1, axis=0, out=kf[1, ell])
        np.add.reduce(sum0, axis=0, out=comm0)

        k1 = kf[1, ell]
        k1_diagonal = diagonals[1, ell]
        implied[ell] = k1_diagonal
        np.divide(k1, delta, out=k1)
        np.subtract(drive[ell], np.multiply(1j, comm0.diagonal(), out=scratch), out=k1_diagonal)

        # i K_1^(ell) - i (ell + 1) [[H_{ell+1}]] - sum_a [A_a, K_0^(ell-a)]; past
        # the degree, subtracting 0 is exact
        rhs0 = np.multiply(1j, k1, out=kf[0, ell])
        if ell < degree:
            rhs0 -= np.multiply(1j * (ell + 1), terms[ell], out=ka[0, 0])
        rhs0 -= comm0
        np.divide(rhs0, delta, out=rhs0)
        diagonals[0, ell] = diags[ell]

    # step (i)'s implied zero, for every order at once: each order's scale is
    # the largest max|[[H_a]]| max|K_1^(ell-a)|, a <= ell, at least 1
    worst = np.abs(implied).max(axis=1)
    k1_max = np.abs(kf[1]).max(axis=(1, 2))
    scale = np.ones(order + 1)
    for a, term in enumerate(terms[:order], 1):
        np.fmax(scale[a:], np.abs(term).max() * k1_max[: order + 1 - a], out=scale[a:])
    failed = np.flatnonzero(worst > _CONSISTENCY_RTOL * scale)
    if failed.size:
        ell = failed[0]
        raise ConsistencyFailure(
            f"order {ell}: commuting-part equation has nonzero diagonal "
            f"{worst[ell]:.3e} (scale {scale[ell]:.3e})"
        )
    return GeneratorSeries._from_frame(
        order, kf, GAUGE_CUSTOM_DIAGONAL if diags.any() else GAUGE_ZERO_DIAGONAL, frame, terms
    )


def solve_model(hamiltonian: PolynomialHamiltonian, order: int) -> GeneratorSeries:
    """Convenience: the canonical-gauge solve on the frame of H_0."""
    return solve_generators(hamiltonian, eigenframe(hamiltonian.term(0)), order)


def hierarchy_residuals(
    hamiltonian: PolynomialHamiltonian, gens: GeneratorSeries
) -> np.ndarray:
    """Per-order defect norms of both commutator equations.

    For each ell <= gens.order, returns the entrywise max-norm of

        sum_a [H_a, K_0^(ell-a)] - i K_1^(ell) + i (ell+1) H_{ell+1}
        sum_a [H_a, K_1^(ell-a)]

    (max of the two).  Both vanish to roundoff for a valid solution, and are
    insensitive to diagonal (gauge) shifts of K_0 that commute with H_0.
    The orders are taken in chunks of at most `_CHUNK_ENTRIES` matrix entries
    (all of them up to N = 16, two at N = 64), so that a chunk's buffers stay
    in cache; within a chunk each H_a adds one stacked commutator of both
    stacks to every order's defects, a = 0, 1, ...
    """
    if hamiltonian.dim != gens.frame.dim:
        raise DimensionMismatch("Hamiltonian and generator dimensions differ")
    size = gens.order + 1
    kc = gens._kc
    n = gens.frame.dim
    # d[0], d[1]: the defects of the K_0 and the K_1 equation
    d = np.zeros_like(kc)
    np.multiply(-1j, kc[1], out=d[0])
    for ell, term in enumerate(hamiltonian.terms[1 : size + 1]):
        d[0, ell] += 1j * (ell + 1) * term  # H_{ell+1}: none past the degree
    chunk = min(size, max(1, _CHUNK_ENTRIES // (n * n)))
    comm, ka = np.empty((2, 2, chunk, n, n), dtype=np.complex128)
    for lo in range(0, size, chunk):
        hi = min(size, lo + chunk)
        for a, term in enumerate(hamiltonian.terms[:hi]):
            first = max(lo, a)  # orders first..hi-1 read K^(first-a..hi-1-a)
            lower, products = kc[:, first - a : hi - a], comm[:, : hi - first]
            np.matmul(term, lower, out=products)
            np.matmul(lower, term, out=ka[:, : hi - first])
            products -= ka[:, : hi - first]
            d[:, first:hi] += products
    return np.abs(d).max(axis=(2, 3)).max(axis=0)
