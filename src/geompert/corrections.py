"""Eigenvalue and eigenstate perturbation series from solved generators.

One kernel serves every state.  The columns `cols` of the right frame V
form the block S^(0) = V[:, cols], and the transport recursion
|n^(k)> = -(i/k) sum_j K_0^(j-1) |n^(k-j)> runs on the whole block:

    S^(k) = -(i/k) sum_{j=1..k} K_0^(j-1) S^(k-j),   k >= 1,

so column c of S^(k) is |cols[c]^(k)>.  Its closed form is a dual Bell word
polynomial in the K_0 coefficients, applied once per grade to the block:

    S^(k) = BB_k(0! (-i K_0^(0)), ..., (k-1)! (-i K_0^(k-1))) S^(0) / k!.

Eigenvalue corrections come from the eigenflow generator K_1.  Matching
powers of q in K_1 |n> = (dh_n/dq) |n> and contracting with the dual vector
<<n| = <<n^(0)| isolates h_n^(k):

    h_n^(k) = ( [[K_1^(k-1)]]_nn + sum_{j=1..k-1} ( <<n| K_1^(j-1) |n^(k-j)>
                                     - j h_n^(j) <<n|n^(k-j)> ) ) / k.

With the dual rows W_c = W[cols], the kernel first builds small tables:

    R_j     = W_c K_1^(j)        rows, once per order j,
    T[j, m] = diag(R_j S^(m))    pair table, one batched matmul,
    D[m]    = diag(W_c S^(m)),

so that h^(k) = (T[k-1, 0] + sum_j (T[j-1, k-j] - j h^(j) D[k-j])) / k
touches only vectors of length len(cols).  The same contraction runs on the
recursion blocks (production) and on the Bell blocks (cross check); the two
must agree to roundoff.  Diagonal gauge choices for K_0 change the state
corrections but drop out of h_n^(k) identically.

Production series come from one all-state block per (solve, order):
`_all_block` runs the kernel on all N columns at the first request for an
order and memoizes the read-only result on the `GeneratorSeries`.  The
per-state functions (`build_series`, `eigenvalue_corrections`,
`state_corrections_recursive`) copy their column out of it, so a loop over
all states costs one kernel call, and `build_all_series` returns the same
columns bit for bit.  The Bell route stays per call and unmemoized: its
independence from the recursion is what the route check tests.

For a strictly linear family H_0 + q H_1 the first three corrections reduce
to closed forms in either [[K_1^(j)]] or [[H_1]] alone; `rs_linear_corrections`
and `crosscheck_linear` cover those, reproducing standard Rayleigh-
Schroedinger values in the Hermitian limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .bellpoly import dual_bell_coefficients
from .errors import DegreeMismatch, InsufficientOrder
from .generators import GeneratorSeries, PolynomialHamiltonian, solve_generators
from .spectral import SpectralFrame, as_complex_matrix, double_bracket, eigenframe, require_state


@dataclass(frozen=True, eq=False)
class PerturbationSeries:
    """Per-state series data: h_n^(k) and |n^(k)> for k = 0..order."""

    state: int
    order: int
    eigenvalue_corrections: np.ndarray
    state_corrections: tuple[np.ndarray, ...]
    gauge: str

    def eigenvalue_at(self, q: float) -> complex:
        """Truncated eigenvalue sum_{k<=order} q^k h^(k)."""
        return complex(_horner(self.eigenvalue_corrections[None], np.array([q]))[0, 0])


def _horner(coeffs: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Truncations sum_k qs^k coeffs[s, k] of (S, K+1) coefficients at every
    sample, shape (S, len(qs)), by Horner's rule step for step as np.polyval.
    Every truncated series in the package is evaluated here."""
    out = np.zeros_like(qs)
    for c in coeffs[:, ::-1].T:
        out = out * qs + c[:, None]
    return out


def _require_order(gens: GeneratorSeries, order: int) -> None:
    if order < 0:
        raise ValueError("order must be non-negative")
    if gens.order < order - 1:
        raise InsufficientOrder(
            f"generators solved to order {gens.order}, "
            f"need {order - 1} for corrections of order {order}"
        )


def _series_block(gens: GeneratorSeries, cols, order: int, states=None):
    """The block kernel: state blocks S^(0..order) and h^(0..order) of `cols`.

    `states` supplies the blocks instead of the transport recursion (the Bell
    route); the contraction reads only S^(0..order-1).  Returns the list of
    (N, m) state blocks and the (order + 1, m) eigenvalue corrections.
    """
    _require_order(gens, order)
    frame = gens.frame
    if states is None:
        states = [frame.right[:, cols]]
        for k in range(1, order + 1):
            acc = gens.k0[0] @ states[k - 1]
            for j in range(2, k + 1):
                acc += gens.k0[j - 1] @ states[k - j]
            states.append((-1j / k) * acc)
    w = frame.left[cols]
    h = np.zeros((order + 1, w.shape[0]), dtype=np.complex128)
    h[0] = frame.eigenvalues[cols]
    if order:
        s = np.stack(states[:order])  # (order, N, m)
        rows = np.stack([w @ gens.k1[j] for j in range(order)])  # (order, m, N)
        # pair[c, j, m] = R_j[c] . S^(m)[:, c]
        pair = rows.transpose(1, 0, 2) @ s.transpose(2, 1, 0)
        overlap = np.einsum("cn,knc->kc", w, s)
        for k in range(1, order + 1):
            acc = pair[:, k - 1, 0].copy()
            for j in range(1, k):
                acc += pair[:, j - 1, k - j] - j * h[j] * overlap[k - j]
            h[k] = acc / k
    return states, h


def _bell_block(gens: GeneratorSeries, cols, order: int) -> list[np.ndarray]:
    """State blocks S^(k) = BB_k(P_1, ..., P_k) S^(0) / k!, k = 0..order, with
    P_a = (a-1)! (-i K_0^(a-1)), every word of every grade applied on its own.

    The words of BB_k in lexicographic order are P_a w for a = 1..k and w
    running over BB_{k-a}'s words in the same order.  So the vectors of all
    grade-k words form one stack, the concatenation over `a` of P_a applied
    to the grade-(k-a) stack: k batched matmuls per grade instead of one
    product per word letter.  Each word vector is the same product chain as
    applying the word letter by letter, and the coefficient-weighted sum runs
    over the words in the same order, so the blocks equal the word-by-word
    evaluation (`bellpoly.evaluate_words`) bit for bit.

    Why every word stays: applying the BB recursion to a vector with the
    partial sums memoized *is* the transport recursion, term for term, since
    C(m,j) j! / (m+1)! = m! / ((m-j)! (m+1)!).  Folding the words into
    per-grade sums would make this route a second copy of the recursion, not
    a check of it; its only independent content is the word combinatorics.
    The time therefore grows like 2^order N^2 m.  Memory: the stacks of
    grades < order hold 2^(order-1) blocks of N x m, and one first-letter
    chunk of at most 2^(order-2) more is scaled and summed at a time, about
    3 * 2^(order-2) N m complex numbers in all (200 MB at N = m = 64,
    order 12).
    """
    _require_order(gens, order)
    coefficients = [dual_bell_coefficients(k).astype(np.complex128) for k in range(order + 1)]
    symbols = [None] + [factorial(a - 1) * -1j * gens.k0[a - 1] for a in range(1, order + 1)]
    v0 = gens.frame.right[:, cols]
    stacks = [v0[None]]  # grade 0: the identity word
    # chunk[0] carries the running sum, chunk[1:] one first letter's terms
    chunk = np.empty((1 + 2 ** max(order - 2, 0), *v0.shape), dtype=np.complex128)
    out = [v0]
    for k in range(1, order + 1):
        words = np.empty((2 ** (k - 1), *v0.shape), dtype=np.complex128) if k < order else None
        total = np.zeros_like(v0)
        start = 0
        for a in range(1, k + 1):
            stop = start + stacks[k - a].shape[0]
            terms = chunk[1 : 1 + stop - start]
            target = terms if words is None else words[start:stop]
            np.matmul(symbols[a], stacks[k - a], out=target)
            np.multiply(target, coefficients[k][start:stop, None, None], out=terms)
            chunk[0] = total
            # sum as real pairs: one word axis that is never the inner loop
            # keeps numpy's reduction sequential (a 1 x 1 block would go pairwise)
            total = np.add.reduce(chunk[: 1 + stop - start].view(np.float64), axis=0).view(
                np.complex128
            )
            start = stop
        if words is not None:
            stacks.append(words)
        out.append(total / factorial(k))
    return out


def _all_block(gens: GeneratorSeries, order: int):
    """The all-state block of `order`: read-only state blocks S^(0..order)
    (a tuple of N x N) and h^(0..order) (order + 1, N).

    The first request for an order runs `_series_block` on every column; the
    block is memoized on `gens`, so each (solve, order) runs the recursion
    and contraction once.  It holds (order + 1) N^2 complex numbers.
    """
    block = gens._blocks.get(order)
    if block is None:
        states, h = _series_block(gens, np.arange(gens.frame.dim), order)
        for a in (*states, h):
            a.setflags(write=False)
        # concurrent first requests may both compute; every caller gets the first stored
        block = gens._blocks.setdefault(order, (tuple(states), h))
    return block


def _columns(gens: GeneratorSeries, cols: slice, order: int):
    """Read-only copies of the columns `cols` of the all-state block: state
    corrections (m, order + 1, N) and eigenvalue corrections (m, order + 1)."""
    states, h = _all_block(gens, order)
    per_state = np.ascontiguousarray(np.stack([s[:, cols] for s in states]).transpose(2, 0, 1))
    values = np.ascontiguousarray(h[:, cols].T)
    for a in (per_state, values):
        a.setflags(write=False)
    return per_state, values


def _column_of(gens: GeneratorSeries, n) -> slice:
    """The column slice of state `n`, which must be an integer 0 <= n < N."""
    n = require_state(n, gens.frame.dim)
    return slice(n, n + 1)


def state_corrections_recursive(
    gens: GeneratorSeries, n: int, order: int
) -> list[np.ndarray]:
    """State corrections |n^(0)>..|n^(order)> by direct recursion."""
    return list(_columns(gens, _column_of(gens, n), order)[0][0])


def state_corrections_bell(
    gens: GeneratorSeries, n: int, order: int
) -> list[np.ndarray]:
    """State corrections via the dual Bell closed form (equals the recursion)."""
    n = require_state(n, gens.frame.dim)
    return [s[:, 0] for s in _bell_block(gens, [n], order)]


def eigenvalue_corrections(gens: GeneratorSeries, n: int, order: int) -> np.ndarray:
    """Eigenvalue corrections h_n^(0)..h_n^(order).

    Index k of the returned array holds h_n^(k); entry 0 is the frame
    eigenvalue.  Production path: dual-vector contraction against the
    recursion's state corrections.
    """
    return _columns(gens, _column_of(gens, n), order)[1][0]


def eigenvalue_corrections_bell(
    gens: GeneratorSeries, n: int, order: int
) -> np.ndarray:
    """Eigenvalue corrections rebuilt from dual Bell word polynomials.

    Same contraction as `eigenvalue_corrections` but with every state
    correction re-derived as BB_m / m! acting on |n^(0)>; cross-check path.
    """
    n = require_state(n, gens.frame.dim)
    _require_order(gens, order)
    states = _bell_block(gens, [n], max(order - 1, 0))
    return _series_block(gens, [n], order, states)[1][:, 0]


def _series_views(gens: GeneratorSeries, cols: slice, order: int) -> list[PerturbationSeries]:
    per_state, values = _columns(gens, cols, order)
    return [
        PerturbationSeries(
            state=n,
            order=order,
            eigenvalue_corrections=values[c],
            state_corrections=tuple(per_state[c]),
            gauge=gens.gauge,
        )
        for c, n in enumerate(range(gens.frame.dim)[cols])
    ]


def build_series(gens: GeneratorSeries, n: int, order: int) -> PerturbationSeries:
    """Assemble the full per-state series (production routes)."""
    return _series_views(gens, _column_of(gens, n), order)[0]


def build_all_series(gens: GeneratorSeries, order: int) -> list[PerturbationSeries]:
    """Every state's series, read from the all-state block of `order`."""
    return _series_views(gens, slice(None), order)


def _rs_closed_forms(a: np.ndarray, h: np.ndarray) -> np.ndarray:
    """h^(1..3) of every state from the frame matrix `a` of H_1, shape (N, 3).

    `a` is W H_1 V in the biorthogonal frame, or V^dagger H_1 V for the
    orthonormal reduction; `h` holds the unperturbed eigenvalues.
    """
    gaps = h[:, None] - h[None, :]
    np.fill_diagonal(gaps, 1.0)
    inv = 1.0 / gaps
    np.fill_diagonal(inv, 0.0)  # m = n drops out of every sum
    row = a * inv  # [[H_1]]_nm / (h_n - h_m)
    col = a.T * inv  # [[H_1]]_mn / (h_n - h_m)
    first = np.diag(a)
    second = np.sum(row * a.T, axis=1)
    third = np.sum((row @ a) * col, axis=1) - first * np.sum(row * col, axis=1)
    return np.stack([first, second, third], axis=1)


def rs_linear_corrections(
    frame: SpectralFrame, h1, n: int
) -> tuple[complex, complex, complex]:
    """First three eigenvalue corrections of H_0 + q H_1 in closed form.

    Sums over intermediate states with double-bracket matrix elements:

        h^(1) = [[H_1]]_nn
        h^(2) = sum_{m != n} [[H_1]]_nm [[H_1]]_mn / (h_n - h_m)
        h^(3) = sum_{m,l != n} [[H_1]]_nm [[H_1]]_ml [[H_1]]_ln
                    / ((h_n - h_m)(h_n - h_l))
                - h^(1) sum_{m != n} [[H_1]]_nm [[H_1]]_mn / (h_n - h_m)^2

    With a Hermitian frame these are the textbook Rayleigh-Schroedinger
    formulas.
    """
    n = require_state(n, frame.dim)
    a = double_bracket(frame, as_complex_matrix(h1))
    h1c, h2c, h3c = _rs_closed_forms(a, frame.eigenvalues)[n]
    return complex(h1c), complex(h2c), complex(h3c)


def _k1_route_linear(gens: GeneratorSeries) -> np.ndarray:
    """h^(1..3) of every state of a linear family from [[K_1^(j)]] alone.

    Returns shape (N, 3).  h^(3) needs the off-diagonal second-order elements
    divided by the first-order correction differences; those elements vanish
    linearly with the same differences, so coincident first-order corrections
    contribute nothing (guarded explicitly).
    """
    b0, b1, b2 = (double_bracket(gens.frame, gens.k1[j]) for j in range(3))
    first = np.diag(b0)
    dh1 = first[None, :] - first[:, None]  # h_m^(1) - h_n^(1) at [n, m]
    scale = float(np.abs(first).max()) + 1.0
    safe = np.abs(dh1) > 1e-13 * scale
    ratio = np.divide(b1 * b1.T, dh1, out=np.zeros_like(dh1), where=safe)
    third = np.diag(b2) / 3.0 - ratio.sum(axis=1) / 3.0
    return np.stack([first, np.diag(b1) / 2.0, third], axis=1)


@dataclass(frozen=True, eq=False)
class LinearCrosscheck:
    """Three-route comparison of h^(1..3) for a linear family.

    Rows of each route array are states, columns are orders 1..3.
    `max_relative_deviation` is the worst pairwise disagreement, measured
    relative to the per-state coefficient scale (floored at 1).
    """

    recursion: np.ndarray
    k1_route: np.ndarray
    h1_route: np.ndarray
    per_state_deviation: np.ndarray
    max_relative_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_relative_deviation <= self.tolerance


def _crosscheck(gens: GeneratorSeries, h1, tolerance: float) -> LinearCrosscheck:
    """The three routes to h^(1..3) on generators of a linear family solved to
    order >= 2; `h1` is its H_1."""
    frame = gens.frame
    route_a = _all_block(gens, 3)[1][1:].T
    route_b = _k1_route_linear(gens)
    route_c = _rs_closed_forms(double_bracket(frame, h1), frame.eigenvalues)
    dev = np.maximum(
        np.abs(route_a - route_b),
        np.maximum(np.abs(route_a - route_c), np.abs(route_b - route_c)),
    )
    scale = np.maximum(
        1.0,
        np.max(np.abs(np.stack([route_a, route_b, route_c])), axis=0),
    )
    per_state = np.max(dev / scale, axis=1)
    return LinearCrosscheck(
        recursion=route_a,
        k1_route=route_b,
        h1_route=route_c,
        per_state_deviation=per_state,
        max_relative_deviation=float(per_state.max()),
        tolerance=tolerance,
    )


def crosscheck_linear(
    hamiltonian: PolynomialHamiltonian,
    *,
    tolerance: float = 1e-10,
    gap_tol: float | None = None,
) -> LinearCrosscheck:
    """Compare the three linear-family routes to h^(1..3) for every state."""
    if hamiltonian.degree != 1:
        raise DegreeMismatch(
            f"expected a linear family (degree 1), got degree {hamiltonian.degree}"
        )
    frame = eigenframe(hamiltonian.term(0), gap_tol=gap_tol)
    return _crosscheck(solve_generators(hamiltonian, frame, 2), hamiltonian.term(1), tolerance)
