"""Eigenvalue and eigenstate perturbation series from solved generators.

One kernel serves every state, and it runs in the eigenframe of H_0.  With
the frame matrices [[K]] = W K V of the generator solve
(`GeneratorSeries._k0f`, `._k1f`), the frame coefficients C^(k) = W S^(k)
of the state block S^(k) (column c is |cols[c]^(k)>) obey the transport
recursion |n^(k)> = -(i/k) sum_j K_0^(j-1) |n^(k-j)>:

    C^(0) = I[:, cols],
    C^(k) = -(i/k) ( sum_{j=1..k-1} [[K_0^(j-1)]] C^(k-j) + [[K_0^(k-1)]][:, cols] ),

where the j = k term, on C^(0), is a column slice, not a product.  Then
S = V C is formed once, as one stacked product.  The closed form of S^(k)
is a dual Bell word polynomial in the K_0 coefficients, applied once per
grade to the block:

    S^(k) = BB_k(0! (-i K_0^(0)), ..., (k-1)! (-i K_0^(k-1))) S^(0) / k!.

Eigenvalue corrections come from the eigenflow generator K_1.  Matching
powers of q in K_1 |n> = (dh_n/dq) |n> and contracting with the dual vector
<<n| = <<n^(0)| isolates h_n^(k):

    h_n^(k) = ( [[K_1^(k-1)]]_nn + sum_{j=1..k-1} ( <<n| K_1^(j-1) |n^(k-j)>
                                     - j h_n^(j) <<n|n^(k-j)> ) ) / k.

In the frame both tables are read off the coefficients, for n = cols[c]:

    T[j, m, c] = [[K_1^(j)]][n, :] . C^(m)[:, c]    (<<n| K_1^(j) |n^(m)>),
    D[m, c]    = C^(m)[n, c]                        (<<n|n^(m)>),

each T entry one dot product of length N, so that h^(k) = (T[k-1, 0] +
sum_j (T[j-1, k-j] - j h^(j) D[k-j])) / k touches only vectors of length
len(cols), and no step depends on the order: a lower order's block is a
prefix of a higher one's, bit for bit.  The same contraction runs on the
recursion's coefficients (production) and on the Bell blocks (cross
check), which stay in the computational basis, read the views
`GeneratorSeries.k0`, and are mapped into the frame by one stacked W S; the
two routes must agree to roundoff.  Diagonal gauge choices for K_0 change
the state corrections but drop out of h_n^(k) identically.

Production series come from one all-state block per solve: `_all_block`
keeps the read-only block of the highest order requested on the
`GeneratorSeries` and serves every lower order as a prefix slice.  The
per-state view is `build_series`, which copies its column out of it
(`eigenvalue_corrections` and `state_corrections_recursive` return its
fields), so a loop over all states costs one kernel call, and
`build_all_series` returns the same columns bit for bit.  The Bell route
stays per call and unmemoized: its independence from the recursion is what
the route check tests.

`_rs_block` is the biorthogonal Rayleigh-Schroedinger recursion, for every
state at any degree and order, from the frame matrices of H_1..H_p alone
(V^dagger H_j V gives a Hermitian family's textbook values); it serves
`rs_linear_corrections` and `crosscheck_linear`, whose third route reads
h^(1..3) of a linear family off [[K_1^(j)]] alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .bellpoly import dual_bell_coefficients, require_word_grade
from .errors import DegreeMismatch
from .generators import GeneratorSeries, PolynomialHamiltonian, solve_generators
from .spectral import (SpectralFrame, as_complex_matrix, double_bracket, eigenframe,
                       require_order, require_state)

_CROSSCHECK_TOL = 1e-10  # the linear cross check's fixed gate


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
    Every truncated eigenvalue series is evaluated here; the truncated states
    of `oracle._ray_residual_block` are summed by powers of q instead."""
    out = np.zeros_like(qs)
    for c in coeffs[:, ::-1].T:
        out = out * qs + c[:, None]
    return out


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum(a * b) over the last axis: one BLAS dot (that of `np.vdot`) per
    entry, whatever the batch shape, so each entry keeps a loop's bits."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _series_block(gens: GeneratorSeries, cols, order: int, states=None):
    """The block kernel: state blocks S^(0..order) and h^(0..order) of `cols`.

    The recursion runs on the frame coefficients C^(k) = W S^(k), from
    C^(0) = I[:, cols], and S = V C is formed once at the end.  `states`
    supplies computational-basis blocks instead (the Bell route); the
    contraction reads only W S^(0..order-1).  Returns the (order + 1, N, m)
    state blocks and the (order + 1, m) eigenvalue corrections.
    """
    order = require_order(order, gens.order + 1)  # corrections of order K read K_0^(K-1)
    frame = gens.frame
    k0f, m = gens._k0f, len(cols)
    if states is None:
        coeffs = np.zeros((order + 1, frame.dim, m), dtype=np.complex128)
        coeffs[0, cols, np.arange(m)] = 1.0
        for k in range(1, order + 1):
            last = k0f[k - 1][:, cols]  # the j = k term K_0^(k-1) C^(0): a column slice
            if k == 1:
                acc = last
            else:
                acc = k0f[0] @ coeffs[k - 1]
                for j in range(2, k):
                    acc += k0f[j - 1] @ coeffs[k - j]
                acc += last
            coeffs[k] = (-1j / k) * acc
        states = frame.right @ coeffs
    else:
        coeffs = frame.left @ states[:order]
    h = np.zeros((order + 1, m), dtype=np.complex128)
    h[0] = frame.eigenvalues[cols]
    # pair[j, i, c] = [[K_1^(j)]][cols[c], :] . C^(i)[:, c], overlap[i, c] = C^(i)[cols[c], c]
    pair = _rowdot(gens._k1f[:order, cols][:, None], coeffs[None, :order].transpose(0, 1, 3, 2))
    overlap = coeffs[:order, cols, np.arange(m)]
    for k in range(1, order + 1):
        acc = pair[k - 1, 0].copy()
        for j in range(1, k):
            acc += pair[j - 1, k - j] - j * h[j] * overlap[k - j]
        h[k] = acc / k
    return states, h


def _bell_block(gens: GeneratorSeries, cols, order: int) -> np.ndarray:
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
    order = require_word_grade(require_order(order, gens.order + 1))
    symbols = [None] + [factorial(a - 1) * -1j * gens.k0[a - 1] for a in range(1, order + 1)]
    v0 = gens.frame.right[:, cols]
    stacks = [v0[None]]  # grade 0: the identity word
    # chunk[0] carries the running sum, chunk[1:] one first letter's terms
    chunk = np.empty((1 + 2 ** max(order - 2, 0), *v0.shape), dtype=np.complex128)
    out = [v0]
    for k in range(1, order + 1):
        coefficients = dual_bell_coefficients(k)
        words = np.empty((2 ** (k - 1), *v0.shape), dtype=np.complex128) if k < order else None
        total = np.zeros_like(v0)
        start = 0
        for a in range(1, k + 1):
            stop = start + stacks[k - a].shape[0]
            terms = chunk[1 : 1 + stop - start]
            target = terms if words is None else words[start:stop]
            np.matmul(symbols[a], stacks[k - a], out=target)
            np.multiply(target, coefficients[start:stop, None, None], out=terms)
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
    return np.stack(out)


def _all_block(gens: GeneratorSeries, order: int):
    """The all-state block of `order`: read-only state blocks S^(0..order)
    (order + 1, N, N) and h^(0..order) (order + 1, N).

    A prefix of the block memoized on `gens`; an order above it runs
    `_series_block` on every column and replaces it, so `gens` holds
    (K + 1) N^2 complex numbers for the highest K requested.  Each call slices
    the block it read or computed, so a race may recompute, never shorten.
    """
    order = require_order(order, gens.order + 1)
    block = gens._block
    if block is None or order >= len(block[1]):
        block = _series_block(gens, np.arange(gens.frame.dim), order)
        for a in block:
            a.setflags(write=False)
        object.__setattr__(gens, "_block", block)
    return block[0][: order + 1], block[1][: order + 1]


def state_corrections_recursive(
    gens: GeneratorSeries, n: int, order: int
) -> list[np.ndarray]:
    """State corrections |n^(0)>..|n^(order)> by direct recursion."""
    return list(build_series(gens, n, order).state_corrections)


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
    return build_series(gens, n, order).eigenvalue_corrections


def eigenvalue_corrections_bell(
    gens: GeneratorSeries, n: int, order: int
) -> np.ndarray:
    """Eigenvalue corrections rebuilt from dual Bell word polynomials.

    Same contraction as `eigenvalue_corrections` but with every state
    correction re-derived as BB_m / m! acting on |n^(0)>; cross-check path.
    """
    n = require_state(n, gens.frame.dim)
    order = require_order(order, gens.order + 1)
    states = _bell_block(gens, [n], max(order - 1, 0))
    return _series_block(gens, [n], order, states)[1][:, 0]


def _series_views(gens: GeneratorSeries, cols: slice, order: int) -> list[PerturbationSeries]:
    """The series of the columns `cols` of the all-state block, each holding
    read-only copies of its state and eigenvalue corrections."""
    states, h = _all_block(gens, order)
    per_state = np.ascontiguousarray(states[:, :, cols].transpose(2, 0, 1))
    values = np.ascontiguousarray(h[:, cols].T)
    for a in (per_state, values):
        a.setflags(write=False)
    return [
        PerturbationSeries(
            state=n,
            order=int(order),  # _all_block accepted it
            eigenvalue_corrections=values[c],
            state_corrections=tuple(per_state[c]),
            gauge=gens.gauge,
        )
        for c, n in enumerate(range(gens.frame.dim)[cols])
    ]


def build_series(gens: GeneratorSeries, n: int, order: int) -> PerturbationSeries:
    """Assemble the full per-state series (production routes)."""
    n = require_state(n, gens.frame.dim)
    return _series_views(gens, slice(n, n + 1), order)[0]


def build_all_series(gens: GeneratorSeries, order: int) -> list[PerturbationSeries]:
    """Every state's series, read from the all-state block of `order`."""
    return _series_views(gens, slice(None), order)


def _rs_block(terms, h: np.ndarray, order: int) -> np.ndarray:
    """h^(0..order) of every state, (order + 1, N), by the Rayleigh-Schroedinger
    recursion from the frame matrices `terms` = A_1..A_p of H_1..H_p (W H_j V,
    or V^dagger H_j V for the orthonormal reduction) and the eigenvalues `h`:
    C^(0) = I, then X = sum_j A_j C^(k-j), h^(k) = diag X and
    C^(k) = G o (X - sum_{0<i<k} C^(k-i) h^(i)), with G[m, n] = 1/(h_n - h_m)."""
    inv = h[None, :] - h[:, None]  # h_n - h_m at [m, n]
    np.fill_diagonal(inv, np.inf)
    inv = 1.0 / inv  # 0 on the diagonal: C^(k)_nn = 0 for k >= 1
    coeffs = [np.eye(h.size, dtype=np.complex128)]
    out = np.zeros((order + 1, h.size), dtype=np.complex128)
    out[0] = h
    for k in range(1, order + 1):
        x = sum((a @ coeffs[k - j] for j, a in enumerate(terms[:k], 1)), np.zeros_like(coeffs[0]))
        out[k] = np.diag(x)
        coeffs.append(inv * (x - sum(coeffs[k - i] * out[i] for i in range(1, k))))
    return out


def rs_linear_corrections(
    frame: SpectralFrame, h1, n: int
) -> tuple[complex, complex, complex]:
    """First three eigenvalue corrections of H_0 + q H_1 from [[H_1]] alone,
    by the Rayleigh-Schroedinger recursion; h^(2) = sum_{m != n} [[H_1]]_nm
    [[H_1]]_mn / (h_n - h_m).  With a Hermitian frame these are the textbook
    values."""
    n = require_state(n, frame.dim)
    a = double_bracket(frame, as_complex_matrix(h1))
    h1c, h2c, h3c = _rs_block([a], frame.eigenvalues, 3)[1:, n]
    return complex(h1c), complex(h2c), complex(h3c)


def _k1_route_linear(gens: GeneratorSeries) -> np.ndarray:
    """h^(1..3) of every state of a linear family from [[K_1^(j)]] alone.

    Returns shape (N, 3).  h^(3) needs the off-diagonal second-order elements
    divided by the first-order correction differences; those elements vanish
    linearly with the same differences, so coincident first-order corrections
    contribute nothing (guarded explicitly).
    """
    b0, b1, b2 = gens._k1f[:3]
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


def _crosscheck(gens: GeneratorSeries, h1) -> LinearCrosscheck:
    """The three routes to h^(1..3) on generators of a linear family solved to
    order >= 2; `h1` is its H_1."""
    frame = gens.frame
    route_a = _all_block(gens, 3)[1][1:].T
    route_b = _k1_route_linear(gens)
    route_c = _rs_block([double_bracket(frame, h1)], frame.eigenvalues, 3)[1:].T
    routes = np.stack([route_a, route_b, route_c])
    dev = np.abs(routes[:, None] - routes[None]).max(axis=(0, 1))  # the worst pair
    scale = np.maximum(1.0, np.abs(routes).max(axis=0))
    per_state = np.max(dev / scale, axis=1)
    return LinearCrosscheck(
        recursion=route_a,
        k1_route=route_b,
        h1_route=route_c,
        per_state_deviation=per_state,
        max_relative_deviation=float(per_state.max()),
        tolerance=_CROSSCHECK_TOL,
    )


def crosscheck_linear(
    hamiltonian: PolynomialHamiltonian,
    *,
    gap_tol: float | None = None,
) -> LinearCrosscheck:
    """Compare the three linear-family routes to h^(1..3) for every state."""
    if hamiltonian.degree != 1:
        raise DegreeMismatch(
            f"expected a linear family (degree 1), got degree {hamiltonian.degree}"
        )
    frame = eigenframe(hamiltonian.term(0), gap_tol=gap_tol)
    return _crosscheck(solve_generators(hamiltonian, frame, 2), hamiltonian.term(1))
