"""Eigenvalue and eigenstate perturbation series from solved generators.

One kernel serves every state, and it runs in the eigenframe of H_0.  With
the frame matrices [[K]] = W K V of the generator solve
(`GeneratorSeries._k0f`, `._k1f`), the frame coefficients C^(k) = W S^(k)
of the state block S^(k) (column n is |n^(k)>) obey the transport
recursion |n^(k)> = -(i/k) sum_j K_0^(j-1) |n^(k-j)>:

    C^(0) = I,
    C^(k) = -(i/k) ( sum_{j=1..k-1} [[K_0^(j-1)]] C^(k-j) + [[K_0^(k-1)]] ),

where the j = k term, on C^(0) = I, is [[K_0^(k-1)]] itself, not a
product.  Then S = V C is formed once, as one stacked product.  The closed
form of S^(k) is a dual Bell word polynomial in the K_0 coefficients,
evaluated by `bellpoly._dual_bell_blocks`, the one holder of BB_k's tables
and word order:

    S^(k) = BB_k(0! (-i K_0^(0)), ..., (k-1)! (-i K_0^(k-1))) S^(0) / k!.

Eigenvalue corrections come from the eigenflow generator K_1.  Matching
powers of q in K_1 |n> = (dh_n/dq) |n> and contracting with the dual vector
<<n| = <<n^(0)| isolates h_n^(k):

    h_n^(k) = ( [[K_1^(k-1)]]_nn + sum_{j=1..k-1} ( <<n| K_1^(j-1) |n^(k-j)>
                                     - j h_n^(j) <<n|n^(k-j)> ) ) / k.

In the frame <<n| is row n of W, and both tables are read off the coefficients:

    T[j, m, n] = [[K_1^(j)]][n, :] . C^(m)[:, n]    (<<n| K_1^(j) |n^(m)>),
    D[m, n]    = C^(m)[n, n]                        (<<n|n^(m)>),

each T entry one dot product of length N, so that h^(k) = (T[k-1, 0] +
sum_j (T[j-1, k-j] - j h^(j) D[k-j])) / k touches only vectors of length
N, and no step depends on the order: a lower order's block is a prefix of a
higher one's, bit for bit.  T is formed only on the triangle j + m <=
order - 1 that h reads, one anti-diagonal per order.  One contraction,
`_contract`, runs on the recursion's coefficients of every state
(production) and on the Bell block of one state (cross check), which stays
in the computational basis, reads the views `GeneratorSeries.k0`, and is
mapped into the frame by one stacked W S; the two routes must agree to
roundoff.  `_contract` is the one series function that takes columns.
Diagonal gauge choices for K_0 change the state corrections but drop out of
h_n^(k) identically.

Each order is a few stacked numpy calls, not one per term: the recursion's
products K_0^(j-1) C^(k-j) are one stacked matmul and their sum one reduce,
and each h^(k) is the sum of one stacked term array.  Every sum runs in the
order of the per-term loop it replaces, under the two stacking rules
stated in `spectral`, so the blocks are the loop's bit for bit.

Production series come from one all-state block per solve: `_all_block`
keeps the read-only block of the highest order requested on the
`GeneratorSeries` and serves every lower order as a prefix slice.  The
per-state view is `build_series`, which copies its column out of it
(`eigenvalue_corrections` and `state_corrections_recursive` return its
fields), so a loop over all states costs one kernel call, and
`build_all_series` returns the same columns bit for bit.  The Bell route
stays per call and unmemoized: its independence from the recursion is what
its tests compare; no command runs it, since its cost grows like 2^order.

`_rs_block` is the biorthogonal Rayleigh-Schroedinger recursion, for every
state at any degree and order, from the frame matrices of H_1..H_p alone
(V^dagger H_j V gives a Hermitian family's textbook values); it serves the
pipeline's route check at every order, its `hermitian_reduction` check (the
textbook values), `rs_linear_corrections` and `crosscheck_linear`, whose
third route reads h^(1..3) of a linear family off [[K_1^(j)]] alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .bellpoly import _dual_bell_blocks
from .errors import DegreeMismatch
from .generators import GeneratorSeries, PolynomialHamiltonian, solve_generators
from .spectral import (SpectralFrame, _frozen, _rowdot, as_complex_matrix,
                       double_bracket, eigenframe, require_order, require_state)

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


def _series_block(gens: GeneratorSeries, order: int):
    """The block kernel: state blocks S^(0..order) and h^(0..order) of every state.

    The transport recursion runs on the frame coefficients C^(k) = W S^(k),
    from C^(0) = I, one stacked product and one reduce per order in the order
    of the sum; S = V C is formed once at the end and `_contract` reads h off
    C.  Returns (order + 1, N, N) state blocks and (order + 1, N) eigenvalue
    corrections.  Its caller, `_all_block`, vets `order` <= gens.order + 1:
    corrections of order K read K_0^(K-1).
    """
    frame, k0f = gens.frame, gens._k0f
    coeffs = np.zeros((order + 1, frame.dim, frame.dim), dtype=np.complex128)
    np.fill_diagonal(coeffs[0], 1.0)
    terms = np.empty((order, frame.dim, frame.dim), dtype=np.complex128)
    pairs, coeff_pairs = terms.view(np.float64), coeffs.view(np.float64)
    for k in range(1, order + 1):
        # K_0^(j-1) C^(k-j) for j = 1..k-1, then the j = k term K_0^(k-1) C^(0),
        # K_0^(k-1) itself: summed in that order
        if k > 1:
            np.matmul(k0f[: k - 1], coeffs[k - 1 : 0 : -1], out=terms[: k - 1])
        terms[k - 1] = k0f[k - 1]
        np.add.reduce(pairs[:k], axis=0, out=coeff_pairs[k])
        np.multiply(-1j / k, coeffs[k], out=coeffs[k])
    return frame.right @ coeffs, _contract(gens, slice(None), coeffs[:order])


def _contract(gens: GeneratorSeries, cols, coeffs: np.ndarray) -> np.ndarray:
    """h^(0..K) of the m states `cols`, (K + 1, m), from the frame coefficients
    C^(0..K-1) = W S^(0..K-1), (K, N, m), of the recursion on every state
    (`slice(None)`) or of the Bell route on one (`[n]`)."""
    order, idx = len(coeffs), np.arange(gens.frame.dim)[cols]
    m = len(idx)
    h = np.zeros((order + 1, m), dtype=np.complex128)
    h[0] = gens.frame.eigenvalues[idx]
    # pair(j, i)[c] = [[K_1^(j)]][cols[c], :] . C^(i)[:, c], read for j + i <= order - 1
    # only: the order-k terms are pair(k-1, 0), then pair(j-1, k-j) - j h^(j)
    # overlap[k-j] for j = 1..k-1, where overlap[i, c] = C^(i)[cols[c], c] is
    # stored reversed so that every term array is contiguous
    rows, columns = gens._k1f[:order, cols], coeffs.transpose(0, 2, 1)
    reverse = np.ascontiguousarray(coeffs[::-1, idx, np.arange(m)])
    # weighted[j-1] = j h^(j), formed once h^(j) is known
    weights = np.arange(1, order, dtype=np.complex128)[:, None]
    weighted = np.empty((max(order - 1, 0), m), dtype=np.complex128)
    terms = np.empty((order, m), dtype=np.complex128)
    pairs, h_pairs = terms.view(np.float64), h.view(np.float64)
    for k in range(1, order + 1):
        pair = _rowdot(rows[:k], columns[k - 1 :: -1])  # pair(j, k-1-j), j = 0..k-1
        terms[0] = pair[k - 1]
        if k > 1:
            np.multiply(weighted[: k - 1], reverse[order - k : order - 1], out=terms[1:k])
            np.subtract(pair[: k - 1], terms[1:k], out=terms[1:k])
        np.add.reduce(pairs[:k], axis=0, out=h_pairs[k])
        np.divide(h[k], k, out=h[k])
        if k < order:
            np.multiply(weights[k - 1], h[k], out=weighted[k - 1])
    return h


def _bell_states(gens: GeneratorSeries, n: int, order: int) -> np.ndarray:
    """State blocks S^(k) = BB_k(P_1, ..., P_k) |n^(0)> / k!, k = 0..order, of state
    `n`, (order + 1, N, 1), with P_a = (a-1)! (-i K_0^(a-1)), in the computational basis."""
    order = require_order(order, gens.order + 1)
    weights = np.array([factorial(a - 1) * -1j for a in range(1, order + 1)])
    symbols = weights.reshape(-1, 1, 1) * np.array(gens.k0[:order], dtype=np.complex128)
    blocks = _dual_bell_blocks(symbols, gens.frame.right[:, [n]])
    for k in range(1, order + 1):
        blocks[k] /= factorial(k)
    return blocks


def _all_block(gens: GeneratorSeries, order: int):
    """The all-state block of `order`: read-only state blocks S^(0..order)
    (order + 1, N, N) and h^(0..order) (order + 1, N).

    A prefix of the block memoized on `gens`; an order above it runs
    `_series_block` and replaces it, so `gens` holds (K + 1) N^2 complex
    numbers for the highest K requested.  Each call slices the block it read
    or computed, so a race may recompute, never shorten.
    """
    order = require_order(order, gens.order + 1)
    block = gens._block
    if block is None or order >= len(block[1]):
        block = tuple(map(_frozen, _series_block(gens, order)))
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
    return [s[:, 0] for s in _bell_states(gens, n, order)]


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
    states = _bell_states(gens, n, max(order - 1, 0))
    return _contract(gens, [n], gens.frame.left @ states[:order])[:, 0]


def _series_views(gens: GeneratorSeries, cols: slice, order: int) -> list[PerturbationSeries]:
    """The series of the columns `cols` of the all-state block, each holding
    read-only copies of its state and eigenvalue corrections."""
    states, h = _all_block(gens, order)
    per_state = _frozen(np.ascontiguousarray(states[:, :, cols].transpose(2, 0, 1)))
    values = _frozen(np.ascontiguousarray(h[:, cols].T))
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
    C^(k) = G o (X - sum_{0<i<k} C^(k-i) h^(i)), with G[m, n] = 1/(h_n - h_m).
    Each order is one stacked product and two reduces, each sum from a zero item."""
    n = h.size
    inv = h[None, :] - h[:, None]  # h_n - h_m at [m, n]
    np.fill_diagonal(inv, np.inf)
    inv = 1.0 / inv  # 0 on the diagonal: C^(k)_nn = 0 for k >= 1
    a = np.asarray(terms, dtype=np.complex128).reshape(len(terms), n, n)  # degree 0: no term
    coeffs = np.zeros((order + 1, n, n), dtype=np.complex128)
    np.fill_diagonal(coeffs[0], 1.0)
    out = np.zeros((order + 1, n), dtype=np.complex128)
    out[0] = h
    # item 0 of each sum stays zero: X = 0 + A_1 C^(k-1) + ..., S = 0 + C^(k-1) h^(1) + ...
    products = np.zeros((min(len(a), order) + 1, n, n), dtype=np.complex128)
    shifted = np.zeros((order, n, n), dtype=np.complex128)
    total = np.empty((n, n), dtype=np.complex128)  # S
    # for each number p = min(k, degree) of terms an order takes, its operands
    # and sum; rev[i] = C^(order - i), so an order's lower blocks are one slice
    spans = [(a[:p], products[1 : p + 1], products[: p + 1]) for p in range(len(a) + 1)]
    rev = coeffs[::-1]
    for k in range(1, order + 1):
        p = min(len(a), k)
        a_terms, span, sums = spans[p]
        np.matmul(a_terms, rev[order + 1 - k : order + 1 - k + p], out=span)  # A_j C^(k-j)
        x = coeffs[k]  # X, then X - S, then C^(k)
        np.add.reduce(sums, axis=0, out=x)
        out[k] = x.diagonal()
        np.multiply(coeffs[k - 1 : 0 : -1], out[1:k, None, :], out=shifted[1:k])
        np.add.reduce(shifted[:k], axis=0, out=total)
        np.multiply(inv, np.subtract(x, total, out=x), out=x)
    return out


def _equation_residuals(terms, states: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Relative residuals (K + 1, m) of H(q)|n(q)> = h_n(q)|n(q)>, order by order.

    For the terms H_j of the family, the (K + 1, N, m) state blocks S (column
    c of S^(k) is |n^(k)>) and the (K + 1, m) corrections h, entry [k, c] is
    the 2-norm of column c of

        R_k = sum_j H_j S^(k-j) - sum_i S^(k-i) diag(h^(i)),

    over the size of the terms that cancel in it, sum_t w_t ||S^(k-t)_c||
    with w_t = ||H_t||_2 + |h_c^(t)| (H_t = 0 past the degree; Kato 1966,
    ch. II), and 0 where every term is 0.  It reads neither the generators
    nor the frame, and no gauge of the states moves it.  The products
    H_j S^(k) are one stacked matmul, the 2-norms one stacked SVD, and the
    Cauchy sums shifted slice updates, one per term order.
    """
    size = len(states)
    terms = np.array(terms[:size])  # a term of order above K enters no R_k
    products = terms[:, None] @ states[None]  # H_j S^(k)
    weights = np.abs(h)
    weights[: len(terms)] += np.linalg.svd(terms, compute_uv=False)[:, :1]  # ||H_t||_2
    lengths = np.linalg.norm(states, axis=1)  # ||S^(k)_c||
    residual, scale = products[0], np.zeros_like(lengths)
    for j in range(1, len(terms)):
        residual[j:] += products[j, : size - j]
    shifted = np.empty_like(residual)
    for t in range(size):
        residual[t:] -= np.multiply(states[: size - t], h[t], out=shifted[: size - t])
        scale[t:] += weights[t] * lengths[: size - t]
    gaps = np.linalg.norm(residual, axis=1)
    return np.divide(gaps, scale, out=np.zeros_like(gaps), where=scale > 0)


def _row_residuals(terms, left: np.ndarray, states: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The eigenvalue row of `_equation_residuals`, (K + 1, N), for every state.

    Entry [k, n] is R_k projected on the left eigenvector l_n = W[n]: since
    l_n (H_0 - h_n^(0)) = 0, that leaves the scalar equation that fixes h_n^(k)
    (Kato 1966, ch. II),

        r_k,n = sum_{j>=1} l_n H_j S^(k-j)_n - sum_{i>=1} (l_n S^(k-i)_n) h_n^(i),

    over the sum of the moduli of its terms, floored at 1.  `terms` are the
    family's H_0..H_p; the rows l_n H_j are those of W H_j, one product per
    term, and every other step is a row dot, O(p K N^2).  The rows of
    [[H_j]] W = W H_j V W would carry the frame's defect V W - I, which grows
    with kappa(V): they read a correct dense family of kappa 128 at 3.6e-12.
    """
    size = len(states)
    columns = states.transpose(0, 2, 1)  # columns[m, n] = S^(m)_n
    overlap = _rowdot(left, columns)  # l_n S^(m)_n
    # a term of order above K enters no r_k; degree 0 or K = 0: no term at all
    rows = left @ np.reshape(terms[1:size], (-1, *left.shape))
    pairs = _rowdot(rows[:, None], columns[None])  # l_n H_j S^(m)_n at [j - 1, m, n]
    residual, scale = np.zeros_like(overlap), np.zeros(overlap.shape)
    for j, pair in enumerate(pairs, 1):
        residual[j:] += pair[: size - j]
        scale[j:] += np.abs(pair[: size - j])
    for i in range(1, size):
        term = overlap[: size - i] * h[i]
        residual[i:] -= term
        scale[i:] += np.abs(term)
    return np.abs(residual) / np.maximum(1.0, scale)


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


def _crosscheck(gens: GeneratorSeries) -> LinearCrosscheck:
    """The three routes to h^(1..3) on generators of a linear family solved to
    order >= 2 by `solve_generators`, whose stack [[H_1]] route c reads."""
    route_a = _all_block(gens, 3)[1][1:].T
    route_b = _k1_route_linear(gens)
    route_c = _rs_block(gens._hf, gens.frame.eigenvalues, 3)[1:].T
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


def crosscheck_linear(hamiltonian: PolynomialHamiltonian) -> LinearCrosscheck:
    """Compare the three linear-family routes to h^(1..3) for every state."""
    if hamiltonian.degree != 1:
        raise DegreeMismatch(
            f"expected a linear family (degree 1), got degree {hamiltonian.degree}"
        )
    return _crosscheck(solve_generators(hamiltonian, eigenframe(hamiltonian.term(0)), 2))
