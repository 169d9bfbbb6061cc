"""Shared test oracles and model generators.

Everything here is deliberately independent of the production solve paths:
model families are built from explicit eigendata, and the closed-form
expressions are coded directly from their definitions so they can stand as
references for the recursion engines.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

import numpy as np

from geompert import (
    DegenerateSpectrum,
    NonFiniteEntry,
    NonSquare,
    PairingAmbiguous,
    PolynomialHamiltonian,
    double_bracket,
    SchemaError,
    exact_spectrum_sweep,
)
from geompert.oracle import _STENCILS
from geompert.spectral import min_pairwise_gap


def spaced_values(rng, n, spacing=1.0, jitter=0.2, complex_part=True):
    """n values with pairwise real-part separation >= spacing - jitter."""
    base = spacing * np.arange(n)
    vals = base + jitter * (rng.uniform(-0.5, 0.5, n))
    if complex_part:
        vals = vals + 1j * jitter * rng.uniform(-0.5, 0.5, n)
    return vals


def linear_family(rng, n, *, hermitian=False):
    """Random linear family H_0 + q H_1 with well-separated unperturbed
    eigenvalues and well-separated first-order corrections.

    Built from explicit eigendata so gaps are guaranteed by construction:
    eigenvalues are spaced >= 0.8 apart, and the frame-diagonal of H_1 (the
    first-order corrections) likewise.
    """
    if hermitian:
        lam = spaced_values(rng, n, complex_part=False).real
        q_mat, _ = np.linalg.qr(
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        )
        h0 = q_mat @ np.diag(lam).astype(complex) @ q_mat.conj().T
        h0 = (h0 + h0.conj().T) / 2
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h1 = (b + b.conj().T) / 2
    else:
        lam = spaced_values(rng, n)
        s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h0 = s @ np.diag(lam) @ np.linalg.inv(s)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        np.fill_diagonal(a, spaced_values(rng, n))
        h1 = s @ a @ np.linalg.inv(s)
    return PolynomialHamiltonian([h0, h1])


def textbook_rs_corrections(h0, h1, n):
    """Standard Rayleigh-Schroedinger h^(1..3) for Hermitian h0, from an
    orthonormal eigenbasis (no biorthogonal machinery)."""
    lam, u = np.linalg.eigh(h0)
    a = u.conj().T @ h1 @ u
    mask = np.arange(lam.size) != n
    dn = lam[n] - lam[mask]
    row, col = a[n, mask], a[mask, n]
    h1c = a[n, n]
    h2c = np.sum(row * col / dn)
    h3c = (row / dn) @ a[np.ix_(mask, mask)] @ (col / dn) - h1c * np.sum(
        row * col / dn**2
    )
    return complex(h1c), complex(h2c), complex(h3c)


def reference_rs_closed_forms(a, h):
    """h^(1..3) of every state of H_0 + q H_1, shape (N, 3), from the frame
    matrix `a` of H_1 and the eigenvalues `h`, by the hand-expanded
    Rayleigh-Schroedinger sums over intermediate states m, l != n:

        h^(1) = a_nn,    h^(2) = sum_m a_nm a_mn / (h_n - h_m),
        h^(3) = sum_{m,l} a_nm a_ml a_ln / ((h_n - h_m)(h_n - h_l))
                - h^(1) sum_m a_nm a_mn / (h_n - h_m)^2.
    """
    gaps = h[:, None] - h[None, :]
    np.fill_diagonal(gaps, 1.0)
    inv = 1.0 / gaps
    np.fill_diagonal(inv, 0.0)  # m = n drops out of every sum
    row = a * inv  # a_nm / (h_n - h_m)
    col = a.T * inv  # a_mn / (h_n - h_m)
    first = np.diag(a)
    second = np.sum(row * a.T, axis=1)
    third = np.sum((row @ a) * col, axis=1) - first * np.sum(row * col, axis=1)
    return np.stack([first, second, third], axis=1)


def reference_rs_extended(hamiltonian, order):
    """h^(0..order) of every state, shape (order + 1, N), all in 40 digits:
    mpmath's eigensolve of H_0 in canonical (real, imaginary) order, its
    inverse as the dual frame, and the Rayleigh-Schroedinger recursion over
    the frame matrices of every term."""
    import mpmath  # a dependency of sympy

    dim = hamiltonian.dim
    with mpmath.workdps(40):
        def mat(a):
            return mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in a])

        ev, vr = mpmath.eig(mat(hamiltonian.term(0)))
        perm = sorted(range(dim), key=lambda i: (ev[i].real, ev[i].imag))
        h = [ev[i] for i in perm]
        v = mpmath.matrix([[vr[r, i] for i in perm] for r in range(dim)])
        w = mpmath.inverse(v)
        terms = [w * mat(hamiltonian.term(j)) * v for j in range(1, hamiltonian.degree + 1)]
        coeffs, values = [mpmath.eye(dim)], [h]
        for k in range(1, order + 1):
            x = mpmath.zeros(dim, dim)
            for j, a in enumerate(terms[:k], 1):
                x += a * coeffs[k - j]
            values.append([x[n, n] for n in range(dim)])
            c = mpmath.zeros(dim, dim)
            for m in range(dim):
                for n in range(dim):
                    if m != n:
                        rest = sum(coeffs[k - i][m, n] * values[i][n] for i in range(1, k))
                        c[m, n] = (x[m, n] - rest) / (h[n] - h[m])
            coeffs.append(c)
        return np.array([[complex(z) for z in row] for row in values])


def reference_rs_block(terms, h, order):
    """h^(0..order) of every state by the Rayleigh-Schroedinger recursion in
    double, one product and one addition per term: the per-term loop the
    stacked `corrections._rs_block` must match bit for bit."""
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


# ---------------------------------------------------------------------------
# closed forms for low-order generator matrix elements of a linear family in
# the zero-diagonal gauge, coded straight from their definitions
# ---------------------------------------------------------------------------


def _frame_elements(frame, h1):
    a = double_bracket(frame, h1)
    h = frame.eigenvalues
    return a, h, np.diag(a)


def k0_order0_offdiag(frame, h1):
    """Predicted [[K_0^(0)]]_nm = -i [[H_1]]_nm / (h_n - h_m) for n != m."""
    a, h, _ = _frame_elements(frame, h1)
    n = frame.dim
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            if i != j:
                out[i, j] = -1j * a[i, j] / (h[i] - h[j])
    return out


def k1_order1_diag(frame, h1):
    """Predicted [[K_1^(1)]]_nn = 2 sum_m [[H_1]]_nm [[H_1]]_mn / (h_n - h_m)."""
    a, h, _ = _frame_elements(frame, h1)
    n = frame.dim
    out = np.zeros(n, dtype=complex)
    for i in range(n):
        for m in range(n):
            if m != i:
                out[i] += 2 * a[i, m] * a[m, i] / (h[i] - h[m])
    return out


def k0_order1_offdiag(frame, h1, k00_diag):
    """Predicted [[K_0^(1)]]_nm for n != m.

    Three contributions: a first-order-correction difference term, a two-step
    intermediate-state sum, and a gauge term carrying the diagonal of
    [[K_0^(0)]] (zero in the canonical gauge, passed in explicitly).
    """
    a, h, first = _frame_elements(frame, h1)
    n = frame.dim
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            term = 2j * (first[i] - first[j]) * a[i, j] / (h[i] - h[j]) ** 2
            for k in range(n):
                if k in (i, j):
                    continue
                term += (
                    1j
                    * (2 * h[k] - h[i] - h[j])
                    * a[i, k]
                    * a[k, j]
                    / ((h[k] - h[j]) * (h[k] - h[i]) * (h[i] - h[j]))
                )
            term += (k00_diag[i] - k00_diag[j]) * a[i, j] / (h[i] - h[j])
            out[i, j] = term
    return out


def k1_order2_diag(frame, h1):
    """Predicted [[K_1^(2)]]_nn for a linear family in the zero-diagonal gauge."""
    a, h, first = _frame_elements(frame, h1)
    n = frame.dim
    out = np.zeros(n, dtype=complex)
    for i in range(n):
        for m in range(n):
            if m != i:
                out[i] += (
                    (first[m] - 4 * first[i])
                    * a[i, m]
                    * a[m, i]
                    / (h[m] - h[i]) ** 2
                )
        for m in range(n):
            for k in range(n):
                if m != i and k != i:
                    out[i] += (
                        3
                        * a[i, m]
                        * a[m, k]
                        * a[k, i]
                        / ((h[m] - h[i]) * (h[k] - h[i]))
                    )
    return out


def worked_low_order_corrections(gens, n):
    """h^(1..3) assembled from the explicit low-order double-bracket
    expressions (valid in any diagonal gauge):

      h1 = [[K1_0]]
      h2 = ( [[K1_1]] - i [[K1_0 K0_0]] + i [[K0_0]] h1 ) / 2
      h3 = ( 2 [[K1_2]] - 2i [[K1_1 K0_0]] - i [[K1_0 K0_1]] - [[K1_0 K0_0^2]]
             + i [[K0_1]] h1 + [[K0_0^2]] h1 + 4i [[K0_0]] h2 ) / 6

    with every bracket taken at state n.
    """
    frame = gens.frame
    k00, k01 = gens.k0[0], gens.k0[1]
    k10, k11, k12 = gens.k1[0], gens.k1[1], gens.k1[2]

    def dsb(mat):
        return double_bracket(frame, mat)[n, n]

    h1 = dsb(k10)
    h2 = (dsb(k11) - 1j * dsb(k10 @ k00) + 1j * dsb(k00) * h1) / 2
    h3 = (
        2 * dsb(k12)
        - 2j * dsb(k11 @ k00)
        - 1j * dsb(k10 @ k01)
        - dsb(k10 @ k00 @ k00)
        + 1j * dsb(k01) * h1
        + dsb(k00 @ k00) * h1
        + 4j * dsb(k00) * h2
    ) / 6
    return h1, h2, h3


def reference_normalize_columns(vecs, phase_tol):
    """Unit 2-norm columns with the first component above `phase_tol` times
    the column's largest magnitude made real positive, one column at a time
    with `np.linalg.norm`: the reference for the batched normalization."""
    out = np.array(vecs, dtype=np.complex128)
    for j in range(out.shape[1]):
        col = out[:, j]
        col /= np.linalg.norm(col)
        mags = np.abs(col)
        idx = int(np.argmax(mags > phase_tol * mags.max()))
        col *= mags[idx] / col[idx]
    return out


def seeded_quadratic_family(seed, n):
    """H_0 = diag(0..N-1) + 0.01 randn, H_1 complex Gaussian, H_2 real
    Gaussian, all drawn from numpy's default_rng(seed)."""
    rng = np.random.default_rng(seed)
    h0 = np.diag(np.arange(n, dtype=float)) + 0.01 * rng.standard_normal((n, n))
    h1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h2 = rng.standard_normal((n, n))
    return PolynomialHamiltonian([h0, h1, h2])


@dataclass(frozen=True)
class ManufacturedFamily:
    """A family whose every series coefficient is known exactly.

    `blocks` holds each dimer's dyadic (e, a, u, c, d) as Fractions; state
    2b is block b's lower eigenvalue e - a and state 2b + 1 its upper e + a,
    which is the canonical (ascending) order.  `branch_points[n]` is the pair
    -a/(u - c), -a/(u + c) of n's block, the real q where its two
    eigenvalues meet, and `partners[n]` the block's other state.
    """

    hamiltonian: PolynomialHamiltonian
    blocks: tuple
    branch_points: tuple
    partners: tuple

    def coefficients(self, order):
        """h_n^(k) for k = 0..order as Fractions, a list of rows [k][n]:
        e + d q^2 -/+ s(q), with s the power-series square root of
        (a + u q)^2 - c^2 q^2 = a^2 + 2 a u q + (u^2 - c^2) q^2, s_0 = a."""
        rows = [[] for _ in range(order + 1)]
        for e, a, u, c, d in self.blocks:
            p = [a * a, 2 * a * u, u * u - c * c] + [Fraction(0)] * order
            s = [a]
            for k in range(1, order + 1):
                s.append((p[k] - sum(s[i] * s[k - i] for i in range(1, k))) / (2 * a))
            for k in range(order + 1):
                shift = e if k == 0 else d if k == 2 else Fraction(0)
                rows[k] += [shift - s[k], shift + s[k]]
        return rows

    def exact(self, order):
        """The coefficients of `coefficients(order)` rounded to complex128,
        shape (order + 1, N)."""
        return np.array(self.coefficients(order), dtype=float).astype(np.complex128)


def manufactured_family(seed, n, t, dense):
    """N/2 non-Hermitian dimers with exactly known series (method of
    manufactured solutions).

    Block b has H_0 = diag(e+a, e-a), H_1 = [[u, i c], [i c, -u]] and
    H_2 = d I, so its eigenvalues are e + d q^2 +/- sqrt((a + u q)^2 - c^2 q^2).
    Every parameter is a dyadic rational drawn from numpy's default_rng(seed):
    e = 5 b + [-1/4, 1/4], a in [1, 2), c in [1/2, 1), 0 < |u| < c and
    |d| <= 1/2, so the spectrum of H_0 has gaps >= 1/2 and each block's
    branch points lie at |q| > 1/2.  Each block is conjugated by
    T = [[1, t], [0, 1]] (t dyadic; the eigenvector condition grows with t),
    and with `dense` (N a power of two) every term becomes S H_j S^T / N for
    the Sylvester-Hadamard matrix S (S S^T = N I).  Dyadic data keep every
    entry exact in double.
    """
    if n % 2 or (dense and n & (n - 1)):
        raise ValueError(f"need an even N (a power of two when dense), got {n}")
    rng = np.random.default_rng(seed)
    blocks, points = [], []
    terms = np.zeros((3, n, n), dtype=np.complex128)
    conj = np.array([[1.0, t], [0.0, 1.0]])
    inv = np.array([[1.0, -t], [0.0, 1.0]])
    for b in range(n // 2):
        e = Fraction(20 * b + int(rng.integers(-1, 2)), 4)
        a = Fraction(int(rng.integers(64, 128)), 64)
        c = Fraction(int(rng.integers(32, 64)), 64)
        u = Fraction(int(rng.integers(1, int(c * 64))) * int(rng.choice([-1, 1])), 64)
        d = Fraction(int(rng.integers(-32, 33)), 64)
        blocks.append((e, a, u, c, d))
        points += [(-a / (u - c), -a / (u + c))] * 2
        ef, af, uf, cf, df = (float(x) for x in (e, a, u, c, d))
        block = [np.diag([ef + af, ef - af]), np.array([[uf, 1j * cf], [1j * cf, -uf]]),
                 df * np.eye(2)]
        for j, m in enumerate(block):
            terms[j, 2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = conj @ m @ inv
    if dense:
        s = np.ones((1, 1))
        while len(s) < n:
            s = np.block([[s, s], [s, -s]])
        terms = s @ terms @ s.T / n
    partners = tuple(k ^ 1 for k in range(n))
    return ManufacturedFamily(PolynomialHamiltonian(list(terms)), tuple(blocks), tuple(points),
                              partners)


def reference_hierarchy_residuals(hamiltonian, gens):
    """Both commutator defects at each order, one order and one term at a
    time: the reference for the stacked `hierarchy_residuals`."""
    out = np.zeros(gens.order + 1)
    for ell in range(gens.order + 1):
        d0 = -1j * gens.k1[ell] + 1j * (ell + 1) * hamiltonian.term(ell + 1)
        d1 = np.zeros_like(d0)
        for a in range(min(hamiltonian.degree, ell) + 1):
            h = hamiltonian.term(a)
            d0 = d0 + (h @ gens.k0[ell - a] - gens.k0[ell - a] @ h)
            d1 = d1 + (h @ gens.k1[ell - a] - gens.k1[ell - a] @ h)
        out[ell] = max(float(np.abs(d0).max()), float(np.abs(d1).max()))
    return out


# ---------------------------------------------------------------------------
# the generator solve and the block kernel one product and one addition per
# term: the references that the stacked kernels must equal bit for bit
# ---------------------------------------------------------------------------


def reference_generator_stacks(hamiltonian, frame, order, k0_diagonals=None):
    """The frame stacks (K_0, K_1), each (order + 1, N, N), of the hierarchy
    solved with one commutator, one accumulation and one max|K_1^(l)| per
    (order, term)."""
    n, degree = frame.dim, hamiltonian.degree
    h = frame.eigenvalues
    delta = h[:, None] - h[None, :]
    np.fill_diagonal(delta, 1.0)
    ah = [double_bracket(frame, m) for m in hamiltonian.terms]
    ah += [np.zeros((n, n), dtype=np.complex128)] * (order + 2 - len(ah))
    k0f = np.empty((order + 1, n, n), dtype=np.complex128)
    k1f = np.empty((order + 1, n, n), dtype=np.complex128)
    for ell in range(order + 1):
        rhs1 = np.zeros((n, n), dtype=np.complex128)
        comm0 = np.zeros((n, n), dtype=np.complex128)
        for a in range(1, min(degree, ell) + 1):
            rhs1 -= ah[a] @ k1f[ell - a] - k1f[ell - a] @ ah[a]
        k1 = np.divide(rhs1, delta, out=k1f[ell])
        for a in range(1, min(degree, ell) + 1):
            comm0 += ah[a] @ k0f[ell - a] - k0f[ell - a] @ ah[a]
        np.fill_diagonal(k1, (ell + 1) * np.diag(ah[ell + 1]) - 1j * np.diag(comm0))
        rhs0 = 1j * k1 - 1j * (ell + 1) * ah[ell + 1] - comm0
        k0 = np.divide(rhs0, delta, out=k0f[ell])
        np.fill_diagonal(k0, 0.0 if k0_diagonals is None else k0_diagonals[ell])
    return k0f, k1f


def reference_series_block(gens, cols, order, states=None):
    """State blocks and h^(0..order) of the columns `cols` (an index array),
    as the block kernel computes them, one product and one addition per term:
    the transport recursion on the frame coefficients, the full contraction
    table [[K_1^(j)]][cols[c], :] . C^(i)[:, c] from a copy of the K_1 rows,
    and h^(k) accumulated term by term."""
    frame, m = gens.frame, len(cols)
    k0f = gens._k0f
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
    rows = gens._k1f[:order, cols]  # (order, m, N)
    columns = coeffs[:order].transpose(0, 2, 1)  # (order, m, N)
    pair = (rows[:, None, :, None, :] @ columns[None, :, :, :, None])[..., 0, 0]
    overlap = coeffs[:order, cols, np.arange(m)]
    for k in range(1, order + 1):
        acc = pair[k - 1, 0].copy()
        for j in range(1, k):
            acc += pair[j - 1, k - j] - j * h[j] * overlap[k - j]
        h[k] = acc / k
    return states, h


# ---------------------------------------------------------------------------
# per-state series loops, one state at a time: the reference for the block
# kernel, which reorders the same sums
# ---------------------------------------------------------------------------


def reference_state_corrections(gens, n, order):
    """|n^(0)>..|n^(order)> by the transport recursion on a single vector."""
    vecs = [np.array(gens.frame.right[:, n])]
    for k in range(1, order + 1):
        acc = np.zeros_like(vecs[0])
        for j in range(1, k + 1):
            acc += gens.k0[j - 1] @ vecs[k - j]
        vecs.append((-1j / k) * acc)
    return vecs


def reference_eigenvalue_corrections(gens, n, order):
    """h_n^(0)..h_n^(order) by the dual-vector contraction on a single state."""
    wn = gens.frame.left[n, :]
    states = reference_state_corrections(gens, n, max(order - 1, 0))
    h = np.zeros(order + 1, dtype=np.complex128)
    h[0] = gens.frame.eigenvalues[n]
    for k in range(1, order + 1):
        s = wn @ (gens.k1[k - 1] @ states[0])
        for j in range(1, k):
            s += wn @ (gens.k1[j - 1] @ states[k - j])
            s -= j * h[j] * (wn @ states[k - j])
        h[k] = s / k
    return h


# ---------------------------------------------------------------------------
# the eigen-equation itself, order by order: a certificate of a series block
# that reads neither the generators nor the frame
# ---------------------------------------------------------------------------


def reference_equation_residual(terms, states, h):
    """Worst relative residual of H(q)|n(q)> = h_n(q)|n(q)>, order by order.

    For the terms H_j of the family, (K+1, N, N) state blocks S (column n of
    S^(m) is |n^(m)>) and (K+1, N) corrections h, the order-m residual is

        R_m = sum_j H_j S^(m-j) - sum_i S^(m-i) diag(h^(i)),    m <= K.

    Column n of R_m is taken relative to the size of the terms that cancel in
    it, sum_j ||H_j||_2 ||S^(m-j)[:, n]|| + sum_i |h_n^(i)| ||S^(m-i)[:, n]||
    (Kato 1966, ch. II); the worst value over m and n is returned.
    """
    norms = [np.linalg.norm(t, 2) for t in terms]
    lengths = np.linalg.norm(states, axis=1)  # (K+1, N): ||S^(m)[:, n]||
    worst = 0.0
    for m in range(len(states)):
        residual = np.zeros(states.shape[1:], dtype=np.complex128)
        scale = np.zeros(states.shape[2])
        for j in range(min(m, len(terms) - 1) + 1):
            residual += terms[j] @ states[m - j]
            scale += norms[j] * lengths[m - j]
        for i in range(m + 1):
            residual -= states[m - i] * h[i]
            scale += np.abs(h[i]) * lengths[m - i]
        worst = max(worst, float(np.max(np.linalg.norm(residual, axis=0) / scale)))
    return worst


# ---------------------------------------------------------------------------
# dual Bell words from their defining recursion, applied one word and one
# letter at a time: the reference for the coefficient table and the
# grade-stack kernel
# ---------------------------------------------------------------------------


def reference_bell_terms(k):
    """BB_k as {letters: coefficient}, built by the like-term-combining
    recursion BB_{m+1} = sum_j C(m, j) P_{j+1} BB_{m-j}, sorted by letters."""
    levels = [{(): 1}]
    for m in range(k):
        new = {}
        for j in range(m + 1):
            weight = comb(m, j)
            for letters, coeff in levels[m - j].items():
                word = (j + 1,) + letters
                new[word] = new.get(word, 0) + weight * coeff
        levels.append(new)
    return dict(sorted(levels[k].items()))


def reference_bell_blocks(gens, cols, order):
    """BB_k(P_1..P_k) V[:, cols] / k! for k = 0..order, P_r = (r-1)! (-i K_0^(r-1)),
    each word applied letter by letter and added to a zero block in order."""
    assign = {r: factorial(r - 1) * -1j * gens.k0[r - 1] for r in range(1, order + 1)}
    v0 = gens.frame.right[:, cols]
    out = [v0]
    for k in range(1, order + 1):
        total = np.zeros_like(v0)
        for letters, coeff in reference_bell_terms(k).items():
            acc = v0
            for letter in reversed(letters):
                acc = assign[letter] @ acc
            total = total + coeff * acc
        out.append(total / factorial(k))
    return out


# ---------------------------------------------------------------------------
# per-state oracle loops, one state (and for finite differences one sweep) at
# a time: the reference for the all-state helpers, which read every state
# from one sweep per check
# ---------------------------------------------------------------------------


def reference_ray_residual(vectors, corrections, qs):
    """Ray residuals of one state, one q at a time; `vectors` is (Q, N)."""
    out = np.zeros(len(qs))
    for i, q in enumerate(qs):
        truncated = np.zeros_like(corrections[0])
        for kk, vec in enumerate(corrections):
            truncated = truncated + (q**kk) * vec
        exact = vectors[i]
        overlap = np.vdot(exact, truncated) / np.vdot(exact, exact)
        residual = truncated - overlap * exact
        out[i] = np.linalg.norm(residual) / max(np.linalg.norm(truncated), 1e-300)
    return out


def reference_fd_derivative(hamiltonian, n, k, step=1e-3):
    """h_n^(k) from the order-k stencil alone, swept on its own points."""
    offsets, weights = _STENCILS[k]
    points = sorted({o * step for o in offsets} | {o * step / 2 for o in offsets})
    curve = exact_spectrum_sweep(hamiltonian, points)
    lookup = {q: curve.values[n, i] for i, q in enumerate(points)}

    def stencil(h):
        return sum(w * lookup[o * h] for o, w in zip(offsets, weights)) / h**k

    return complex((4.0 * stencil(step / 2) - stencil(step)) / 3.0 / factorial(k))


# ---------------------------------------------------------------------------
# The exact sampler one sample at a time: per-matrix H(q), eig/eigvals and
# pairing against the paired previous row
# ---------------------------------------------------------------------------


def reference_at(hamiltonian, q):
    """H(q) summed term by term in increasing power."""
    out = np.zeros((hamiltonian.dim, hamiltonian.dim), dtype=np.complex128)
    for j, m in enumerate(hamiltonian.terms):
        out += (q**j) * m
    return out


def reference_pair_step(prev, new, q):
    """The permutation of `new` nearest to `prev`, and the step margin."""
    n = prev.size
    if n == 1:
        return np.array([0]), np.inf
    dist = np.abs(prev[:, None] - new[None, :])
    picks = np.argmin(dist, axis=1)
    part = np.sort(dist, axis=1)
    best, runner = part[:, 0], part[:, 1]
    with np.errstate(over="ignore"):  # a constant eigenvalue: best 0, the ratio inf
        ratios = np.where(best > 0, runner / np.maximum(best, 1e-300), np.inf)
    margin = float(np.min(ratios))
    if np.any(runner < 2.0 * best):
        raise PairingAmbiguous(
            f"eigenvalue continuation ambiguous at q = {q:.6g} (margin {margin:.3g} < 2.0)"
        )
    if len(set(picks.tolist())) != n:
        raise PairingAmbiguous(f"two states matched the same eigenvalue at q = {q:.6g}")
    return picks, margin


def reference_continued_sweep(frame, hamiltonian, qs, gap_tol, want_vectors):
    """Values (N, Q), vectors (N, Q, N) or None, and the pair margin, one
    sample at a time outward from q = 0 in both directions; a q = 0 sample is
    the frame itself."""
    qs = np.asarray(qs, dtype=float)
    n = frame.dim
    values = np.zeros((n, qs.size), dtype=np.complex128)
    vectors = np.zeros((n, qs.size, n), dtype=np.complex128) if want_vectors else None
    margin = np.inf
    split = int(np.searchsorted(qs, 0.0))
    for chain in (range(split, qs.size), range(split - 1, -1, -1)):
        prev = frame.eigenvalues
        for i in chain:
            q = float(qs[i])
            if q == 0.0:  # H(0) = H_0: the sample is the frame
                values[:, i] = frame.eigenvalues
                if want_vectors:
                    vectors[:, i, :] = frame.right.T
                continue
            if want_vectors:
                vals, vecs = np.linalg.eig(reference_at(hamiltonian, q))
            else:
                vals = np.linalg.eigvals(reference_at(hamiltonian, q))
            if min_pairwise_gap(vals) < gap_tol * max(1.0, float(np.max(np.abs(vals)))):
                raise DegenerateSpectrum(f"spectrum numerically degenerate at q = {q:.6g}")
            picks, step_margin = reference_pair_step(prev, vals, q)
            margin = min(margin, step_margin)
            values[:, i] = vals[picks]
            if want_vectors:
                vectors[:, i, :] = vecs[:, picks].T
            prev = values[:, i]
    return values, vectors, margin


# ---------------------------------------------------------------------------
# Model matrices and report JSON one value at a time: the cell loop and the
# recursive isinstance writer that the one-pass parse and the type-dispatched
# writer replace
# ---------------------------------------------------------------------------


def reference_parse_matrix(raw, dim, path):
    """One decoded model matrix, validated and converted cell by cell."""
    if not isinstance(raw, list):
        raise SchemaError(path, "expected a matrix (list of rows)")
    if len(raw) != dim:
        raise NonSquare(f"{path}: matrix has {len(raw)} rows, expected {dim}")
    for i, row in enumerate(raw):
        if not isinstance(row, list):
            raise NonSquare(f"{path}[{i}]: row is not a list, expected {dim} entries")
        if len(row) != dim:
            raise NonSquare(f"{path}[{i}]: row has {len(row)} entries, expected {dim}")
    out = np.zeros((dim, dim), dtype=np.complex128)
    for i, row in enumerate(raw):
        for j, entry in enumerate(row):
            cell = f"{path}[{i}][{j}]"
            if not (
                isinstance(entry, list)
                and len(entry) == 2
                and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
            ):
                raise SchemaError(cell, "expected a 2-element real array [re, im]")
            try:
                re, im = float(entry[0]), float(entry[1])
            except OverflowError:
                raise NonFiniteEntry(f"{cell}: entry is not finite") from None
            if not (math.isfinite(re) and math.isfinite(im)):
                raise NonFiniteEntry(f"{cell}: entry is not finite")
            out[i, j] = complex(re, im)
    return out


def reference_serialize_model(doc):
    """A model document's JSON text, written cell by cell."""
    obj = {
        "name": doc.name,
        "dim": doc.dim,
        "terms": [
            {
                "order": j,
                "matrix": [
                    [[float(m[i, k].real), float(m[i, k].imag)] for k in range(m.shape[1])]
                    for i in range(m.shape[0])
                ],
            }
            for j, m in enumerate(doc.terms)
        ],
    }
    if doc.metadata:
        obj["metadata"] = dict(sorted(doc.metadata.items()))
    return json.dumps(obj, indent=2) + "\n"


def reference_json_text(obj, level=0):
    """Report JSON with floats at 17 significant digits, by isinstance."""
    pad = "  " * level
    inner = "  " * (level + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(inner + reference_json_text(v, level + 1) for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {reference_json_text(v, level + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
