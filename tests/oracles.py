"""Shared test oracles and model generators.

Everything here is deliberately independent of the production solve paths:
model families are built from explicit eigendata, and the closed-form
expressions are coded directly from their definitions so they can stand as
references for the recursion engines.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from geompert import PolynomialHamiltonian, double_bracket, exact_spectrum_sweep
from geompert.oracle import _STENCILS


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


def seeded_quadratic_family(seed, n):
    """H_0 = diag(0..N-1) + 0.01 randn, H_1 complex Gaussian, H_2 real
    Gaussian, all drawn from numpy's default_rng(seed)."""
    rng = np.random.default_rng(seed)
    h0 = np.diag(np.arange(n, dtype=float)) + 0.01 * rng.standard_normal((n, n))
    h1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h2 = rng.standard_normal((n, n))
    return PolynomialHamiltonian([h0, h1, h2])


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
