"""Reference values computed at set-up, independently of the program.

Nothing here imports geompert: the toy family's coefficients come from
sympy's exact Taylor expansion of its closed-form spectrum, and the seeded
families' coefficients from a trapezoidal Cauchy contour (Lyness & Moler
1967, SIAM J. Numer. Anal. 4:202) over numpy `eigvals` samples, so the
references share no code with the perturbative route they check.
"""

from __future__ import annotations

import numpy as np

# Pairing is refused when the runner-up candidate is within this factor of the
# nearest one; a reference built on an ambiguous pairing would be worthless.
_PAIR_MARGIN = 2.0


def canonical_order(values: np.ndarray) -> np.ndarray:
    """Eigenvalues sorted by (real, imaginary), the program's state labels."""
    return values[np.lexsort((values.imag, values.real))]


def follow(prev: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Reorder `new` so that entry i continues `prev[i]` (nearest neighbour)."""
    dist = np.abs(prev[:, None] - new[None, :])
    picks = np.argmin(dist, axis=1)
    part = np.sort(dist, axis=1)
    if prev.size > 1 and np.any(part[:, 1] < _PAIR_MARGIN * part[:, 0]):
        raise ValueError("eigenvalue pairing is ambiguous")
    if np.unique(picks).size != picks.size:
        raise ValueError("two eigenvalues claimed the same successor")
    return new[picks]


def family_at(terms, q: complex) -> np.ndarray:
    out = np.zeros_like(terms[0], dtype=np.complex128)
    for j, term in enumerate(terms):
        out = out + (q ** j) * term
    return out


def contour_coefficients(
    terms, kmax: int, radius: float, points: int, ray_steps: int = 16
) -> tuple[np.ndarray, float]:
    """Taylor coefficients h_n^(k), k <= kmax, of every eigenvalue curve.

    Eigenvalues are followed out along the real ray from q = 0 to q = radius,
    then once around |q| = radius; the trapezoidal rule on that circle is a
    discrete Fourier transform, so one FFT gives every coefficient.  Row n
    is the state at canonical position n at q = 0.

    Also returns the contour's roundoff level: the largest FFT bin around
    points/2, where the true coefficients, scaled by radius^k, are far below
    roundoff.  Coefficient k then carries an error of about noise / radius^k.
    """
    terms = [np.asarray(t, dtype=np.complex128) for t in terms]
    prev = canonical_order(np.linalg.eigvals(terms[0]))
    for q in np.linspace(0.0, radius, ray_steps + 1)[1:]:
        prev = follow(prev, np.linalg.eigvals(family_at(terms, q)))
    circle = radius * np.exp(2j * np.pi * np.arange(points) / points)
    values = np.empty((prev.size, points), dtype=np.complex128)
    values[:, 0] = prev
    for j in range(1, points):
        prev = follow(prev, np.linalg.eigvals(family_at(terms, circle[j])))
        values[:, j] = prev
    if not np.array_equal(follow(prev, values[:, 0]), values[:, 0]):
        raise ValueError("eigenvalue curves do not close around the contour")
    bins = np.fft.fft(values, axis=1) / points
    noise = float(np.abs(bins[:, 3 * points // 8 : 5 * points // 8]).max())
    return bins[:, : kmax + 1] / radius ** np.arange(kmax + 1), noise


def toy_coefficients(kmax: int) -> np.ndarray:
    """Exact h_n^(k) of h*sx + q*i*sz + q^2*sx with h = alpha1 = alpha2 = 1.

    The spectrum is -/+ sqrt((1 + q^2)^2 - q^2); state 0 is the lower branch.
    """
    import sympy

    q = sympy.Symbol("q")
    branch = sympy.sqrt((1 + q**2) ** 2 - q**2)
    poly = sympy.series(branch, q, 0, kmax + 1).removeO()
    upper = np.array(
        [float(poly.coeff(q, k)) for k in range(kmax + 1)], dtype=np.complex128
    )
    return np.stack([-upper, upper])


def sweep_spectra(terms, qs: np.ndarray) -> np.ndarray:
    """Eigenvalues of H(q) at each q; row i belongs to qs[i].

    The rows are followed out from the q = 0 frame, and ValueError is raised
    where that continuation is ambiguous, as it is for the program's sweep.
    """
    terms = [np.asarray(t, dtype=np.complex128) for t in terms]
    prev = canonical_order(np.linalg.eigvals(terms[0]))
    rows = []
    for q in qs:
        prev = follow(prev, np.linalg.eigvals(family_at(terms, float(q))))
        rows.append(prev)
    return np.stack(rows)
