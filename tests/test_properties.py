"""Property tests of the block series kernel, of the Bell route's grade-stack
kernel, of the Hermitian reduction to Rayleigh-Schroedinger theory and of the
frame's column normalization."""

from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import geompert as g
from geompert.corrections import _bell_block, _rs_block, _series_block
from geompert.spectral import _PHASE_TOL, _normalize_columns
from oracles import linear_family, reference_bell_blocks, reference_normalize_columns

PROPERTY_SETTINGS = settings(
    max_examples=25, deadline=None, derandomize=True, database=None
)


def _family(seed, dim, quadratic):
    """A linear family with spaced eigenvalues, plus an optional small H_2."""
    rng = np.random.default_rng(seed)
    ham = linear_family(rng, dim)
    if not quadratic:
        return ham, rng
    h2 = 0.3 * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return g.PolynomialHamiltonian([*ham.terms, h2]), rng


def _column_relative(a, b):
    """Largest per-column max|a - b| relative to max(1, max|b|) of the column."""
    scale = np.maximum(1.0, np.abs(b).max(axis=0))
    return float(np.max(np.abs(a - b).max(axis=0) / scale))


families = st.tuples(
    st.integers(0, 2**32 - 1), st.integers(1, 5), st.booleans(), st.integers(1, 6)
)


@PROPERTY_SETTINGS
@given(families)
def test_bell_block_equals_recursion_block(case):
    seed, dim, quadratic, order = case
    ham, _ = _family(seed, dim, quadratic)
    gens = g.solve_model(ham, order)
    cols = np.arange(dim)
    rec, h_rec = _series_block(gens, cols, order)
    bell = _bell_block(gens, cols, order)
    for a, b in zip(bell, rec):
        assert _column_relative(a, b) <= 1e-12
    _, h_bell = _series_block(gens, cols, order, bell)
    assert _column_relative(h_bell, h_rec) <= 1e-11


@PROPERTY_SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 3), st.integers(0, 8))
def test_lower_orders_are_prefixes(seed, dim, degree, order):
    rng = np.random.default_rng(seed)
    ham = linear_family(rng, dim)
    extra = [
        0.3 * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        for _ in range(degree - 1)
    ]
    gens = g.solve_model(g.PolynomialHamiltonian([*ham.terms, *extra]), 8)
    cols = np.arange(dim)
    top_states, top_h = _series_block(gens, cols, 8)
    states, h = _series_block(gens, cols, order)
    assert h.tobytes() == top_h[: order + 1].tobytes()
    assert states.tobytes() == top_states[: order + 1].tobytes()


@PROPERTY_SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(0, 3))
def test_hermitian_series_is_textbook_rs(seed, dim, degree):
    # at every degree, the run's h^(0..6) is textbook RS in the orthonormal
    # frame V^dagger H_j V
    rng = np.random.default_rng(seed)
    ham = linear_family(rng, dim, hermitian=True)
    extra = []
    for _ in range(degree - 1):
        b = 0.3 * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        extra.append((b + b.conj().T) / 2)
    ham = g.PolynomialHamiltonian([*ham.terms[: min(degree, 1) + 1], *extra])
    assert ham.degree == degree and ham.is_hermitian()
    gens = g.solve_model(ham, 6)
    _, h = _series_block(gens, np.arange(dim), 6)
    v = gens.frame.right
    textbook = _rs_block([v.conj().T @ t @ v for t in ham.terms[1:]], gens.frame.eigenvalues, 6)
    assert np.max(np.abs(h - textbook) / np.maximum(1.0, np.abs(textbook))) <= 1e-10


@PROPERTY_SETTINGS
@given(families)
def test_eigenvalues_invariant_under_diagonal_gauge(case):
    seed, dim, quadratic, order = case
    ham, rng = _family(seed, dim, quadratic)
    frame = g.eigenframe(ham.term(0))
    diags = [
        rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        for _ in range(order + 1)
    ]
    base = g.build_all_series(g.solve_generators(ham, frame, order), order)
    shifted = g.build_all_series(
        g.solve_generators(ham, frame, order, k0_diagonals=diags), order
    )
    h_base = np.array([s.eigenvalue_corrections for s in base]).T
    h_shifted = np.array([s.eigenvalue_corrections for s in shifted]).T
    assert _column_relative(h_shifted, h_base) <= 1e-10


@PROPERTY_SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4), st.integers(0, 7))
@example(2, 1, 1, 7)  # a 1 x 1 block, where numpy would sum the words pairwise
def test_bell_grade_stacks_equal_word_by_word(seed, dim, width, order):
    # arbitrary K_0 and blocks, with exact (signed) zeros among the entries
    rng = np.random.default_rng(seed)

    def entries(*shape):
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return np.where(rng.random(shape) < 0.2, -0.0, z)

    gens = SimpleNamespace(
        order=order,
        k0=[entries(dim, dim) for _ in range(order)],
        frame=SimpleNamespace(right=entries(dim, width)),
    )
    cols = np.arange(width)
    blocks = _bell_block(gens, cols, order)
    ref = reference_bell_blocks(gens, cols, order)
    assert len(blocks) == len(ref) == order + 1
    for a, b in zip(blocks, ref):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@PROPERTY_SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(0, 7), st.floats(0.0, 0.5))
@example(0, 1, 0, 0.0)  # N = 1
@example(3, 6, 5, 0.3)  # five leading components below the phase threshold
def test_normalize_columns_equals_per_column_loop(seed, dim, small, zeros):
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    # leading components below _PHASE_TOL times the column's largest
    small = min(small, dim - 1)
    vecs[:small] *= 1e-3 * _PHASE_TOL
    # exact zeros anywhere but the last row, which keeps every column nonzero
    vecs[:-1][rng.random((dim - 1, dim)) < zeros] = 0.0
    out = _normalize_columns(vecs)
    assert out.tobytes() == reference_normalize_columns(vecs, _PHASE_TOL).tobytes()
