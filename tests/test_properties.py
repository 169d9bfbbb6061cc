"""Property tests of the block series kernel and of the Bell route's grade-stack kernel."""

from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import geompert as g
from geompert.corrections import _bell_block, _series_block
from oracles import linear_family, reference_bell_blocks

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
