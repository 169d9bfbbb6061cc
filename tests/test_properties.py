"""Property tests of the block series kernel on random well-separated families."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import geompert as g
from geompert.corrections import _bell_block, _series_block
from oracles import linear_family

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
