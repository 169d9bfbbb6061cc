"""Property tests of the block series kernel, of the Bell route's grade-stack
kernel, of the Hermitian reduction to Rayleigh-Schroedinger theory, of the
frame's column normalization, of the verdict on a wrong series, of the
eigen-equation check on wrong generators and of the route check on one wrong
coefficient at any order."""

from functools import cache
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import geompert as g
from geompert.corrections import _all_block, _bell_block, _equation_residuals, _rs_block, _series_block
from geompert.generators import GeneratorSeries
from geompert.pipeline import (ALL_CHECKS, FAST_CHECKS, _check_equation, _check_hierarchy,
                               _worst_relative, run_pipeline)
from geompert.spectral import _PHASE_TOL, _normalize_columns, min_pairwise_gap
from oracles import (
    linear_family,
    manufactured_family,
    reference_bell_blocks,
    reference_normalize_columns,
    seeded_quadratic_family,
)

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


def _conditioned_family(seed, dim, degree):
    """H_0 = V diag(e) V^-1 with relative gap >= 0.05 and cond(V) <= 10, and
    H_1..H_degree complex Gaussian with ||H_j||_2 <= ||H_0||_2."""
    rng = np.random.default_rng(seed)

    def gaussian():
        return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))

    # real parts one per slot of (-1, 1), at least 1.2 / dim apart
    real = -1.0 + 2.0 * (np.arange(dim) + 0.5 + rng.uniform(-0.2, 0.2, dim)) / dim
    e = real + 1j * rng.uniform(-0.2, 0.2, dim) / dim
    u, w = np.linalg.qr(gaussian())[0], np.linalg.qr(gaussian())[0]
    v = u @ np.diag(10.0 ** rng.uniform(0.0, 1.0, dim)) @ w.conj().T
    assert min_pairwise_gap(e) >= 0.05 * np.abs(e).max() and np.linalg.cond(v) <= 10.0
    h0 = v @ np.diag(e) @ np.linalg.inv(v)
    size = np.linalg.norm(h0, 2)
    terms = [h0]
    for _ in range(degree):
        b = gaussian()
        terms.append(b * (rng.uniform(0.1, 1.0) * size / np.linalg.norm(b, 2)))
    return g.PolynomialHamiltonian(terms)


@st.composite
def wrong_series(draw):
    """A drawn family, its order K, and one h_n^(k), k in 1..K, times 1 + delta."""
    dim, order = draw(st.integers(2, 12)), draw(st.integers(1, 6))
    return (draw(st.integers(0, 2**32 - 1)), dim, draw(st.integers(1, 3)), order,
            draw(st.integers(1, order)), draw(st.integers(0, dim - 1)),
            10.0 ** draw(st.floats(-8.0, -2.0)))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(wrong_series())
def test_one_wrong_coefficient_fails_verify(case):
    # injected in the production kernel; the route check's RS recursion does
    # not run it, and the verdict fails whichever check reads the wrong h
    seed, dim, degree, order, k, n, delta = case
    ham = _conditioned_family(seed, dim, degree)
    original = _series_block

    def kernel(*args):
        states, h = original(*args)
        h = h.copy()
        if len(h) > k:
            h[k, n] *= 1.0 + delta
        return states, h

    with patch.object(g.corrections, "_series_block", kernel):
        report = run_pipeline(g.ModelDocument("drawn", list(ham.terms)), order, ALL_CHECKS)
        states, h = _all_block(g.solve_model(ham, order), order)
    assert report.verdict == "fail"
    assert report.checks["equation_residual"]["status"] == "fail"
    # the entry's `order` is the worst order, which may lie above k
    readings = _equation_residuals(ham.terms, states, h).max(axis=1)
    assert np.flatnonzero(readings > 1e-12)[0] == k
    # the control: the same family's correct series passes the certificate
    correct = _all_block(g.solve_model(ham, order), order)
    assert _equation_residuals(ham.terms, *correct).max() <= 1e-12


# two built-ins, a dense seeded quadratic family and a dense manufactured one
GENERATOR_FAMILIES = {
    "toy-sec5": lambda: g.builtin_model("toy-sec5").to_hamiltonian(),
    "random-linear-N4-seed7": lambda: g.builtin_model("random-linear-N4-seed7").to_hamiltonian(),
    "seeded-N16": lambda: seeded_quadratic_family(0, 16),
    "dimers-N16": lambda: manufactured_family(0, 16, 1, True).hamiltonian,
}
# for `hierarchy`, whose per-order scales are products of term sizes: the seeded
# family times 100, every term above 1
HIERARCHY_FAMILIES = {
    **GENERATOR_FAMILIES,
    "seeded-N16-x100": lambda: g.PolynomialHamiltonian(
        [100 * t for t in seeded_quadratic_family(0, 16).terms]
    ),
}


@cache
def _solved(name, order):
    """A family's generators at `order` and its correct all-state block."""
    ham = HIERARCHY_FAMILIES[name]()
    gens = g.solve_model(ham, order)
    return ham, gens, _all_block(gens, order)


@st.composite
def wrong_generator(draw, families=GENERATOR_FAMILIES):
    """A family, its order K, one entry (a, ell, i, j) of the frame stack [[K_a^(ell)]]
    outside the K_0 diagonals, which are gauge, and a delta log-uniform in [1e-8, 1e-2]."""
    name = draw(st.sampled_from(sorted(families)))
    order = draw(st.integers(1, 12))
    dim = _solved(name, order)[0].dim
    a, ell, i = draw(st.integers(0, 1)), draw(st.integers(0, order)), draw(st.integers(0, dim - 1))
    j = draw(st.integers(0, dim - 1).filter(lambda j: a == 1 or j != i))
    return name, order, (a, ell, i, j), 10.0 ** draw(st.floats(-8.0, -2.0))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(wrong_generator())
def test_generator_error_that_moves_the_series_fails_equation_residual(case):
    name, order, entry, delta = case
    ham, gens, (states, h) = _solved(name, order)
    assert _check_equation(hamiltonian=ham, states=states, h=h)[0]  # the correct run passes
    kf = gens._kf.copy()
    kf[entry] += delta * max(1.0, abs(kf[entry]))
    wrong_states, wrong_h = _all_block(
        GeneratorSeries._from_frame(order, kf, gens.gauge, gens.frame), order
    )
    # each column's move over max(1, max|.|), as route_equivalence measures it
    moved = max(_worst_relative(states, wrong_states), _worst_relative(h, wrong_h))
    if moved > 1e-8:
        assert not _check_equation(hamiltonian=ham, states=wrong_states, h=wrong_h)[0]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(wrong_generator(HIERARCHY_FAMILIES))
@example(("seeded-N16-x100", 8, (1, 2, 3, 5), 1e-6))
@example(("seeded-N16-x100", 12, (0, 0, 2, 9), 1e-3))
@example(("seeded-N16-x100", 6, (0, 3, 1, 0), 1e-5))
def test_generator_error_that_moves_the_series_fails_hierarchy(case):
    # each order's commutator defect over the size of that order's own terms:
    # under one scale for all orders, errors that moved h by up to 69% passed
    name, order, entry, delta = case
    ham, gens, (states, h) = _solved(name, order)
    kf = gens._kf.copy()
    kf[entry] += delta * max(1.0, abs(kf[entry]))
    wrong = GeneratorSeries._from_frame(order, kf, gens.gauge, gens.frame)
    for run in (gens, wrong):
        # no order's gate is looser than that one scale, the largest term
        shared = max(1.0, *(float(np.abs(m).max()) for m in (*ham.terms, run._kc)))
        assert _check_hierarchy(hamiltonian=ham, gens=run)[1]["threshold"] <= 1e-11 * shared
    assert _check_hierarchy(hamiltonian=ham, gens=gens)[0]  # the correct run passes
    if _worst_relative(h, _all_block(wrong, order)[1]) > 1e-10:
        assert not _check_hierarchy(hamiltonian=ham, gens=wrong)[0]


@st.composite
def wrong_route_coefficient(draw):
    """A family and its order K: a built-in at K = 12, seeded N = 16 or a drawn
    non-Hermitian family of degree <= 3 at K <= 8; and one h_n^(k), k in 0..K."""
    name = draw(st.sampled_from([*sorted(g.BUILTIN_MODELS), "seeded-N16", "drawn"]))
    if name in g.BUILTIN_MODELS:
        ham, order = g.builtin_model(name).to_hamiltonian(), 12
    elif name == "seeded-N16":
        ham, order = seeded_quadratic_family(0, 16), draw(st.integers(1, 8))
    else:
        ham = _conditioned_family(draw(st.integers(0, 2**32 - 1)), draw(st.integers(2, 8)),
                                  draw(st.integers(1, 3)))
        order = draw(st.integers(1, 8))
    return ham, order, draw(st.integers(0, order)), draw(st.integers(0, ham.dim - 1))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(wrong_route_coefficient())
def test_one_wrong_coefficient_fails_the_route_check(case):
    # the route check's RS recursion shares no code with the generator route,
    # so it reads an error of 1e-8 max(1, max_k |h_n^(k)|) at every order
    ham, order, k, n = case
    doc = g.ModelDocument("drawn", list(ham.terms))
    assert run_pipeline(doc, order, FAST_CHECKS).checks["route_equivalence"]["status"] == "pass"

    def wrong(gens, order):
        states, h = _all_block(gens, order)
        h = h.copy()
        h[k, n] += 1e-8 * max(1.0, float(np.abs(h[:, n]).max()))
        return states, h

    with patch.object(g.pipeline, "_all_block", wrong):
        report = run_pipeline(doc, order, FAST_CHECKS)
    check = report.checks["route_equivalence"]
    assert check["status"] == "fail" and report.verdict == "fail"
    assert check["eigenvalue_route_deviation"] > check["eigenvalue_threshold"]
