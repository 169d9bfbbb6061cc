import dataclasses
import sys
import threading

import numpy as np
import pytest

import geompert as g
from oracles import (
    k0_order0_offdiag,
    k0_order1_offdiag,
    k1_order1_diag,
    k1_order2_diag,
    linear_family,
    quintic_family,
    reference_generator_stacks,
    reference_hierarchy_residuals,
    seeded_quadratic_family,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


class TestPolynomialHamiltonian:
    def test_term_padding(self, toy):
        assert toy.degree == 2
        assert np.all(toy.term(5) == 0)

    def test_dimension_consistency(self):
        with pytest.raises(g.DimensionMismatch):
            g.PolynomialHamiltonian([np.eye(2), np.eye(3)])

    def test_needs_constant_term(self):
        with pytest.raises(ValueError):
            g.PolynomialHamiltonian([])

    def test_evaluate(self, toy):
        q = 0.3
        expected = toy.term(0) + q * toy.term(1) + q * q * toy.term(2)
        assert np.allclose(toy.at(q), expected)

    def test_hermitian_detection(self, toy):
        assert not toy.is_hermitian()  # the gain/loss term is anti-Hermitian
        assert g.PolynomialHamiltonian([np.diag([0.0, 2.0]), SX]).is_hermitian()


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda toy, gens: toy.term(-1), ValueError, "non-negative"),
        (lambda toy, gens: gens.k2, AttributeError, "no attribute 'k2'"),
        (lambda toy, gens: g.solve_generators(toy, gens.frame, 2, k0_diagonals=[np.ones(2)] * 2),
         ValueError, "one K_0 diagonal per order"),
        (lambda toy, gens: g.solve_generators(toy, gens.frame, 1, k0_diagonals=[np.ones(3)] * 2),
         g.DimensionMismatch, "wrong length"),
        (lambda toy, gens: g.hierarchy_residuals(g.PolynomialHamiltonian([np.eye(3)]), gens),
         g.DimensionMismatch, "dimensions differ"),
    ],
    ids=["negative-term", "unknown-attribute", "too-few-diagonals", "diagonal-length",
         "residual-dimensions"],
)
def test_documented_failures(toy, toy_gens, call, error, message):
    with pytest.raises(error, match=message):
        call(toy, toy_gens)


class TestToyGenerators:
    """The worked two-level family with unit constants, zero-diagonal gauge."""

    def test_reproduces_known_matrices(self, toy_gens):
        expected_k0 = [
            np.array([[0, -0.5], [0.5, 0]]),
            np.zeros((2, 2)),
            np.array([[0, 1.0], [-1.0, 0]]),
        ]
        expected_k1 = [
            np.zeros((2, 2)),
            SX,
            np.array([[1j, 0], [0, -1j]]),
        ]
        for j in range(3):
            assert np.abs(toy_gens.k0[j] - expected_k0[j]).max() < 1e-12
            assert np.abs(toy_gens.k1[j] - expected_k1[j]).max() < 1e-12
        assert toy_gens.gauge == "zero-diagonal"

    def test_residuals_tiny(self, toy, toy_gens):
        res = g.hierarchy_residuals(toy, toy_gens)
        assert res.max() < 1e-12


class TestSolveGenerators:
    def test_zero_perturbation(self):
        ham = g.PolynomialHamiltonian([np.diag([0.0, 1.0, 3.0])])
        gens = g.solve_model(ham, 3)
        for j in range(4):
            assert np.all(gens.k0[j] == 0)
            assert np.all(gens.k1[j] == 0)
        assert np.all(g.hierarchy_residuals(ham, gens) == 0)

    def test_first_order_transport_identity(self, rng):
        # off-diagonal [[K_0^(0)]] is -i [[H_1]] over the eigenvalue gap
        for _ in range(10):
            ham = linear_family(rng, 3)
            frame = g.eigenframe(ham.term(0))
            gens = g.solve_generators(ham, frame, 0)
            predicted = k0_order0_offdiag(frame, ham.term(1))
            actual = g.double_bracket(frame, gens.k0[0])
            off = ~np.eye(3, dtype=bool)
            assert np.abs(actual[off] - predicted[off]).max() < 1e-11

    def test_eigenflow_commutes_at_leading_order(self, rng):
        for _ in range(10):
            ham = linear_family(rng, 4)
            gens = g.solve_model(ham, 0)
            h0, k10 = ham.term(0), gens.k1[0]
            comm = h0 @ k10 - k10 @ h0
            scale = max(np.abs(h0).max() * np.abs(k10).max(), 1e-300)
            assert np.abs(comm).max() < 1e-12 * scale

    def test_first_order_eigenflow_diagonal(self, rng):
        # [[K_1^(0)]]_nn equals [[H_1]]_nn, and its off-diagonal vanishes
        ham = linear_family(rng, 5)
        frame = g.eigenframe(ham.term(0))
        gens = g.solve_generators(ham, frame, 0)
        bb = g.double_bracket(frame, gens.k1[0])
        a = g.double_bracket(frame, ham.term(1))
        assert np.abs(np.diag(bb) - np.diag(a)).max() < 1e-11
        off = ~np.eye(5, dtype=bool)
        assert np.abs(bb[off]).max() < 1e-11

    def test_zero_diagonal_gauge_is_exact(self, rng):
        ham = linear_family(rng, 4)
        frame = g.eigenframe(ham.term(0))
        gens = g.solve_generators(ham, frame, 3)
        for j in range(4):
            diag = np.diag(g.double_bracket(frame, gens.k0[j]))
            assert np.abs(diag).max() < 1e-12 * max(1, np.abs(gens.k0[j]).max())

    def test_hermitian_family_structure(self, rng):
        # all-Hermitian family: K_1 coefficients Hermitian, i K_0 anti-Hermitian
        for _ in range(5):
            ham = linear_family(rng, 4, hermitian=True)
            gens = g.solve_model(ham, 2)
            for j in range(3):
                k1 = gens.k1[j]
                assert np.abs(k1 - k1.conj().T).max() < 1e-10
                ik0 = 1j * gens.k0[j]
                assert np.abs(ik0 + ik0.conj().T).max() < 1e-10

    def test_degenerate_rejected(self):
        ham = g.PolynomialHamiltonian([np.eye(2), SX])
        with pytest.raises(g.DegenerateSpectrum):
            g.solve_model(ham, 1)

    def test_dimension_guard(self, toy):
        frame = g.eigenframe(np.diag([0.0, 1.0, 2.0]))
        with pytest.raises(g.DimensionMismatch):
            g.solve_generators(toy, frame, 1)

    def test_brackets_only_the_terms(self, toy, toy_frame, monkeypatch):
        calls = []
        original = g.generators.double_bracket

        def counted(frame, a):
            calls.append(a)
            return original(frame, a)

        monkeypatch.setattr(g.generators, "double_bracket", counted)
        gens = g.solve_generators(toy, toy_frame, 10)
        # H_1..H_p once each, never H_0 (its bracket is diag(h)), kept read-only
        assert len(calls) == toy.degree == 2
        assert all(a is t for a, t in zip(calls, toy.terms[1:]))
        assert gens._hf.shape == (2, 2, 2) and not gens._hf.flags.writeable
        assert g.hierarchy_residuals(toy, gens).max() < 1e-12

    def test_custom_diagonals_recorded(self, toy, toy_frame):
        diags = [np.ones(2)] * 3
        gens = g.solve_generators(toy, toy_frame, 2, k0_diagonals=diags)
        assert gens.gauge == "custom-diagonal"
        frame_diag = np.diag(g.double_bracket(toy_frame, gens.k0[1]))
        assert np.allclose(frame_diag, 1.0)


class TestHierarchyResiduals:
    def test_gauge_direction_leaves_residuals(self, toy, toy_gens):
        # adding a multiple of the identity to K_0^(0) commutes with everything
        shifted_k0 = (toy_gens.k0[0] + 0.37 * np.eye(2),) + toy_gens.k0[1:]
        shifted = g.GeneratorSeries(
            order=toy_gens.order,
            k0=shifted_k0,
            k1=toy_gens.k1,
            gauge="custom-diagonal",
            frame=toy_gens.frame,
        )
        base = g.hierarchy_residuals(toy, toy_gens)
        after = g.hierarchy_residuals(toy, shifted)
        assert np.abs(after - base).max() < 1e-13

    def test_detects_corruption(self, toy, toy_gens):
        bad_k1 = (toy_gens.k1[0] + 0.01 * SX,) + toy_gens.k1[1:]
        bad = g.GeneratorSeries(
            order=toy_gens.order,
            k0=toy_gens.k0,
            k1=bad_k1,
            gauge=toy_gens.gauge,
            frame=toy_gens.frame,
        )
        assert g.hierarchy_residuals(toy, bad)[0] > 1e-3

    def test_custom_gauge_still_solves(self, toy, toy_frame, rng):
        diags = [
            rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(4)
        ]
        gens = g.solve_generators(toy, toy_frame, 3, k0_diagonals=diags)
        assert g.hierarchy_residuals(toy, gens).max() < 1e-12

    @pytest.mark.parametrize("order", [0, 1, 12])
    @pytest.mark.parametrize(
        "family", [*g.BUILTIN_MODELS, "degree-0", "seeded-N1", "seeded-N6", "seeded-N16",
                   "seeded-N64"]
    )
    def test_stacked_orders_match_the_per_order_loop(self, family, order):
        ham = _hamiltonian(family)
        gens = g.solve_model(ham, order)
        got = g.hierarchy_residuals(ham, gens)
        assert got.shape == (order + 1,)
        assert got.tobytes() == reference_hierarchy_residuals(ham, gens).tobytes()


@pytest.fixture(scope="module")
def ensemble():
    rng = np.random.default_rng(42)
    out = []
    for _ in range(50):
        n = int(rng.integers(2, 7))
        ham = linear_family(rng, n)
        frame = g.eigenframe(ham.term(0))
        gens = g.solve_generators(ham, frame, 2)
        out.append((ham, frame, gens))
    return out


class TestLowOrderClosedForms:
    """Closed-form matrix elements for linear families (zero-diagonal gauge)."""

    def test_k0_leading_offdiag(self, ensemble):
        for ham, frame, gens in ensemble:
            predicted = k0_order0_offdiag(frame, ham.term(1))
            actual = g.double_bracket(frame, gens.k0[0])
            off = ~np.eye(frame.dim, dtype=bool)
            scale = max(1.0, np.abs(predicted).max())
            assert np.abs(actual[off] - predicted[off]).max() < 1e-9 * scale

    def test_k1_leading_offdiag_vanishes(self, ensemble):
        for _, frame, gens in ensemble:
            bb = g.double_bracket(frame, gens.k1[0])
            off = ~np.eye(frame.dim, dtype=bool)
            assert np.abs(bb[off]).max() < 1e-9 * max(1.0, np.abs(bb).max())

    def test_k1_first_order_diagonal(self, ensemble):
        for ham, frame, gens in ensemble:
            predicted = k1_order1_diag(frame, ham.term(1))
            actual = np.diag(g.double_bracket(frame, gens.k1[1]))
            scale = max(1.0, np.abs(predicted).max())
            assert np.abs(actual - predicted).max() < 1e-9 * scale

    def test_k1_second_order_diagonal(self, ensemble):
        for ham, frame, gens in ensemble:
            predicted = k1_order2_diag(frame, ham.term(1))
            actual = np.diag(g.double_bracket(frame, gens.k1[2]))
            scale = max(1.0, np.abs(predicted).max())
            assert np.abs(actual - predicted).max() < 1e-9 * scale

    def test_k0_first_order_offdiag(self, ensemble):
        for ham, frame, gens in ensemble:
            k00_diag = np.diag(g.double_bracket(frame, gens.k0[0]))
            predicted = k0_order1_offdiag(frame, ham.term(1), k00_diag)
            actual = g.double_bracket(frame, gens.k0[1])
            off = ~np.eye(frame.dim, dtype=bool)
            scale = max(1.0, np.abs(predicted).max())
            assert np.abs(actual[off] - predicted[off]).max() < 1e-9 * scale


FAMILIES = [*g.BUILTIN_MODELS, "seeded-N16"]


def _hamiltonian(family):
    if family in g.BUILTIN_MODELS:
        return g.builtin_model(family).to_hamiltonian()
    if family == "degree-0":
        return g.PolynomialHamiltonian([np.diag([0.0, 1.0, 2.5 + 0.3j])])
    return seeded_quadratic_family(0, int(family[len("seeded-N"):]))


def _relative(a, b):
    """Largest max|a - b| relative to max(1, max|b|)."""
    return np.abs(a - b).max() / max(1.0, np.abs(b).max())


class TestStackedSolve:
    """Each order takes its commutators from one stacked product pair and sums
    them in one reduce: the frame stacks are the per-term loop's bit for bit,
    in the zero and in a custom K_0 gauge."""

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 12])
    @pytest.mark.parametrize(
        "family", [*g.BUILTIN_MODELS, "degree-0", "seeded-N1", "seeded-N6", "seeded-N16",
                   "seeded-N64"]
    )
    def test_frame_stacks_are_the_per_term_loop(self, family, order):
        ham = _hamiltonian(family)
        frame = g.eigenframe(ham.term(0))
        rng = np.random.default_rng(order)
        custom = [
            0.5 * (rng.standard_normal(ham.dim) + 1j * rng.standard_normal(ham.dim))
            for _ in range(order + 1)
        ]
        for diags in (None, custom):
            gens = g.solve_generators(ham, frame, order, k0_diagonals=diags)
            k0f, k1f = reference_generator_stacks(ham, frame, order, diags)
            # bytes compare signs of zero too
            assert gens._k0f.tobytes() == k0f.tobytes()
            assert gens._k1f.tobytes() == k1f.tobytes()
            assert gens.gauge == ("zero-diagonal" if diags is None else "custom-diagonal")

    def test_a_degree_five_family_solves_below_its_degree(self):
        # the consistency scale reads the terms a <= order: at 1 <= order <= 3
        # a term past the order once sliced K_1's maxima from the end and
        # raised numpy's broadcast error
        ham = quintic_family(5, 4)
        frame = g.eigenframe(ham.term(0))
        for order in range(7):
            gens = g.solve_generators(ham, frame, order)
            k0f, k1f = reference_generator_stacks(ham, frame, order)
            assert gens._k0f.tobytes() == k0f.tobytes()
            assert gens._k1f.tobytes() == k1f.tobytes()
            assert g.hierarchy_residuals(ham, gens).max() < 1e-12

    def test_consistency_failure_names_the_first_order(self, toy, toy_frame, monkeypatch):
        # every order's implied zero is read after the sweep; a gate no order
        # can meet fails order 0, at the floor scale 1
        monkeypatch.setattr(g.generators, "_CONSISTENCY_RTOL", -1.0)
        message = r"^order 0: .* 0\.000e\+00 \(scale 1\.000e\+00\)$"
        with pytest.raises(g.ConsistencyFailure, match=message):
            g.solve_generators(toy, toy_frame, 4)


class TestFrameStacks:
    """A solve keeps K_0 and K_1 as frame stacks; `k0`/`k1` are views formed
    from them on first read."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_stacks_are_the_views_in_the_frame(self, family):
        ham = _hamiltonian(family)
        gens = g.solve_model(ham, 6)
        w, v = gens.frame.left, gens.frame.right
        for views, stack in ((gens.k0, gens._k0f), (gens.k1, gens._k1f)):
            assert stack.shape == (7, ham.dim, ham.dim) and not stack.flags.writeable
            assert type(views) is tuple and len(views) == 7
            for view, frame_matrix in zip(views, stack):
                assert view.shape == (ham.dim, ham.dim) and not view.flags.writeable
                assert _relative(w @ view @ v, frame_matrix) <= 1e-13
        # formed once: every later read returns the same tuple
        assert gens.k0 is gens.k0 and gens.k1 is gens.k1

    def test_readme_loop_forms_no_views(self):
        ham = seeded_quadratic_family(0, 16)
        gens = g.solve_generators(ham, g.eigenframe(ham.term(0)), 6)
        for n in range(ham.dim):
            g.build_series(gens, n, 6)
            g.eigenvalue_corrections(gens, n, 6)
            g.state_corrections_recursive(gens, n, 6)
        g.build_all_series(gens, 6)
        assert "k0" not in vars(gens) and "k1" not in vars(gens)

    def test_concurrent_first_reads_return_whole_views(self):
        ham = seeded_quadratic_family(0, 8)
        frame = g.eigenframe(ham.term(0))
        solved = g.solve_generators(ham, frame, 6)
        expected = (np.stack(solved.k0).tobytes(), np.stack(solved.k1).tobytes())
        fresh = [g.solve_generators(ham, frame, 6) for _ in range(40)]
        seen = []

        def read():
            for gens in fresh:
                seen.append((np.stack(gens.k0).tobytes(), np.stack(gens.k1).tobytes()))

        threads = [threading.Thread(target=read) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(seen) == 8 * 40 and all(pair == expected for pair in seen)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_direct_construction_and_replace_match_the_solve(self, family):
        ham = _hamiltonian(family)
        order = 8
        gens = g.solve_model(ham, order)
        direct = g.GeneratorSeries(
            order=order, k0=gens.k0, k1=gens.k1, gauge=gens.gauge, frame=gens.frame
        )
        expected = _block_arrays(g.build_all_series(gens, order))
        for other in (direct, dataclasses.replace(gens)):
            assert other._block is None
            for stack, solved in ((other._k0f, gens._k0f), (other._k1f, gens._k1f)):
                assert all(_relative(a, b) <= 1e-13 for a, b in zip(stack, solved))
            # the stacks' round trip moves each order by roundoff of its largest
            # entry, which cancellation may leave on a much smaller one
            for a, b in zip(_block_arrays(g.build_all_series(other, order)), expected):
                scale = np.maximum(1.0, np.abs(b).max(axis=(0, -1)))
                assert np.max(np.abs(a - b).max(axis=(0, -1)) / scale) <= 1e-13

    def test_direct_construction_holds_read_only_tuples(self, toy_gens):
        # whatever was passed, k0/k1 are views of the one stack both routes
        # read, so a later write to the caller's arrays moves neither route
        order = toy_gens.order
        k0, k1 = [m.copy() for m in toy_gens.k0], [m.copy() for m in toy_gens.k1]
        direct = g.GeneratorSeries(order=order, k0=k0, k1=k1, gauge=toy_gens.gauge,
                                   frame=toy_gens.frame)
        for views, stack in ((direct.k0, direct._kc[0]), (direct.k1, direct._kc[1])):
            assert type(views) is tuple and len(views) == order + 1
            for view, matrix in zip(views, stack):
                assert not view.flags.writeable and np.shares_memory(view, direct._kc)
                assert np.array_equal(view, matrix)
        k0[1] += 0.5
        k1[1] += 0.5
        for n in range(direct.frame.dim):
            bell = g.state_corrections_bell(direct, n, order + 1)
            recursive = g.state_corrections_recursive(direct, n, order + 1)
            assert max(_relative(a, b) for a, b in zip(bell, recursive)) <= 1e-12

    @pytest.mark.parametrize(
        "field, change",
        [
            ("k0", lambda gens: {"k0": gens.k0[:2]}),
            ("k1", lambda gens: {"k1": gens.k1 + gens.k1[:1]}),
            ("k0", lambda gens: {"order": gens.order + 1}),
            ("k0", lambda gens: {"k0": (np.eye(3),) + gens.k0[1:]}),
            ("k1", lambda gens: {"k1": tuple(m[:1] for m in gens.k1)}),
        ],
        ids=["short", "long", "order", "dimension", "shape"],
    )
    def test_direct_construction_checks_count_and_shape(self, toy_gens, field, change):
        fields = {
            "order": toy_gens.order, "k0": toy_gens.k0, "k1": toy_gens.k1,
            "gauge": toy_gens.gauge, "frame": toy_gens.frame, **change(toy_gens),
        }
        with pytest.raises(g.DimensionMismatch, match=f"^{field} "):
            g.GeneratorSeries(**fields)
        with pytest.raises(g.DimensionMismatch, match=f"^{field} "):
            dataclasses.replace(toy_gens, **change(toy_gens))


def _block_arrays(series):
    """h (state, k, 1) and states (state, k, component) of a list of series."""
    h = np.array([s.eigenvalue_corrections for s in series])[..., None]
    return h, np.array([s.state_corrections for s in series])
