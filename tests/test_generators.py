import numpy as np
import pytest

import geompert as g
from oracles import (
    k0_order0_offdiag,
    k0_order1_offdiag,
    k1_order1_diag,
    k1_order2_diag,
    linear_family,
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
        assert len(calls) == len(toy.terms) == 3
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
