import dataclasses
import re

import numpy as np
import pytest

import geompert as g
from geompert.corrections import _bell_block
from oracles import (
    linear_family,
    reference_bell_blocks,
    reference_eigenvalue_corrections,
    reference_state_corrections,
    seeded_quadratic_family,
    textbook_rs_corrections,
    worked_low_order_corrections,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def random_generator_series(rng, n, order):
    """Synthetic generator coefficients on a random non-degenerate frame.

    State-correction routes only consume the K_0 list and the frame, so
    arbitrary matrices exercise them fully.
    """
    h0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    frame = g.eigenframe(h0 + np.diag(3.0 * np.arange(n)))
    k0 = tuple(
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for _ in range(order + 1)
    )
    k1 = tuple(np.zeros((n, n), dtype=complex) for _ in range(order + 1))
    return g.GeneratorSeries(order=order, k0=k0, k1=k1, gauge="zero-diagonal", frame=frame)


class TestStateCorrections:
    def test_first_order_is_transport_action(self, toy_gens):
        for n in range(2):
            v0 = toy_gens.frame.right[:, n]
            vecs = g.state_corrections_recursive(toy_gens, n, 1)
            assert np.allclose(vecs[1], -1j * (toy_gens.k0[0] @ v0), atol=1e-14)

    def test_toy_first_order_plus_state(self, toy_gens):
        # |+^(1)> is (i/2) |-^(0)> for unit constants
        vecs = g.state_corrections_recursive(toy_gens, 1, 1)
        s = 1 / (2 * np.sqrt(2))
        assert np.allclose(vecs[1], [1j * s, -1j * s], atol=1e-14)

    def test_zero_transport_means_frozen_state(self, toy_frame):
        zero = tuple(np.zeros((2, 2), dtype=complex) for _ in range(4))
        gens = g.GeneratorSeries(
            order=3, k0=zero, k1=zero, gauge="zero-diagonal", frame=toy_frame
        )
        for n in range(2):
            vecs = g.state_corrections_recursive(gens, n, 3)
            for k in range(1, 4):
                assert np.all(vecs[k] == 0)

    def test_bell_second_order_formula(self, rng):
        gens = random_generator_series(rng, 4, 3)
        k00, k01 = gens.k0[0], gens.k0[1]
        for n in range(4):
            v0 = gens.frame.right[:, n]
            vecs = g.state_corrections_bell(gens, n, 2)
            expected = -0.5 * ((k00 @ (k00 @ v0)) + 1j * (k01 @ v0))
            assert np.allclose(vecs[2], expected, atol=1e-13)

    def test_routes_agree_random(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            gens = random_generator_series(rng, n, 5)
            state = int(rng.integers(0, n))
            rec = g.state_corrections_recursive(gens, state, 6)
            bell = g.state_corrections_bell(gens, state, 6)
            for a, b in zip(rec, bell):
                assert np.abs(a - b).max() < 1e-12

    def test_order_zero_is_frame_vector(self, toy_gens):
        vecs = g.state_corrections_bell(toy_gens, 0, 0)
        assert np.array_equal(vecs[0], toy_gens.frame.right[:, 0])

    def test_insufficient_order(self, toy_gens):
        with pytest.raises(g.InsufficientOrder):
            g.state_corrections_recursive(toy_gens, 0, toy_gens.order + 2)


class TestEigenvalueCorrections:
    def test_toy_series(self, toy_gens):
        # exact spectrum sqrt(1 + q^2 + q^4): odd orders vanish,
        # h^(2) = 1/2, h^(4) = 3/8 on the "+" branch, mirrored on "-"
        for n, sign in ((0, -1), (1, +1)):
            h = g.eigenvalue_corrections(toy_gens, n, 4)
            assert np.allclose(
                h, sign * np.array([1.0, 0.0, 0.5, 0.0, 0.375]), atol=1e-12
            )

    def test_first_order_is_eigenflow_diagonal(self, rng):
        ham = linear_family(rng, 4)
        frame = g.eigenframe(ham.term(0))
        gens = g.solve_generators(ham, frame, 0)
        bb = g.double_bracket(frame, gens.k1[0])
        for n in range(4):
            h = g.eigenvalue_corrections(gens, n, 1)
            assert abs(h[1] - bb[n, n]) < 1e-12 * max(1, abs(bb[n, n]))

    def test_bell_route_agrees(self, rng):
        for _ in range(5):
            ham = linear_family(rng, 4)
            gens = g.solve_model(ham, 5)
            for n in range(4):
                ha = g.eigenvalue_corrections(gens, n, 6)
                hb = g.eigenvalue_corrections_bell(gens, n, 6)
                assert np.abs(ha - hb).max() < 1e-11 * max(1, np.abs(ha).max())

    def test_worked_low_orders_zero_gauge(self, rng):
        # explicit double-bracket expressions for h^(1..3) match the engine
        for _ in range(5):
            ham = linear_family(rng, 4)
            gens = g.solve_model(ham, 2)
            for n in range(4):
                h = g.eigenvalue_corrections(gens, n, 3)
                worked = worked_low_order_corrections(gens, n)
                for k, ref in enumerate(worked, start=1):
                    assert abs(h[k] - ref) < 1e-11 * max(1, abs(ref))

    def test_worked_low_orders_custom_gauge(self, rng):
        # the same expressions carry the gauge terms, so they must also hold
        # when the transport diagonal is nonzero
        ham = linear_family(rng, 4)
        frame = g.eigenframe(ham.term(0))
        diags = [
            0.4 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
            for _ in range(3)
        ]
        gens = g.solve_generators(ham, frame, 2, k0_diagonals=diags)
        for n in range(4):
            h = g.eigenvalue_corrections(gens, n, 3)
            worked = worked_low_order_corrections(gens, n)
            for k, ref in enumerate(worked, start=1):
                assert abs(h[k] - ref) < 1e-11 * max(1, abs(ref))

    def test_gauge_invariance(self, rng):
        for _ in range(5):
            ham = linear_family(rng, 4)
            frame = g.eigenframe(ham.term(0))
            base = g.solve_generators(ham, frame, 3)
            diags = [
                rng.standard_normal(4) + 1j * rng.standard_normal(4)
                for _ in range(4)
            ]
            shifted = g.solve_generators(ham, frame, 3, k0_diagonals=diags)
            assert g.hierarchy_residuals(ham, shifted).max() < 1e-10
            for n in range(4):
                ha = g.eigenvalue_corrections(base, n, 3)
                hb = g.eigenvalue_corrections(shifted, n, 3)
                assert np.abs(ha - hb).max() < 1e-10 * max(1, np.abs(ha).max())
                sa = g.state_corrections_recursive(base, n, 1)[1]
                sb = g.state_corrections_recursive(shifted, n, 1)[1]
                assert np.abs(sa - sb).max() > 1e-3  # states do change

    def test_hermitian_reality(self, rng):
        for _ in range(5):
            ham = linear_family(rng, 4, hermitian=True)
            gens = g.solve_model(ham, 3)
            for n in range(4):
                h = g.eigenvalue_corrections(gens, n, 4)
                for hk in h:
                    assert abs(hk.imag) <= 1e-10 * abs(hk.real) + 1e-12

    def test_insufficient_order(self, toy_gens):
        with pytest.raises(g.InsufficientOrder):
            g.eigenvalue_corrections(toy_gens, 0, toy_gens.order + 2)


class TestBuildSeries:
    def test_zeroth_entries_match_frame(self, toy_gens):
        series = g.build_series(toy_gens, 1, 3)
        assert series.eigenvalue_corrections[0] == toy_gens.frame.eigenvalues[1]
        assert np.array_equal(series.state_corrections[0], toy_gens.frame.right[:, 1])
        assert series.gauge == "zero-diagonal"
        assert series.order == 3

    def test_truncated_evaluation(self, toy_gens):
        series = g.build_series(toy_gens, 1, 4)
        q = 0.01
        expected = sum(
            (q**k) * series.eigenvalue_corrections[k] for k in range(5)
        )
        assert series.eigenvalue_at(q) == pytest.approx(expected)


def _relative(a, b):
    """max|a - b| relative to max(1, max|b|)."""
    return np.abs(a - b).max() / max(1.0, np.abs(b).max())


class TestBlockKernel:
    @pytest.mark.parametrize("family", [*g.BUILTIN_MODELS, "seeded-N16-deg2"])
    def test_matches_per_state_reference(self, family):
        if family in g.BUILTIN_MODELS:
            ham = g.builtin_model(family).to_hamiltonian()
        else:
            ham = seeded_quadratic_family(0, 16)
        order = 10
        gens = g.solve_model(ham, order)
        everything = g.build_all_series(gens, order)
        assert [s.state for s in everything] == list(range(ham.dim))
        for n, block in enumerate(everything):
            assert block.gauge == gens.gauge and block.order == order
            # the block's columns against the per-state reference loops
            ref_states = reference_state_corrections(gens, n, order)
            for a, b in zip(block.state_corrections, ref_states, strict=True):
                assert _relative(a, b) <= 1e-12
            ref_h = reference_eigenvalue_corrections(gens, n, order)
            assert _relative(block.eigenvalue_corrections, ref_h) <= 1e-11
            # every per-state view against its column of build_all_series
            single = g.build_series(gens, n, order)
            for vecs in (
                g.state_corrections_recursive(gens, n, order),
                single.state_corrections,
            ):
                for a, b in zip(vecs, block.state_corrections, strict=True):
                    assert _relative(a, b) <= 1e-12
            for h in (
                g.eigenvalue_corrections(gens, n, order),
                single.eigenvalue_corrections,
            ):
                assert _relative(h, block.eigenvalue_corrections) <= 1e-11

    def test_all_series_errors(self, toy_gens):
        with pytest.raises(g.InsufficientOrder):
            g.build_all_series(toy_gens, toy_gens.order + 2)
        with pytest.raises(ValueError):
            g.build_all_series(toy_gens, -1)

    def test_all_series_order_zero(self, toy_gens):
        everything = g.build_all_series(toy_gens, 0)
        for n, series in enumerate(everything):
            assert series.eigenvalue_corrections[0] == toy_gens.frame.eigenvalues[n]
            assert np.array_equal(series.state_corrections[0], toy_gens.frame.right[:, n])


class TestAllStateBlock:
    """Per-state views read one memoized all-state block per (solve, order)."""

    @staticmethod
    def _count_blocks(monkeypatch):
        calls = []
        original = g.corrections._series_block

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(g.corrections, "_series_block", counted)
        return calls

    def test_readme_loop_runs_one_block_per_order(self, monkeypatch):
        ham = seeded_quadratic_family(0, 16)
        gens = g.solve_model(ham, 6)
        calls = self._count_blocks(monkeypatch)
        for n in range(ham.dim):
            g.build_series(gens, n, 6)
            g.eigenvalue_corrections(gens, n, 6)
            g.state_corrections_recursive(gens, n, 6)
        g.build_all_series(gens, 6)
        assert len(calls) == 1
        for n in range(ham.dim):
            g.build_series(gens, n, 4)
        assert len(calls) == 2

    @pytest.mark.parametrize("family", [*g.BUILTIN_MODELS, "seeded-N16-deg2"])
    def test_views_equal_all_series_bit_for_bit(self, family):
        if family in g.BUILTIN_MODELS:
            ham = g.builtin_model(family).to_hamiltonian()
        else:
            ham = seeded_quadratic_family(0, 16)
        order = 8
        gens = g.solve_model(ham, order)
        everything = g.build_all_series(gens, order)
        for n, block in enumerate(everything):
            single = g.build_series(gens, n, order)
            assert single.state == n and single.order == order
            for h in (single.eigenvalue_corrections, g.eigenvalue_corrections(gens, n, order)):
                assert h.tobytes() == block.eigenvalue_corrections.tobytes()
            for vecs in (single.state_corrections, g.state_corrections_recursive(gens, n, order)):
                assert len(vecs) == order + 1
                for a, b in zip(vecs, block.state_corrections):
                    assert a.shape == (ham.dim,) and a.tobytes() == b.tobytes()

    def test_returned_arrays_are_read_only(self, toy_gens):
        before = g.eigenvalue_corrections(toy_gens, 1, 4).copy()
        states_before = [v.copy() for v in g.state_corrections_recursive(toy_gens, 1, 4)]
        arrays = [
            g.eigenvalue_corrections(toy_gens, 1, 4),
            g.state_corrections_recursive(toy_gens, 1, 4)[2],
            g.build_series(toy_gens, 1, 4).eigenvalue_corrections,
            g.build_series(toy_gens, 1, 4).state_corrections[1],
            g.build_all_series(toy_gens, 4)[1].eigenvalue_corrections,
            g.build_all_series(toy_gens, 4)[1].state_corrections[3],
        ]
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 7.0
        assert np.array_equal(g.eigenvalue_corrections(toy_gens, 1, 4), before)
        assert np.array_equal(g.build_all_series(toy_gens, 4)[1].eigenvalue_corrections, before)
        for a, b in zip(g.state_corrections_recursive(toy_gens, 1, 4), states_before):
            assert np.array_equal(a, b)

    def test_replace_starts_an_empty_memo(self, toy_gens):
        original = g.build_series(toy_gens, 1, 3)
        zero = tuple(np.zeros_like(m) for m in toy_gens.k0)
        frozen = dataclasses.replace(toy_gens, k0=zero)
        assert frozen._blocks == {} and toy_gens._blocks
        for k, vec in enumerate(g.build_series(frozen, 1, 3).state_corrections):
            assert np.any(vec != 0) if k == 0 else np.all(vec == 0)
        again = g.build_series(toy_gens, 1, 3)
        assert again.state_corrections[1].tobytes() == original.state_corrections[1].tobytes()
        assert np.any(original.state_corrections[1] != 0)


class TestStateIndex:
    """Every per-state function takes an integer 0 <= n < N and nothing else."""

    @pytest.mark.parametrize("n", [-1, 2, 7, True, False, 1.0, np.float64(0.0), "0"])
    def test_rejected(self, toy, toy_frame, toy_gens, n):
        series = g.build_series(toy_gens, 1, 2)
        curve = g.exact_spectrum_sweep(toy, np.logspace(-3, -1, 17))
        calls = [
            lambda: g.build_series(toy_gens, n, 2),
            lambda: g.eigenvalue_corrections(toy_gens, n, 2),
            lambda: g.state_corrections_recursive(toy_gens, n, 2),
            lambda: g.state_corrections_bell(toy_gens, n, 2),
            lambda: g.eigenvalue_corrections_bell(toy_gens, n, 2),
            lambda: g.rs_linear_corrections(toy_frame, toy.term(1), n),
            lambda: g.series_residual_order(curve, series, n, 2, (1e-3, 1e-1)),
            lambda: g.state_ray_residual(toy, series, n, 2, [1e-3, 1e-2]),
            lambda: g.fd_eigenvalue_derivatives(toy, n, 1),
        ]
        for call in calls:
            with pytest.raises(IndexError, match=re.escape(f"n = {n!r}") + ".*N = 2"):
                call()

    def test_numpy_integers_accepted(self, toy, toy_gens):
        n = np.int64(1)
        assert g.build_series(toy_gens, n, 2).state == 1
        assert type(g.build_series(toy_gens, n, 2).state) is int
        assert np.array_equal(
            g.eigenvalue_corrections(toy_gens, n, 2), g.eigenvalue_corrections(toy_gens, 1, 2)
        )
        assert g.fd_eigenvalue_derivatives(toy, np.int32(1), 1) == g.fd_eigenvalue_derivatives(
            toy, 1, 1
        )


class TestBellGradeStacks:
    @pytest.mark.parametrize("family", [*g.BUILTIN_MODELS, "seeded-N6"])
    def test_bit_identical_to_word_by_word(self, family):
        if family in g.BUILTIN_MODELS:
            ham = g.builtin_model(family).to_hamiltonian()
        else:
            ham = seeded_quadratic_family(0, 6)
        gens = g.solve_model(ham, 10)
        for cols in (np.arange(ham.dim), [ham.dim - 1]):
            ref = reference_bell_blocks(gens, cols, 10)
            for order in range(11):
                blocks = _bell_block(gens, cols, order)
                assert len(blocks) == order + 1
                for a, b in zip(blocks, ref):
                    # bytes compare signs of zero too
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestLinearClosedForms:
    def test_first_line_identity(self, rng):
        ham = linear_family(rng, 4)
        frame = g.eigenframe(ham.term(0))
        a = g.double_bracket(frame, ham.term(1))
        for n in range(4):
            h1, _, _ = g.rs_linear_corrections(frame, ham.term(1), n)
            assert h1 == pytest.approx(a[n, n])

    def test_two_level_hermitian(self):
        # exact eigenvalues of diag(0,2) + q flip: 1 -/+ sqrt(1+q^2);
        # second-order coefficients are -/+ 1/2
        frame = g.eigenframe(np.diag([0.0, 2.0]))
        _, h2_low, _ = g.rs_linear_corrections(frame, SX, 0)
        _, h2_high, _ = g.rs_linear_corrections(frame, SX, 1)
        assert h2_low == pytest.approx(-0.5)
        assert h2_high == pytest.approx(0.5)

    def test_commuting_perturbation_has_first_order_only(self, rng):
        lam = np.diag([0.0, 1.0, 2.5])
        frame = g.eigenframe(lam)
        h1 = np.diag([0.3, -0.7, 1.1]).astype(complex)
        for n in range(3):
            _, h2, h3 = g.rs_linear_corrections(frame, h1, n)
            assert abs(h2) < 1e-14 and abs(h3) < 1e-14

    def test_dimension_mismatch(self, toy_frame):
        with pytest.raises(g.DimensionMismatch):
            g.rs_linear_corrections(toy_frame, np.eye(3), 0)


class TestCrosscheckLinear:
    def test_random_non_hermitian(self, rng):
        for _ in range(5):
            ham = linear_family(rng, 4)
            result = g.crosscheck_linear(ham)
            assert result.passed
            assert result.max_relative_deviation <= 1e-10

    def test_hermitian_matches_textbook(self, rng):
        ham = linear_family(rng, 5, hermitian=True)
        result = g.crosscheck_linear(ham)
        assert result.passed
        frame = g.eigenframe(ham.term(0))
        for n in range(5):
            ref = textbook_rs_corrections(ham.term(0), ham.term(1), n)
            ours = g.rs_linear_corrections(frame, ham.term(1), n)
            for x, y in zip(ours, ref):
                assert abs(x - y) < 1e-10 * max(1, abs(y))

    def test_zero_perturbation(self):
        ham = g.PolynomialHamiltonian([np.diag([0.0, 1.0, 3.0]), np.zeros((3, 3))])
        result = g.crosscheck_linear(ham)
        assert result.passed
        assert np.all(result.recursion == 0)
        assert np.all(result.h1_route == 0)

    def test_degree_guard(self, toy):
        with pytest.raises(g.DegreeMismatch):
            g.crosscheck_linear(toy)
