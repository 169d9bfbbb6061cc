import dataclasses
import re

import numpy as np
import pytest

import geompert as g
from geompert.bellpoly import MAX_WORD_GRADE
from geompert.corrections import (
    _all_block,
    _bell_block,
    _equation_residuals,
    _rs_block,
    _series_block,
)
from geompert.pipeline import run_pipeline
from oracles import (
    linear_family,
    manufactured_family,
    reference_bell_blocks,
    reference_eigenvalue_corrections,
    reference_equation_residual,
    reference_rs_block,
    reference_rs_closed_forms,
    reference_rs_extended,
    reference_series_block,
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

    def test_real_frame_matches_extended_precision(self):
        # seeded N = 6 has a real H_0: the real-arithmetic frame and the README
        # library path to order 12, against the frame and recursion in 40 digits
        ham = seeded_quadratic_family(0, 6)
        gens = g.solve_generators(ham, g.eigenframe(ham.term(0)), 12)
        got = np.array([s.eigenvalue_corrections for s in g.build_all_series(gens, 12)]).T
        assert _relative(got, reference_rs_extended(ham, 12)) <= 1e-13


def _relative(a, b):
    """Largest |a - b| relative to max(1, |b|), entry by entry."""
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


def _per_column(a, b):
    """Largest max|a - b| of a column relative to max(1, max|b|) of the column."""
    return np.max(np.abs(a - b).max(axis=0) / np.maximum(1.0, np.abs(b).max(axis=0)))


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

    @pytest.mark.parametrize("family", [*g.BUILTIN_MODELS, "seeded-N16-deg2"])
    def test_lower_orders_are_prefixes_bit_for_bit(self, family):
        if family in g.BUILTIN_MODELS:
            ham = g.builtin_model(family).to_hamiltonian()
        else:
            ham = seeded_quadratic_family(0, 16)
        gens = g.solve_model(ham, 12)
        cols = np.arange(ham.dim)
        top_states, top_h = _series_block(gens, cols, 12)
        for order in range(13):
            states, h = _series_block(gens, cols, order)
            assert states.shape == (order + 1, ham.dim, ham.dim)
            assert states.tobytes() == top_states[: order + 1].tobytes()
            assert h.tobytes() == top_h[: order + 1].tobytes()

    def test_frame_recursion_matches_extended_precision(self):
        # the frame kernel's states against the same recursion run in 40
        # digits on the solve's stacks: at most 4e-15 off per state up to
        # order 12, where the computational-basis recursion was 1.1e-13 off
        import mpmath  # a dependency of sympy

        mpmath.mp.dps = 40
        ham = g.builtin_model("random-linear-N4-seed7").to_hamiltonian()
        gens = g.solve_model(ham, 12)
        states, _ = _series_block(gens, np.arange(ham.dim), 12)

        def exact(a):
            return mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in a])

        k0f, v = [exact(m) for m in gens._k0f], exact(gens.frame.right)
        coeffs = [mpmath.eye(ham.dim)]
        for k in range(1, 13):
            acc = mpmath.zeros(ham.dim, ham.dim)
            for j in range(1, k + 1):
                acc += k0f[j - 1] * coeffs[k - j]
            coeffs.append(acc * mpmath.mpc(0, -1) / k)
            ref = np.array((v * coeffs[k]).tolist(), dtype=complex)
            # per state: a scale shared by all states would hide the small ones' errors
            assert _per_column(states[k], ref) <= 2e-14

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
    """Per-state views read one memoized all-state block per solve; a lower
    order is a prefix of it."""

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
        gens = g.solve_model(ham, 8)
        calls = self._count_blocks(monkeypatch)
        for n in range(ham.dim):
            g.build_series(gens, n, 6)
            g.eigenvalue_corrections(gens, n, 6)
            g.state_corrections_recursive(gens, n, 6)
        g.build_all_series(gens, 6)
        assert len(calls) == 1
        for n in range(ham.dim):
            g.build_series(gens, n, 4)
        assert len(calls) == 1
        for n in range(ham.dim):
            g.build_series(gens, n, 8)
        assert len(calls) == 2 and gens._block[1].shape == (9, ham.dim)

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
        assert frozen._block is None and toy_gens._block is not None
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


class TestSeriesOrder:
    """Every function that takes a series order takes an integer >= 0 and
    nothing else; `fd_eigenvalue_derivatives` takes an integer k in 1..4."""

    @staticmethod
    def _calls(toy, toy_frame, toy_gens, order):
        series = g.build_series(toy_gens, 1, 2)
        curve = g.exact_spectrum_sweep(toy, np.logspace(-3, -1, 17))
        return {
            "solve_generators": lambda: g.solve_generators(toy, toy_frame, order).k0,
            "solve_model": lambda: g.solve_model(toy, order).k1,
            "build_series": lambda: g.build_series(toy_gens, 1, order).eigenvalue_corrections,
            "build_all_series": lambda: [
                s.eigenvalue_corrections for s in g.build_all_series(toy_gens, order)
            ],
            "eigenvalue_corrections": lambda: g.eigenvalue_corrections(toy_gens, 1, order),
            "state_corrections_recursive": lambda: g.state_corrections_recursive(toy_gens, 1, order),
            "state_corrections_bell": lambda: g.state_corrections_bell(toy_gens, 1, order),
            "eigenvalue_corrections_bell": lambda: g.eigenvalue_corrections_bell(toy_gens, 1, order),
            "series_residual_order": lambda: g.series_residual_order(
                curve, series, 1, order, (1e-3, 1e-1)
            ),
            "state_ray_residual": lambda: g.state_ray_residual(toy, series, 1, order, [1e-3, 1e-2]),
            "fd_eigenvalue_derivatives": lambda: g.fd_eigenvalue_derivatives(toy, 1, order),
        }

    @pytest.mark.parametrize("order", [True, False, 1.0, np.float64(2.0), "2"])
    def test_rejected(self, toy, toy_frame, toy_gens, order):
        for name, call in self._calls(toy, toy_frame, toy_gens, order).items():
            with pytest.raises(ValueError, match="order.*" + re.escape(repr(order))):
                call()

    def test_negative_order_message(self, toy, toy_frame, toy_gens):
        calls = self._calls(toy, toy_frame, toy_gens, -1)
        del calls["fd_eigenvalue_derivatives"]  # k is checked against 1..4
        for call in calls.values():
            with pytest.raises(ValueError, match="order must be non-negative"):
                call()

    def test_numpy_integers_accepted(self, toy, toy_frame, toy_gens):
        wide = self._calls(toy, toy_frame, toy_gens, np.int64(2))
        plain = self._calls(toy, toy_frame, toy_gens, 2)
        for name, call in wide.items():
            assert np.asarray(call()).tobytes() == np.asarray(plain[name]()).tobytes(), name
        assert type(g.build_series(toy_gens, 1, np.int64(2)).order) is int


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

    def test_order_above_the_cap_builds_no_table(self, monkeypatch):
        gens = g.solve_model(g.toy_model(), MAX_WORD_GRADE)

        def no_table(k):
            raise AssertionError(f"built the grade-{k} table")

        monkeypatch.setattr(g.corrections, "dual_bell_coefficients", no_table)
        with pytest.raises(ValueError, match=f"order {MAX_WORD_GRADE + 1} exceeds {MAX_WORD_GRADE}"):
            g.state_corrections_bell(gens, 0, MAX_WORD_GRADE + 1)


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


def _family(name):
    if name in g.BUILTIN_MODELS:
        return g.builtin_model(name).to_hamiltonian()
    return seeded_quadratic_family(0, int(name.removeprefix("seeded-N")))


class TestStackedSeriesKernel:
    """The series kernel makes each order's products in one stacked matmul,
    sums them and each h^(k)'s terms in one reduce, and forms the contraction
    table on the triangle it reads: its blocks are the per-term loop's bit for
    bit, for every column or one (where a complex sum of single numbers would
    go pairwise), on the recursion and on the Bell route."""

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 12])
    @pytest.mark.parametrize(
        "family", [*g.BUILTIN_MODELS, "seeded-N1", "seeded-N6", "seeded-N16", "seeded-N64"]
    )
    def test_blocks_are_the_per_term_loop(self, family, order):
        ham = _family(family)
        frame = g.eigenframe(ham.term(0))
        rng = np.random.default_rng(order)
        custom = [
            0.5 * (rng.standard_normal(ham.dim) + 1j * rng.standard_normal(ham.dim))
            for _ in range(order + 1)
        ]
        for diags in (None, custom):
            gens = g.solve_generators(ham, frame, order, k0_diagonals=diags)
            for cols in (np.arange(ham.dim), np.array([ham.dim - 1])):
                # order + 1 reads K_0^(order), the highest the solve holds
                for a, b in zip(_series_block(gens, cols, order + 1),
                                reference_series_block(gens, cols, order + 1)):
                    # bytes compare signs of zero too
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()
            states, h = _all_block(gens, order + 1)
            ref_states, ref_h = reference_series_block(gens, np.arange(ham.dim), order + 1)
            assert states.tobytes() == ref_states.tobytes() and h.tobytes() == ref_h.tobytes()

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 12])
    @pytest.mark.parametrize(
        "family", [*g.BUILTIN_MODELS, "seeded-N1", "seeded-N6", "seeded-N16", "seeded-N64"]
    )
    def test_bell_routes_are_the_per_term_loop(self, family, order):
        ham = _family(family)
        gens = g.solve_model(ham, order)
        n = ham.dim - 1
        words = reference_bell_blocks(gens, [n], order + 1)
        for a, b in zip(g.state_corrections_bell(gens, n, order + 1), words, strict=True):
            assert a.tobytes() == b[:, 0].tobytes()
        expected = reference_series_block(gens, [n], order + 1, np.stack(words[: order + 1]))[1]
        got = g.eigenvalue_corrections_bell(gens, n, order + 1)
        assert got.tobytes() == expected[:, 0].tobytes()
        if ham.dim <= 16:  # every column: 3 * 2^(K-2) N^2 complex numbers
            cols = np.arange(ham.dim)
            bell = _bell_block(gens, cols, order + 1)
            assert all(a.tobytes() == b.tobytes()
                       for a, b in zip(bell, reference_bell_blocks(gens, cols, order + 1)))
            for a, b in zip(_series_block(gens, slice(None), order + 1, bell),
                            reference_series_block(gens, cols, order + 1, bell)):
                assert a.tobytes() == b.tobytes()


class TestEigenEquationCertificate:
    """The run's series block solves H(q)|n(q)> = h_n(q)|n(q)> order by order,
    to roundoff relative to the terms that cancel, and a 1e-8 error in one
    coefficient does not."""

    GATE = 1e-12

    @pytest.mark.parametrize("order", [3, 12])
    @pytest.mark.parametrize("family", [*g.BUILTIN_MODELS, "seeded-N6", "seeded-N16"])
    def test_block_certified_and_errors_caught(self, family, order):
        if family in g.BUILTIN_MODELS:
            ham = g.builtin_model(family).to_hamiltonian()
        else:
            ham = seeded_quadratic_family(0, int(family.removeprefix("seeded-N")))
        gens = g.solve_generators(ham, g.eigenframe(ham.term(0)), max(order, 2))
        states, h = _all_block(gens, order)
        assert reference_equation_residual(ham.terms, states, h) <= self.GATE
        dim = ham.dim
        for k in range(4):
            for n in (0, dim - 1):
                wrong_h = np.array(h)
                wrong_h[k, n] += 1e-8 * max(1.0, abs(h[k, n]))
                assert reference_equation_residual(ham.terms, states, wrong_h) > self.GATE
                wrong_states = np.array(states)
                wrong_states[k, (n + 1) % dim, n] += 1e-8 * max(
                    1.0, float(np.linalg.norm(states[k][:, n]))
                )
                assert reference_equation_residual(ham.terms, wrong_states, h) > self.GATE


class TestEquationResidualCheck:
    """The FAST check `equation_residual` is the certificate above, run on the
    pipeline's block: it PASSes correct series through order 18, names its
    worst entry, and FAILs one wrong coefficient injected in the kernel."""

    GATE = 1e-12

    @staticmethod
    def _run(family, order):
        doc = g.ModelDocument(family, list(_family(family).terms))
        return run_pipeline(doc, order, {"equation_residual"}).checks["equation_residual"]

    @pytest.mark.parametrize("order", [1, 3, 12, 18])
    @pytest.mark.parametrize("family", [*g.BUILTIN_MODELS, "seeded-N16", "seeded-N64"])
    def test_passes_correct_series(self, family, order):
        entry = self._run(family, order)
        assert list(entry) == ["status", "max_relative_residual", "threshold", "state", "order"]
        assert entry["status"] == "pass" and entry["threshold"] == self.GATE
        ham = _family(family)
        states, h = _all_block(g.solve_model(ham, max(order, 2)), order)
        relative = _equation_residuals(ham.terms, states, h)
        assert relative.shape == (order + 1, ham.dim)
        assert relative[entry["order"], entry["state"]] == relative.max()
        assert entry["max_relative_residual"] == relative.max()
        # the reference sums each scale in another order: roundoff apart
        reference = reference_equation_residual(ham.terms, states, h)
        assert entry["max_relative_residual"] == pytest.approx(reference, rel=1e-12, abs=0)

    @pytest.mark.parametrize("order", [3, 12])
    @pytest.mark.parametrize("family", [*g.BUILTIN_MODELS, "seeded-N16"])
    def test_fails_one_wrong_coefficient(self, family, order, monkeypatch):
        dim = _family(family).dim
        original = g.corrections._series_block

        def wrong_h(k, n):
            def inject(states, h):
                h[k, n] += 1e-8 * max(1.0, abs(h[k, n]))
            return inject

        def wrong_state(k, n):
            # an entry off the state's own row: not along |n^(0)>, the gauge direction
            def inject(states, h):
                size = max(1.0, float(np.linalg.norm(states[k][:, n])))
                states[k, (n + 1) % dim, n] += 1e-8 * size
            return inject

        # h^(k) for k <= 3: a 1e-8 error in a high order can read below the gate
        cases = [wrong_h(k, n) for k in range(4) for n in (0, dim - 1)]
        cases += [wrong_state(k, n) for k in range(order + 1) for n in (0, dim - 1)]
        for inject in cases:
            def kernel(*args, inject=inject):
                states, h = (a.copy() for a in original(*args))
                inject(states, h)
                return states, h

            monkeypatch.setattr(g.corrections, "_series_block", kernel)
            entry = self._run(family, order)
            assert entry["status"] == "fail"
            assert entry["max_relative_residual"] > 5 * self.GATE


class TestRayleighSchroedingerBlock:
    """`_rs_block` is the biorthogonal RS recursion: order 3 is the
    hand-expanded closed forms, and every order is the recursion run in
    40 digits."""

    @pytest.mark.parametrize("family", [*g.BUILTIN_MODELS, "seeded-N6", "seeded-N16"])
    def test_order_three_is_the_closed_forms(self, family):
        # the closed forms see the linear part H_0 + q H_1 of the family
        if family in g.BUILTIN_MODELS:
            ham = g.builtin_model(family).to_hamiltonian()
        else:
            ham = seeded_quadratic_family(0, int(family[len("seeded-N"):]))
        frame = g.eigenframe(ham.term(0))
        a = g.double_bracket(frame, ham.term(1))
        rs = _rs_block([a], frame.eigenvalues, 3)
        assert rs.shape == (4, ham.dim)
        assert np.array_equal(rs[0], frame.eigenvalues)
        assert _relative(rs[1:].T, reference_rs_closed_forms(a, frame.eigenvalues)) <= 1e-13

    @pytest.mark.parametrize("dim", [1, 2, 5, 8])
    def test_orthonormal_frame_is_the_closed_forms(self, rng, dim):
        ham = linear_family(rng, dim, hermitian=True)
        frame = g.eigenframe(ham.term(0))
        v = frame.right
        a = v.conj().T @ ham.term(1) @ v
        rs = _rs_block([a], frame.eigenvalues, 3)
        assert _relative(rs[1:].T, reference_rs_closed_forms(a, frame.eigenvalues)) <= 1e-13

    @pytest.mark.parametrize("family", [
        *g.BUILTIN_MODELS, "seeded-N2", "seeded-N6", "seeded-N16",
        *(f"dimers-{kind}-t{t}" for kind in ("block", "dense") for t in (0, 1, 16)),
    ])
    def test_stacked_recursion_is_the_per_term_loop(self, family):
        # bit for bit, at degree 0 (no term) to 3 and orders 0 to 25, on both
        # kinds of frame matrix: W H_j V and V^dagger H_j V
        if family in g.BUILTIN_MODELS:
            ham = g.builtin_model(family).to_hamiltonian()
        elif family.startswith("seeded-N"):
            ham = seeded_quadratic_family(0, int(family[len("seeded-N"):]))
        else:
            _, kind, t = family.split("-")
            ham = manufactured_family(0, 8, int(t[1:]), kind == "dense").hamiltonian
        frame = g.eigenframe(ham.term(0))
        rng = np.random.default_rng(7)
        extra = [rng.standard_normal((ham.dim,) * 2) + 1j * rng.standard_normal((ham.dim,) * 2)
                 for _ in range(3)]
        v = frame.right
        for degree in range(4):
            mats = (list(ham.terms[1:]) + extra)[:degree]
            for terms in ([g.double_bracket(frame, m) for m in mats],
                          [v.conj().T @ m @ v for m in mats]):
                for order in (0, 1, 3, 12, 25):
                    rs = _rs_block(terms, frame.eigenvalues, order)
                    ref = reference_rs_block(terms, frame.eigenvalues, order)
                    assert rs.shape == ref.shape and rs.tobytes() == ref.tobytes(), (degree, order)

    def test_constant_family(self):
        # no terms: the unperturbed eigenvalues and zero corrections
        h = np.array([0.0, 1.0, 2.5], dtype=complex)
        rs = _rs_block([], h, 4)
        assert rs.shape == (5, 3)
        assert np.array_equal(rs[0], h) and not rs[1:].any()

    def test_matches_extended_precision(self):
        # the same recursion in 40 digits from the same double frame matrices
        import mpmath  # a dependency of sympy

        ham = g.builtin_model("random-linear-N4-seed7").to_hamiltonian()
        frame = g.eigenframe(ham.term(0))
        a, h, dim = g.double_bracket(frame, ham.term(1)), frame.eigenvalues, ham.dim
        rs = _rs_block([a], h, 18)
        with mpmath.workdps(40):
            a = mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in a])
            h = [mpmath.mpc(complex(z)) for z in h]
            coeffs, values = [mpmath.eye(dim)], [h]
            for k in range(1, 19):
                x = a * coeffs[k - 1]
                values.append([x[n, n] for n in range(dim)])
                ref = np.array([complex(z) for z in values[k]])
                assert _relative(rs[k], ref) <= 1e-14, k
                c = mpmath.zeros(dim, dim)
                for m in range(dim):
                    for n in range(dim):
                        if m != n:
                            rest = sum(coeffs[k - i][m, n] * values[i][n] for i in range(1, k))
                            c[m, n] = (x[m, n] - rest) / (h[n] - h[m])
                coeffs.append(c)


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
