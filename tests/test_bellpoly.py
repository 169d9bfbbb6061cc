from fractions import Fraction
from math import factorial

import numpy as np
import pytest

import geompert as g
from geompert.bellpoly import MAX_WORD_GRADE, WordPolynomial
from oracles import reference_bell_terms


def power_sums(roots, k):
    return [sum(x**i for x in roots) for i in range(1, k + 1)]


def vieta_by_convolution(roots):
    poly = np.array([1.0 + 0j])
    for r in roots:
        poly = np.convolve(poly, [1.0, -r])
    return poly[1:]


class TestNewtonIdentities:
    def test_three_roots(self):
        # roots {1,2,3}: power sums (6, 14, 36); expansion (x-1)(x-2)(x-3)
        s = g.power_sums_to_elementary([6, 14, 36])
        assert np.allclose(s, [-6, 11, -6])

    def test_zero_power_sums(self):
        assert g.power_sums_to_elementary([0, 0, 0, 0]) == [0, 0, 0, 0]

    def test_single_root(self):
        assert g.power_sums_to_elementary([2.5]) == [-2.5]

    def test_random_roots_match_expansion(self, rng):
        for _ in range(50):
            k = int(rng.integers(1, 9))
            roots = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            s = g.power_sums_to_elementary(power_sums(roots, k))
            expected = vieta_by_convolution(roots)
            scale = max(1.0, np.abs(expected).max())
            assert np.abs(np.array(s) - expected).max() < 1e-10 * scale

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            g.power_sums_to_elementary([])


class TestBellCommutative:
    def test_first_orders(self):
        assert g.bell_commutative(0, []) == 1
        assert g.bell_commutative(1, [7]) == 7
        p1, p2 = 3, 5
        assert g.bell_commutative(2, [p1, p2]) == p1**2 + p2

    def test_solves_newton_recursion(self):
        # s_j = B_j(-p_1, -1! p_2, ..., -(j-1)! p_j) / j!
        roots = [1, 2, 3]
        p = power_sums(roots, 3)
        args = [-1 * p[0], -1 * p[1], -2 * p[2]]
        assert g.bell_commutative(3, args) / 6 == pytest.approx(-6)

    def test_matches_newton_for_random_input(self, rng):
        for _ in range(20):
            k = int(rng.integers(1, 9))
            roots = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            p = power_sums(roots, k)
            s = g.power_sums_to_elementary(p)
            for j in range(1, k + 1):
                args = [-factorial(i) * p[i] for i in range(j)]
                bell = g.bell_commutative(j, args) / factorial(j)
                assert abs(bell - s[j - 1]) < 1e-10 * max(1, abs(s[j - 1]))

    def test_requires_enough_arguments(self):
        with pytest.raises(ValueError):
            g.bell_commutative(3, [1, 2])

    def test_rejects_a_negative_grade(self):
        with pytest.raises(ValueError, match="non-negative"):
            g.bell_commutative(-1, [])


class TestDualBellWords:
    def test_identity_word(self):
        wp = g.dual_bell_words(0)
        assert wp.grade == 0
        assert wp.as_dict() == {(): 1}

    def test_grade_two(self):
        assert g.dual_bell_words(2).as_dict() == {(1, 1): 1, (2,): 1}

    def test_grade_three(self):
        # new letters multiply on the left: the mixed words carry distinct
        # coefficients and their order matters
        assert g.dual_bell_words(3).as_dict() == {
            (1, 1, 1): 1,
            (1, 2): 1,
            (2, 1): 2,
            (3,): 1,
        }

    @pytest.mark.parametrize("k", range(1, 11))
    def test_word_count_is_compositions(self, k):
        assert len(g.dual_bell_words(k).words) == 2 ** (k - 1)

    @pytest.mark.parametrize("k", range(0, 11))
    def test_grading(self, k):
        for word in g.dual_bell_words(k).words:
            assert sum(word.letters) == word.grade == k

    def test_deterministic_word_order(self):
        a, b = g.dual_bell_words(5), g.dual_bell_words(5)
        assert a == b
        letters = [w.letters for w in a.words]
        assert letters == sorted(letters)

    def test_commutative_collapse_exact(self):
        # with commuting rational assignments the words collapse exactly
        p = [Fraction(1, 2), Fraction(-3, 7), Fraction(2), Fraction(5, 3),
             Fraction(-1, 9), Fraction(4, 5), Fraction(7, 2), Fraction(-2, 11)]
        for k in range(9):
            collapsed = g.evaluate_words_scalar(g.dual_bell_words(k), p)
            assert collapsed == g.bell_commutative(k, p)

    def test_commutative_collapse_float(self, rng):
        p = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        for k in range(9):
            collapsed = g.evaluate_words_scalar(g.dual_bell_words(k), p)
            ref = g.bell_commutative(k, list(p))
            assert abs(collapsed - ref) <= 1e-12 * max(1, abs(ref))


class TestCoefficientTable:
    @pytest.mark.parametrize("k", range(0, 13))
    def test_matches_defining_recursion_in_order(self, k):
        ref = reference_bell_terms(k)
        table = g.dual_bell_coefficients(k)
        assert table.dtype == np.int64
        assert table.tolist() == list(ref.values())
        wp = g.dual_bell_words(k)
        assert [w.letters for w in wp.words] == list(ref)
        assert [w.coefficient for w in wp.words] == list(ref.values())
        assert all(type(w.coefficient) is int for w in wp.words)

    def test_cached_and_read_only(self):
        table = g.dual_bell_coefficients(6)
        assert g.dual_bell_coefficients(6) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 7
        assert g.dual_bell_words(6) is g.dual_bell_words(6)

    def test_grade_limits(self):
        for k in (-1, MAX_WORD_GRADE + 1):
            with pytest.raises(ValueError):
                g.dual_bell_coefficients(k)
            with pytest.raises(ValueError):
                g.dual_bell_words(k)
        # every coefficient is at most the Bell number B_k, their sum
        assert g.bell_commutative(MAX_WORD_GRADE, [1] * MAX_WORD_GRADE) < 2**63
        assert g.bell_commutative(MAX_WORD_GRADE + 1, [1] * (MAX_WORD_GRADE + 1)) >= 2**63


class TestEvaluateWords:
    def test_identity_polynomial(self, rng):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        out = g.evaluate_words(g.dual_bell_words(0), {}, v)
        assert np.array_equal(out, v)

    def test_single_letter(self, rng):
        # grade one applies the first symbol once
        k0 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        out = g.evaluate_words(g.dual_bell_words(1), {1: -1j * k0}, v)
        assert np.allclose(out, -1j * (k0 @ v))

    def test_scalar_matrix_assignment_collapses(self, rng):
        p = rng.standard_normal(6)
        v = rng.standard_normal(4) + 0j
        for k in range(7):
            assign = {j: p[j - 1] * np.eye(4, dtype=complex) for j in range(1, k + 1)}
            out = g.evaluate_words(g.dual_bell_words(k), assign, v)
            assert np.allclose(out, g.bell_commutative(k, list(p)) * v, atol=1e-12)

    def test_missing_symbol(self):
        with pytest.raises(g.MissingSymbol):
            g.evaluate_words(g.dual_bell_words(2), {1: np.eye(2, dtype=complex)}, np.ones(2))

    def test_dimension_mismatch(self):
        assign = {1: np.eye(3, dtype=complex), 2: np.eye(2, dtype=complex)}
        with pytest.raises(g.DimensionMismatch):
            g.evaluate_words(g.dual_bell_words(2), assign, np.ones(3))
        with pytest.raises(g.DimensionMismatch):
            g.evaluate_words(g.dual_bell_words(2), assign, np.ones((3, 2)))
        # only vectors and N x m blocks are accepted
        square = {1: np.eye(3, dtype=complex), 2: np.eye(3, dtype=complex)}
        with pytest.raises(g.DimensionMismatch):
            g.evaluate_words(g.dual_bell_words(2), square, np.ones((3, 2, 2)))

    def test_word_ordering_respected(self):
        # non-commuting check: P2 P1 enters twice, P1 P2 once
        a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        b = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        v = np.array([1.0, 0.0], dtype=complex)
        out = g.evaluate_words(g.dual_bell_words(2), {1: a, 2: b}, v)
        expected = a @ (a @ v) + b @ v
        assert np.allclose(out, expected)
        # an N x m block transforms each column as the vector route does
        block = np.array([[1.0, 2.0], [0.0, 3.0]], dtype=complex)
        out = g.evaluate_words(g.dual_bell_words(2), {1: a, 2: b}, block)
        assert out.shape == (2, 2)
        for c in range(2):
            col = g.evaluate_words(g.dual_bell_words(2), {1: a, 2: b}, block[:, c])
            assert np.array_equal(out[:, c], col)


class TestWordPolynomialInvariants:
    def test_mixed_grade_rejected(self):
        with pytest.raises(ValueError):
            WordPolynomial.from_terms(2, {(1,): 1})

    def test_zero_coefficients_dropped(self):
        wp = WordPolynomial.from_terms(2, {(1, 1): 0, (2,): 3})
        assert wp.as_dict() == {(2,): 3}
