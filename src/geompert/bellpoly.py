"""Newton identities and (dual non-commutative) Bell polynomials.

Three layers of the same recursion live here:

* `power_sums_to_elementary` -- the classical Newton identities turning power
  sums p_1..p_k into elementary symmetric coefficients s_1..s_k via
  s_m = -(1/m) * sum_j p_j s_{m-j}.
* `bell_commutative` -- scalar Bell polynomials B_k defined by B_0 = 1 and
  B_{m+1} = sum_{j=0..m} C(m,j) B_{m-j} p_{j+1}; they solve the Newton
  recursion in closed form through s_j = B_j(-p_1, -1! p_2, ...) / j!.
* `dual_bell_words` -- the non-commutative lift.  Symbols P_1, P_2, ... no
  longer commute, so B_k becomes a polynomial over *words* (ordered products)
  with the new letter prepended on the left:
  BB_{m+1} = sum_{j=0..m} C(m,j) P_{j+1} BB_{m-j},  BB_0 = identity word.
  Its integer coefficients, in lexicographic word order, come from one cached
  table per grade (`dual_bell_coefficients`), which the word polynomials and
  the grade-stack kernel of `corrections._bell_block` both read.

The word form is what resolves eigenstate corrections in closed form; the
scalar forms double as its self-test oracle, since assigning commuting
scalars to the symbols must collapse BB_k onto B_k.

Scalar arithmetic is kept generic: ints, floats, complex and Fractions all
work (the word recursion itself has integer coefficients, so collapsing with
Fraction inputs is exact).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb
from typing import Mapping, Sequence

import numpy as np

from .errors import DimensionMismatch, MissingSymbol


def power_sums_to_elementary(p: Sequence) -> list:
    """Elementary symmetric data s_1..s_k from power sums p_1..p_k.

    Convention: s_j are the coefficients of the monic polynomial
    prod_j (x - x_j) = sum_j s_{k-j} x^j with s_0 = 1, so e.g. a single root
    a gives s_1 = -a.
    """
    if len(p) < 1:
        raise ValueError("need at least one power sum")
    s = [1]
    for m in range(1, len(p) + 1):
        s.append(-sum(p[j - 1] * s[m - j] for j in range(1, m + 1)) / m)
    return s[1:]


def bell_commutative(k: int, p: Sequence):
    """Scalar Bell polynomial B_k(p_1..p_k).

    B_0 = 1, B_1 = p_1, B_2 = p_1^2 + p_2, ...  Pure sums and products, so
    exact for exact scalar types.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if len(p) < k:
        raise ValueError(f"need {k} arguments, got {len(p)}")
    b = [1]
    for m in range(k):
        b.append(sum(comb(m, j) * b[m - j] * p[j] for j in range(m + 1)))
    return b[k]


@dataclass(frozen=True)
class OperatorWord:
    """A coefficient-weighted word over abstract symbols P_1, P_2, ...

    `letters` is the ordered tuple of symbol indices; the empty tuple is the
    identity word.
    """

    coefficient: complex
    letters: tuple[int, ...]

    @property
    def grade(self) -> int:
        return sum(self.letters)


@dataclass(frozen=True)
class WordPolynomial:
    """A like-term-combined sum of words, all of one grade.

    Words are stored in lexicographic letter order so equal polynomials
    compare equal.
    """

    grade: int
    words: tuple[OperatorWord, ...]

    @staticmethod
    def from_terms(grade: int, terms: Mapping[tuple[int, ...], complex]) -> "WordPolynomial":
        items = sorted((w, c) for w, c in terms.items() if c != 0)
        for letters, _ in items:
            if sum(letters) != grade:
                raise ValueError(f"word {letters} has grade {sum(letters)}, expected {grade}")
        return WordPolynomial(
            grade=grade,
            words=tuple(OperatorWord(coefficient=c, letters=w) for w, c in items),
        )

    def as_dict(self) -> dict[tuple[int, ...], complex]:
        return {w.letters: w.coefficient for w in self.words}


# Bell number B_26 exceeds 2^63 - 1, and every coefficient of BB_k is at most
# B_k (their sum), so the int64 table is exact up to this grade.
MAX_WORD_GRADE = 25


def require_word_grade(order: int) -> int:
    """`order`, a series order or word grade, when BB_k's int64 tables reach
    it; above MAX_WORD_GRADE a ValueError naming it, before any table is built."""
    if order > MAX_WORD_GRADE:
        raise ValueError(
            f"order {order} exceeds {MAX_WORD_GRADE}, the highest grade whose "
            "dual Bell coefficients fit int64"
        )
    return order


@cache
def dual_bell_coefficients(k: int) -> np.ndarray:
    """Coefficients of BB_k's 2^(k-1) words in lexicographic word order.

    The words of BB_k are the compositions of k.  In lexicographic order they
    run first letter `a` ascending, then BB_{k-a}'s words, and the recursion
    BB_k = sum_a C(k-1, a-1) P_a BB_{k-a} combines no like terms, so the table
    is the concatenation over `a` of C(k-1, a-1) times BB_{k-a}'s table.
    Cached per grade; the returned int64 array is read-only.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    require_word_grade(k)
    if k == 0:
        table = np.ones(1, dtype=np.int64)
    else:
        table = np.concatenate(
            [comb(k - 1, a - 1) * dual_bell_coefficients(k - a) for a in range(1, k + 1)]
        )
    table.flags.writeable = False
    return table


@cache
def dual_bell_words(k: int) -> WordPolynomial:
    """The grade-k dual non-commutative Bell polynomial BB_k.

    BB_0 is the identity word; BB_2 = P1 P1 + P2;
    BB_3 = P1 P1 P1 + P1 P2 + 2 P2 P1 + P3.  Every letter multiset of BB_k is
    a composition of k, so BB_k has exactly 2^(k-1) words for k >= 1.
    Coefficients come from `dual_bell_coefficients`; cached per grade.
    """
    coefficients = dual_bell_coefficients(k).tolist()
    if k == 0:
        letters = [()]
    else:
        letters = [
            (a,) + w.letters for a in range(1, k + 1) for w in dual_bell_words(k - a).words
        ]
    return WordPolynomial(
        grade=k,
        words=tuple(OperatorWord(coefficient=c, letters=w) for c, w in zip(coefficients, letters)),
    )


def evaluate_words(
    wp: WordPolynomial,
    assign: Mapping[int, np.ndarray],
    v: np.ndarray,
) -> np.ndarray:
    """Apply a word polynomial to a vector: sum_w c_w P_{i1} ... P_{ir} v.

    `v` may also be an N x m block, whose columns are then transformed
    together.  `assign` maps each symbol index to a square matrix of matching
    dimension; every symbol is validated once, before any word is applied.
    """
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim not in (1, 2):
        raise DimensionMismatch(f"expected a vector or a block, got shape {v.shape}")
    dim = v.shape[0]
    for letter in dict.fromkeys(x for w in wp.words for x in reversed(w.letters)):
        if letter not in assign:
            raise MissingSymbol(f"no matrix assigned to symbol P_{letter}")
        shape = assign[letter].shape
        if shape != (dim, dim):
            raise DimensionMismatch(
                f"symbol P_{letter} has shape {shape}, expected {(dim, dim)}"
            )
    out = np.zeros_like(v)
    for word in wp.words:
        acc = v
        for letter in reversed(word.letters):
            acc = assign[letter] @ acc
        out = out + word.coefficient * acc
    return out


def evaluate_words_scalar(wp: WordPolynomial, p: Sequence):
    """Collapse a word polynomial with commuting scalar assignments P_j <- p_j.

    Exact for exact scalar types; equals bell_commutative(wp.grade, p).
    """
    total = 0
    for word in wp.words:
        term = word.coefficient
        for letter in word.letters:
            term = term * p[letter - 1]
        total = total + term
    return total
