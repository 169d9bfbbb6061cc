"""Regression tests on families whose every series coefficient is known
exactly (`oracles.manufactured_family`): the production h^(k), the
Rayleigh-Schroedinger recursion `_rs_block` and the eigen-equation
certificate `_equation_residuals`, each against the exact coefficients."""

from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

import geompert as g
from geompert.corrections import _all_block, _equation_residuals, _rs_block
from geompert.pipeline import FAST_CHECKS, run_pipeline
from oracles import manufactured_family

# Worst |h^(k) - exact| / max(1, |exact|) over states at the orders 1, 3, 6,
# 12 and 18, measured on these families at t = 1 when they were introduced
# (ROADMAP item 10); order k is held to the entry of the first listed order
# >= k, and order 0 to the entry of order 1.
FLOORS = {
    "block": (2e-16, 3e-16, 1e-15, 2e-15, 4e-15),
    "dense-16": (2e-14, 4e-14, 8e-14, 2e-13, 3e-13),
    "dense-64": (4e-13, 1e-12, 2e-12, 5e-12, None),
}
_COLUMNS = (1, 3, 6, 12, 18)
EQUATION_GATE = 1e-12  # the gate of the pipeline's equation_residual check

CASES = [(16, False, 18), (64, False, 18), (16, True, 18), (64, True, 12)]


def _floors(dim, dense, order):
    """The tolerance of each order 0..order, shape (order + 1, 1)."""
    row = FLOORS[f"dense-{dim}" if dense else "block"]
    per_order = [row[next(i for i, c in enumerate(_COLUMNS) if c >= max(k, 1))]
                 for k in range(order + 1)]
    return np.array(per_order)[:, None]


def _relative(a, exact):
    return np.abs(a - exact) / np.maximum(1.0, np.abs(exact))


@lru_cache(maxsize=None)
def _run(dim, dense, order):
    """The family (t = 1), its exact h^(0..order), and the production block."""
    family = manufactured_family(0, dim, 1, dense)
    states, h = _all_block(g.solve_model(family.hamiltonian, order), order)
    return family, family.exact(order), states, h


class TestManufacturedFamily:
    @pytest.mark.parametrize("dense", [False, True])
    def test_construction_is_exact(self, dense):
        family = manufactured_family(3, 16, 4, dense)
        terms = family.hamiltonian.terms
        assert family.hamiltonian.degree == 2 and family.hamiltonian.dim == 16
        # dyadic data: undoing the mixing is exact, and the blocks come back
        block = np.array(terms)
        if dense:
            s = np.ones((1, 1))
            while len(s) < 16:
                s = np.block([[s, s], [s, -s]])
            block = s.T @ block @ s / 16
            assert np.array_equal(s @ block @ s.T / 16, np.array(terms))
        for b, (e, a, u, c, d) in enumerate(family.blocks):
            assert 0 < abs(u) < c
            sub = block[:, 2 * b : 2 * b + 2, 2 * b : 2 * b + 2]
            # T H_0 T^-1 = [[e + a, -2 a t], [0, e - a]], t = 4
            assert np.array_equal(sub[0], np.array([[e + a, -8 * a], [0, e - a]], dtype=float))
            assert np.array_equal(sub[2], float(d) * np.eye(2))
        # every branch point is a root of (a + u q)^2 - c^2 q^2, shared with the partner
        for n in range(16):
            e, a, u, c, d = family.blocks[n // 2]
            for q in family.branch_points[n]:
                assert isinstance(q, Fraction) and (a + u * q) ** 2 - c * c * q * q == 0
            assert family.branch_points[family.partners[n]] == family.branch_points[n]

    @pytest.mark.parametrize("dense", [False, True])
    def test_coefficients_sum_to_the_spectrum(self, dense):
        # at q = 0.05, a tenth of the nearest branch point, order 18 truncates at
        # about (0.05 / 0.5)^19 relative
        family = manufactured_family(1, 16, 1, dense)
        exact = family.exact(18)
        assert np.array_equal(exact[0], np.sort(exact[0]))  # the canonical order
        q = 0.05
        summed = (exact * q ** np.arange(19)[:, None]).sum(axis=0)
        values = np.linalg.eigvals(family.hamiltonian.at(q))
        assert np.abs(np.sort_complex(values) - summed).max() <= 1e-12 * np.abs(summed).max()


@pytest.mark.parametrize("dim, dense, order", CASES)
class TestAgainstExactCoefficients:
    def test_production_series(self, dim, dense, order):
        _, exact, _, h = _run(dim, dense, order)
        assert np.all(_relative(h, exact) <= _floors(dim, dense, order))

    def test_rs_block(self, dim, dense, order):
        family, exact, _, _ = _run(dim, dense, order)
        frame = g.eigenframe(family.hamiltonian.term(0))
        terms = [g.double_bracket(frame, m) for m in family.hamiltonian.terms[1:]]
        rs = _rs_block(terms, frame.eigenvalues, order)
        assert np.all(_relative(rs, exact) <= _floors(dim, dense, order))

    def test_equation_residuals(self, dim, dense, order):
        # the certificate passes the production block, and the same states
        # with the exact coefficients in place of the production ones
        family, exact, states, h = _run(dim, dense, order)
        terms = family.hamiltonian.terms
        assert _equation_residuals(terms, states, h).max() <= EQUATION_GATE
        assert _equation_residuals(terms, states, exact).max() <= EQUATION_GATE

    def test_certificate_sees_one_wrong_coefficient(self, dim, dense, order):
        # h^(k) of every state off by 1e-8 max(1, |h^(k)|) at once: each column
        # of the certificate reads its own state only.  Every order at N = 16,
        # four of them at N = 64
        family, _, states, h = _run(dim, dense, order)
        for k in range(order + 1) if dim == 16 else (0, 1, 3, order):
            wrong = h.copy()
            wrong[k] += 1e-8 * np.maximum(1.0, np.abs(h[k]))
            readings = _equation_residuals(family.hamiltonian.terms, states, wrong)
            assert readings[k:].max(axis=0).min() > EQUATION_GATE


class TestFastConditioningSignal:
    """On the dense N = 16 family at K = 3, two FAST checks read an
    ill-conditioned frame: at t = 256 the series is more than 1e-10 off exact,
    and `hierarchy` and the eigenvalue row of `equation_residual` FAIL it (the
    row reads 1.7e-10; its full residual reads backward error and passes),
    while the RS route shares the frame and passes.  t = 64 passes, within
    1e-11 of exact, its row at 7.5e-13 under the 1e-12 gate."""

    @pytest.mark.parametrize("t, verdict", [(64, "pass"), (256, "fail")])
    def test_verdict_and_error(self, t, verdict):
        family = manufactured_family(0, 16, t, True)
        report = run_pipeline(g.ModelDocument(f"dense-t{t}", list(family.hamiltonian.terms)),
                              3, FAST_CHECKS)
        statuses = {name: entry["status"] for name, entry in report.checks.items()}
        assert statuses == {"hierarchy": verdict, "route_equivalence": "pass",
                            "equation_residual": verdict}
        assert report.verdict == verdict
        equation = report.checks["equation_residual"]
        assert equation["max_relative_residual"] <= equation["threshold"]
        assert (equation["row_relative_residual"] <= equation["row_threshold"]) == (t == 64)
        # rows run over k within each n; each state's error over max(1, max_k |exact|)
        h = np.array([r["re"] + 1j * r["im"] for r in report.series_rows]).reshape(16, 4).T
        exact = family.exact(3)
        moved = float((np.abs(h - exact) / np.maximum(1.0, np.abs(exact).max(axis=0))).max())
        if verdict == "pass":
            assert moved <= 1e-11  # measured 4.4e-12
        else:
            assert moved > 1e-10  # measured 2.1e-9, at k = 2


def _fast_failures(seed, t, dense):
    """The FAST checks that FAIL the N = 16 family `manufactured_family(seed, 16,
    t, dense)` at K = 3, and how far its series is off exact: the worst state's
    error over max(1, max_k |exact|)."""
    family = manufactured_family(seed, 16, t, dense)
    report = run_pipeline(g.ModelDocument("manufactured", list(family.hamiltonian.terms)),
                          3, FAST_CHECKS)
    failed = {name for name, entry in report.checks.items() if entry["status"] == "fail"}
    h = np.array([r["re"] + 1j * r["im"] for r in report.series_rows]).reshape(16, 4).T
    exact = family.exact(3)
    return failed, float((np.abs(h - exact) / np.maximum(1.0, np.abs(exact).max(axis=0))).max())


class TestHierarchyStaysFast:
    """Why `hierarchy` stays in FAST_CHECKS: over block and dense N = 16
    families at K = 3 up to t = 256 (kappa 512), FAST never PASSes a series
    more than 1e-10 off exact, and seven dense draws 2.9e-10 to 2.5e-9 off
    exact FAIL through `hierarchy` alone (t = 128 seed 4, t = 160 seed 0,
    t = 192 seeds 0, 1 and 9, t = 256 seeds 5 and 9), the other two FAST
    checks passing them.  120 runs, about 0.3 s."""

    @pytest.mark.parametrize("dense", [False, True], ids=["block", "dense"])
    @pytest.mark.parametrize("t", [16, 64, 128, 160, 192, 256])
    def test_never_passes_a_series_off_exact(self, t, dense):
        for seed in range(10):
            failed, moved = _fast_failures(seed, t, dense)
            assert failed or moved <= 1e-10, (seed, moved)

    @pytest.mark.parametrize("seed", [5, 9])
    def test_hierarchy_alone_fails_dense_t256(self, seed):
        failed, moved = _fast_failures(seed, 256, True)
        assert failed == {"hierarchy"}
        assert moved > 1e-10  # measured 2.1e-9 (seed 5) and 2.5e-9 (seed 9)
