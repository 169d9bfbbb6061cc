import math
import types

import numpy as np
import pytest

import geompert as g
from geompert.pipeline import ALL_CHECKS, run_pipeline
from geompert.spectral import (
    _PHASE_TOL,
    GAP_TOL_ENV,
    _conditioning,
    _normalize_columns,
    as_complex_matrix,
    min_pairwise_gap,
    resolve_gap_tol,
)
from geompert.oracle import _pair_block
from oracles import manufactured_family, reference_normalize_columns, seeded_quadratic_family

SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(g.NonSquare):
            as_complex_matrix(np.zeros((3, 2)))

    def test_empty_family_rejected_where_it_enters(self):
        empty = np.zeros((0, 0))
        for build in (g.eigenframe, lambda m: g.PolynomialHamiltonian([m])):
            with pytest.raises(g.NonSquare, match="non-empty"):
                build(empty)
        doc = g.ModelDocument("empty", [empty])
        for checks in (ALL_CHECKS, {"residual_order"}):
            with pytest.raises(g.PipelineError) as err:
                run_pipeline(doc, 3, checks)
            assert err.value.stage == "validate"
            assert isinstance(err.value.__cause__, g.NonSquare)

    def test_rejects_non_finite(self):
        bad = np.eye(2, dtype=complex)
        bad[0, 1] = np.nan
        with pytest.raises(g.NonFiniteEntry):
            as_complex_matrix(bad)

    def test_gap_tol_env_override(self, monkeypatch):
        monkeypatch.delenv("GEOMPERT_GAP_TOL", raising=False)
        assert resolve_gap_tol() == 1e-8
        monkeypatch.setenv("GEOMPERT_GAP_TOL", "1e-3")
        assert resolve_gap_tol() == 1e-3
        assert resolve_gap_tol(1e-6) == 1e-6  # explicit argument wins
        # values that would switch the degeneracy guard off are refused
        for bad in ("nan", "-1", "0", "inf"):
            monkeypatch.setenv("GEOMPERT_GAP_TOL", bad)
            with pytest.raises(ValueError):
                resolve_gap_tol()
            with pytest.raises(ValueError):
                resolve_gap_tol(float(bad))


class TestEigenframe:
    def test_flip_matrix_frame(self):
        frame = g.eigenframe(SX)
        assert np.allclose(frame.eigenvalues, [-1.0, 1.0])
        s = 1 / np.sqrt(2)
        assert np.allclose(frame.right[:, 0], [s, -s])
        assert np.allclose(frame.right[:, 1], [s, s])
        assert frame.min_gap == pytest.approx(2.0)

    def test_identity_is_degenerate(self):
        with pytest.raises(g.DegenerateSpectrum):
            g.eigenframe(np.eye(3))

    def test_near_degenerate_rejected(self):
        h0 = np.diag([1.0, 1.0 + 1e-9])
        with pytest.raises(g.DegenerateSpectrum):
            g.eigenframe(h0)

    def test_gap_guard_scales_with_spectral_radius(self):
        # absolute gap 1e-5 is fine at radius 1 but degenerate at radius 1e4
        g.eigenframe(np.diag([0.0, 1e-5]))
        with pytest.raises(g.DegenerateSpectrum):
            g.eigenframe(np.diag([1e4, 1e4 + 1e-5]))

    def test_env_var_changes_acceptance(self, monkeypatch):
        h0 = np.diag([0.0, 1e-5])
        monkeypatch.setenv("GEOMPERT_GAP_TOL", "1e-3")
        with pytest.raises(g.DegenerateSpectrum):
            g.eigenframe(h0)
        monkeypatch.setenv("GEOMPERT_GAP_TOL", "1e-7")
        g.eigenframe(h0)

    def test_threshold_read_once_and_recorded(self, monkeypatch):
        class CountingEnviron(dict):
            reads = 0

            def get(self, key, default=None):
                self.reads += key == GAP_TOL_ENV
                return super().get(key, default)

        env = CountingEnviron({GAP_TOL_ENV: "1e-7"})
        monkeypatch.setattr(g.spectral, "os", types.SimpleNamespace(environ=env))
        assert g.eigenframe(np.diag([0.0, 1e-5])).gap_tol == 1e-7
        assert env.reads == 1
        # the error path names the threshold it used, from the same one read
        env[GAP_TOL_ENV] = "1e-3"
        with pytest.raises(g.DegenerateSpectrum, match="1.0e-03"):
            g.eigenframe(np.diag([0.0, 1e-5]))
        assert env.reads == 2
        # an explicit argument reads nothing
        assert g.eigenframe(np.diag([0.0, 1.0]), gap_tol=1e-6).gap_tol == 1e-6
        assert env.reads == 2
        # a whole run, every check and a sweep included, reads it once
        env[GAP_TOL_ENV] = "1e-8"
        run_pipeline(g.builtin_model("toy-sec5"), 3, ALL_CHECKS, sweep=(0.1, 5))
        assert env.reads == 3

    def test_biorthonormality_random(self, rng):
        for _ in range(20):
            h0 = random_matrix(rng, 3)
            frame = g.eigenframe(h0)
            assert np.abs(frame.left @ frame.right - np.eye(3)).max() < 1e-12
            residual = h0 @ frame.right - frame.right * frame.eigenvalues
            assert np.abs(residual).max() < 1e-12 * max(1, np.abs(h0).max())

    def test_canonical_ordering(self, rng):
        for _ in range(10):
            frame = g.eigenframe(random_matrix(rng, 5))
            keys = [(h.real, h.imag) for h in frame.eigenvalues]
            assert keys == sorted(keys)

    def test_deterministic(self, rng):
        h0 = random_matrix(rng, 4)
        f1 = g.eigenframe(h0)
        f2 = g.eigenframe(h0)
        assert np.array_equal(f1.eigenvalues, f2.eigenvalues)
        assert np.array_equal(f1.right, f2.right)

    def test_phase_convention(self, rng):
        # first significant component of every right eigenvector is real positive
        for _ in range(10):
            frame = g.eigenframe(random_matrix(rng, 4))
            for j in range(4):
                col = frame.right[:, j]
                mags = np.abs(col)
                idx = np.argmax(mags > 1e-12 * mags.max())
                assert col[idx].real > 0
                assert abs(col[idx].imag) < 1e-14
                assert np.linalg.norm(col) == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n", [2, 16, 32, 64])
    def test_batched_normalization_equals_loop(self, seed, n):
        rng = np.random.default_rng(seed)
        _, vectors = np.linalg.eig(random_matrix(rng, n))
        expected = reference_normalize_columns(vectors, _PHASE_TOL)
        assert _normalize_columns(vectors).tobytes() == expected.tobytes()

    def test_hermitian_frame_is_orthonormal(self, rng):
        for _ in range(10):
            a = random_matrix(rng, 4)
            h0 = (a + a.conj().T) / 2
            frame = g.eigenframe(h0)
            assert np.abs(frame.left - frame.right.conj().T).max() < 1e-10

    def test_unreachable_residual_tolerance(self, rng, monkeypatch):
        # residual postconditions are enforced, not assumed
        monkeypatch.setattr(g.spectral, "DEFAULT_FRAME_TOL", 1e-18)
        with pytest.raises(g.NumericalFailure):
            g.eigenframe(random_matrix(rng, 5))

    def test_biorthonormality_defect_rejected(self, rng, monkeypatch):
        # dual rows that are not V^-1 fail the W V = 1 postcondition
        inv = np.linalg.inv
        monkeypatch.setattr(g.spectral.np.linalg, "inv", lambda a: 1.5 * inv(a))
        with pytest.raises(g.NumericalFailure, match="biorthonormality defect"):
            g.eigenframe(random_matrix(rng, 5))


class TestDegeneracyTest:
    """One rule, min gap < gap_tol * max(1, max|h|), decides both the frame
    and every exact sample; `min_pairwise_gap` takes one spectrum or a stack."""

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_batched_gaps_equal_per_spectrum(self, rng, dim):
        stack = rng.standard_normal((4, dim)) + 1j * rng.standard_normal((4, dim))
        stack[-1, -1] = stack[-1, 0]  # an exactly degenerate spectrum, where N > 1
        gaps = min_pairwise_gap(stack)
        assert gaps.shape == (len(stack),)
        singles = [min_pairwise_gap(row) for row in stack]
        assert all(type(x) is float for x in singles)
        assert gaps.tolist() == singles
        # each pair is measured once, and in either order gives the same bits
        ordered = [min((float(np.abs(row[i] - row[j])) for i in range(dim) for j in range(dim)
                        if i != j), default=np.inf) for row in stack]
        assert singles == ordered
        if dim == 1:
            assert singles == [np.inf] * len(stack)
        else:
            assert singles[-1] == 0.0 and min(singles[:-1]) > 0.0

    @pytest.mark.parametrize("radius", [0.5, 3.0, 1e4])
    @pytest.mark.parametrize("gap_tol", [1e-8, 1e-3])
    def test_frame_and_sampler_decide_alike(self, radius, gap_tol):
        # gaps one part in 1e6 below and above the threshold; diagonal
        # matrices keep the eigenvalues exact
        threshold = gap_tol * max(1.0, radius)
        for factor, degenerate in ((1 - 1e-6, True), (1 + 1e-6, False)):
            values = np.array([-radius, radius - threshold * factor, radius])
            try:
                g.eigenframe(np.diag(values), gap_tol=gap_tol)
                frame_says = False
            except g.DegenerateSpectrum:
                frame_says = True
            stack = np.array([values[::-1], values], dtype=np.complex128)
            try:
                _pair_block(stack, stack, np.array([0.1, 0.2]), gap_tol)
                sampler_says = False
            except g.DegenerateSpectrum:
                sampler_says = True
            assert frame_says == sampler_says == degenerate


class TestConditioning:
    """The report's metadata["frame"]: the relative gap, gap_tol, kappa(V)
    and each state's eigenvalue condition ||l_n|| ||r_n||."""

    @pytest.mark.parametrize("name", [*g.BUILTIN_MODELS, "seeded-N16"])
    def test_finite_on_every_builtin_and_seeded_n16(self, name):
        if name == "seeded-N16":
            doc = g.ModelDocument(name, list(seeded_quadratic_family(0, 16).terms))
        else:
            doc = g.builtin_model(name)
        frame = g.eigenframe(doc.to_hamiltonian().term(0))
        keys = _conditioning(frame)
        assert keys == run_pipeline(doc, 1, set()).metadata["frame"]
        scale = max(1.0, float(np.abs(frame.eigenvalues).max()))
        assert keys["relative_gap"] == frame.min_gap / scale > keys["gap_tol"] == frame.gap_tol
        assert math.isfinite(keys["kappa"]) and keys["kappa"] >= 1
        condition = keys["eigenvalue_condition"]
        assert len(condition) == frame.dim
        # ||l_n|| ||r_n|| >= |<l_n|r_n>| = 1, up to roundoff
        assert all(math.isfinite(c) and c >= 1 - 1e-12 for c in condition)
        if name == "hermitian-2level":  # an orthonormal frame
            assert keys["kappa"] == pytest.approx(1, abs=1e-12)
            assert condition == pytest.approx([1, 1], abs=1e-12)

    def test_relative_gap_is_what_the_degeneracy_test_reads(self):
        # min gap 0.5 over max(1, max|h|) = 4
        keys = _conditioning(g.eigenframe(np.diag([-4.0, 0.0, 0.5])))
        assert keys["relative_gap"] == 0.125

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("t", [0.0, 1.0, 4.0])
    def test_kappa_of_manufactured_dimers(self, t, dense):
        # T = [[1, t], [0, 1]] puts each dimer's unit eigenvectors at the cosine
        # s = t / sqrt(1 + t^2), so cond(V) = sqrt((1 + s) / (1 - s)); the dense
        # families rotate by the orthogonal S / sqrt(N), which keeps it
        frame = g.eigenframe(manufactured_family(0, 16, t, dense).hamiltonian.term(0))
        s = t / math.sqrt(1 + t * t)
        exact = math.sqrt((1 + s) / (1 - s))
        assert abs(_conditioning(frame)["kappa"] - exact) <= 1e-12 * exact


class TestRealFrame:
    """A real H_0 is diagonalized in real arithmetic, under a Frobenius residual test."""

    def test_conjugate_pair_is_exact(self):
        frame = g.eigenframe([[0.0, 1.0], [-1.0, 0.0]])
        assert frame.eigenvalues.dtype == np.complex128
        assert frame.eigenvalues.tolist() == [-1j, 1j]
        assert np.array_equal(frame.right[:, 0], frame.right[:, 1].conj())
        assert np.abs(frame.left @ frame.right - np.eye(2)).max() < 1e-15

    @pytest.mark.parametrize("n", [2, 7, 16])
    def test_signed_zero_imaginary_part_is_real(self, n):
        rng = np.random.default_rng(n)
        h0 = rng.standard_normal((n, n))
        typed = h0 + 0j
        typed.imag = np.where(rng.random((n, n)) < 0.5, -0.0, 0.0)
        real, cplx = g.eigenframe(h0), g.eigenframe(typed)
        for name in ("eigenvalues", "right", "left"):
            assert getattr(cplx, name).tobytes() == getattr(real, name).tobytes()
        assert cplx.min_gap == real.min_gap

    def test_residual_between_frobenius_and_spectral_bounds_rejected(self, monkeypatch):
        # diag(1, 2, 3, 4): ||H_0||_2 = 4 and ||H_0||_F / sqrt(4) = 2.74, so an
        # eigenvalue off by 3.5e-10 passes a 2-norm test at 1e-10 and fails this one
        eig = np.linalg.eig

        def shifted(a):
            values, vectors = eig(a)
            return values + np.array([3.5e-10, 0.0, 0.0, 0.0]), vectors

        monkeypatch.setattr(g.spectral.np.linalg, "eig", shifted)
        h0 = np.diag([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(g.NumericalFailure, match="eigensolver residual"):
            g.eigenframe(h0)

    @pytest.mark.parametrize(
        "family", [*g.BUILTIN_MODELS, "seeded-N6", "seeded-N16", "seeded-N64", "seeded-N128"]
    )
    def test_correct_frames_pass(self, family, monkeypatch):
        # with a hundredfold headroom under the default tolerance
        monkeypatch.setattr(g.spectral, "DEFAULT_FRAME_TOL", 1e-12)
        if family.startswith("seeded-N"):
            h0 = seeded_quadratic_family(0, int(family.removeprefix("seeded-N"))).term(0)
        else:
            h0 = g.builtin_model(family).to_hamiltonian().term(0)
        frame = g.eigenframe(h0)
        assert frame.eigenvalues.dtype == frame.right.dtype == np.complex128


class TestDoubleBracket:
    def test_identity(self, toy_frame):
        assert np.allclose(
            g.double_bracket(toy_frame, np.eye(2)), np.eye(2), atol=1e-14
        )

    def test_flip_generator_elements(self, toy_frame):
        # the first-order eigenflow generator of the toy family is the flip
        # matrix; in its own eigenframe it is diagonal with the eigenvalues
        bb = g.double_bracket(toy_frame, SX)
        assert bb[1, 1] == pytest.approx(1.0)  # "+" state
        assert bb[0, 0] == pytest.approx(-1.0)  # "-" state
        assert abs(bb[0, 1]) < 1e-14 and abs(bb[1, 0]) < 1e-14

    def test_dimension_mismatch(self, toy_frame):
        with pytest.raises(g.DimensionMismatch):
            g.double_bracket(toy_frame, np.eye(3))

    def test_product_completeness(self, rng):
        # [[A B]]_nn = sum_m [[A]]_nm [[B]]_mn on non-degenerate frames
        for _ in range(100):
            frame = g.eigenframe(random_matrix(rng, 3))
            a, b = random_matrix(rng, 3), random_matrix(rng, 3)
            ab = g.double_bracket(frame, a @ b)
            pa, pb = g.double_bracket(frame, a), g.double_bracket(frame, b)
            for n in range(3):
                assert abs(ab[n, n] - pa[n, :] @ pb[:, n]) < 1e-10

    def test_hermitian_reduces_to_matrix_element(self, rng):
        a0 = random_matrix(rng, 4)
        h0 = (a0 + a0.conj().T) / 2
        frame = g.eigenframe(h0)
        a = random_matrix(rng, 4)
        bb = g.double_bracket(frame, a)
        plain = frame.right.conj().T @ a @ frame.right
        assert np.abs(bb - plain).max() < 1e-10
