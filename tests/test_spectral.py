import numpy as np
import pytest

import geompert as g
from geompert.spectral import as_complex_matrix, resolve_gap_tol

SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(g.NonSquare):
            as_complex_matrix(np.zeros((3, 2)))

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

    def test_hermitian_frame_is_orthonormal(self, rng):
        for _ in range(10):
            a = random_matrix(rng, 4)
            h0 = (a + a.conj().T) / 2
            frame = g.eigenframe(h0)
            assert np.abs(frame.left - frame.right.conj().T).max() < 1e-10

    def test_unreachable_residual_tolerance(self, rng):
        # residual postconditions are enforced, not assumed
        with pytest.raises(g.NumericalFailure):
            g.eigenframe(random_matrix(rng, 5), frame_tol=1e-18)


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
