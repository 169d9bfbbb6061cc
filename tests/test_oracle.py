import sys

import numpy as np
import pytest

import geompert as g
from geompert.cli import main
from geompert.corrections import _all_block, _horner
from geompert.oracle import (
    _FD_STEP,
    _STENCILS,
    RAY_FLOOR,
    RESIDUAL_FLOOR,
    _continued_sweep,
    _fd_coefficients,
    _fit_block,
    _ray_residual_block,
    _twin_permutations,
)
from geompert.pipeline import ALL_CHECKS, run_pipeline
from oracles import (
    linear_family,
    manufactured_family,
    reference_continued_sweep,
    reference_fd_derivative,
    reference_ray_residual,
    seeded_quadratic_family,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def toy_exact(qs, h=1.0, a1=1.0, a2=1.0):
    """Exact two-level spectrum from the characteristic polynomial:
    trace vanishes, so the branches are +/- sqrt((h + q^2 a2)^2 - q^2 a1^2)."""
    return np.sqrt((h + qs**2 * a2) ** 2 - qs**2 * a1**2 + 0j)


def _polyfit_slope(qs, residuals) -> float:
    """The least-squares slope of log(residuals) against log(qs)."""
    return float(np.polyfit(np.log(qs), np.log(residuals), 1)[0])


# state 0 stays at exactly 0 while state 1 sits 1e9 away: each of its pairing
# steps has a best match of 0 and a runner-up ratio past the float range, which
# must come out inf without an overflow warning
CONSTANT_LEVEL = g.PolynomialHamiltonian([np.diag([0.0, 1e9]), np.diag([0.0, 1.0])])


@pytest.fixture
def toy_series(toy_gens):
    return [g.build_series(toy_gens, n, 3) for n in range(2)]


class TestSweep:
    def test_toy_matches_closed_form(self, toy):
        qs = np.linspace(0.001, 0.2, 40)
        curve = g.exact_spectrum_sweep(toy, qs)
        exact = toy_exact(qs)
        assert np.abs(curve.values[1] - exact).max() < 1e-12
        assert np.abs(curve.values[0] + exact).max() < 1e-12
        assert curve.pair_margin > 2

    @pytest.mark.parametrize("name", [*g.BUILTIN_MODELS, "seeded-N6", "seeded-N16", "seeded-N64"])
    def test_single_origin_sample(self, name):
        # the q = 0 sample is the frame of H_0, bit for bit, for every family
        if name.startswith("seeded-N"):
            ham = seeded_quadratic_family(0, int(name.removeprefix("seeded-N")))
        else:
            ham = g.builtin_model(name).to_hamiltonian()
        curve = g.exact_spectrum_sweep(ham, [0.0])
        frame = g.eigenframe(ham.term(0))
        assert curve.values[:, 0].tobytes() == frame.eigenvalues.tobytes()
        assert curve.pair_margin == np.inf

    def test_hermitian_closed_form(self):
        # diag(0,2) + q flip: eigenvalues 1 -/+ sqrt(1+q^2)
        ham = g.PolynomialHamiltonian([np.diag([0.0, 2.0]), SX])
        qs = np.linspace(0.01, 0.5, 20)
        curve = g.exact_spectrum_sweep(ham, qs)
        root = np.sqrt(1 + qs**2)
        assert np.abs(curve.values[0] - (1 - root)).max() < 1e-12
        assert np.abs(curve.values[1] - (1 + root)).max() < 1e-12

    def test_negative_samples_continued(self, toy):
        qs = np.linspace(-0.1, 0.1, 21)
        curve = g.exact_spectrum_sweep(toy, qs)
        exact = toy_exact(qs)
        assert np.abs(curve.values[1] - exact).max() < 1e-12

    def test_bitwise_reproducible(self, toy):
        qs = np.logspace(-4, -1, 30)
        c1 = g.exact_spectrum_sweep(toy, qs)
        c2 = g.exact_spectrum_sweep(toy, qs)
        assert np.array_equal(c1.values, c2.values)
        assert c1.pair_margin == c2.pair_margin

    def test_complex_grid_of_real_values_is_its_real_part(self, toy, toy_gens):
        qs = np.linspace(-0.05, 0.1, 13)
        grid = qs + 0j
        grid.imag[::2] = -0.0
        curve, real = g.exact_spectrum_sweep(toy, grid), g.exact_spectrum_sweep(toy, qs)
        assert curve.qs.dtype == np.float64 and curve.qs.tobytes() == qs.tobytes()
        assert curve.values.tobytes() == real.values.tobytes()
        assert curve.pair_margin == real.pair_margin
        series = g.build_series(toy_gens, 1, 2)
        sines = g.state_ray_residual(toy, series, 1, 2, list(grid))
        assert sines.tobytes() == g.state_ray_residual(toy, series, 1, 2, qs).tobytes()

    def test_requires_increasing(self, toy):
        with pytest.raises(ValueError):
            g.exact_spectrum_sweep(toy, [0.1, 0.1, 0.2])

    @pytest.mark.parametrize(
        "qs",
        [[], [[1e-3, 2e-3]], [0.0, np.nan], [np.nan] * 4, [1e-3, np.inf],
         [1e-3 + 0.5j, 2e-3], [1e-3, 2e-3 + 1e-300j], [complex(1e-3, np.nan), 2e-3]],
    )
    def test_rejects_bad_grid(self, toy, toy_gens, qs):
        # a NaN sample sits in neither continuation chain and NaN steps
        # compare False, so without the guard it came back as a zero "exact"
        # eigenvalue; a 2-D grid failed inside numpy instead; a complex grid
        # was cut to its real part behind a ComplexWarning
        with pytest.raises(ValueError, match="qs must be"):
            g.exact_spectrum_sweep(toy, qs)
        series = g.build_series(toy_gens, 1, 2)
        with pytest.raises(ValueError, match="qs must be"):
            g.state_ray_residual(toy, series, 1, 2, qs)

    def test_degenerate_sample_rejected(self):
        # eigenvalues q and 1-q cross at q = 1/2
        ham = g.PolynomialHamiltonian([np.diag([0.0, 1.0]), np.diag([1.0, -1.0])])
        with pytest.raises(g.DegenerateSpectrum):
            g.exact_spectrum_sweep(ham, [0.1, 0.4999999999])

    def test_ambiguous_pairing_rejected(self):
        # a coarse step across an avoided-crossing-free swap: from q=0.2 the
        # eigenvalues {0.2, 0.8} both sit 0.25 / 0.35 away from {0.45, 0.55}
        ham = g.PolynomialHamiltonian([np.diag([0.0, 1.0]), np.diag([1.0, -1.0])])
        with pytest.raises(g.PairingAmbiguous):
            g.exact_spectrum_sweep(ham, [0.2, 0.45])


# eigenvalues q and 1 - q cross at q = 1/2, and -q and 1 + q at q = -1/2
CROSSING = g.PolynomialHamiltonian([np.diag([0.0, 1.0]), np.diag([1.0, -1.0])])


def _crossing16(*crossing):
    """N = 16: the crossing pair's terms, padded by the constants 3, 4, ..., 16,
    so that a block holds 32 samples."""
    return g.PolynomialHamiltonian(
        [np.diag([0.0, 1.0, *range(3, 17)])] + [np.diag([*t, *[0.0] * 14]) for t in crossing]
    )

def _sampler_case(name):
    """(family, grid) pairs: grids across q = 0, single samples, N = 1, the
    toy and seeded families whose grids span several blocks."""
    if name == "seeded-N16":
        return seeded_quadratic_family(0, 16), np.linspace(-0.05, 0.08, 90)
    if name == "seeded-N32":
        return seeded_quadratic_family(0, 32), np.linspace(-0.02, 0.04, 70)
    if name == "seeded-N64":
        return seeded_quadratic_family(0, 64), np.linspace(-0.01, 0.015, 17)
    if name == "constant-level":
        return CONSTANT_LEVEL, np.linspace(-0.2, 0.3, 40)
    if name == "N1":
        return g.PolynomialHamiltonian([[[2.0]], [[1j]], [[-3.0]]]), np.linspace(-1, 1, 1200)
    toy = g.toy_model(1.0, 1.0, 1.0)
    grids = {
        "toy-across-zero": np.linspace(-0.3, 0.4, 700),
        "toy-positive": np.logspace(-4, -1, 300),
        "toy-negative": -np.logspace(-1, -4, 300),
        "toy-one-sample": [0.05],
        "toy-one-negative": [-0.05],
        "toy-origin": [0.0],
    }
    return toy, grids[name]


class TestBlockedSampler:
    """The blocked sampler against one eig/eigvals call and one pairing step
    per sample, bit for bit, on one CPU and on four."""

    CASES = [
        "toy-across-zero", "toy-positive", "toy-negative", "toy-one-sample",
        "toy-one-negative", "toy-origin", "N1", "constant-level", "seeded-N16", "seeded-N32",
        "seeded-N64",
    ]

    @pytest.mark.parametrize("want_vectors", [False, True])
    @pytest.mark.parametrize("name", CASES)
    def test_matches_per_sample_loop(self, monkeypatch, name, want_vectors):
        ham, qs = _sampler_case(name)
        tol = 1e-8
        frame = g.eigenframe(ham.term(0), gap_tol=tol)
        values, vectors, margin = reference_continued_sweep(frame, ham, qs, tol, want_vectors)
        for cpus in (1, 4):
            monkeypatch.setattr(g.oracle, "_usable_cpus", lambda: cpus)
            curve, got = _continued_sweep(frame, ham, qs, want_vectors)
            assert curve.values.tobytes() == values.tobytes()
            assert curve.pair_margin == margin
            if want_vectors:
                assert got.tobytes() == vectors.tobytes()
            else:
                assert got is None

    @pytest.mark.parametrize(
        "ham, qs",
        [
            (CROSSING, [0.1, 0.4999999999]),  # degenerate
            (CROSSING, [0.2, 0.45]),  # ambiguous
            # a later block of the forward, then of the backward chain
            (_crossing16([1.0, -1.0]), np.linspace(-0.6, 0.6, 121)),
            (_crossing16([-1.0, 1.0]), np.linspace(-0.6, 0.3, 91)),
            # q^2 and 1 - q^2 cross at both q = +/- sqrt(1/2): the forward chain's first
            (_crossing16([0.0, 0.0], [1.0, -1.0]), np.linspace(-0.8, 0.8, 161)),
            # both states' nearest successor is 0.05, each a clear best
            (g.PolynomialHamiltonian([np.diag([0.0, 0.1]), np.diag([0.05, 9.9])]), [1.0]),
        ],
        ids=["degenerate", "ambiguous", "forward", "backward", "both", "twice"],
    )
    def test_errors_match_per_sample_loop(self, monkeypatch, ham, qs):
        frame = g.eigenframe(ham.term(0), gap_tol=1e-8)
        for want_vectors in (False, True):
            with pytest.raises(g.GeompertError) as expected:
                reference_continued_sweep(frame, ham, qs, 1e-8, want_vectors)
            for cpus in (1, 4):
                monkeypatch.setattr(g.oracle, "_usable_cpus", lambda: cpus)
                with pytest.raises(type(expected.value)) as got:
                    _continued_sweep(frame, ham, qs, want_vectors)
                assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("grid", ["origin", "across", "fd-union"])
    @pytest.mark.parametrize("family", ["random-linear-N4-seed7", "toy-sec5", "seeded-N16"])
    def test_origin_sample_is_the_frame(self, monkeypatch, family, grid):
        # H(0) = H_0: LAPACK gets one matrix fewer, and the q = 0 column is the frame
        if family == "seeded-N16":
            ham = seeded_quadratic_family(0, 16)
        else:
            ham = g.builtin_model(family).to_hamiltonian()
        qs = {
            "origin": [0.0],
            "across": [-0.1, 0.0, 0.1],
            "fd-union": sorted({o * s for k in _STENCILS for o in _STENCILS[k][0]
                                for s in (_FD_STEP, _FD_STEP / 2)}),
        }[grid]
        origin = qs.index(0.0)
        frame = g.eigenframe(ham.term(0))
        for want_vectors in (False, True):
            name = "eig" if want_vectors else "eigvals"
            solve, rows = getattr(np.linalg, name), []

            def counted(stack, solve=solve, rows=rows):
                rows.append(len(stack))
                return solve(stack)

            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, name, counted)
                curve, vectors = _continued_sweep(frame, ham, qs, want_vectors)
            assert sum(rows) == len(qs) - 1
            assert curve.values[:, origin].tobytes() == frame.eigenvalues.tobytes()
            if want_vectors:
                assert vectors[:, origin, :].tobytes() == frame.right.T.tobytes()

    def test_pairs_under_the_frame_threshold(self, monkeypatch):
        # the gap 1 - 2q between q and 1 - q is 0.08 at q = 0.46, 0.02 at 0.49
        qs = np.linspace(0.0, 0.49, 50)
        wide = g.eigenframe(CROSSING.term(0), gap_tol=0.1)
        for want_vectors in (False, True):
            with pytest.raises(g.DegenerateSpectrum, match="q = 0.46"):
                _continued_sweep(wide, CROSSING, qs, want_vectors)
            tight = g.eigenframe(CROSSING.term(0), gap_tol=1e-8)
            curve, _ = _continued_sweep(tight, CROSSING, qs, want_vectors)
            assert curve.values.shape == (2, 50)
        monkeypatch.setenv("GEOMPERT_GAP_TOL", "0.1")
        with pytest.raises(g.DegenerateSpectrum):
            g.exact_spectrum_sweep(CROSSING, qs)

    def test_overflowing_samples_rejected_before_any_diagonalization(self, toy, monkeypatch):
        def no_lapack(*_args, **_kwargs):
            raise AssertionError("diagonalized a non-finite H(q)")

        monkeypatch.setattr(np.linalg, "eigvals", no_lapack)
        # q^2 overflows; then q^2 is finite but 10 q^2 is not
        with pytest.raises(ValueError, match=r"not finite at q = 1e\+200"):
            g.exact_spectrum_sweep(toy, [1e200])
        tenfold = g.PolynomialHamiltonian([np.diag([0.0, 1.0]), 10 * SX])
        with pytest.raises(ValueError, match=r"not finite at q = 1e\+308"):
            g.exact_spectrum_sweep(tenfold, [0.0, 1e308])
        with pytest.raises(ValueError, match=r"not finite at q = -1e\+200"):
            toy.at(-1e200)


class TestResidualOrder:
    def test_toy_slopes(self, toy, toy_series):
        qs = np.logspace(-3, -2, 15)
        curve = g.exact_spectrum_sweep(toy, qs)
        # odd coefficients vanish: truncating at 3 leaves a q^4 tail
        slope = g.series_residual_order(curve, toy_series[1], 1, 3, (1e-3, 1e-2))
        assert slope == pytest.approx(4.0, abs=0.15)

    def test_hermitian_parity_slope(self):
        ham = g.PolynomialHamiltonian([np.diag([0.0, 2.0]), SX])
        gens = g.solve_model(ham, 3)
        series = g.build_series(gens, 0, 2)
        qs = np.logspace(-3, -2, 15)
        curve = g.exact_spectrum_sweep(ham, qs)
        slope = g.series_residual_order(curve, series, 0, 2, (1e-3, 1e-2))
        assert slope == pytest.approx(4.0, abs=0.15)  # odd order vanishes

    def test_corrupted_coefficient_detected(self, toy, toy_gens):
        series = g.build_series(toy_gens, 1, 2)
        corrupted = g.PerturbationSeries(
            state=1,
            order=2,
            eigenvalue_corrections=series.eigenvalue_corrections + np.array([0, 0, 0.01]),
            state_corrections=series.state_corrections,
            gauge=series.gauge,
        )
        qs = np.logspace(-4, -2, 25)
        curve = g.exact_spectrum_sweep(toy, qs)
        slope = g.series_residual_order(curve, corrupted, 1, 2, (1e-4, 1e-2))
        assert slope == pytest.approx(2.0, abs=0.1)
        assert slope < 2.8  # fails the order-2 contract, as it should

    def test_floor_points_are_dropped(self, toy, toy_series):
        # at q near 1e-4 the q^4 tail sits below the 1e-14 floor; the fit
        # must still succeed on the usable upper part of the window
        qs = np.logspace(-4, -2, 25)
        curve = g.exact_spectrum_sweep(toy, qs)
        slope = g.series_residual_order(curve, toy_series[1], 1, 3, (1e-4, 1e-2))
        assert slope > 3.8

    def test_underflow_when_nothing_measurable(self, toy, toy_series):
        qs = np.logspace(-5, -4, 10)
        curve = g.exact_spectrum_sweep(toy, qs)
        with pytest.raises(g.ResidualUnderflow):
            g.series_residual_order(curve, toy_series[1], 1, 3, (1e-5, 1e-4))

    def test_sampling_density_guard(self, toy, toy_series):
        qs = np.logspace(-4, -2, 10)  # 5 per decade
        curve = g.exact_spectrum_sweep(toy, qs)
        with pytest.raises(ValueError):
            g.series_residual_order(curve, toy_series[1], 1, 2, (1e-4, 1e-2))

    def test_insufficient_series_order(self, toy, toy_series):
        qs = np.logspace(-4, -2, 25)
        curve = g.exact_spectrum_sweep(toy, qs)
        with pytest.raises(g.InsufficientOrder):
            g.series_residual_order(curve, toy_series[1], 1, 5, (1e-4, 1e-2))

    def test_ray_insufficient_order(self, toy, toy_series):
        with pytest.raises(g.InsufficientOrder):
            g.state_ray_residual(toy, toy_series[1], 1, 5, [1e-3])

    def test_negative_order_rejected(self, toy, toy_series):
        qs = np.logspace(-4, -2, 25)
        curve = g.exact_spectrum_sweep(toy, qs)
        with pytest.raises(ValueError, match="order must be non-negative"):
            g.series_residual_order(curve, toy_series[1], 1, -1, (1e-4, 1e-2))
        with pytest.raises(ValueError, match="order must be non-negative"):
            g.state_ray_residual(toy, toy_series[1], 1, -1, qs)


class TestSlopeFit:
    """The closed-form block fit against np.polyfit, row by row."""

    @staticmethod
    def _masked_rows(seed, floor, q_min=1e-5):
        rng = np.random.default_rng(seed)
        qs = np.sort(rng.uniform(q_min, 1e-1, 30))
        powers = rng.uniform(0.5, 6.0, (14, 1))
        residuals = rng.uniform(0.1, 10.0, (14, 1)) * qs**powers * np.exp(0.3 * rng.standard_normal((14, 30)))
        residuals = np.maximum(residuals, 2 * floor)
        masked = residuals.copy()
        hidden = rng.random(residuals.shape) < 0.4  # below the floor, or exactly zero
        masked[hidden] = rng.choice([0.0, floor / 2, floor * (1 - 1e-15)], hidden.sum())
        masked[0, ::3] = floor  # at the floor is usable
        for row, kept in ((1, 4), (2, 5), (3, 0), (4, 30)):
            masked[row] = residuals[row]
            masked[row, kept:] = 0.0
        return qs, masked

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("floor", [g.oracle.RESIDUAL_FLOOR, RAY_FLOOR])
    def test_block_matches_polyfit(self, seed, floor):
        qs, residuals = self._masked_rows(seed, floor)
        slopes = _fit_block(qs, residuals, floor)
        assert len(slopes) == residuals.shape[0]
        for row, slope in zip(residuals, slopes):
            usable = row >= floor
            if usable.sum() < 5:
                assert slope is None
                continue
            ref = np.polyfit(np.log(qs[usable]), np.log(row[usable]), 1)[0]
            assert isinstance(slope, float)
            assert abs(slope - ref) <= 1e-13 * abs(ref)

    @pytest.mark.parametrize("seed", range(3))
    def test_one_row_view_is_the_block_row(self, seed):
        # a zero series leaves each curve row as its own residual row; 30
        # samples over at most 2 decades meet the 8-per-decade window rule
        floor = RESIDUAL_FLOOR
        qs, residuals = self._masked_rows(seed, floor, q_min=1e-3)
        curve = g.SpectrumCurve(qs=qs, values=residuals.astype(complex), pair_margin=np.inf)
        zero = g.PerturbationSeries(
            state=0, order=0, eigenvalue_corrections=np.zeros(1, dtype=complex),
            state_corrections=(np.zeros(2, dtype=complex),), gauge="zero-diagonal",
        )
        window = (qs[0], qs[-1])
        slopes = _fit_block(qs, residuals, floor)
        for n, (row, slope) in enumerate(zip(residuals, slopes)):
            if slope is None:
                count = int((row >= floor).sum())
                with pytest.raises(g.ResidualUnderflow, match=f"only {count} residuals above"):
                    g.series_residual_order(curve, zero, n, 0, window)
            else:
                assert g.series_residual_order(curve, zero, n, 0, window) == slope  # bit for bit


class TestFiniteDifferences:
    def test_toy_second_order(self):
        # pure gain/loss perturbation: exact branch sqrt(1 - q^2), so the
        # second coefficient is -1/2 on the upper state
        ham = g.toy_model(1.0, 1.0, 0.0)
        fd = g.fd_eigenvalue_derivatives(ham, 1, 2)
        assert abs(fd - (-0.5)) < 1e-7

    def test_first_order_matches_flow_diagonal(self, rng):
        ham = linear_family(rng, 4, hermitian=True)
        frame = g.eigenframe(ham.term(0))
        a = g.double_bracket(frame, ham.term(1))
        for n in range(4):
            fd = g.fd_eigenvalue_derivatives(ham, n, 1)
            assert abs(fd - a[n, n]) < 1e-6 * max(1, abs(a[n, n]))

    def test_constant_family(self):
        ham = g.PolynomialHamiltonian([np.diag([0.0, 1.0, 2.0])])
        for k in range(1, 5):
            assert abs(g.fd_eigenvalue_derivatives(ham, 1, k)) < 1e-9

    def test_series_concordance(self, toy, toy_gens):
        for n in range(2):
            h = g.eigenvalue_corrections(toy_gens, n, 3)
            for k in (1, 2, 3):
                fd = g.fd_eigenvalue_derivatives(toy, n, k)
                assert abs(fd - h[k]) <= 1e-5 * max(1, abs(h[k]))

    def test_closed_form_curve_concordance(self, toy_gens):
        # differencing the closed-form branch directly (no eigensolver noise)
        # pins the second coefficient to ~1e-8 or better
        h = 1e-3
        f = lambda q: toy_exact(np.array([q]))[0].real

        def second(hh):
            return (f(hh) - 2 * f(0.0) + f(-hh)) / hh**2

        refined = (4 * second(h / 2) - second(h)) / 3 / 2
        series = g.eigenvalue_corrections(toy_gens, 1, 2)
        assert abs(refined - series[2]) < 1e-8

    def test_rejects_bad_order(self, toy):
        with pytest.raises(ValueError):
            g.fd_eigenvalue_derivatives(toy, 0, 5)

    def test_degenerate_stencil_rejected(self, monkeypatch):
        # crossing at q = 0.05 sits inside the default stencil of width 2e-3
        # only if the step is enlarged
        monkeypatch.setattr(g.oracle, "_FD_STEP", 0.05)
        ham = g.PolynomialHamiltonian([np.diag([0.0, 0.1]), np.diag([1.0, -1.0])])
        with pytest.raises(g.DegenerateSpectrum):
            g.fd_eigenvalue_derivatives(ham, 0, 1)


class TestRayResidual:
    def test_unperturbed_vector_first_order_error(self, toy, toy_gens):
        series = g.build_series(toy_gens, 1, 0)
        qs = np.logspace(-3, -1, 15)
        sines = g.state_ray_residual(toy, series, 1, 0, qs)
        slope = _polyfit_slope(qs, sines)
        assert slope == pytest.approx(1.0, abs=0.1)

    def test_toy_second_order(self, toy, toy_gens):
        series = g.build_series(toy_gens, 1, 2)
        qs = np.logspace(-3, -1.5, 15)
        sines = g.state_ray_residual(toy, series, 1, 2, qs)
        slope = _polyfit_slope(qs, sines)
        assert slope >= 2.8

    def test_random_linear_third_order(self, rng):
        ham = linear_family(rng, 4)
        gens = g.solve_model(ham, 4)
        series = g.build_series(gens, 2, 3)
        qs = np.logspace(-3, -1.5, 15)
        sines = g.state_ray_residual(ham, series, 2, 3, qs)
        usable = sines >= RAY_FLOOR
        slope = _polyfit_slope(qs[usable], sines[usable])
        assert slope >= 3.8

    def test_monotone_improvement(self, toy, toy_gens):
        q = 1e-3
        prev = np.inf
        for order in range(4):
            series = g.build_series(toy_gens, 1, order)
            sine = g.state_ray_residual(toy, series, 1, order, [q])[0]
            assert sine <= prev * (1 + 1e-9)
            prev = sine

    def test_overflowing_power_rejected(self):
        # q^3 overflows a float: a ValueError naming q, not an OverflowError
        ham = g.PolynomialHamiltonian([[[1.0]], [[2.0]]])
        series = g.build_series(g.solve_model(ham, 3), 0, 3)
        with pytest.raises(ValueError, match=r"q = 1e\+104 .*order 3"):
            g.state_ray_residual(ham, series, 0, 3, [1e103, 1e104])
        assert np.all(g.state_ray_residual(ham, series, 0, 1, [1e103, 1e104]) <= 1e-15)

    def test_gauge_independent(self, toy, toy_frame, rng):
        # ray residuals ignore scalar factors, and gauge shifts move the
        # truncated vector only along the physical ray at each order in q
        qs = np.logspace(-3, -2, 8)
        diags = [1j * rng.standard_normal(2) for _ in range(5)]
        base = g.build_series(g.solve_generators(toy, toy_frame, 4), 1, 2)
        shifted_gens = g.solve_generators(toy, toy_frame, 4, k0_diagonals=diags)
        shifted = g.build_series(shifted_gens, 1, 2)
        r_base = g.state_ray_residual(toy, base, 1, 2, qs)
        r_shift = g.state_ray_residual(toy, shifted, 1, 2, qs)
        # both series remain order-2 accurate
        assert _polyfit_slope(qs, r_base) >= 2.8
        assert _polyfit_slope(qs, r_shift) >= 2.8


def _record_calls(monkeypatch):
    """Record the positional arguments of every exact diagonalization, frame,
    generator solve, series kernel call and Bell block run after this call,
    and fail on any per-state series object."""
    calls = {}

    def recorded(name, fn):
        calls[name] = []

        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, recorded(name, getattr(np.linalg, name)))
    for name in ("eigenframe", "solve_generators", "_series_block", "_bell_block"):
        original = getattr(g.corrections, name)
        wrapped = recorded(name, original)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("geompert") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapped)

    def no_series(*_args, **_kwargs):
        raise AssertionError("built a per-state series object")

    monkeypatch.setattr(g.PerturbationSeries, "__init__", no_series)
    return calls


def _recursions(calls) -> int:
    # a kernel call given state blocks (a fourth argument) only contracts them
    return sum(len(args) < 4 for args in calls["_series_block"])


def _model(name):
    if name.startswith("seeded-N"):
        terms = seeded_quadratic_family(0, int(name[len("seeded-N"):])).terms
        return g.ModelDocument(name, list(terms))
    return g.builtin_model(name)


class TestWindowBelowFloor:
    """`residual_order` FAILs a window where no truncation error of a nonzero
    series can reach the noise floor, and only there."""

    @pytest.mark.parametrize("name", [*g.BUILTIN_MODELS, "seeded-N6"])
    def test_blind_window_fails_with_the_reason(self, name):
        report = run_pipeline(_model(name), 3, {"residual_order"}, q_lo=1e-300, q_hi=1e-299)
        check = report.checks["residual_order"]
        assert check["status"] == "fail" and report.verdict == "fail"
        assert check["reason"] == "window below the noise floor"
        assert list(check)[:2] == ["status", "reason"]
        assert all(s is None for s in check["eigenvalue_slopes"])

    def test_measured_slopes_pass_over_a_roundoff_series(self):
        # the toy's exact h^(1) is 0 and the run's is roundoff, which no window
        # reaches; yet every eigenvalue slope is measured, so the window is not blind
        report = run_pipeline(g.builtin_model("toy-sec5"), 1, {"residual_order"})
        check = report.checks["residual_order"]
        assert check["status"] == "pass" and "reason" not in check
        assert all(s >= check["threshold"] for s in check["eigenvalue_slopes"])

    @pytest.mark.parametrize("perturbation", [np.diag([1.0, -0.5, 2.0]), np.zeros((3, 3))])
    def test_exact_truncations_pass_at_the_default_window(self, perturbation):
        # nothing for a slope to measure, and nothing it could have missed
        doc = g.ModelDocument("exact", [np.diag([0.0, 1.0, 2.5]), perturbation])
        check = run_pipeline(doc, 3, {"residual_order"}).checks["residual_order"]
        assert check["status"] == "pass" and "reason" not in check
        assert all(s is None for s in check["eigenvalue_slopes"] + check["ray_slopes"])


class TestMeasuredFloors:
    """`residual_order` fits each state above floors measured against the
    permutation twin P H(q) P^T, never below the constant floors."""

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_seeded_families_pass_at_the_fixed_gate(self, n):
        report = run_pipeline(_model(f"seeded-N{n}"), 3, {"residual_order"})
        check = report.checks["residual_order"]
        assert check["status"] == "pass" and check["threshold"] == 3 + 0.8
        assert len(check["eigenvalue_floors"]) == len(check["ray_floors"]) == n
        assert min(check["eigenvalue_floors"]) >= RESIDUAL_FLOOR
        assert min(check["ray_floors"]) >= RAY_FLOOR
        # the eigensolver's roundoff lies above the constant floor here
        assert max(check["eigenvalue_floors"]) > RESIDUAL_FLOOR
        # the twins' vectors are mapped back before the sines are taken
        assert max(check["ray_floors"]) < 1e-10

    @pytest.mark.parametrize("dense", [True, False])
    @pytest.mark.parametrize("t", [0, 1, 4, 16])
    def test_manufactured_families_pass_at_the_fixed_gate(self, dense, t):
        # the exactly known dimers, their series within 1e-14 of exact.  Under
        # Sylvester-Hadamard mixing (dense) the index reversal alone is a sign
        # symmetry: at t = 0 its twin matched the sweep to 1.8e-16, every floor
        # fell to RESIDUAL_FLOOR and the value slopes read 1.43 to 3.19
        ham = manufactured_family(0, 16, t, dense).hamiltonian
        report = run_pipeline(g.ModelDocument("dimers", list(ham.terms)), 3, {"residual_order"})
        check = report.checks["residual_order"]
        assert check["status"] == "pass" and check["threshold"] == 3 + 0.8
        assert max(check["eigenvalue_floors"]) > RESIDUAL_FLOOR
        assert max(check["ray_floors"]) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 64])
    def test_twin_permutations(self, n):
        perm, inverse = _twin_permutations(n)
        assert _twin_permutations(n) is _twin_permutations(n)  # drawn once per N
        assert perm.shape == inverse.shape == (3, n)
        assert not perm.flags.writeable and not inverse.flags.writeable
        for p, q in zip(perm, inverse):
            assert np.array_equal(np.sort(p), np.arange(n))
            assert np.array_equal(p[q], np.arange(n))
        # a derangement at the first and last samples, the reversal between
        assert np.array_equal(perm[0], perm[2])
        assert n == 1 or not np.any(perm[0] == np.arange(n))
        assert np.array_equal(perm[1], np.arange(n)[::-1])
        if n >= 16:
            assert not np.array_equal(perm[0], perm[1])

    def test_a_gross_error_still_fails(self, monkeypatch):
        def wrong_h2(gens, order):
            states, h = _all_block(gens, order)
            h = h.copy()
            h[2, 0] *= 1 + 1e-2
            return states, h

        monkeypatch.setattr(g.pipeline, "_all_block", wrong_h2)
        check = run_pipeline(_model("seeded-N16"), 3, {"residual_order"}).checks["residual_order"]
        assert check["status"] == "fail"
        assert check["eigenvalue_slopes"][0] < check["threshold"]
        assert all(s >= check["threshold"] for s in check["eigenvalue_slopes"][1:])


class TestSharedSweep:
    """Each check diagonalizes its grid once for all states, from one frame,
    and reads the run's one generator solve and one series block."""

    @pytest.mark.parametrize("name", ["seeded-N6", "random-linear-N4-seed7"])
    def test_verify_call_counts(self, monkeypatch, name):
        doc = _model(name)
        calls = _record_calls(monkeypatch)
        points = 25
        run_pipeline(doc, 3, ALL_CHECKS, points=points)
        assert len(calls["eigenframe"]) == 1
        assert len(calls["eig"]) <= 1 + points
        assert len(calls["eigvals"]) <= 7  # the union of the k = 1..3 stencils
        # the run's solve, then the gauge check's to order kc - 1 = 2
        assert [args[2] for args in calls["solve_generators"]] == [3, 2]
        # the run's block and the gauge check's block; the linear crosscheck's
        # order-3 recursion route reuses the run's
        assert _recursions(calls) == 2
        # the route check reads the RS recursion, not the Bell closed form
        assert calls["_bell_block"] == []

    def test_crosscheck_reads_the_run_block_at_a_higher_order(self, monkeypatch):
        calls = _record_calls(monkeypatch)
        run_pipeline(g.builtin_model("random-linear-N4-seed7"), 5, {"linear_crosscheck"})
        assert _recursions(calls) == 1

    def test_expand_runs_the_recursion_once(self, monkeypatch, tmp_path):
        calls = _record_calls(monkeypatch)
        argv = ["expand", "--model", "toy-sec5", "--order", "5", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert _recursions(calls) == 1
        assert calls["_bell_block"] == []
        assert [args[2] for args in calls["solve_generators"]] == [5]

    @pytest.mark.parametrize("name", [*g.BUILTIN_MODELS, "seeded-N6"])
    def test_blocks_match_per_state_loops(self, name):
        if name == "seeded-N6":
            ham = seeded_quadratic_family(0, 6)
        else:
            ham = g.builtin_model(name).to_hamiltonian()
        frame = g.eigenframe(ham.term(0))
        series = g.build_all_series(g.solve_model(ham, 3), 3)
        estimates = _fd_coefficients(frame, ham, (1, 2, 3))
        for k, block in zip((1, 2, 3), estimates):
            for n in range(frame.dim):
                assert complex(block[n]) == reference_fd_derivative(ham, n, k)
        qs = np.logspace(-4, -2, 25)
        curve, vectors = _continued_sweep(frame, ham, qs, True)
        corrections = np.array([s.state_corrections for s in series])
        rays = _ray_residual_block(vectors, corrections, curve.qs)
        for n, s in enumerate(series):
            ref = reference_ray_residual(vectors[n], s.state_corrections, qs)
            # the same BLAS dot kernels: bit-identical on the measured build;
            # the bound only allows another build to order a dot differently
            np.testing.assert_allclose(rays[n], ref, rtol=0, atol=1e-15)
        coeffs = np.array([s.eigenvalue_corrections for s in series])
        truncations = _horner(coeffs, qs)
        for n in range(frame.dim):
            assert np.array_equal(truncations[n], np.polyval(coeffs[n, ::-1], qs))

    @pytest.mark.parametrize("name", [*g.BUILTIN_MODELS, "seeded-N6"])
    def test_public_fd_is_the_pipeline_estimate(self, monkeypatch, name):
        doc = _model(name)
        seen = []

        def record(*args, **kwargs):
            seen.append(_fd_coefficients(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(g.pipeline, "_fd_coefficients", record)
        run_pipeline(doc, 3, {"fd_concordance"})
        (estimates,) = seen
        ham = doc.to_hamiltonian()
        for k, row in zip((1, 2, 3), estimates):
            for n in range(ham.dim):
                public = np.complex128(g.fd_eigenvalue_derivatives(ham, n, k))
                assert public.tobytes() == row[n].tobytes()

    @pytest.mark.parametrize("name", [*g.BUILTIN_MODELS, "seeded-N6", "seeded-N16"])
    def test_public_views_match_pipeline(self, name):
        # seeded N = 16 FAILs `verify` (ROADMAP item 1(b)); the views still
        # reproduce every entry of the failing report.  The report fits above
        # the floors it measured, the public slope above RESIDUAL_FLOOR.
        order, q_lo, q_hi, points = 3, 1e-4, 1e-2, 25
        doc = _model(name)
        ham = doc.to_hamiltonian()
        report = run_pipeline(
            doc, order, {"residual_order", "fd_concordance"}, q_lo=q_lo, q_hi=q_hi, points=points
        )
        series = g.build_all_series(g.solve_model(ham, order), order)
        entries = iter(report.checks["fd_concordance"]["entries"])
        for n, s in enumerate(series):
            for k in (1, 2, 3):
                ref = complex(s.eigenvalue_corrections[k])
                dev = abs(g.fd_eigenvalue_derivatives(ham, n, k) - ref) / max(1.0, abs(ref))
                assert next(entries) == {"n": n, "k": k, "deviation": dev}
        check = report.checks["residual_order"]
        qs = np.logspace(np.log10(q_lo), np.log10(q_hi), points)
        curve = g.exact_spectrum_sweep(ham, qs)
        for n, s in enumerate(series):
            truncation = np.array([s.eigenvalue_at(q) for q in qs.tolist()])
            residual = np.abs(curve.values[n] - truncation)[None]
            slope = _fit_block(qs, residual, check["eigenvalue_floors"][n])[0]
            assert check["eigenvalue_slopes"][n] == slope
            try:
                public = g.series_residual_order(curve, s, n, order, (q_lo, q_hi))
            except g.ResidualUnderflow:
                public = None
            assert public == _fit_block(qs, residual, RESIDUAL_FLOOR)[0]
            rays = g.state_ray_residual(ham, s, n, order, qs)
            slope = _fit_block(qs, rays[None], check["ray_floors"][n])[0]
            assert check["ray_slopes"][n] == slope
