"""Geometric perturbation series for polynomial (non-Hermitian) Hamiltonian families.

Given H(q) = sum_j q^j H_j with a non-degenerate H_0, the package solves the
transport-generator hierarchy order by order, produces eigenvalue and
eigenstate corrections to arbitrary order (by recursion and by dual Bell
word polynomials), and verifies every series against exact-diagonalization
oracles.
"""

__version__ = "0.1.0"

from .bellpoly import (
    OperatorWord,
    WordPolynomial,
    bell_commutative,
    dual_bell_coefficients,
    dual_bell_words,
    evaluate_words,
    evaluate_words_scalar,
    power_sums_to_elementary,
)
from .corrections import (
    LinearCrosscheck,
    PerturbationSeries,
    build_all_series,
    build_series,
    crosscheck_linear,
    eigenvalue_corrections,
    eigenvalue_corrections_bell,
    rs_linear_corrections,
    state_corrections_bell,
    state_corrections_recursive,
)
from .errors import (
    ConsistencyFailure,
    DegenerateSpectrum,
    DegreeMismatch,
    DimensionMismatch,
    GeompertError,
    InsufficientOrder,
    MissingSymbol,
    NonFiniteEntry,
    NonSquare,
    NumericalFailure,
    PairingAmbiguous,
    PipelineError,
    ResidualUnderflow,
    SchemaError,
)
from .generators import (
    GeneratorSeries,
    PolynomialHamiltonian,
    hierarchy_residuals,
    solve_generators,
    solve_model,
)
from .models import (
    BUILTIN_MODELS,
    ModelDocument,
    builtin_model,
    parse_model,
    serialize_model,
    toy_model,
)
from .oracle import (
    SpectrumCurve,
    exact_spectrum_sweep,
    fd_eigenvalue_derivatives,
    log_log_slope,
    series_residual_order,
    state_ray_residual,
)
from .pipeline import ALL_CHECKS, FAST_CHECKS, Report, run_pipeline
from .spectral import SpectralFrame, double_bracket, eigenframe

__all__ = [
    "__version__",
    "ALL_CHECKS",
    "BUILTIN_MODELS",
    "FAST_CHECKS",
    "ConsistencyFailure",
    "DegenerateSpectrum",
    "DegreeMismatch",
    "DimensionMismatch",
    "GeneratorSeries",
    "GeompertError",
    "InsufficientOrder",
    "LinearCrosscheck",
    "MissingSymbol",
    "ModelDocument",
    "NonFiniteEntry",
    "NonSquare",
    "NumericalFailure",
    "OperatorWord",
    "PairingAmbiguous",
    "PerturbationSeries",
    "PipelineError",
    "PolynomialHamiltonian",
    "Report",
    "ResidualUnderflow",
    "SchemaError",
    "SpectralFrame",
    "SpectrumCurve",
    "WordPolynomial",
    "bell_commutative",
    "build_all_series",
    "build_series",
    "builtin_model",
    "crosscheck_linear",
    "double_bracket",
    "dual_bell_coefficients",
    "dual_bell_words",
    "eigenframe",
    "eigenvalue_corrections",
    "eigenvalue_corrections_bell",
    "evaluate_words",
    "evaluate_words_scalar",
    "exact_spectrum_sweep",
    "fd_eigenvalue_derivatives",
    "hierarchy_residuals",
    "log_log_slope",
    "parse_model",
    "power_sums_to_elementary",
    "rs_linear_corrections",
    "run_pipeline",
    "serialize_model",
    "series_residual_order",
    "solve_generators",
    "solve_model",
    "state_corrections_bell",
    "state_corrections_recursive",
    "state_ray_residual",
    "toy_model",
]
