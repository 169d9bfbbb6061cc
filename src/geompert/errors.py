"""Exception hierarchy for geompert.

Every error raised on purpose by the library derives from GeompertError, so
callers can catch the whole family with one clause.  The CLI maps each class
to a documented exit code.
"""


class GeompertError(Exception):
    """Base class for all geompert errors."""


class NonSquare(GeompertError):
    """A matrix (or matrix literal) is not N x N."""


class NonFiniteEntry(GeompertError):
    """A matrix contains NaN or infinite entries."""


class DimensionMismatch(GeompertError):
    """Operands have incompatible dimensions."""


class _AtSample(GeompertError):
    """An error found at one sample of the family H(q); `q` is that sample (a
    float), or None where the raiser does not know it."""

    def __init__(self, message, *, q: float | None = None):
        super().__init__(message)
        self.q = q


class DegenerateSpectrum(_AtSample):
    """The unperturbed spectrum is (numerically) degenerate.

    Raised whenever an eigenvalue gap falls below the degeneracy threshold;
    the perturbative construction divides by these gaps and is invalid at or
    near such points (eigenvector coalescence / exceptional points).  `q` is
    0.0 for the frame of H_0 and the sample q for an exact sweep.
    """


class NumericalFailure(GeompertError):
    """An eigendecomposition failed its residual postconditions."""


class ConsistencyFailure(GeompertError):
    """An internally-implied constraint was violated while solving.

    Should never fire for valid inputs; it signals a contradiction in the
    order-by-order hierarchy (e.g. a nonzero diagonal where the equations
    require an exact zero).
    """


class MissingSymbol(GeompertError):
    """A word polynomial references a symbol with no matrix assigned."""


class InsufficientOrder(GeompertError):
    """A generator series is too short for the requested correction order."""


class DegreeMismatch(GeompertError):
    """An operation requires a specific polynomial degree."""


class PairingAmbiguous(_AtSample):
    """Eigenvalue continuation could not be matched unambiguously at the sample `q`."""


class ResidualUnderflow(GeompertError):
    """Residuals sit below the measurable floor; slope cannot be fitted."""


class SchemaError(GeompertError):
    """A model document violates the input schema.

    The `path` attribute points at the offending field, e.g.
    ``terms[1].matrix[0][2]``.
    """

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


class PipelineError(GeompertError):
    """Wraps an error with the pipeline stage it occurred in."""

    def __init__(self, stage, cause):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage!r}: {cause}")
