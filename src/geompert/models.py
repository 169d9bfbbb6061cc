"""Model documents: the JSON on-disk form of a polynomial family.

Schema (field names are load-bearing):

    {
      "name": "toy",
      "dim": 2,
      "terms": [{"order": 0, "matrix": [[[re, im], ...], ...]}, ...],
      "metadata": {"key": "value"}          # optional, string to string
    }

Each matrix is dim x dim, row-major, every entry exactly a 2-element real
array [re, im].  Orders are distinct, non-negative and at most
MAX_TERM_ORDER; order 0 is required; missing intermediate orders mean zero
matrices.  No object repeats a key.  Text that is not UTF-8, or nested
deeper than the JSON decoder's recursion limit, is a SchemaError at `$`.

A matrix's shape is checked first, naming its first row of the wrong
length; it is then validated in one row-major walk over its cells, which
names its first faulty entry, and converted as one float64 array.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import NonFiniteEntry, NonSquare, SchemaError
from .generators import PolynomialHamiltonian
from .spectral import _frozen, is_integer

# the highest term order a document may hold, since parse_model builds every
# order below it; run_pipeline caps every series order at
# pipeline.MAX_ORDER = 25, so no run reads a term above 26
MAX_TERM_ORDER = 64


class ModelDocument:
    """A named polynomial family plus free-form string metadata."""

    def __init__(self, name: str, terms, metadata: dict[str, str] | None = None):
        self.name = str(name)
        self.terms = tuple(_frozen(np.array(t, dtype=np.complex128)) for t in terms)
        self.dim = int(self.terms[0].shape[0]) if self.terms else 0
        self.metadata = dict(metadata or {})

    @property
    def degree(self) -> int:
        return len(self.terms) - 1

    def to_hamiltonian(self) -> PolynomialHamiltonian:
        return PolynomialHamiltonian(self.terms)

    def __eq__(self, other):
        if not isinstance(other, ModelDocument):
            return NotImplemented
        return (
            self.name == other.name
            and self.dim == other.dim
            and self.metadata == other.metadata
            and len(self.terms) == len(other.terms)
            and all(np.array_equal(a, b) for a, b in zip(self.terms, other.terms))
        )

    def __repr__(self):
        return f"ModelDocument(name={self.name!r}, dim={self.dim}, degree={self.degree})"


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise SchemaError(path, message)


# json.loads yields exact int, float and bool: an exact type test is
# isinstance(x, (int, float)) with bool excluded
_REAL_TYPES = (int, float)


def _is_cell(entry) -> bool:
    """Whether a decoded matrix entry is a 2-element real array [re, im]."""
    return (
        type(entry) is list
        and len(entry) == 2
        and type(entry[0]) in _REAL_TYPES
        and type(entry[1]) in _REAL_TYPES
    )


def _parse_matrix(raw, dim: int, path: str) -> np.ndarray:
    """The dim x dim complex matrix of one decoded term.

    A NonSquare error names the first row of the wrong length.  One row-major
    walk then checks each cell's type and finiteness and names the first
    faulty cell; the matrix is then converted as one float64 array,
    since numpy converts a Python int or float exactly as float() does.
    """
    _require(isinstance(raw, list), path, "expected a matrix (list of rows)")
    if len(raw) != dim:
        raise NonSquare(f"{path}: matrix has {len(raw)} rows, expected {dim}")
    for i, row in enumerate(raw):
        if not isinstance(row, list):
            raise NonSquare(f"{path}[{i}]: row is not a list, expected {dim} entries")
        if len(row) != dim:
            raise NonSquare(f"{path}[{i}]: row has {len(row)} entries, expected {dim}")
    for i, row in enumerate(raw):
        for j, entry in enumerate(row):
            if not _is_cell(entry):
                raise SchemaError(f"{path}[{i}][{j}]", "expected a 2-element real array [re, im]")
            try:
                finite = math.isfinite(entry[0]) and math.isfinite(entry[1])
            except OverflowError:  # an integer too large for a float
                finite = False
            if not finite:
                raise NonFiniteEntry(f"{path}[{i}][{j}]: entry is not finite")
    return np.array(raw, dtype=np.float64).view(np.complex128)[..., 0]


def _unique_keys(pairs: list) -> dict:
    """The object of decoded (key, value) pairs; a repeated key is an error
    (json.loads alone would keep its last value)."""
    obj = {}
    for key, value in pairs:
        _require(key not in obj, "$", f"duplicate key {key!r}")
        obj[key] = value
    return obj


def parse_model(text) -> ModelDocument:
    """Parse and validate a UTF-8 JSON model document."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    # bytes that are not UTF-8, malformed JSON, an integer over Python's digit
    # limit, or nesting deeper than the decoder's recursion limit
    except (ValueError, RecursionError) as exc:
        raise SchemaError("$", f"invalid JSON: {exc}") from exc

    _require(isinstance(raw, dict), "$", "expected a JSON object")
    allowed = {"name", "dim", "terms", "metadata"}
    for key in raw:
        _require(key in allowed, f"$.{key}", "unknown field")
    _require("name" in raw and isinstance(raw["name"], str), "$.name", "expected a string")
    _require(is_integer(raw.get("dim")), "$.dim", "expected an integer")
    dim = raw["dim"]
    _require(dim >= 1, "$.dim", "must be a positive integer")
    _require("terms" in raw and isinstance(raw["terms"], list), "$.terms", "expected a list")

    by_order: dict[int, np.ndarray] = {}
    for idx, term in enumerate(raw["terms"]):
        path = f"terms[{idx}]"
        _require(isinstance(term, dict), path, "expected an object")
        for key in term:
            _require(key in {"order", "matrix"}, f"{path}.{key}", "unknown field")
        _require(is_integer(term.get("order")), f"{path}.order", "expected an integer")
        order = term["order"]
        _require(order >= 0, f"{path}.order", "must be non-negative")
        _require(order <= MAX_TERM_ORDER, f"{path}.order", f"must be at most {MAX_TERM_ORDER}")
        _require(order not in by_order, f"{path}.order", f"duplicate order {order}")
        _require("matrix" in term, f"{path}.matrix", "missing matrix")
        by_order[order] = _parse_matrix(term["matrix"], dim, f"{path}.matrix")

    _require(0 in by_order, "$.terms", "a term with order 0 is required")

    metadata = raw.get("metadata", {})
    _require(isinstance(metadata, dict), "$.metadata", "expected an object")
    for key, value in metadata.items():
        _require(isinstance(value, str), f"$.metadata.{key}", "expected a string")

    degree = max(by_order)
    zero = np.zeros((dim, dim), dtype=np.complex128)
    terms = [by_order.get(j, zero) for j in range(degree + 1)]
    return ModelDocument(raw["name"], terms, metadata)


def serialize_model(doc: ModelDocument) -> str:
    """JSON text that parses back to an equal ModelDocument."""
    obj = {
        "name": doc.name,
        "dim": doc.dim,
        "terms": [
            {"order": j, "matrix": np.stack([m.real, m.imag], axis=-1).tolist()}
            for j, m in enumerate(doc.terms)
        ],
    }
    if doc.metadata:
        obj["metadata"] = dict(sorted(doc.metadata.items()))
    return json.dumps(obj, indent=2) + "\n"


def _toy_terms(h: float, alpha1: float, alpha2: float):
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    gain_loss = np.array([[1j, 0.0], [0.0, -1j]], dtype=np.complex128)
    return [h * sx, alpha1 * gain_loss, alpha2 * sx]


def toy_model(h: float = 1.0, alpha1: float = 1.0, alpha2: float = 1.0) -> PolynomialHamiltonian:
    """Two-level family h*sx + q*alpha1*i*sz + q^2*alpha2*sx.

    Exact spectrum: +/- sqrt((h + q^2 alpha2)^2 - q^2 alpha1^2).
    """
    return PolynomialHamiltonian(_toy_terms(h, alpha1, alpha2))


def _random_linear_terms(dim: int = 4, seed: int = 7):
    rng = np.random.default_rng(seed)
    h0 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h1 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return [h0, h1]


# each built-in model, by name: a function that builds its terms, and its description
_BUILTINS = {
    "toy-sec5": (
        lambda: _toy_terms(1.0, 1.0, 1.0),
        "two-level gain/loss family, h = alpha1 = alpha2 = 1",
    ),
    "hermitian-2level": (
        lambda: [np.diag([0.0, 2.0]), np.array([[0.0, 1.0], [1.0, 0.0]])],
        "Hermitian two-level linear family diag(0,2) + q*sx",
    ),
    "random-linear-N4-seed7": (
        lambda: _random_linear_terms(4, 7),
        "dense non-Hermitian 4x4 linear family, rng seed 7",
    ),
}
BUILTIN_MODELS = tuple(_BUILTINS)


def builtin_model(name: str) -> ModelDocument:
    """One of the shipped example models, by name."""
    if name not in _BUILTINS:
        raise KeyError(f"unknown built-in model {name!r}; available: {', '.join(BUILTIN_MODELS)}")
    terms, description = _BUILTINS[name]
    return ModelDocument(name, terms(), {"description": description})
