"""Model documents: the JSON on-disk form of a polynomial family.

Schema (field names are load-bearing):

    {
      "name": "toy",
      "dim": 2,
      "terms": [{"order": 0, "matrix": [[[re, im], ...], ...]}, ...],
      "metadata": {"key": "value"}          # optional, string to string
    }

Each matrix is dim x dim, row-major, every entry exactly a 2-element real
array [re, im].  Orders are distinct and non-negative; order 0 is required;
missing intermediate orders mean zero matrices.  No object repeats a key.

A matrix is validated in one pass over its cells and converted as one
float64 array; only a faulty matrix is walked cell by cell, to name its
first faulty entry in row-major order.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from .errors import NonFiniteEntry, NonSquare, SchemaError
from .generators import PolynomialHamiltonian

class ModelDocument:
    """A named polynomial family plus free-form string metadata."""

    def __init__(self, name: str, terms, metadata: dict[str, str] | None = None):
        self.name = str(name)
        mats = [np.array(t, dtype=np.complex128) for t in terms]
        for m in mats:
            m.setflags(write=False)
        self.terms = tuple(mats)
        self.dim = int(mats[0].shape[0]) if mats else 0
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

    Every cell is type-checked in one pass and the whole matrix converted in
    one float64 array; numpy converts a Python int or float exactly as
    float() does.  Only when that fails is the first faulty cell, in
    row-major order, located to name it in the error.
    """
    _require(isinstance(raw, list), path, "expected a matrix (list of rows)")
    if len(raw) != dim or any(
        not isinstance(r, list) or len(r) != dim for r in raw
    ):
        shape = f"{len(raw)}x{len(raw[0]) if raw and isinstance(raw[0], list) else '?'}"
        raise NonSquare(f"{path}: matrix is {shape}, expected {dim}x{dim}")
    if all(map(_is_cell, itertools.chain.from_iterable(raw))):
        try:
            pairs = np.array(raw, dtype=np.float64)
        except OverflowError:  # an integer too large for a float
            pass
        else:
            if np.isfinite(pairs).all():
                return pairs.view(np.complex128)[..., 0]
    for i, row in enumerate(raw):
        for j, entry in enumerate(row):
            cell = f"{path}[{i}][{j}]"
            _require(_is_cell(entry), cell, "expected a 2-element real array [re, im]")
            try:
                finite = math.isfinite(entry[0]) and math.isfinite(entry[1])
            except OverflowError:
                finite = False
            if not finite:
                raise NonFiniteEntry(f"{cell}: entry is not finite")
    raise AssertionError("unreachable: a faulty matrix has a faulty cell")


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
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # malformed JSON, or an integer over Python's digit limit
        raise SchemaError("$", f"invalid JSON: {exc}") from exc

    _require(isinstance(raw, dict), "$", "expected a JSON object")
    allowed = {"name", "dim", "terms", "metadata"}
    for key in raw:
        _require(key in allowed, f"$.{key}", "unknown field")
    _require("name" in raw and isinstance(raw["name"], str), "$.name", "expected a string")
    _require(
        "dim" in raw and isinstance(raw["dim"], int) and not isinstance(raw["dim"], bool),
        "$.dim",
        "expected an integer",
    )
    dim = raw["dim"]
    _require(dim >= 1, "$.dim", "must be a positive integer")
    _require("terms" in raw and isinstance(raw["terms"], list), "$.terms", "expected a list")

    by_order: dict[int, np.ndarray] = {}
    for idx, term in enumerate(raw["terms"]):
        path = f"terms[{idx}]"
        _require(isinstance(term, dict), path, "expected an object")
        for key in term:
            _require(key in {"order", "matrix"}, f"{path}.{key}", "unknown field")
        _require(
            "order" in term
            and isinstance(term["order"], int)
            and not isinstance(term["order"], bool),
            f"{path}.order",
            "expected an integer",
        )
        order = term["order"]
        _require(order >= 0, f"{path}.order", "must be non-negative")
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


def _matrix_to_json(m: np.ndarray) -> list:
    return [
        [[float(m[i, j].real), float(m[i, j].imag)] for j in range(m.shape[1])]
        for i in range(m.shape[0])
    ]


def model_to_json_obj(doc: ModelDocument) -> dict:
    obj = {
        "name": doc.name,
        "dim": doc.dim,
        "terms": [
            {"order": j, "matrix": _matrix_to_json(m)}
            for j, m in enumerate(doc.terms)
        ],
    }
    if doc.metadata:
        obj["metadata"] = dict(sorted(doc.metadata.items()))
    return obj


def serialize_model(doc: ModelDocument) -> str:
    """JSON text that parses back to an equal ModelDocument."""
    return json.dumps(model_to_json_obj(doc), indent=2) + "\n"


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
