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
missing intermediate orders mean zero matrices.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import NonFiniteEntry, NonSquare, SchemaError
from .generators import PolynomialHamiltonian

BUILTIN_MODELS = ("toy-sec5", "hermitian-2level", "random-linear-N4-seed7")


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


def _parse_matrix(raw, dim: int, path: str) -> np.ndarray:
    _require(isinstance(raw, list), path, "expected a matrix (list of rows)")
    if len(raw) != dim or any(
        not isinstance(r, list) or len(r) != dim for r in raw
    ):
        shape = f"{len(raw)}x{len(raw[0]) if raw and isinstance(raw[0], list) else '?'}"
        raise NonSquare(f"{path}: matrix is {shape}, expected {dim}x{dim}")
    out = np.zeros((dim, dim), dtype=np.complex128)
    for i, row in enumerate(raw):
        for j, entry in enumerate(row):
            cell = f"{path}[{i}][{j}]"
            _require(
                isinstance(entry, list)
                and len(entry) == 2
                and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry),
                cell,
                "expected a 2-element real array [re, im]",
            )
            try:
                re, im = float(entry[0]), float(entry[1])
            except OverflowError:  # an integer too large for a float
                raise NonFiniteEntry(f"{cell}: entry is not finite") from None
            if not (math.isfinite(re) and math.isfinite(im)):
                raise NonFiniteEntry(f"{cell}: entry is not finite")
            out[i, j] = complex(re, im)
    return out


def parse_model(text) -> ModelDocument:
    """Parse and validate a UTF-8 JSON model document."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        raw = json.loads(text)
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


def builtin_model(name: str) -> ModelDocument:
    """One of the shipped example models, by name."""
    if name == "toy-sec5":
        return ModelDocument(
            name,
            _toy_terms(1.0, 1.0, 1.0),
            {"description": "two-level gain/loss family, h = alpha1 = alpha2 = 1"},
        )
    if name == "hermitian-2level":
        return ModelDocument(
            name,
            [np.diag([0.0, 2.0]).astype(np.complex128), np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)],
            {"description": "Hermitian two-level linear family diag(0,2) + q*sx"},
        )
    if name == "random-linear-N4-seed7":
        return ModelDocument(
            name,
            _random_linear_terms(4, 7),
            {"description": "dense non-Hermitian 4x4 linear family, rng seed 7"},
        )
    raise KeyError(f"unknown built-in model {name!r}; available: {', '.join(BUILTIN_MODELS)}")
