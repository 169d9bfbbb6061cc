import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import geompert as g
from geompert.cli import main
from geompert.models import MAX_TERM_ORDER, _parse_matrix
from geompert.pipeline import (
    ALL_CHECKS,
    FAST_CHECKS,
    MAX_POINTS,
    _json_text,
    _write_outputs,
    report_json,
    run_pipeline,
    series_csv,
    sweep_csv,
)
from oracles import (
    manufactured_family,
    reference_json_text,
    reference_parse_matrix,
    reference_serialize_model,
    seeded_quadratic_family,
)

# a linear two-level family, degenerate under a threshold of 0.1 only
NEAR_LEVELS = g.PolynomialHamiltonian([np.diag([0.0, 0.05]), np.array([[0.0, 1.0], [1.0, 0.0]])])
NEAR_LEVELS_QS = np.linspace(0.0, 0.1, 5)  # the pipeline's sweep=(0.1, 5)
# every public function that builds its frame of NEAR_LEVELS itself, given a
# series of its state 0 at order 3
OWN_FRAME_CALLS = {
    "run_pipeline": lambda series: run_pipeline(
        g.ModelDocument("near-levels", list(NEAR_LEVELS.terms)), 3, ALL_CHECKS, sweep=(0.1, 5)
    ),
    "exact_spectrum_sweep": lambda series: g.exact_spectrum_sweep(NEAR_LEVELS, NEAR_LEVELS_QS),
    "fd_eigenvalue_derivatives": lambda series: g.fd_eigenvalue_derivatives(NEAR_LEVELS, 0, 1),
    "state_ray_residual": lambda series: g.state_ray_residual(NEAR_LEVELS, series, 0, 3,
                                                              NEAR_LEVELS_QS),
    "crosscheck_linear": lambda series: g.crosscheck_linear(NEAR_LEVELS),
    "solve_model": lambda series: g.solve_model(NEAR_LEVELS, 3),
}

PROPERTY_SETTINGS = settings(
    max_examples=60, deadline=None, derandomize=True, database=None
)


def _outcome(parse, text, dim=2):
    """The bits of the parsed matrix, or the class, path and message of the error."""
    try:
        matrix = parse(json.loads(text), dim, "terms[0].matrix")
    except (g.SchemaError, g.NonFiniteEntry, g.NonSquare) as exc:
        return type(exc), getattr(exc, "path", None), str(exc)
    return matrix.shape, matrix.view(np.uint64).tolist()


def _strict_json(text):
    """json.loads that rejects NaN and Infinity literals."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


# JSON numbers as a model may hold them: ints (some beyond any float) and
# finite floats, among them -0.0, subnormals and +/-1e308
json_numbers = st.one_of(
    st.integers(-(2**1030), 2**1030),
    st.floats(allow_nan=False, allow_infinity=False),
)

TOY_JSON = json.dumps(
    {
        "name": "toy",
        "dim": 2,
        "terms": [
            {"order": 0, "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
            {"order": 1, "matrix": [[[0, 1], [0, 0]], [[0, 0], [0, -1]]]},
            {"order": 2, "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
        ],
    }
)

# one repeated key each: at the top level, in a term and in the metadata
DUPLICATE_KEYS = {
    "name": TOY_JSON.replace('{"name": "toy"', '{"name": "dup", "name": "toy"', 1),
    "order": TOY_JSON.replace('{"order": 1,', '{"order": 0, "order": 1,', 1),
    "source": TOY_JSON[:-1] + ', "metadata": {"source": "a", "source": "b"}}',
}


DEGENERATE_JSON = json.dumps(
    {
        "name": "deg",
        "dim": 2,
        "terms": [
            {"order": 0, "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
            {"order": 1, "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
        ],
    }
)

# one row per entry of the CLI's failure table: the model files a row reads
# (written under {tmp}), its argv, exit code, diagnostic `error` and `stage`
FAILURE_ROWS = {
    "schema": ({"m.json": "{}"}, ["verify", "--model", "{tmp}/m.json", "--order", "2"],
               2, "SchemaError", None),
    "non-square": ({"m.json": TOY_JSON.replace("[[0, 0], [1, 0]], ", "", 1)},
                   ["verify", "--model", "{tmp}/m.json", "--order", "2"], 2, "NonSquare", None),
    "non-finite": ({"m.json": TOY_JSON.replace("[0, 0]", "[NaN, 0]", 1)},
                   ["verify", "--model", "{tmp}/m.json", "--order", "2"],
                   2, "NonFiniteEntry", None),
    "value": ({}, ["verify", "--model", "toy-sec5", "--order", "2", "--points", "3"],
              2, "ValueError", None),
    "missing-file": ({}, ["verify", "--model", "{tmp}/none.json", "--order", "2"],
                     2, "FileNotFound", None),
    "directory": ({}, ["verify", "--model", "{tmp}", "--order", "2"],
                  2, "IsADirectoryError", None),
    "unknown-builtin": ({}, ["models", "export", "nope"], 2, "ValueError", None),
    "missing-export-name": ({}, ["models", "export"], 2, "ValueError", None),
    "degenerate": ({"m.json": DEGENERATE_JSON}, ["verify", "--model", "{tmp}/m.json", "--order", "2"],
                   3, "DegenerateSpectrum", "eigenframe"),
    "pairing": ({}, ["sweep", "--model", "toy-sec5", "--q-max", "0.1", "--points", "4",
                     "--out", "{tmp}/out"], 4, "PairingAmbiguous", "sweep"),
    "memory-grid": ({}, ["verify", "--model", "toy-sec5", "--order", "3"],
                    2, "MemoryError", None),
    "memory-sweep": ({}, ["sweep", "--model", "toy-sec5", "--q-max", "1", "--points", "4",
                          "--out", "{tmp}/out"], 2, "MemoryError", "sweep"),
}
# the pipeline function a row replaces, and what the replacement raises: a
# failure no small input reaches (an allocation failure is never provoked)
RAISED_BY = {
    "pairing": ("_continued_sweep", g.PairingAmbiguous("no unambiguous match", q=0.05)),
    "memory-grid": ("_residual_grid", MemoryError("Unable to allocate 7.45 GiB")),
    "memory-sweep": ("_continued_sweep", MemoryError("Unable to allocate 7.45 GiB")),
}
# the sample q a row's diagnostic names: H_0's, and the replacement's
DIAGNOSTIC_Q = {"degenerate": 0.0, "pairing": 0.05}


def _diagnostic(capsys) -> dict:
    """The one JSON line on stderr of a failed run with nothing on stdout."""
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    return json.loads(line)


class TestParseModel:
    def test_toy_document(self):
        doc = g.parse_model(TOY_JSON.encode())
        assert doc.name == "toy"
        assert doc.dim == 2 and doc.degree == 2
        reference = g.toy_model(1.0, 1.0, 1.0)
        for j in range(3):
            assert np.array_equal(doc.terms[j], reference.term(j))

    def test_empty_terms_rejected(self):
        raw = json.dumps({"name": "x", "dim": 2, "terms": []})
        with pytest.raises(g.SchemaError, match="order 0"):
            g.parse_model(raw)

    def test_non_square_matrix(self):
        raw = json.dumps(
            {
                "name": "x",
                "dim": 2,
                "terms": [
                    {"order": 0, "matrix": [[[0, 0], [0, 0]], [[0, 0], [0, 0]], [[0, 0], [0, 0]]]}
                ],
            }
        )
        with pytest.raises(g.NonSquare):
            g.parse_model(raw)

    @pytest.mark.parametrize(
        "matrix, message",
        [
            ([[[1, 0], [0, 0]], [[0, 0]]], "terms[0].matrix[1]: row has 1 entries, expected 2"),
            ([[[1, 0], [0, 0], [0, 0]], [[0, 0]]],
             "terms[0].matrix[0]: row has 3 entries, expected 2"),
            ([[[1, 0], [0, 0]], "row"], "terms[0].matrix[1]: row is not a list, expected 2 entries"),
            ([[[1, 0], [0, 0]]], "terms[0].matrix: matrix has 1 rows, expected 2"),
        ],
        ids=["short-second-row", "long-first-row", "not-a-row", "too-few-rows"],
    )
    def test_non_square_names_the_first_faulty_row(self, matrix, message):
        raw = json.dumps({"name": "x", "dim": 2, "terms": [{"order": 0, "matrix": matrix}]})
        with pytest.raises(g.NonSquare) as exc:
            g.parse_model(raw)
        assert str(exc.value) == message

    def test_schema_error_carries_path(self):
        raw = json.dumps(
            {
                "name": "x",
                "dim": 2,
                "terms": [{"order": 0, "matrix": [[[0, 0], [0]], [[0, 0], [0, 0]]]}],
            }
        )
        with pytest.raises(g.SchemaError) as err:
            g.parse_model(raw)
        assert err.value.path == "terms[0].matrix[0][1]"

    def test_non_finite_entry(self):
        raw = TOY_JSON.replace("[0, 0]", "[NaN, 0]", 1)
        with pytest.raises(g.NonFiniteEntry):
            g.parse_model(raw)

    @pytest.mark.parametrize("cell", ["[1{zeros}, 0]", "[0, -1{zeros}]"])
    def test_integer_too_large_for_a_float(self, cell):
        raw = TOY_JSON.replace("[0, 0]", cell.format(zeros="0" * 400), 1)
        with pytest.raises(g.NonFiniteEntry, match=r"terms\[0\]\.matrix\[0\]\[0\]"):
            g.parse_model(raw)

    def test_integer_over_the_digit_limit(self):
        raw = TOY_JSON.replace("[0, 0]", "[1" + "0" * 5000 + ", 0]", 1)
        with pytest.raises(g.SchemaError, match="invalid JSON"):
            g.parse_model(raw)

    @pytest.mark.parametrize("key", list(DUPLICATE_KEYS))
    def test_duplicate_key_rejected(self, key):
        text = DUPLICATE_KEYS[key]
        g.parse_model(json.dumps(json.loads(text)))  # valid with the last value kept
        with pytest.raises(g.SchemaError, match=f"duplicate key '{key}'"):
            g.parse_model(text)

    def test_duplicate_order(self):
        raw = json.dumps(
            {
                "name": "x",
                "dim": 1,
                "terms": [
                    {"order": 0, "matrix": [[[1, 0]]]},
                    {"order": 0, "matrix": [[[2, 0]]]},
                ],
            }
        )
        with pytest.raises(g.SchemaError, match="duplicate"):
            g.parse_model(raw)

    def test_missing_orders_zero_filled(self):
        raw = json.dumps(
            {
                "name": "x",
                "dim": 1,
                "terms": [
                    {"order": 0, "matrix": [[[1, 0]]]},
                    {"order": 2, "matrix": [[[3, 0]]]},
                ],
            }
        )
        doc = g.parse_model(raw)
        assert doc.degree == 2
        assert doc.terms[1][0, 0] == 0

    def test_round_trip_identity(self):
        doc = g.parse_model(TOY_JSON)
        again = g.parse_model(g.serialize_model(doc))
        assert doc == again

    def test_round_trip_builtins(self):
        for name in g.BUILTIN_MODELS:
            doc = g.builtin_model(name)
            assert g.parse_model(g.serialize_model(doc)) == doc

    def test_not_equal_to_another_type(self):
        doc = g.builtin_model("toy-sec5")
        assert doc.__eq__(doc.name) is NotImplemented
        assert doc != doc.name

    @PROPERTY_SETTINGS
    @given(st.integers(1, 4).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(json_numbers, min_size=2 * n * n, max_size=2 * n * n))
    ))
    @example((2, [0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 2**53 + 1, -(2**63)]))
    @example((1, [2**1024 - 2**970 - 1, 2**1024 - 2**970]))  # the last int below float overflow, then overflow
    def test_matrix_parse_matches_cell_loop(self, case):
        dim, numbers = case
        rows = [
            [numbers[2 * (i * dim + j) : 2 * (i * dim + j) + 2] for j in range(dim)]
            for i in range(dim)
        ]
        text = json.dumps(rows)
        assert _outcome(_parse_matrix, text, dim) == _outcome(reference_parse_matrix, text, dim)

    @pytest.mark.parametrize(
        "cell",
        ["true", '"1"', "null", "[1, 2, 3]", "[1]", "{}", "[true, 0]", "[0, null]",
         "[NaN, 0]", "[0, Infinity]", "[-Infinity, 0]", "[1e400, 0]",
         f"[{10**400}, 0]", f"[0, {-(10**400)}]"],
    )
    @pytest.mark.parametrize(
        "layout",
        [
            "[[{cell}, [0, 0]], [[0, 0], [0, 0]]]",
            "[[[0, 0], [0, 0]], [[0, 0], {cell}]]",
            "[[[0, 0], [NaN, 0]], [[0, 0], {cell}]]",  # a non-finite cell first
            "[[[0, 0], {cell}], [[true, 0], [0, Infinity]]]",  # a malformed cell after
        ],
    )
    def test_matrix_parse_errors_match_cell_loop(self, cell, layout):
        text = layout.format(cell=cell)
        outcome = _outcome(_parse_matrix, text)
        assert outcome == _outcome(reference_parse_matrix, text)
        assert outcome[0] in (g.SchemaError, g.NonFiniteEntry)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[[[0, 0], [0, 0]]]", ": matrix has 1 rows, expected 2"),
            ("[[[0, 0], [0, 0]], [[0, 0], [0, 0]], [[0, 0], [0, 0]]]",
             ": matrix has 3 rows, expected 2"),
            ("[[[0, 0]], [[0, 0], [0, 0]]]", "[0]: row has 1 entries, expected 2"),
            ("[[[0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]]]", "[1]: row has 3 entries, expected 2"),
            ("[[[0, 0], [0, 0]], 5]", "[1]: row is not a list, expected 2 entries"),
        ],
        ids=["few-rows", "many-rows", "short-row", "long-row", "non-list-row"],
    )
    def test_matrix_shape_errors_match_cell_loop(self, text, message):
        outcome = _outcome(_parse_matrix, text)
        assert outcome == _outcome(reference_parse_matrix, text)
        assert outcome[0] is g.NonSquare
        assert outcome[2] == "terms[0].matrix" + message

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("[" * 100_000, "maximum recursion depth"),
            ('{"a":' * 100_000, "maximum recursion depth"),
            (b"\xff" + TOY_JSON.encode(), "'utf-8' codec can't decode"),
        ],
        ids=["arrays", "objects", "not-utf8"],
    )
    def test_undecodable_text_is_a_schema_error(self, text, reason):
        with pytest.raises(g.SchemaError) as info:
            g.parse_model(text)
        assert info.value.path == "$"
        assert f"invalid JSON: {reason}" in str(info.value)

    def test_term_order_bound(self):
        def doc(order):
            return TOY_JSON.replace('{"order": 2,', f'{{"order": {order},', 1)

        assert g.parse_model(doc(MAX_TERM_ORDER)).degree == MAX_TERM_ORDER
        # the cheap case first: an order one past the bound is still cheap to build
        for order in (MAX_TERM_ORDER + 1, 10**9):
            with pytest.raises(g.SchemaError) as info:
                g.parse_model(doc(order))
            assert info.value.path == "terms[2].order"
            assert f"must be at most {MAX_TERM_ORDER}" in str(info.value)

    @pytest.mark.parametrize("name", [*g.BUILTIN_MODELS, "seeded-N1", "seeded-N6", "seeded-N16",
                                      "seeded-N64", "edge-entries"])
    def test_serialize_matches_cell_writer(self, name):
        if name in g.BUILTIN_MODELS:
            doc = g.builtin_model(name)
        elif name == "edge-entries":
            doc = g.ModelDocument(name, [[[complex(-0.0, 1e-310), complex(1e308, -0.0)],
                                          [complex(-1e308, 5e-324), 0]]])
        else:
            terms = seeded_quadratic_family(0, int(name.removeprefix("seeded-N"))).terms
            doc = g.ModelDocument(name, terms, {"source": "seeded", "n": name})
        text = g.serialize_model(doc)
        assert text == reference_serialize_model(doc)
        assert g.parse_model(text) == doc

    def test_metadata_round_trip(self):
        raw = json.dumps(
            {
                "name": "x",
                "dim": 1,
                "terms": [{"order": 0, "matrix": [[[1, 0]]]}],
                "metadata": {"note": "hello"},
            }
        )
        doc = g.parse_model(raw)
        assert doc.metadata == {"note": "hello"}
        assert g.parse_model(g.serialize_model(doc)) == doc


class TestBuiltins:
    def test_names(self):
        assert g.BUILTIN_MODELS == (
            "toy-sec5",
            "hermitian-2level",
            "random-linear-N4-seed7",
        )

    def test_random_model_well_conditioned(self):
        ham = g.builtin_model("random-linear-N4-seed7").to_hamiltonian()
        frame = g.eigenframe(ham.term(0))
        assert frame.min_gap > 0.5

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            g.builtin_model("nope")


class TestPipeline:
    def test_toy_full_pass(self, tmp_path):
        doc = g.builtin_model("toy-sec5")
        report = run_pipeline(doc, 3, ALL_CHECKS, tmp_path / "out")
        assert report.verdict == "pass"
        # the gauge the solve records, spelled as the solve spells it
        assert report.parameters["gauge"] == g.generators.GAUGE_ZERO_DIAGONAL
        # the "+" branch second-order coefficient is +1/2 at unit constants
        row = [r for r in report.series_rows if r["n"] == 1 and r["k"] == 2]
        assert row[0]["re"] == pytest.approx(0.5)
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "series.csv").exists()

    @pytest.mark.parametrize("name, order, verdict", [
        ("hermitian-2level", 25, "pass"),
        ("toy-sec5", 25, "pass"),
        # the route check reads 2.0e-11: the production drift of high-order h
        ("seeded-N64", 18, "fail"),
    ])
    def test_fast_checks_stay_small_at_high_order(self, name, order, verdict):
        # the route check's RS recursion is linear in K; the Bell route's 2^(k-1)
        # words per grade took about 2 GB at K = 25 on the 2 x 2 families, and
        # would take about 13 GB at N = 64, K = 18
        if name == "seeded-N64":
            doc = g.ModelDocument(name, list(seeded_quadratic_family(0, 64).terms))
        else:
            doc = g.builtin_model(name)
        tracemalloc.start()
        try:
            report = run_pipeline(doc, order, FAST_CHECKS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20
        assert report.verdict == verdict

    def test_degenerate_fails_at_eigenframe_without_output(self, tmp_path):
        doc = g.ModelDocument("bad", [np.eye(2), np.eye(2)])
        out = tmp_path / "nothing"
        with pytest.raises(g.PipelineError) as err:
            run_pipeline(doc, 2, FAST_CHECKS, out)
        assert err.value.stage == "eigenframe"
        assert isinstance(err.value.cause, g.DegenerateSpectrum)
        assert not out.exists()

    def test_hermitian_reduction_check(self):
        doc = g.builtin_model("hermitian-2level")
        report = run_pipeline(doc, 3, ALL_CHECKS)
        assert report.checks["hermitian_reduction"]["status"] == "pass"
        assert report.checks["linear_crosscheck"]["status"] == "pass"

    @pytest.mark.parametrize("degree", [0, 2])
    def test_hermitian_reduction_at_any_degree(self, tmp_path, capsys, degree):
        # the run's h^(0..3) against textbook RS: exactly 0 for a constant
        # family (no terms), roundoff for a quadratic one
        rng = np.random.default_rng(5)
        terms = [np.diag([0.0, 1.0, 2.5])]
        for _ in range(degree):
            b = 0.25 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
            terms.append(b + b.conj().T)
        model = tmp_path / "model.json"
        model.write_text(g.serialize_model(g.ModelDocument("herm", terms)))
        assert main(["verify", "--model", str(model), "--order", "3"]) == 0
        check = json.loads(capsys.readouterr().out)["checks"]["hermitian_reduction"]
        assert list(check) == [
            "status", "worst_imag_excess", "textbook_deviation", "textbook_threshold"
        ]
        assert check["status"] == "pass"
        if degree == 0:
            assert check["textbook_deviation"] == 0.0
        assert check["textbook_deviation"] <= check["textbook_threshold"] == 1e-10

    def test_non_hermitian_skips_reduction(self):
        doc = g.builtin_model("toy-sec5")
        report = run_pipeline(doc, 2, ALL_CHECKS)
        assert report.checks["hermitian_reduction"]["status"] == "skipped"
        assert report.checks["linear_crosscheck"]["status"] == "skipped"
        assert report.verdict == "pass"  # skipped checks do not fail the verdict

    def test_deterministic_payload(self):
        doc = g.builtin_model("random-linear-N4-seed7")
        r1 = run_pipeline(doc, 2, ALL_CHECKS)
        r2 = run_pipeline(doc, 2, ALL_CHECKS)
        d1, d2 = r1.to_dict(), r2.to_dict()
        d1.pop("metadata"), d2.pop("metadata")
        assert json.dumps(d1, default=str) == json.dumps(d2, default=str)

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            run_pipeline(g.builtin_model("toy-sec5"), 2, {"bogus"})

    def test_order_must_be_positive(self):
        with pytest.raises(ValueError):
            run_pipeline(g.builtin_model("toy-sec5"), 0, FAST_CHECKS)

    @pytest.mark.parametrize("order", [True, 2.0])
    def test_order_must_be_an_integer(self, monkeypatch, order):
        # rejected up front: a bool ran as order 1, a float failed in the solve
        def no_frame(*_args, **_kwargs):
            raise AssertionError("built a frame for a bad request")

        monkeypatch.setattr(g.pipeline, "eigenframe", no_frame)
        with pytest.raises(ValueError, match="order must be a positive integer"):
            run_pipeline(g.builtin_model("toy-sec5"), order, FAST_CHECKS)

    def test_numpy_integer_order_runs(self):
        report = run_pipeline(g.builtin_model("toy-sec5"), np.int64(3), FAST_CHECKS)
        assert report.verdict == "pass"
        assert json.loads(report_json(report))["parameters"]["order"] == 3

    def test_window_read_from_the_grid_serializes(self):
        report = run_pipeline(
            g.builtin_model("toy-sec5"), 3, {"residual_order"}, q_lo=np.float32(1e-4)
        )
        window = json.loads(report_json(report))["checks"]["residual_order"]["window"]
        assert window == [float(np.float32(1e-4)), 1e-2]

    @pytest.mark.parametrize("name", [*g.BUILTIN_MODELS, "seeded-N6"])
    def test_every_check_entry_starts_with_its_status(self, name):
        if name == "seeded-N6":
            doc = g.ModelDocument(name, list(seeded_quadratic_family(0, 6).terms))
        else:
            doc = g.builtin_model(name)
        report = run_pipeline(doc, 3, ALL_CHECKS)
        assert list(report.checks) == [
            "hierarchy", "route_equivalence", "equation_residual", "residual_order",
            "fd_concordance", "hermitian_reduction", "linear_crosscheck", "gauge_invariance",
        ]  # report order
        for check in report.checks.values():
            assert next(iter(check)) == "status"
            assert check["status"] in ("pass", "fail", "skipped")
            if check["status"] == "skipped":
                assert list(check) == ["status", "reason"]

    def test_gap_tol_env_applies(self, monkeypatch, tmp_path):
        doc = g.ModelDocument(
            "tight", [np.diag([1.0, 1.0 + 1e-5]), np.zeros((2, 2))]
        )
        monkeypatch.setenv("GEOMPERT_GAP_TOL", "1e-3")
        with pytest.raises(g.PipelineError):
            run_pipeline(doc, 2, FAST_CHECKS)
        monkeypatch.setenv("GEOMPERT_GAP_TOL", "1e-7")
        report = run_pipeline(doc, 2, FAST_CHECKS)
        assert report.verdict == "pass"
        # a value that would switch the degeneracy guard off is bad input:
        # even a spectrum degenerate to roundoff must not get through
        degenerate = g.ModelDocument(
            "flat", [np.diag([1.0, 1.0 + 1e-15]), np.zeros((2, 2))]
        )
        model = tmp_path / "flat.json"
        model.write_text(g.serialize_model(degenerate))
        for bad in ("nan", "-1", "0", "inf"):
            monkeypatch.setenv("GEOMPERT_GAP_TOL", bad)
            with pytest.raises(ValueError):
                run_pipeline(degenerate, 2, FAST_CHECKS)
            out = tmp_path / f"out-{bad}"
            argv = ["expand", "--model", str(model), "--order", "2", "--out", str(out)]
            assert main(argv) == 2
            assert not out.exists()

    @pytest.mark.parametrize("call", list(OWN_FRAME_CALLS))
    def test_gap_tol_env_reaches_every_function_with_its_own_frame(self, monkeypatch, call):
        # GEOMPERT_GAP_TOL is the one way the threshold reaches a function that
        # builds its own frame: the gap 0.05 is below 0.1 max(1, 0.05)
        series = g.build_series(g.solve_model(NEAR_LEVELS, 3), 0, 3)
        monkeypatch.setenv("GEOMPERT_GAP_TOL", "0.1")
        with pytest.raises((g.DegenerateSpectrum, g.PipelineError)) as err:
            OWN_FRAME_CALLS[call](series)
        if call == "run_pipeline":
            assert err.value.stage == "eigenframe"
            assert isinstance(err.value.cause, g.DegenerateSpectrum)
        else:
            assert isinstance(err.value, g.DegenerateSpectrum)
        monkeypatch.delenv("GEOMPERT_GAP_TOL")
        OWN_FRAME_CALLS[call](series)

    def test_stage_timings_in_metadata(self, tmp_path):
        report = run_pipeline(
            g.builtin_model("toy-sec5"), 2, ALL_CHECKS, sweep=(0.1, 4)
        )
        timings = report.metadata["timings"]
        expected = ["validate", "eigenframe", "generators", "corrections"]
        expected += [f"check:{name}" for name in (
            "hierarchy", "route_equivalence", "equation_residual", "residual_order",
            "fd_concordance", "hermitian_reduction", "linear_crosscheck", "gauge_invariance",
        )]
        assert list(timings) == expected + ["sweep"]
        assert all(isinstance(ms, float) and ms >= 0 for ms in timings.values())
        written = run_pipeline(g.builtin_model("toy-sec5"), 2, FAST_CHECKS, tmp_path)
        assert "timings" in json.loads((tmp_path / "report.json").read_text())["metadata"]
        assert written.metadata["timings"]["write"] >= 0

    def test_seventeen_digit_serialization(self):
        doc = g.builtin_model("toy-sec5")
        report = run_pipeline(doc, 2, FAST_CHECKS)
        text = report_json(report)
        parsed = json.loads(text)
        # values survive the round trip bit-exactly
        assert parsed["frame"]["min_gap"] == report.frame_summary["min_gap"]
        third = 1 / 3
        assert float(format(third, ".17g")) == third

    @pytest.mark.parametrize("name", [*g.BUILTIN_MODELS, "seeded-N6"])
    def test_report_json_matches_reference_writer(self, name):
        if name == "seeded-N6":
            doc = g.ModelDocument(name, list(seeded_quadratic_family(0, 6).terms))
        else:
            doc = g.builtin_model(name)
        for checks, sweep in ((FAST_CHECKS, None), (ALL_CHECKS, None), (FAST_CHECKS, (0.1, 20))):
            report = run_pipeline(doc, 3, checks, sweep=sweep)
            text = report_json(report)
            assert text == reference_json_text(report.to_dict()) + "\n"
            _strict_json(text)

    @PROPERTY_SETTINGS
    @given(
        st.recursive(
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(),
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
                st.text(),
            ),
            lambda inner: st.one_of(
                st.lists(inner, max_size=4),
                st.lists(inner, max_size=3).map(tuple),
                st.dictionaries(st.text(max_size=6), inner, max_size=4),
            ),
            max_leaves=30,
        )
    )
    @example({"": [], "\u00e9\u4e2d\U0001f600": {}, "k": ("\x00\"\\", np.float64(-0.0), True, None)})
    # leaves of every type by exact type and through the chain, empty and nested containers
    @example([True, False, None, 0, -7, 2**70, 0.0, -0.0, 5e-324, 1e308, "", "a\u00e9"])
    @example((np.float64(1.5), [np.float64(-0.0), 2.5], {"x": np.float64(3.0), "y": 3.0}))
    @example({"a": [], "b": {}, "c": (), "d": [[[]], [{}], ({"k": (1, "s", False)},)]})
    def test_json_text_matches_reference_writer(self, obj):
        text = _json_text(obj)
        assert text == reference_json_text(obj)
        assert text.isascii()
        _strict_json(text)

    @pytest.mark.parametrize(
        "obj", [float("inf"), -np.inf, float("nan"), np.float64("nan"), {"a": [1.0, np.inf]},
                [1.0, float("nan")], {"a": 1.0, "b": float("nan")}, (np.float64(-np.inf),)]
    )
    def test_json_text_rejects_non_finite_floats(self, obj):
        with pytest.raises(ValueError, match="non-finite"):
            _json_text(obj)

    @pytest.mark.parametrize("obj", [np.int64(1), np.bool_(True), 1j, {1, 2}, object(), [b"x"],
                                     [1, np.int64(1)], {"n": np.int64(1)}, (np.bool_(False),)])
    def test_json_text_rejects_what_the_reference_rejects(self, obj):
        with pytest.raises(TypeError):
            reference_json_text(obj)
        with pytest.raises(TypeError, match="cannot serialize"):
            _json_text(obj)

    @staticmethod
    def _row_by_row_csv(report) -> str:
        """sweep.csv one formatted field at a time, as rows of dicts."""
        qs, values, residuals = report.sweep
        rows = [
            {"q": float(q), "n": n, "re": float(v.real), "im": float(v.imag), "residual": float(r)}
            for q, exact, res in zip(qs, values, residuals)
            for n, (v, r) in enumerate(zip(exact, res))
        ]
        lines = ["q,n,re,im,residual"]
        for row in rows:
            lines.append(
                f"{format(row['q'], '.17g')},{row['n']},{format(row['re'], '.17g')},"
                f"{format(row['im'], '.17g')},{format(row['residual'], '.17g')}"
            )
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("name", ["toy-sec5", "seeded-N6"])
    def test_sweep_csv_matches_row_formatter(self, name):
        if name == "seeded-N6":
            doc = g.ModelDocument(name, list(seeded_quadratic_family(0, 6).terms))
        else:
            doc = g.builtin_model(name)
        report = run_pipeline(doc, 3, FAST_CHECKS, sweep=(0.1, 20))
        assert sweep_csv(report) == self._row_by_row_csv(report)
        # every kind of float the template may meet
        odd = np.array([0.0, -0.0, 5e-324, -1e-300, 1 / 3, 123456789.12345679, 1e308, np.inf, np.nan])
        values = np.empty((odd.size, 1), dtype=complex)
        values.real, values.imag = odd[:, None], odd[::-1, None]
        report = dataclasses.replace(report, sweep=(odd, values, np.abs(odd)[:, None]))
        assert sweep_csv(report) == self._row_by_row_csv(report)

    @pytest.mark.parametrize("window", [True, False])
    def test_point_bound_is_inclusive(self, monkeypatch, window):
        # MAX_POINTS samples pass validation and reach the frame; one more does not
        class Reached(Exception):
            pass

        def frame(*_args, **_kwargs):
            raise Reached

        monkeypatch.setattr(g.pipeline, "eigenframe", frame)
        doc = g.builtin_model("toy-sec5")

        def run(points):
            if window:
                return run_pipeline(doc, 3, ALL_CHECKS, points=points)
            return run_pipeline(doc, 3, FAST_CHECKS, sweep=(0.1, points))

        with pytest.raises(Reached):
            run(MAX_POINTS)
        with pytest.raises(ValueError, match=f"points must be at most {MAX_POINTS}, got"):
            run(MAX_POINTS + 1)

    @pytest.mark.parametrize("sweep", [None, (0.1, 20)])
    def test_written_files_are_the_formatted_text(self, tmp_path, sweep):
        # byte for byte, created under the umask as a text-mode open creates them
        report = run_pipeline(g.builtin_model("toy-sec5"), 3, FAST_CHECKS, sweep=sweep)
        out = tmp_path / "a" / "b"
        _write_outputs(report, out)
        expected = {"report.json": report_json(report), "series.csv": series_csv(report)}
        if sweep is not None:
            expected["sweep.csv"] = sweep_csv(report)
        assert sorted(os.listdir(out)) == sorted(expected)
        umask = os.umask(0)
        os.umask(umask)
        for name, text in expected.items():
            assert (out / name).read_bytes() == text.encode("utf-8")
            assert (out / name).stat().st_mode & 0o777 == 0o666 & ~umask

    def test_sweep_csv_needs_a_sweep(self):
        report = run_pipeline(g.builtin_model("toy-sec5"), 1, FAST_CHECKS)
        with pytest.raises(ValueError, match="no sweep data"):
            sweep_csv(report)


class TestCli:
    def test_models_list(self, capsys):
        assert main(["models", "list"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == list(g.BUILTIN_MODELS)

    def test_models_export_parses_back(self, capsys):
        assert main(["models", "export", "toy-sec5"]) == 0
        doc = g.parse_model(capsys.readouterr().out)
        assert doc == g.builtin_model("toy-sec5")

    def test_models_export_unknown(self, capsys):
        assert main(["models", "export", "nope"]) == 2
        # the message of the lookup's KeyError, without the quotes str() adds
        assert _diagnostic(capsys)["message"].startswith("unknown built-in model 'nope';")

    @pytest.mark.parametrize("row", list(FAILURE_ROWS))
    def test_failure_contract(self, tmp_path, capsys, monkeypatch, row):
        files, argv, code, error, stage = FAILURE_ROWS[row]
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        if row in RAISED_BY:
            name, exc = RAISED_BY[row]

            def raise_it(*_args, **_kwargs):
                raise exc

            monkeypatch.setattr(g.pipeline, name, raise_it)
        assert main([a.format(tmp=tmp_path) for a in argv]) == code
        err = _diagnostic(capsys)
        assert err["error"] == error
        assert isinstance(err["message"], str)
        assert err.get("stage") == stage
        assert err.get("q") == DIAGNOSTIC_Q.get(row)
        assert set(err) == ({"error", "message"} | ({"stage"} if stage else set())
                            | ({"q"} if row in DIAGNOSTIC_Q else set()))

    def test_sweep_across_a_branch_point_names_its_q(self, tmp_path, capsys):
        # one dimer, whose two eigenvalues meet at the real q = 104/61
        family = manufactured_family(0, 2, 1, False)
        branch = max(family.branch_points[0])
        model = tmp_path / "dimer.json"
        model.write_text(g.serialize_model(g.ModelDocument("dimer", list(family.hamiltonian.terms))))
        argv = ["sweep", "--model", str(model), "--order", "3", "--out", str(tmp_path / "out")]
        assert main([*argv, "--q-max", "1.6", "--points", "301"]) == 0
        capsys.readouterr()
        assert main([*argv, "--q-max", "2.5", "--points", "301"]) == 4
        err = _diagnostic(capsys)
        assert (err["error"], err["stage"]) == ("PairingAmbiguous", "sweep")
        qs = np.linspace(0.0, 2.5, 301)  # the sweep's grid
        assert err["q"] == qs[qs >= branch][0]  # the first sample at or past the branch point
        assert f"at q = {err['q']:.6g} " in err["message"]

    @pytest.mark.parametrize(
        "argv, env, message, stage",
        [
            (["sweep", "--model", "toy-sec5", "--q-max", "1e200", "--points", "4"], None,
             "not finite at q", "sweep"),
            (["expand", "--model", "toy-sec5", "--order", "2"], "nan", "GEOMPERT_GAP_TOL",
             "eigenframe"),
        ],
    )
    def test_in_stage_failure_names_its_stage(self, tmp_path, capsys, monkeypatch,
                                              argv, env, message, stage):
        if env is not None:
            monkeypatch.setenv("GEOMPERT_GAP_TOL", env)
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 2
        assert not out.exists()
        err = _diagnostic(capsys)
        assert err["error"] == "ValueError"
        assert message in err["message"]
        assert err["stage"] == stage

    def test_key_error_inside_the_pipeline_propagates(self, monkeypatch, capsys):
        # only the built-in name lookup's KeyError is classified
        def broken(*_args, **_kwargs):
            raise KeyError("inside")

        monkeypatch.setattr(g.pipeline, "eigenframe", broken)
        with pytest.raises(KeyError, match="inside"):
            main(["verify", "--model", "toy-sec5", "--order", "2"])
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "content", [b"[" * 100_000, b"\xff" + TOY_JSON.encode()], ids=["nested", "not-utf8"]
    )
    def test_undecodable_model_exit_code(self, tmp_path, capsys, content):
        model = tmp_path / "m.json"
        model.write_bytes(content)
        assert main(["verify", "--model", str(model), "--order", "1"]) == 2
        err = _diagnostic(capsys)
        assert err["error"] == "SchemaError"
        assert err["message"].startswith("$: invalid JSON: ")

    def test_short_row_exit_code(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        model.write_text(json.dumps(
            {"name": "x", "dim": 2, "terms": [{"order": 0, "matrix": [[[1, 0], [0, 0]], [[0, 0]]]}]}
        ))
        assert main(["verify", "--model", str(model), "--order", "1"]) == 2
        err = _diagnostic(capsys)
        assert err["error"] == "NonSquare"
        assert err["message"] == "terms[0].matrix[1]: row has 1 entries, expected 2"

    def test_term_order_bound_exit_code(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        out = tmp_path / "out"
        # the cheap case first, as in test_term_order_bound
        for order in (MAX_TERM_ORDER + 1, 10**9):
            model.write_text(TOY_JSON.replace('{"order": 2,', f'{{"order": {order},', 1))
            assert main(["expand", "--model", str(model), "--order", "2", "--out", str(out)]) == 2
            assert not out.exists()
            err = _diagnostic(capsys)
            assert err["error"] == "SchemaError"
            assert err["message"] == f"terms[2].order: must be at most {MAX_TERM_ORDER}"

    def test_expand(self, tmp_path, capsys):
        model = tmp_path / "toy.json"
        model.write_text(TOY_JSON)
        out = tmp_path / "out"
        assert main(["expand", "--model", str(model), "--order", "3", "--out", str(out)]) == 0
        series = (out / "series.csv").read_text().splitlines()
        assert series[0] == "n,k,re,im"
        assert len(series) == 1 + 2 * 4  # two states, orders 0..3

    def test_expand_missing_file(self, tmp_path, capsys):
        assert main(["expand", "--model", str(tmp_path / "no.json"), "--order", "2", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("key", list(DUPLICATE_KEYS))
    def test_duplicate_key_exit_code(self, tmp_path, capsys, key):
        model = tmp_path / "model.json"
        model.write_text(DUPLICATE_KEYS[key])
        assert main(["verify", "--model", str(model), "--order", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        err = json.loads(line)
        assert err["error"] == "SchemaError"
        assert f"duplicate key '{key}'" in err["message"]

    @pytest.mark.parametrize("command", ["expand", "verify", "sweep"])
    def test_model_directory_exit_code(self, tmp_path, capsys, command):
        argv = {
            "expand": ["expand", "--order", "2", "--out", str(tmp_path / "out")],
            "verify": ["verify", "--order", "2"],
            "sweep": ["sweep", "--q-max", "0.1", "--points", "4", "--out", str(tmp_path / "out")],
        }[command]
        assert main([*argv, "--model", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert json.loads(line)["error"] == "IsADirectoryError"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["expand", "sweep"])
    def test_out_file_rejected_before_the_frame(self, tmp_path, capsys, monkeypatch, command):
        def no_frame(*_args, **_kwargs):
            raise AssertionError("built a frame for a bad request")

        monkeypatch.setattr(g.pipeline, "eigenframe", no_frame)
        out = tmp_path / "report"
        out.write_text("kept")
        argv = {
            "expand": ["expand", "--order", "2"],
            "sweep": ["sweep", "--q-max", "0.1", "--points", "4"],
        }[command]
        assert main([*argv, "--model", "toy-sec5", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        err = json.loads(line)
        assert err["error"] == "NotADirectoryError"
        assert str(out) in err["message"]
        assert out.read_text() == "kept"

    def test_out_write_error_exit_code(self, tmp_path, capsys):
        # the output's parent is a file
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        assert main(["expand", "--model", "toy-sec5", "--order", "2", "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "NotADirectoryError"

    @pytest.mark.parametrize("nested", ["out", "a/b/c"])
    def test_out_under_a_file_rejected_before_the_frame(
        self, tmp_path, capsys, monkeypatch, nested
    ):
        def no_frame(*_args, **_kwargs):
            raise AssertionError("built a frame for a bad request")

        monkeypatch.setattr(g.pipeline, "eigenframe", no_frame)
        (tmp_path / "file").write_text("kept")
        out = tmp_path / "file" / nested
        for argv in (["expand", "--order", "2"], ["sweep", "--q-max", "0.1", "--points", "4"]):
            assert main([*argv, "--model", "toy-sec5", "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            (line,) = captured.err.splitlines()
            err = json.loads(line)
            assert err["error"] == "NotADirectoryError"
            assert str(out) in err["message"] and str(tmp_path / "file") in err["message"]
        assert (tmp_path / "file").read_text() == "kept"

    def test_verify_builtin(self, capsys):
        assert main(["verify", "--model", "toy-sec5", "--order", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "pass"
        enabled = {k for k, v in report["checks"].items() if v["status"] != "skipped"}
        assert "residual_order" in enabled and "fd_concordance" in enabled

    def test_verify_window_flags(self, capsys):
        code = main(
            ["verify", "--model", "hermitian-2level", "--order", "2",
             "--q-lo", "1e-3", "--q-hi", "1e-2", "--points", "15"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["parameters"]["q_lo"] == 1e-3
        assert report["parameters"]["points"] == 15
        assert report["checks"]["residual_order"]["window"] == [1e-3, 1e-2]

    def test_verify_degenerate_exit_code(self, tmp_path, capsys):
        model = tmp_path / "deg.json"
        model.write_text(DEGENERATE_JSON)
        assert main(["verify", "--model", str(model), "--order", "2"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DegenerateSpectrum"
        assert err["stage"] == "eigenframe"

    def test_schema_error_exit_code(self, tmp_path, capsys):
        model = tmp_path / "bad.json"
        model.write_text("{}")
        assert main(["expand", "--model", str(model), "--order", "2", "--out", str(tmp_path / "o")]) == 2

    def test_oversized_integer_exit_code(self, tmp_path, capsys):
        model = tmp_path / "huge.json"
        model.write_text(TOY_JSON.replace("[0, 0]", "[1" + "0" * 400 + ", 0]", 1))
        out = tmp_path / "o"
        assert main(["expand", "--model", str(model), "--order", "2", "--out", str(out)]) == 2
        assert not out.exists()
        assert json.loads(capsys.readouterr().err)["error"] == "NonFiniteEntry"

    def test_parser_built_once(self, capsys):
        from geompert.cli import _build_parser

        parser = _build_parser()
        assert main(["models", "list"]) == 0
        assert main(["verify", "--model", "toy-sec5", "--order", "2", "--points", "20"]) == 0
        assert _build_parser() is parser
        # the cached parser keeps no state between calls: defaults come back
        args = parser.parse_args(["verify", "--model", "m", "--order", "2"])
        assert (args.q_lo, args.q_hi, args.points) == (1e-4, 1e-2, 25)

    def test_sweep_outputs(self, tmp_path):
        out = tmp_path / "sweep"
        assert main(
            ["sweep", "--model", "toy-sec5", "--q-max", "0.1", "--points", "6", "--out", str(out)]
        ) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "q,n,re,im,residual"
        assert len(lines) == 1 + 6 * 2
        assert (out / "report.json").exists()

    def test_non_finite_grid_exit_code(self, tmp_path, capsys):
        out = tmp_path / "nan"
        argv = ["sweep", "--model", "toy-sec5", "--q-max", "nan", "--points", "4"]
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()
        assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
        for flag in ("--q-lo", "--q-hi"):
            argv = ["verify", "--model", "toy-sec5", "--order", "2", flag, "nan"]
            assert main(argv) == 2

    @pytest.mark.parametrize(
        "window", [["--q-lo", "0"], ["--q-lo", "-1"], ["--q-lo", "1e-2", "--q-hi", "1e-4"]]
    )
    def test_verify_bad_window_exit_code(self, capsys, window):
        # rejected before the grid is built: no numpy warning, one diagnostic line
        assert main(["verify", "--model", "toy-sec5", "--order", "2", *window]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        err = json.loads(line)
        assert err["error"] == "ValueError"
        assert "0 < q_lo < q_hi" in err["message"]
        assert f"q_lo = {float(window[1])!r}" in err["message"]

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["verify", "--order", "2", "--points", "-3"], "points"),
            (["verify", "--order", "2", "--points", "0"], "points"),
            (["sweep", "--q-max", "0.1", "--points", "0"], "points"),
            # at most MAX_POINTS samples, before the window's grid or the sweep is allocated
            (["verify", "--order", "2", "--points", "10001"], "points must be at most 10000"),
            (["verify", "--order", "2", "--points", "1000000000"], "points must be at most 10000"),
            (["sweep", "--q-max", "0.1", "--points", "10001"],
             "sweep points must be at most 10000"),
            (["sweep", "--q-max", "1", "--points", "1000000000"],
             "sweep points must be at most 10000"),
            (["sweep", "--q-max", "inf", "--points", "4"], "q_max"),
            (["sweep", "--q-max", "0", "--points", "4"], "q_max"),
            (["sweep", "--q-max", "-0.2", "--points", "4"], "q_max"),
            # an order above the Bell route's cap, before its tables or the series
            (["expand", "--order", "30"], "order 30 exceeds 25"),
            (["expand", "--order", "26"], "order 26 exceeds 25"),
            (["verify", "--order", "26"], "order 26 exceeds 25"),
            (["sweep", "--q-max", "0.1", "--points", "4", "--order", "26"], "order 26 exceeds 25"),
        ],
    )
    def test_bad_point_count_or_q_max_exit_code(self, tmp_path, capsys, monkeypatch, argv, flag):
        # rejected before the frame is built: no numpy warning, one diagnostic line
        def no_frame(*_args, **_kwargs):
            raise AssertionError("built a frame for a bad request")

        monkeypatch.setattr(g.pipeline, "eigenframe", no_frame)
        out = tmp_path / "out"
        extra = ["--out", str(out)] if argv[0] != "verify" else []
        assert main([*argv, "--model", "toy-sec5", *extra]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        err = json.loads(line)
        assert err["error"] == "ValueError"
        assert flag in err["message"]
        assert "stage" not in err

    def test_overflowing_sweep_exit_code(self, tmp_path, capsys):
        # q^2 overflows a float from the second sample on: one diagnostic line
        # and exit 2, not an OverflowError traceback
        out = tmp_path / "out"
        argv = ["sweep", "--model", "toy-sec5", "--q-max", "1e200", "--points", "4"]
        assert main([*argv, "--out", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        err = json.loads(line)
        assert err["error"] == "ValueError"
        assert "not finite at q = 3.33333e+199" in err["message"]

    def test_overflowing_window_exit_code(self, tmp_path, capsys, monkeypatch):
        # q_hi^3 overflows a float: rejected before the frame is built, with
        # one diagnostic line and exit 2, not an OverflowError traceback
        def no_frame(*_args, **_kwargs):
            raise AssertionError("built a frame for a bad request")

        monkeypatch.setattr(g.pipeline, "eigenframe", no_frame)
        model = tmp_path / "one.json"
        model.write_text(g.serialize_model(g.ModelDocument("one", [[[1.0]], [[2.0]]])))
        argv = ["verify", "--model", str(model), "--order", "3", "--q-lo", "1e103"]
        assert main([*argv, "--q-hi", "1e104"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        err = json.loads(line)
        assert err["error"] == "ValueError"
        assert "q_hi = 1e+104" in err["message"] and "order 3" in err["message"]

    @pytest.mark.parametrize(
        "window", [["--points", "10"], ["--points", "20", "--q-lo", "1e-5", "--q-hi", "0.1"]]
    )
    def test_point_density_checked_before_the_frame(self, capsys, monkeypatch, window):
        def no_frame(*_args, **_kwargs):
            raise AssertionError("built a frame for a bad request")

        monkeypatch.setattr(g.pipeline, "eigenframe", no_frame)
        assert main(["verify", "--model", "toy-sec5", "--order", "2", *window]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        err = json.loads(line)
        assert err["error"] == "ValueError"
        assert f"points = {window[1]}" in err["message"]
        assert "q_lo = " in err["message"] and "q_hi = " in err["message"]

    def test_lower_order_rows_do_not_depend_on_the_order(self, tmp_path):
        rows = {}
        for order in (3, 5):
            out = tmp_path / str(order)
            argv = ["expand", "--model", "random-linear-N4-seed7", "--order", str(order)]
            assert main([*argv, "--out", str(out)]) == 0
            lines = (out / "series.csv").read_text().splitlines()[1:]
            rows[order] = [line for line in lines if int(line.split(",")[1]) <= 3]
        assert len(rows[3]) == 4 * 4
        assert rows[3] == rows[5]

    @pytest.mark.parametrize("command", ["expand", "verify", "sweep"])
    def test_one_state_model_writes_strict_json(self, tmp_path, capsys, command):
        model = tmp_path / "one.json"
        model.write_text(json.dumps({
            "name": "one",
            "dim": 1,
            "terms": [{"order": 0, "matrix": [[[1.5, 0.25]]]}, {"order": 1, "matrix": [[[0.5, -1]]]}],
        }))
        out = tmp_path / "out"
        argv = {
            "expand": ["expand", "--order", "3", "--out", str(out)],
            "verify": ["verify", "--order", "3"],
            "sweep": ["sweep", "--q-max", "0.1", "--points", "5", "--out", str(out)],
        }[command]
        assert main([*argv, "--model", str(model)]) == 0
        captured = capsys.readouterr()
        text = captured.out if command == "verify" else (out / "report.json").read_text()
        report = _strict_json(text)
        assert report["frame"]["min_gap"] is None
        conditioning = report["metadata"]["frame"]
        assert list(conditioning) == ["relative_gap", "gap_tol", "kappa", "eigenvalue_condition"]
        assert conditioning["relative_gap"] is None  # no pair of eigenvalues, no gap
        assert conditioning["kappa"] == 1 and conditioning["eigenvalue_condition"] == [1]
        assert report["verdict"] == "pass"

    def test_residual_grid_keeps_both_window_ends(self, capsys):
        # logspace puts its first sample one ulp below q_lo = 1e-5, which
        # dropped it from the window and failed the per-decade density late
        argv = ["verify", "--model", "toy-sec5", "--order", "3"]
        assert main([*argv, "--q-lo", "1e-5", "--q-hi", "1e-2", "--points", "24"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["verdict"] == "pass"

    def test_one_pipeline_call_per_command(self, monkeypatch, tmp_path, capsys):
        calls = []

        def record(*args, **kwargs):
            calls.append((args, kwargs))
            return run_pipeline(*args, **kwargs)

        monkeypatch.setattr(g.cli, "run_pipeline", record)
        out = str(tmp_path / "out")
        assert main(["expand", "--model", "toy-sec5", "--order", "2", "--out", out]) == 0
        assert main(["sweep", "--model", "toy-sec5", "--q-max", "0.1", "--points", "7",
                     "--out", out]) == 0
        assert main(["verify", "--model", "toy-sec5", "--order", "2", "--q-lo", "1e-3",
                     "--q-hi", "1e-2", "--points", "9"]) == 0
        (_, _, e_checks, e_out), e_kwargs = calls[0]
        assert e_checks == FAST_CHECKS and e_out == out
        assert e_kwargs == {"sweep": None}  # the one gauge is not an argument
        (_, s_order, s_checks, s_out), s_kwargs = calls[1]
        assert s_order == 3 and s_checks == FAST_CHECKS and s_out == out
        assert s_kwargs["sweep"] == (0.1, 7)
        assert s_kwargs.get("points", 25) == 25  # the sweep's points are not the window's
        (_, _, v_checks, v_out), v_kwargs = calls[2]
        assert v_checks == ALL_CHECKS and v_out is None
        assert v_kwargs["sweep"] is None
        assert (v_kwargs["q_lo"], v_kwargs["q_hi"], v_kwargs["points"]) == (1e-3, 1e-2, 9)
        report = json.loads(capsys.readouterr().out)
        assert report["checks"]["residual_order"]["window"] == [1e-3, 1e-2]

    @pytest.mark.parametrize("gauge", ["zero-diag", "other"])
    def test_gauge_flag_is_a_usage_error(self, tmp_path, capsys, gauge):
        # the report's "gauge" is the solve's canonical one, and no option sets it
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["expand", "--model", "toy-sec5", "--order", "2", "--gauge", gauge,
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --gauge" in capsys.readouterr().err
        assert not out.exists()

    def test_constant_eigenvalue_sweep_is_quiet(self, tmp_path, capsys):
        # a constant eigenvalue 1e9 away from the next: its best match is exactly
        # 0, so its runner-up ratio is inf, without the overflow warning that the
        # suite would turn into an error
        model = tmp_path / "constant.json"
        terms = [np.diag([0.0, 1e9]), np.diag([0.0, 1.0])]
        model.write_text(g.serialize_model(g.ModelDocument("constant", terms)))
        argv = ["sweep", "--model", str(model), "--q-max", "0.2", "--points", "5", "--order", "1"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    def test_module_entry_point(self):
        # the child process imports the same geompert as the test run
        src = str(Path(g.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "geompert", "models", "list"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == list(g.BUILTIN_MODELS)
