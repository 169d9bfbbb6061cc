import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import geompert as g
from geompert.cli import main
from geompert.pipeline import ALL_CHECKS, FAST_CHECKS, report_json, run_pipeline, sweep_csv
from oracles import seeded_quadratic_family

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
        # the "+" branch second-order coefficient is +1/2 at unit constants
        row = [r for r in report.series_rows if r["n"] == 1 and r["k"] == 2]
        assert row[0]["re"] == pytest.approx(0.5)
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "series.csv").exists()

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

    def test_gap_tol_argument_reaches_every_check(self, monkeypatch):
        # the argument overrides a bad environment value in every stage,
        # not only in the eigenframe and the sweep
        monkeypatch.setenv("GEOMPERT_GAP_TOL", "nan")
        for name in ("toy-sec5", "hermitian-2level"):
            report = run_pipeline(
                g.builtin_model(name), 3, ALL_CHECKS, sweep=(0.1, 5), gap_tol=1e-8
            )
            assert report.verdict == "pass"
        with pytest.raises(ValueError):
            run_pipeline(g.builtin_model("toy-sec5"), 3, {"hierarchy"})

    def test_stage_timings_in_metadata(self, tmp_path):
        report = run_pipeline(
            g.builtin_model("toy-sec5"), 2, ALL_CHECKS, sweep=(0.1, 4)
        )
        timings = report.metadata["timings"]
        expected = ["validate", "eigenframe", "generators", "corrections"]
        expected += [f"check:{name}" for name in (
            "hierarchy", "route_equivalence", "residual_order", "fd_concordance",
            "hermitian_reduction", "linear_crosscheck", "gauge_invariance",
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
        raw = json.dumps(
            {
                "name": "deg",
                "dim": 2,
                "terms": [
                    {"order": 0, "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
                    {"order": 1, "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
                ],
            }
        )
        model = tmp_path / "deg.json"
        model.write_text(raw)
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
            (["sweep", "--q-max", "inf", "--points", "4"], "q_max"),
            (["sweep", "--q-max", "0", "--points", "4"], "q_max"),
            (["sweep", "--q-max", "-0.2", "--points", "4"], "q_max"),
        ],
    )
    def test_bad_point_count_or_q_max_exit_code(self, tmp_path, capsys, monkeypatch, argv, flag):
        # rejected before the frame is built: no numpy warning, one diagnostic line
        def no_frame(*_args, **_kwargs):
            raise AssertionError("built a frame for a bad request")

        monkeypatch.setattr(g.pipeline, "eigenframe", no_frame)
        out = tmp_path / "out"
        extra = ["--out", str(out)] if argv[0] == "sweep" else []
        assert main([*argv, "--model", "toy-sec5", *extra]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        err = json.loads(line)
        assert err["error"] == "ValueError"
        assert flag in err["message"]

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

    def test_gauge_flag_restricted(self, tmp_path, capsys):
        model = tmp_path / "toy.json"
        model.write_text(TOY_JSON)
        with pytest.raises(SystemExit):
            main(["expand", "--model", str(model), "--order", "2", "--gauge", "other", "--out", str(tmp_path / "o")])

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
