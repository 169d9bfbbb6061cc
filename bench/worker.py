"""Runs one workload in a fresh process and prints its raw results as JSON.

Usage: PYTHONPATH=src python3 bench/worker.py SPEC.json

The parent (`run.py`) has made the inputs and references, and has pinned
BLAS to one thread in this process's environment before numpy loads.  The
worker runs warm-up ops, then a timed phase of closed-loop ops; every op's
outputs are checked against the references between ops, off the clock.  With tracing on, a second timed
phase runs with spans recorded, and the spans are written to a file.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import geompert
import geompert.cli
from calibration import at_reference_speed, kernel_ms
from tracer import Tracer, layer_metrics
from workloads import (
    WORKLOADS,
    CheckFailed,
    check_series,
    check_sweep,
    cli_argv,
    read_series_csv,
    read_sweep_csv,
    run_api,
    run_cli,
    series_from_rows,
)

WARMUP_OPS = 2
MIN_OPS = 5


class Runner:
    def __init__(self, spec: dict):
        self.workload = WORKLOADS[spec["workload"]]
        self.out = Path(spec["out"])
        ref = np.load(spec["reference"])
        self.reference, self.tolerance = ref["series"], ref["tolerance"]
        self.sweep = ref["sweep"] if "sweep" in ref else None
        if self.workload.argv is None:
            doc = geompert.parse_model(Path(spec["model"]).read_bytes())
            self.hamiltonian = doc.to_hamiltonian()
        else:
            self.argv = cli_argv(self.workload, spec["model"], self.out)
        self.attempted = 0
        self.failed = 0
        self.verdict_failed = 0
        self.errors: list[str] = []
        self.bytes_out: list[int] = []

    def op(self):
        if self.workload.argv is None:
            return run_api(geompert, self.hamiltonian, self.workload.order)
        return run_cli(geompert.cli, self.argv)

    def check(self, result) -> None:
        """Raise CheckFailed unless the op's outputs match the references."""
        w = self.workload
        if w.argv is None:
            values = np.asarray(result)
            if values.shape != (w.dim, w.order + 1) or not np.all(np.isfinite(values)):
                raise CheckFailed(f"series has shape {values.shape} or is not finite")
            check_series(values, self.reference, self.tolerance)
            self.bytes_out.append(0)
            return
        code, stdout = result
        if code not in (0, 1):
            raise CheckFailed(f"exit code {code}")
        if w.argv[0] == "verify":
            try:
                report = json.loads(stdout)
            except json.JSONDecodeError as exc:
                raise CheckFailed(f"verify printed no JSON report: {exc}") from None
            rows = [(r["n"], r["k"], r["re"], r["im"]) for r in report["series"]]
            values = series_from_rows(rows, w.dim, w.order)
            written = len(stdout.encode())
        else:
            report = json.loads((self.out / "report.json").read_text())
            values = read_series_csv(self.out / "series.csv", w.dim, w.order)
            if self.sweep is not None:
                check_sweep(*read_sweep_csv(self.out / "sweep.csv", w.dim), self.sweep)
            written = sum(p.stat().st_size for p in self.out.iterdir())
        if (report["verdict"] == "fail") != (code == 1):
            raise CheckFailed(f"verdict {report['verdict']!r} with exit code {code}")
        check_series(values, self.reference, self.tolerance)
        self.verdict_failed += code == 1
        self.bytes_out.append(written)

    def run_one(self) -> tuple[float, float]:
        """One op, timed, then the calibration kernel, then the output check.

        Returns the op's latency and the kernel's time, both in ms.
        """
        for path in self.out.iterdir():
            path.unlink()
        self.attempted += 1
        start = perf_counter()
        try:
            result = self.op()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result = exc
        elapsed = (perf_counter() - start) * 1e3
        kernel = kernel_ms()
        try:
            if isinstance(result, Exception):
                raise CheckFailed(f"{type(result).__name__}: {result}")
            self.check(result)
        except (CheckFailed, KeyError, TypeError, ValueError, OSError) as exc:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{type(exc).__name__}: {exc}")
        return elapsed, kernel

    def phase(self, seconds: float, tracer: Tracer | None = None) -> dict:
        """Closed-loop ops for `seconds`: raw latencies, and kernel times with
        one more kernel run first, so that op i lies between kernels i and i+1."""
        latencies, kernels = [], [kernel_ms()]
        deadline = perf_counter() + seconds
        while perf_counter() < deadline or len(latencies) < MIN_OPS:
            if tracer is not None:
                tracer.op = len(latencies)
            latency, kernel = self.run_one()
            latencies.append(latency)
            kernels.append(kernel)
        return {"latencies_ms": latencies, "kernel_times_ms": kernels}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                platform.processor(),
            )
    except OSError:
        cpu = platform.processor()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text())
    runner = Runner(spec)
    runner.out.mkdir(parents=True, exist_ok=True)
    for _ in range(WARMUP_OPS):
        runner.run_one()
    seconds = spec["seconds"] / (2 if spec["trace"] else 1)
    result = runner.phase(seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
        try:
            traced = runner.phase(seconds, tracer)
        finally:
            tracer.uninstall()
        tracer.write(spec["spans"])
        per_op = list(layer_metrics(tracer.spans).values())
        result["layers"] = {
            key: statistics.median(row[key] for row in per_op) for key in per_op[0]
        }
        result["layers"]["trace.overhead_frac"] = (
            statistics.median(at_reference_speed(traced["latencies_ms"], traced["kernel_times_ms"]))
            / statistics.median(at_reference_speed(result["latencies_ms"], result["kernel_times_ms"]))
            - 1.0
        )
        result["layers"]["pipeline.bytes_out"] = statistics.median(runner.bytes_out)
        result["traced"] = traced
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        verdict_failed=runner.verdict_failed,
        errors=runner.errors,
        env=environment(),
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
