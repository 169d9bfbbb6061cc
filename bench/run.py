"""The geompert benchmark: one workload, one seed, one run.

Usage, from the root of the repository:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up, untimed: the seeded model file and the independent references
(`reference.py`); with --trace 0 also `setup_s`, the median cold start of a
fresh interpreter running `geompert models list` (`coldstart.py`).  A fresh worker
process (`worker.py`) then runs the workload closed-loop with one caller and
BLAS pinned to one thread, checking every op's outputs.  The report goes to
standard output, and its last line is one JSON object: the end-to-end
metrics with --trace 0, the per-layer metrics of a traced run with --trace 1.
Exits 2, printing no result, when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(PINNED)  # before numpy loads, here and in every child

import numpy as np  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from calibration import REFERENCE_MS, at_reference_speed  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Cold starts per run for setup_s: one start varies from 150 to 240 ms, and
# the median of 7 from 171 to 221 ms, so a run takes the median of more; ten
# keep a run, set-up included, under 30 s when the host is in a slow phase.
COLD_STARTS = 10
# Seeds 0-59 needed a second draw once (sweep-wide, seed 24).
MAX_DRAWS = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p80_ms": "ms",
    "peak_rss_mb": "MB",
}
LAYER_EXTRA = ("pipeline.bytes_out", "pipeline.verdict_fail_frac", "trace.overhead_frac")


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith(("bytes_in", "bytes_out")):
        return "B"
    return "count"


def child_env() -> dict:
    return dict(os.environ, **PINNED, PYTHONPATH=str(SRC))


def make_inputs(workload: workloads.Workload, seed: int, run_dir: Path) -> dict:
    """Write the model file and the references; return the worker's spec.

    A seeded family is drawn from `default_rng(seed)`.  Where its eigenvalue
    curves come too close to be paired unambiguously on the reference contour
    or along the sweep, it is no valid input (the program refuses such a
    sweep with exit code 4), and the next family from the same generator is
    drawn instead.
    """
    spec = {"model": None, "reference": str(run_dir / "reference.npz"), "draws": 1}
    arrays = {}
    if workload.name == "expand-highorder":
        series = reference.toy_coefficients(workload.checked_order)
        floor = np.full(workload.checked_order + 1, workloads.TOY_FLOOR)
    else:
        rng = np.random.default_rng(seed)
        r = workloads.CONTOUR_RADIUS
        while True:
            terms = workloads.seeded_family(rng, workload.dim)
            try:
                series, noise = reference.contour_coefficients(
                    terms, workload.checked_order, r, workloads.CONTOUR_POINTS
                )
                if workload.name == "sweep-wide":
                    qs = np.linspace(0.0, workloads.SWEEP_Q_MAX, workloads.SWEEP_POINTS)
                    arrays["sweep"] = reference.sweep_spectra(terms, qs)
                break
            except ValueError:
                if spec["draws"] == MAX_DRAWS:
                    raise
                spec["draws"] += 1
        floor = workloads.NOISE_FACTOR * noise / r ** np.arange(workload.checked_order + 1)
        model = run_dir / "model.json"
        model.write_text(workloads.model_text(f"bench-N{workload.dim}-seed{seed}", terms))
        spec["model"] = str(model)
    np.savez(
        spec["reference"],
        series=series,
        tolerance=workloads.tolerances(series, floor),
        **arrays,
    )
    return spec


def cold_starts_ms(count: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters running `geompert models list`, one at
    a time, less the calibration kernel each runs at its end; and the kernel
    times.  All in ms."""
    env = dict(child_env(), PYTHONPATH=f"{SRC}{os.pathsep}{BENCH}")
    starts, kernels = [], []
    for i in range(count + 1):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "coldstart.py")],
            env=env, cwd=ROOT, capture_output=True, check=True, text=True, timeout=60,
        )
        wall = (perf_counter() - start) * 1e3
        kernel = float(proc.stdout.split()[-1])
        if i:  # the first start only fills the bytecode cache
            starts.append(wall - kernel)
            kernels.append(kernel)
    return starts, kernels


def run_worker(spec: dict, spec_path: Path, seconds: int) -> dict:
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(spec_path)],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=seconds + 120,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def latency_metrics(latencies: list[float]) -> dict:
    # p80, not p90: a run of a slow workload in the host's slow phase holds
    # only 50-60 ops, and p80 is then the highest percentile with ten beyond.
    return {
        "ops_per_s": len(latencies) / (sum(latencies) / 1e3),
        "op_p50_ms": statistics.median(latencies),
        "op_p80_ms": statistics.quantiles(latencies, n=10)[7],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not (SRC / "geompert" / "__init__.py").is_file():
        print(f"no geompert sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    workload = workloads.WORKLOADS[args.workload]
    scratch = ROOT / ".bench_run"
    scratch.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    try:
        spec = make_inputs(workload, args.seed, run_dir)
        spec.update(
            workload=workload.name,
            out=str(run_dir / "out"),
            seconds=args.seconds,
            trace=bool(args.trace),
        )
        if args.trace:
            spans = ROOT / ".bench_out" / f"spans-{workload.name}-seed{args.seed}.jsonl"
            spans.parent.mkdir(exist_ok=True)
            spec["spans"] = str(spans)
        else:
            cold = cold_starts_ms(COLD_STARTS)
        raw = run_worker(spec, run_dir / "spec.json", args.seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    lat = at_reference_speed(raw["latencies_ms"], raw["kernel_times_ms"])
    attempted, failed = raw["attempted"], raw["failed"]
    print(f"workload {workload.name}, seed {args.seed}, family draw {spec['draws']}")
    print(f"closed loop, 1 caller, {len(lat)} timed ops of {attempted} attempted")
    print(
        f"times at reference speed (calibration kernel {REFERENCE_MS} ms); "
        f"kernel median this run {statistics.median(raw['kernel_times_ms']):.3f} ms"
    )
    if args.trace:
        layers = dict(raw["layers"])
        layers["pipeline.verdict_fail_frac"] = raw["verdict_failed"] / attempted
        metrics = {
            name: {"value": layers[name], "unit": layer_unit(name)}
            for name in LAYER_METRICS + LAYER_EXTRA
        }
        print(f"per-layer medians over {len(raw['traced']['latencies_ms'])} traced ops, as measured:")
    else:
        starts, kernels = cold
        setup_s = statistics.median(
            start * REFERENCE_MS / kernel for start, kernel in zip(starts, kernels)
        ) / 1e3
        values = {"setup_s": setup_s, **latency_metrics(lat), "peak_rss_mb": raw["peak_rss_mb"]}
        raw_values = {
            "setup_s": statistics.median(cold[0]) / 1e3,
            **latency_metrics(raw["latencies_ms"]),
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
        print(f"  {'fail_frac':26s} {failed / attempted:<14.6g} ratio ({failed} of {attempted})")
        print(
            f"  {'verdict_fail_frac':26s} {raw['verdict_failed'] / attempted:<14.6g} "
            f"ratio ({raw['verdict_failed']} of {attempted} verdicts FAIL)"
        )
    for name, m in metrics.items():
        as_measured = "" if args.trace or name not in raw_values else (
            f"(as measured {raw_values[name]:.6g})"
        )
        print(f"  {name:26s} {m['value']:<14.6g} {m['unit']:6s}{as_measured}")
    for error in raw["errors"]:
        print(f"  failed op: {error}")
    print("env " + json.dumps(raw["env"]))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
