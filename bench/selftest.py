"""Self-tests of the benchmark: inputs, output checks and tracing.

Usage, from the root of the repository:

    python3 bench/selftest.py

1. The same seed gives byte-identical model files; another seed gives
   different ones.
2. No PASS for a wrong series: on every workload, each reference-checked
   coefficient of the program's output, perturbed by 1e-6 relative one at a
   time, fails the output check, and one such op run through the worker's
   loop is counted as failed.
3. Tracing changes no result: one op per workload, untraced and traced,
   gives byte-identical series.csv and sweep.csv, and report.json (or the
   verify report) identical outside its metadata block.
4. Without the program's sources, run.py exits non-zero and prints no result.

Prints one line per test and exits 1 if any fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run  # first: pins BLAS threads before numpy loads

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import Runner  # noqa: E402

PERTURBATION = 1e-6
FAILURES: list[str] = []


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}", flush=True)
    if not ok:
        FAILURES.append(name)


def make_runner(workload: workloads.Workload, seed: int, scratch: Path) -> Runner:
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    spec = run.make_inputs(workload, seed, run_dir)
    spec.update(workload=workload.name, out=str(run_dir / "out"))
    (run_dir / "out").mkdir()
    return Runner(spec)


def program_values(runner: Runner, result) -> np.ndarray:
    """The (N, K+1) series an op produced, read the way the checks read it."""
    w = runner.workload
    if w.argv is None:
        return np.asarray(result)
    if w.argv[0] == "verify":
        rows = [(r["n"], r["k"], r["re"], r["im"]) for r in json.loads(result[1])["series"]]
        return workloads.series_from_rows(rows, w.dim, w.order)
    return workloads.read_series_csv(runner.out / "series.csv", w.dim, w.order)


def perturb_output(runner: Runner, result, n: int, k: int):
    """The op's result with h_n^(k) scaled by (1 + PERTURBATION) in its output."""
    w = runner.workload
    if w.argv is None:
        values = np.array(result)
        values[n, k] *= 1 + PERTURBATION
        return values
    if w.argv[0] == "verify":
        doc = json.loads(result[1])
        for row in doc["series"]:
            if (row["n"], row["k"]) == (n, k):
                row["re"] *= 1 + PERTURBATION
                row["im"] *= 1 + PERTURBATION
        return result[0], json.dumps(doc)
    path = runner.out / "series.csv"
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        cells = line.split(",")
        if cells[:2] == [str(n), str(k)]:
            re, im = (float(c) * (1 + PERTURBATION) for c in cells[2:])
            lines[i] = f"{n},{k},{re:.17g},{im:.17g}"
    path.write_text("\n".join(lines) + "\n")
    return result


def test_inputs(scratch: Path) -> None:
    for workload in workloads.WORKLOADS.values():
        if workload.argv is not None and "{model}" not in workload.argv:
            continue  # a built-in model, not made from the seed
        texts = []
        for seed in (1, 1, 2):
            run_dir = Path(tempfile.mkdtemp(dir=scratch))
            run.make_inputs(workload, seed, run_dir)
            texts.append((run_dir / "model.json").read_bytes())
        report(
            f"inputs {workload.name}",
            texts[0] == texts[1] and texts[0] != texts[2],
            "seed 1 twice: identical; seed 2: different",
        )


def test_wrong_series(scratch: Path) -> None:
    for workload in workloads.WORKLOADS.values():
        runner = make_runner(workload, 1, scratch)
        result = runner.op()
        runner.check(result)
        values = program_values(runner, result)
        ref = runner.reference
        caught = total = 0
        for n, k in np.ndindex(ref.shape):
            if ref[n, k] == 0:
                continue  # a relative perturbation of an exact zero is no change
            total += 1
            wrong = values.copy()
            wrong[n, k] *= 1 + PERTURBATION
            try:
                workloads.check_series(wrong, ref, runner.tolerance)
            except workloads.CheckFailed:
                caught += 1
        # one op through the worker's loop, its output perturbed where the
        # reference is largest at the highest checked order
        k = ref.shape[1] - 1
        n = int(np.argmax(np.abs(ref[:, k])))
        real_op = runner.op
        runner.op = lambda: perturb_output(runner, real_op(), n, k)
        runner.run_one()
        report(
            f"wrong series {workload.name}",
            caught == total and runner.failed == 1 and runner.attempted == 1,
            f"{caught} of {total} perturbed coefficients caught; "
            f"perturbed op counted failed: {runner.failed == 1}",
        )


def outputs(runner: Runner, result) -> dict:
    """What an op produced, with report metadata (the timestamp) removed."""
    if runner.workload.argv is None:
        return {"series": np.asarray(result).tobytes()}
    got = {p.name: p.read_bytes() for p in sorted(runner.out.iterdir())}
    if result[1]:
        got["stdout"] = result[1].encode()
    for name in ("report.json", "stdout"):
        if name in got:
            doc = json.loads(got[name])
            doc.pop("metadata")
            got[name] = doc
    return got


def test_tracing(scratch: Path) -> None:
    for workload in workloads.WORKLOADS.values():
        runner = make_runner(workload, 1, scratch)
        plain = outputs(runner, runner.op())
        tracer = Tracer()
        tracer.install()
        try:
            traced = outputs(runner, runner.op())
        finally:
            tracer.uninstall()
        report(
            f"tracing {workload.name}",
            plain == traced and len(tracer.spans) > 0,
            f"{', '.join(plain)} identical over {len(tracer.spans)} spans",
        )


def test_missing_sources(scratch: Path) -> None:
    bare = Path(tempfile.mkdtemp(dir=scratch))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "series-api", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    report(
        "missing sources",
        proc.returncode != 0 and not proc.stdout.strip(),
        f"exit code {proc.returncode}, stdout {len(proc.stdout)} bytes",
    )


def main() -> int:
    parent = run.ROOT / ".bench_run"
    parent.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=parent))
    try:
        test_inputs(scratch)
        test_wrong_series(scratch)
        test_tracing(scratch)
        test_missing_sources(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
