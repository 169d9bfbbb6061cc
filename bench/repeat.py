"""Run the benchmark over several seeds and summarize each metric's spread.

Usage, from the root of the repository:

    python3 bench/repeat.py --seeds FIRST-LAST [--workloads a,b] [--trace 0|1]
                            [--out summary.json]

Runs `bench/run.py` once per workload and seed, one run at a time, with the
`run_seconds` of BENCHMARK.json.  For every metric it reports the median,
the quartiles (`statistics.quantiles(values, n=4)`) and the spread, the
distance between the quartiles as a share of the median; an end-to-end
metric other than setup_s is flagged when its spread is not below a third of
its bound.  The seed-commit baseline in `baseline.json` was made this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else None,
        "values": values,
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", type=seed_list)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
            if not result["correct"]:
                sys.stderr.write(proc.stdout)
            runs.append(result)
            print(workload, seed, json.dumps(
                {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            ), flush=True)
        metrics = {
            name: summarize([r["metrics"][name]["value"] for r in runs])
            for name in runs[0]["metrics"]
        }
        summary[workload] = {
            "env": env,
            "runs": len(runs),
            "all_correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": metrics,
        }
        for name, s in metrics.items():
            flag = ""
            if name in bounds and name != "setup_s" and not s["spread"] < bounds[name] / 3:
                flag = "  <-- spread not below a third of the bound"
                steady = False
            print(f"  {workload:17s} {name:28s} median {s['median']:<12.6g} "
                  f"spread {s['spread'] if s['spread'] is not None else float('nan'):.4f}{flag}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
