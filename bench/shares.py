"""Share of op time per module, from the spans a traced run wrote.

Usage, from the root of the repository:

    python3 bench/shares.py .bench_out/spans-<workload>-seed<n>.jsonl

A module's share is the self time of its spans (duration minus children)
over the time covered by root spans, summed over all traced ops.  LAPACK
calls (`numpy.linalg.eig`/`eigvals`) are a module of their own, `linalg`.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict


def module_shares(spans: list) -> dict[str, float]:
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time: dict[str, float] = defaultdict(float)
    covered = 0.0
    for i, (name, start, end, parent, *_) in enumerate(spans):
        self_time[name.split(".")[0]] += end - start - child_time[i]
        if parent < 0:
            covered += end - start
    return {m: t / covered for m, t in sorted(self_time.items(), key=lambda kv: -kv[1])}


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    for module, share in module_shares(spans).items():
        print(f"{module:12s} {share:7.1%}")


if __name__ == "__main__":
    main()
