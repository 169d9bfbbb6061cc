"""A fixed kernel that measures how fast this machine runs right now.

On a shared host the speed a process gets changes from minute to minute:
while the benchmark was sized on a shared 2-vCPU Xeon VM, one series-api op
took 58 ms for a minute and 95-110 ms the next, on either vCPU, with CPU
time rising with wall time and steal time near zero.  Bounds of 10-25%
cannot hold against that.  So the worker times this kernel before the first
op and after every op, and latencies are reported at a reference speed: an
op's wall time is scaled by REFERENCE_MS / (the kernel's time around it).  The kernel mixes the three kinds of
work the workloads do, interpreted Python, small dense LAPACK calls and
float formatting, because their slowdowns differ; over 10 s windows the
mixed kernel cut the spread of median op times from 10-35% to 2-5% on every
workload.  The kernel is part of the benchmark, so no change to the program
moves it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Bound at import, before a traced run rebinds numpy.linalg.eig, so that the
# kernel never shows up in the program's spans.
_eig = np.linalg.eig
_rng = np.random.default_rng(0)
_MATRIX = _rng.standard_normal((16, 16)) + 1j * _rng.standard_normal((16, 16))

# About the kernel's median time on the VM above in its fast phase.
REFERENCE_MS = 8.0


def kernel() -> None:
    counts: dict[int, int] = {}
    for i in range(20000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    for _ in range(20):
        _eig(_MATRIX)
    ",".join(format(i * 0.1, ".17g") for i in range(5000))


def kernel_ms() -> float:
    start = perf_counter()
    kernel()
    return (perf_counter() - start) * 1e3


def at_reference_speed(latencies_ms: list[float], kernel_times_ms: list[float]) -> list[float]:
    """Each latency scaled by REFERENCE_MS / the machine's speed around it.

    Latency i lies between kernel runs i and i + 1, and the mean of the two
    is the speed: on that VM, interference comes in bursts shorter than
    a second, and bracketing each op followed them best (2-8% spread of
    p50 and p90 between 10 s windows, against 5-30% for smoothing over nine
    ops or for the kernel before the op alone).  Timing 8 ms of kernel
    rather than 4 ms lowered the p90 spread of verify-dense from 5.1% to
    3.4% over six 25 s runs, as the kernel's own noise averages out.
    """
    return [
        latency * REFERENCE_MS / ((kernel_times_ms[i] + kernel_times_ms[i + 1]) / 2)
        for i, latency in enumerate(latencies_ms)
    ]
