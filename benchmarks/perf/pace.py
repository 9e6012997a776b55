"""How fast the host runs right now, read from a fixed reference kernel.

On a shared host the same operation takes up to half again as long
while other tenants are busy, in spells that last from seconds to
minutes.  Process CPU time inflates with wall time (the slowdown is
contention for the cores and caches, not steal time), so it does not
help; medians over a run do not either, because a spell outlasts a run.
A short kernel timed just before and just after an operation runs in
the same spell as the operation, so dividing by it cancels the host's
state: over two sets of ten 15 s runs per workload on a 2-vCPU VM,
the runs' median operation times spread by 17-45% raw and by 3-8%
scaled.

The kernel does what the package does most: it samples Bernoulli
flips into bit-packed frame words, and round-trips a report through
JSON.  It is part of the benchmark, so a change to the package never
moves it.  Every time the benchmark reports is scaled to a host on
which the kernel takes :data:`REFERENCE_S`.
"""

from __future__ import annotations

import gc
import json
from statistics import mean
from time import perf_counter
from typing import Sequence

import numpy as np

#: The kernel's time on a quiet 2-vCPU Xeon VM (Python 3.11, numpy 2.4).
REFERENCE_S = 0.0045


def _kernel(uniform: np.ndarray, flips: np.ndarray) -> None:
    rng = np.random.default_rng(2017)
    for _ in range(6):
        rng.random(out=uniform)
        np.less(uniform, 0.01, out=flips)
        words = np.packbits(flips, axis=1).view(np.uint64)
        np.bitwise_xor.reduce(words, axis=0)
    report = {"rows": [{"k": i, "v": [i, i * 0.5, str(i)]}
                       for i in range(800)]}
    json.loads(json.dumps(report, sort_keys=True))


def reference_s() -> float:
    """The kernel's time now: the fastest of three back-to-back runs.

    The large arrays are allocated and touched before the clock
    starts, and the garbage collector is off while the kernel runs:
    page faults and collections depend on what else the calling
    process holds, not on the host.
    """
    uniform = np.zeros((40, 4096))
    flips = np.zeros(uniform.shape, dtype=bool)
    times = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            started = perf_counter()
            _kernel(uniform, flips)
            times.append(perf_counter() - started)
    finally:
        if collecting:
            gc.enable()
    return min(times)


def scaled(seconds: float, references: Sequence[float]) -> float:
    """``seconds`` as they would read on the reference host.

    ``references`` are the kernel times taken around the operation.
    """
    return seconds * REFERENCE_S / mean(references)
