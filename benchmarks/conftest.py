"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at
*scaled-down* statistics (the paper stops each run at 50 logical
errors and samples 10-20 seeds per PER point over ~100 PER values;
CPU-days in pure Python).  The scaled settings below keep the full
harness in the minutes range while preserving every qualitative
shape the paper reports.  Crank them up via the constants here to
approach paper scale.

The LER sweep (E7) is computed once per session and shared by the
difference/CoV/t-test/savings benchmarks (E8-E11), mirroring how the
paper derives Figs 5.15-5.26 from one data set.  It runs on the
sharded runner's per-shot loop mode, inline, as ``repro sweep`` does.
"""

import pytest

from repro.experiments.parallel import run_parallel_sweep

#: PER grid of the scaled sweep (the paper: 1e-4..1e-2, step 1e-4).
SWEEP_PER_VALUES = (3e-3, 6e-3, 1e-2)
#: Independent simulations per PER and arm (the paper: 10-20).
SWEEP_SAMPLES = 3
#: Logical errors per run before termination (the paper: 50).
SWEEP_MAX_LOGICAL_ERRORS = 4


@pytest.fixture(scope="session")
def ler_sweep_x():
    """The shared scaled X-error LER sweep (with and without frame)."""
    return run_parallel_sweep(
        SWEEP_PER_VALUES,
        error_kind="x",
        shots=SWEEP_SAMPLES,
        windows=None,
        max_logical_errors=SWEEP_MAX_LOGICAL_ERRORS,
        seed=2017,
    ).sweep
