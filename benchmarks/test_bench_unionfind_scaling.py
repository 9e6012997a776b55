"""E24 -- decoding past d = 3: union-find wall-clock scaling.

ROADMAP item 3 caps the scaling experiments at Surface-17-sized codes
because the dense LUT is ``O(2^checks)`` and per-shot Blossom matching
re-solves an all-pairs MWPM for every trial.  The array-native
union-find decoder (:mod:`repro.decoders.unionfind`) removes both
walls.  Two acceptance bars:

* **wall-clock**: batch union-find decoding of a d = 7
  phenomenological workload must beat the per-trial Blossom decoder
  by at least :data:`REQUIRED_SPEEDUP` — the gap is superlinear in
  distance, so d = 7 is already decisive;
* **reach**: a d = 15 phenomenological point (beyond any dense-LUT or
  practical per-shot-Blossom run) completes inside the bench budget
  and shows the sub-threshold ordering against d = 7.
"""

import time

import numpy as np

from repro.codes.rotated import RotatedSurfaceCode
from repro.decoders import boundary_qubits_for
from repro.decoders.spacetime import SpaceTimeMatchingDecoder
from repro.decoders.unionfind import SpaceTimeUnionFindDecoder
from repro.experiments.phenomenological import (
    PhenomenologicalSimulator,
    run_phenomenological_scaling,
)

#: Distance of the timed head-to-head (superlinear gap => decisive).
HEAD_TO_HEAD_DISTANCE = 7
#: Trials of the timed workload.
TRIALS = 60
#: Data/measurement error rate of the workload (sub-threshold).
ERROR_RATE = 0.015
#: Required wall-clock speedup of batch union-find over per-trial
#: Blossom at d = 7 (measured gap is ~10x or more; 2x is the gate).
REQUIRED_SPEEDUP = 2.0
#: The reach demonstration: distances no dense table can touch.
LARGE_DISTANCES = (7, 15)
LARGE_TRIALS = 120


def _histories(distance, trials, seed):
    """Sample one phenomenological workload as stacked histories."""
    simulator = PhenomenologicalSimulator(distance)
    histories, errors = simulator.sample_histories(
        ERROR_RATE, ERROR_RATE, trials, np.random.default_rng(seed)
    )
    return simulator, histories, errors


def test_bench_e24_unionfind_vs_blossom_wallclock(benchmark):
    code = RotatedSurfaceCode(HEAD_TO_HEAD_DISTANCE)
    boundary = boundary_qubits_for(code, "z")
    simulator, histories, errors = _histories(
        HEAD_TO_HEAD_DISTANCE, TRIALS, seed=24
    )
    blossom = SpaceTimeMatchingDecoder(code.z_check_matrix, boundary)
    unionfind = SpaceTimeUnionFindDecoder(
        code.z_check_matrix, boundary
    )

    start = time.perf_counter()
    blossom_corrections = [
        blossom.decode_history(history) for history in histories
    ]
    blossom_seconds = time.perf_counter() - start

    start = time.perf_counter()
    uf_corrections = benchmark.pedantic(
        lambda: unionfind.decode_batch(histories),
        rounds=1,
        iterations=1,
    )
    unionfind_seconds = time.perf_counter() - start

    speedup = blossom_seconds / max(unionfind_seconds, 1e-9)
    print(
        f"\n[E24] d={HEAD_TO_HEAD_DISTANCE} x {TRIALS} trials: "
        f"per-trial Blossom {blossom_seconds:.2f}s, "
        f"batch union-find {unionfind_seconds:.2f}s "
        f"({speedup:.1f}x)"
    )
    assert speedup >= REQUIRED_SPEEDUP

    # Both decoders must be *sound* on every trial (silencing
    # corrections), and their logical verdicts must agree on the
    # overwhelming majority of sub-threshold trials.
    blossom_corrections = np.asarray(blossom_corrections, dtype=bool)
    for corrections in (blossom_corrections, uf_corrections):
        residual = (errors ^ corrections).astype(np.uint8)
        assert not ((residual @ code.z_check_matrix.T) % 2).any()
    disagreements = np.count_nonzero(
        simulator.logical_failures(errors, blossom_corrections)
        != simulator.logical_failures(errors, uf_corrections)
    )
    assert disagreements <= max(2, TRIALS // 10)


def test_bench_e24_unionfind_reaches_d15(benchmark):
    results = benchmark.pedantic(
        lambda: run_phenomenological_scaling(
            distances=LARGE_DISTANCES,
            per_values=(ERROR_RATE,),
            trials=LARGE_TRIALS,
            seed=15,
            decoder="unionfind",
        ),
        rounds=1,
        iterations=1,
    )
    print(f"\n[E24] union-find phenomenological reach, p={ERROR_RATE}:")
    lers = {}
    for distance in LARGE_DISTANCES:
        ler = results[distance][0].logical_error_rate
        lers[distance] = ler
        print(f"  d={distance}: LER {ler:.4f}")
    # Sub-threshold: growing the distance must not hurt.
    assert lers[15] <= lers[7] + 0.05
