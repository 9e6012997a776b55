"""E17 -- the lockstep core vs the per-shot tableau loop.

The acceptance bar for batched sampling: on the Surface Code 17 ESM
workload it must beat the per-shot tableau loop by at least 10x at
10,000 shots.  Two measurements:

* raw shot sampling -- the noisy ESM circuit run once on a fresh
  lockstep core (:func:`repro.qpdo.sample`: reference tableau, plan
  compile and frame map included in the timing), against a fresh
  ``StabilizerCore`` + ``DepolarizingErrorLayer`` stack per shot,
* the full adaptive LER workload (decode + correct every window),
  where the decoder runs in Python per shot either way, so the
  speedup is smaller but still far above the bar.

Both baselines are timed over a small shot count and expressed as a
rate; the batched path runs the full 10,000 shots.
"""

import time

import numpy as np

from repro.circuits import Circuit
from repro.codes.surface17 import parallel_esm
from repro.experiments import BatchedLerExperiment, LerExperiment
from repro.qpdo import DepolarizingErrorLayer, StabilizerCore, sample
from repro.sim import NoiseParameters

#: Physical error rate of the workload (mid-sweep, Fig 5.11 range).
PER = 6e-3
#: Shots the lockstep core must handle (the acceptance criterion).
BATCH_SHOTS = 10_000
#: Shots used to time the per-shot loop baseline (rate extrapolates).
LOOP_SHOTS = 30
#: Required speedup of batched over loop (ISSUE acceptance bar).
REQUIRED_SPEEDUP = 10.0


def _esm_workload():
    """Prep + three noisy ESM rounds on the 17 SC17 qubits."""
    circuit = Circuit("sc17-esm")
    for qubit in range(9):
        circuit.add("prep_z", qubit)
    measurements = []
    for _ in range(3):
        esm = parallel_esm(list(range(17)))
        circuit.extend(esm.circuit)
        measurements.extend(esm.x_measurements + esm.z_measurements)
    return circuit, measurements


def test_bench_e17_raw_sampling_speedup(benchmark):
    circuit, measurements = _esm_workload()
    noise = NoiseParameters(PER, active_qubits=range(17))

    # Per-shot baseline: a fresh stack per shot, as the LER harness
    # does it, timed over LOOP_SHOTS shots.
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    for _ in range(LOOP_SHOTS):
        stack = DepolarizingErrorLayer(
            StabilizerCore(rng=rng),
            probability=PER,
            rng=rng,
            active_qubits=range(17),
        )
        stack.createqubit(17)
        result = stack.run(circuit.copy(fresh_uids=False))
        [result.result_of(m) for m in measurements]
    loop_rate = LOOP_SHOTS / (time.perf_counter() - start)

    # Batched: BATCH_SHOTS in bulk on one lockstep core.
    def sample_batch():
        return sample(
            circuit, BATCH_SHOTS, seed=12, noise=noise, num_qubits=17
        )

    elapsed = time.perf_counter()
    bits = benchmark.pedantic(sample_batch, rounds=1, iterations=1)
    batched_rate = BATCH_SHOTS / (time.perf_counter() - elapsed)

    assert bits.shape == (BATCH_SHOTS, len(measurements))
    speedup = batched_rate / loop_rate
    print("\n[E17] SC17 ESM raw sampling, shots/second:")
    print(f"  per-shot tableau loop: {loop_rate:12.1f}")
    print(f"  lockstep core:         {batched_rate:12.1f}")
    print(
        f"  speedup:               {speedup:12.1f}x "
        f"(bar {REQUIRED_SPEEDUP:.0f}x)"
    )
    assert speedup >= REQUIRED_SPEEDUP


def test_bench_e17_ler_workload_speedup(benchmark):
    # Loop baseline: the per-shot LER experiment, rate in windows/s.
    start = time.perf_counter()
    loop_result = LerExperiment(
        PER,
        use_pauli_frame=True,
        error_kind="x",
        max_logical_errors=3,
        seed=5,
    ).run()
    loop_rate = loop_result.windows / (time.perf_counter() - start)

    # Batched: BATCH_SHOTS lockstep shots, a few windows each.
    windows = 5

    def run_batched():
        return BatchedLerExperiment(
            PER,
            num_shots=BATCH_SHOTS,
            use_pauli_frame=True,
            error_kind="x",
            windows=windows,
            seed=6,
        ).run()

    elapsed = time.perf_counter()
    results = benchmark.pedantic(run_batched, rounds=1, iterations=1)
    batched_rate = (BATCH_SHOTS * windows) / (
        time.perf_counter() - elapsed
    )

    total_windows = sum(r.windows for r in results)
    assert total_windows == BATCH_SHOTS * windows
    speedup = batched_rate / loop_rate
    print("\n[E17] SC17 adaptive LER workload, windows/second:")
    print(f"  per-shot tableau loop: {loop_rate:12.1f}")
    print(f"  batched frame sampler: {batched_rate:12.1f}")
    print(
        f"  speedup:               {speedup:12.1f}x "
        f"(bar {REQUIRED_SPEEDUP:.0f}x)"
    )
    assert speedup >= REQUIRED_SPEEDUP
    # Sanity: the batched LER lands in the same regime as the loop.
    errors = sum(r.logical_errors for r in results)
    batched_ler = errors / total_windows
    assert 0.2 * loop_result.logical_error_rate <= batched_ler
    assert batched_ler <= 5.0 * max(loop_result.logical_error_rate, 1e-3)
