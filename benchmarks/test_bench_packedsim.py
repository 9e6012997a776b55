"""E22 -- word-level noise draws vs the exact frame stream.

The acceptance bar for the packed-fast engine: on the full SC17
adaptive LER workload at 100,000 lockstep shots,
``engine="packed-fast"`` must beat ``framesim`` by at least
``REQUIRED_SPEEDUP``.  The CI gate is 4x (shared runners are noisy and
slow).

Two measurements:

* raw shot sampling -- the noisy ESM circuit run once on a fresh
  lockstep core (:func:`repro.qpdo.sample`) in each RNG mode: the
  exact mode first, as the reference, then the timed fast mode.  The
  exact core's bit identity to the operation loop is gated in
  ``tests/test_lockstep.py``,
* the full adaptive LER workload (sample + majority vote + LUT decode
  + frame feedback every window) through
  :class:`~repro.experiments.ler.BatchedLerExperiment`.  Both engines
  run on the one lockstep core's packed ``uint64`` frames; the
  reference is ``framesim``, the exact regime, which runs each circuit
  through its compiled GF(2) frame map with one uniform per shot and
  channel, against packed-fast's word-level draws.

Environment knobs (CI uses the defaults):

* ``REPRO_E22_SHOTS`` -- lockstep shots (default 100,000),
* ``REPRO_E22_MIN_SPEEDUP`` -- the gate (default 4.0).
"""

import os
import time

from repro.circuits import Circuit
from repro.codes.surface17 import parallel_esm
from repro.experiments import BatchedLerExperiment
from repro.qpdo import sample
from repro.sim import NoiseParameters

#: Physical error rate of the workload (mid-sweep, Fig 5.11 range).
PER = 6e-3
#: Lockstep shots of the packed acceptance run.
BATCH_SHOTS = int(os.environ.get("REPRO_E22_SHOTS", 100_000))
#: Required speedup of packed-fast over framesim (CI gate; the local
#: target in ISSUE/EXPERIMENTS is 10x and is met with margin).
REQUIRED_SPEEDUP = float(os.environ.get("REPRO_E22_MIN_SPEEDUP", 4.0))
#: Windows per shot of the LER workload.
WINDOWS = 3


def _esm_circuit():
    """Prep + three noisy ESM rounds."""
    circuit = Circuit("sc17-esm")
    for qubit in range(9):
        circuit.add("prep_z", qubit)
    for _ in range(3):
        circuit.extend(parallel_esm(list(range(17))).circuit)
    return circuit


def _rate(fn):
    start = time.perf_counter()
    out = fn()
    return out, BATCH_SHOTS / (time.perf_counter() - start)


def test_bench_e22_raw_sampling_speedup(benchmark):
    circuit = _esm_circuit()
    noise = NoiseParameters(PER, active_qubits=range(17))

    def run(rng_mode):
        return sample(
            circuit,
            BATCH_SHOTS,
            seed=12,
            noise=noise,
            num_qubits=17,
            rng_mode=rng_mode,
        )

    exact, exact_rate = _rate(lambda: run("exact"))

    start = time.perf_counter()
    fast = benchmark.pedantic(lambda: run("fast"), rounds=1, iterations=1)
    fast_rate = BATCH_SHOTS / (time.perf_counter() - start)

    assert fast.shape == exact.shape
    speedup = fast_rate / exact_rate
    print("\n[E22] SC17 ESM raw sampling, shots/second:")
    print(f"  lockstep (exact rng):  {exact_rate:12.1f}")
    print(f"  lockstep (fast rng):   {fast_rate:12.1f}")
    print(
        f"  fast speedup:          {speedup:12.1f}x "
        f"(gate {REQUIRED_SPEEDUP:.0f}x)"
    )
    assert speedup >= REQUIRED_SPEEDUP


def test_bench_e22_ler_workload_speedup(benchmark):
    def run(engine):
        return BatchedLerExperiment(
            PER,
            num_shots=BATCH_SHOTS,
            use_pauli_frame=True,
            error_kind="x",
            windows=WINDOWS,
            seed=6,
            engine=engine,
        ).run_counts()

    reference, reference_rate = _rate(lambda: run("framesim"))

    start = time.perf_counter()
    fast = benchmark.pedantic(
        lambda: run("packed-fast"), rounds=1, iterations=1
    )
    fast_rate = BATCH_SHOTS / (time.perf_counter() - start)

    speedup = fast_rate / reference_rate
    print("\n[E22] SC17 adaptive LER workload, shots/second:")
    print(f"  framesim engine:       {reference_rate:12.1f}")
    print(f"  packed-fast engine:    {fast_rate:12.1f}")
    print(
        f"  fast speedup:          {speedup:12.1f}x "
        f"(gate {REQUIRED_SPEEDUP:.0f}x)"
    )
    assert speedup >= REQUIRED_SPEEDUP

    # Sanity: both engines land in the same LER regime.
    ler_reference = reference.logical_errors.sum() / (
        BATCH_SHOTS * WINDOWS
    )
    ler_fast = fast.logical_errors.sum() / (BATCH_SHOTS * WINDOWS)
    assert 0.5 * ler_reference <= ler_fast <= 2.0 * ler_reference
