"""E21 -- array-native batched decoding vs the per-shot decoder loop.

PR 1's batched sampler left the LER experiment decode-bound: one
``WindowedLutDecoder`` per shot, each rebuilding the brute-force LUT,
then Python-loop decoding every window.  The batched decoding layer
(`repro.decoders.batched`) decodes all shots at once as numpy gathers
over process-cached dense tables.  Two acceptance bars:

* the full batched LER experiment at 1000 shots must run >= 3x faster
  with the array-native decoder than with the per-shot reference
  (``PerShotWindowedLutDecoder``, registered as ``"per-shot-lut"``
  while this module runs), while producing bit-identical
  ``BatchCounts``;
* LUT construction per experiment arm must be O(1) cached builds
  instead of O(shots) brute-force enumerations, with a warm
  (cache-hit) build amortizing far below a cold one.
"""

import time

import numpy as np
import pytest

from repro import telemetry
from repro.codes.surface17 import X_CHECK_MATRIX, Z_CHECK_MATRIX
from repro.decoders import clear_lut_cache, dense_lut
from repro.decoders.registry import (
    CAP_EXACT,
    CAP_WINDOWED,
    RegisteredDecoder,
    register_decoder,
    unregister_decoder,
)
from repro.decoders.rule_based import PerShotWindowedLutDecoder
from repro.experiments.ler import BatchedLerExperiment

#: Physical error rate of the workload (mid-sweep, Fig 5.11 range).
PER = 6e-3
#: Lockstep shots of the timed experiment (the acceptance criterion).
SHOTS = 1000
#: Windows per shot (small: the bar is per-window decode throughput).
WINDOWS = 5
#: Required wall-clock speedup of batched over per-shot decoding.
REQUIRED_SPEEDUP = 3.0
#: Cold/warm table-build pairs for the construction benchmark.
BUILD_ROUNDS = 200


@pytest.fixture(scope="module", autouse=True)
def per_shot_lut():
    """The scalar reference, registered as ``"per-shot-lut"``."""
    register_decoder(
        RegisteredDecoder(
            name="per-shot-lut",
            summary="one scalar windowed LUT decoder per shot",
            capabilities=frozenset((CAP_EXACT, CAP_WINDOWED)),
            window_builder=lambda window: PerShotWindowedLutDecoder(
                window.x_check_matrix,
                window.z_check_matrix,
                use_majority_vote=window.use_majority_vote,
            ),
        )
    )
    yield
    unregister_decoder("per-shot-lut")


def _run(decoder_impl):
    return BatchedLerExperiment(
        PER,
        num_shots=SHOTS,
        use_pauli_frame=True,
        error_kind="x",
        windows=WINDOWS,
        seed=6,
        decoder_impl=decoder_impl,
    ).run_counts()


def test_bench_e21_batched_decode_speedup(benchmark):
    # Warm the table cache so both arms measure decoding, not builds.
    dense_lut(X_CHECK_MATRIX)
    dense_lut(Z_CHECK_MATRIX)

    start = time.perf_counter()
    per_shot_counts = _run("per-shot-lut")
    per_shot_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batched_counts = benchmark.pedantic(
        lambda: _run("lut"), rounds=1, iterations=1
    )
    batched_seconds = time.perf_counter() - start

    # The hard equivalence gate: same seeds -> bit-identical counts.
    assert np.array_equal(
        batched_counts.logical_errors, per_shot_counts.logical_errors
    )
    assert np.array_equal(
        batched_counts.clean_windows, per_shot_counts.clean_windows
    )
    assert np.array_equal(
        batched_counts.corrections_commanded,
        per_shot_counts.corrections_commanded,
    )

    speedup = per_shot_seconds / batched_seconds
    rate = SHOTS * WINDOWS / batched_seconds
    print(f"\n[E21] SC17 batched LER, {SHOTS} shots x {WINDOWS} windows:")
    print(f"  per-shot decoder loop: {per_shot_seconds:8.3f} s")
    print(f"  array-native batched:  {batched_seconds:8.3f} s "
          f"({rate:,.0f} windows/s)")
    print(f"  speedup:               {speedup:8.1f}x "
          f"(bar {REQUIRED_SPEEDUP:.0f}x)")
    assert speedup >= REQUIRED_SPEEDUP


def test_bench_e21_lut_cache_construction(benchmark):
    # Cold: every build re-runs the vectorized enumeration.
    start = time.perf_counter()
    for _ in range(BUILD_ROUNDS):
        clear_lut_cache()
        dense_lut(X_CHECK_MATRIX)
        dense_lut(Z_CHECK_MATRIX)
    cold_seconds = (time.perf_counter() - start) / BUILD_ROUNDS

    # Warm: every build is a digest lookup of the shared table.
    clear_lut_cache()
    dense_lut(X_CHECK_MATRIX)
    dense_lut(Z_CHECK_MATRIX)

    def warm_builds():
        for _ in range(BUILD_ROUNDS):
            dense_lut(X_CHECK_MATRIX)
            dense_lut(Z_CHECK_MATRIX)

    start = time.perf_counter()
    benchmark.pedantic(warm_builds, rounds=1, iterations=1)
    warm_seconds = (time.perf_counter() - start) / BUILD_ROUNDS

    # An experiment arm performs exactly one build per check species,
    # independent of the shot count: O(1), not O(shots).
    clear_lut_cache()
    with telemetry.enabled() as collector:
        BatchedLerExperiment(PER, num_shots=SHOTS, seed=0)
    counters = collector.counters[("decoder.batched", "lut_cache")]
    assert counters["misses"] == 2
    assert counters.get("hits", 0) == 0

    print(f"\n[E21] SC17 two-species LUT construction, per build pair:")
    print(f"  cold (enumeration):    {1e6 * cold_seconds:10.1f} us")
    print(f"  warm (cache hit):      {1e6 * warm_seconds:10.1f} us")
    print(f"  {SHOTS}-shot arm builds:   2 (one per species, O(1))")
    assert warm_seconds < cold_seconds
