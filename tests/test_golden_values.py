"""Golden-value regression tests: exact pinned SC17 counts and records.

Every number in this module was produced by the committed RNG-stream
scheme of the lockstep core (seed-sequence trees: one child for the
reference, one frame stream drawn in circuit order; shard seeds
``(arm_seed, shard_index)``).  Any change to stream layout,
kernel update order, noise-channel draw shape or shard seeding will
shift these bits and fail loudly here — which is the point: silent
stream changes would otherwise masquerade as statistical noise while
breaking reproducibility of published sweep data.

If a change to the sampling machinery is *intentional*, regenerate
the constants (each test's body shows exactly how) and say so in the
commit message.
"""

import hashlib

from repro.experiments.ler import BatchedLerExperiment
from repro.experiments.parallel import (
    ParallelConfig,
    run_parallel_sweep,
)

import pytest

#: Per-shot (logical_errors, clean_windows, corrections) of a
#: 6-shot x 10-window batched LER run, both arms.
GOLDEN_LER_COUNTS = {
    (11, 2e-3, False): (
        [0, 0, 0, 1, 0, 0],
        [8, 6, 8, 7, 6, 9],
        [1, 4, 2, 3, 4, 2],
    ),
    (11, 2e-3, True): (
        [1, 0, 1, 0, 0, 0],
        [7, 7, 7, 9, 8, 7],
        [3, 3, 3, 2, 2, 2],
    ),
    (23, 8e-3, False): (
        [1, 1, 0, 0, 1, 1],
        [4, 3, 5, 5, 5, 6],
        [7, 7, 8, 6, 8, 7],
    ),
    (23, 8e-3, True): (
        [0, 1, 0, 1, 2, 0],
        [4, 3, 5, 4, 4, 4],
        [9, 7, 7, 7, 8, 7],
    ),
}

#: The same runs for ``error_kind="z"`` (from ``|+>_L``, watching
#: ``X2 X4 X6``), pinning the preparation's Hadamard slot and the
#: H-bracketed probe.
GOLDEN_LER_COUNTS_Z = {
    (11, 2e-3, False): (
        [0, 1, 0, 0, 0, 0],
        [10, 5, 9, 8, 7, 9],
        [3, 6, 1, 2, 4, 2],
    ),
    (11, 2e-3, True): (
        [0, 0, 1, 1, 0, 1],
        [9, 6, 7, 10, 9, 7],
        [2, 5, 3, 2, 1, 2],
    ),
    (23, 8e-3, False): (
        [1, 1, 0, 0, 1, 2],
        [3, 4, 3, 2, 4, 4],
        [7, 6, 9, 8, 9, 9],
    ),
    (23, 8e-3, True): (
        [1, 0, 2, 1, 0, 2],
        [5, 5, 4, 5, 4, 3],
        [7, 7, 8, 7, 7, 7],
    ),
}

#: SHA-256 over the committed shard records (sorted arms, shard
#: order) of a 4-shot x 6-window parallel sweep, plus pooled totals.
GOLDEN_PARALLEL = {
    (11, 2e-3): (
        "87e7ce0b57b90e4c3f79f867dfe3438c95a4b7491a78e7d1fc75f038449d6c9a",
        {(0, False): (1, 24), (0, True): (1, 24)},
    ),
    (23, 8e-3): (
        "735d5d9fbc08f8bf642efb06b8048b024959a685f3b29fd7bb78d2067a7e0469",
        {(0, False): (2, 24), (0, True): (0, 24)},
    ),
}

#: Per-shot counts of the same runs under ``engine="packed-fast"``.
#: The fast mode draws word-level noise from its own stream, so its
#: bits legitimately differ from GOLDEN_LER_COUNTS — but they are
#: still a pure function of the seed, which these constants pin.
GOLDEN_LER_COUNTS_PACKED_FAST = {
    (11, 2e-3, False): (
        [0, 0, 0, 0, 0, 0],
        [8, 7, 9, 7, 8, 8],
        [2, 3, 1, 4, 3, 2],
    ),
    (11, 2e-3, True): (
        [0, 0, 0, 1, 0, 0],
        [8, 7, 8, 9, 9, 9],
        [2, 2, 4, 1, 1, 1],
    ),
    (23, 8e-3, False): (
        [1, 0, 1, 1, 0, 1],
        [5, 3, 3, 2, 5, 4],
        [6, 8, 7, 8, 8, 8],
    ),
    (23, 8e-3, True): (
        [2, 1, 1, 1, 0, 2],
        [4, 7, 3, 3, 7, 5],
        [8, 4, 9, 9, 6, 7],
    ),
}

SEED_PER_CASES = [(11, 2e-3), (23, 8e-3)]


@pytest.mark.parametrize("engine", ["framesim"])
@pytest.mark.parametrize("seed,per", SEED_PER_CASES)
@pytest.mark.parametrize("use_frame", [False, True])
def test_golden_ler_counts(seed, per, use_frame, engine):
    """Exact per-shot LER counts of a small batched SC17 run.

    The constants were pinned on bool frames; the exact engine now runs
    on packed words and must hit them bit for bit.
    """
    counts = BatchedLerExperiment(
        per,
        num_shots=6,
        use_pauli_frame=use_frame,
        windows=10,
        seed=seed,
        engine=engine,
    ).run_counts()
    errors, clean, corrections = GOLDEN_LER_COUNTS[
        (seed, per, use_frame)
    ]
    assert counts.logical_errors.tolist() == errors
    assert counts.clean_windows.tolist() == clean
    assert counts.corrections_commanded.tolist() == corrections


@pytest.mark.parametrize("seed,per", SEED_PER_CASES)
@pytest.mark.parametrize("use_frame", [False, True])
def test_golden_ler_counts_z_kind(seed, per, use_frame):
    """Exact per-shot counts of the same runs for Z errors."""
    counts = BatchedLerExperiment(
        per,
        num_shots=6,
        use_pauli_frame=use_frame,
        error_kind="z",
        windows=10,
        seed=seed,
    ).run_counts()
    errors, clean, corrections = GOLDEN_LER_COUNTS_Z[(seed, per, use_frame)]
    assert counts.logical_errors.tolist() == errors
    assert counts.clean_windows.tolist() == clean
    assert counts.corrections_commanded.tolist() == corrections


@pytest.mark.parametrize("seed,per", SEED_PER_CASES)
@pytest.mark.parametrize("use_frame", [False, True])
def test_golden_ler_counts_packed_fast(seed, per, use_frame):
    """Exact per-shot counts of the packed-fast engine's own stream."""
    counts = BatchedLerExperiment(
        per,
        num_shots=6,
        use_pauli_frame=use_frame,
        windows=10,
        seed=seed,
        engine="packed-fast",
    ).run_counts()
    errors, clean, corrections = GOLDEN_LER_COUNTS_PACKED_FAST[
        (seed, per, use_frame)
    ]
    assert counts.logical_errors.tolist() == errors
    assert counts.clean_windows.tolist() == clean
    assert counts.corrections_commanded.tolist() == corrections


@pytest.mark.parametrize("engine", ["framesim"])
@pytest.mark.parametrize("seed,per", SEED_PER_CASES)
def test_golden_parallel_shard_records(seed, per, engine):
    """Exact digest of the parallel engine's committed shard records."""
    report = run_parallel_sweep(
        [per],
        shots=4,
        windows=6,
        seed=seed,
        config=ParallelConfig(workers=1, shard_shots=2),
        engine=engine,
    )
    blob = "\n".join(
        record.to_json()
        for arm_key in sorted(report.arms)
        for record in report.arms[arm_key].committed
    )
    digest = hashlib.sha256(blob.encode()).hexdigest()
    expected_digest, expected_totals = GOLDEN_PARALLEL[(seed, per)]
    assert digest == expected_digest
    totals = {
        arm_key: (aggregator.errors, aggregator.windows)
        for arm_key, aggregator in report.arms.items()
    }
    assert totals == expected_totals
