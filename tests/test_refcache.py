"""Tests for the process-level reference-trace cache (repro.sim.refcache).

The cache's contract: a reference trace is keyed on the protocol
structure alone.  The first run of a structure records it symbolically
(measurement outcomes as affine forms over the random outcomes), and
every later run replays it under its own seed -- bit-identical to a
live stabilizer tableau driven by that seed, across every batched
engine, because the reference stream is engine-independent.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.experiments.ler import BatchedLerExperiment
from repro.sim.refcache import (
    REFERENCE_CACHE_CAPACITY,
    ReferenceTableau,
    ReferenceTrace,
    clear_reference_cache,
    lookup_reference_trace,
    reference_cache_size,
    reference_trace_key,
    store_reference_trace,
)
from repro.sim.stabilizer import StabilizerSimulator


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_reference_cache()
    yield
    clear_reference_cache()


def run_ler(engine, seed=11, reference_cache=True):
    experiment = BatchedLerExperiment(
        0.002,
        128,
        use_pauli_frame=True,
        windows=3,
        seed=seed,
        engine=engine,
        reference_cache=reference_cache,
    )
    result = experiment.run()
    return result, experiment.core.simulator.replaying


def as_json(results):
    return [r.to_json_dict() for r in results]


def make_trace(bits):
    """A trace of deterministic measurements with the given bits."""
    return ReferenceTrace(
        num_outcomes=0,
        constants=np.array(bits, dtype=bool),
        forms=np.zeros((len(bits), 0), dtype=bool),
        qubits=np.zeros(len(bits), dtype=np.int64),
    )


def measured_qubits(operations):
    return np.array(
        [qubits[0] for name, qubits in operations if name == "measure"],
        dtype=np.int64,
    )


def live_bits(operations, num_qubits, seed):
    """What a live tableau driven by ``seed`` measures."""
    simulator = StabilizerSimulator(num_qubits, seed=seed)
    bits = []
    for name, qubits in operations:
        if name == "prep_z":
            simulator.reset(qubits[0])
        elif name == "measure":
            bits.append(simulator.measure(qubits[0]))
        else:
            simulator.apply_gate(name, qubits)
    return np.array(bits, dtype=bool)


def replay_bits(operations, num_qubits, seed, key):
    tableau = ReferenceTableau(np.random.default_rng(seed), key=key)
    tableau.add_qubits(num_qubits)
    bits = tableau.run(operations, measured_qubits(operations))
    return bits, tableau


class TestReferenceTraceKey:
    def test_equivalent_seed_spellings_share_a_key(self):
        cold = BatchedLerExperiment(0.002, 64, windows=2, seed=7)
        cold_counts = cold.run_counts()
        warm = BatchedLerExperiment(
            0.002, 64, windows=2, seed=np.random.SeedSequence(7)
        )
        assert cold.core.simulator.key == warm.core.simulator.key
        assert warm.core.simulator.replaying
        warm_counts = warm.run_counts()
        assert cold_counts.to_json_dict() == warm_counts.to_json_dict()

    def test_seeds_do_not_enter_the_key(self):
        keys = {
            BatchedLerExperiment(0.002, 8, windows=2, seed=seed)
            .core.simulator.key
            for seed in (7, 8, None)
        }
        assert len(keys) == 1

    def test_different_structures_differ(self):
        assert reference_trace_key(
            ("batched_ler", "x", 3, 1, 2)
        ) != reference_trace_key(("batched_ler", "z", 3, 1, 2))


class TestCacheStore:
    def test_store_lookup_roundtrip(self):
        stored = store_reference_trace("k1", make_trace([1, 0, 1]))
        found = lookup_reference_trace("k1")
        assert found is stored
        rng = np.random.default_rng(0)
        assert list(found.evaluate(rng)) == [True, False, True]

    def test_stored_traces_are_frozen(self):
        trace = store_reference_trace("k1", make_trace([1, 0]))
        with pytest.raises(ValueError):
            trace.constants[0] = False

    def test_miss_returns_none(self):
        assert lookup_reference_trace("absent") is None

    def test_clear_reports_held_entries(self):
        store_reference_trace("k1", make_trace([1]))
        store_reference_trace("k2", make_trace([0]))
        assert reference_cache_size() == 2
        assert clear_reference_cache() == 2
        assert reference_cache_size() == 0

    def test_fifo_eviction_is_bounded(self):
        for index in range(REFERENCE_CACHE_CAPACITY + 5):
            store_reference_trace(f"k{index}", make_trace([index & 1]))
        assert reference_cache_size() == REFERENCE_CACHE_CAPACITY
        assert lookup_reference_trace("k0") is None
        assert lookup_reference_trace("k4") is None
        assert lookup_reference_trace("k5") is not None

    def test_hit_miss_telemetry_counters(self):
        with telemetry.enabled() as collector:
            lookup_reference_trace("k")
            store_reference_trace("k", make_trace([1]))
            lookup_reference_trace("k")
        counters = collector.counters[("sim.refcache", "reference_cache")]
        assert counters["misses"] == 1
        assert counters["hits"] == 1


#: A Bell pair measured twice, then a reset and a fresh random outcome.
BELL = [
    ("h", (0,)),
    ("cnot", (0, 1)),
    ("measure", (0,)),
    ("measure", (1,)),
    ("prep_z", (0,)),
    ("h", (0,)),
    ("measure", (0,)),
    ("measure", (0,)),
]


class TestReferenceTableau:
    def test_live_mode_records_nothing(self):
        tableau = ReferenceTableau(np.random.default_rng(0), key=None)
        tableau.add_qubits(1)
        tableau.run([("h", (0,)), ("measure", (0,))], np.array([0]))
        tableau.commit()
        assert reference_cache_size() == 0

    def test_record_then_replay_same_bits(self):
        recorded, recorder = replay_bits(BELL, 2, seed=3, key="k")
        assert not recorder.replaying
        recorder.commit()
        assert np.array_equal(recorded, live_bits(BELL, 2, seed=3))
        for seed in (999, 4, 5):
            replayed, replayer = replay_bits(BELL, 2, seed=seed, key="k")
            assert replayer.replaying
            assert np.array_equal(replayed, live_bits(BELL, 2, seed=seed))

    def test_trace_holds_forms_not_bits(self):
        _, recorder = replay_bits(BELL, 2, seed=3, key="k")
        recorder.commit()
        trace = lookup_reference_trace("k")
        # Two random outcomes (the Bell measurement and the |+>
        # measurement); each repeat measurement copies its form.
        assert trace.num_outcomes == 2
        assert trace.forms.tolist() == [
            [True, False],
            [True, False],
            [False, True],
            [False, True],
        ]

    def test_replay_exhaustion_raises(self):
        _, recorder = replay_bits(BELL[:3], 2, seed=0, key="k")
        recorder.commit()
        with pytest.raises(RuntimeError, match="exhausted or diverged"):
            replay_bits(BELL, 2, seed=1, key="k")

    def test_replay_of_a_different_stream_raises(self):
        _, recorder = replay_bits(BELL, 2, seed=0, key="k")
        recorder.commit()
        diverged = [(name, (1 - q[0],) if name == "measure" else q)
                    for name, q in BELL]
        with pytest.raises(RuntimeError, match="exhausted or diverged"):
            replay_bits(diverged, 2, seed=1, key="k")

    def test_commit_after_replay_is_noop(self):
        _, recorder = replay_bits(BELL, 2, seed=0, key="k")
        recorder.commit()
        stored = lookup_reference_trace("k")
        _, replayer = replay_bits(BELL, 2, seed=8, key="k")
        replayer.commit()
        assert lookup_reference_trace("k") is stored


CLIFFORD_1Q = ("h", "s", "sdg", "x", "y", "z")
CLIFFORD_2Q = ("cnot", "cz", "swap")


@st.composite
def reference_streams(draw):
    """Random Clifford streams with resets and mid-circuit measurements."""
    num_qubits = draw(st.integers(1, 5))
    qubit = st.integers(0, num_qubits - 1)
    single = st.tuples(st.sampled_from(CLIFFORD_1Q), st.tuples(qubit))
    steps = [
        single,
        st.tuples(st.just("prep_z"), st.tuples(qubit)),
        st.tuples(st.just("measure"), st.tuples(qubit)),
    ]
    if num_qubits > 1:
        pair = st.lists(qubit, min_size=2, max_size=2, unique=True)
        steps.append(
            st.tuples(st.sampled_from(CLIFFORD_2Q), pair.map(tuple))
        )
    operations = draw(st.lists(st.one_of(steps), min_size=1, max_size=40))
    return num_qubits, operations


class TestSymbolicReplayDifferential:
    """Recorded under one seed, replayed under others, equal to live."""

    @given(
        reference_streams(),
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
        st.integers(0, 40),
    )
    @settings(deadline=None, max_examples=60)
    def test_replay_matches_live_tableau(
        self, stream, record_seed, replay_seeds, split
    ):
        clear_reference_cache()
        num_qubits, operations = stream
        recorded, recorder = replay_bits(
            operations, num_qubits, record_seed, key="k"
        )
        recorder.commit()
        assert np.array_equal(
            recorded, live_bits(operations, num_qubits, record_seed)
        )
        head, tail = operations[:split], operations[split:]
        for seed in replay_seeds:
            replayer = ReferenceTableau(np.random.default_rng(seed), key="k")
            assert replayer.replaying
            bits = np.concatenate(
                [
                    replayer.run(head, measured_qubits(head)),
                    replayer.run(tail, measured_qubits(tail)),
                ]
            )
            assert np.array_equal(
                bits, live_bits(operations, num_qubits, seed)
            )


class TestBlockDrawPins:
    """The exact regimes draw a circuit's uniforms as blocks: runs of
    consecutive rows, slot after slot."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 300))
    @settings(deadline=None, max_examples=30)
    def test_random_block_equals_consecutive_rows(self, seed, rows, shots):
        block = np.random.default_rng(seed).random((rows, shots))
        sequential = np.random.default_rng(seed)
        expected = np.stack([sequential.random(shots) for _ in range(rows)])
        assert np.array_equal(block, expected)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 40))
    @settings(deadline=None, max_examples=30)
    def test_word_block_equals_consecutive_rows(self, seed, rows, words):
        def draw(rng, shape):
            return rng.integers(0, 1 << 64, size=shape, dtype=np.uint64)

        block = draw(np.random.default_rng(seed), (rows, words))
        sequential = np.random.default_rng(seed)
        expected = np.stack([draw(sequential, words) for _ in range(rows)])
        assert np.array_equal(block, expected)


class TestExperimentIntegration:
    def test_warm_run_is_bit_identical(self):
        cold, cold_replaying = run_ler("framesim")
        warm, warm_replaying = run_ler("framesim")
        assert not cold_replaying
        assert warm_replaying
        assert as_json(cold) == as_json(warm)

    def test_warm_run_of_another_seed_is_bit_identical(self):
        run_ler("framesim", seed=1)
        warm, replaying = run_ler("framesim", seed=2)
        assert replaying
        clear_reference_cache()
        cold, replaying = run_ler("framesim", seed=2)
        assert not replaying
        assert as_json(cold) == as_json(warm)

    def test_trace_is_shared_across_engines(self):
        """The reference stream is independent of the frame stream: a
        trace packed-fast recorded replays framesim's cold run."""
        cold, _ = run_ler("framesim")
        clear_reference_cache()
        _, replaying = run_ler("packed-fast")
        assert not replaying
        warm, replaying = run_ler("framesim")
        assert replaying
        assert as_json(cold) == as_json(warm)

    def test_opt_out_skips_the_cache(self):
        _, replaying = run_ler("framesim", reference_cache=False)
        assert not replaying
        assert reference_cache_size() == 0

    def test_unseeded_runs_share_the_cache(self):
        _, replaying = run_ler("framesim", seed=None)
        assert not replaying
        assert reference_cache_size() == 1
        _, replaying = run_ler("framesim", seed=5)
        assert replaying

    def test_distinct_seeds_share_one_entry(self):
        run_ler("framesim", seed=1)
        run_ler("framesim", seed=2)
        assert reference_cache_size() == 1
