"""Tests for the lockstep core's compiled slot plans (repro.qpdo.lockstep).

The core runs each circuit structure through a cached plan: one frame
kernel per same-kind group of a time slot (packed-fast), or, in the
exact regime (framesim), the plan's GF(2) frame map.  The reference
below is the operation-by-operation loop the plans replace -- a live
tableau plus one kernel call and one draw per operation and noise
channel, on the bool ``FrameArray`` kernels for framesim -- and every
engine must match it bit for bit on random noisy circuits with mixed
slots, under per-shot Pauli feedback and shot-masked noise.
:func:`repro.qpdo.sample`, the one-call sampler, must return exactly
what a core run by hand measures, in the circuit's measurement order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import Circuit
from repro.circuits.operation import Operation
from repro.codes.surface17.esm import parallel_esm
from repro.experiments.ler import ENGINES
from repro.qpdo import PackedExecutionResult, PackedStabilizerCore, sample
from repro.qpdo.lockstep import circuit_plan, clear_plan_cache
from repro.sim.framesim import (
    OP_DEPOL1,
    OP_XERR,
    FrameArray,
    NoiseParameters,
    _seed_sequence,
    _slot_noise_events,
)
from repro.sim.packedsim import PackedFrameArray, pack_bits, unpack_bits
from repro.sim.stabilizer import StabilizerSimulator

SINGLE = ("h", "s", "sdg", "x", "y", "z", "i", "prep_z", "measure")
PAIRS = ("cnot", "cz", "swap")


def random_circuit(rng, num_qubits):
    """Random slots mixing resets, measurements, gates and idles."""
    circuit = Circuit("random", bypass=bool(rng.random() < 0.2))
    for _ in range(int(rng.integers(1, 7))):
        slot = circuit.new_slot()
        free = list(rng.permutation(num_qubits))
        while free and rng.random() < 0.8:
            if len(free) > 1 and rng.random() < 0.4:
                pair = (int(free.pop()), int(free.pop()))
                slot.add(Operation(PAIRS[rng.integers(3)], pair))
            else:
                name = SINGLE[rng.integers(len(SINGLE))]
                slot.add(Operation(name, (int(free.pop()),)))
    return circuit


def loop_execute(frames, reference, rng, noise, circuit, num_qubits):
    """Per-shot outcome bits of ``circuit``, one operation at a time."""
    noisy = noise.probability > 0.0 and not circuit.bypass
    active = noise.active_set(num_qubits) if noisy else set()
    packed = isinstance(frames, PackedFrameArray)

    def inject(events):
        for event in events:
            if event[0] == OP_XERR:
                frames.xerr(event[1], noise.probability, rng)
            elif event[0] == OP_DEPOL1:
                frames.depolarize1(event[1], noise.probability, rng)
            else:
                frames.depolarize2(
                    event[1], event[2], noise.probability, rng
                )

    bits = {}
    for slot in circuit:
        pre, post = (
            _slot_noise_events(slot, active, num_qubits)
            if noisy
            else ([], [])
        )
        inject(pre)
        for operation in slot:
            name, qubits = operation.name, operation.qubits
            if operation.is_preparation:
                reference.reset(qubits[0])
                frames.reset(qubits[0], rng)
            elif operation.is_measurement:
                bit = reference.measure(qubits[0])
                flips = frames.measure_flips(qubits[0], rng)
                if packed:
                    flips = unpack_bits(flips, frames.num_shots)
                bits[operation.uid] = flips ^ bool(bit)
            else:
                reference.apply_gate(name, qubits)
                if name in ("h", "s"):
                    getattr(frames, name)(qubits[0])
                elif name == "sdg":
                    frames.s(qubits[0])
                elif name in PAIRS:
                    getattr(frames, name)(*qubits)
        inject(post)
    return bits


def loop_frames(engine, shots):
    """The loop's frames: bool columns for the exact stream."""
    if engine == "framesim":
        return FrameArray(shots, 0)
    return PackedFrameArray(shots, 0, rng_mode="fast")


class LoopCore:
    """The operation loop behind the core's experiment-facing surface.

    ``BatchedLerExperiment`` runs on it in place of its core: a live
    tableau plus the loop frames of ``engine``, seeded like the core,
    one kernel call and one draw per operation and noise channel.
    """

    def __init__(self, engine, shots, noise, seed, num_qubits):
        reference_ss, frame_ss = _seed_sequence(seed).spawn(2)
        self.reference = StabilizerSimulator(
            num_qubits, rng=np.random.default_rng(reference_ss)
        )
        self.rng = np.random.default_rng(frame_ss)
        self.frames = loop_frames(engine, shots)
        self.frames.add_qubits(num_qubits, self.rng)
        self.noise = noise

    def run(self, circuit):
        bits = loop_execute(
            self.frames,
            self.reference,
            self.rng,
            self.noise,
            circuit,
            self.frames.num_qubits,
        )
        result = PackedExecutionResult(num_shots=self.frames.num_shots)
        for uid, row in bits.items():
            result.bit_words[uid] = pack_bits(row)
            result.measurements[uid] = int(row[0])
        return result

    def apply_pauli_frame(self, x_mask, z_mask):
        self.frames.apply_pauli_masks(x_mask, z_mask)

    def inject_depolarizing(self, qubits, shot_mask=None, shards=None):
        # One shard, so a call is made only when it draws.
        assert shards is None or list(shards) == [True]
        self.frames.depolarize1(
            np.array(list(qubits)),
            self.noise.probability,
            self.rng,
            shot_mask=shot_mask,
        )

    def commit_reference_trace(self):
        pass


#: Noise rates of the random-circuit examples; 0.9 reaches the caps of
#: the error-kind arithmetic.
RATES = (1e-3, 0.05, 0.2, 0.9)


def check_against_loop(engine, seed, noise, circuits, shape, rng):
    """Run ``circuits`` on a fresh core and on the operation loop.

    Outcome words must match bit for bit, tails included, and the
    scalar ``measurements`` must be shot 0's.  After each circuit both
    sides take the same random Pauli feedback and shot-masked
    depolarizing slot.  Returns the core and its last result.
    """
    shots, num_qubits = shape
    core = PackedStabilizerCore(
        shots, noise=noise, seed=seed, rng_mode=ENGINES[engine]
    )
    core.createqubit(num_qubits)
    loop = LoopCore(engine, shots, noise, seed, num_qubits)
    for circuit in circuits:
        result = core.run(circuit)
        expected = loop.run(circuit)
        assert result.measurements == expected.measurements
        for uid, words in expected.bit_words.items():
            assert np.array_equal(result.bit_words[uid], words)
        x_mask = rng.random((shots, num_qubits)) < 0.3
        z_mask = rng.random((shots, num_qubits)) < 0.3
        mask = rng.random(shots) < 0.5
        for side in (core, loop):
            side.apply_pauli_frame(x_mask, z_mask)
            side.inject_depolarizing(range(num_qubits), shot_mask=mask)
    return core, result


class TestPlansMatchTheOperationLoop:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=40)
    def test_random_circuits_bit_identical(self, engine, seed):
        rng = np.random.default_rng(seed)
        num_qubits = int(rng.integers(2, 6))
        shots = int(rng.integers(1, 140))
        active = (
            None
            if rng.random() < 0.5
            else rng.choice(num_qubits, size=num_qubits - 1, replace=False)
        )
        circuits = [
            random_circuit(rng, num_qubits) for _ in range(3)
        ]
        # Two cores at two rates share the circuits' compiled plans,
        # whose cache key has no rate.
        for probability in rng.choice(RATES, size=2, replace=False):
            noise = NoiseParameters(
                float(probability), active_qubits=active
            )
            check_against_loop(
                engine, seed, noise, circuits, (shots, num_qubits), rng
            )


class TestSample:
    @pytest.mark.parametrize("num_shots", (1, 63, 64, 65))
    @pytest.mark.parametrize("rng_mode", sorted(ENGINES.values()))
    def test_sample_is_the_core_in_measurement_order(
        self, rng_mode, num_shots
    ):
        circuit = parallel_esm(list(range(17)), name="esm").circuit
        noise = NoiseParameters(8e-3, active_qubits=range(17))
        core = PackedStabilizerCore(
            num_shots, noise=noise, seed=5, rng_mode=rng_mode
        )
        core.createqubit(17)
        result = core.run(circuit)
        measurements = [op for op in circuit.operations() if op.is_measurement]
        expected = np.stack(
            [result.bits_of(m) for m in measurements], axis=1
        )

        def draw(circuit, **kwargs):
            return sample(
                circuit,
                num_shots,
                seed=5,
                noise=noise,
                rng_mode=rng_mode,
                **kwargs,
            )

        assert np.array_equal(draw(circuit), expected)
        assert np.array_equal(draw(circuit), draw(circuit))
        silent = Circuit("silent")
        silent.add("prep_z", 0)
        silent.add("h", 0)
        silent.add("cnot", 0, 1)
        assert draw(silent).shape == (num_shots, 0)
        with pytest.raises(ValueError, match="allocated"):
            draw(circuit, num_qubits=circuit.max_qubit())


class TestPlanCache:
    def setup_method(self):
        clear_plan_cache()

    def test_one_plan_per_structure(self):
        noise = NoiseParameters(1e-3, active_qubits=range(17))
        first = parallel_esm(list(range(17))).circuit
        second = parallel_esm(list(range(17))).circuit
        assert circuit_plan(first, noise, 18) is circuit_plan(
            second, noise, 18
        )
        bypass = parallel_esm(list(range(17))).circuit
        bypass.bypass = True
        assert circuit_plan(bypass, noise, 18) is not circuit_plan(
            first, noise, 18
        )
        assert clear_plan_cache() == 2

    def test_esm_slots_group_their_kernels(self):
        noise = NoiseParameters(1e-3, active_qubits=range(17))
        plan = circuit_plan(parallel_esm(list(range(17))).circuit, noise, 18)
        # Slot 3 of Table 5.8: one CNOT group, its two-qubit noise and
        # the idle noise of the qubits this step leaves out.
        kinds = [(k.kind, k.method) for k in plan.slots[2].kernels]
        assert kinds == [
            ("gate", "cnot"),
            ("noise", "depolarize2"),
            ("noise", "depolarize1"),
        ]
        # Measurement slot: pre-slot flips, the gauges, the idles.
        last = plan.slots[-1]
        assert [k.method for k in last.kernels] == [
            "xerr", "measure_flips", "depolarize1",
        ]
        assert last.rows == 8 + 8 + 9
