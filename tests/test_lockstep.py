"""Tests for the batched cores' compiled slot plans (repro.qpdo.lockstep).

The cores run each circuit structure through a cached plan: one frame
kernel per same-kind group of a time slot, one uniform block per slot
in the exact regimes.  The reference below is the operation-by-operation
loop the plans replace -- a live tableau plus one kernel call and one
draw per operation and noise channel -- and every engine must match it
bit for bit on random noisy circuits with mixed slots.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import Circuit
from repro.circuits.operation import Operation
from repro.codes.surface17.esm import parallel_esm
from repro.qpdo import BatchedStabilizerCore, PackedStabilizerCore
from repro.qpdo.lockstep import circuit_plan, clear_plan_cache
from repro.sim.framesim import (
    OP_DEPOL1,
    OP_XERR,
    FrameArray,
    NoiseParameters,
    _seed_sequence,
    _slot_noise_events,
)
from repro.sim.packedsim import PackedFrameArray, unpack_bits
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


ENGINES = {
    "framesim": lambda shots, noise, seed: BatchedStabilizerCore(
        shots, noise=noise, seed=seed
    ),
    "packed": lambda shots, noise, seed: PackedStabilizerCore(
        shots, noise=noise, seed=seed
    ),
    "packed-fast": lambda shots, noise, seed: PackedStabilizerCore(
        shots, noise=noise, seed=seed, rng_mode="fast"
    ),
}


def loop_frames(engine, shots):
    if engine == "framesim":
        return FrameArray(shots, 0)
    mode = "fast" if engine == "packed-fast" else "exact"
    return PackedFrameArray(shots, 0, rng_mode=mode)


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
        noise = NoiseParameters(0.2, active_qubits=active)
        circuits = [
            random_circuit(rng, num_qubits) for _ in range(3)
        ]

        core = ENGINES[engine](shots, noise, seed)
        core.createqubit(num_qubits)
        reference_ss, frame_ss = _seed_sequence(seed).spawn(2)
        reference = StabilizerSimulator(
            num_qubits, rng=np.random.default_rng(reference_ss)
        )
        frame_rng = np.random.default_rng(frame_ss)
        frames = loop_frames(engine, shots)
        frames.add_qubits(num_qubits, frame_rng)

        for circuit in circuits:
            result = core.run(circuit)
            expected = loop_execute(
                frames, reference, frame_rng, noise, circuit, num_qubits
            )
            assert sorted(expected) == sorted(result.measurements)
            for uid, bits in expected.items():
                op = next(
                    o for o in circuit.operations() if o.uid == uid
                )
                assert np.array_equal(result.bits_of(op), bits)
            mask = rng.random(shots) < 0.5
            core.inject_depolarizing(range(num_qubits), shot_mask=mask)
            frames.depolarize1(
                np.arange(num_qubits), 0.2, frame_rng, shot_mask=mask
            )


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

    def test_non_clifford_gate_refused_at_execute(self):
        circuit = Circuit("t")
        circuit.append(Operation("t", (0,)))
        core = BatchedStabilizerCore(4, seed=1)
        core.createqubit(1)
        core.add(circuit)
        with pytest.raises(ValueError, match="non-Clifford"):
            core.execute()
