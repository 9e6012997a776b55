"""Quantum simulators and shared state structures (paper section 4.1)."""

from .framesim import (
    BatchedFrameSampler,
    FrameArray,
    FrameProgram,
    NoiseParameters,
    compile_frame_program,
    sample_circuit,
)
from .packedsim import (
    PackedFrameArray,
    PackedFrameSampler,
    num_words,
    pack_bits,
    popcount_words,
    sample_circuit_packed,
    unpack_bits,
)
from .stabilizer import StabilizerSimulator
from .state import (
    BinaryValue,
    QuantumState,
    State,
    basis_state_label,
    index_from_bits,
)
from .statevector import StateVectorSimulator

__all__ = [
    "BinaryValue",
    "State",
    "QuantumState",
    "basis_state_label",
    "index_from_bits",
    "StabilizerSimulator",
    "StateVectorSimulator",
    "FrameArray",
    "FrameProgram",
    "NoiseParameters",
    "BatchedFrameSampler",
    "compile_frame_program",
    "sample_circuit",
    "PackedFrameArray",
    "PackedFrameSampler",
    "sample_circuit_packed",
    "num_words",
    "pack_bits",
    "unpack_bits",
    "popcount_words",
]
