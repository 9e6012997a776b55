"""Quantum simulators and shared state structures (paper section 4.1)."""

from .framesim import FrameArray, NoiseParameters
from .packedsim import PackedFrameArray, num_words, pack_bits, unpack_bits
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
    "NoiseParameters",
    "PackedFrameArray",
    "num_words",
    "pack_bits",
    "unpack_bits",
]
