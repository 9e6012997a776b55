"""QPDO-style layered control-stack framework (paper chapter 4)."""

from .core import Core, ExecutionResult, UnsupportedFeatureError
from .cores import StabilizerCore, StateVectorCore
from .counter_layer import CounterLayer, StreamCounts
from .error_layer import (
    TWO_QUBIT_ERRORS,
    DepolarizingErrorLayer,
    ErrorCounts,
)
from .layer import ControlStack, Layer
from .packed_core import (
    PackedExecutionResult,
    PackedStabilizerCore,
    Shard,
    sample,
)
from .pauli_frame_layer import PauliFrameLayer
from .testbench import (
    BellStateHistoTb,
    RandomCircuitTb,
    GateSupportReport,
    GateSupportTb,
    TestBench,
)

__all__ = [
    "Core",
    "ExecutionResult",
    "UnsupportedFeatureError",
    "StabilizerCore",
    "StateVectorCore",
    "PackedStabilizerCore",
    "Shard",
    "PackedExecutionResult",
    "sample",
    "Layer",
    "ControlStack",
    "CounterLayer",
    "StreamCounts",
    "DepolarizingErrorLayer",
    "ErrorCounts",
    "TWO_QUBIT_ERRORS",
    "PauliFrameLayer",
    "TestBench",
    "BellStateHistoTb",
    "GateSupportTb",
    "GateSupportReport",
    "RandomCircuitTb",
]
