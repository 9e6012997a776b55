"""The shared Core interface of QPDO control stacks (paper Table 4.1).

Every element of a control stack -- the simulation core at the bottom
and every layer above it -- implements the same small interface:

=================== =================================================
``createqubit(n)``   allocate new qubits
``removequbit(n)``   remove existing qubits
``add(circuit)``     queue a quantum circuit
``execute()``        execute the queued circuits
``getstate()``       retrieve the binary state of the qubits
``getquantumstate()``retrieve the quantum state (if supported)
=================== =================================================

Because layers and cores are interchangeable behind this interface,
stacks can be assembled freely: a Pauli frame layer can sit on either
back-end, counter layers can be inserted anywhere, and a test bench
only ever talks to the top of the stack (Fig. 4.3).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict

from ..circuits.circuit import Circuit
from ..circuits.operation import Operation
from ..sim.state import QuantumState, State

#: Capability name for :meth:`Core.getquantumstate` availability.
CAP_QUANTUM_STATE = "getquantumstate"
#: Capability name for lockstep multi-shot (batched) execution.
CAP_BATCH = "batch"
#: Capability name for executing non-Clifford gates (t, rz, ...).
#: Stabilizer back-ends lack it; the state-vector core provides it.
#: The pre-flight verifier (:mod:`repro.analysis`) checks a circuit's
#: static Clifford classification against this capability before
#: anything runs.
CAP_NON_CLIFFORD = "non_clifford"


class UnsupportedFeatureError(RuntimeError):
    """The back-end cannot provide the requested capability.

    Raised e.g. when ``getquantumstate`` is called on a stabilizer
    core, mirroring the paper's note that the quantum state "can only
    be retrieved if a simulation back-end is used that supports
    outputting a quantum state" (section 4.2.2).
    """


@dataclass
class ExecutionResult:
    """Everything that travels back up the stack after ``execute()``.

    Attributes
    ----------
    measurements:
        Operation ``uid`` -> observed bit.  Keyed by uid so results
        survive circuit rewriting by intermediate layers.
    """

    measurements: Dict[int, int] = field(default_factory=dict)

    def result_of(self, operation: Operation) -> int:
        """The measured bit of ``operation`` (must be a measurement)."""
        return self.measurements[operation.uid]

    def signed_result_of(self, operation: Operation) -> int:
        """The result as a ±1 eigenvalue (+1 for bit 0)."""
        return -1 if self.measurements[operation.uid] else 1

    def merge(self, other: "ExecutionResult") -> None:
        """Absorb another result set (later executions of one batch)."""
        self.measurements.update(other.measurements)


class Core(abc.ABC):
    """Abstract shared interface between all stack elements."""

    @abc.abstractmethod
    def createqubit(self, size: int = 1) -> int:
        """Allocate ``size`` new qubits; returns the first new index."""

    @abc.abstractmethod
    def removequbit(self, size: int = 1) -> None:
        """Remove the ``size`` most recently allocated qubits."""

    @abc.abstractmethod
    def add(self, circuit: Circuit) -> None:
        """Queue a circuit for execution."""

    @abc.abstractmethod
    def execute(self) -> ExecutionResult:
        """Execute all queued circuits in order."""

    @abc.abstractmethod
    def getstate(self) -> State:
        """Binary (0/1/x) values of all qubits."""

    def getquantumstate(self) -> QuantumState:
        """Full quantum state; optional capability."""
        raise UnsupportedFeatureError(
            f"{type(self).__name__} cannot produce a quantum state"
        )

    def supports(self, capability: str) -> bool:
        """Whether this stack element provides an optional capability.

        Callers should query this instead of provoking (and catching)
        :class:`UnsupportedFeatureError`.  Known capability names are
        :data:`CAP_QUANTUM_STATE`, :data:`CAP_BATCH` and
        :data:`CAP_NON_CLIFFORD`; unknown names simply report
        ``False``.
        """
        return False

    @property
    @abc.abstractmethod
    def num_qubits(self) -> int:
        """Number of currently allocated qubits."""

    # Convenience -------------------------------------------------------
    def run(self, circuit: Circuit) -> ExecutionResult:
        """``add`` + ``execute`` in one call."""
        self.add(circuit)
        return self.execute()
