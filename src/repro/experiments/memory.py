"""Circuit-level memory experiment for distance-d rotated codes.

The paper's future work (ch. 6) proposes to "repeat these experiments
using a larger distance surface code" -- with decoders "suitable for
larger surface codes".  This module is that experiment: the same
window loop, diagnostic probes and Pauli-frame plumbing as the SC17
LER study (:mod:`repro.experiments.ler`), generalised over
:class:`~repro.codes.rotated.layout.RotatedSurfaceCode` and decoded by
the windowed MWPM decoder.

Two protocols are provided:

* :class:`CircuitLevelMemoryExperiment` -- the literal SC17 window
  protocol generalised to any distance.  Its fixed three-round vote
  caps the *temporal* distance, so ``d = 5`` gains nothing over
  ``d = 3`` under it -- an instructive negative result about shallow
  decoding windows (kept, and asserted, in the test suite).
* :class:`CircuitLevelBlockExperiment` -- the standard block protocol
  (``d`` noisy rounds + one reliable round, decoded in one space-time
  MWPM pass).  This is the protocol that answers the future-work
  question: below threshold the ``d = 5`` block failure rate drops
  below the ``d = 3`` one despite the longer exposure, while the Pauli
  frame's possible LER gain stays bounded by ``1/((d-1)*8+1)``
  (Fig. 5.27).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.operation import Operation
from ..codes.rotated.esm import parallel_esm, total_qubits
from ..codes.rotated.layout import RotatedSurfaceCode
from ..decoders.lut import correction_operations
from ..decoders.rule_based import SyndromeRound, WindowedMatchingDecoder
from ..qpdo.cores import StabilizerCore
from ..qpdo.counter_layer import CounterLayer
from ..qpdo.error_layer import DepolarizingErrorLayer
from ..qpdo.pauli_frame_layer import PauliFrameLayer


@dataclass
class MemoryResult:
    """Outcome of one circuit-level memory run."""

    distance: int
    physical_error_rate: float
    use_pauli_frame: bool
    windows: int = 0
    logical_errors: int = 0
    clean_windows: int = 0

    @property
    def logical_error_rate(self) -> float:
        """``P_L = m / R`` (Eq. 5.1)."""
        if self.windows == 0:
            return 0.0
        return self.logical_errors / self.windows


class CircuitLevelMemoryExperiment:
    """The SC17 LER protocol on a rotated code of any odd distance.

    Parameters mirror :class:`~repro.experiments.ler.LerExperiment`;
    only X-error memory (``|0>_L``, probing the ``Z_L`` chain) is run
    here -- the Z-error variant is symmetric under the code's duality.
    """

    def __init__(
        self,
        distance: int,
        physical_error_rate: float,
        use_pauli_frame: bool = False,
        max_logical_errors: int = 10,
        max_windows: int = 1_000_000,
        seed: Optional[int] = None,
        rounds_per_window: int = 2,
    ) -> None:
        self.code = RotatedSurfaceCode(distance)
        self.physical_error_rate = float(physical_error_rate)
        self.use_pauli_frame = bool(use_pauli_frame)
        self.max_logical_errors = int(max_logical_errors)
        self.max_windows = int(max_windows)
        self.rounds_per_window = int(rounds_per_window)
        num_qubits = total_qubits(self.code)
        self.probe_ancilla = num_qubits
        rng = np.random.default_rng(seed)
        self.core = StabilizerCore(rng=rng)
        self.core.createqubit(num_qubits + 1)
        error_layer = DepolarizingErrorLayer(
            self.core,
            probability=self.physical_error_rate,
            rng=rng,
            active_qubits=range(num_qubits),
        )
        element = CounterLayer(error_layer)
        if self.use_pauli_frame:
            element = PauliFrameLayer(element)
        self.top = element
        self.decoder = WindowedMatchingDecoder(self.code)
        self._reference: Optional[int] = None

    # ------------------------------------------------------------------
    def _esm_round(self, bypass: bool = False) -> SyndromeRound:
        esm = parallel_esm(self.code)
        esm.circuit.bypass = bypass
        self.top.add(esm.circuit)
        result = self.top.execute()
        x_bits, z_bits = esm.syndromes(result)
        return SyndromeRound.from_bits(x_bits, z_bits)

    def _apply_corrections(self, decision) -> None:
        gates = correction_operations(
            decision.x_corrections,
            decision.z_corrections,
            list(range(self.code.num_data)),
        )
        if not gates:
            return
        circuit = Circuit("corrections")
        slot = circuit.new_slot()
        for gate, physical in gates:
            slot.add(Operation(gate, (physical,)))
        self.top.add(circuit)
        self.top.execute()

    def _probe_logical_z(self) -> int:
        circuit = Circuit("probe", bypass=True)
        circuit.add("prep_z", self.probe_ancilla)
        for data in self.code.logical_z_support():
            circuit.add("cnot", data, self.probe_ancilla)
        measure = circuit.add("measure", self.probe_ancilla)
        self.top.add(circuit)
        return self.top.execute().result_of(measure)

    # ------------------------------------------------------------------
    def initialize(self) -> None:
        """Noisy FT preparation of ``|0>_L`` + windowed decoding."""
        prepare = Circuit("prepare")
        slot = prepare.new_slot()
        for data in range(self.code.num_data):
            slot.add(Operation("prep_z", (data,)))
        self.top.add(prepare)
        self.top.execute()
        init_rounds = self.code.distance
        if init_rounds % 2 == 0:
            init_rounds += 1
        rounds = [self._esm_round() for _ in range(init_rounds)]
        self.decoder.reset()
        decision = self.decoder.initialize(rounds)
        self._apply_corrections(decision)
        self._reference = self._probe_logical_z()

    def run(self) -> MemoryResult:
        """Execute the Listing 5.7 loop at this distance."""
        self.initialize()
        windows = 0
        logical_errors = 0
        clean_windows = 0
        while (
            logical_errors < self.max_logical_errors
            and windows < self.max_windows
        ):
            rounds = [
                self._esm_round()
                for _ in range(self.rounds_per_window)
            ]
            decision = self.decoder.decode_window(rounds)
            self._apply_corrections(decision)
            windows += 1
            if self._esm_round(bypass=True).is_trivial():
                clean_windows += 1
                eigenvalue = self._probe_logical_z()
                if eigenvalue != self._reference:
                    logical_errors += 1
                self._reference = eigenvalue
        return MemoryResult(
            distance=self.code.distance,
            physical_error_rate=self.physical_error_rate,
            use_pauli_frame=self.use_pauli_frame,
            windows=windows,
            logical_errors=logical_errors,
            clean_windows=clean_windows,
        )


def run_circuit_level_scaling(
    distances=(3, 5),
    physical_error_rate: float = 2e-3,
    max_logical_errors: int = 5,
    seed: int = 0,
    max_windows: int = 200_000,
) -> List[MemoryResult]:
    """LER at several distances, fixed PER (the future-work question)."""
    results = []
    for distance in distances:
        experiment = CircuitLevelMemoryExperiment(
            distance,
            physical_error_rate,
            max_logical_errors=max_logical_errors,
            seed=seed + distance,
            max_windows=max_windows,
        )
        results.append(experiment.run())
    return results


class CircuitLevelBlockExperiment:
    """Block-decoded circuit-level memory (space-time matching).

    The windowed experiment above mirrors the paper's SC17 protocol,
    but its fixed three-round vote caps the *temporal* distance, so it
    cannot show the ``d = 5`` advantage the future work asks about.
    This variant runs the standard block protocol instead: per trial,
    a perfect preparation, ``d`` noisy ESM rounds under circuit-level
    depolarizing noise, one reliable round, and a single space-time
    MWPM decode of the whole history (X-error species only; the state
    is ``|0>_L``, probed through ``Z_L``).
    """

    def __init__(
        self,
        distance: int,
        physical_error_rate: float,
        seed: Optional[int] = None,
        rounds: Optional[int] = None,
        decoder: str = "mwpm",
    ) -> None:
        from ..decoders.mwpm import boundary_qubits_for
        from ..decoders.registry import get_decoder

        self.code = RotatedSurfaceCode(distance)
        self.physical_error_rate = float(physical_error_rate)
        self.rounds = int(rounds) if rounds is not None else distance
        num_qubits = total_qubits(self.code)
        self.probe_ancilla = num_qubits
        rng = np.random.default_rng(seed)
        self.core = StabilizerCore(rng=rng)
        self.core.createqubit(num_qubits + 1)
        self.error_layer = DepolarizingErrorLayer(
            self.core,
            probability=self.physical_error_rate,
            rng=rng,
            active_qubits=range(num_qubits),
        )
        self.top = self.error_layer
        spec = get_decoder(decoder)
        self.decoder_name = spec.name
        self.decoder = spec.build_spacetime(
            self.code.z_check_matrix, boundary_qubits_for(self.code, "z")
        )

    # ------------------------------------------------------------------
    def _esm_round(self, bypass: bool) -> List[int]:
        esm = parallel_esm(self.code)
        esm.circuit.bypass = bypass
        self.top.add(esm.circuit)
        result = self.top.execute()
        _x_bits, z_bits = esm.syndromes(result)
        return z_bits

    def _probe_logical_z(self) -> int:
        circuit = Circuit("probe", bypass=True)
        circuit.add("prep_z", self.probe_ancilla)
        for data in self.code.logical_z_support():
            circuit.add("cnot", data, self.probe_ancilla)
        measure = circuit.add("measure", self.probe_ancilla)
        self.top.add(circuit)
        return self.top.execute().result_of(measure)

    def run_trial(self) -> bool:
        """One block; returns ``True`` on a logical X error."""
        prepare = Circuit("prepare", bypass=True)
        slot = prepare.new_slot()
        for data in range(self.code.num_data):
            slot.add(Operation("prep_z", (data,)))
        self.top.add(prepare)
        self.top.execute()
        history = [
            self._esm_round(bypass=False) for _ in range(self.rounds)
        ]
        history.append(self._esm_round(bypass=True))
        correction = self.decoder.decode_history(history)
        if correction.any():
            fixup = Circuit("fixup", bypass=True)
            slot = fixup.new_slot()
            for data in np.flatnonzero(correction):
                slot.add(Operation("x", (int(data),)))
            self.top.add(fixup)
            self.top.execute()
        return self._probe_logical_z() == 1

    def estimate_ler(self, trials: int) -> MemoryResult:
        """Logical X error probability per ``rounds``-round block."""
        logical_errors = sum(
            1 for _ in range(trials) if self.run_trial()
        )
        return MemoryResult(
            distance=self.code.distance,
            physical_error_rate=self.physical_error_rate,
            use_pauli_frame=False,
            windows=trials,
            logical_errors=logical_errors,
            clean_windows=0,
        )


def run_block_scaling(
    distances=(3, 5),
    physical_error_rate: float = 1e-3,
    trials: int = 300,
    seed: int = 0,
    decoder: str = "mwpm",
) -> List[MemoryResult]:
    """Block-protocol LER at several distances (future-work answer).

    Each distance runs blocks of ``d`` noisy rounds, so the exposure
    per trial grows with ``d``; below threshold the larger code must
    nevertheless end up with the *lower* block failure rate.
    ``decoder`` names any space-time-capable registry decoder
    (``"mwpm"`` keeps the historic Blossom behaviour bit-for-bit;
    ``"unionfind"`` / ``"sparse-mwpm"`` unlock d > 7, where the ESM
    sampler rather than the decoder becomes the ceiling).
    """
    results = []
    for distance in distances:
        experiment = CircuitLevelBlockExperiment(
            distance,
            physical_error_rate,
            seed=seed + distance,
            decoder=decoder,
        )
        results.append(experiment.estimate_ler(trials))
    return results
