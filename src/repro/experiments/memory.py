"""Circuit-level memory experiments for distance-d rotated codes.

The paper's future work (ch. 6) proposes to "repeat these experiments
using a larger distance surface code" -- with decoders "suitable for
larger surface codes".  This module runs them on
:class:`~repro.codes.rotated.layout.RotatedSurfaceCode`, whose lattice
(register, ESM round, preparation, logical probe and a Blossom window
decoder) it supplies to the SC17 machinery of
:mod:`repro.experiments.ler`.

Two protocols are provided:

* :class:`CircuitLevelMemoryExperiment` -- Listing 5.7 itself: it is
  :class:`~repro.experiments.ler.LerExperiment`'s loop on the rotated
  lattice and has no loop of its own.  Its fixed three-round vote
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

import functools
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.operation import Operation
from ..codes.rotated.esm import parallel_esm, total_qubits
from ..codes.rotated.layout import RotatedSurfaceCode
from ..decoders.rule_based import WindowedMatchingDecoder
from ..qpdo.cores import StabilizerCore
from ..qpdo.error_layer import DepolarizingErrorLayer
from .ler import DEFAULT_ROUNDS_PER_WINDOW, Lattice, LerExperiment


@dataclass
class MemoryResult:
    """Outcome of one block-protocol memory run."""

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


def _rotated_lattice(code: RotatedSurfaceCode) -> Lattice:
    """A rotated code as Listing 5.7 reads it, its windows decoded by
    Blossom matching."""
    return Lattice(
        num_qubits=total_qubits(code),
        num_data=code.num_data,
        z_logical=code.logical_z_support(),
        x_logical=code.logical_x_support(),
        esm=functools.partial(parallel_esm, code),
        window_decoder=functools.partial(WindowedMatchingDecoder, code),
        decoder="mwpm",
    )


class CircuitLevelMemoryExperiment(LerExperiment):
    """The SC17 LER protocol on a rotated code of any odd distance.

    :class:`~repro.experiments.ler.LerExperiment`'s own loop on the
    rotated lattice, with ``d`` initialization rounds.  Only X-error
    memory (``|0>_L``, probing the ``Z_L`` chain) is run here -- the
    Z-error variant is symmetric under the code's duality.
    """

    def __init__(
        self,
        distance: int,
        physical_error_rate: float,
        use_pauli_frame: bool = False,
        max_logical_errors: int = 10,
        max_windows: int = 1_000_000,
        seed: Optional[int] = None,
        rounds_per_window: int = DEFAULT_ROUNDS_PER_WINDOW,
    ) -> None:
        self.code = RotatedSurfaceCode(distance)
        self.lattice = _rotated_lattice(self.code)
        super().__init__(
            physical_error_rate,
            use_pauli_frame,
            max_logical_errors=max_logical_errors,
            max_windows=max_windows,
            seed=seed,
            rounds_per_window=rounds_per_window,
            init_rounds=self.code.distance,
        )


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
        self.lattice = _rotated_lattice(self.code)
        self.physical_error_rate = float(physical_error_rate)
        self.rounds = int(rounds) if rounds is not None else distance
        num_qubits = self.lattice.num_qubits
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

    def run_trial(self) -> bool:
        """One block; returns ``True`` on a logical X error."""
        prepare = self.lattice.preparation("x")
        prepare.bypass = True
        self.top.add(prepare)
        self.top.execute()
        history = [
            self.lattice.measure_syndrome(self.top, bypass).z_syndrome
            for bypass in [False] * self.rounds + [True]
        ]
        correction = self.decoder.decode_history(history)
        if correction.any():
            fixup = Circuit("fixup", bypass=True)
            slot = fixup.new_slot()
            for data in np.flatnonzero(correction):
                slot.add(Operation("x", (int(data),)))
            self.top.add(fixup)
            self.top.execute()
        return self.lattice.measure_logical(self.top, "x") == 1

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
