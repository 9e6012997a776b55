"""Phenomenological-noise LER for distance-d surface codes.

Extends the future-work programme of the paper's ch. 6 with the
standard phenomenological model: per syndrome round every data qubit
suffers an X error with probability ``p`` *and* every syndrome bit is
misread with probability ``q`` (``q = p`` by default).  Decoding uses
the space-time MWPM decoder over ``d`` noisy rounds plus one reliable
round (the transversal readout round).

This is the realistic middle ground between the circuit-level QPDO
simulation of SC17 (exact but slow, 17 qubits) and the code-capacity
Monte Carlo (fast but measurement-error-blind, any distance): it
exhibits the ~3% phenomenological threshold and genuine distance
scaling with noisy measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..codes.rotated.layout import RotatedSurfaceCode
from ..decoders.mwpm import boundary_qubits_for


@dataclass
class PhenomenologicalResult:
    """Monte-Carlo outcome for one (distance, p, q) point."""

    distance: int
    data_error_rate: float
    measurement_error_rate: float
    trials: int
    logical_errors: int

    @property
    def logical_error_rate(self) -> float:
        """Estimated logical X error rate per decoding cycle."""
        if self.trials == 0:
            return 0.0
        return self.logical_errors / self.trials


class PhenomenologicalSimulator:
    """Monte-Carlo engine: d noisy rounds + 1 reliable round per trial.

    ``decoder`` names a space-time-capable registry decoder
    (:mod:`repro.decoders.registry`): ``"mwpm"`` (default, Blossom),
    ``"unionfind"`` or ``"sparse-mwpm"``.  All of a Monte-Carlo
    batch's histories are decoded at once (with identical-syndrome
    dedupe) -- this is what makes d >= 15 sweeps tractable -- and a
    given ``(seed, decoder)`` pair reproduces bit-for-bit.
    """

    def __init__(self, distance: int, decoder: str = "mwpm"):
        from ..decoders.registry import get_decoder

        self.code = RotatedSurfaceCode(distance)
        spec = get_decoder(decoder)
        self.decoder_name = spec.name
        self.decoder = spec.build_spacetime(
            self.code.z_check_matrix, boundary_qubits_for(self.code, "z")
        )
        self._z_logical_mask = np.zeros(self.code.num_data, dtype=bool)
        for qubit in self.code.logical_z_support():
            self._z_logical_mask[qubit] = True

    def _sample_trial(
        self,
        data_error_rate: float,
        measurement_error_rate: float,
        rng: np.random.Generator,
        rounds: int,
    ) -> tuple:
        """Draw one trial's syndrome history and cumulative error."""
        num_data = self.code.num_data
        z_matrix = self.code.z_check_matrix
        cumulative = np.zeros(num_data, dtype=np.uint8)
        history: List[np.ndarray] = []
        for _ in range(rounds):
            fresh = (rng.random(num_data) < data_error_rate).astype(
                np.uint8
            )
            cumulative ^= fresh
            syndrome = (z_matrix @ cumulative) % 2
            flips = (
                rng.random(z_matrix.shape[0]) < measurement_error_rate
            ).astype(np.uint8)
            history.append(syndrome ^ flips)
        # Final reliable round (transversal readout re-derives exact
        # parities from the measured data bits).
        history.append((z_matrix @ cumulative) % 2)
        return history, cumulative

    def _is_logical(
        self, cumulative: np.ndarray, correction: np.ndarray
    ) -> bool:
        residual = cumulative.astype(bool) ^ correction
        return bool(
            np.count_nonzero(residual & self._z_logical_mask) % 2
        )

    def estimate_ler(
        self,
        data_error_rate: float,
        measurement_error_rate: Optional[float] = None,
        trials: int = 500,
        rng: Optional[np.random.Generator] = None,
    ) -> PhenomenologicalResult:
        """Monte-Carlo LER estimate at one noise point.

        Deterministic by default: with ``rng`` omitted a fixed-seed
        generator is used, so repeated calls reproduce bit-for-bit.
        Sampling draws trial by trial; decoding is one batch.
        """
        if measurement_error_rate is None:
            measurement_error_rate = data_error_rate
        if rng is None:
            rng = np.random.default_rng(0)
        rounds = self.code.distance
        histories = np.empty(
            (trials, rounds + 1, self.code.z_check_matrix.shape[0]),
            dtype=bool,
        )
        cumulatives = np.empty((trials, self.code.num_data), np.uint8)
        for trial in range(trials):
            histories[trial], cumulatives[trial] = self._sample_trial(
                data_error_rate, measurement_error_rate, rng, rounds
            )
        corrections = self.decoder.decode_batch(histories)
        logical_errors = sum(
            1
            for cumulative, correction in zip(cumulatives, corrections)
            if self._is_logical(cumulative, correction)
        )
        return PhenomenologicalResult(
            distance=self.code.distance,
            data_error_rate=data_error_rate,
            measurement_error_rate=measurement_error_rate,
            trials=trials,
            logical_errors=logical_errors,
        )


def run_phenomenological_scaling(
    distances: Sequence[int] = (3, 5),
    per_values: Sequence[float] = (0.01, 0.02, 0.04),
    trials: int = 400,
    seed: int = 0,
    decoder: str = "mwpm",
) -> Dict[int, List[PhenomenologicalResult]]:
    """LER-vs-p curves under phenomenological noise (q = p)."""
    results: Dict[int, List[PhenomenologicalResult]] = {}
    for distance in distances:
        simulator = PhenomenologicalSimulator(distance, decoder=decoder)
        rng = np.random.default_rng(seed + 1000 * distance)
        results[distance] = [
            simulator.estimate_ler(p, trials=trials, rng=rng)
            for p in per_values
        ]
    return results


def format_phenomenological_table(
    results: Dict[int, List[PhenomenologicalResult]]
) -> str:
    """Render the scaling results as a text table."""
    distances = sorted(results)
    per_values = [r.data_error_rate for r in results[distances[0]]]
    lines = [
        "p = q      "
        + "  ".join(f"LER(d={d})" for d in distances)
    ]
    for index, p in enumerate(per_values):
        row = f"{p:8.4f}   " + "  ".join(
            f"{results[d][index].logical_error_rate:8.5f}"
            for d in distances
        )
        lines.append(row)
    return "\n".join(lines)
