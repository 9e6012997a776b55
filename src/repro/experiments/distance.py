"""Distance-scaling experiment (paper future work, ch. 6).

The paper expects -- but leaves to future work -- that larger-distance
surface codes (i) lower the LER below threshold and (ii) still gain
nothing from a Pauli frame (the analytic bound of Eq. 5.12 shrinks as
``1/d``).  This module supplies the simulation half of that programme:
code-capacity Monte Carlo of rotated surface codes decoded with the
Blossom/MWPM decoder the paper names as the scalable option.

Model: independent X errors with probability ``p`` per data qubit and
perfect syndrome extraction (code capacity).  This isolates the
distance dependence from circuit-level details; the threshold of this
model is around 10%, and below it the logical error rate drops
steeply with ``d`` -- the trend the future-work question is about.
The Pauli-frame side of the question is answered analytically via
:func:`repro.experiments.analytic.relative_improvement_upper_bound`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..codes.rotated.layout import RotatedSurfaceCode
from ..decoders.mwpm import boundary_qubits_for


@dataclass
class DistanceLerResult:
    """Monte-Carlo outcome for one (distance, p) point."""

    distance: int
    physical_error_rate: float
    trials: int
    logical_errors: int

    @property
    def logical_error_rate(self) -> float:
        """Estimated code-capacity logical X error rate."""
        if self.trials == 0:
            return 0.0
        return self.logical_errors / self.trials


class CodeCapacitySimulator:
    """Reusable X-error Monte-Carlo engine for one code distance.

    ``decoder`` names a registry graph decoder
    (:mod:`repro.decoders.registry`): ``"mwpm"`` (default, Blossom),
    ``"unionfind"`` or ``"sparse-mwpm"``.  A Monte-Carlo batch is
    decoded in one ``decode_batch`` call, each syndrome a one-round
    history, so ``(seed, decoder)`` reproduces bit-for-bit.
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

    def estimate_ler(
        self,
        p: float,
        trials: int,
        rng: Optional[np.random.Generator] = None,
    ) -> DistanceLerResult:
        """Monte-Carlo LER estimate at physical error rate ``p``.

        Deterministic by default: with ``rng`` omitted a fixed-seed
        generator is used, so repeated calls reproduce bit-for-bit.
        Each trial draws one uniform per data qubit, trial after trial.
        """
        if rng is None:
            rng = np.random.default_rng(0)
        errors = rng.random((trials, self.code.num_data)) < p
        syndromes = (
            errors.astype(np.uint8) @ self.code.z_check_matrix.T
        ) % 2
        residual = errors ^ self.decoder.decode_batch(
            syndromes[:, np.newaxis]
        )
        # A logical X error flips the Z logical operator's parity.
        parities = np.count_nonzero(residual & self._z_logical_mask, axis=1)
        return DistanceLerResult(
            distance=self.code.distance,
            physical_error_rate=p,
            trials=trials,
            logical_errors=int(np.count_nonzero(parities % 2)),
        )


def run_distance_scaling(
    distances: Sequence[int] = (3, 5),
    per_values: Sequence[float] = (0.02, 0.05, 0.08),
    trials: int = 2000,
    seed: int = 0,
    decoder: str = "mwpm",
) -> Dict[int, List[DistanceLerResult]]:
    """LER-vs-p curves for several distances (future-work experiment).

    Below the code-capacity threshold the curves must order
    ``LER(d=5) < LER(d=3)``; above it the ordering inverts -- the
    defining behaviour of the threshold ``p_th`` (section 2.5.1).
    """
    results: Dict[int, List[DistanceLerResult]] = {}
    for distance in distances:
        simulator = CodeCapacitySimulator(distance, decoder=decoder)
        rng = np.random.default_rng(seed + distance)
        results[distance] = [
            simulator.estimate_ler(p, trials, rng) for p in per_values
        ]
    return results


def format_distance_table(
    results: Dict[int, List[DistanceLerResult]]
) -> str:
    """Render the distance-scaling results as a text table."""
    distances = sorted(results)
    per_values = [r.physical_error_rate for r in results[distances[0]]]
    header = "p         " + "  ".join(
        f"LER(d={d})" for d in distances
    )
    lines = [header]
    for index, p in enumerate(per_values):
        row = f"{p:8.4f}  " + "  ".join(
            f"{results[d][index].logical_error_rate:8.5f}"
            for d in distances
        )
        lines.append(row)
    return "\n".join(lines)
