"""Tests for the circuit-level distance-d memory experiments."""

import numpy as np
import pytest

from repro.codes.rotated import (
    RotatedSurfaceCode,
    ancilla_count,
    parallel_esm,
    plaquette_neighbors,
    total_qubits,
)
from repro.decoders import WindowedMatchingDecoder
from repro.experiments.memory import (
    CircuitLevelBlockExperiment,
    CircuitLevelMemoryExperiment,
)
from repro.qpdo import StabilizerCore


class TestRotatedEsm:
    @pytest.mark.parametrize("distance", [3, 5, 7])
    def test_structure(self, distance):
        code = RotatedSurfaceCode(distance)
        esm = parallel_esm(code)
        assert esm.circuit.num_slots() == 8
        assert len(esm.x_measurements) == len(code.x_plaquettes)
        assert len(esm.z_measurements) == len(code.z_plaquettes)
        # Total CNOTs equal the sum of plaquette weights.
        cnots = sum(
            1 for o in esm.circuit.operations() if o.name == "cnot"
        )
        expected = sum(
            len(p.data_qubits)
            for p in code.x_plaquettes + code.z_plaquettes
        )
        assert cnots == expected

    @pytest.mark.parametrize("distance", [3, 5, 7])
    def test_no_slot_conflicts(self, distance):
        code = RotatedSurfaceCode(distance)
        esm = parallel_esm(code)
        for slot in esm.circuit:
            qubits = [q for o in slot for q in o.qubits]
            assert len(qubits) == len(set(qubits))

    def test_d3_matches_sc17_counts(self):
        code = RotatedSurfaceCode(3)
        esm = parallel_esm(code)
        assert esm.circuit.num_operations() == 48  # Table 5.8

    def test_neighbors_cover_plaquette(self):
        code = RotatedSurfaceCode(5)
        for plaquette in code.x_plaquettes + code.z_plaquettes:
            neighbors = plaquette_neighbors(code, plaquette)
            covered = {
                q for q in neighbors.values() if q is not None
            }
            assert covered == set(plaquette.data_qubits)

    def test_counts_helpers(self):
        code = RotatedSurfaceCode(5)
        assert ancilla_count(code) == 24
        assert total_qubits(code) == 49

    def test_qubit_map_checked(self):
        code = RotatedSurfaceCode(3)
        with pytest.raises(ValueError):
            parallel_esm(code, qubit_map=list(range(5)))

    def test_second_round_repeats_first(self):
        code = RotatedSurfaceCode(5)
        core = StabilizerCore(seed=3)
        core.createqubit(total_qubits(code))
        first = parallel_esm(code)
        core.add(first.circuit)
        syndromes_1 = first.syndromes(core.execute())
        second = parallel_esm(code)
        core.add(second.circuit)
        syndromes_2 = second.syndromes(core.execute())
        assert syndromes_1 == syndromes_2


class TestWindowedMatchingDecoder:
    def test_matches_lut_behaviour_on_d3(self):
        from repro.decoders import SyndromeRound, syndrome_of

        code = RotatedSurfaceCode(3)
        matching = WindowedMatchingDecoder(code)
        trivial = SyndromeRound.from_bits([0] * 4, [0] * 4)
        matching.initialize([trivial] * 3)
        error = np.eye(9, dtype=np.uint8)[4]
        z_syndrome = list(syndrome_of(code.z_check_matrix, error))
        noisy = SyndromeRound.from_bits([0] * 4, z_syndrome)
        decision = matching.decode_window([noisy, noisy])
        residual = error.astype(bool) ^ decision.x_corrections
        assert not syndrome_of(
            code.z_check_matrix, residual.astype(np.uint8)
        ).any()

    def test_no_lut_is_built(self, monkeypatch):
        """d=7 construction builds no LUT (2^24 rows per species)."""
        from repro.decoders import lut, rule_based

        def refuse(*args, **kwargs):
            raise AssertionError("a TwoLutDecoder was constructed")

        for module in (lut, rule_based):
            monkeypatch.setattr(module, "TwoLutDecoder", refuse)
        code = RotatedSurfaceCode(7)
        decoder = WindowedMatchingDecoder(code)
        assert not hasattr(decoder, "two_lut")
        assert decoder.x_check_matrix.shape[0] == len(code.x_plaquettes)


class TestWindowedMemoryExperiment:
    def test_noiseless_run(self):
        experiment = CircuitLevelMemoryExperiment(
            3, 0.0, max_logical_errors=1, max_windows=5, seed=1
        )
        result = experiment.run()
        assert result.windows == 5
        assert result.logical_errors == 0
        assert result.clean_windows == 5

    def test_noisy_run_terminates(self):
        experiment = CircuitLevelMemoryExperiment(
            3, 8e-3, max_logical_errors=2, seed=2
        )
        result = experiment.run()
        assert result.logical_errors == 2
        assert 0 < result.logical_error_rate < 1

    def test_d3_matches_sc17_harness_scale(self):
        """The generalised harness at d=3 must land in the same LER
        decade as the SC17-specific one."""
        from repro.experiments.ler import LerExperiment

        general = CircuitLevelMemoryExperiment(
            3, 6e-3, max_logical_errors=6, seed=3
        ).run()
        specific = LerExperiment(
            6e-3, use_pauli_frame=False, max_logical_errors=6, seed=3
        ).run()
        ratio = general.logical_error_rate / max(
            specific.logical_error_rate, 1e-9
        )
        assert 0.2 < ratio < 5.0

    def test_pauli_frame_variant_runs(self):
        experiment = CircuitLevelMemoryExperiment(
            3, 8e-3, use_pauli_frame=True, max_logical_errors=2, seed=4
        )
        result = experiment.run()
        assert result.use_pauli_frame
        assert result.logical_errors == 2


#: (windows, logical_errors, clean_windows) of windowed runs, keyed by
#: (distance, PER, frame, seed, max_logical_errors).
WINDOWED_PINS = {
    (3, 8e-3, False, 2, 3): (63, 3, 22),
    (3, 8e-3, True, 4, 3): (36, 3, 17),
    (3, 6e-3, False, 3, 6): (107, 6, 51),
    (5, 3e-3, False, 5, 2): (58, 2, 20),
    (5, 3e-3, True, 6, 2): (47, 2, 13),
}


@pytest.mark.parametrize("case", sorted(WINDOWED_PINS))
def test_windowed_runs_are_pinned(case):
    """Exact counts of the windowed experiment at d = 3 and d = 5."""
    distance, per, use_frame, seed, max_errors = case
    result = CircuitLevelMemoryExperiment(
        distance,
        per,
        use_pauli_frame=use_frame,
        max_logical_errors=max_errors,
        seed=seed,
    ).run()
    assert (
        result.windows,
        result.logical_errors,
        result.clean_windows,
    ) == WINDOWED_PINS[case]


class TestBlockExperiment:
    def test_noiseless_block_never_fails(self):
        experiment = CircuitLevelBlockExperiment(3, 0.0, seed=5)
        result = experiment.estimate_ler(trials=10)
        assert result.logical_errors == 0

    def test_noisy_blocks_fail_sometimes(self):
        experiment = CircuitLevelBlockExperiment(3, 2e-2, seed=6)
        result = experiment.estimate_ler(trials=60)
        assert result.logical_errors > 0

    def test_d5_runs(self):
        experiment = CircuitLevelBlockExperiment(5, 5e-3, seed=7)
        result = experiment.estimate_ler(trials=15)
        assert result.distance == 5
        assert 0 <= result.logical_errors <= 15

    def test_rounds_override(self):
        experiment = CircuitLevelBlockExperiment(
            3, 0.0, seed=8, rounds=1
        )
        assert experiment.rounds == 1
        result = experiment.estimate_ler(trials=3)
        assert result.logical_errors == 0
