"""Tests for the space-time decoder and the phenomenological model."""

from unittest import mock

import numpy as np
import pytest

from repro.codes.rotated import RotatedSurfaceCode
from repro.decoders import boundary_qubits_for, syndrome_of
from repro.decoders.mwpm import SpaceTimeMatchingDecoder
from repro.experiments import phenomenological
from repro.experiments.phenomenological import (
    PhenomenologicalSimulator,
    format_phenomenological_table,
    run_phenomenological_scaling,
)


@pytest.fixture(scope="module")
def decoder3():
    code = RotatedSurfaceCode(3)
    return code, SpaceTimeMatchingDecoder(
        code.z_check_matrix, boundary_qubits_for(code, "z")
    )


class TestDetectionEvents:
    def test_no_events_for_constant_history(self, decoder3):
        _code, decoder = decoder3
        history = [[0, 0, 0, 0]] * 4
        assert decoder.detection_events(history) == []

    def test_persistent_error_fires_once(self, decoder3):
        code, decoder = decoder3
        error = np.eye(code.num_data, dtype=np.uint8)[4]
        syndrome = list(syndrome_of(code.z_check_matrix, error))
        history = [[0, 0, 0, 0], syndrome, syndrome, syndrome]
        events = decoder.detection_events(history)
        # One event per violated check, all in round 1.
        assert all(round_index == 1 for round_index, _c in events)
        assert len(events) == int(sum(syndrome))

    def test_measurement_blip_fires_twice(self, decoder3):
        _code, decoder = decoder3
        history = [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]]
        events = decoder.detection_events(history)
        assert events == [(1, 0), (2, 0)]


class TestSpaceTimeDecoding:
    def test_data_error_corrected(self, decoder3):
        code, decoder = decoder3
        error = np.eye(code.num_data, dtype=np.uint8)[4]
        syndrome = list(syndrome_of(code.z_check_matrix, error))
        history = [syndrome, syndrome, syndrome]
        correction = decoder.decode_history(history)
        residual = error.astype(bool) ^ correction
        assert not syndrome_of(
            code.z_check_matrix, residual.astype(np.uint8)
        ).any()
        z_mask = np.zeros(code.num_data, dtype=bool)
        for qubit in code.logical_z_support():
            z_mask[qubit] = True
        assert int((residual & z_mask).sum()) % 2 == 0

    def test_measurement_blip_corrects_nothing(self, decoder3):
        """A lone misread pairs with itself in time: no data flips."""
        _code, decoder = decoder3
        history = [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]]
        correction = decoder.decode_history(history)
        assert not correction.any()

    def test_empty_history(self, decoder3):
        _code, decoder = decoder3
        assert not decoder.decode_history([]).any()

    def test_error_in_last_round_still_corrected(self, decoder3):
        """An error appearing only in the (reliable) final round must
        still be corrected -- boundary-in-time is not a free escape."""
        code, decoder = decoder3
        error = np.eye(code.num_data, dtype=np.uint8)[0]
        syndrome = list(syndrome_of(code.z_check_matrix, error))
        history = [[0, 0, 0, 0], [0, 0, 0, 0], syndrome]
        correction = decoder.decode_history(history)
        residual = error.astype(bool) ^ correction
        assert not syndrome_of(
            code.z_check_matrix, residual.astype(np.uint8)
        ).any()


def _trial_by_trial(code, p, q, trials, rng):
    """Reference sampler: one trial, then one round, at a time."""
    histories, errors = [], []
    for _ in range(trials):
        cumulative = np.zeros(code.num_data, dtype=np.uint8)
        history = []
        for _ in range(code.distance):
            cumulative ^= (rng.random(code.num_data) < p).astype(np.uint8)
            syndrome = (code.z_check_matrix @ cumulative) % 2
            flips = rng.random(code.z_check_matrix.shape[0]) < q
            history.append(syndrome.astype(bool) ^ flips)
        history.append((code.z_check_matrix @ cumulative) % 2 == 1)
        histories.append(history)
        errors.append(cumulative.astype(bool))
    return np.asarray(histories, dtype=bool), np.asarray(errors)


class TestArraySampler:
    @pytest.mark.parametrize("cap", [None, 1, 5000])
    @pytest.mark.parametrize(
        "distance, p, q", [(3, 0.05, 0.05), (5, 0.02, 0.1), (7, 0.01, 0.0)]
    )
    def test_same_stream_as_trial_by_trial(self, distance, p, q, cap):
        """Blocks of any size draw what the per-trial loop draws."""
        simulator = PhenomenologicalSimulator(distance)
        draw_cap = phenomenological.DRAW_CAP if cap is None else cap
        with mock.patch.object(phenomenological, "DRAW_CAP", draw_cap):
            histories, errors = simulator.sample_histories(
                p, q, 23, np.random.default_rng(distance)
            )
        expected = _trial_by_trial(
            simulator.code, p, q, 23, np.random.default_rng(distance)
        )
        assert np.array_equal(histories, expected[0])
        assert np.array_equal(errors, expected[1])

    def test_logical_failures_is_the_residual_parity(self):
        simulator = PhenomenologicalSimulator(5)
        rng = np.random.default_rng(4)
        errors = rng.random((30, simulator.code.num_data)) < 0.2
        corrections = rng.random((30, simulator.code.num_data)) < 0.2
        support = list(simulator.code.logical_z_support())
        expected = [
            bool(np.count_nonzero((e ^ c)[support]) % 2)
            for e, c in zip(errors, corrections)
        ]
        assert list(
            simulator.logical_failures(errors, corrections)
        ) == expected


class TestPhenomenologicalSimulator:
    def test_zero_noise(self):
        simulator = PhenomenologicalSimulator(3)
        result = simulator.estimate_ler(
            0.0, trials=20, rng=np.random.default_rng(0)
        )
        assert result.logical_errors == 0

    def test_small_measurement_noise_is_harmless(self):
        simulator = PhenomenologicalSimulator(3)
        result = simulator.estimate_ler(
            0.0, 0.02, trials=200, rng=np.random.default_rng(1)
        )
        assert result.logical_errors == 0

    def test_zero_trials(self):
        result = PhenomenologicalSimulator(3).estimate_ler(0.02, trials=0)
        assert (result.trials, result.logical_errors) == (0, 0)

    def test_distance_ordering_below_threshold(self):
        results = run_phenomenological_scaling(
            distances=(3, 5),
            per_values=(0.01,),
            trials=400,
            seed=7,
        )
        assert (
            results[5][0].logical_error_rate
            <= results[3][0].logical_error_rate
        )

    def test_monotone_in_noise(self):
        simulator = PhenomenologicalSimulator(3)
        rng = np.random.default_rng(2)
        low = simulator.estimate_ler(0.01, trials=400, rng=rng)
        high = simulator.estimate_ler(0.08, trials=400, rng=rng)
        assert high.logical_error_rate > low.logical_error_rate

    def test_default_q_equals_p(self):
        simulator = PhenomenologicalSimulator(3)
        result = simulator.estimate_ler(
            0.03, trials=10, rng=np.random.default_rng(3)
        )
        assert result.measurement_error_rate == 0.03

    def test_format_table(self):
        results = run_phenomenological_scaling(
            distances=(3,), per_values=(0.02,), trials=20, seed=1
        )
        assert "LER(d=3)" in format_phenomenological_table(results)
