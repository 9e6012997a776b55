"""Tests for the distance-scaling experiment and the LER sweep driver."""

import numpy as np
import pytest

from repro.experiments.distance import (
    CodeCapacitySimulator,
    format_distance_table,
    run_distance_scaling,
)
from repro.experiments.parallel import run_parallel_sweep
from repro.experiments.sweep import format_sweep_table


class TestCodeCapacity:
    def test_zero_noise_never_fails(self):
        simulator = CodeCapacitySimulator(3)
        rng = np.random.default_rng(0)
        result = simulator.estimate_ler(0.0, trials=50, rng=rng)
        assert result.logical_errors == 0
        assert result.logical_error_rate == 0.0

    def test_heavy_noise_often_fails(self):
        simulator = CodeCapacitySimulator(3)
        rng = np.random.default_rng(0)
        result = simulator.estimate_ler(0.4, trials=300, rng=rng)
        assert result.logical_error_rate > 0.2

    def test_zero_trials(self):
        result = CodeCapacitySimulator(3).estimate_ler(0.05, trials=0)
        assert (result.trials, result.logical_errors) == (0, 0)
        assert result.logical_error_rate == 0.0

    def test_distance_ordering_below_threshold(self):
        """Future-work claim: larger d lowers the LER below p_th."""
        results = run_distance_scaling(
            distances=(3, 5),
            per_values=(0.03,),
            trials=1200,
            seed=3,
        )
        assert (
            results[5][0].logical_error_rate
            < results[3][0].logical_error_rate
        )

    def test_threshold_crossover(self):
        """Far above threshold the ordering inverts (section 2.5.1)."""
        results = run_distance_scaling(
            distances=(3, 5),
            per_values=(0.30,),
            trials=400,
            seed=4,
        )
        assert (
            results[5][0].logical_error_rate
            >= results[3][0].logical_error_rate * 0.9
        )

    def test_format_table(self):
        results = run_distance_scaling(
            distances=(3,), per_values=(0.05,), trials=50, seed=1
        )
        text = format_distance_table(results)
        assert "LER(d=3)" in text


class TestLerSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return run_parallel_sweep(
            [6e-3, 1.2e-2],
            shots=2,
            windows=None,
            max_logical_errors=2,
            seed=100,
        ).sweep

    def test_point_structure(self, sweep):
        assert sweep.per_values() == [6e-3, 1.2e-2]
        assert len(sweep.points) == 2
        for point in sweep.points:
            assert len(point.without_frame) == 2
            assert len(point.with_frame) == 2

    def test_series_accessors(self, sweep):
        assert len(sweep.series(True)) == 2
        assert len(sweep.series(False)) == 2
        assert len(sweep.delta_series()) == 2
        assert len(sweep.sigma_series()) == 2
        assert len(sweep.rho_series()) == 2
        assert len(sweep.rho_series(paired=True)) == 2
        assert len(sweep.window_cov_series(True)) == 2
        savings = sweep.savings_series()
        assert len(savings["operations"]) == 2
        assert len(savings["slots"]) == 2

    def test_savings_within_analytic_bound(self, sweep):
        for fraction in sweep.savings_series()["slots"]:
            assert 0.0 <= fraction <= 1.0 / 17.0 + 1e-9

    def test_rho_values_are_probabilities(self, sweep):
        for rho in sweep.rho_series():
            assert 0.0 <= rho <= 1.0

    def test_format_table(self, sweep):
        text = format_sweep_table(sweep)
        assert "LER(no PF)" in text
        assert text.count("\n") == len(sweep.points)
