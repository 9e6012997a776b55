"""Tests for the statistics, analytic and schedule modules."""

import math
import warnings

import numpy as np
import pytest

from repro.experiments.analytic import (
    ImprovementBound,
    approximate_ler,
    format_upper_bound_table,
    relative_improvement_upper_bound,
    upper_bound_series,
    window_time_slots,
)
from repro.experiments.results import RunResult
from repro.experiments.schedule import (
    ScheduleParameters,
    compare_schedules,
)
from repro.experiments.stats import (
    compare_point,
    mean_rho,
    pseudo_threshold,
    significant_fraction,
    summarize,
    wilson_interval,
)


def make_result(per, pf, windows, errors):
    return RunResult(
        physical_error_rate=per,
        error_kind="x",
        use_pauli_frame=pf,
        windows=windows,
        logical_errors=errors,
    )


class TestSummaries:
    def test_mean_and_std(self):
        results = [
            make_result(1e-3, False, 1000, 10),
            make_result(1e-3, False, 2000, 10),
        ]
        summary = summarize(results)
        assert summary.mean_ler == pytest.approx((0.01 + 0.005) / 2)
        assert summary.std_ler > 0

    def test_window_cov_matches_definition(self):
        results = [
            make_result(1e-3, False, w, 10) for w in (900, 1000, 1100)
        ]
        summary = summarize(results)
        counts = np.array([900.0, 1000.0, 1100.0])
        expected = counts.std(ddof=1) / counts.mean()
        assert summary.window_cov == pytest.approx(expected)

    def test_mixed_configurations_rejected(self):
        with pytest.raises(ValueError):
            summarize(
                [
                    make_result(1e-3, False, 100, 1),
                    make_result(2e-3, False, 100, 1),
                ]
            )
        with pytest.raises(ValueError):
            summarize([])


class TestComparison:
    def test_identical_samples_not_significant(self):
        without = [make_result(1e-3, False, w, 10) for w in (990, 1010, 1000)]
        withf = [make_result(1e-3, True, w, 10) for w in (990, 1010, 1000)]
        comparison = compare_point(without, withf)
        assert comparison.delta_ler == pytest.approx(0.0)
        assert not comparison.significant
        assert comparison.rho_paired == pytest.approx(1.0)
        assert comparison.delta_within_sigma
        # Both arms one constant (a sweep at a rate too low for any
        # error): the t statistic is 0/0, which must not become NaN.
        without = [make_result(1e-6, False, 10, 0)] * 4
        withf = [make_result(1e-6, True, 10, 0)] * 4
        comparison = compare_point(without, withf)
        assert comparison.rho_independent == 1.0
        assert comparison.rho_paired == 1.0
        assert not comparison.significant

    def test_zero_variance_differences_are_decided_exactly(self):
        """Constant but different arms, and pairs whose differences are
        one non-zero constant: an infinite t statistic, p = 0, with no
        t-test run on zero-variance data."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            comparison = compare_point(
                [make_result(1e-3, False, 10, 0)] * 2,
                [make_result(1e-3, True, 10, 1)] * 2,
            )
            assert comparison.rho_independent == 0.0
            assert comparison.rho_paired == 0.0
            comparison = compare_point(
                [make_result(1e-3, False, 10, e) for e in (2, 1)],
                [make_result(1e-3, True, 10, e) for e in (1, 0)],
            )
            assert comparison.rho_paired == 0.0

    def test_wildly_different_samples_are_significant(self):
        without = [
            make_result(1e-3, False, w, 10) for w in (100, 101, 99, 100)
        ]
        withf = [
            make_result(1e-3, True, w, 10)
            for w in (10_000, 10_100, 9_900, 10_000)
        ]
        comparison = compare_point(without, withf)
        assert comparison.significant
        assert comparison.delta_ler > 0

    def test_per_mismatch_rejected(self):
        without = [make_result(1e-3, False, 100, 10)] * 2
        withf = [make_result(2e-3, True, 100, 10)] * 2
        with pytest.raises(ValueError):
            compare_point(without, withf)

    def test_aggregates(self):
        without = [make_result(1e-3, False, w, 10) for w in (990, 1010)]
        withf = [make_result(1e-3, True, w, 10) for w in (990, 1010)]
        comparison = compare_point(without, withf)
        assert mean_rho([comparison]) == comparison.rho_independent
        assert significant_fraction([comparison]) in (0.0, 1.0)
        assert significant_fraction([]) == 0.0


class TestWilsonQuantiles:
    @staticmethod
    def _scipy_z(confidence):
        from scipy import stats as scipy_stats

        return float(scipy_stats.norm.ppf(0.5 + confidence / 2.0))

    def test_table_is_scipys_value(self):
        from repro.experiments.stats import Z_QUANTILES

        assert 0.95 in Z_QUANTILES
        for confidence, z in Z_QUANTILES.items():
            assert z == self._scipy_z(confidence)

    @pytest.mark.parametrize("confidence", [0.9, 0.95])
    def test_interval_uses_scipys_quantile(self, confidence):
        z, successes, trials = self._scipy_z(confidence), 37, 500
        p = successes / trials
        denominator = 1.0 + z * z / trials
        center = (p + z * z / (2.0 * trials)) / denominator
        half = (z / denominator) * math.sqrt(
            p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)
        )
        assert wilson_interval(successes, trials, confidence) == (
            center - half,
            center + half,
        )


class TestPseudoThreshold:
    def test_crossing_detected(self):
        per = [1e-4, 3e-4, 1e-3]
        ler = [3e-5, 3e-4, 4e-3]  # crosses y=x at 3e-4
        crossing = pseudo_threshold(per, ler)
        assert crossing == pytest.approx(3e-4, rel=0.05)

    def test_no_crossing_returns_none(self):
        assert pseudo_threshold([1e-3, 1e-2], [1e-2, 1e-1]) is None

    def test_unsorted_input_handled(self):
        per = [1e-3, 1e-4, 3e-4]
        ler = [4e-3, 3e-5, 3e-4]
        assert pseudo_threshold(per, ler) == pytest.approx(3e-4, rel=0.05)


class TestAnalyticModel:
    def test_window_time_slots_eq_5_6(self):
        assert window_time_slots(3, with_pauli_frame=False) == 17
        assert window_time_slots(3, with_pauli_frame=True) == 16
        assert window_time_slots(5, with_pauli_frame=False) == 33
        assert (
            window_time_slots(3, False, corrections_pending=False) == 16
        )
        with pytest.raises(ValueError):
            window_time_slots(1, False)

    def test_upper_bound_eq_5_12(self):
        """Fig. 5.27 values: 1/((d-1)*8+1)."""
        assert relative_improvement_upper_bound(3) == pytest.approx(
            1 / 17
        )
        assert relative_improvement_upper_bound(5) == pytest.approx(
            1 / 33
        )
        assert relative_improvement_upper_bound(11) == pytest.approx(
            1 / 81
        )

    def test_bound_decreases_with_distance(self):
        series = upper_bound_series(range(3, 13, 2))
        bounds = [bound for _d, bound in series]
        assert bounds == sorted(bounds, reverse=True)
        # Below 3% for d >= 5 (the paper's conclusion).
        assert all(bound < 0.031 for _d, bound in series[1:])

    def test_approximate_ler_ratio(self):
        without = approximate_ler(3, with_pauli_frame=False)
        withf = approximate_ler(3, with_pauli_frame=True)
        assert (without - withf) / without == pytest.approx(1 / 17)

    def test_improvement_bound_dataclass(self):
        bound = ImprovementBound.for_distance(3)
        assert bound.ts_window_without_frame == 17
        assert bound.ts_window_with_frame == 16
        assert bound.relative_improvement == pytest.approx(1 / 17)

    def test_format_table(self):
        text = format_upper_bound_table((3, 5))
        assert "5.88%" in text
        assert "3.03%" in text


class TestScheduleModel:
    def test_frame_always_saves_time(self):
        comparison = compare_schedules()
        assert comparison.time_saved > 0
        assert 0 < comparison.relative_time_saved < 1

    def test_decoder_deadline_relaxed(self):
        comparison = compare_schedules()
        assert comparison.decoder_deadline_relaxation > 1.0

    def test_saved_time_is_decode_plus_correction(self):
        params = ScheduleParameters(
            esm_duration=8,
            rounds_per_window=2,
            decode_duration=10,
            correction_duration=1,
            logical_op_duration=3,
        )
        comparison = compare_schedules(params)
        assert comparison.time_saved == pytest.approx(10 + 1)

    def test_idle_fraction(self):
        comparison = compare_schedules()
        assert comparison.without_frame.idle_fraction > 0
        assert comparison.with_frame.idle_fraction == pytest.approx(0.0)
