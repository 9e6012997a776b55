"""Tests for the unified machine-readable results API."""

import json
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from repro.experiments.results import (
    RESULT_KINDS,
    ArmReport,
    BatchCounts,
    LerReport,
    ResultBase,
    RunResult,
    ShardResult,
    SweepPointResult,
    SweepResult,
    VerifyReport,
    result_from_json,
    result_from_json_dict,
)
from repro.experiments.stats import compare_point
from repro.pauliframe.unit import FrameStatistics
from repro.qpdo.counter_layer import StreamCounts


def _run(errors=2, windows=50, use_frame=False, with_stats=False):
    return RunResult(
        physical_error_rate=5e-3,
        error_kind="x",
        use_pauli_frame=use_frame,
        windows=windows,
        logical_errors=errors,
        clean_windows=windows - errors,
        corrections_commanded=7,
        frame_statistics=(
            FrameStatistics(
                operations_in=100,
                operations_out=90,
                slots_in=40,
                slots_out=38,
                pauli_gates_filtered=10,
            )
            if with_stats
            else None
        ),
        counts_above=StreamCounts(operations=100, slots=40),
        counts_below=StreamCounts(operations=90, slots=38),
    )


class TestRoundTrips:
    def test_run_result_round_trip(self):
        original = _run(with_stats=True, use_frame=True)
        rebuilt = RunResult.from_json(original.to_json())
        assert rebuilt == original
        assert rebuilt.logical_error_rate == pytest.approx(2 / 50)
        assert rebuilt.saved_slots_fraction == pytest.approx(2 / 40)

    def test_batch_counts_round_trip(self):
        original = BatchCounts(
            physical_error_rate=1e-2,
            error_kind="z",
            use_pauli_frame=True,
            windows=20,
            logical_errors=np.array([1, 0, 2]),
            clean_windows=np.array([19, 20, 18]),
            corrections_commanded=np.array([3, 4, 5]),
        )
        rebuilt = BatchCounts.from_json(original.to_json())
        assert rebuilt.num_shots == 3
        assert rebuilt.total_errors == 3
        assert rebuilt.total_windows == 60
        np.testing.assert_array_equal(
            rebuilt.logical_errors, original.logical_errors
        )
        assert len(rebuilt.to_results()) == 3

    def test_shard_result_round_trip(self):
        original = ShardResult(
            point_index=1,
            physical_error_rate=6e-3,
            use_pauli_frame=True,
            shard_index=2,
            shots=2,
            error_kind="x",
            mode="batch",
            windows=25,
            shot_errors=[1, 0],
            shot_windows=[25, 25],
            shot_clean=[24, 25],
            shot_corrections=[5, 6],
        )
        rebuilt = ShardResult.from_json(original.to_json())
        assert rebuilt == original
        assert rebuilt.total_errors == 1
        assert rebuilt.total_windows == 50

    def test_shard_checkpoint_byte_format_is_pinned(self):
        """The historical ShardRecord line format must not drift."""
        shard = ShardResult(
            point_index=0,
            physical_error_rate=5e-3,
            use_pauli_frame=False,
            shard_index=0,
            shots=1,
            error_kind="x",
            mode="loop",
            windows=0,
            shot_errors=[2],
            shot_windows=[40],
            shot_clean=[38],
            shot_corrections=[9],
        )
        expected = json.dumps(
            {"kind": "shard", **asdict(shard)}, sort_keys=True
        )
        assert shard.to_json() == expected

    def test_sweep_round_trip(self):
        without = [_run(), _run(errors=3)]
        with_frame = [
            _run(use_frame=True, with_stats=True),
            _run(errors=1, use_frame=True, with_stats=True),
        ]
        point = SweepPointResult(
            physical_error_rate=5e-3,
            without_frame=without,
            with_frame=with_frame,
            comparison=compare_point(without, with_frame),
        )
        sweep = SweepResult(error_kind="x", points=[point])
        rebuilt = SweepResult.from_json(sweep.to_json())
        assert rebuilt.per_values() == [5e-3]
        assert rebuilt.points[0].mean_ler_without == pytest.approx(
            point.mean_ler_without
        )
        assert rebuilt.points[
            0
        ].comparison.rho_independent == pytest.approx(
            point.comparison.rho_independent
        )
        # Serialized form is stable under a second round trip.
        assert rebuilt.to_json() == sweep.to_json()


class TestDispatch:
    def test_every_registered_kind_dispatches(self):
        expected = {
            "run",
            "batch_counts",
            "shard",
            "sweep_point",
            "sweep",
            "verify_report",
            "ler_arm",
            "ler_report",
            "sweep_report",
            "distance_report",
            "phenomenological_report",
            "memory_report",
            "bound_report",
            "schedule_report",
            "census_report",
            "inject_report",
            "trace_report",
        }
        assert expected <= set(RESULT_KINDS)
        for kind, klass in RESULT_KINDS.items():
            assert issubclass(klass, ResultBase)
            assert klass.kind == kind

    def test_result_from_json_dispatches_on_kind(self):
        original = _run()
        rebuilt = result_from_json(original.to_json())
        assert isinstance(rebuilt, RunResult)
        assert rebuilt == original

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown result kind"):
            result_from_json_dict({"kind": "no_such_kind"})

    def test_kind_mismatch_raises(self):
        payload = _run().to_json()
        with pytest.raises(ValueError, match="expected kind"):
            VerifyReport.from_json(payload)

    def test_nested_report_round_trip(self):
        report = LerReport(
            physical_error_rate=5e-3,
            error_kind="x",
            mode="parallel",
            seed=0,
            arms=[
                ArmReport(
                    use_pauli_frame=False,
                    logical_errors=10,
                    windows=500,
                    logical_error_rate=0.02,
                    corrections_commanded=40,
                    wilson_low=0.01,
                    wilson_high=0.03,
                    committed_shards=4,
                    num_shards=4,
                )
            ],
            committed_shards=4,
            executed_shards=4,
            resumed_shards=0,
        )
        rebuilt = result_from_json(report.to_json())
        assert isinstance(rebuilt, LerReport)
        assert isinstance(rebuilt.arms[0], ArmReport)
        assert rebuilt == report


class TestDeprecatedAliases:
    """Canonical result names import silently; unknown names raise."""

    def test_new_names_do_not_warn(self):
        import repro.experiments as experiments

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert experiments.RunResult is RunResult
            assert experiments.ShardResult is ShardResult

    def test_unknown_attribute_still_raises(self):
        import repro.experiments.ler as ler

        with pytest.raises(AttributeError):
            ler.NoSuchName
