"""Determinism regression tests for the shot-sharded parallel runner.

The engine's contract: shard records are a pure function of the sweep
parameters — the same seed yields bit-identical per-shard records and
aggregate LER whether the schedule runs inline (``workers=1``), on a
4-process pool, or resumed from a half-written checkpoint.  These
tests pin that contract exactly (no statistics, pure equality).
"""

import json
import os

import pytest

from repro.cli import main as cli_main
from repro.experiments.parallel import (
    ArmAggregator,
    ParallelConfig,
    ShardResult,
    load_checkpoint,
    plan_shards,
    run_parallel_sweep,
    run_shard,
)

PER_VALUES = [8e-3]
SHOTS = 6
SHARD_SHOTS = 2
WINDOWS = 6
SEED = 20170618


def committed_records(report):
    """Every committed shard record, serialised, in deterministic order."""
    return [
        record.to_json()
        for arm_key in sorted(report.arms)
        for record in report.arms[arm_key].committed
    ]


def run_sweep(**overrides):
    config_kwargs = {
        "workers": overrides.pop("workers", 1),
        "shard_shots": overrides.pop("shard_shots", SHARD_SHOTS),
        "checkpoint": overrides.pop("checkpoint", None),
        "resume": overrides.pop("resume", False),
        "target_ci": overrides.pop("target_ci", None),
    }
    kwargs = {
        "per_values": PER_VALUES,
        "shots": SHOTS,
        "windows": WINDOWS,
        "seed": SEED,
        "config": ParallelConfig(**config_kwargs),
    }
    kwargs.update(overrides)
    return run_parallel_sweep(**kwargs)


class TestWorkerCountInvariance:
    def test_workers_1_vs_4_bit_identical(self):
        serial = run_sweep(workers=1)
        pooled = run_sweep(workers=4)
        assert committed_records(serial) == committed_records(pooled)
        assert serial.sweep.series(False) == pooled.sweep.series(False)
        assert serial.sweep.series(True) == pooled.sweep.series(True)
        for arm_key in serial.arms:
            a, b = serial.arms[arm_key], pooled.arms[arm_key]
            assert (a.errors, a.windows) == (b.errors, b.windows)

    def test_shard_execution_is_pure(self):
        """The same spec always yields the same record."""
        spec = plan_shards(
            PER_VALUES, "x", SHOTS, SHARD_SHOTS, WINDOWS, SEED
        )[0]
        assert run_shard(spec).to_json() == run_shard(spec).to_json()

    def test_loop_mode_shards_deterministic(self):
        specs = plan_shards(
            PER_VALUES,
            "x",
            2,
            1,
            None,
            SEED,
            max_logical_errors=2,
            max_windows=60,
        )
        for spec in specs[:2]:
            assert spec.mode == "loop"
            assert run_shard(spec).to_json() == run_shard(spec).to_json()

    def test_early_stop_frontier_is_worker_invariant(self):
        """A generous CI target stops both runs at the same frontier."""
        serial = run_sweep(workers=1, target_ci=0.2)
        pooled = run_sweep(workers=4, target_ci=0.2)
        assert committed_records(serial) == committed_records(pooled)
        assert serial.committed_shards < serial.total_shards
        assert serial.sweep.series(True) == pooled.sweep.series(True)


class TestCheckpointResume:
    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        checkpoint = str(tmp_path / "sweep.jsonl")
        full = run_sweep(checkpoint=checkpoint)
        with open(checkpoint) as handle:
            lines = handle.read().strip().split("\n")
        assert len(lines) == 1 + full.total_shards  # header + shards

        # Simulate a kill after two shards, mid-write of the third.
        with open(checkpoint, "w") as handle:
            handle.write("\n".join(lines[:3]) + "\n")
            handle.write('{"kind": "shard", "point_index": 0, "sho')
        resumed = run_sweep(checkpoint=checkpoint, resume=True)
        assert resumed.resumed_shards == 2
        assert resumed.executed_shards == full.total_shards - 2
        assert committed_records(resumed) == committed_records(full)
        assert resumed.sweep.series(False) == full.sweep.series(False)
        assert resumed.sweep.series(True) == full.sweep.series(True)

        # The repaired checkpoint again holds the complete record set.
        _header, records = load_checkpoint(checkpoint)
        assert len(records) == full.total_shards

    def test_resume_with_pool_matches_serial(self, tmp_path):
        checkpoint = str(tmp_path / "sweep.jsonl")
        full = run_sweep(checkpoint=checkpoint)
        with open(checkpoint) as handle:
            lines = handle.read().strip().split("\n")
        with open(checkpoint, "w") as handle:
            handle.write("\n".join(lines[:4]) + "\n")
        resumed = run_sweep(
            checkpoint=checkpoint, resume=True, workers=4
        )
        assert committed_records(resumed) == committed_records(full)

    def test_resume_rejects_mismatched_configuration(self, tmp_path):
        checkpoint = str(tmp_path / "sweep.jsonl")
        run_sweep(checkpoint=checkpoint)
        with pytest.raises(ValueError, match="different sweep"):
            run_sweep(
                checkpoint=checkpoint, resume=True, seed=SEED + 1
            )

    def test_fresh_run_overwrites_stale_checkpoint(self, tmp_path):
        checkpoint = str(tmp_path / "sweep.jsonl")
        run_sweep(checkpoint=checkpoint)
        again = run_sweep(checkpoint=checkpoint)
        assert again.resumed_shards == 0
        _header, records = load_checkpoint(checkpoint)
        assert len(records) == again.total_shards

    def test_loader_rejects_malformed_interior_line(self, tmp_path):
        checkpoint = str(tmp_path / "sweep.jsonl")
        run_sweep(checkpoint=checkpoint)
        with open(checkpoint) as handle:
            lines = handle.read().strip().split("\n")
        lines[1] = "not json"
        with open(checkpoint, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="malformed"):
            load_checkpoint(checkpoint)


class TestPackedEngineParallel:
    """The packed-fast engine through the shot-sharded runner."""

    def test_packed_fast_worker_invariance(self):
        serial = run_sweep(engine="packed-fast", workers=1)
        pooled = run_sweep(engine="packed-fast", workers=4)
        assert committed_records(serial) == committed_records(pooled)

    def test_packed_fast_checkpoint_is_a_different_sweep(self, tmp_path):
        """packed-fast draws another stream — resuming its checkpoint
        under the exact engines must be refused, and vice versa."""
        checkpoint = str(tmp_path / "sweep.jsonl")
        run_sweep(checkpoint=checkpoint)
        with pytest.raises(ValueError, match="different sweep"):
            run_sweep(
                engine="packed-fast",
                checkpoint=checkpoint,
                resume=True,
            )

    def test_loop_mode_rejects_packed_engine(self):
        with pytest.raises(ValueError, match="batch mode"):
            plan_shards(
                PER_VALUES,
                "x",
                2,
                1,
                None,
                SEED,
                max_logical_errors=2,
                max_windows=60,
                engine="packed-fast",
            )


class TestAggregatorFrontier:
    def _record(self, shard_index, errors=1, windows=10):
        return ShardResult(
            point_index=0,
            physical_error_rate=1e-3,
            use_pauli_frame=True,
            shard_index=shard_index,
            shots=1,
            error_kind="x",
            mode="batch",
            windows=windows,
            shot_errors=[errors],
            shot_windows=[windows],
            shot_clean=[windows],
            shot_corrections=[0],
        )

    def test_out_of_order_arrival_commits_in_order(self):
        aggregator = ArmAggregator(num_shards=3)
        aggregator.add(self._record(2))
        aggregator.add(self._record(0))
        assert [r.shard_index for r in aggregator.committed] == [0]
        aggregator.add(self._record(1))
        assert [r.shard_index for r in aggregator.committed] == [
            0,
            1,
            2,
        ]
        assert aggregator.done

    def test_records_beyond_satisfied_frontier_are_discarded(self):
        aggregator = ArmAggregator(
            num_shards=10, target_halfwidth=0.5
        )
        aggregator.add(self._record(0, errors=5, windows=100))
        assert aggregator.satisfied
        aggregator.add(self._record(1))
        assert len(aggregator.committed) == 1
        assert aggregator.errors == 5 and aggregator.windows == 100

    def test_duplicate_records_ignored(self):
        aggregator = ArmAggregator(num_shards=2)
        aggregator.add(self._record(0))
        aggregator.add(self._record(0, errors=99))
        assert aggregator.errors == 1


class TestParallelCli:
    def test_ler_parallel_smoke(self, capsys):
        code = cli_main(
            [
                "ler",
                "--per",
                "8e-3",
                "--workers",
                "1",
                "--batch",
                "4",
                "--windows",
                "4",
                "--shard-shots",
                "2",
                "--seed",
                "9",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "shards: " in out and "95% CI" in out

    def test_sweep_parallel_checkpoint_resume(self, tmp_path, capsys):
        checkpoint = str(tmp_path / "cli.jsonl")
        base = [
            "sweep",
            "--per",
            "8e-3",
            "--samples",
            "4",
            "--batch",
            "4",
            "--workers",
            "1",
            "--shard-shots",
            "2",
            "--checkpoint",
            checkpoint,
        ]
        assert cli_main(base) == 0
        first = capsys.readouterr().out
        assert cli_main(base + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "4 resumed from checkpoint" in second
        assert "0 executed" in second
        assert first.splitlines()[1] == second.splitlines()[1]
