"""Determinism regression tests for the shot-sharded parallel runner.

The engine's contract: shard records are a pure function of the sweep
parameters — the same seed yields bit-identical per-shard records and
aggregate LER whether the schedule runs inline (``workers=1``), on a
4-process pool, or resumed from a half-written checkpoint.  These
tests pin that contract exactly (no statistics, pure equality).
"""

import json
import os
from dataclasses import replace

import pytest

from repro import telemetry
from repro.cli import main as cli_main
from repro.decoders.registry import CAP_WINDOWED, list_decoders
from repro.experiments.parallel import (
    ArmAggregator,
    CheckpointWriter,
    ParallelConfig,
    ShardResult,
    load_checkpoint,
    plan_shards,
    run_parallel_sweep,
    run_shard,
    run_shards,
)
from repro.sim.refcache import clear_reference_cache

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


#: Ragged shard sizes around the word boundaries, fused into one run.
RAGGED = (1, 7, 63, 64, 65, 100)
WINDOWED_DECODERS = sorted(
    spec.name for spec in list_decoders() if CAP_WINDOWED in spec.capabilities
)


def ragged_specs(use_frame, error_kind="x", decoder="lut", per=8e-3,
                 windows=3):
    """One arm's shards of sizes :data:`RAGGED`, on the arm's seeds."""
    (spec,) = [
        spec
        for spec in plan_shards(
            [per], error_kind, 1, 1, windows, SEED, decoder=decoder
        )
        if spec.use_pauli_frame == use_frame
    ]
    return [
        replace(spec, shard_index=index, shots=shots)
        for index, shots in enumerate(RAGGED)
    ]


def as_json(records):
    return [record.to_json() for record in records]


class TestFusedRunsEqualLoneShards:
    """Consecutive shards of one arm share a lockstep core, each on its
    own streams: every record must equal the shard's lone run."""

    @pytest.mark.parametrize("error_kind", ["x", "z"])
    @pytest.mark.parametrize("use_frame", [False, True])
    def test_ragged_shards_in_one_run(self, use_frame, error_kind):
        specs = ragged_specs(use_frame, error_kind)
        assert as_json(run_shards(specs)) == as_json(
            run_shard(spec) for spec in specs
        )

    @pytest.mark.parametrize("decoder", WINDOWED_DECODERS)
    def test_every_windowed_decoder(self, decoder):
        specs = ragged_specs(False, decoder=decoder, per=2e-2)
        assert as_json(run_shards(specs)) == as_json(
            run_shard(spec) for spec in specs
        )

    def test_frameless_slot_is_drawn_per_shard(self):
        """Some shards command no correction in a window where others
        do; only the commanding shards draw the correction slot."""
        windows = 6
        specs = ragged_specs(False, per=3e-3, windows=windows)
        fused = run_shards(specs)
        assert as_json(fused) == as_json(run_shard(spec) for spec in specs)
        # The lone shot went some window without a correction, which
        # its 100-shot neighbour cannot have done.
        assert fused[0].shot_corrections[0] < windows
        assert sum(fused[-1].shot_corrections) > windows

    def test_one_recording_per_fused_run(self):
        """A cold cache records the reference once for the whole run; a
        warm one replays it once.  Both give the lone records."""
        specs = ragged_specs(True)
        lone = as_json(run_shard(spec) for spec in specs)
        clear_reference_cache()
        for outcome in ("misses", "hits"):
            with telemetry.enabled() as collector:
                fused = run_shards(specs)
            assert collector.counters[("sim.refcache", "reference_cache")] == {
                outcome: 1
            }
            records = collector.span_totals[("sim.stabilizer", (
                "reference.record" if outcome == "misses"
                else "reference.replay"
            ))]
            assert records[0] == 2 + 2 * specs[0].windows  # core calls
            assert as_json(fused) == lone

    def test_mixed_arms_are_refused(self):
        specs = ragged_specs(False)[:2] + ragged_specs(True)[:1]
        with pytest.raises(ValueError, match="one arm"):
            run_shards(specs)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(windows=5),
            dict(physical_error_rate=1e-2),
            dict(error_kind="z"),
            dict(decoder="unionfind"),
            dict(max_logical_errors=7),
        ],
        ids=lambda overrides: next(iter(overrides)),
    )
    def test_shards_of_another_sweep_are_refused(self, overrides):
        """One core runs one arm's protocol: a spec that differs in
        anything but its shard index and shots is refused, not run at
        the first spec's settings under its own labels."""
        first, second = ragged_specs(False)[:2]
        with pytest.raises(ValueError, match="differ only in shard_index"):
            run_shards([first, replace(second, **overrides)])

    @pytest.mark.parametrize(
        "overrides",
        [dict(engine="packed-fast"), dict(mode="loop", windows=0)],
        ids=["packed-fast", "loop"],
    )
    def test_shards_that_do_not_fuse_are_refused(self, overrides):
        specs = [replace(spec, **overrides) for spec in ragged_specs(False)]
        with pytest.raises(ValueError, match="run one per core"):
            run_shards(specs[:2])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_records_equal_lone_shards(self, workers):
        report = run_sweep(
            workers=workers, shard_shots=7, per_values=[8e-3, 1e-2],
            shots=40, windows=3,
        )
        specs = plan_shards([8e-3, 1e-2], "x", 40, 7, 3, SEED)
        assert report.executed_shards == len(specs)
        assert committed_records(report) == sorted(
            as_json(run_shard(spec) for spec in specs),
            key=lambda line: [json.loads(line)[key] for key in (
                "point_index", "use_pauli_frame", "shard_index"
            )],
        )

    @pytest.mark.parametrize(
        "overrides, committed, executed",
        [
            (
                dict(per_values=[1e-2], shots=600, windows=5, seed=1,
                     shard_shots=100, target_ci=0.01),
                11, 11,
            ),
            (
                dict(shots=300, windows=4, shard_shots=7, target_ci=0.02),
                47, 47,
            ),
            (
                dict(per_values=[8e-3, 1e-2], shots=200, windows=3,
                     shard_shots=9, target_ci=0.03),
                43, 43,
            ),
        ],
        ids=["ci-line", "ragged-frontier", "two-points"],
    )
    def test_early_stopping_counts_are_unchanged(
        self, overrides, committed, executed
    ):
        """The committed and executed shard counts the one-shard-per-core
        runner read on these sweeps; pooled runs commit the same."""
        inline = run_sweep(**overrides)
        assert (inline.committed_shards, inline.executed_shards) == (
            committed, executed
        )
        pooled = run_sweep(workers=2, **overrides)
        assert committed_records(pooled) == committed_records(inline)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_kill_mid_fused_run_then_resume(
        self, workers, tmp_path, monkeypatch
    ):
        """A run killed after four records of its first fused run
        resumes to the uninterrupted records."""
        checkpoint = str(tmp_path / "sweep.jsonl")
        sweep = dict(shots=40, shard_shots=7)
        full = run_sweep(**sweep)
        write = CheckpointWriter.write_record
        written = []

        def dying(self, record):
            if len(written) == 4:
                raise KeyboardInterrupt
            written.append(record.key)
            write(self, record)

        monkeypatch.setattr(CheckpointWriter, "write_record", dying)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(checkpoint=checkpoint, **sweep)
        monkeypatch.undo()
        assert [key[2] for key in written] == [0, 1, 2, 3]
        resumed = run_sweep(
            checkpoint=checkpoint, resume=True, workers=workers, **sweep
        )
        assert resumed.resumed_shards == 4
        assert resumed.executed_shards == full.total_shards - 4
        assert committed_records(resumed) == committed_records(full)
        _header, records = load_checkpoint(checkpoint)
        assert len(records) == full.total_shards
