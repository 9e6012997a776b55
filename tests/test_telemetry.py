"""Tests for the telemetry subsystem (spans, counters, sinks)."""

import json
import time
import timeit

import pytest

from repro import telemetry
from repro.telemetry import (
    JsonLinesSink,
    MemorySink,
    TelemetryCollector,
    aggregate_trace,
    load_trace,
)


class TestSpans:
    def test_span_totals_aggregate_calls_and_time(self):
        collector = TelemetryCollector()
        for _ in range(3):
            with collector.span("cat", "op"):
                pass
        calls, seconds = collector.span_totals[("cat", "op")]
        assert calls == 3
        assert seconds >= 0.0

    def test_span_nesting_depth_recorded(self):
        sink = MemorySink()
        collector = TelemetryCollector([sink])
        with collector.span("outer", "a"):
            with collector.span("inner", "b"):
                pass
        begins = sink.of_type("span_begin")
        ends = sink.of_type("span_end")
        assert [(r["category"], r["depth"]) for r in begins] == [
            ("outer", 0),
            ("inner", 1),
        ]
        # Ends pop inner-first, at the depth of the enclosing region.
        assert [(r["category"], r["depth"]) for r in ends] == [
            ("inner", 1),
            ("outer", 0),
        ]
        assert all(r["duration"] >= 0.0 for r in ends)

    def test_span_meta_travels_in_begin_record(self):
        sink = MemorySink()
        collector = TelemetryCollector([sink])
        with collector.span("cat", "op", shots=7, arm=True):
            pass
        (begin,) = sink.of_type("span_begin")
        assert begin["meta"] == {"shots": 7, "arm": True}


class TestCounters:
    def test_count_aggregates_fields_per_key(self):
        collector = TelemetryCollector()
        collector.count("sim", "apply_gate", field="h", amount=2)
        collector.count("sim", "apply_gate", field="h", amount=3)
        collector.count("sim", "apply_gate", field="cnot")
        collector.count("decoder", "decode")
        assert collector.counters[("sim", "apply_gate")] == {
            "h": 5,
            "cnot": 1,
        }
        assert collector.counters[("decoder", "decode")] == {
            "count": 1
        }

    def test_flush_emits_one_record_per_key(self):
        sink = MemorySink()
        collector = TelemetryCollector([sink])
        collector.count("b", "y", amount=2)
        collector.count("a", "x")
        collector.flush()
        records = sink.of_type("counter")
        assert [(r["category"], r["name"]) for r in records] == [
            ("a", "x"),
            ("b", "y"),
        ]
        assert records[1]["fields"] == {"count": 2}

    def test_events_tally_and_emit(self):
        sink = MemorySink()
        collector = TelemetryCollector([sink])
        collector.event("parallel", "shard_commit", shard_index=0)
        collector.event("parallel", "shard_commit", shard_index=1)
        assert collector.event_totals[
            ("parallel", "shard_commit")
        ] == 2
        assert len(sink.of_type("event")) == 2


#: One trace line: the counter ``c/n`` adding ``x``.
COUNTER = (
    '{"category": "c", "fields": {"x": %d}, "name": "n", "type": "counter"}'
    "\n"
)


class TestReportCommand:
    """``repro report`` on traces it cannot read, and on a torn one."""

    @pytest.mark.parametrize(
        "contents, names",
        [
            (None, "No such file"),
            (
                COUNTER % 1 + "NOT JSON\n" + COUNTER % 5,
                "trace.jsonl:2: malformed trace line",
            ),
        ],
        ids=["missing", "malformed-interior-line"],
    )
    def test_unreadable_trace_exits_2(
        self, tmp_path, capsys, contents, names
    ):
        from repro.cli import main

        path = tmp_path / "trace.jsonl"
        if contents is not None:
            path.write_text(contents)
        assert main(["report", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("report: ")
        assert names in captured.err

    def test_torn_final_line_is_dropped(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "trace.jsonl"
        path.write_text(COUNTER % 1 + COUNTER % 5 + '{"category": "c"')
        assert main(["report", str(path), "--json"]) == 0
        (counter,) = json.loads(capsys.readouterr().out)["counters"]
        assert counter["fields"] == {"x": 6}


class TestSinks:
    def test_jsonl_round_trip_through_report(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        collector = TelemetryCollector([JsonLinesSink(path)])
        with collector.span("sim", "run", shots=2):
            with collector.span("decoder", "decode"):
                pass
        collector.event("parallel", "dispatch")
        collector.count("sim", "gates", field="h", amount=4)
        collector.close()

        aggregate = aggregate_trace(load_trace(path))
        assert aggregate.spans[("sim", "run")][0] == 1
        assert aggregate.spans[("decoder", "decode")][0] == 1
        assert aggregate.events[("parallel", "dispatch")] == 1
        assert aggregate.counters[("sim", "gates")] == {"h": 4}
        # The saved totals match the live collector's aggregates.
        for key, (calls, seconds) in aggregate.spans.items():
            live_calls, live_seconds = collector.span_totals[key]
            assert calls == live_calls
            assert seconds == pytest.approx(live_seconds)

    def test_load_trace_tolerates_torn_final_line(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text(
            json.dumps({"type": "event", "category": "a", "name": "b"})
            + "\n"
            + '{"type": "event", "cat'  # interrupted write
        )
        records = load_trace(str(path))
        assert len(records) == 1

    def test_jsonl_sink_leaves_valid_empty_file(self, tmp_path):
        path = str(tmp_path / "empty.jsonl")
        sink = JsonLinesSink(path)
        sink.close()
        assert load_trace(path) == []

    def test_close_is_idempotent_and_flushes_counters(self):
        sink = MemorySink()
        collector = TelemetryCollector([sink])
        collector.count("a", "x")
        collector.close()
        collector.close()
        assert len(sink.of_type("counter")) == 1
        assert sink.closed


class TestEnableDisable:
    def test_disabled_by_default(self):
        assert telemetry.ACTIVE is None

    def test_enable_disable_round_trip(self):
        collector = telemetry.enable()
        try:
            assert telemetry.ACTIVE is collector
        finally:
            previous = telemetry.disable()
        assert previous is collector
        assert telemetry.ACTIVE is None

    def test_enabled_context_restores_previous(self):
        outer = TelemetryCollector()
        with telemetry.enabled(outer):
            with telemetry.enabled() as inner:
                assert telemetry.ACTIVE is inner
            assert telemetry.ACTIVE is outer
        assert telemetry.ACTIVE is None

    def test_summary_table_mentions_all_sections(self):
        collector = TelemetryCollector()
        with collector.span("sim", "run"):
            pass
        collector.count("sim", "gates")
        collector.event("parallel", "dispatch")
        table = collector.summary_table()
        assert "spans" in table
        assert "counters" in table
        assert "events" in table
        assert "sim/run" in table

    def test_summary_table_empty_collector(self):
        table = TelemetryCollector().summary_table()
        assert "no instrumented activity" in table


class TestInstrumentationIntegration:
    def test_batched_ler_emits_expected_categories(self):
        from repro.experiments.ler import BatchedLerExperiment

        with telemetry.enabled() as collector:
            BatchedLerExperiment(
                5e-3,
                num_shots=4,
                use_pauli_frame=True,
                windows=5,
                seed=1,
            ).run_counts()
        categories = {key[0] for key in collector.span_totals}
        assert "experiment" in categories
        assert "qpdo" in categories
        assert "sim.stabilizer" in categories
        assert "sim.framesim" in categories
        assert any(c.startswith("decoder.") for c in categories)

    @pytest.mark.parametrize(
        "engine, category",
        [
            ("framesim", "sim.framesim"),
            ("packed-fast", None),
        ],
    )
    def test_frame_map_span_per_execution(self, engine, category):
        from repro.experiments.ler import BatchedLerExperiment

        sink = MemorySink()
        with telemetry.enabled(TelemetryCollector([sink])) as collector:
            BatchedLerExperiment(
                5e-2, num_shots=70, windows=2, seed=3, engine=engine
            ).run_counts()
        runs = [
            record
            for record in sink.of_type("span_begin")
            if record["name"] == "FrameMap.run"
        ]
        executes = sum(
            calls
            for (kind, _), (calls, _) in collector.span_totals.items()
            if kind == "qpdo"
        )
        if category is None:  # packed-fast keeps its slot kernels
            assert runs == []
            return
        assert len(runs) == executes
        assert {record["category"] for record in runs} == {category}
        assert all(
            set(record["meta"]) == {"shots", "rows"}
            and record["meta"]["shots"] == 70
            for record in runs
        )
        assert collector.counters[(category, "FrameMap.run")]["hits"] > 0

    @pytest.mark.parametrize("engine", ["framesim", "packed-fast"])
    @pytest.mark.parametrize("error_kind", ["x", "z"])
    @pytest.mark.parametrize("windows", [1, 3])
    def test_two_core_calls_per_window(self, engine, error_kind, windows):
        """Each stretch without feedback is one circuit: the init
        stretch and the probe, then per window its noisy rounds and
        the diagnostic round with the probe."""
        from repro.experiments.ler import BatchedLerExperiment

        with telemetry.enabled() as collector:
            BatchedLerExperiment(
                5e-2,
                num_shots=70,
                error_kind=error_kind,
                windows=windows,
                seed=3,
                engine=engine,
            ).run_counts()
        calls, _ = collector.span_totals[
            ("qpdo", "PackedStabilizerCore.execute")
        ]
        assert calls == 2 + 2 * windows

    def test_two_arm_run_counts_its_shards_per_arm(self):
        """A fused run over both arms of a point labels its spans with
        how many shards of each arm it holds, not with one arm."""
        from repro.experiments.parallel import plan_shards, run_shards

        specs = plan_shards([5e-3], "x", 6, 2, 2, 1)[1:]
        sink = MemorySink()
        with telemetry.enabled(TelemetryCollector([sink])):
            run_shards(specs)
        spans = {
            record["name"]: record["meta"]
            for record in sink.of_type("span_begin")
            if record["name"]
            in ("run_shards", "BatchedLerExperiment.run_counts")
        }
        assert len(spans) == 2
        for meta in spans.values():
            assert (meta["frameless_shards"], meta["frame_shards"]) == (2, 3)
            assert "use_pauli_frame" not in meta

    def test_disabled_run_records_nothing(self):
        from repro.experiments.ler import BatchedLerExperiment

        probe = TelemetryCollector([MemorySink()])
        assert telemetry.ACTIVE is None
        BatchedLerExperiment(
            5e-3, num_shots=2, windows=3, seed=2
        ).run_counts()
        assert telemetry.ACTIVE is None
        assert probe.span_totals == {}


class TestDisabledOverhead:
    def test_disabled_overhead_under_five_percent(self):
        """The null-object fast path stays within the 5% budget.

        Strategy: run the 1k-shot batched LER workload with telemetry
        disabled and time it, then run the same workload instrumented
        to count how many telemetry touch points it executes.  The
        disabled cost of one touch point is a module attribute load
        plus an ``is None`` check; ``timeit`` measures that directly.
        The product (touch points x per-check cost) must stay well
        under 5% of the disabled runtime.
        """
        from repro.experiments.ler import BatchedLerExperiment

        def workload():
            return BatchedLerExperiment(
                5e-3,
                num_shots=1000,
                use_pauli_frame=True,
                windows=4,
                seed=5,
            ).run_counts()

        assert telemetry.ACTIVE is None
        start = time.perf_counter()
        workload()
        run_seconds = time.perf_counter() - start

        with telemetry.enabled() as collector:
            workload()
        touch_points = sum(
            calls for calls, _ in collector.span_totals.values()
        )
        touch_points += sum(collector.event_totals.values())
        # Counter sites tally many fields per call; bound generously.
        touch_points += sum(
            int(max(fields.values()))
            for fields in collector.counters.values()
        )

        per_check = (
            timeit.timeit(
                "t = telemetry.ACTIVE\n"
                "if t is not None:\n"
                "    raise AssertionError",
                setup="from repro import telemetry",
                number=10_000,
            )
            / 10_000
        )
        estimated_overhead = touch_points * per_check
        assert estimated_overhead < 0.05 * run_seconds, (
            f"{touch_points} touch points x {per_check:.2e}s "
            f"= {estimated_overhead:.4f}s vs run {run_seconds:.4f}s"
        )
