"""Human-readable rendering of the CLI's result documents.

Every ``print()``-bound string of :mod:`repro.cli` is built here, from
the same unified report dataclasses
(:mod:`repro.experiments.results`) that back ``--json`` — one source
of truth, two presentations — except the ch. 6 scaling tables, which
``distance`` and ``phenomenological`` print through their experiment
modules' own formatters.  Each ``render_*`` function returns a
complete multi-line string; the CLI only decides *which* document to
emit, never how it looks.
"""

from __future__ import annotations

from typing import Dict

from .experiments.results import (
    ArmReport,
    BoundReport,
    CircuitReport,
    DecodersReport,
    InjectReport,
    LerReport,
    LintReport,
    MatrixReport,
    MemoryReport,
    ScheduleReport,
    SweepReport,
    TraceReport,
    VerifyReport,
)


def _arm_label(use_pauli_frame: bool) -> str:
    return "with frame   " if use_pauli_frame else "without frame"


def render_verify(report: VerifyReport) -> str:
    """The section 5.2 verification bench summary."""
    lines = [
        f"random circuits: {report.matches}/{report.iterations} "
        f"states match up to global phase "
        f"({report.total_gates_filtered} Pauli gates filtered)",
        f"odd Bell state, with frame:    "
        f"{report.histogram_with_frame}",
        f"odd Bell state, without frame: "
        f"{report.histogram_without_frame}",
        "verification " + ("PASSED" if report.passed else "FAILED"),
    ]
    return "\n".join(lines)


def _arm_line(arm: ArmReport) -> str:
    return (
        f"{_arm_label(arm.use_pauli_frame)}: "
        f"LER = {arm.logical_error_rate:.5f} "
        f"({arm.logical_errors} errors / {arm.windows} windows, "
        f"95% CI [{arm.wilson_low:.5f}, {arm.wilson_high:.5f}], "
        f"{arm.committed_shards}/{arm.num_shards} shards)"
    )


def _shards_line(report) -> str:
    return (
        f"shards: {report.committed_shards} committed "
        f"({report.executed_shards} executed, "
        f"{report.resumed_shards} resumed from checkpoint)"
    )


def render_ler(report: LerReport) -> str:
    """One LER point, both arms, with the frame's saved slots when the
    per-shot loop counted them."""
    lines = []
    for arm in report.arms:
        lines.append(_arm_line(arm))
        if arm.saved_slots_fraction is not None:
            lines.append(
                f"               saved slots: "
                f"{100 * arm.saved_slots_fraction:.2f}% (bound 5.88%)"
            )
    lines.append(_shards_line(report))
    return "\n".join(lines)


def render_sweep(report: SweepReport, plot: bool = False) -> str:
    """The sweep table plus aggregate statistics (Figs 5.11-5.26)."""
    from .experiments.sweep import format_sweep_table

    lines = [format_sweep_table(report.sweep)]
    if report.arms is not None:
        per_values = report.sweep.per_values()
        for index, per in enumerate(per_values):
            lines.append(f"PER {per:g}:")
            for arm_data in report.arms:
                if arm_data["point_index"] != index:
                    continue
                lines.append(
                    _arm_line(
                        ArmReport.from_json_dict(
                            {"kind": "ler_arm", **arm_data}
                        )
                    )
                )
        lines.append(_shards_line(report))
    lines.append(
        f"mean rho = {report.mean_rho:.2f}; points with "
        f"rho < 0.05: {100 * report.significant_fraction:.0f}%"
    )
    if plot:
        from .utils.ascii_plot import sweep_figure

        lines.append("")
        lines.append(sweep_figure(report.sweep))
    return "\n".join(lines)


def render_census(censuses: Dict) -> str:
    """Per-workload Pauli-gate census blocks (section 3.3)."""
    from .circuits import format_census

    lines = []
    for name, workload_census in censuses.items():
        lines.append(f"== {name} ==")
        lines.append(format_census(workload_census))
        lines.append("")
    return "\n".join(lines)


def render_schedule(report: ScheduleReport) -> str:
    """The Fig. 3.3 schedule comparison."""
    return "\n".join(
        [
            f"window duration: "
            f"{report.without_frame['window_duration']} "
            f"-> {report.with_frame['window_duration']} "
            f"({report.relative_time_saved:.1%} saved)",
            f"decoder deadline relaxed x"
            f"{report.decoder_deadline_relaxation:.2f}",
        ]
    )


def render_bound(report: BoundReport) -> str:
    """The Fig. 5.27 analytic improvement-bound table."""
    from .experiments.analytic import format_upper_bound_table

    return format_upper_bound_table(
        tuple(row["distance"] for row in report.rows),
        ts_esm=report.ts_esm,
    )


def render_decoders(report: DecodersReport) -> str:
    """The registered-decoder catalogue as a text table."""
    lines = ["name           capabilities"]
    for row in report.decoders:
        caps = ",".join(row["capabilities"])
        lines.append(f"{row['name']:<14} {caps}")
        lines.append(f"    {row['summary']}")
    return "\n".join(lines)


def render_memory(report: MemoryReport) -> str:
    """Circuit-level block memory rows (ch. 6)."""
    lines = [
        f"circuit-level block memory at "
        f"p = {report.physical_error_rate:g}:"
    ]
    for row in report.rows:
        lines.append(
            f"  d={row['distance']}: block LER "
            f"{row['logical_error_rate']:.5f} "
            f"({row['logical_errors']}/{row['windows']} blocks)"
        )
    return "\n".join(lines)


def render_inject(report: InjectReport) -> str:
    """Logical state-injection fidelity check."""
    observed = report.observed
    expected = report.expected
    return "\n".join(
        [
            f"injected logical Bloch vector: "
            f"({observed[0]:+.4f}, {observed[1]:+.4f}, "
            f"{observed[2]:+.4f})",
            f"target:                        "
            f"({expected[0]:+.4f}, {expected[1]:+.4f}, "
            f"{expected[2]:+.4f})",
            f"max component error: {report.max_error:.2e}",
        ]
    )


def render_trace_report(report: TraceReport) -> str:
    """Per-layer/per-kernel breakdown of a saved telemetry trace."""
    from .telemetry.report import (
        TraceAggregate,
        render_counter_table,
        render_span_table,
    )

    aggregate = TraceAggregate(
        spans={
            (row["category"], row["name"]): (
                row["calls"],
                row["total_seconds"],
            )
            for row in report.spans
        },
        counters={
            (row["category"], row["name"]): dict(row["fields"])
            for row in report.counters
        },
        events={
            (row["category"], row["name"]): row["occurrences"]
            for row in report.events
        },
    )
    lines = [
        f"trace: {report.path}",
        "",
        render_span_table(aggregate),
        "",
        render_counter_table(aggregate),
    ]
    if report.events:
        lines.append("")
        lines.append(f"{'event':<46s} occurrences")
        for row in report.events:
            lines.append(
                f"{row['category'] + '/' + row['name']:<46s} "
                f"{row['occurrences']}"
            )
    return "\n".join(lines)


def _finding_line(finding: Dict) -> str:
    location = finding.get("location", {})
    if "path" in location:
        where = f"{location['path']}:{location.get('line', '?')}"
    elif "slot" in location:
        where = (
            f"slot {location['slot']} "
            f"op {location.get('operation', '?')}"
        )
    else:
        where = location.get("circuit", "-")
    suffix = " (suppressed)" if finding.get("suppressed") else ""
    return (
        f"  {finding['code']} [{finding['severity']}] {where}: "
        f"{finding['message']}{suffix}"
    )


def render_circuit_report(report: CircuitReport) -> str:
    """The ``repro lint-circuit`` pre-flight analysis summary."""
    census = ", ".join(
        f"{gate}x{count}"
        for gate, count in sorted(report.gate_census.items())
    )
    lines = [
        f"circuit: {report.circuit}",
        f"  qubits {report.num_qubits}, slots {report.num_slots}, "
        f"operations {report.num_operations}",
        f"  gate census: {census}",
        f"  clifford: {'yes' if report.is_clifford else 'no'} "
        f"-> routing: {report.routing}"
        + (f" (target: {report.target})" if report.target else ""),
        f"  frame-safe: {'yes' if report.frame_safe else 'no'} "
        f"(initial frame {report.initial_frame}, "
        f"policy {report.frame_policy})",
    ]
    if report.findings:
        lines.append("findings:")
        lines.extend(_finding_line(f) for f in report.findings)
    lines.append(
        f"pre-flight {'PASSED' if report.passed else 'FAILED'} "
        f"({report.errors} error(s), {report.warnings} warning(s))"
    )
    return "\n".join(lines)


def render_lint_report(report: LintReport) -> str:
    """The ``repro lint-code`` determinism-linter summary."""
    lines = [
        f"linted {report.files_checked} file(s) under {report.root}"
    ]
    if report.findings:
        lines.append("findings:")
        lines.extend(_finding_line(f) for f in report.findings)
    if report.counts_by_code:
        per_code = ", ".join(
            f"{code}: {count}"
            for code, count in sorted(report.counts_by_code.items())
        )
        lines.append(f"by code: {per_code}")
    lines.append(
        f"lint {'PASSED' if report.passed else 'FAILED'} "
        f"({report.unsuppressed} unsuppressed, "
        f"{report.suppressed} suppressed)"
    )
    return "\n".join(lines)


def render_matrix_report(report: MatrixReport) -> str:
    """The ``repro analyze matrix`` capability-matrix summary."""
    lines = [
        f"capability matrix: {len(report.decoders)} decoder(s) x "
        f"{len(report.experiments)} experiment(s), "
        f"{len(report.cells)} cells checked, "
        f"{report.doc_examples} doc example(s) parsed"
    ]
    unsupported = [
        cell for cell in report.cells if not cell["supported"]
    ]
    for cell in unsupported:
        lines.append(
            f"  {cell['decoder']} x {cell['context']}: "
            f"unsupported ({cell['reason']})"
        )
    for problem in report.problems:
        lines.append(f"  PROBLEM: {problem}")
    lines.append(
        f"matrix {'PASSED' if report.passed else 'FAILED'} "
        f"({len(report.problems)} problem(s))"
    )
    return "\n".join(lines)
