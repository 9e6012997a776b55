"""Render a saved JSON-lines trace into per-layer/per-kernel tables.

This backs the ``repro report`` subcommand: it re-aggregates the raw
``span_end`` / ``event`` / ``counter`` records written by
:class:`~repro.telemetry.sinks.JsonLinesSink` into the same totals the
live collector keeps, then renders time and operation-count breakdowns
grouped by category (``qpdo``, ``sim.*``, ``decoder.*``,
``parallel``, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..utils.jsonl import read_json_lines


def load_trace(path: str) -> List[dict]:
    """Parse a JSON-lines trace file into a list of record dicts.

    A torn final line (e.g. from an interrupted run) is dropped; a
    malformed line anywhere else raises :class:`ValueError`, as in the
    checkpoint reader.
    """
    return [record for _, record in read_json_lines(path, "trace")]


@dataclass
class TraceAggregate:
    """Totals re-derived from a saved trace."""

    #: ``(category, name) -> (calls, total_seconds)``
    spans: Dict[Tuple[str, str], Tuple[int, float]] = field(
        default_factory=dict
    )
    #: ``(category, name) -> {field: amount}``
    counters: Dict[Tuple[str, str], Dict[str, float]] = field(
        default_factory=dict
    )
    #: ``(category, name) -> occurrences``
    events: Dict[Tuple[str, str], int] = field(default_factory=dict)

    @property
    def categories(self) -> List[str]:
        """Every category present, sorted."""
        keys = set()
        for mapping in (self.spans, self.counters, self.events):
            keys.update(category for category, _ in mapping)
        return sorted(keys)

    def span_rows(self) -> List[dict]:
        """Span totals as plain dicts, slowest total first."""
        rows = []
        for (category, name), (calls, seconds) in self.spans.items():
            rows.append(
                {
                    "category": category,
                    "name": name,
                    "calls": calls,
                    "total_seconds": seconds,
                    "mean_seconds": seconds / calls if calls else 0.0,
                }
            )
        rows.sort(key=lambda row: -row["total_seconds"])
        return rows

    def counter_rows(self) -> List[dict]:
        """Counter totals as plain dicts, sorted by key."""
        rows = []
        for (category, name), fields in sorted(self.counters.items()):
            rows.append(
                {
                    "category": category,
                    "name": name,
                    "fields": dict(sorted(fields.items())),
                }
            )
        return rows

    def event_rows(self) -> List[dict]:
        """Event occurrence totals as plain dicts, sorted by key."""
        return [
            {"category": category, "name": name, "occurrences": total}
            for (category, name), total in sorted(self.events.items())
        ]


def aggregate_trace(records: List[dict]) -> TraceAggregate:
    """Fold raw trace records back into per-key totals."""
    aggregate = TraceAggregate()
    for record in records:
        kind = record.get("type")
        key = (record.get("category", "?"), record.get("name", "?"))
        if kind == "span_end":
            calls, seconds = aggregate.spans.get(key, (0, 0.0))
            aggregate.spans[key] = (
                calls + 1,
                seconds + float(record.get("duration", 0.0)),
            )
        elif kind == "event":
            aggregate.events[key] = aggregate.events.get(key, 0) + 1
        elif kind == "counter":
            fields = aggregate.counters.setdefault(key, {})
            for name, amount in record.get("fields", {}).items():
                fields[name] = fields.get(name, 0) + amount
    return aggregate


def render_span_table(aggregate: TraceAggregate) -> str:
    """Per-layer/per-kernel wall-time breakdown."""
    rows = aggregate.span_rows()
    if not rows:
        return "spans: (none recorded)"
    total = sum(row["total_seconds"] for row in rows) or 1.0
    lines = [
        f"{'span':<46s} {'calls':>9s} {'total s':>10s} "
        f"{'mean us':>10s} {'share':>6s}"
    ]
    for row in rows:
        lines.append(
            f"{row['category'] + '/' + row['name']:<46s} "
            f"{row['calls']:>9d} "
            f"{row['total_seconds']:>10.4f} "
            f"{1e6 * row['mean_seconds']:>10.2f} "
            f"{100.0 * row['total_seconds'] / total:>5.1f}%"
        )
    return "\n".join(lines)


def render_counter_table(aggregate: TraceAggregate) -> str:
    """Per-layer operation-count breakdown."""
    rows = aggregate.counter_rows()
    if not rows:
        return "counters: (none recorded)"
    lines = [f"{'counter':<46s} totals"]
    for row in rows:
        rendered = ", ".join(
            f"{name}={_format_amount(amount)}"
            for name, amount in row["fields"].items()
        )
        lines.append(
            f"{row['category'] + '/' + row['name']:<46s} {rendered}"
        )
    return "\n".join(lines)


def _format_amount(value) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.4g}"
    return str(int(value))
