"""The one reader of the JSON-lines files the package appends to:
sweep checkpoints, the serve job journal and telemetry traces."""

from __future__ import annotations

import json
from typing import List, Tuple


def read_json_lines(path: str, noun: str) -> List[Tuple[int, dict]]:
    """``(line number, record)`` for every record of ``path``, in order.

    Blank lines are skipped.  A torn final line (the signature of a
    kill mid-write) is dropped; any other line that is not a JSON
    object raises :class:`ValueError` ``"<path>:<line>: malformed
    <noun> line"``.
    """
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    records = []
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError:
            payload = None
        if not isinstance(payload, dict):
            if number == len(lines):
                break  # torn final line from an interrupted write
            raise ValueError(f"{path}:{number}: malformed {noun} line")
        records.append((number, payload))
    return records
