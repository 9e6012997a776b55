"""CI gate: every CLI subcommand's ``--json`` output is valid.

Runs one cheap invocation per subcommand through
:func:`repro.cli.main`, captures stdout, and checks that

* the output is exactly one JSON document,
* it validates against its schema in
  :data:`repro.experiments.schemas.REPORT_SCHEMAS`, and
* it round-trips through the unified results API
  (:func:`repro.experiments.results.result_from_json_dict`).

Usage::

    python -m repro.tools.validate_cli_json
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from typing import Dict, List, Tuple


def subcommand_invocations(trace_path: str) -> Dict[str, List[str]]:
    """One cheap, deterministic argv per subcommand.

    ``trace_path`` is a telemetry trace produced beforehand, consumed
    by the ``report`` subcommand's invocation.
    """
    return {
        "verify": [
            "verify", "--iterations", "2", "--qubits", "3",
            "--gates", "15",
        ],
        "ler": ["ler", "--per", "1e-2", "--errors", "2"],
        "sweep": [
            "sweep", "--per", "1e-2", "--samples", "2",
            "--errors", "2",
        ],
        "decoders": ["decoders"],
        "census": ["census"],
        "schedule": ["schedule"],
        "bound": ["bound", "--max-distance", "5"],
        "distance": [
            "distance", "--distances", "3", "--per", "0.05",
            "--trials", "50",
        ],
        "phenomenological": [
            "phenomenological", "--distances", "3", "--per", "0.02",
            "--trials", "20",
        ],
        "memory": ["memory", "--distances", "3", "--trials", "5"],
        "inject": ["inject"],
        "report": ["report", trace_path],
        # Boots a real server on an ephemeral port, runs one job of
        # each kind over HTTP and schema-checks every wire document.
        "serve": ["serve", "--self-test", "--port", "0"],
        # Doubles as the zero-unsuppressed-findings lint gate: a
        # non-zero exit fails validation.
        "lint-code": ["lint-code"],
        "analyze": ["analyze", "matrix"],
        "lint-circuit": ["lint-circuit", "sc17-esm"],
    }


def run_subcommand(argv: List[str]) -> Tuple[int, str]:
    """Invoke the CLI in-process, returning (exit code, stdout)."""
    from repro.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def validate_document(command: str, output: str) -> Dict:
    """Assert one valid, schema-conforming, round-trippable document."""
    import jsonschema

    from repro.experiments.results import result_from_json_dict
    from repro.experiments.schemas import REPORT_SCHEMAS

    documents = [
        line for line in output.splitlines() if line.strip()
    ]
    if len(documents) != 1:
        raise AssertionError(
            f"{command}: expected exactly one JSON document on "
            f"stdout, got {len(documents)} non-empty lines"
        )
    payload = json.loads(documents[0])
    kind = payload.get("kind")
    schema = REPORT_SCHEMAS.get(kind)
    if schema is None:
        raise AssertionError(
            f"{command}: no schema registered for kind {kind!r}"
        )
    jsonschema.validate(payload, schema)
    rebuilt = result_from_json_dict(payload)
    if json.loads(rebuilt.to_json()) != payload:
        raise AssertionError(
            f"{command}: document does not round-trip through "
            f"{type(rebuilt).__name__}"
        )
    return payload


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = os.path.join(tmp, "trace.jsonl")
        # A tiny traced run gives the report subcommand real input.
        code, _ = run_subcommand(
            ["ler", "--per", "1e-2", "--errors", "2",
             "--trace", trace_path]
        )
        if code != 0:
            print(f"trace-producing run failed with exit {code}")
            return 1
        failures = 0
        for command, argv in subcommand_invocations(
            trace_path
        ).items():
            try:
                code, output = run_subcommand(argv + ["--json"])
                if code != 0:
                    raise AssertionError(
                        f"{command}: exit code {code}"
                    )
                payload = validate_document(command, output)
            except Exception as error:  # noqa: BLE001 - CI gate
                failures += 1
                print(f"FAIL {command}: {error}")
            else:
                print(f"ok   {command} ({payload['kind']})")
    if failures:
        print(f"{failures} subcommand(s) failed validation")
        return 1
    print("all subcommands emit valid --json documents")
    return 0


if __name__ == "__main__":
    sys.exit(main())
