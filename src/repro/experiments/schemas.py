"""JSON schemas of the CLI's ``--json`` report documents.

One schema per ``*Report`` kind of
:mod:`repro.experiments.results`, used by the CI gate
(``python -m repro.tools.validate_cli_json``) and the test-suite to
pin the machine-readable output contract of every subcommand.

The schemas are draft 2020-12 and deliberately strict about the
top-level shape (``additionalProperties: false``, all fields
required) while leaving free-form row/metadata dicts open.
"""

from __future__ import annotations

from typing import Dict

_NUMBER = {"type": "number"}
_INT = {"type": "integer"}
_BOOL = {"type": "boolean"}
_STRING = {"type": "string"}


def _nullable(schema: Dict) -> Dict:
    return {"anyOf": [schema, {"type": "null"}]}


def _obj(properties: Dict, required=None, extra=False) -> Dict:
    return {
        "type": "object",
        "properties": properties,
        "required": sorted(
            required if required is not None else properties
        ),
        "additionalProperties": extra,
    }


def _array(items: Dict) -> Dict:
    return {"type": "array", "items": items}


def _kind(name: str) -> Dict:
    return {"const": name}


def _int_map() -> Dict:
    return {"type": "object", "additionalProperties": _INT}


_STREAM_COUNTS = _obj(
    {"operations": _INT, "slots": _INT},
    extra=True,
)

_FRAME_STATISTICS = {"type": "object"}

#: One static-analysis finding (:mod:`repro.analysis.findings`).
_FINDING = _obj(
    {
        "code": _STRING,
        "severity": {"enum": ["error", "warning", "info"]},
        "message": _STRING,
        "location": {"type": "object"},
        "suppressed": _BOOL,
        "suppression_reason": _nullable(_STRING),
    }
)

_RUN_RESULT = _obj(
    {
        "kind": _kind("run"),
        "physical_error_rate": _NUMBER,
        "error_kind": _STRING,
        "use_pauli_frame": _BOOL,
        "windows": _INT,
        "logical_errors": _INT,
        "clean_windows": _INT,
        "corrections_commanded": _INT,
        "frame_statistics": _nullable(_FRAME_STATISTICS),
        "counts_above": _STREAM_COUNTS,
        "counts_below": _STREAM_COUNTS,
        "decoder": _nullable(_STRING),
    }
)

_SAMPLE_SUMMARY = _obj(
    {
        "physical_error_rate": _NUMBER,
        "use_pauli_frame": _BOOL,
        "ler_values": _array(_NUMBER),
        "window_counts": _array(_NUMBER),
    }
)

_POINT_COMPARISON = _obj(
    {
        "physical_error_rate": _NUMBER,
        "without_frame": _SAMPLE_SUMMARY,
        "with_frame": _SAMPLE_SUMMARY,
        "delta_ler": _NUMBER,
        "sigma_max": _NUMBER,
        "rho_independent": _NUMBER,
        "rho_paired": _nullable(_NUMBER),
    }
)

_SWEEP_POINT = _obj(
    {
        "kind": _kind("sweep_point"),
        "physical_error_rate": _NUMBER,
        "without_frame": _array(_RUN_RESULT),
        "with_frame": _array(_RUN_RESULT),
        "comparison": _POINT_COMPARISON,
        "decoder": _nullable(_STRING),
    }
)

_SWEEP = _obj(
    {
        "kind": _kind("sweep"),
        "error_kind": _STRING,
        "points": _array(_SWEEP_POINT),
    }
)

_ARM = _obj(
    {
        "kind": _kind("ler_arm"),
        "use_pauli_frame": _BOOL,
        "logical_errors": _INT,
        "windows": _INT,
        "logical_error_rate": _NUMBER,
        "corrections_commanded": _INT,
        "wilson_low": _nullable(_NUMBER),
        "wilson_high": _nullable(_NUMBER),
        "saved_slots_fraction": _nullable(_NUMBER),
        "committed_shards": _nullable(_INT),
        "num_shards": _nullable(_INT),
    }
)

_SWEEP_ARM_ROW = _obj(
    {
        "point_index": _INT,
        **{
            key: value
            for key, value in _ARM["properties"].items()
            if key != "kind"
        },
    }
)

#: ``kind`` -> JSON schema of the full ``--json`` document.
REPORT_SCHEMAS: Dict[str, Dict] = {
    "verify_report": _obj(
        {
            "kind": _kind("verify_report"),
            "iterations": _INT,
            "matches": _INT,
            "total_gates_filtered": _INT,
            "all_match": _BOOL,
            "histogram_with_frame": _int_map(),
            "histogram_without_frame": _int_map(),
            "both_valid": _BOOL,
            "passed": _BOOL,
        }
    ),
    "ler_report": _obj(
        {
            "kind": _kind("ler_report"),
            "physical_error_rate": _NUMBER,
            "error_kind": _STRING,
            "mode": {"enum": ["loop", "batch", "parallel"]},
            "seed": _INT,
            "arms": _array(_ARM),
            "committed_shards": _nullable(_INT),
            "executed_shards": _nullable(_INT),
            "resumed_shards": _nullable(_INT),
            "decoder": _nullable(_STRING),
        }
    ),
    "sweep_report": _obj(
        {
            "kind": _kind("sweep_report"),
            "error_kind": _STRING,
            "seed": _INT,
            "mean_rho": _NUMBER,
            "significant_fraction": _NUMBER,
            "sweep": _SWEEP,
            "arms": _nullable(_array(_SWEEP_ARM_ROW)),
            "committed_shards": _nullable(_INT),
            "executed_shards": _nullable(_INT),
            "resumed_shards": _nullable(_INT),
            "decoder": _nullable(_STRING),
        }
    ),
    "decoders_report": _obj(
        {
            "kind": _kind("decoders_report"),
            "decoders": _array(
                _obj(
                    {
                        "name": _STRING,
                        "summary": _STRING,
                        "capabilities": _array(_STRING),
                    }
                )
            ),
        }
    ),
    "census_report": _obj(
        {
            "kind": _kind("census_report"),
            "workloads": {
                "type": "object",
                "additionalProperties": _obj(
                    {
                        "per_gate": _int_map(),
                        "per_class": _int_map(),
                        "total_operations": _INT,
                        "total_slots": _INT,
                        "pauli_only_slots": _INT,
                        "pauli_gate_count": _INT,
                        "pauli_fraction": _NUMBER,
                        "non_clifford_count": _INT,
                    }
                ),
            },
        }
    ),
    "schedule_report": _obj(
        {
            "kind": _kind("schedule_report"),
            "without_frame": _obj(
                {
                    "window_duration": _NUMBER,
                    "qubit_busy_time": _NUMBER,
                    "decoder_deadline": _NUMBER,
                    "idle_fraction": _NUMBER,
                }
            ),
            "with_frame": _obj(
                {
                    "window_duration": _NUMBER,
                    "qubit_busy_time": _NUMBER,
                    "decoder_deadline": _NUMBER,
                    "idle_fraction": _NUMBER,
                }
            ),
            "time_saved": _NUMBER,
            "relative_time_saved": _NUMBER,
            "decoder_deadline_relaxation": _NUMBER,
        }
    ),
    "bound_report": _obj(
        {
            "kind": _kind("bound_report"),
            "ts_esm": _INT,
            "rows": _array(
                _obj(
                    {
                        "distance": _INT,
                        "ts_window_without_frame": _INT,
                        "ts_window_with_frame": _INT,
                        "relative_improvement": _NUMBER,
                    }
                )
            ),
        }
    ),
    "distance_report": _obj(
        {
            "kind": _kind("distance_report"),
            "trials": _INT,
            "seed": _INT,
            "rows": _array(
                _obj(
                    {
                        "distance": _INT,
                        "physical_error_rate": _NUMBER,
                        "trials": _INT,
                        "logical_errors": _INT,
                        "logical_error_rate": _NUMBER,
                    }
                )
            ),
        }
    ),
    "phenomenological_report": _obj(
        {
            "kind": _kind("phenomenological_report"),
            "trials": _INT,
            "seed": _INT,
            "rows": _array(
                _obj(
                    {
                        "distance": _INT,
                        "data_error_rate": _NUMBER,
                        "measurement_error_rate": _NUMBER,
                        "trials": _INT,
                        "logical_errors": _INT,
                        "logical_error_rate": _NUMBER,
                    }
                )
            ),
        }
    ),
    "memory_report": _obj(
        {
            "kind": _kind("memory_report"),
            "physical_error_rate": _NUMBER,
            "trials": _INT,
            "seed": _INT,
            "rows": _array(
                _obj(
                    {
                        "distance": _INT,
                        "physical_error_rate": _NUMBER,
                        "use_pauli_frame": _BOOL,
                        "windows": _INT,
                        "logical_errors": _INT,
                        "clean_windows": _INT,
                        "logical_error_rate": _NUMBER,
                    }
                )
            ),
        }
    ),
    "inject_report": _obj(
        {
            "kind": _kind("inject_report"),
            "theta": _NUMBER,
            "phi": _NUMBER,
            "observed": _array(_NUMBER),
            "expected": _array(_NUMBER),
            "max_error": _NUMBER,
            "passed": _BOOL,
        }
    ),
    "trace_report": _obj(
        {
            "kind": _kind("trace_report"),
            "path": _STRING,
            "spans": _array(
                _obj(
                    {
                        "category": _STRING,
                        "name": _STRING,
                        "calls": _INT,
                        "total_seconds": _NUMBER,
                        "mean_seconds": _NUMBER,
                    }
                )
            ),
            "counters": _array(
                _obj(
                    {
                        "category": _STRING,
                        "name": _STRING,
                        "fields": {
                            "type": "object",
                            "additionalProperties": _NUMBER,
                        },
                    }
                )
            ),
            "events": _array(
                _obj(
                    {
                        "category": _STRING,
                        "name": _STRING,
                        "occurrences": _INT,
                    }
                )
            ),
        }
    ),
    "circuit_report": _obj(
        {
            "kind": _kind("circuit_report"),
            "circuit": _STRING,
            "target": _nullable(_STRING),
            "initial_frame": {"enum": ["unknown", "clean"]},
            "frame_policy": {"enum": ["forbid", "warn"]},
            "num_qubits": _INT,
            "num_slots": _INT,
            "num_operations": _INT,
            "gate_census": _int_map(),
            "is_clifford": _BOOL,
            "routing": {"enum": ["stabilizer", "statevector"]},
            "frame_safe": _BOOL,
            "findings": _array(_FINDING),
            "errors": _INT,
            "warnings": _INT,
            "passed": _BOOL,
        }
    ),
    "lint_report": _obj(
        {
            "kind": _kind("lint_report"),
            "root": _STRING,
            "files_checked": _INT,
            "findings": _array(_FINDING),
            "counts_by_code": _int_map(),
            "suppressed": _INT,
            "unsuppressed": _INT,
            "passed": _BOOL,
        }
    ),
    "matrix_report": _obj(
        {
            "kind": _kind("matrix_report"),
            "decoders": _array(_STRING),
            "experiments": _array(_STRING),
            "cells": _array(
                _obj(
                    {
                        "decoder": _STRING,
                        "context": _STRING,
                        "supported": _BOOL,
                        "reason": _STRING,
                    }
                )
            ),
            "doc_examples": _INT,
            "problems": _array(_STRING),
            "passed": _BOOL,
        }
    ),
}

# -- repro serve wire documents (see :mod:`repro.serve.wire`) ----------

#: One job's lifecycle snapshot; shared by ``job_status`` and the rows
#: of ``job_list``.
_JOB_STATUS_FIELDS = {
    "kind": _kind("job_status"),
    "job_id": _STRING,
    "job_kind": {"enum": ["ler", "sweep", "decode"]},
    "state": {
        "enum": ["pending", "running", "done", "failed", "cancelled"]
    },
    "priority": _INT,
    "attempts": _INT,
    "max_attempts": _INT,
    "seed": _INT,
    "submitted_seq": _INT,
    "error": _nullable(_STRING),
    "queued_at": _nullable(_NUMBER),
    "started_at": _nullable(_NUMBER),
    "finished_at": _nullable(_NUMBER),
}

REPORT_SCHEMAS["job_status"] = _obj(_JOB_STATUS_FIELDS)

REPORT_SCHEMAS["job_list"] = _obj(
    {
        "kind": _kind("job_list"),
        "jobs": _array(
            _obj(
                {
                    key: value
                    for key, value in _JOB_STATUS_FIELDS.items()
                    if key != "kind"
                }
            )
        ),
    }
)

REPORT_SCHEMAS["job_result"] = _obj(
    {
        "kind": _kind("job_result"),
        "job_id": _STRING,
        "job_kind": {"enum": ["ler", "sweep", "decode"]},
        "seed": _INT,
        # The payload is kind-specific (a ler_report/sweep_report dict
        # or a decode corrections document); its own schema applies.
        "result": {"type": "object"},
    }
)

REPORT_SCHEMAS["serve_error"] = _obj(
    {
        "kind": _kind("serve_error"),
        "error": _STRING,
        "message": _STRING,
        "job_id": _nullable(_STRING),
    }
)

REPORT_SCHEMAS["serve_health"] = _obj(
    {
        "kind": _kind("serve_health"),
        "status": {"enum": ["ok", "stopping"]},
        "workers": _INT,
        "job_slots": _INT,
        "jobs_total": _INT,
        "jobs_pending": _INT,
        "jobs_running": _INT,
        "jobs_done": _INT,
        "jobs_failed": _INT,
        "jobs_cancelled": _INT,
        "fleet_respawns": _INT,
        "uptime_seconds": _NUMBER,
    }
)

REPORT_SCHEMAS["serve_selftest"] = _obj(
    {
        "kind": _kind("serve_selftest"),
        "passed": _BOOL,
        "submitted": _INT,
        "completed": _INT,
        "documents_validated": _INT,
        "health": {"type": "object"},
    }
)
