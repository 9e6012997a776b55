"""Tests for the CLI's --json documents, schemas and telemetry flags."""

import json

import pytest

from repro.experiments.results import result_from_json_dict
from repro.experiments.schemas import REPORT_SCHEMAS
from repro.tools.validate_cli_json import (
    run_subcommand,
    subcommand_invocations,
    validate_document,
)

jsonschema = pytest.importorskip("jsonschema")


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    """A real trace produced by a tiny traced CLI run."""
    path = str(
        tmp_path_factory.mktemp("trace") / "trace.jsonl"
    )
    code, _ = run_subcommand(
        ["ler", "--per", "1e-2", "--errors", "2", "--trace", path]
    )
    assert code == 0
    return path


def _fast_invocations(trace_path):
    cases = subcommand_invocations(trace_path)
    # Trim the heaviest Monte-Carlo knobs further for the test-suite.
    cases["verify"] = [
        "verify", "--iterations", "1", "--qubits", "3",
        "--gates", "10",
    ]
    cases["distance"] = [
        "distance", "--distances", "3", "--per", "0.05",
        "--trials", "20",
    ]
    cases["phenomenological"] = [
        "phenomenological", "--distances", "3", "--per", "0.02",
        "--trials", "10",
    ]
    cases["memory"] = ["memory", "--distances", "3", "--trials", "2"]
    return cases


def test_every_subcommand_has_an_invocation_and_schema(trace_path):
    from repro.cli import _HANDLERS

    cases = subcommand_invocations(trace_path)
    assert set(cases) == set(_HANDLERS)
    # Every case's document kind is registered; the serve subcommand
    # contributes the whole wire-document family beyond its own kind.
    serve_kinds = {
        "job_status",
        "job_result",
        "job_list",
        "serve_error",
        "serve_health",
        "serve_selftest",
    }
    assert serve_kinds <= set(REPORT_SCHEMAS)
    assert len(REPORT_SCHEMAS) == len(cases) + len(serve_kinds) - 1


@pytest.mark.parametrize(
    "command",
    [
        "verify",
        "ler",
        "sweep",
        "census",
        "schedule",
        "bound",
        "distance",
        "phenomenological",
        "memory",
        "inject",
        "report",
        "serve",
        "lint-circuit",
        "lint-code",
    ],
)
def test_json_document_validates_and_round_trips(
    command, trace_path
):
    argv = _fast_invocations(trace_path)[command]
    code, output = run_subcommand(argv + ["--json"])
    assert code == 0
    payload = validate_document(command, output)
    # validate_document already schema-checks and round-trips; pin
    # the discriminator → dataclass dispatch here as well.
    rebuilt = result_from_json_dict(payload)
    assert rebuilt.kind == payload["kind"]


def test_json_flag_accepted_before_subcommand():
    code, output = run_subcommand(["--json", "schedule"])
    assert code == 0
    payload = json.loads(output)
    assert payload["kind"] == "schedule_report"


def test_human_output_is_not_json():
    code, output = run_subcommand(["schedule"])
    assert code == 0
    assert "deadline relaxed" in output
    with pytest.raises(json.JSONDecodeError):
        json.loads(output)


def test_validate_document_rejects_multiple_documents():
    with pytest.raises(AssertionError, match="exactly one"):
        validate_document("x", '{"kind": "a"}\n{"kind": "b"}\n')


def test_ler_parallel_json_carries_shard_metadata(tmp_path):
    code, output = run_subcommand(
        [
            "ler",
            "--batch",
            "10",
            "--windows",
            "20",
            "--shard-shots",
            "5",
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(output)
    jsonschema.validate(payload, REPORT_SCHEMAS["ler_report"])
    assert payload["mode"] == "parallel"
    assert payload["committed_shards"] == 4  # 2 arms x 2 shards
    arms = payload["arms"]
    assert [arm["use_pauli_frame"] for arm in arms] == [False, True]
    assert all(arm["wilson_low"] is not None for arm in arms)


def test_sweep_parallel_json_carries_per_point_arms():
    code, output = run_subcommand(
        [
            "sweep",
            "--per",
            "6e-3",
            "1e-2",
            "--samples",
            "10",
            "--batch",
            "10",
            "--workers",
            "1",
            "--shard-shots",
            "5",
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(output)
    jsonschema.validate(payload, REPORT_SCHEMAS["sweep_report"])
    assert [arm["point_index"] for arm in payload["arms"]] == [
        0,
        0,
        1,
        1,
    ]
    rebuilt = result_from_json_dict(payload)
    assert json.loads(rebuilt.to_json()) == payload


def test_trace_and_metrics_flags(tmp_path, capsys):
    from repro.cli import main
    from repro.telemetry import aggregate_trace, load_trace

    path = str(tmp_path / "t.jsonl")
    code = main(
        [
            "ler",
            "--per",
            "1e-2",
            "--errors",
            "2",
            "--trace",
            path,
            "--metrics",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "telemetry summary" in captured.err
    aggregate = aggregate_trace(load_trace(path))
    categories = set(aggregate.categories)
    assert "experiment" in categories
    assert "qpdo" in categories

    # The saved trace renders through the report subcommand.
    code = main(["report", path])
    assert code == 0
    out = capsys.readouterr().out
    assert "span" in out
    assert "experiment/LerExperiment.run" in out


def test_acceptance_trace_covers_all_layers(tmp_path, capsys):
    """repro ler --batch --trace T --metrics, then repro report T."""
    from repro.cli import main

    path = str(tmp_path / "accept.jsonl")
    # The reference pass emits a sim.stabilizer span whether it is
    # recorded or replayed from the structure-keyed cache, so the
    # seed does not matter here.
    code = main(
        [
            "ler",
            "--batch",
            "4",
            "--windows",
            "10",
            "--seed",
            "20260808",
            "--trace",
            path,
            "--metrics",
        ]
    )
    assert code == 0
    capsys.readouterr()

    code, output = run_subcommand(["report", path, "--json"])
    assert code == 0
    payload = validate_document("report", output)
    categories = {row["category"] for row in payload["spans"]}
    assert "qpdo" in categories
    simulators = {
        c for c in categories if c.startswith("sim.")
    }
    assert len(simulators) >= 2
    assert any(c.startswith("decoder.") for c in categories)
    assert "parallel" in categories
    event_names = {
        (row["category"], row["name"])
        for row in payload["events"]
    }
    assert ("parallel", "shard_dispatch") in event_names
    assert ("parallel", "shard_commit") in event_names
