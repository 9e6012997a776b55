"""Wire documents of ``repro.serve``: schemas and round-trips.

Every serve document kind must (a) be registered in the unified
results API, (b) validate against its draft 2020-12 schema in
``REPORT_SCHEMAS``, and (c) round-trip bytes → dataclass → bytes.
The submission schema's rejection behaviour is pinned as well — a
malformed job document must fail validation *before* it can enter
the queue.
"""

import copy
import json

import pytest

from repro.experiments.results import (
    RESULT_KINDS,
    result_from_json_dict,
)
from repro.experiments.schemas import REPORT_SCHEMAS, validate
from repro.serve import (
    JOB_SUBMIT_SCHEMA,
    JobListReport,
    JobResultReport,
    JobStatusReport,
    ServeErrorReport,
    ServeHealthReport,
    ServeSelfTestReport,
)
from repro.serve.app import _check_schema, _validate_submit_document
from repro.serve.routes import HttpError
from repro.tools.validate_cli_json import validate_document

jsonschema = pytest.importorskip("jsonschema")

_STATUS_FIELDS = dict(
    job_id="j1",
    job_kind="ler",
    state="running",
    priority=2,
    attempts=1,
    max_attempts=3,
    seed=1234,
    submitted_seq=0,
    error=None,
    queued_at=100.0,
    started_at=101.5,
    finished_at=None,
)

#: One representative instance per serve document kind.
EXAMPLES = [
    JobStatusReport(**_STATUS_FIELDS),
    JobResultReport(
        job_id="j1",
        job_kind="decode",
        seed=7,
        result={"job_kind": "decode", "decode": {"shots": 2}},
    ),
    JobListReport(
        jobs=[
            {
                key: value
                for key, value in _STATUS_FIELDS.items()
            }
        ]
    ),
    ServeErrorReport(
        error="bad_params", message="no rate", job_id=None
    ),
    ServeHealthReport(
        status="ok",
        workers=2,
        job_slots=1,
        jobs_total=3,
        jobs_pending=1,
        jobs_running=1,
        jobs_done=1,
        jobs_failed=0,
        jobs_cancelled=0,
        fleet_respawns=0,
        uptime_seconds=12.5,
    ),
    ServeSelfTestReport(
        passed=True,
        submitted=2,
        completed=2,
        documents_validated=8,
        health={"status": "ok"},
    ),
]


@pytest.mark.parametrize(
    "report", EXAMPLES, ids=lambda r: r.kind
)
def test_document_validates_against_registered_schema(report):
    payload = report.to_json_dict()
    jsonschema.validate(payload, REPORT_SCHEMAS[report.kind])


@pytest.mark.parametrize(
    "report", EXAMPLES, ids=lambda r: r.kind
)
def test_document_round_trips_through_results_api(report):
    payload = json.loads(report.to_json())
    rebuilt = result_from_json_dict(payload)
    assert type(rebuilt) is type(report)
    assert rebuilt == report
    assert json.loads(rebuilt.to_json()) == payload


def test_all_serve_kinds_registered():
    for kind in (
        "job_status",
        "job_result",
        "job_list",
        "serve_error",
        "serve_health",
        "serve_selftest",
    ):
        assert kind in RESULT_KINDS
        assert kind in REPORT_SCHEMAS


class TestSubmitSchema:
    def _ok(self, payload):
        jsonschema.validate(payload, JOB_SUBMIT_SCHEMA)

    def _rejected(self, payload):
        with pytest.raises(jsonschema.ValidationError):
            self._ok(payload)

    def test_minimal_submission_validates(self):
        self._ok({"job_kind": "ler", "params": {}})

    def test_full_submission_validates(self):
        self._ok(
            {
                "job_id": "mine",
                "job_kind": "sweep",
                "priority": 3,
                "max_attempts": 2,
                "params": {"per_values": [0.01]},
            }
        )

    def test_missing_required_fields_rejected(self):
        self._rejected({"params": {}})
        self._rejected({"job_kind": "ler"})

    def test_unknown_kind_rejected(self):
        self._rejected({"job_kind": "mystery", "params": {}})

    def test_unknown_top_level_field_rejected(self):
        self._rejected(
            {"job_kind": "ler", "params": {}, "color": "red"}
        )

    def test_bad_field_types_rejected(self):
        self._rejected({"job_kind": "ler", "params": []})
        self._rejected(
            {"job_kind": "ler", "params": {}, "priority": "high"}
        )
        self._rejected(
            {"job_kind": "ler", "params": {}, "max_attempts": 0}
        )
        self._rejected({"job_kind": "ler", "params": {}, "job_id": ""})


class TestCachedValidator:
    """:func:`repro.experiments.schemas.validate` is
    ``jsonschema.validate`` with each schema checked once a process."""

    #: Refused submissions: five with several schema errors, in each
    #: of which the first error found is not the one reported, and a
    #: body that is not an object.
    SEVERAL_ERRORS = [
        {"job_kind": "mystery", "params": [], "extra": 1},
        {"priority": "high", "max_attempts": 0, "job_id": ""},
        {"job_kind": "ler", "params": 3, "priority": 1.5, "color": "x"},
        {"params": [], "job_id": 7, "max_attempts": "2"},
        {"job_id": "", "job_kind": "x", "params": {}},
        [],
    ]

    @pytest.mark.parametrize("payload", SEVERAL_ERRORS)
    def test_several_errors_report_what_jsonschema_reports(
        self, payload
    ):
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(payload, JOB_SUBMIT_SCHEMA)
        with pytest.raises(jsonschema.ValidationError) as cached:
            validate(payload, JOB_SUBMIT_SCHEMA)
        assert str(cached.value) == str(expected.value)
        if isinstance(payload, dict):
            with pytest.raises(HttpError) as refused:
                _validate_submit_document(payload)
            assert refused.value.status == 400
            assert refused.value.report.error == "bad_document"
            assert refused.value.report.message == (
                f"job document: {expected.value.message}"
            )

    def test_check_schema_runs_once_per_schema(self, monkeypatch):
        cls = jsonschema.validators.validator_for(JOB_SUBMIT_SCHEMA)
        original = cls.check_schema
        checked = []

        def counted(schema, *args, **kwargs):
            checked.append(id(schema))
            return original(schema, *args, **kwargs)

        monkeypatch.setattr(cls, "check_schema", staticmethod(counted))
        fresh = copy.deepcopy(JOB_SUBMIT_SCHEMA)
        error = ServeErrorReport(error="e", message="m")
        for _ in range(3):
            validate({"job_kind": "ler", "params": {}}, fresh)
            with pytest.raises(jsonschema.ValidationError):
                validate({"params": {}}, fresh)
            _validate_submit_document({"job_kind": "ler", "params": {}})
            _check_schema(error.to_json_dict())
            validate_document("serve_error", error.to_json())
        assert checked.count(id(fresh)) == 1
        # Filled earlier in this process or in this test: at most once.
        assert checked.count(id(JOB_SUBMIT_SCHEMA)) <= 1
        assert checked.count(id(REPORT_SCHEMAS["serve_error"])) <= 1


class TestStatusResultSplit:
    """The deliberate determinism split between status and result."""

    def test_status_carries_timestamps(self):
        payload = JobStatusReport(**_STATUS_FIELDS).to_json_dict()
        assert {"queued_at", "started_at", "finished_at"} <= set(
            payload
        )

    def test_result_carries_no_timestamps(self):
        payload = JobResultReport(
            job_id="a", job_kind="ler", seed=1, result={}
        ).to_json_dict()
        assert not {
            "queued_at", "started_at", "finished_at", "attempts",
        } & set(payload)
