"""Live-server tests of the ``repro serve`` HTTP endpoints.

Each test boots a real :class:`ServeApp` on an ephemeral localhost
port inside its own event loop, talks to it with a raw asyncio HTTP
client (the service has no client library on purpose — the protocol
is plain enough to speak by hand), and shuts it down cleanly.
"""

import asyncio
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.experiments.schemas import REPORT_SCHEMAS
from repro.serve import ServeApp, ServeConfig
from repro.serve.app import _http_request

jsonschema = pytest.importorskip("jsonschema")

#: A ler job small enough to finish in well under a second.
TINY_LER = {
    "job_kind": "ler",
    "params": {
        "physical_error_rate": 0.002,
        "shots": 4,
        "windows": 3,
        "shard_shots": 2,
        "seed": 11,
    },
}

TINY_DECODE = {
    "job_kind": "decode",
    "params": {
        "x_rounds": [[[0, 0, 0, 0]] * 3] * 2,
        "z_rounds": [[[0, 1, 0, 0]] * 3] * 2,
    },
}


def with_server(coro_factory, tmp_path, **overrides):
    """Run ``coro_factory(app, host, port)`` against a live server."""

    async def runner():
        config = ServeConfig(
            port=0,
            workers=overrides.pop("workers", 1),
            spool=str(tmp_path / "spool"),
            **overrides,
        )
        app = ServeApp(config)
        server = await app.start()
        host, port = server.sockets[0].getsockname()[:2]
        try:
            return await coro_factory(app, host, port)
        finally:
            app.request_stop()
            await app.run_until_stopped(server)

    return asyncio.run(runner())


async def poll_until_terminal(host, port, job_id, timeout=60.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        _, doc = await _http_request(
            host, port, "GET", f"/v1/jobs/{job_id}", None
        )
        if doc["state"] in ("done", "failed", "cancelled"):
            return doc
        await asyncio.sleep(0.02)
    raise TimeoutError(f"job {job_id} never settled")


def test_health_endpoint(tmp_path):
    async def scenario(app, host, port):
        status, doc = await _http_request(
            host, port, "GET", "/v1/health", None
        )
        assert status == 200
        jsonschema.validate(doc, REPORT_SCHEMAS["serve_health"])
        assert doc["status"] == "ok"
        assert doc["jobs_total"] == 0
        return doc

    with_server(scenario, tmp_path)


def test_ler_job_end_to_end(tmp_path):
    async def scenario(app, host, port):
        status, submitted = await _http_request(
            host, port, "POST", "/v1/jobs",
            {"job_id": "e2e", **TINY_LER},
        )
        assert status == 200
        jsonschema.validate(submitted, REPORT_SCHEMAS["job_status"])
        assert submitted["state"] == "pending"
        assert submitted["seed"] == 11  # explicit params.seed wins

        final = await poll_until_terminal(host, port, "e2e")
        assert final["state"] == "done"

        status, result = await _http_request(
            host, port, "GET", "/v1/jobs/e2e/result", None
        )
        assert status == 200
        jsonschema.validate(result, REPORT_SCHEMAS["job_result"])
        inner = result["result"]["report"]
        jsonschema.validate(inner, REPORT_SCHEMAS["ler_report"])
        assert inner["mode"] == "parallel"
        assert len(inner["arms"]) == 2

    with_server(scenario, tmp_path)


def test_decode_job_end_to_end(tmp_path):
    async def scenario(app, host, port):
        await _http_request(
            host, port, "POST", "/v1/jobs",
            {"job_id": "dec", **TINY_DECODE},
        )
        final = await poll_until_terminal(host, port, "dec")
        assert final["state"] == "done"
        _, result = await _http_request(
            host, port, "GET", "/v1/jobs/dec/result", None
        )
        decode = result["result"]["decode"]
        assert decode["shots"] == 2
        assert decode["rounds"] == 3
        assert len(decode["has_corrections"]) == 2

    with_server(scenario, tmp_path)


def test_derived_seed_when_params_omit_one(tmp_path):
    async def scenario(app, host, port):
        body = {
            "job_id": "noseed",
            "job_kind": "ler",
            "params": {
                "physical_error_rate": 0.002,
                "shots": 2,
                "windows": 2,
                "shard_shots": 2,
            },
        }
        _, doc = await _http_request(
            host, port, "POST", "/v1/jobs", body
        )
        from repro.serve import derive_job_seed

        assert doc["seed"] == derive_job_seed("noseed")
        await poll_until_terminal(host, port, "noseed")

    with_server(scenario, tmp_path)


def test_job_list_orders_by_submission(tmp_path):
    async def scenario(app, host, port):
        for job_id in ("a", "b"):
            await _http_request(
                host, port, "POST", "/v1/jobs",
                {"job_id": job_id, **TINY_DECODE},
            )
        status, listing = await _http_request(
            host, port, "GET", "/v1/jobs", None
        )
        assert status == 200
        jsonschema.validate(listing, REPORT_SCHEMAS["job_list"])
        assert [j["job_id"] for j in listing["jobs"]] == ["a", "b"]
        for job_id in ("a", "b"):
            await poll_until_terminal(host, port, job_id)

    with_server(scenario, tmp_path)


def test_cancel_pending_job(tmp_path):
    async def scenario(app, host, port):
        # Don't let the scheduler grab it first: stop it by flooding
        # the single slot with an earlier job, then cancel the second.
        await _http_request(
            host, port, "POST", "/v1/jobs",
            {"job_id": "first", **TINY_LER},
        )
        await _http_request(
            host, port, "POST", "/v1/jobs",
            {"job_id": "victim", "priority": -1, **TINY_DECODE},
        )
        status, doc = await _http_request(
            host, port, "POST", "/v1/jobs/victim/cancel", None
        )
        if status == 200:
            assert doc["state"] in ("cancelled", "running")
        final = await poll_until_terminal(host, port, "victim")
        await poll_until_terminal(host, port, "first")
        assert final["state"] in ("cancelled", "done")

    with_server(scenario, tmp_path)


def test_error_documents(tmp_path):
    async def scenario(app, host, port):
        cases = [
            # (method, path, body, expected status, expected error)
            ("GET", "/v1/jobs/ghost", None, 404, "unknown_job"),
            ("GET", "/v1/jobs/ghost/result", None, 404, "unknown_job"),
            ("GET", "/v1/nothing", None, 404, "unknown_path"),
            ("POST", "/v1/jobs", None, 400, "bad_json"),
            (
                "POST", "/v1/jobs",
                {"job_kind": "mystery", "params": {}},
                400, "bad_document",
            ),
            (
                "POST", "/v1/jobs",
                {"job_kind": "ler", "params": {}},
                400, "bad_params",
            ),
        ]
        for method, path, body, expected_status, expected_error in cases:
            status, doc = await _http_request(
                host, port, method, path, body
            )
            assert status == expected_status, (path, doc)
            jsonschema.validate(doc, REPORT_SCHEMAS["serve_error"])
            assert doc["error"] == expected_error
        # None of the rejected submissions ever entered the queue.
        _, listing = await _http_request(
            host, port, "GET", "/v1/jobs", None
        )
        assert listing["jobs"] == []

    with_server(scenario, tmp_path)


def test_result_of_unfinished_job_is_conflict(tmp_path):
    async def scenario(app, host, port):
        await _http_request(
            host, port, "POST", "/v1/jobs",
            {"job_id": "slow", **TINY_LER},
        )
        status, doc = await _http_request(
            host, port, "GET", "/v1/jobs/slow/result", None
        )
        if status != 200:  # may legitimately already be done
            assert status == 409
            assert doc["error"] == "not_done"
        await poll_until_terminal(host, port, "slow")

    with_server(scenario, tmp_path)


def test_duplicate_job_id_is_conflict(tmp_path):
    async def scenario(app, host, port):
        await _http_request(
            host, port, "POST", "/v1/jobs",
            {"job_id": "dup", **TINY_DECODE},
        )
        status, doc = await _http_request(
            host, port, "POST", "/v1/jobs",
            {"job_id": "dup", **TINY_DECODE},
        )
        assert status == 409
        assert doc["error"] == "duplicate_job"
        await poll_until_terminal(host, port, "dup")

    with_server(scenario, tmp_path)


def test_malformed_request_line(tmp_path):
    async def scenario(app, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b"NONSENSE\r\n\r\n")
        await writer.drain()
        raw = await reader.read()
        writer.close()
        await writer.wait_closed()
        assert b"400" in raw.split(b"\r\n", 1)[0]
        assert b"bad_request" in raw

    with_server(scenario, tmp_path)


def test_events_stream_follows_job_to_completion(tmp_path):
    async def scenario(app, host, port):
        await _http_request(
            host, port, "POST", "/v1/jobs",
            {"job_id": "traced", **TINY_LER},
        )
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(
            (
                f"GET /v1/jobs/traced/events HTTP/1.1\r\n"
                f"Host: {host}\r\nConnection: close\r\n\r\n"
            ).encode()
        )
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout=60)
        writer.close()
        await writer.wait_closed()
        header_blob, _, body_blob = raw.partition(b"\r\n\r\n")
        assert b"200" in header_blob.split(b"\r\n", 1)[0]
        assert b"application/x-ndjson" in header_blob
        lines = [
            json.loads(line)
            for line in body_blob.decode().splitlines()
            if line.strip()
        ]
        names = {
            (r.get("category"), r.get("name"))
            for r in lines
            if r.get("type") == "event"
        }
        assert ("serve.job", "started") in names
        # The final flush precedes stream truncation: the terminal
        # lifecycle line is always delivered.
        assert ("serve.job", "finished") in names
        # With job_concurrency == 1 the full shard telemetry rides
        # the same stream.
        assert ("parallel", "shard_commit") in names
        final = await poll_until_terminal(host, port, "traced")
        assert final["state"] == "done"

    with_server(scenario, tmp_path)


def test_events_stream_unknown_job_404(tmp_path):
    async def scenario(app, host, port):
        status, doc = await _http_request(
            host, port, "GET", "/v1/jobs/ghost/events", None
        )
        assert status == 404
        assert doc["error"] == "unknown_job"

    with_server(scenario, tmp_path)


def test_shutdown_endpoint_stops_server(tmp_path):
    async def scenario(app, host, port):
        status, doc = await _http_request(
            host, port, "POST", "/v1/shutdown", None
        )
        assert status == 200
        assert app._stopping

    with_server(scenario, tmp_path)


def test_restart_preserves_done_results(tmp_path):
    """A finished job's result survives a full server restart."""

    async def first_life(app, host, port):
        await _http_request(
            host, port, "POST", "/v1/jobs",
            {"job_id": "keeper", **TINY_LER},
        )
        await poll_until_terminal(host, port, "keeper")
        _, result = await _http_request(
            host, port, "GET", "/v1/jobs/keeper/result", None
        )
        return result

    async def second_life(app, host, port):
        _, result = await _http_request(
            host, port, "GET", "/v1/jobs/keeper/result", None
        )
        return result

    before = with_server(first_life, tmp_path)
    after = with_server(second_life, tmp_path)
    assert before == after

    with_server(scenario_noop, tmp_path)


async def scenario_noop(app, host, port):
    # Third boot over the same spool: recovery must stay idempotent.
    assert app.queue.get("keeper").state == "done"


def test_self_test_twice_leaves_nothing_behind(tmp_path):
    """``repro serve --self-test`` runs on its own temporary spool:
    twice in one directory both runs pass, and neither the directory
    nor the temporary area keeps a file afterwards."""
    work = tmp_path / "work"
    scratch = tmp_path / "tmp"
    work.mkdir()
    scratch.mkdir()
    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    environment["TMPDIR"] = str(scratch)
    for _ in range(2):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--self-test",
             "--port", "0", "--json"],
            cwd=work,
            capture_output=True,
            text=True,
            env=environment,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["passed"]
    assert list(work.iterdir()) == []
    assert list(scratch.iterdir()) == []


def test_self_test_refuses_an_explicit_spool(tmp_path, capsys):
    spool = tmp_path / "spool"
    assert main(["serve", "--self-test", "--spool", str(spool)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("--spool")
    assert captured.err.count("\n") == 1
    assert not spool.exists()
