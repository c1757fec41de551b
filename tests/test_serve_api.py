"""The HTTP surface, exercised in-process over a real ephemeral socket.

``make_server`` binds port 0; every test speaks actual HTTP/1.1 via
urllib against a live ``ThreadingHTTPServer``, so status codes,
headers (``Retry-After``), and JSON bodies are tested end to end
without subprocesses.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.serve.api import make_server
from repro.serve.store import JobStore
from repro.serve.supervisor import Supervisor

TINY_JOB = {
    "scenarios": ["flash-crowd"], "defenses": ["Null"],
    "seed": 7, "n0_scale": 0.05,
}


@pytest.fixture()
def service(tmp_path):
    """A live server whose workers are NOT started: jobs stay queued,
    which makes admission and read endpoints deterministic."""
    store = JobStore(tmp_path / "jobs.sqlite3")
    supervisor = Supervisor(
        store, tmp_path / "checkpoints", max_workers=1, max_queued=2,
    )
    server = make_server(supervisor, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield base, supervisor
    finally:
        server.shutdown()
        server.server_close()
        store.close()


def request(base, path, payload=None, method=None):
    """Return (status, headers, parsed-JSON-or-text body)."""
    data = None
    headers = {}
    if payload is not None:
        data = json.dumps(payload).encode()
        headers["Content-Type"] = "application/json"
    req = urllib.request.Request(
        base + path, data=data, headers=headers, method=method,
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            raw, status, info = resp.read(), resp.status, resp.headers
    except urllib.error.HTTPError as exc:
        raw, status, info = exc.read(), exc.code, exc.headers
    if info.get_content_type() == "application/json":
        return status, info, json.loads(raw)
    return status, info, raw.decode()


class TestSubmission:
    def test_post_returns_201_with_record(self, service):
        base, _ = service
        status, _, doc = request(base, "/jobs", TINY_JOB)
        assert status == 201
        assert doc["state"] == "queued"
        assert doc["row_count"] == 0
        assert doc["spec"]["scenarios"] == ["flash-crowd"]
        assert len(doc["id"]) == 12

    @pytest.mark.parametrize("payload,fragment", [
        ({"scenarios": ["no-such"]}, "unknown scenario"),
        ({"typo_field": 1}, "unknown job field"),
        ({"jobs": 0}, "'jobs'"),
    ])
    def test_invalid_spec_is_400(self, service, payload, fragment):
        base, _ = service
        status, _, doc = request(base, "/jobs", payload)
        assert status == 400
        assert fragment in doc["error"]

    def test_garbage_body_is_400(self, service):
        base, _ = service
        req = urllib.request.Request(
            base + "/jobs", data=b"{not json", method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(req, timeout=10)
        assert info.value.code == 400

    def test_empty_body_is_400(self, service):
        base, _ = service
        status, _, doc = request(base, "/jobs", None, method="POST")
        assert status == 400
        assert "body required" in doc["error"]

    def test_saturation_is_429_with_retry_after(self, service):
        base, _ = service  # max_queued=2, workers never started
        assert request(base, "/jobs", TINY_JOB)[0] == 201
        assert request(base, "/jobs", TINY_JOB)[0] == 201
        status, headers, doc = request(base, "/jobs", TINY_JOB)
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        assert "saturated" in doc["error"]

    def test_draining_is_503(self, service):
        base, supervisor = service
        supervisor.drain(1.0)
        status, _, doc = request(base, "/jobs", TINY_JOB)
        assert status == 503
        assert "draining" in doc["error"]


class TestReads:
    def test_job_lookup_and_404(self, service):
        base, _ = service
        _, _, created = request(base, "/jobs", TINY_JOB)
        status, _, doc = request(base, f"/jobs/{created['id']}")
        assert status == 200
        assert doc["id"] == created["id"]
        assert request(base, "/jobs/feedfacecafe")[0] == 404
        # A malformed id (not lowercase hex) never reaches the store.
        assert request(base, "/jobs/DROP%20TABLE")[0] == 404

    def test_list_jobs_with_state_filter(self, service):
        base, supervisor = service
        _, _, created = request(base, "/jobs", TINY_JOB)
        supervisor.store.mark_running(created["id"])
        status, _, doc = request(base, "/jobs?state=running")
        assert status == 200
        assert [j["id"] for j in doc["jobs"]] == [created["id"]]
        _, _, empty = request(base, "/jobs?state=failed")
        assert empty["jobs"] == []

    def test_rows_endpoint_with_incremental_start(self, service):
        base, supervisor = service
        _, _, created = request(base, "/jobs", TINY_JOB)
        job_id = created["id"]
        for i in range(3):
            supervisor.store.put_row(job_id, i, {"index": i})
        status, _, doc = request(base, f"/jobs/{job_id}/rows")
        assert status == 200
        assert doc["count"] == 3
        assert [r["index"] for r in doc["rows"]] == [0, 1, 2]
        _, _, tail = request(base, f"/jobs/{job_id}/rows?start=2")
        assert tail["count"] == 1
        assert tail["rows"][0]["row"] == {"index": 2}
        assert request(base, "/jobs/feedfacecafe/rows")[0] == 404

    def test_healthz_and_metrics(self, service):
        base, _ = service
        request(base, "/jobs", TINY_JOB)
        status, _, health = request(base, "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["jobs"]["queued"] == 1
        status, headers, text = request(base, "/metrics")
        assert status == 200
        assert headers.get_content_type() == "text/plain"
        assert 'repro_serve_jobs{state="queued"} 1' in text

    def test_unknown_route_is_404(self, service):
        base, _ = service
        assert request(base, "/nope")[0] == 404
        status, _, _ = request(base, "/nope", {"x": 1})
        assert status == 404


class TestEndToEnd:
    def test_submit_poll_rows_over_http(self, service):
        import time

        base, supervisor = service
        supervisor.start()  # now actually run jobs
        _, _, created = request(base, "/jobs", TINY_JOB)
        job_id = created["id"]
        deadline = time.monotonic() + 60.0
        state = created["state"]
        while state not in ("succeeded", "failed"):
            assert time.monotonic() < deadline, "job never finished"
            time.sleep(0.05)
            _, _, doc = request(base, f"/jobs/{job_id}")
            state = doc["state"]
        assert state == "succeeded"
        assert doc["row_count"] == 1
        _, _, rows = request(base, f"/jobs/{job_id}/rows")
        assert rows["count"] == 1
        assert rows["rows"][0]["row"]["scenario"] == "flash-crowd"
        supervisor.drain(10.0)


@pytest.mark.parametrize(
    "flag, value, noun",
    [
        ("--port", "abc", "an integer"),
        ("--max-workers", "two", "an integer"),
        ("--drain-timeout", "soon", "a number"),
    ],
)
def test_cli_non_numeric_option_exits_before_booting(flag, value, noun):
    # Same wording as every other repro CLI, and nothing is bound.
    from repro.serve.cli import main

    with pytest.raises(SystemExit, match=f"^{flag} expects {noun}, got '{value}'$"):
        main([flag, value])
