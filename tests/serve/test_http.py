"""The JSON-over-HTTP wire protocol of the evaluation service."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import EvaluationService, ServiceConfig, serve_in_thread

from .conftest import instant_eval, payload, stub_evaluation


def request(url, method="GET", body=None, headers=None):
    """(status, parsed-JSON body) for one request; never raises on 4xx."""
    data = None
    if body is not None:
        data = body if isinstance(body, bytes) \
            else json.dumps(body).encode("utf-8")
    req = urllib.request.Request(url, data=data, method=method,
                                 headers=headers or {})
    try:
        with urllib.request.urlopen(req, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        raw = exc.read()
        try:
            return exc.code, json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError):
            return exc.code, {"raw": raw}


@pytest.fixture
def server():
    service = EvaluationService(
        ServiceConfig(workers=2, static_check=True),
        evaluate_fn=instant_eval,
    )
    http_server, _ = serve_in_thread(service)
    yield http_server
    http_server.shutdown_service(drain=False, timeout=2.0)


def wait_for_state(url, job_id, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, record = request(f"{url}/v1/jobs/{job_id}")
        assert status == 200
        if record["state"] in ("succeeded", "failed", "rejected",
                               "cancelled"):
            return record
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never finished")


# ----------------------------------------------------------------------
# Submission and status
# ----------------------------------------------------------------------


def test_submit_returns_202_and_status_polls_to_success(server):
    status, record = request(f"{server.url}/v1/jobs", "POST", payload())
    assert status == 202
    assert record["state"] in ("queued", "running", "succeeded")
    done = wait_for_state(server.url, record["id"])
    assert done["state"] == "succeeded"
    assert done["result"]["feasible"] is True


def test_invalid_description_answers_422_with_diagnostics(server):
    status, record = request(
        f"{server.url}/v1/jobs", "POST", {"isdl": "processor oops {"}
    )
    assert status == 422
    assert record["state"] == "rejected"
    assert record["diagnostics"][0]["code"] == "ISDL001"
    assert "severity" in record["diagnostics"][0]


def test_non_decimal_digit_answers_422_not_a_dropped_connection(server):
    # '1²' passes str.isdigit(); it must be a diagnostic, not a crash
    status, record = request(
        f"{server.url}/v1/jobs", "POST",
        {"isdl": 'processor "p" section format word 1\u00b2 end'},
    )
    assert status == 422
    assert record["state"] == "rejected"
    diagnostic = record["diagnostics"][0]
    assert diagnostic["code"] == "ISDL001"
    assert diagnostic["message"] == "unexpected character '\u00b2'"


def test_malformed_payloads_answer_400(server):
    url = f"{server.url}/v1/jobs"
    assert request(url, "POST", b"{not json")[0] == 400
    assert request(url, "POST", [1, 2, 3])[0] == 400
    assert request(url, "POST", {"arch": "no-such-arch"})[0] == 400
    status, record = request(url, "POST",
                             {"arch": "spam2", "isdl": "both"})
    assert status == 400 and "error" in record


def test_missing_body_answers_400(server):
    status, record = request(f"{server.url}/v1/jobs", "POST")
    assert status == 400
    assert "body" in record["error"]


def test_oversized_body_answers_413(server):
    from repro.serve.http import MAX_BODY_BYTES

    blob = b'{"isdl": "' + b"x" * MAX_BODY_BYTES + b'"}'
    status, _ = request(f"{server.url}/v1/jobs", "POST", blob)
    assert status == 413


def test_unknown_routes_and_jobs_answer_404(server):
    assert request(f"{server.url}/v1/nope")[0] == 404
    assert request(f"{server.url}/v1/jobs/deadbeef")[0] == 404
    assert request(f"{server.url}/v1/jobs/x", "POST", {})[0] == 404


def test_job_listing_shows_brief_records(server):
    _, a = request(f"{server.url}/v1/jobs", "POST", payload(label="a"))
    wait_for_state(server.url, a["id"])
    status, listing = request(f"{server.url}/v1/jobs")
    assert status == 200
    ours = [job for job in listing["jobs"] if job["id"] == a["id"]]
    assert ours and ours[0]["label"] == "a"
    assert "result" not in ours[0]  # brief records on the listing


# ----------------------------------------------------------------------
# Health and metrics
# ----------------------------------------------------------------------


def test_healthz_reports_ok_with_pool_summary(server):
    status, health = request(f"{server.url}/healthz")
    assert status == 200
    assert health["status"] == "ok"
    assert health["workers"] == 2
    assert health["queue_depth"] == 0


def test_metrics_exports_prometheus_text(server):
    _, record = request(f"{server.url}/v1/jobs", "POST", payload())
    wait_for_state(server.url, record["id"])
    req = urllib.request.Request(f"{server.url}/metrics")
    with urllib.request.urlopen(req, timeout=10) as response:
        assert response.status == 200
        assert response.headers["Content-Type"].startswith("text/plain")
        text = response.read().decode("utf-8")
    assert "serve_jobs_accepted_total" in text
    assert "serve_queue_depth" in text
    assert "serve_job_seconds_bucket" in text
    assert "serve_admission_seconds_bucket" in text


# ----------------------------------------------------------------------
# Backpressure and drain
# ----------------------------------------------------------------------


def test_full_queue_answers_429_with_retry_after():
    block = threading.Event()

    def gated(job):
        block.wait(30)
        return stub_evaluation(job.label)

    service = EvaluationService(
        ServiceConfig(workers=1, max_queue_depth=1, coalesce=False,
                      static_check=False),
        evaluate_fn=gated,
    )
    server, _ = serve_in_thread(service)
    try:
        url = f"{server.url}/v1/jobs"
        assert request(url, "POST", payload())[0] == 202
        time.sleep(0.1)  # worker takes the first job off the queue
        assert request(url, "POST", payload())[0] == 202
        req = urllib.request.Request(
            url, data=json.dumps(payload()).encode(), method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(req, timeout=10)
        assert info.value.code == 429
        assert info.value.headers["Retry-After"] == "1"
    finally:
        block.set()
        server.shutdown_service(drain=False, timeout=2.0)


def test_draining_service_answers_503():
    service = EvaluationService(
        ServiceConfig(workers=1, static_check=False),
        evaluate_fn=instant_eval,
    )
    server, thread = serve_in_thread(service)
    try:
        # drain the service but keep HTTP up: submissions and health
        # both answer 503 so clients know to go elsewhere
        service.shutdown(drain=True, timeout=10.0)
        status, health = request(f"{server.url}/healthz")
        assert status == 503
        assert health["status"] == "draining"
        status, record = request(f"{server.url}/v1/jobs", "POST",
                                 payload())
        assert status == 503
        assert "draining" in record["error"]
    finally:
        server.shutdown()
        thread.join(timeout=10)
    assert not thread.is_alive()
