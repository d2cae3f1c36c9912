"""The blocking client and the ``repro-serve`` console script."""

import json
import threading
import time
from types import SimpleNamespace

import pytest

from repro.serve import client as client_module
from repro.serve import (
    BackpressureError,
    EvaluationService,
    ServeClient,
    ServeClientError,
    ServiceConfig,
    serve_in_thread,
)
from repro.serve.cli import main as cli_main
from repro.serve.service import KNOWN_BACKENDS

from .conftest import instant_eval, payload, stub_evaluation


@pytest.fixture(scope="module")
def live():
    """One shared server for the read-mostly client/CLI tests."""
    service = EvaluationService(
        ServiceConfig(workers=2, static_check=True),
        evaluate_fn=instant_eval,
    )
    server, _ = serve_in_thread(service)
    yield server
    server.shutdown_service(drain=False, timeout=2.0)


# ----------------------------------------------------------------------
# ServeClient
# ----------------------------------------------------------------------


def test_submit_and_wait_round_trip(live):
    client = ServeClient(live.url)
    record = client.submit_and_wait(payload(label="round-trip"))
    assert record["state"] == "succeeded"
    assert record["label"] == "round-trip"
    assert record["result"]["feasible"] is True


def test_rejected_submission_returns_the_record_not_an_exception(live):
    client = ServeClient(live.url)
    record = client.submit({"isdl": "processor oops {"})
    assert record["state"] == "rejected"
    assert record["diagnostics"][0]["code"] == "ISDL001"


def test_client_surfaces_protocol_errors(live):
    client = ServeClient(live.url)
    with pytest.raises(ServeClientError) as info:
        client.submit({"arch": "no-such-arch"})
    assert info.value.status == 400
    with pytest.raises(ServeClientError) as info:
        client.job("deadbeef")
    assert info.value.status == 404


def test_client_health_and_metrics(live):
    client = ServeClient(live.url)
    health = client.health()
    assert health["status"] == "ok"
    assert "serve_jobs_accepted_total" in client.metrics_text()


def test_client_submit_strategy_kwarg_injects_the_payload_field(live):
    client = ServeClient(live.url)
    record = client.submit_and_wait(
        payload(), strategy="greedy",
        strategy_params={"max_iterations": 2},
    )
    assert record["state"] == "succeeded"
    assert record["strategy"] == {
        "name": "greedy", "params": {"max_iterations": 2},
    }


def test_client_submit_unknown_strategy_returns_rejected_record(live):
    client = ServeClient(live.url)
    record = client.submit(payload(), strategy="annealing")
    assert record["state"] == "rejected"
    assert record["diagnostics"][0]["code"] == "SRV401"
    assert "greedy" in record["diagnostics"][0]["message"]


def test_client_strategy_params_without_name_raise(live):
    client = ServeClient(live.url)
    with pytest.raises(ServeClientError):
        client.submit(payload(), strategy_params={"restarts": 2})


def test_unreachable_server_raises_transport_error():
    client = ServeClient("http://127.0.0.1:9", timeout=0.5)
    with pytest.raises(ServeClientError):
        client.health()


def test_backpressure_retries_then_raises():
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
        client = ServeClient(server.url)
        client.submit(payload())          # occupies the worker
        time.sleep(0.1)
        client.submit(payload())          # fills the queue
        with pytest.raises(BackpressureError) as info:
            client.submit(payload(), max_retries=2, backoff_s=0.01)
        assert info.value.status == 429
    finally:
        block.set()
        server.shutdown_service(drain=False, timeout=2.0)


def test_submit_to_a_draining_service_raises_503_at_once(monkeypatch):
    service = EvaluationService(
        ServiceConfig(workers=1, static_check=False),
        evaluate_fn=instant_eval,
    )
    server, thread = serve_in_thread(service)
    try:
        service.shutdown(drain=True, timeout=10.0)
        client = ServeClient(server.url)
        requests = []
        send = client._request

        def counted(*args, **kwargs):
            requests.append(args)
            return send(*args, **kwargs)

        def no_sleep(seconds):
            raise AssertionError(f"submit slept {seconds}s on a 503")

        monkeypatch.setattr(client, "_request", counted)
        monkeypatch.setattr(client_module, "time",
                            SimpleNamespace(sleep=no_sleep))
        with pytest.raises(ServeClientError) as info:
            client.submit(payload())
        assert info.value.status == 503
        assert not isinstance(info.value, BackpressureError)
        assert "draining" in info.value.payload["error"]
        assert len(requests) == 1
    finally:
        server.shutdown()
        thread.join(timeout=10)


# ----------------------------------------------------------------------
# repro-serve CLI (in-process against the live server)
# ----------------------------------------------------------------------


def test_cli_submit_waits_and_exits_zero(live, capsys):
    code = cli_main([
        "submit", "--url", live.url, "--arch", "spam2",
        "--workload", "sum:8", "--label", "cli-job",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "succeeded" in out
    assert "cli-job" in out


def test_cli_submit_json_output_parses(live, capsys):
    code = cli_main([
        "submit", "--url", live.url, "--arch", "spam2", "--json",
    ])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["state"] == "succeeded"


def test_cli_submit_rejected_isdl_exits_two(live, capsys, tmp_path):
    bad = tmp_path / "bad.isdl"
    bad.write_text("processor oops {", encoding="utf-8")
    code = cli_main(["submit", "--url", live.url, "--isdl", str(bad)])
    out = capsys.readouterr().out
    assert code == 2
    assert "rejected" in out
    assert "ISDL001" in out


def test_cli_submit_ambiguous_example_prints_gate_findings(live, capsys):
    code = cli_main([
        "submit", "--url", live.url, "--isdl", "examples/ambiguous.isdl",
    ])
    out = capsys.readouterr().out
    assert code == 2
    assert "ISDL" in out  # the repro-lint diagnostic codes


def test_cli_submit_unreadable_file_exits_one(live, capsys, tmp_path):
    code = cli_main([
        "submit", "--url", live.url, "--isdl",
        str(tmp_path / "missing.isdl"),
    ])
    assert code == 1
    assert "cannot read" in capsys.readouterr().err


def test_cli_submit_bad_weights_is_a_usage_error(live):
    with pytest.raises(SystemExit):
        cli_main(["submit", "--url", live.url, "--arch", "spam2",
                  "--weights", "1,2"])


@pytest.mark.parametrize("backend", KNOWN_BACKENDS)
def test_cli_submit_backend_flag_passes_through(live, capsys, backend):
    # every engine name the service admits is a --backend choice, the
    # compiled engine's second name "block" included
    code = cli_main([
        "submit", "--url", live.url, "--arch", "spam2",
        "--backend", backend, "--json",
    ])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["state"] == "succeeded"
    assert record["backend"] == backend


def test_cli_submit_unknown_backend_is_a_usage_error(live):
    with pytest.raises(SystemExit):
        cli_main(["submit", "--url", live.url, "--arch", "spam2",
                  "--backend", "quantum"])


def test_cli_submit_strategy_flag_passes_through(live, capsys):
    code = cli_main([
        "submit", "--url", live.url, "--arch", "spam2",
        "--strategy", "greedy",
        "--strategy-param", "max_iterations=2",
        "--json",
    ])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["strategy"] == {
        "name": "greedy", "params": {"max_iterations": 2},
    }


def test_cli_submit_unknown_strategy_exits_two(live, capsys):
    code = cli_main([
        "submit", "--url", live.url, "--arch", "spam2",
        "--strategy", "annealing",
    ])
    out = capsys.readouterr().out
    assert code == 2
    assert "SRV401" in out


def test_cli_strategy_param_without_strategy_is_a_usage_error(live):
    with pytest.raises(SystemExit):
        cli_main(["submit", "--url", live.url, "--arch", "spam2",
                  "--strategy-param", "restarts=2"])


def test_cli_status_prints_health_and_counters(live, capsys):
    cli_main(["submit", "--url", live.url, "--arch", "spam2"])
    capsys.readouterr()
    code = cli_main(["status", "--url", live.url])
    out = capsys.readouterr().out
    assert code == 0
    assert "status: ok" in out
    assert "serve.jobs_accepted" in out


def test_cli_status_for_one_job(live, capsys):
    record = ServeClient(live.url).submit_and_wait(payload())
    code = cli_main(["status", "--url", live.url, record["id"]])
    out = capsys.readouterr().out
    assert code == 0
    assert record["id"] in out
    assert "succeeded" in out


def test_cli_against_unreachable_server_exits_one(capsys):
    code = cli_main([
        "status", "--url", "http://127.0.0.1:9",
    ])
    assert code == 1
    assert "cannot reach" in capsys.readouterr().err
