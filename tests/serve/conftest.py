"""Shared helpers for the evaluation-service tests.

Most tests drive the service through its ``evaluate_fn`` seam so they
can script instant, slow, or failing evaluations without running the
real tool chain; a couple of end-to-end tests exercise the real path.
"""

import pytest

from repro.explore.metrics import Evaluation
from repro.serve import EvaluationService, ServiceConfig


def stub_evaluation(label="stub", cycles=100):
    return Evaluation(
        name=label, feasible=True, cycles=cycles, cycle_ns=10.0,
        die_size=50_000.0, power_mw=120.0, fingerprint="stub-fp",
    )


def instant_eval(job):
    return stub_evaluation(job.label)


def payload(**overrides):
    base = {"arch": "spam2", "workloads": ["sum:8"], "timeout_s": 10.0}
    base.update(overrides)
    return base


@pytest.fixture
def service_factory():
    """Build services that are shut down at test exit regardless of
    outcome; defaults favour fast, deterministic tests."""
    services = []

    def build(evaluate_fn=instant_eval, **config):
        config.setdefault("workers", 2)
        config.setdefault("static_check", False)
        config.setdefault("retry_backoff_s", 0.01)
        service = EvaluationService(
            ServiceConfig(**config), evaluate_fn=evaluate_fn
        )
        services.append(service)
        return service.start()

    yield build
    for service in services:
        service.shutdown(drain=False, timeout=2.0)
