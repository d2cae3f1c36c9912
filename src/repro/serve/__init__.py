"""repro.serve — the long-running evaluation service.

The Figure-1 loop as a shared daemon: many concurrent clients submit
candidate ISDL descriptions as jobs over a small JSON HTTP API, and one
persistent worker pool measures them against a single shared
:class:`~repro.cache.ArtifactCache`, with in-flight request coalescing,
a :mod:`repro.analyze` admission gate, bounded-queue backpressure,
per-job timeouts with retry, and graceful drain.  See
:mod:`repro.serve.service` for the design notes and
:mod:`repro.serve.http` for the wire protocol.

Typical in-process use (tests, benchmarks, notebooks)::

    from repro.serve import EvaluationService, ServiceConfig

    with EvaluationService(ServiceConfig(workers=2)) as service:
        job = service.submit({"arch": "spam2", "workloads": ["sum:40"]})
        service.wait(job.id)

and over HTTP::

    from repro.serve import ServeClient, serve_in_thread

    server, _ = serve_in_thread(service)
    client = ServeClient(server.url)
    record = client.submit_and_wait({"arch": "spam2"})

The console script is ``repro-serve`` (:mod:`repro.serve.cli`).
"""

from .client import BackpressureError, ServeClient, ServeClientError
from .http import ServeHTTPServer, make_server, serve_in_thread
from .jobs import (
    Job,
    JobQueue,
    JobState,
    QueueFullError,
    ServiceUnavailableError,
)
from .journal import JobJournal
from .service import (
    BadRequestError,
    EvaluationService,
    ServiceConfig,
    UnknownJobError,
)

__all__ = [
    "BackpressureError",
    "BadRequestError",
    "EvaluationService",
    "Job",
    "JobJournal",
    "JobQueue",
    "JobState",
    "QueueFullError",
    "ServeClient",
    "ServeClientError",
    "ServeHTTPServer",
    "ServiceConfig",
    "ServiceUnavailableError",
    "UnknownJobError",
    "make_server",
    "serve_in_thread",
]
