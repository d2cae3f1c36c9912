"""Blocking client for the evaluation service (standard library only).

:class:`ServeClient` wraps the JSON wire protocol of
:mod:`repro.serve.http` behind three calls a driving script needs:
``submit`` (with bounded exponential backoff against 429 backpressure),
``wait`` (poll a job to a terminal state, backing off between polls),
and the introspection pair ``health``/``metrics_text``.

A *rejected* submission is not an exception — the server answers 422
with the full job record, diagnostics included, and ``submit`` returns
it like any other job dict so callers can read the findings.  Transport
failures and 400-level protocol misuse do raise
(:class:`ServeClientError`); exhausted backpressure retries raise
:class:`BackpressureError`.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Optional, Tuple

from ..errors import ReproError

__all__ = ["BackpressureError", "ServeClient", "ServeClientError"]

#: job states after which polling stops
TERMINAL_STATES = frozenset(
    {"succeeded", "failed", "rejected", "cancelled"}
)


def _retry_after_s(headers: Dict[str, str]) -> Optional[float]:
    """Seconds from a ``Retry-After`` header, or None (absent/unusable).

    Only the delta-seconds form is parsed; the HTTP-date form (which
    the service never emits) is ignored.
    """
    for name, value in headers.items():
        if name.lower() == "retry-after":
            try:
                return max(0.0, float(value))
            except (TypeError, ValueError):
                return None
    return None


class ServeClientError(ReproError):
    """Transport failure or a 4xx/5xx answer without a job record."""

    def __init__(self, message: str, status: Optional[int] = None,
                 payload: Optional[Dict[str, Any]] = None):
        super().__init__(message)
        self.status = status
        self.payload = payload or {}


class BackpressureError(ServeClientError):
    """The service kept answering 429 past the retry budget."""


class ServeClient:
    """A blocking HTTP client for one ``repro-serve`` endpoint."""

    def __init__(self, base_url: str, timeout: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- submission ------------------------------------------------------

    def submit(self, payload: Dict[str, Any], *,
               strategy: Optional[str] = None,
               strategy_params: Optional[Dict[str, Any]] = None,
               tech: Optional[Dict[str, Any]] = None,
               max_retries: int = 6,
               backoff_s: float = 0.05) -> Dict[str, Any]:
        """POST one job; retries 429 answers with exponential backoff.

        *strategy* (a registry name, e.g. ``"pareto"``) with optional
        *strategy_params* turns the job into an exploration run — they
        are injected as the payload's ``"strategy"`` object.  *tech*
        (``{"node": 22, "flavor": "HP", "budget_mw": 8.0}``) pins the
        measurement to a scaled technology point and is injected as the
        payload's ``"tech"`` object — an unknown node/flavor comes back
        as a ``rejected`` record with an SRV402 diagnostic.  Without
        them the payload goes over the wire untouched.

        A ``Retry-After`` header on a 429 overrides the local backoff
        schedule (the server knows its own drain rate better than our
        doubling guess).  A 503 — the service draining for shutdown —
        raises at once without a retry.

        Returns the job record for accepted, coalesced, *and* rejected
        submissions (check ``record["state"]``).
        """
        if strategy is not None:
            payload = dict(payload)
            payload["strategy"] = {"name": strategy,
                                   "params": dict(strategy_params or {})}
        elif strategy_params:
            raise ServeClientError(
                "strategy_params needs a strategy name"
            )
        if tech is not None:
            payload = dict(payload)
            payload["tech"] = dict(tech)
        delay = backoff_s
        for attempt in range(max_retries + 1):
            status, answer, headers = self._request(
                "POST", "/v1/jobs", body=payload
            )
            if status in (202, 422):
                return answer
            if status == 429 and attempt < max_retries:
                retry_after = _retry_after_s(headers)
                time.sleep(retry_after if retry_after is not None
                           else delay)
                delay *= 2
                continue
            if status == 429:
                raise BackpressureError(
                    f"service still overloaded after"
                    f" {max_retries} retries: {answer.get('error')}",
                    status=status, payload=answer,
                )
            raise ServeClientError(
                f"submit failed ({status}): {answer.get('error', answer)}",
                status=status, payload=answer,
            )
        raise AssertionError("unreachable")  # pragma: no cover

    def submit_and_wait(self, payload: Dict[str, Any], *,
                        strategy: Optional[str] = None,
                        strategy_params: Optional[Dict[str, Any]] = None,
                        tech: Optional[Dict[str, Any]] = None,
                        timeout: float = 120.0) -> Dict[str, Any]:
        """Submit, then poll to a terminal state (rejected short-circuits)."""
        record = self.submit(payload, strategy=strategy,
                             strategy_params=strategy_params, tech=tech)
        if record["state"] in TERMINAL_STATES:
            return record
        return self.wait(record["id"], timeout=timeout)

    # -- polling ---------------------------------------------------------

    def job(self, job_id: str) -> Dict[str, Any]:
        status, answer, _ = self._request("GET", f"/v1/jobs/{job_id}")
        if status != 200:
            raise ServeClientError(
                f"job lookup failed ({status}):"
                f" {answer.get('error', answer)}",
                status=status, payload=answer,
            )
        return answer

    def wait(self, job_id: str, *, timeout: float = 120.0,
             poll_initial_s: float = 0.02,
             poll_max_s: float = 0.5,
             jitter: float = 0.2) -> Dict[str, Any]:
        """Poll ``GET /v1/jobs/<id>`` until terminal, backing off between
        polls; raises :class:`TimeoutError` when *timeout* elapses.

        Each sleep is jittered by ±*jitter* (default 20%) so a burst of
        clients created together — an exploration fan-out, a CI sweep —
        desynchronises instead of polling the service in lockstep.
        """
        deadline = time.monotonic() + timeout
        delay = poll_initial_s
        while True:
            record = self.job(job_id)
            if record["state"] in TERMINAL_STATES:
                return record
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {record['state']!r}"
                    f" after {timeout:.1f}s"
                )
            pause = delay
            if jitter > 0.0:
                pause *= random.uniform(1.0 - jitter, 1.0 + jitter)
            time.sleep(min(pause, max(0.0,
                                      deadline - time.monotonic())))
            delay = min(delay * 2, poll_max_s)

    # -- introspection ---------------------------------------------------

    def health(self) -> Dict[str, Any]:
        status, answer, _ = self._request("GET", "/healthz")
        if status not in (200, 503):
            raise ServeClientError(
                f"health check failed ({status})", status=status,
                payload=answer,
            )
        return answer

    def metrics_text(self) -> str:
        request = urllib.request.Request(self.base_url + "/metrics")
        with urllib.request.urlopen(request,
                                    timeout=self.timeout) as response:
            return response.read().decode("utf-8")

    # -- transport -------------------------------------------------------

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None
                 ) -> "Tuple[int, Dict[str, Any], Dict[str, str]]":
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers,
            method=method,
        )
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                return (response.status, self._decode(response.read()),
                        dict(response.headers))
        except urllib.error.HTTPError as exc:
            return exc.code, self._decode(exc.read()), dict(exc.headers)
        except urllib.error.URLError as exc:
            raise ServeClientError(
                f"cannot reach {self.base_url}: {exc.reason}"
            ) from None

    @staticmethod
    def _decode(raw: bytes) -> Dict[str, Any]:
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return {"error": raw.decode("utf-8", "replace")[:200]}
        if isinstance(payload, dict):
            return payload
        return {"value": payload}
