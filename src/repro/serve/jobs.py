"""Job records and the bounded priority queue of the evaluation service.

A :class:`Job` is the unit of work a client submits: one candidate
description plus the workload/backend/weight configuration to measure it
under.  Jobs move through a small, explicit lifecycle::

    queued ──▶ running ──▶ succeeded
       │          │  └────▶ failed          (error / timeout exhausted)
       │          └─(timeout, retries left)─▶ queued
       ├─▶ cancelled                        (drained while queued)
       └─  rejected                         (admission gate, never queued)

Coalesced followers never enter the queue at all: they reference their
leader job and receive a copy of its terminal state (see
:mod:`repro.serve.service`).

:class:`JobQueue` is a heap-based priority queue with two properties
the service needs and ``queue.PriorityQueue`` does not give us together:
a hard depth bound that *raises* (:class:`QueueFullError` — the HTTP
layer turns it into a 429) instead of blocking the acceptor thread, and
per-entry ``not_before`` delays for retry backoff.

Ready ordering is ``(-priority, seq)`` where ``seq`` is assigned on the
*first* push and sticks to the job for life: a job that times out and is
re-queued re-enters ahead of every same-priority submission that arrived
after it, so retries cannot starve behind a steady stream of fresh work.
``not_before`` only controls *visibility* (a retry backing off stays
hidden until its time comes), never ready-order.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import secrets
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..analyze.diagnostics import Diagnostic
from ..errors import ReproError
from ..explore.metrics import CostWeights, Evaluation
from ..tech.model import TechSpec

__all__ = [
    "Job",
    "JobQueue",
    "JobState",
    "QueueFullError",
    "ServiceUnavailableError",
    "new_job_id",
]


class QueueFullError(ReproError):
    """The job queue is at its configured depth bound (HTTP 429)."""


class ServiceUnavailableError(ReproError):
    """The service is draining or stopped and accepts no new jobs (503)."""


class JobState(str, enum.Enum):
    """Lifecycle states of a job record."""

    QUEUED = "queued"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    REJECTED = "rejected"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in _TERMINAL


_TERMINAL = frozenset(
    {JobState.SUCCEEDED, JobState.FAILED, JobState.REJECTED,
     JobState.CANCELLED}
)


def new_job_id() -> str:
    """A short, URL-safe, collision-resistant job identifier."""
    return secrets.token_hex(8)


@dataclass
class Job:
    """One submitted evaluation with its full lifecycle record."""

    id: str
    desc: Any  # ast.Description (kept loose: jobs never pickle)
    label: str
    workloads: Tuple[str, ...]
    kernels: Tuple[Any, ...]  # resolved codegen Kernels, submission order
    weights: CostWeights
    backend: str
    max_steps: int
    priority: int = 0
    timeout_s: float = 60.0
    #: the coalescing key (shared with the service; None when disabled)
    key: Optional[Tuple] = None
    state: JobState = JobState.QUEUED
    created_at: float = field(default_factory=time.time)
    #: seconds from the submission's entry to admission (before the ISDL
    #: parse, which precedes created_at) until the admit/reject decision
    admission_s: Optional[float] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    attempts: int = 0
    error: Optional[str] = None
    diagnostics: Tuple[Diagnostic, ...] = ()
    evaluation: Optional[Evaluation] = None
    #: leader job id when this submission coalesced onto an in-flight twin
    coalesced_with: Optional[str] = None
    #: follower jobs to fan the terminal state out to (leader side)
    followers: List["Job"] = field(default_factory=list)
    #: True when the terminal evaluation came from the warm cache
    cached: bool = False
    #: exploration-strategy name when the job runs a search instead of a
    #: single measurement (validated at admission; None = plain job)
    strategy: Optional[str] = None
    strategy_params: Dict[str, Any] = field(default_factory=dict)
    #: exploration summary attached to a terminal strategy job
    exploration: Optional[Dict[str, Any]] = None
    #: technology/budget axis validated at admission (None = baseline)
    tech: Optional[TechSpec] = None
    #: queue sequence number, assigned on first push and preserved across
    #: requeues so a retried job keeps its place in line
    seq: Optional[int] = None
    #: the original submission payload (verbatim JSON object) — what the
    #: journal records so a restarted service can re-admit the job
    payload: Optional[Dict[str, Any]] = None
    #: terminal wire record restored from the journal of a previous run;
    #: when set the job is a read-only stub and to_dict() serves it as-is
    restored: Optional[Dict[str, Any]] = None

    @property
    def done(self) -> bool:
        return self.state.terminal

    def to_dict(self, full: bool = True) -> Dict[str, Any]:
        """The job's wire representation (JSON-serializable)."""
        if self.restored is not None:
            record = dict(self.restored)
            record["id"] = self.id
            record["state"] = self.state.value
            record["restored"] = True
            return record
        payload: Dict[str, Any] = {
            "id": self.id,
            "state": self.state.value,
            "label": self.label,
            "workloads": list(self.workloads),
            "backend": self.backend,
            "priority": self.priority,
            "created_at": self.created_at,
        }
        if self.coalesced_with is not None:
            payload["coalesced_with"] = self.coalesced_with
        if self.strategy is not None:
            payload["strategy"] = {"name": self.strategy,
                                   "params": dict(self.strategy_params)}
        if self.tech is not None:
            tech: Dict[str, Any] = {"node": self.tech.node_nm,
                                    "flavor": self.tech.flavor}
            if self.tech.budget_mw is not None:
                tech["budget_mw"] = self.tech.budget_mw
            payload["tech"] = tech
        if not full:
            return payload
        payload.update(
            max_steps=self.max_steps,
            timeout_s=self.timeout_s,
            attempts=self.attempts,
            admission_s=self.admission_s,
            started_at=self.started_at,
            finished_at=self.finished_at,
            cached=self.cached,
        )
        if self.error is not None:
            payload["error"] = self.error
        if self.diagnostics:
            payload["diagnostics"] = [d.to_dict() for d in self.diagnostics]
        if self.evaluation is not None:
            payload["result"] = _evaluation_dict(self.evaluation,
                                                 self.weights)
        if self.exploration is not None:
            payload["exploration"] = dict(self.exploration)
        return payload


def _evaluation_dict(evaluation: Evaluation,
                     weights: CostWeights) -> Dict[str, Any]:
    if not evaluation.feasible:
        return {"feasible": False, "reason": evaluation.reason,
                "cost": None}
    record = {
        "feasible": True,
        "cycles": evaluation.cycles,
        "stall_cycles": evaluation.stall_cycles,
        "cycle_ns": evaluation.cycle_ns,
        "runtime_us": evaluation.runtime_us,
        "die_size": evaluation.die_size,
        "power_mw": evaluation.power_mw,
        "cost": evaluation.cost(weights),
        "per_kernel_cycles": dict(evaluation.per_kernel_cycles),
        "fingerprint": evaluation.fingerprint,
    }
    if evaluation.tech_node is not None:
        record["tech"] = {
            "node": evaluation.tech_node,
            "flavor": evaluation.tech_flavor,
            "vdd": evaluation.vdd,
            "budget_mw": evaluation.budget_mw,
            "capped": evaluation.power_capped,
        }
    return record


class JobQueue:
    """Bounded priority queue with retry delays.

    Two heaps: the *ready* heap is ordered ``(-priority, seq)`` — higher
    ``priority`` pops first, first-assigned ``seq`` first within a level —
    and the *delayed* heap is ordered by ``not_before`` and feeds the
    ready heap as entries mature.  A job's ``seq`` is assigned on its
    first push and preserved across requeues, so a timed-out-and-retried
    job re-enters ahead of later same-priority arrivals instead of
    starving behind them.  ``max_depth`` bounds queued — not running —
    jobs; :meth:`push` raises :class:`QueueFullError` at the bound so the
    acceptor can answer 429 instead of blocking.
    """

    def __init__(self, max_depth: int = 64):
        if max_depth < 1:
            raise ValueError("queue depth bound must be >= 1")
        self.max_depth = max_depth
        self._ready: List[Tuple[int, int, Job]] = []
        self._delayed: List[Tuple[float, int, Job]] = []
        self._seq = itertools.count()
        self._cond = threading.Condition()
        self._stopped = False

    def __len__(self) -> int:
        with self._cond:
            return len(self._ready) + len(self._delayed)

    def push(self, job: Job, not_before: float = 0.0,
             enforce_bound: bool = True) -> None:
        """Queue *job*; raises :class:`QueueFullError` at the depth bound.

        Retries re-entering the queue pass ``enforce_bound=False``: a job
        the service already accepted must never be dropped because newer
        submissions filled the queue behind it.
        """
        with self._cond:
            if self._stopped:
                raise ServiceUnavailableError("job queue is stopped")
            if (enforce_bound
                    and len(self._ready) + len(self._delayed)
                    >= self.max_depth):
                raise QueueFullError(
                    f"job queue is full ({self.max_depth} queued)"
                )
            if job.seq is None:
                job.seq = next(self._seq)
            if not_before <= time.monotonic():
                heapq.heappush(self._ready, (-job.priority, job.seq, job))
            else:
                heapq.heappush(self._delayed, (not_before, job.seq, job))
            self._cond.notify()

    def _promote(self, now: float) -> None:
        """Move matured delayed entries onto the ready heap."""
        while self._delayed and self._delayed[0][0] <= now:
            _, seq, job = heapq.heappop(self._delayed)
            heapq.heappush(self._ready, (-job.priority, seq, job))

    def pop(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Block for the next ready job, waiting out delays and empty
        spells; None when the queue was stopped and nothing ready remains
        (or *timeout* elapsed)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                now = time.monotonic()
                self._promote(now)
                if self._ready:
                    return heapq.heappop(self._ready)[2]
                if self._stopped:
                    return None
                wait = self._delayed[0][0] - now if self._delayed else None
                if deadline is not None:
                    remaining = deadline - now
                    if remaining <= 0:
                        return None
                    if wait is None or remaining < wait:
                        wait = remaining
                self._cond.wait(wait)

    def drain(self) -> List[Job]:
        """Stop the queue and return every still-queued job (any delay)."""
        with self._cond:
            self._stopped = True
            entries = ([(seq, job) for _, seq, job in self._ready]
                       + [(seq, job) for _, seq, job in self._delayed])
            drained = [job for _, job in sorted(entries,
                                                key=lambda e: e[0])]
            self._ready.clear()
            self._delayed.clear()
            self._cond.notify_all()
            return drained

    @property
    def stopped(self) -> bool:
        with self._cond:
            return self._stopped
