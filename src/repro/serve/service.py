"""The long-running evaluation service behind the ``repro-serve`` daemon.

:class:`EvaluationService` turns the in-process Figure-1 measurement
pipeline into a shared facility: clients submit candidate ISDL
descriptions (plus workload/backend/weight configuration) as jobs, a
persistent pool of worker threads measures them, and every request is
served from one shared :class:`~repro.cache.ArtifactCache`, so generated
artifacts amortize across *all* clients instead of per process.  A
worker pops one job at a time and measures it through a serial
:class:`~repro.explore.ParallelEvaluator` built for that job; the cache
is the only warm state an evaluator has.

The robustness machinery, in the order a submission meets it:

1. **Admission gate** — :func:`repro.analyze.check_static` runs before a
   job is queued; a description with error-severity findings is recorded
   as a ``rejected`` job carrying the full diagnostic list (same
   ISDLxxx codes ``repro-lint`` prints) and costs no toolchain work.
2. **In-flight coalescing** — submissions are keyed by (description
   fingerprint, workload kernels, backend, weights, max_steps); while a
   twin job is queued or running, a duplicate becomes a *follower* that
   shares the leader's single evaluation.  This is the concurrent dual
   of the artifact cache: the cache dedupes across time, coalescing
   dedupes across simultaneous clients.
3. **Backpressure** — the job queue has a hard depth bound; at the bound
   submissions raise :class:`~repro.serve.jobs.QueueFullError`, which
   the HTTP layer answers with 429 rather than queueing unboundedly.
4. **Timeouts with bounded retry** — each evaluation attempt runs in an
   abandonable thread, which the worker joins with the job's
   ``timeout_s``; an attempt exceeding it is charged and the job
   re-queued with exponential backoff until ``max_attempts``, after
   which it fails.  Jobs still queued behind it are never charged for
   its stall.
5. **Graceful drain** — :meth:`EvaluationService.shutdown` stops
   admissions, lets in-flight evaluations finish, and reports every
   still-queued job as ``cancelled``.

Service-side metrics land in ``service.metrics`` (its own always-on
:class:`~repro.obs.metrics.MetricsRegistry`, exported by ``GET
/metrics``) and are mirrored into the global :mod:`repro.obs` registry
when that is enabled — counters ``serve.jobs_accepted``,
``serve.jobs_coalesced``, ``serve.jobs_rejected``,
``serve.jobs_throttled``, ``serve.jobs_retried``, ``serve.jobs_timeout``,
``serve.jobs_failed``, ``serve.jobs_completed``, ``serve.jobs_cancelled``,
``serve.evaluations_run``, ``serve.worker_errors``,
``serve.parses_reused`` (inline-ISDL submissions whose text was
already parsed for a job still on record), gauge
``serve.queue_depth``, histograms ``serve.job_seconds`` and
``serve.admission_seconds`` (the admission time each job record carries
as ``admission_s``).
"""

from __future__ import annotations

import os
import threading
import time
import traceback
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import obs
from ..analyze.diagnostics import Diagnostic, Severity
from ..cache import ArtifactCache, kernel_fingerprint
from ..codegen.kernels import resolve_kernels
from ..errors import CodegenError, IsdlSyntaxError, ReproError
from ..explore import strategies as strategy_registry
from ..explore.explorer import Explorer
from ..explore.metrics import DEFAULT_SIM_BACKEND, CostWeights
from ..explore.parallel import EvalRequest, ParallelEvaluator
from ..isdl import fingerprint
from ..isdl.ast import Description
from ..obs.metrics import MetricsRegistry, MetricsSnapshot
from ..tech.model import TechSpec, UnknownTechError, parse_tech
from .jobs import (
    Job,
    JobQueue,
    JobState,
    QueueFullError,
    ServiceUnavailableError,
    new_job_id,
)
from .journal import JobJournal

__all__ = [
    "BadRequestError",
    "EvaluationService",
    "ServiceConfig",
    "UnknownJobError",
]

#: backends a job may name (see repro.gensim.simulator_for)
KNOWN_BACKENDS = ("xsim", "block", "compiled")

#: backend and step bound of a job whose payload names neither
DEFAULT_BACKEND = DEFAULT_SIM_BACKEND
DEFAULT_MAX_STEPS = 500_000

#: diagnostic code recorded when the submitted ISDL text does not parse
CODE_PARSE_ERROR = "ISDL001"

#: diagnostic code recorded when a job names an unknown exploration
#: strategy or passes parameters its factory rejects
CODE_BAD_STRATEGY = "SRV401"

#: diagnostic code recorded when a job names a technology point the
#: scaling tables do not cover (unknown node or flavor)
CODE_BAD_TECH = "SRV402"

#: strategy params consumed by the exploration driver, not the factory
_DRIVER_PARAMS = ("max_iterations", "seed", "max_evaluations")


class BadRequestError(ReproError):
    """A submission payload the service cannot interpret (HTTP 400)."""


class UnknownJobError(ReproError):
    """A job id the service has no record of (HTTP 404)."""


@dataclass
class ServiceConfig:
    """Tunables of one :class:`EvaluationService` instance."""

    workers: int = 4
    max_queue_depth: int = 64
    coalesce: bool = True
    static_check: bool = True
    cache_entries: int = 2048
    disk_path: Optional[str] = None
    default_timeout_s: float = 60.0
    max_attempts: int = 3
    retry_backoff_s: float = 0.05  # doubles per charged attempt
    #: False turns off whole-evaluation memoization (and is what the
    #: bench's no-dedup baseline measures); artifact caches stay shared
    share_evaluations: bool = True
    #: directory for durable state; when set, a job journal
    #: (``journal.jsonl``) records admissions and results and is
    #: replayed on start so accepted jobs survive a crash
    data_dir: Optional[str] = None
    #: terminal records kept across a startup journal compaction
    journal_keep_terminal: int = 512


class EvaluationService:
    """Job queue + persistent worker pool over the shared tool chain.

    *evaluate_fn* is a test seam: when given, it replaces the real
    evaluator call with ``evaluate_fn(job) -> Evaluation`` (it may raise
    or block), so tests can script slow, failing, or instant evaluations
    without running the tool chain.
    """

    def __init__(self, config: Optional[ServiceConfig] = None, *,
                 cache: Optional[ArtifactCache] = None,
                 evaluate_fn: Optional[Callable[[Job], Any]] = None):
        self.config = config or ServiceConfig()
        self.cache = cache if cache is not None else ArtifactCache(
            max_entries=self.config.cache_entries,
            disk_path=self.config.disk_path,
        )
        self.journal: Optional[JobJournal] = None
        if self.config.data_dir:
            os.makedirs(self.config.data_dir, exist_ok=True)
            self.journal = JobJournal(
                os.path.join(self.config.data_dir, "journal.jsonl"),
                keep_terminal=self.config.journal_keep_terminal,
            )
        self._replayed = False
        self.metrics = MetricsRegistry()
        self.queue = JobQueue(self.config.max_queue_depth)
        self.started_at = time.time()
        self._evaluate_fn = evaluate_fn
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []  # submission order, for listings
        self._inflight: Dict[Tuple, Job] = {}
        #: submitted ISDL text -> its parsed description; an entry lives
        #: as long as some job record holds that description
        self._parsed: "weakref.WeakValueDictionary[str, Description]" = \
            weakref.WeakValueDictionary()
        self._lock = threading.RLock()
        self._done_cond = threading.Condition(self._lock)
        self._draining = False
        self._workers: List[threading.Thread] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "EvaluationService":
        """Spawn the worker pool (idempotent).

        With a journal configured, the previous run's log is replayed
        first: terminal records are restored so old job ids still
        resolve, and admitted-but-unfinished jobs re-enter the queue
        with their original ids.
        """
        if self.journal is not None and not self._replayed:
            self._replay_journal()
        with self._lock:
            if self._workers:
                return self
            for i in range(self.config.workers):
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"repro-serve-worker-{i}",
                    daemon=True,
                )
                thread.start()
                self._workers.append(thread)
        return self

    def shutdown(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop accepting jobs; with *drain* let in-flight work finish
        and report every still-queued job as cancelled."""
        with self._lock:
            self._draining = True
        drained = self.queue.drain()
        for job in drained:
            self._cancel(job, "cancelled: service shut down while queued")
        self._gauge("serve.queue_depth", 0)
        if drain:
            deadline = time.monotonic() + timeout
            for thread in self._workers:
                thread.join(max(0.0, deadline - time.monotonic()))
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "EvaluationService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    # ------------------------------------------------------------------
    # Submission (admission gate → coalescing → queue)
    # ------------------------------------------------------------------

    def submit(self, payload: Dict[str, Any]) -> Job:
        """Admit one submission payload; returns its :class:`Job` record.

        Raises :class:`BadRequestError` for a payload the service cannot
        interpret, :class:`~repro.serve.jobs.QueueFullError` under
        backpressure, and
        :class:`~repro.serve.jobs.ServiceUnavailableError` while
        draining.  A parseable-but-invalid description is *not* an
        error: it becomes a ``rejected`` job whose record carries the
        static-analysis diagnostics.
        """
        return self._admit(payload)

    def _admit(self, payload: Dict[str, Any], *,
               job_id: Optional[str] = None,
               enforce_bound: bool = True) -> Job:
        """Submission body; journal replay re-enters here with the
        original *job_id* and ``enforce_bound=False`` (an accepted job
        must never be dropped because the restart refilled the queue)."""
        entered = time.perf_counter()
        if self.draining:
            raise ServiceUnavailableError("service is draining")
        job = self._parse_payload(payload, job_id=job_id)
        job.payload = payload
        if job.diagnostics:
            # did not parse (ISDL001) or named a bad strategy (SRV401):
            # rejected on record, never costs a queue slot
            self._stamp_admission(job, entered)
            return self._reject(job)
        if self.config.static_check:
            gate = self._gate_diagnostics(job)
            if gate is not None:
                job.diagnostics = gate
                self._stamp_admission(job, entered)
                return self._reject(job)
        with self._lock:
            if self.config.coalesce:
                leader = self._inflight.get(job.key)
                if leader is not None and not leader.done:
                    job.state = leader.state
                    job.coalesced_with = leader.id
                    leader.followers.append(job)
                    self._stamp_admission(job, entered)
                    self._register(job)
                    self._count("serve.jobs_coalesced")
                    self._journal_admit(job)
                    return job
            try:
                self.queue.push(job, enforce_bound=enforce_bound)
            except QueueFullError:
                self._count("serve.jobs_throttled")
                raise
            # a worker cannot finish the job before the lock is released
            self._stamp_admission(job, entered)
            self._inflight[job.key] = job
            self._register(job)
            self._count("serve.jobs_accepted")
            self._gauge("serve.queue_depth", len(self.queue))
            self._journal_admit(job)
        return job

    def job(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"unknown job {job_id!r}")
        return job

    def jobs(self, limit: int = 200) -> List[Job]:
        """The most recent submissions, oldest first."""
        with self._lock:
            return [self._jobs[i] for i in self._order[-limit:]]

    def wait(self, job_id: str, timeout: float = 60.0) -> Job:
        """Block until the job reaches a terminal state (or *timeout*)."""
        job = self.job(job_id)
        deadline = time.monotonic() + timeout
        with self._done_cond:
            while not job.done:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"job {job_id} still {job.state.value}"
                        f" after {timeout:.1f}s"
                    )
                self._done_cond.wait(remaining)
        return job

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        snapshot = self.metrics.snapshot()
        with self._lock:
            states: Dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state.value] = states.get(job.state.value, 0) + 1
            return {
                "status": "draining" if self._draining else "ok",
                "uptime_s": time.time() - self.started_at,
                "workers": len(self._workers),
                "queue_depth": len(self.queue),
                "jobs": states,
                "counters": {
                    name: value
                    for name, value in sorted(snapshot.counters.items())
                    if name.startswith("serve.")
                },
            }

    def metrics_snapshot(self) -> MetricsSnapshot:
        return self.metrics.snapshot()

    # ------------------------------------------------------------------
    # Payload parsing and the admission gate
    # ------------------------------------------------------------------

    def _parse_payload(self, payload: Dict[str, Any],
                       job_id: Optional[str] = None) -> Job:
        if not isinstance(payload, dict):
            raise BadRequestError("submission payload must be a JSON object")
        parse_diags: Tuple[Diagnostic, ...] = ()
        arch = payload.get("arch")
        source = payload.get("isdl")
        if (arch is None) == (source is None):
            raise BadRequestError(
                "submission needs exactly one of 'arch' or 'isdl'"
            )
        if arch is not None:
            from ..arch import ARCHITECTURES, description_for

            if arch not in ARCHITECTURES:
                raise BadRequestError(
                    f"unknown architecture {arch!r}"
                    f" (available: {', '.join(sorted(ARCHITECTURES))})"
                )
            desc = description_for(arch)
        else:
            desc, parse_diags = self._parse_isdl(str(source))
        workloads = tuple(payload.get("workloads") or ("sum",))
        try:
            kernels = tuple(resolve_kernels(list(workloads)))
        except CodegenError as exc:
            raise BadRequestError(str(exc)) from None
        weights_spec = payload.get("weights") or {}
        if not isinstance(weights_spec, dict):
            raise BadRequestError("'weights' must be an object")
        try:
            weights = CostWeights(
                runtime=float(weights_spec.get("runtime", 1.0)),
                area=float(weights_spec.get("area", 0.35)),
                power=float(weights_spec.get("power", 0.25)),
            )
        except (TypeError, ValueError):
            raise BadRequestError("'weights' values must be numbers") \
                from None
        backend = str(payload.get("backend", DEFAULT_BACKEND))
        if backend not in KNOWN_BACKENDS:
            raise BadRequestError(
                f"unknown backend {backend!r}"
                f" (available: {', '.join(KNOWN_BACKENDS)})"
            )
        try:
            max_steps = int(payload.get("max_steps", DEFAULT_MAX_STEPS))
            priority = int(payload.get("priority", 0))
            timeout_s = float(payload.get("timeout_s",
                                          self.config.default_timeout_s))
        except (TypeError, ValueError):
            raise BadRequestError(
                "'max_steps'/'priority'/'timeout_s' must be numbers"
            ) from None
        if max_steps <= 0 or timeout_s <= 0:
            raise BadRequestError(
                "'max_steps' and 'timeout_s' must be positive"
            )
        label = str(payload.get("label")
                    or getattr(desc, "name", None) or arch or "<candidate>")
        strategy, strategy_params, strategy_diags = \
            self._parse_strategy(payload.get("strategy"))
        tech, tech_diags = self._parse_tech(payload.get("tech"))
        parse_diags = parse_diags + strategy_diags + tech_diags
        key = None
        if desc is not None:
            key = (
                fingerprint(desc),
                tuple(kernel_fingerprint(k) for k in kernels),
                backend,
                (weights.runtime, weights.area, weights.power),
                max_steps,
            )
            if strategy is not None:
                # a search over a description is a different unit of work
                # than measuring it; plain jobs keep the exact seed key
                key = key + (
                    "strategy", strategy,
                    tuple(sorted((k, repr(v))
                                 for k, v in strategy_params.items())),
                )
            if tech is not None:
                # tech-pinned jobs are a distinct unit of work; jobs
                # without the field keep the exact historical key shape
                key = key + (tech.cache_key,)
        return Job(
            id=job_id or new_job_id(),
            desc=desc, label=label, workloads=workloads,
            kernels=kernels, weights=weights, backend=backend,
            max_steps=max_steps, priority=priority, timeout_s=timeout_s,
            key=key, diagnostics=parse_diags,
            strategy=strategy, strategy_params=strategy_params,
            tech=tech,
        )

    def _parse_isdl(self, text: str) -> Tuple[
            Optional[Description], Tuple[Diagnostic, ...]]:
        """Parse submitted ISDL *text*, once per distinct text while a job
        record holds its description.

        A text already in ``_parsed`` is served from there (counted as
        ``serve.parses_reused``), so repeats share one ``Description``:
        its memoized fingerprint, the gate's ``analysis`` entry and the
        coalescing key.  A text that fails to parse is never stored.
        """
        with self._lock:
            desc = self._parsed.get(text)
        if desc is not None:
            self._count("serve.parses_reused")
            return desc, ()
        # resolved per call, so a wrapper installed on
        # ``repro.isdl.load_string`` sees every parse that runs
        from ..isdl import load_string

        try:
            desc = load_string(text, filename="<submitted>", validate=False)
        except IsdlSyntaxError as exc:
            return None, (Diagnostic(
                CODE_PARSE_ERROR, Severity.ERROR, exc.message,
                location=exc.location,
            ),)
        with self._lock:
            # a racing parse of the same text may have stored first:
            # then every job of the text shares that description
            return self._parsed.setdefault(text, desc), ()

    def _parse_strategy(self, spec: Any) -> Tuple[
            Optional[str], Dict[str, Any], Tuple[Diagnostic, ...]]:
        """Validate the optional ``"strategy"`` object at admission.

        A structurally malformed spec (not an object, missing ``name``)
        is a :class:`BadRequestError` (400).  A well-formed spec naming
        an unknown strategy or passing parameters its factory rejects
        produces an SRV401 diagnostic naming the known strategies — the
        job is rejected on record (422) without costing a queue slot,
        mirroring the static-analysis gate.
        """
        if spec is None:
            return None, {}, ()
        if not isinstance(spec, dict) or not isinstance(
                spec.get("name"), str):
            raise BadRequestError(
                "'strategy' must be an object with a string 'name'"
                " (and optional 'params' object)"
            )
        params = spec.get("params") or {}
        if not isinstance(params, dict):
            raise BadRequestError("'strategy'.'params' must be an object")
        name = spec["name"]
        factory_params = {k: v for k, v in params.items()
                          if k not in _DRIVER_PARAMS}
        try:
            for driver_param in _DRIVER_PARAMS:
                if driver_param in params:
                    int(params[driver_param])
            strategy_registry.get(name, **factory_params)
        except strategy_registry.UnknownStrategyError as exc:
            return None, {}, (Diagnostic(
                CODE_BAD_STRATEGY, Severity.ERROR, str(exc)),)
        except (TypeError, ValueError):
            return None, {}, (Diagnostic(
                CODE_BAD_STRATEGY, Severity.ERROR,
                f"driver parameters {_DRIVER_PARAMS} must be integers;"
                f" known strategies:"
                f" {', '.join(strategy_registry.available())}"),)
        return name, dict(params), ()

    def _parse_tech(self, spec: Any) -> Tuple[
            Optional[TechSpec], Tuple[Diagnostic, ...]]:
        """Validate the optional ``"tech"`` object at admission.

        A structurally malformed spec (not an object, non-integer node,
        non-positive budget) is a :class:`BadRequestError` (400).  A
        well-formed spec naming a node/flavor the scaling tables do not
        cover produces an SRV402 diagnostic naming every known point —
        the job is rejected on record (422) without costing a queue
        slot, mirroring the strategy gate.  Absent spec: byte-for-byte
        unchanged admission.
        """
        if spec is None:
            return None, ()
        try:
            return parse_tech(spec), ()
        except UnknownTechError as exc:
            return None, (Diagnostic(
                CODE_BAD_TECH, Severity.ERROR, str(exc)),)
        except ValueError as exc:
            raise BadRequestError(str(exc)) from None

    def _gate_diagnostics(self, job: Job
                          ) -> Optional[Tuple[Diagnostic, ...]]:
        """Run the repro.analyze validity gate; the full diagnostic list
        when it finds error-severity problems, None when the job may
        proceed (including when the analysis itself crashes — dispatch
        will record that failure the normal way)."""
        from ..analyze import check_static

        try:
            analysis = check_static(job.desc, cache=self.cache)
        except Exception:  # broad by design — gate must not block dispatch
            return None
        if analysis.ok():
            return None
        return tuple(analysis.diagnostics)

    def _reject(self, job: Job) -> Job:
        job.state = JobState.REJECTED
        errors = [d for d in job.diagnostics
                  if d.severity is Severity.ERROR]
        first = errors[0] if errors else job.diagnostics[0]
        more = f" (+{len(errors) - 1} more)" if len(errors) > 1 else ""
        job.error = (f"admission gate rejected description:"
                     f" {first.code}: {first.message}{more}")
        job.finished_at = time.time()
        with self._lock:
            self._register(job)
        self._count("serve.jobs_rejected")
        self._journal_result(job)
        return job

    def _stamp_admission(self, job: Job, entered: float) -> None:
        """Record the admission time: from entry to ``_admit`` (before
        the ISDL parse) until the admit or reject decision."""
        job.admission_s = time.perf_counter() - entered
        self._observe("serve.admission_seconds", job.admission_s)

    def _register(self, job: Job) -> None:
        self._jobs[job.id] = job
        self._order.append(job.id)

    # ------------------------------------------------------------------
    # Journal hooks and replay
    # ------------------------------------------------------------------

    def _journal_admit(self, job: Job) -> None:
        if self.journal is not None and job.payload is not None:
            self.journal.admit(job.id, job.payload,
                               coalesced_with=job.coalesced_with)

    def _journal_result(self, job: Job) -> None:
        if self.journal is not None and job.restored is None:
            self.journal.result(job.id, job.to_dict(full=True))

    def _replay_journal(self) -> None:
        """Fold the previous run's journal: restore terminal records,
        re-admit live jobs under their original ids, compact the file."""
        self._replayed = True
        terminal, live = self.journal.load()
        self.journal.compact(terminal.values())
        with self._lock:
            for job_id, record in terminal.items():
                self._jobs[job_id] = _restored_job(job_id, record)
                self._order.append(job_id)
                self._count("serve.jobs_restored")
        for job_id, payload in live.items():
            try:
                self._admit(payload, job_id=job_id, enforce_bound=False)
                self._count("serve.jobs_replayed")
            except ReproError as exc:
                # e.g. an architecture that no longer exists: record the
                # failure under the original id so the client learns why
                stub = _restored_job(job_id, {
                    "id": job_id, "state": JobState.FAILED.value,
                    "error": f"journal replay failed: {exc}",
                })
                with self._lock:
                    self._jobs[job_id] = stub
                    self._order.append(job_id)
                self._count("serve.jobs_failed")

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job = self.queue.pop()
            if job is None:
                return
            self._gauge("serve.queue_depth", len(self.queue))
            try:
                self._run_job(job)
            except Exception as exc:  # broad by design — pool must survive
                self._count("serve.worker_errors")
                if not job.done:
                    self._finish(job, JobState.FAILED,
                                 error=f"internal worker error:"
                                       f" {_format_error(exc)}")

    def _run_job(self, job: Job) -> None:
        """One attempt at *job* on an abandonable thread, joined with the
        job's deadline.

        Python cannot kill a thread: an attempt still running at
        ``timeout_s`` is abandoned, and whatever it returns later is
        never read.
        """
        with self._lock:
            job.attempts += 1
            if job.started_at is None:
                job.started_at = time.time()
            job.state = JobState.RUNNING
        outcome: List[Tuple[str, Any]] = []

        def attempt() -> None:
            try:
                outcome.append(("ok", self._execute(job)))
            except Exception as exc:  # broad by design — failure capture
                outcome.append(("error", _format_error(exc)))

        thread = threading.Thread(target=attempt, daemon=True,
                                  name="repro-serve-eval")
        thread.start()
        thread.join(job.timeout_s)
        if thread.is_alive():
            self._handle_timeout(job)
        elif outcome:
            self._apply_result(job, outcome[0])
        else:  # the attempt thread died without a record
            self._count("serve.worker_errors")
            self._requeue_job(job, delay=0.0)

    def _execute(self, job: Job) -> Tuple[Any, Optional[str], bool]:
        """One evaluation attempt → (evaluation, error, cached)."""
        if self._evaluate_fn is not None:
            self._count("serve.evaluations_run")
            return self._evaluate_fn(job), None, False
        evaluator = ParallelEvaluator(
            list(job.kernels),
            weights=job.weights,
            cache=self.cache,
            max_steps=job.max_steps,
            mode="serial",
            sim_backend=job.backend,
            static_check=False,  # the admission gate already ran
            memoize=self.config.share_evaluations,
            tech=job.tech,
        )
        if job.strategy is not None:
            return self._explore(job, evaluator)
        request = EvalRequest(job.desc, label=job.label)
        result = evaluator.evaluate_many([request])[0]
        if not result.cached:
            self._count("serve.evaluations_run")
        return result.evaluation, result.error, result.cached

    def _explore(self, job: Job, evaluator: ParallelEvaluator
                 ) -> Tuple[Any, Optional[str], bool]:
        """Run a strategy job: a whole exploration over the job's
        evaluator; the result is the best candidate's evaluation plus an
        exploration summary on the job record."""
        params = dict(job.strategy_params)
        max_iterations = int(params.pop("max_iterations", 4))
        seed = int(params.pop("seed", 0))
        raw = params.pop("max_evaluations", None)
        max_evaluations = None if raw is None else int(raw)
        strategy = strategy_registry.get(job.strategy, **params)
        explorer = Explorer(list(job.kernels), job.weights,
                            evaluator=evaluator)
        log = explorer.explore(
            job.desc,
            max_iterations=max_iterations,
            strategy=strategy,
            seed=seed,
            max_evaluations=max_evaluations,
        )
        # the initial measurement plus every non-cached batch member
        self._count("serve.evaluations_run",
                    1 + log.evaluations - log.cache_hits)
        frontier = log.frontier()
        job.exploration = {
            "strategy": log.strategy,
            "iterations": log.iterations,
            "evaluations": log.evaluations,
            "cache_hits": log.cache_hits,
            "improvement": log.improvement,
            "best": {
                "derived_by": log.best.derived_by,
                "cost": log.best.cost(job.weights),
                "fingerprint": fingerprint(log.best.desc),
            },
            "frontier": [
                {
                    "label": candidate.evaluation.name,
                    "derived_by": candidate.derived_by,
                    "cost": candidate.cost(job.weights),
                }
                for candidate in frontier
            ],
            "trajectories": [
                {
                    "label": trajectory.label,
                    "steps": max(0, len(trajectory.accepted) - 1),
                    "cache_hits": trajectory.cache_hits,
                    "cache_misses": trajectory.cache_misses,
                }
                for trajectory in log.trajectories
            ],
        }
        return log.best.evaluation, None, False

    # ------------------------------------------------------------------
    # Completion, retries, cancellation
    # ------------------------------------------------------------------

    def _apply_result(self, job: Job,
                      outcome: Tuple[str, Any]) -> None:
        kind, value = outcome
        if kind == "error":
            self._finish(job, JobState.FAILED, error=value)
            return
        evaluation, error, cached = value
        if error is not None:
            self._finish(job, JobState.FAILED, error=error)
        else:
            self._finish(job, JobState.SUCCEEDED, evaluation=evaluation,
                         cached=cached)

    def _handle_timeout(self, job: Job) -> None:
        if job.attempts < self.config.max_attempts:
            delay = self.config.retry_backoff_s * (2 ** (job.attempts - 1))
            self._count("serve.jobs_retried")
            self._requeue_job(job, delay=delay)
        else:
            self._count("serve.jobs_timeout")
            self._finish(
                job, JobState.FAILED,
                error=(f"evaluation timed out after {job.timeout_s:.1f}s"
                       f" (attempt {job.attempts}"
                       f"/{self.config.max_attempts})"),
            )

    def _requeue_job(self, job: Job, delay: float) -> None:
        """Put an already-accepted job back on the queue (never dropped
        for depth); a stopped queue cancels it instead."""
        with self._lock:
            job.state = JobState.QUEUED
        try:
            self.queue.push(job, not_before=time.monotonic() + delay,
                            enforce_bound=False)
            self._gauge("serve.queue_depth", len(self.queue))
        except ServiceUnavailableError:
            self._cancel(job, "cancelled: service shut down during retry")

    def _cancel(self, job: Job, message: str) -> None:
        self._count("serve.jobs_cancelled")
        self._finish(job, JobState.CANCELLED, error=message)

    def _finish(self, job: Job, state: JobState, *,
                evaluation: Any = None, error: Optional[str] = None,
                cached: bool = False) -> None:
        """Terminal transition: record the outcome, fan it out to the
        followers coalesced onto this job, release the in-flight key."""
        with self._lock:
            if job.done:
                return  # an outcome is recorded once
            job.evaluation = evaluation
            job.error = error
            job.cached = cached
            job.finished_at = time.time()
            job.state = state
            followers = list(job.followers)
            if job.key is not None and self._inflight.get(job.key) is job:
                del self._inflight[job.key]
            for follower in followers:
                follower.evaluation = evaluation
                follower.error = error
                follower.exploration = job.exploration
                follower.cached = True if evaluation is not None else cached
                follower.started_at = job.started_at
                follower.finished_at = job.finished_at
                follower.state = state
            self._journal_result(job)
            for follower in followers:
                self._journal_result(follower)
            self._done_cond.notify_all()
        if state is JobState.SUCCEEDED:
            self._count("serve.jobs_completed", 1 + len(followers))
        elif state is JobState.FAILED:
            self._count("serve.jobs_failed", 1 + len(followers))
        elif state is JobState.CANCELLED and followers:
            self._count("serve.jobs_cancelled", len(followers))
        if job.started_at is not None and job.finished_at is not None:
            self._observe("serve.job_seconds",
                          max(0.0, job.finished_at - job.created_at))

    # ------------------------------------------------------------------
    # Metrics plumbing (own registry + the global obs facade)
    # ------------------------------------------------------------------

    def _count(self, name: str, amount: float = 1.0) -> None:
        self.metrics.add(name, amount)
        obs.add(name, amount)

    def _gauge(self, name: str, value: float) -> None:
        self.metrics.set(name, value)
        obs.gauge_set(name, value)

    def _observe(self, name: str, value: float) -> None:
        self.metrics.observe(name, value)
        obs.observe(name, value)


def _format_error(exc: BaseException) -> str:
    return traceback.format_exception_only(type(exc), exc)[-1].strip()


def _restored_job(job_id: str, record: Dict[str, Any]) -> Job:
    """A read-only stub serving a journal-restored terminal record."""
    try:
        state = JobState(record.get("state", "failed"))
    except ValueError:
        state = JobState.FAILED
    return Job(
        id=job_id, desc=None,
        label=str(record.get("label", "<restored>")),
        workloads=tuple(record.get("workloads") or ()), kernels=(),
        weights=CostWeights(),
        backend=str(record.get("backend", DEFAULT_BACKEND)),
        max_steps=DEFAULT_MAX_STEPS,
        state=state, restored=record,
        created_at=record.get("created_at") or time.time(),
        finished_at=record.get("finished_at"),
        error=record.get("error"),
    )
