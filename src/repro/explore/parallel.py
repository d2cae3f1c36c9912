"""Parallel, cache-backed candidate evaluation for exploration sweeps.

The Figure-1 loop proposes a batch of candidate descriptions per
iteration and measures each with the full tool chain (static gate →
compile → assemble → simulate → synthesize → cost).  The measurements
are independent, so :class:`ParallelEvaluator` fans them out over a
``concurrent.futures`` pool while keeping the three properties a search
loop needs:

* **deterministic ordering** — results come back in submission order, so
  tie-breaking ("first candidate wins at equal cost") matches the serial
  engine bit for bit;
* **failure isolation** — a candidate whose evaluation *raises* (as
  opposed to one that is merely infeasible) is captured as an
  :class:`EvalResult` with ``error`` set; it never aborts the sweep;
* **cache warm-sharing** — the main process's
  :class:`~repro.cache.ArtifactCache` is consulted before any work is
  dispatched and stores every result, so candidates re-proposed in later
  iterations (or whole re-runs of a sweep) are lookups, whatever pool
  mode produced them first.  That probe runs in the main process, under
  one ``explore.probe`` span per batch.

Both modes measure a candidate through one step
(:meth:`ParallelEvaluator._measure`): the static validity gate, then the
tool chain, against one cache, so the evaluation reuses the signature
table the gate built.  Every candidate is built from its own
description; the only reuse across candidates is that whole-fingerprint
memo.  In ``"process"`` mode the step runs in the pool workers, each
against its own private cache, which therefore also holds the gate's
``analysis`` memo.  A batch goes out as one task per worker:
``min(max_workers, len(jobs))`` interleaved chunks, each pickled whole.
A task carries, per candidate, its description, label and technology
point; the sub-objects a round's candidates share cross once per worker.

Modes: ``"process"`` (true parallelism; candidates and results cross
the boundary by pickling), ``"serial"`` (the seed behaviour; never
creates a pool), and ``"auto"`` (processes when the platform supports
them, straight-line execution for tiny batches or where
``multiprocessing`` cannot start).
"""

from __future__ import annotations

import os
import traceback
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from .. import obs
from ..analyze.diagnostics import Diagnostic
from ..cache import ArtifactCache
from ..codegen.ir import Kernel
from ..isdl import ast, fingerprint
from ..obs.metrics import MetricsSnapshot
from ..tech.model import TechSpec
from .metrics import (
    DEFAULT_SIM_BACKEND,
    CostWeights,
    Evaluation,
    evaluate,
    evaluation_key,
)

__all__ = ["EvalRequest", "EvalResult", "ParallelEvaluator"]

#: what measuring one candidate yields besides its error message: the
#: evaluation, or the gate's diagnostics when it rejected the candidate
Outcome = Union[Evaluation, Tuple[Diagnostic, ...]]


@dataclass
class EvalRequest:
    """One candidate description queued for measurement."""

    desc: ast.Description
    derived_by: str = "initial"
    label: Optional[str] = None
    #: the exploration trajectory this measurement belongs to (set by
    #: multi-trajectory strategies; ignored by the evaluator itself)
    tag: Optional[str] = None
    #: technology/budget axis for this measurement; None inherits the
    #: evaluator's default (usually the pinned baseline process)
    tech: Optional[TechSpec] = None

    @property
    def display_label(self) -> str:
        """A label that never raises, even for a malformed candidate."""
        return self.label or getattr(self.desc, "name", "<candidate>")


@dataclass
class EvalResult:
    """Outcome of one candidate measurement, in submission order."""

    index: int
    label: str
    derived_by: str
    evaluation: Optional[Evaluation] = None
    error: Optional[str] = None
    cached: bool = False
    #: per-candidate observability profile (None while obs is disabled);
    #: for pool workers this is the snapshot shipped back to the main
    #: process
    obs: Optional[MetricsSnapshot] = None
    #: the static-analysis findings when the validity gate rejected the
    #: candidate before any tool ran (``error`` is set alongside)
    diagnostics: Tuple[Diagnostic, ...] = ()

    @property
    def ok(self) -> bool:
        return self.error is None


# ----------------------------------------------------------------------
# Process-pool worker side.  Workers are long-lived (one pool per
# evaluator); the kernels/settings land once via the initializer and each
# worker measures through a serial evaluator over a private artifact cache.
# ----------------------------------------------------------------------

_WORKER_STATE: dict = {}


def _worker_cache_entries(n_kernels: int) -> int:
    """Size of a pool worker's cache: room for two candidates.

    One candidate stores the gate's analysis, its signature table,
    synthesis and evaluation, and a program and a run per kernel.  Only
    the same candidate, or another technology point of the same
    description, reads them back: in a sweep the one hit is the gate's
    signature table reaching the evaluation, and a technology sweep
    shares the programs, runs and synthesis of its description.
    """
    return 2 * (4 + 2 * n_kernels)


def _pool_init(kernels: Sequence[Kernel], max_steps: int,
               weights: Optional[CostWeights], obs_enabled: bool,
               sim_backend: str, memoize: bool,
               static_check: bool) -> None:
    cache = ArtifactCache(max_entries=_worker_cache_entries(len(kernels)))
    _WORKER_STATE["evaluator"] = ParallelEvaluator(
        kernels, weights=weights, cache=cache,
        max_steps=max_steps, mode="serial", sim_backend=sim_backend,
        static_check=static_check, memoize=memoize,
    )
    if obs_enabled:
        obs.enable()


def _pool_evaluate(index: int, desc: ast.Description,
                   label: str,
                   tech: Optional[TechSpec] = None,
                   ) -> Tuple[int, Optional[Outcome], Optional[str],
                              Optional[MetricsSnapshot]]:
    """Gate and evaluate one candidate in a pool worker (see
    :meth:`ParallelEvaluator._measure`)."""
    return _WORKER_STATE["evaluator"]._measure(index, desc, label, tech)


def _pool_evaluate_chunk(tasks: Sequence[tuple]) -> list:
    """One worker task: :func:`_pool_evaluate` over each argument tuple,
    in order.  The name is resolved per candidate, so a wrapper installed
    on the module attribute sees every one."""
    return [_pool_evaluate(*task) for task in tasks]


def _format_error(exc: BaseException) -> str:
    tail = traceback.format_exception_only(type(exc), exc)[-1].strip()
    return tail


class ParallelEvaluator:
    """Evaluate candidate descriptions concurrently behind one cache.

    Every candidate is simulated on *sim_backend*, ``"compiled"`` unless
    named otherwise (see :func:`~repro.explore.metrics.evaluate`); the
    pool workers use the same engine.
    """

    def __init__(
        self,
        kernels: Sequence[Kernel],
        *,
        weights: Optional[CostWeights] = None,
        cache: Optional[ArtifactCache] = None,
        max_steps: int = 500_000,
        max_workers: Optional[int] = None,
        mode: str = "auto",
        sim_backend: str = DEFAULT_SIM_BACKEND,
        static_check: bool = True,
        memoize: bool = True,
        tech: Optional[TechSpec] = None,
    ):
        if mode not in ("auto", "process", "serial"):
            raise ValueError(f"unknown evaluator mode {mode!r}")
        self.kernels = list(kernels)
        self.weights = weights
        self.cache = cache
        self.max_steps = max_steps
        self.max_workers = max_workers or min(8, os.cpu_count() or 1)
        self.mode = mode
        self.sim_backend = sim_backend
        self.static_check = static_check
        #: default technology axis; a request's own ``tech`` overrides it
        self.tech = tech
        #: False disables the whole-evaluation memo and warm-path probe
        #: (artifact-level caches still apply); see explore.metrics.evaluate
        self.memoize = memoize
        self._pool = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def evaluate(self, desc: ast.Description,
                 label: Optional[str] = None,
                 tech: Optional[TechSpec] = None) -> Evaluation:
        """Measure a single candidate inline (exceptions propagate)."""
        return evaluate(
            desc, self.kernels, self.max_steps,
            name=label, weights=self.weights, cache=self.cache,
            sim_backend=self.sim_backend, memoize=self.memoize,
            tech=tech if tech is not None else self.tech,
        )

    def _tech_for(self, request: EvalRequest) -> Optional[TechSpec]:
        """The request's tech axis, falling back to the evaluator's."""
        return request.tech if request.tech is not None else self.tech

    def evaluate_many(
        self, requests: Sequence[EvalRequest]
    ) -> List[EvalResult]:
        """Measure a batch; results are in submission order, always
        ``len(requests)`` long, and a raised evaluation becomes an
        ``error`` entry instead of an exception."""
        results: List[Optional[EvalResult]] = [None] * len(requests)
        jobs: List[Tuple[int, EvalRequest]] = []
        with obs.span("explore.probe", candidates=len(requests)):
            for index, request in enumerate(requests):
                hit = self._cache_probe(index, request)
                if hit is not None:
                    results[index] = hit
                else:
                    jobs.append((index, request))
        mode = self._effective_mode(len(jobs))
        if mode == "serial":
            for index, request in jobs:
                results[index] = self._evaluate_inline(index, request)
        else:
            self._run_processes(jobs, results)
        return results  # type: ignore[return-value]

    def shutdown(self) -> None:
        """Release the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "ParallelEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.shutdown()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Dispatch strategies
    # ------------------------------------------------------------------

    def _effective_mode(self, jobs: int) -> str:
        if self.mode != "auto":
            return self.mode
        if jobs <= 1:
            return "serial"
        try:
            import multiprocessing

            multiprocessing.get_context()
            return "process"
        except (ImportError, OSError):  # hosts without process support
            return "serial"

    def _cache_probe(self, index: int,
                     request: EvalRequest) -> Optional[EvalResult]:
        """Warm-path lookup in the main cache before dispatching."""
        if self.cache is None or not self.memoize:
            return None
        label = request.display_label
        tech = self._tech_for(request)
        try:
            key = evaluation_key(request.desc, self.kernels,
                                 self.max_steps,
                                 sim_backend=self.sim_backend,
                                 tech=tech)
        except Exception:  # malformed candidate: let dispatch record it
            return None
        cached = self.cache.peek("evaluation", key)
        if cached is None:
            return None
        with obs.capture() as cap:
            # counted hit
            evaluation = self.evaluate(request.desc, label, tech=tech)
        return EvalResult(index, label, request.derived_by,
                          evaluation=evaluation, cached=True,
                          obs=cap.snapshot)

    def _measure(self, index: int, desc: ast.Description, label: str,
                 tech: Optional[TechSpec],
                 ) -> Tuple[int, Optional[Outcome], Optional[str],
                            Optional[MetricsSnapshot]]:
        """The per-candidate step of both modes: the static validity
        gate, then the tool chain, against this evaluator's cache.

        Returns ``(index, outcome, error, snapshot)``.  A candidate the
        gate rejects is never evaluated: its *outcome* is the diagnostic
        list and *error* names the first error.  A stage that raises
        leaves *outcome* None with *error* set; a candidate so malformed
        that the analysis itself raises goes on to the evaluation, which
        records the failure.  *snapshot* is the candidate's obs profile.
        """
        outcome = error = None
        with obs.capture() as cap:
            if self.static_check:
                # resolved per call, so a wrapper installed on
                # ``repro.analyze.check_static`` sees every gate run
                from ..analyze import check_static

                try:
                    analysis = check_static(desc, cache=self.cache)
                except Exception:  # malformed: the evaluation records it
                    analysis = None
                if analysis is not None and not analysis.ok():
                    obs.add("analyze.candidates_rejected")
                    first, *more = analysis.errors
                    extra = f" (+{len(more)} more)" if more else ""
                    outcome = tuple(analysis.diagnostics)
                    error = (f"static analysis rejected candidate:"
                             f" {first.code}: {first.message}{extra}")
            if error is None:
                try:
                    outcome = self.evaluate(desc, label, tech=tech)
                except Exception as exc:  # failure capture is the point
                    error = _format_error(exc)
        return index, outcome, error, cap.snapshot

    def _result(self, request: EvalRequest, index: int,
                outcome: Optional[Outcome], error: Optional[str],
                snapshot: Optional[MetricsSnapshot]) -> EvalResult:
        label = request.display_label
        if error is not None:
            return EvalResult(index, label, request.derived_by, error=error,
                              obs=snapshot, diagnostics=outcome or ())
        return EvalResult(index, label, request.derived_by,
                          evaluation=outcome, obs=snapshot)

    def _evaluate_inline(self, index: int,
                         request: EvalRequest) -> EvalResult:
        return self._result(request, *self._measure(
            index, request.desc, request.display_label,
            self._tech_for(request)))

    def _run_processes(self, jobs, results) -> None:
        """Measure *jobs* in the pool, one task per worker: interleaved
        chunks, so each worker gets a share of every round.  Results and
        worker snapshots are taken in submission order; the candidates of
        a chunk that could not be pickled, or whose pool broke, are
        measured inline instead."""
        width = min(self.max_workers, len(jobs))
        futures = []
        broken = False
        try:
            pool = self._ensure_pool()
            for chunk in (jobs[start::width] for start in range(width)):
                futures.append(pool.submit(_pool_evaluate_chunk, [
                    (index, request.desc, request.display_label,
                     self._tech_for(request))
                    for index, request in chunk
                ]))
        except (BrokenExecutor, OSError, ValueError):
            futures, broken = [], True
        measured = {}
        for future in futures:
            # the candidates of a chunk that fails are measured inline below
            try:
                for index, *rest in future.result():
                    measured[index] = rest
            except BrokenExecutor:  # OOM-killed worker, fork failure…
                broken = True
            except Exception:  # e.g. a chunk that could not be pickled
                pass
        if broken:
            self.shutdown()
        for index, request in jobs:
            if index not in measured:
                results[index] = self._evaluate_inline(index, request)
                continue
            outcome, error, snapshot = measured[index]
            # merged in submission order, so the main process's registry
            # is deterministic
            obs.merge(snapshot)
            if error is None:
                outcome = self._adopt(request, outcome)
            results[index] = self._result(request, index, outcome, error,
                                          snapshot)

    def _adopt(self, request: EvalRequest,
               evaluation: Evaluation) -> Evaluation:
        """Store a worker-produced evaluation in the main cache, so the
        warm path serves it next time regardless of pool mode."""
        if self.cache is None or not self.memoize:
            return evaluation
        key = evaluation_key(request.desc, self.kernels, self.max_steps,
                             evaluation.fingerprint or None,
                             sim_backend=self.sim_backend,
                             tech=self._tech_for(request))
        return self.cache.evaluation(key, lambda: evaluation)

    def _ensure_pool(self):
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_pool_init,
                initargs=(self.kernels, self.max_steps, self.weights,
                          obs.enabled(), self.sim_backend, self.memoize,
                          self.static_check),
            )
        return self._pool
