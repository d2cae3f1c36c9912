"""Parallel, cache-backed candidate evaluation for exploration sweeps.

The Figure-1 loop proposes a batch of candidate descriptions per
iteration and measures each with the full tool chain (compile → assemble
→ simulate → synthesize → cost).  The measurements are independent, so
:class:`ParallelEvaluator` fans them out over a ``concurrent.futures``
pool while keeping the three properties a search loop needs:

* **deterministic ordering** — results come back in submission order, so
  tie-breaking ("first candidate wins at equal cost") matches the serial
  engine bit for bit;
* **failure isolation** — a candidate whose evaluation *raises* (as
  opposed to one that is merely infeasible) is captured as an
  :class:`EvalResult` with ``error`` set; it never aborts the sweep;
* **cache warm-sharing** — the parent-side
  :class:`~repro.cache.ArtifactCache` is consulted before any work is
  dispatched and stores every result, so candidates re-proposed in later
  iterations (or whole re-runs of a sweep) are lookups, whatever pool
  mode produced them first.

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
from typing import List, Optional, Sequence, Tuple

from .. import obs
from ..analyze.diagnostics import Diagnostic
from ..cache import ArtifactCache
from ..codegen.ir import Kernel
from ..isdl import ast, fingerprint
from ..obs.metrics import MetricsSnapshot
from ..tech.model import TechSpec
from .metrics import CostWeights, Evaluation, evaluate, evaluation_key

__all__ = ["EvalRequest", "EvalResult", "ParallelEvaluator"]


@dataclass
class EvalRequest:
    """One candidate description queued for measurement."""

    desc: ast.Description
    derived_by: str = "initial"
    label: Optional[str] = None
    #: the exploration trajectory this measurement belongs to (set by
    #: multi-trajectory strategies; ignored by the evaluator itself)
    tag: Optional[str] = None
    #: the description this candidate was mutated from; purely an
    #: optimization hint — on a cache miss the pipeline reuses the
    #: parent's cached artifacts wherever the fingerprint delta proves
    #: them unchanged (results are identical with or without it)
    parent: Optional[ast.Description] = None
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
    #: for pool workers this is the snapshot shipped back to the parent
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
# worker keeps a private artifact cache for intra-worker reuse.
# ----------------------------------------------------------------------

_WORKER_STATE: dict = {}


def _pool_init(kernels: Sequence[Kernel], max_steps: int,
               weights: Optional[CostWeights],
               obs_enabled: bool = False,
               sim_backend: str = "xsim",
               memoize: bool = True) -> None:
    _WORKER_STATE["kernels"] = list(kernels)
    _WORKER_STATE["max_steps"] = max_steps
    _WORKER_STATE["weights"] = weights
    _WORKER_STATE["cache"] = ArtifactCache(max_entries=128)
    _WORKER_STATE["sim_backend"] = sim_backend
    _WORKER_STATE["memoize"] = memoize
    if obs_enabled:
        obs.enable()


def _pool_evaluate(index: int, desc: ast.Description,
                   label: str,
                   parent: Optional[ast.Description] = None,
                   tech: Optional[TechSpec] = None,
                   ) -> Tuple[int, Optional[Evaluation],
                              Optional[str],
                              Optional[MetricsSnapshot]]:
    error: Optional[str] = None
    evaluation: Optional[Evaluation] = None
    with obs.capture() as cap:
        try:
            evaluation = evaluate(
                desc,
                _WORKER_STATE["kernels"],
                _WORKER_STATE["max_steps"],
                name=label,
                weights=_WORKER_STATE["weights"],
                cache=_WORKER_STATE["cache"],
                sim_backend=_WORKER_STATE.get("sim_backend", "xsim"),
                memoize=_WORKER_STATE.get("memoize", True),
                parent=parent,
                tech=tech,
            )
        except Exception as exc:  # noqa: BLE001 — failure capture is the point
            error = _format_error(exc)
    return index, evaluation, error, cap.snapshot


def _format_error(exc: BaseException) -> str:
    tail = traceback.format_exception_only(type(exc), exc)[-1].strip()
    return tail


class ParallelEvaluator:
    """Evaluate candidate descriptions concurrently behind one cache."""

    def __init__(
        self,
        kernels: Sequence[Kernel],
        *,
        weights: Optional[CostWeights] = None,
        cache: Optional[ArtifactCache] = None,
        max_steps: int = 500_000,
        max_workers: Optional[int] = None,
        mode: str = "auto",
        sim_backend: str = "xsim",
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
                 parent: Optional[ast.Description] = None,
                 tech: Optional[TechSpec] = None) -> Evaluation:
        """Measure a single candidate inline (exceptions propagate)."""
        return evaluate(
            desc, self.kernels, self.max_steps,
            name=label, weights=self.weights, cache=self.cache,
            sim_backend=self.sim_backend, memoize=self.memoize,
            parent=parent, tech=tech if tech is not None else self.tech,
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
        for index, request in enumerate(requests):
            rejected = self._static_probe(index, request)
            if rejected is not None:
                results[index] = rejected
                continue
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

    def _static_probe(self, index: int,
                      request: EvalRequest) -> Optional[EvalResult]:
        """The validity gate: reject a statically invalid candidate before
        any tool-chain work is dispatched for it.

        Returns an error :class:`EvalResult` carrying the diagnostic list
        when the analysis finds error-severity problems, None otherwise.
        A candidate so malformed the analysis itself blows up falls
        through to normal dispatch, which records the failure the
        pre-gate way.
        """
        if not self.static_check:
            return None
        from ..analyze import check_static

        try:
            analysis = check_static(request.desc, cache=self.cache,
                                    parent=request.parent)
        except Exception:  # malformed candidate: let dispatch record it
            return None
        if analysis.ok():
            return None
        errors = analysis.errors
        obs.add("analyze.candidates_rejected")
        first = errors[0]
        more = f" (+{len(errors) - 1} more)" if len(errors) > 1 else ""
        return EvalResult(
            index, request.display_label, request.derived_by,
            error=(
                f"static analysis rejected candidate:"
                f" {first.code}: {first.message}{more}"
            ),
            diagnostics=tuple(analysis.diagnostics),
        )

    def _cache_probe(self, index: int,
                     request: EvalRequest) -> Optional[EvalResult]:
        """Warm-path lookup in the parent cache before dispatching."""
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

    def _evaluate_inline(self, index: int,
                         request: EvalRequest) -> EvalResult:
        label = request.display_label
        evaluation = error = None
        with obs.capture() as cap:
            try:
                evaluation = self.evaluate(request.desc, label,
                                           parent=request.parent,
                                           tech=self._tech_for(request))
            except Exception as exc:  # noqa: BLE001 — failure capture
                error = _format_error(exc)
        if error is not None:
            return EvalResult(index, label, request.derived_by,
                              error=error, obs=cap.snapshot)
        return EvalResult(index, label, request.derived_by,
                          evaluation=evaluation, obs=cap.snapshot)

    def _run_processes(self, jobs, results) -> None:
        try:
            pool = self._ensure_pool()
            futures = []
            for index, request in jobs:
                label = request.display_label
                futures.append(
                    (index, request,
                     pool.submit(_pool_evaluate, index, request.desc,
                                 label, request.parent,
                                 self._tech_for(request)))
                )
        except (BrokenExecutor, OSError, ValueError):
            self.shutdown()
            for index, request in jobs:
                results[index] = self._evaluate_inline(index, request)
            return
        retry_inline: List[Tuple[int, EvalRequest]] = []
        for index, request, future in futures:
            label = request.display_label
            try:
                _, evaluation, error, snapshot = future.result()
            except BrokenExecutor:
                # the pool died (OOM-killed worker, fork failure…): finish
                # the batch inline so the sweep still completes
                retry_inline.append((index, request))
                continue
            except Exception as exc:  # noqa: BLE001 — pickling errors etc.
                results[index] = EvalResult(index, label,
                                            request.derived_by,
                                            error=_format_error(exc))
                continue
            # futures are consumed in submission order, so merging worker
            # snapshots here keeps the parent registry deterministic
            if snapshot is not None:
                obs.merge(snapshot)
            if error is not None:
                results[index] = EvalResult(index, label,
                                            request.derived_by, error=error,
                                            obs=snapshot)
            else:
                evaluation = self._adopt(request, evaluation)
                results[index] = EvalResult(index, label,
                                            request.derived_by,
                                            evaluation=evaluation,
                                            obs=snapshot)
        if retry_inline:
            self.shutdown()
            for index, request in retry_inline:
                results[index] = self._evaluate_inline(index, request)

    def _adopt(self, request: EvalRequest,
               evaluation: Evaluation) -> Evaluation:
        """Store a worker-produced evaluation in the parent cache, so the
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
                          obs.enabled(), self.sim_backend, self.memoize),
            )
        return self._pool
