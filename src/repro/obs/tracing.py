"""Span tracing for the observability subsystem.

A :class:`Tracer` produces nested spans — one per tool-chain stage — each
carrying wall-clock and CPU time plus free-form attributes.  Finished spans
export two ways:

* :meth:`Tracer.chrome_trace` — the Chrome trace-event JSON format
  (complete ``"ph": "X"`` events), loadable in ``about:tracing`` /
  `Perfetto <https://ui.perfetto.dev>`_;
* :meth:`Tracer.text_profile` — a fixed-width per-stage aggregate for
  terminals and logs.

Spans nest per thread (the active-span stack is thread-local), so a tracer
shared by the evaluation service's worker threads stays coherent: every
span records the thread it ran on, which becomes the ``tid`` of its trace
event.

When a tracer is given a registry (or a zero-argument registry provider),
every finished span also records its duration into the
``stage.<name>`` histogram and its CPU time into the
``stage.<name>.cpu_s`` counter — that is how per-candidate profiles reach
the :class:`~repro.obs.metrics.MetricsSnapshot` that pool workers ship back.

Standard library only; safe to import from any layer.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from .metrics import STAGE_PREFIX, MetricsRegistry

__all__ = ["Span", "SpanRecord", "Tracer", "validate_chrome_trace"]

RegistrySource = Union[
    MetricsRegistry, Callable[[], Optional[MetricsRegistry]], None
]


@dataclass
class SpanRecord:
    """One finished span."""

    name: str
    category: str
    start_us: float  # µs since the tracer's epoch
    dur_us: float  # wall-clock duration, µs
    cpu_us: float  # thread CPU time, µs
    thread_id: int
    depth: int  # nesting depth on its thread (0 = top level)
    attrs: Dict[str, object] = field(default_factory=dict)


class Span:
    """A live span; use as a context manager (via :meth:`Tracer.span`)."""

    __slots__ = ("_tracer", "name", "category", "attrs", "depth",
                 "_start", "_cpu0")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 attrs: Dict[str, object]):
        self._tracer = tracer
        self.name = name
        self.category = category
        self.attrs = attrs
        self.depth = 0
        self._start = 0.0
        self._cpu0 = 0.0

    def set(self, **attrs) -> "Span":
        """Attach attributes to the span; chainable."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        stack = self._tracer._stack()
        self.depth = len(stack)
        stack.append(self)
        self._start = time.perf_counter()
        self._cpu0 = time.thread_time()
        return self

    def __exit__(self, *exc_info) -> bool:
        end = time.perf_counter()
        cpu = time.thread_time()
        stack = self._tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        self._tracer._finish(
            SpanRecord(
                name=self.name,
                category=self.category,
                start_us=(self._start - self._tracer._t0) * 1e6,
                dur_us=(end - self._start) * 1e6,
                cpu_us=(cpu - self._cpu0) * 1e6,
                thread_id=threading.get_ident(),
                depth=self.depth,
                attrs=self.attrs,
            )
        )
        return False


class Tracer:
    """Collects nested spans; exports Chrome trace JSON and text profiles."""

    def __init__(self, registry: RegistrySource = None):
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._records: List[SpanRecord] = []
        self._registry = registry

    # -- span production --------------------------------------------------

    def span(self, name: str, category: str = "toolchain",
             **attrs) -> Span:
        """Open a span; use as ``with tracer.span("hgen.synthesize"): ...``."""
        return Span(self, name, category, attrs)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _finish(self, record: SpanRecord) -> None:
        with self._lock:
            self._records.append(record)
        registry = self._registry
        if callable(registry):
            registry = registry()
        if registry is not None:
            registry.observe(STAGE_PREFIX + record.name,
                             record.dur_us / 1e6)
            registry.add(f"{STAGE_PREFIX}{record.name}.cpu_s",
                         record.cpu_us / 1e6)

    # -- inspection --------------------------------------------------------

    def finished(self) -> List[SpanRecord]:
        """Finished spans, in completion order."""
        with self._lock:
            return list(self._records)

    def stage_names(self) -> List[str]:
        """Distinct span names seen so far, sorted."""
        return sorted({record.name for record in self.finished()})

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    # -- Chrome trace-event export ----------------------------------------

    def chrome_trace(self) -> dict:
        """The finished spans as a Chrome trace-event JSON object."""
        pid = os.getpid()
        events = []
        for record in sorted(self.finished(), key=lambda r: r.start_us):
            args = {str(k): v for k, v in record.attrs.items()}
            args["cpu_ms"] = round(record.cpu_us / 1000.0, 3)
            events.append(
                {
                    "name": record.name,
                    "cat": record.category,
                    "ph": "X",
                    "ts": round(record.start_us, 3),
                    "dur": round(record.dur_us, 3),
                    "pid": pid,
                    "tid": record.thread_id,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> dict:
        """Write :meth:`chrome_trace` to *path*; returns the payload."""
        payload = self.chrome_trace()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, default=str)
            handle.write("\n")
        return payload

    # -- text profile ------------------------------------------------------

    def text_profile(self) -> str:
        """A fixed-width per-stage aggregate of the finished spans."""
        totals: Dict[str, List[float]] = {}
        for record in self.finished():
            row = totals.setdefault(record.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += record.dur_us
            row[2] += record.cpu_us
        header = (
            f"{'span':<28} {'calls':>7} {'wall ms':>11} {'cpu ms':>10}"
            f" {'mean µs':>10}"
        )
        lines = [header, "-" * len(header)]
        for name, (calls, wall, cpu) in sorted(
            totals.items(), key=lambda item: -item[1][1]
        ):
            lines.append(
                f"{name:<28} {int(calls):>7} {wall / 1000:>11.3f}"
                f" {cpu / 1000:>10.3f} {wall / calls:>10.1f}"
            )
        return "\n".join(lines)


def validate_chrome_trace(payload) -> List[str]:
    """Validate a Chrome trace-event payload; return the distinct span names.

    Accepts the object form (``{"traceEvents": [...]}``) or the bare array
    form; raises :class:`ValueError` with a precise message on the first
    schema violation.  Used by the CI smoke job and the obs tests so the
    emitted traces are guaranteed ``about:tracing``-loadable.
    """
    if isinstance(payload, dict):
        events = payload.get("traceEvents")
        if not isinstance(events, list):
            raise ValueError("trace object must carry a 'traceEvents' list")
    elif isinstance(payload, list):
        events = payload
    else:
        raise ValueError(
            f"trace payload must be an object or array, got"
            f" {type(payload).__name__}"
        )
    names = set()
    for position, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"event #{position} is not an object")
        for key, kinds in (
            ("name", str), ("cat", str), ("ph", str),
            ("ts", (int, float)), ("pid", int), ("tid", int),
        ):
            if not isinstance(event.get(key), kinds):
                raise ValueError(
                    f"event #{position} field {key!r} missing or mistyped"
                )
        if event["ph"] == "X":
            if not isinstance(event.get("dur"), (int, float)):
                raise ValueError(
                    f"event #{position}: complete events require 'dur'"
                )
            if event["dur"] < 0 or event["ts"] < 0:
                raise ValueError(
                    f"event #{position}: negative timestamp or duration"
                )
        names.add(event["name"])
    return sorted(names)
