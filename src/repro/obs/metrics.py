"""Metric primitives for the observability subsystem.

A :class:`MetricsRegistry` holds named counters, gauges, and fixed-bucket
histograms.  Registries are cheap, thread-safe, and — crucially for the
parallel exploration engine — *snapshotable*: :meth:`MetricsRegistry.snapshot`
produces a plain-data :class:`MetricsSnapshot` that pickles across a process
pool and merges deterministically, so every worker's per-candidate metrics
can be shipped back to the parent and folded into one profile.

Merge semantics:

* counters add,
* histograms add bucket-wise (bucket layouts must agree),
* gauges take the incoming value — merging in submission order therefore
  yields a deterministic result.

Memory model (what the evaluation service's worker threads rely on):

* the registry lock guards only the name → handle maps; every
  :class:`Counter`/:class:`Gauge`/:class:`Histogram` handle carries its
  *own* mutex, so writes to different metrics never contend and an
  increment can never be lost — ``inc``/``add``/``observe`` are
  read-modify-write under the handle lock, not bare ``+=``;
* :meth:`MetricsRegistry.snapshot` is consistent **per handle** (each
  counter value and histogram is internally coherent) but not atomic
  across handles: a snapshot taken mid-flight may show counter A after
  an event and counter B before it.  Derived rates across metrics are
  therefore approximate while writers are running and exact once they
  stop;
* :meth:`MetricsRegistry.merge` folds a snapshot in handle by handle
  under the same per-handle locks, so merging is safe concurrently with
  live writers.

This module depends only on the standard library; every tool-chain layer may
import it without creating a cycle.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramData",
    "MetricsRegistry",
    "MetricsSnapshot",
    "DEFAULT_BUCKETS",
]

#: Default histogram buckets, in seconds — spaced for tool-chain stages that
#: range from sub-millisecond (a cache hit) to tens of seconds (a synthesis).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Prefix under which finished spans record their timing histograms.
STAGE_PREFIX = "stage."


@dataclass
class HistogramData:
    """The plain-data form of one histogram (picklable, mergeable)."""

    buckets: Tuple[float, ...]
    counts: List[int]
    total: float = 0.0
    count: int = 0

    def merge(self, other: "HistogramData") -> None:
        if self.buckets != other.buckets:
            raise ValueError(
                f"cannot merge histograms with different bucket layouts:"
                f" {self.buckets} vs {other.buckets}"
            )
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.total += other.total
        self.count += other.count

    def copy(self) -> "HistogramData":
        return HistogramData(
            self.buckets, list(self.counts), self.total, self.count
        )

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "total": self.total,
            "count": self.count,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HistogramData":
        return cls(
            tuple(data["buckets"]), list(data["counts"]),
            float(data["total"]), int(data["count"]),
        )


class Counter:
    """A monotonically increasing value (float-valued, so it can also
    accumulate seconds).  Each counter owns its mutex, so hot counters
    on different names never serialize against each other."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """A value that can go up and down (pool sizes, queue depths)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def add(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount


class Histogram:
    """A fixed-bucket histogram; bucket *i* counts observations ≤
    ``buckets[i]``, with one overflow bucket at the end."""

    __slots__ = ("name", "buckets", "counts", "total", "count", "_lock")

    def __init__(self, name: str,
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be sorted and non-empty")
        self.name = name
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.total = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.total += value
            self.count += 1
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self.counts[i] += 1
                    return
            self.counts[-1] += 1

    def merge_data(self, data: HistogramData) -> None:
        """Fold plain histogram data in under this handle's lock."""
        if self.buckets != data.buckets:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket layouts"
                f" differ"
            )
        with self._lock:
            self.total += data.total
            self.count += data.count
            for i, n in enumerate(data.counts):
                self.counts[i] += n

    def data(self) -> HistogramData:
        with self._lock:
            return HistogramData(
                self.buckets, list(self.counts), self.total, self.count
            )


@dataclass
class MetricsSnapshot:
    """A frozen, plain-data view of a registry — picklable and mergeable."""

    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, HistogramData] = field(default_factory=dict)

    def merge(self, other: "MetricsSnapshot") -> None:
        """Fold *other* into this snapshot (counters add, gauges take the
        incoming value, histograms add bucket-wise)."""
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0.0) + value
        for name, value in other.gauges.items():
            self.gauges[name] = value
        for name, data in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = data.copy()
            else:
                mine.merge(data)

    @classmethod
    def merged(cls, snapshots: Iterable["MetricsSnapshot"]
               ) -> "MetricsSnapshot":
        result = cls()
        for snapshot in snapshots:
            result.merge(snapshot)
        return result

    def copy(self) -> "MetricsSnapshot":
        return MetricsSnapshot(
            dict(self.counters), dict(self.gauges),
            {name: data.copy() for name, data in self.histograms.items()},
        )

    # -- stage views (what the span instrumentation records) ------------

    def stage_names(self) -> List[str]:
        """Tool-chain stages that recorded timing, sorted by name."""
        prefix = STAGE_PREFIX
        return sorted(
            name[len(prefix):] for name in self.histograms
            if name.startswith(prefix)
        )

    def stage_table(self) -> str:
        """A fixed-width per-stage timing table (calls, total, mean)."""
        header = (
            f"{'stage':<24} {'calls':>7} {'total s':>10} {'mean ms':>10}"
            f" {'cpu s':>9}"
        )
        lines = [header, "-" * len(header)]
        rows = []
        for stage in self.stage_names():
            data = self.histograms[STAGE_PREFIX + stage]
            cpu = self.counters.get(f"{STAGE_PREFIX}{stage}.cpu_s", 0.0)
            rows.append((data.total, stage, data, cpu))
        for _, stage, data, cpu in sorted(rows, reverse=True):
            lines.append(
                f"{stage:<24} {data.count:>7} {data.total:>10.3f}"
                f" {data.mean * 1000:>10.3f} {cpu:>9.3f}"
            )
        return "\n".join(lines)

    def report(self) -> str:
        """A human-readable dump of the counters and gauges.

        Stage timings are left to :meth:`stage_table` (or the tracer's
        span table), so a profile that prints both shows them once.
        """
        lines = []
        plain = {
            name: value for name, value in self.counters.items()
            if not name.startswith(STAGE_PREFIX)
        }
        if plain:
            lines.append("counters:")
            for name in sorted(plain):
                value = plain[name]
                text = f"{value:g}" if value != int(value) else f"{int(value)}"
                lines.append(f"  {name:<32} {text:>12}")
        if self.gauges:
            lines.append("gauges:")
            for name in sorted(self.gauges):
                lines.append(f"  {name:<32} {self.gauges[name]:>12g}")
        return "\n".join(lines) if lines else "(no metrics recorded)"

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: data.to_dict()
                for name, data in self.histograms.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsSnapshot":
        return cls(
            dict(data.get("counters", {})),
            dict(data.get("gauges", {})),
            {
                name: HistogramData.from_dict(hist)
                for name, hist in data.get("histograms", {}).items()
            },
        )


class MetricsRegistry:
    """A thread-safe collection of named counters, gauges, and histograms.

    The registry lock guards only the name → handle maps; recording goes
    through each handle's own lock (see the module docstring for the
    memory model).
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- handle accessors (create on first use) --------------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            handle = self._counters.get(name)
            if handle is None:
                handle = self._counters[name] = Counter(name)
            return handle

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            handle = self._gauges.get(name)
            if handle is None:
                handle = self._gauges[name] = Gauge(name)
            return handle

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        with self._lock:
            handle = self._histograms.get(name)
            if handle is None:
                handle = self._histograms[name] = Histogram(name, buckets)
            return handle

    # -- one-shot conveniences -------------------------------------------

    def add(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).inc(amount)

    def set(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float,
                buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.histogram(name, buckets).observe(value)

    # -- snapshot / merge -------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        # Take the handle maps under the registry lock, then read each
        # handle through its own lock (h.data()).  Scalar counter/gauge
        # reads are single attribute loads, atomic under the GIL.
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return MetricsSnapshot(
            {n: c.value for n, c in counters.items()},
            {n: g.value for n, g in gauges.items()},
            {n: h.data() for n, h in histograms.items()},
        )

    def merge(self, snapshot: Optional[MetricsSnapshot]) -> None:
        """Fold a snapshot (e.g. from a pool worker) into this registry.

        Safe concurrently with live writers: every update goes through
        the target handle's own lock.
        """
        if snapshot is None:
            return
        for name, value in snapshot.counters.items():
            self.counter(name).inc(value)
        for name, value in snapshot.gauges.items():
            self.gauge(name).set(value)
        for name, data in snapshot.histograms.items():
            self.histogram(name, data.buckets).merge_data(data)

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def report(self) -> str:
        return self.snapshot().report()
