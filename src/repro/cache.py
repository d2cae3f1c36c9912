"""Content-addressed artifact cache for the exploration tool chain.

Every box of the paper's Figure-1 loop regenerates from the single ISDL
description: signature tables, simulation results, assembled workload
binaries, and synthesized hardware models.  During exploration the same
description is evaluated over and over — the incumbent is re-simulated
against new candidates, rejected candidates reappear in later sweeps, and
benchmark reruns repeat whole trajectories.  This module memoizes those
artifacts behind a structural fingerprint (:func:`repro.isdl.fingerprint`)
so repeated work is a dictionary lookup.

Two layers:

* an in-memory LRU (always on) — bounded by ``max_entries``, shared by
  every tool that accepts a ``cache=`` handle;
* an optional on-disk pickle layer (``disk_path=``) for artifacts that
  survive pickling (assembled programs, whole evaluations), which makes
  warm-cache state persistent across processes and runs.

The cache is thread-safe; builders run outside the lock, so two threads
racing on the same key may both build (last store wins) but never corrupt
the table.  All disk I/O is best-effort and safe under concurrent
writers: saves go to a uniquely named temp file (pid + thread + sequence)
and land with an atomic ``os.replace``, so a reader never sees a
half-written pickle; a corrupt or truncated entry is treated as a miss —
counted in ``stats.disk_errors`` and the ``cache.disk_corrupt`` obs
counter, and the bad file is removed so the rebuild overwrites it.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from . import obs
from .isdl.fingerprint import _memoized, fingerprint

__all__ = ["ArtifactCache", "CacheStats", "kernel_fingerprint"]

#: Version of what the on-disk layer's pickles hold and mean, hashed into
#: every disk entry's name.  Bump it with any change that alters a
#: persisted artifact (an evaluation's statistics or power, a program's
#: encoding), so a disk cache written by an older build misses instead of
#: serving its stale results.
DISK_SCHEMA_VERSION = 2


# Identity-keyed memo of kernel digests (see isdl.fingerprint._memoized)
_KERNEL_MEMO: Dict[int, Tuple[Any, str]] = {}


def _kernel_digest(kernel) -> str:
    payload = f"{kernel.name}|{kernel.ops!r}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def kernel_fingerprint(kernel) -> str:
    """Stable digest of an IR kernel (dataclass reprs are deterministic).

    Memoized per kernel object, like :func:`repro.isdl.fingerprint`: a
    kernel's name and ops must not change once it is fingerprinted.
    Callers that edit a kernel in place must treat it as a *new* object
    (build another) or the memo will serve a stale digest.
    """
    return _memoized(_KERNEL_MEMO, kernel, _kernel_digest)


@dataclass
class CacheStats:
    """Hit/miss accounting, total and per artifact kind."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    disk_hits: int = 0
    #: disk entries that existed but failed to load (corrupt/truncated)
    disk_errors: int = 0
    hits_by_kind: Counter = field(default_factory=Counter)
    misses_by_kind: Counter = field(default_factory=Counter)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def report(self) -> str:
        lines = [
            f"cache: {self.hits} hits / {self.misses} misses"
            f" ({self.hit_rate * 100:.1f}% hit rate),"
            f" {self.evictions} evictions, {self.disk_hits} from disk"
            + (f", {self.disk_errors} corrupt disk entr"
               f"{'y' if self.disk_errors == 1 else 'ies'}"
               if self.disk_errors else "")
        ]
        for kind in sorted(set(self.hits_by_kind) | set(self.misses_by_kind)):
            lines.append(
                f"  {kind:12s} {self.hits_by_kind[kind]:5d} hit"
                f" {self.misses_by_kind[kind]:5d} miss"
            )
        return "\n".join(lines)


class ArtifactCache:
    """LRU artifact cache keyed by ``(kind, key)``.

    The generic interface is :meth:`get_or_build`; the typed helpers below
    it encode the key conventions used across the tool chain so callers
    (metrics, the parallel evaluator, benchmarks) agree on what a cache
    entry means.
    """

    #: artifact kinds that survive pickling and may go to the disk layer
    PICKLABLE_KINDS = frozenset({"program", "evaluation", "analysis"})

    def __init__(self, max_entries: int = 512,
                 disk_path: Optional[str] = None):
        self.max_entries = max_entries
        self.disk_path = disk_path
        self.stats = CacheStats()
        self._entries: "OrderedDict[Tuple[str, Hashable], Any]" = OrderedDict()
        self._lock = threading.RLock()
        if disk_path:
            os.makedirs(disk_path, exist_ok=True)

    # ------------------------------------------------------------------
    # Generic interface
    # ------------------------------------------------------------------

    def get_or_build(self, kind: str, key: Hashable,
                     builder: Callable[[], Any]) -> Any:
        """Return the cached artifact for ``(kind, key)`` or build it."""
        full_key = (kind, key)
        with self._lock:
            if full_key in self._entries:
                self._entries.move_to_end(full_key)
                self.stats.hits += 1
                self.stats.hits_by_kind[kind] += 1
                obs.add("cache.hits")
                return self._entries[full_key]
        value, from_disk = self._disk_load(kind, key)
        if not from_disk:
            value = builder()
        with self._lock:
            if from_disk:
                self.stats.hits += 1
                self.stats.hits_by_kind[kind] += 1
                self.stats.disk_hits += 1
                obs.add("cache.hits")
                obs.add("cache.disk_hits")
            else:
                self.stats.misses += 1
                self.stats.misses_by_kind[kind] += 1
                obs.add("cache.misses")
            self._store(full_key, value)
        if not from_disk:
            self._disk_save(kind, key, value)
        return value

    def peek(self, kind: str, key: Hashable) -> Optional[Any]:
        """Non-counting lookup (memory layer only); None on miss."""
        with self._lock:
            return self._entries.get((kind, key))

    def clear(self) -> None:
        """Drop the in-memory layer (disk entries are kept)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _store(self, full_key: Tuple[str, Hashable], value: Any) -> None:
        self._entries[full_key] = value
        self._entries.move_to_end(full_key)
        self.stats.stores += 1
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            obs.add("cache.evictions")

    # ------------------------------------------------------------------
    # Disk layer (best-effort, picklable kinds only)
    # ------------------------------------------------------------------

    #: everything a hostile/truncated pickle can raise at load time
    _DISK_LOAD_ERRORS = (
        OSError, pickle.PickleError, EOFError, AttributeError,
        ImportError, IndexError, ValueError, TypeError,
        MemoryError,
    )

    #: unique temp-file names even for two threads saving the same key
    _tmp_seq = itertools.count()

    def _disk_file(self, kind: str, key: Hashable) -> str:
        digest = hashlib.sha256(
            repr((DISK_SCHEMA_VERSION, kind, key)).encode()
        ).hexdigest()
        return os.path.join(self.disk_path, f"{kind}-{digest[:32]}.pkl")

    def _disk_load(self, kind: str, key: Hashable) -> Tuple[Any, bool]:
        if not self.disk_path or kind not in self.PICKLABLE_KINDS:
            return None, False
        path = self._disk_file(kind, key)
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle), True
        except FileNotFoundError:
            return None, False  # a plain miss, not a corrupt entry
        except self._DISK_LOAD_ERRORS:
            # the entry exists but cannot be loaded (truncated write from
            # a killed process, version skew, bit rot): count it, drop
            # the bad file so the rebuild overwrites it, report a miss
            with self._lock:
                self.stats.disk_errors += 1
            obs.add("cache.disk_corrupt")
            try:
                os.unlink(path)
            except OSError:
                pass
            return None, False

    def _disk_save(self, kind: str, key: Hashable, value: Any) -> None:
        if not self.disk_path or kind not in self.PICKLABLE_KINDS:
            return
        path = self._disk_file(kind, key)
        # temp-file-then-rename keeps the landing atomic; the name is
        # unique per (process, thread, save) so concurrent writers of the
        # same key never clobber each other's half-written temp file
        tmp = (f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
               f".{next(self._tmp_seq)}")
        try:
            with open(tmp, "wb") as handle:
                pickle.dump(value, handle)
            os.replace(tmp, path)
        except (OSError, pickle.PickleError, TypeError):
            try:
                os.unlink(tmp)
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Typed helpers — the key conventions of the tool chain
    # ------------------------------------------------------------------

    def signature_table(self, desc, fp: Optional[str] = None):
        """Memoized :class:`~repro.encoding.signature.SignatureTable`."""
        from .encoding.signature import SignatureTable

        return self.get_or_build(
            "sigtable", fp or fingerprint(desc), lambda: SignatureTable(desc)
        )

    def assembled(self, desc, kernel, builder: Callable[[], Any],
                  fp: Optional[str] = None):
        """Memoized assembled workload binary for (description, kernel)."""
        return self.get_or_build(
            "program", (fp or fingerprint(desc), kernel_fingerprint(kernel)),
            builder,
        )

    def synthesized(self, desc, fp: Optional[str] = None, *,
                    share: bool = True, use_constraints: bool = True,
                    tech=None, table=None):
        """Memoized :func:`repro.hgen.synthesize` hardware model.

        *tech* (a :class:`repro.tech.TechModel`) projects the returned
        model into a scaled technology **after** the cache fetch — the
        synth cache itself stays technology independent, so one stored
        synthesis serves every node/flavor a sweep asks for.

        *table* is the description's signature table, when the caller
        holds one, for a miss to synthesize from.
        """
        from .hgen import synthesize

        model = self.get_or_build(
            "synth", (fp or fingerprint(desc), share, use_constraints),
            lambda: synthesize(desc, share=share,
                               use_constraints=use_constraints, table=table),
        )
        if tech is not None:
            model = model.with_tech(tech)
        return model

    def evaluation(self, key: Hashable, builder: Callable[[], Any]):
        """Memoized whole-candidate evaluation (see explore.metrics)."""
        return self.get_or_build("evaluation", key, builder)

    def analysis(self, desc, builder: Callable[[], Any],
                 fp: Optional[str] = None):
        """Memoized :class:`repro.analyze.AnalysisResult` for a description.

        Keyed by the structural fingerprint alone: the analysis depends on
        nothing but the description, so the explorer's validity gate pays
        one run per distinct candidate and a lookup thereafter.
        """
        return self.get_or_build("analysis", fp or fingerprint(desc), builder)
