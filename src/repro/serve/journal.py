"""Durable job journal: accepted work survives a service crash.

The journal is an append-only JSONL file (one JSON object per line)
under the service's data directory recording two event kinds::

    {"event": "admitted", "id": ..., "ts": ..., "payload": {...}}
    {"event": "result",   "id": ..., "ts": ..., "record": {...}}

``admitted`` carries the submission payload verbatim (it arrived as JSON,
so it serializes losslessly); ``record`` is the job's terminal wire
representation (``Job.to_dict``).  On startup :meth:`JobJournal.load`
folds the log: a job with a ``result`` is *terminal* — its record is kept
so clients can still resolve the id — and an ``admitted`` job without one
is *live* and gets re-submitted by the service with its original id, so a
queued or running job survives a SIGKILL mid-evaluation.  Any other
event kind (older builds also wrote ``state`` transitions) is skipped.

Durability model: every append is flushed to the OS but not fsynced, so
a *process* crash loses nothing and a *machine* crash may lose the last
few events.  The admission append runs under the service lock, where a
disk sync per append would serialize admissions.  A truncated final
line — the signature of a kill mid-append — is skipped on load, like the
artifact cache treats a truncated pickle as a miss.

Compaction happens at load time: :meth:`compact` rewrites the file with
only the most recent terminal records (fsynced temp file +
``os.replace``, same recipe as the cache's disk layer), so the journal
stays proportional to the retained history instead of growing with every
job forever.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, Iterable, Optional, TextIO, Tuple

__all__ = ["JobJournal"]


class JobJournal:
    """Append-only JSONL journal of job admissions and results.

    Thread-safe; all I/O is best-effort — a journal write failure never
    fails the job it describes (the in-memory service keeps working, the
    ``dropped`` counter records the gap).
    """

    def __init__(self, path: str, keep_terminal: int = 512):
        self.path = path
        #: terminal records retained across a compaction
        self.keep_terminal = keep_terminal
        #: appends that failed to serialize or reach the file
        self.dropped = 0
        #: lines skipped as corrupt/truncated during the last load
        self.corrupt_lines = 0
        self._lock = threading.Lock()
        self._handle: Optional[TextIO] = None
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def admit(self, job_id: str, payload: Dict[str, Any],
              coalesced_with: Optional[str] = None) -> None:
        event = {"event": "admitted", "id": job_id, "payload": payload}
        if coalesced_with is not None:
            event["coalesced_with"] = coalesced_with
        self._append(event)

    def result(self, job_id: str, record: Dict[str, Any]) -> None:
        self._append({"event": "result", "id": job_id, "record": record})

    def _append(self, event: Dict[str, Any]) -> None:
        event["ts"] = time.time()
        try:
            line = json.dumps(event, sort_keys=True,
                              default=_best_effort_json)
        except (TypeError, ValueError):
            self.dropped += 1
            return
        with self._lock:
            try:
                handle = self._open()
                handle.write(line + "\n")
                handle.flush()
            except OSError:
                self.dropped += 1

    def _open(self) -> TextIO:
        if self._handle is None or self._handle.closed:
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def close(self) -> None:
        with self._lock:
            if self._handle is not None and not self._handle.closed:
                try:
                    self._handle.close()
                except OSError:
                    pass
            self._handle = None

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    def load(self) -> Tuple[Dict[str, Dict[str, Any]],
                            Dict[str, Dict[str, Any]]]:
        """Fold the journal into ``(terminal_records, live_payloads)``.

        Both map job id → dict in file (i.e. admission) order: terminal
        records are the ``record`` of the job's last ``result`` event,
        live payloads the ``payload`` of an ``admitted`` job that never
        reached a result.  Corrupt lines (a truncated final append from a
        killed process) are counted in ``corrupt_lines`` and skipped.
        """
        terminal: Dict[str, Dict[str, Any]] = {}
        live: Dict[str, Dict[str, Any]] = {}
        self.corrupt_lines = 0
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except FileNotFoundError:
            return terminal, live
        except OSError:
            self.corrupt_lines += 1
            return terminal, live
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                self.corrupt_lines += 1
                continue
            if not isinstance(event, dict):
                self.corrupt_lines += 1
                continue
            kind = event.get("event")
            job_id = event.get("id")
            if not isinstance(job_id, str):
                continue
            if kind == "admitted" and isinstance(event.get("payload"),
                                                 dict):
                if job_id not in terminal:
                    live[job_id] = event["payload"]
            elif kind == "result" and isinstance(event.get("record"),
                                                 dict):
                terminal[job_id] = event["record"]
                live.pop(job_id, None)
        return terminal, live

    def compact(self, terminal: Iterable[Dict[str, Any]]) -> None:
        """Rewrite the journal keeping only the newest terminal records.

        Atomic (temp file + ``os.replace``); the append handle is
        reopened so subsequent events land in the compacted file.
        """
        records = list(terminal)[-self.keep_terminal:]
        tmp = f"{self.path}.tmp.{os.getpid()}.{threading.get_ident()}"
        with self._lock:
            try:
                with open(tmp, "w", encoding="utf-8") as handle:
                    for record in records:
                        line = json.dumps(
                            {"event": "result", "id": record.get("id"),
                             "ts": time.time(), "record": record},
                            sort_keys=True, default=_best_effort_json,
                        )
                        handle.write(line + "\n")
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, self.path)
            except OSError:
                self.dropped += 1
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            finally:
                if self._handle is not None and not self._handle.closed:
                    try:
                        self._handle.close()
                    except OSError:
                        pass
                self._handle = None


def _best_effort_json(value: Any) -> Any:
    """Last-resort serializer so an odd payload value (a tuple-keyed
    dict never, but e.g. a Path or Enum) degrades to its repr instead of
    dropping the whole event."""
    return repr(value)
