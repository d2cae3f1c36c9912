"""State monitors (paper Fig. 2, part 3).

Monitors are "a set of hooks that can detect whenever any user-defined
portion of the state changes, and print a diagnostic message to that effect".
A :class:`MonitorSet` holds watches over a storage (optionally one element of
an addressed storage) and invokes their callbacks on every value change.
The default callback formats the paper-style diagnostic line; custom
callbacks let the scheduler implement watch-triggered breakpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

#: callback(storage, index, old, new)
MonitorCallback = Callable[[str, Optional[int], int, int], None]


@dataclass
class Monitor:
    """One watch: *index* None means "any element of the storage"."""

    storage: str
    index: Optional[int]
    callback: MonitorCallback
    label: str = ""
    hits: int = 0
    enabled: bool = True


class MonitorSet:
    """All monitors attached to one simulator's state."""

    def __init__(self) -> None:
        self._monitors: Dict[str, List[Monitor]] = {}
        self.messages: List[str] = []
        #: total callback invocations across all monitors (feeds the
        #: ``sim.monitor_hits`` observability counter)
        self.hits_total: int = 0

    def watch(
        self,
        storage: str,
        index: Optional[int] = None,
        callback: Optional[MonitorCallback] = None,
        label: str = "",
    ) -> Monitor:
        """Attach a monitor; the default callback records a message."""
        if callback is None:
            callback = self._default_callback
        monitor = Monitor(storage, index, callback, label)
        self._monitors.setdefault(storage, []).append(monitor)
        return monitor

    def unwatch(self, monitor: Monitor) -> None:
        watchers = self._monitors.get(monitor.storage, [])
        if monitor in watchers:
            watchers.remove(monitor)

    def clear(self) -> None:
        self._monitors.clear()
        self.messages.clear()
        self.hits_total = 0

    def notify(
        self, storage: str, index: Optional[int], old: int, new: int
    ) -> None:
        """Called by :class:`~repro.gensim.state.State` on every change."""
        for monitor in self._monitors.get(storage, ()):
            if not monitor.enabled:
                continue
            if monitor.index is not None and monitor.index != index:
                continue
            monitor.hits += 1
            self.hits_total += 1
            monitor.callback(storage, index, old, new)

    def _default_callback(
        self, storage: str, index: Optional[int], old: int, new: int
    ) -> None:
        location = storage if index is None else f"{storage}[{index}]"
        self.messages.append(
            f"monitor: {location} changed 0x{old:x} -> 0x{new:x}"
        )
