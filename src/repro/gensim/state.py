"""Processor-state emulation for XSIM simulators (paper Fig. 2, part 4).

State generation in GENSIM "is a simple matter of allocating sufficient
memory for each storage element defined in the ISDL description" (paper
§3.3.1); all accesses are routed through the monitors code.  :class:`State`
does exactly that: one Python integer per scalar storage, a list of integers
per addressed storage, every read/write funnelled through a single pair of
methods that resolve aliases, mask to the declared width, check indexes,
and notify the monitor hooks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..encoding.bits import get_bits, mask, set_bits
from ..errors import SimulationError, StateError
from ..isdl import ast
from .monitors import MonitorSet


def out_of_range(name: str, index: int, depth: int):
    """Raise the error every backend reports for an index past a storage."""
    raise StateError(
        f"index {index} out of range for {name!r} (depth {depth})"
    )


def check_fits(desc: ast.Description, origin: int, n_words: int) -> None:
    """Raise unless *n_words* loaded at *origin* fit instruction memory."""
    im = desc.instruction_memory()
    depth = im.depth or 0
    if n_words and origin + n_words > depth:
        raise SimulationError(
            f"program does not fit: address {max(origin, depth)} exceeds"
            f" instruction memory depth {im.depth}"
        )


class State:
    """The architectural state of one simulated processor instance."""

    def __init__(self, desc: ast.Description):
        self.desc = desc
        self.monitors = MonitorSet()
        self._scalars: Dict[str, int] = {}
        self._arrays: Dict[str, List[int]] = {}
        for storage in desc.storages.values():
            if storage.addressed:
                self._arrays[storage.name] = [0] * storage.depth
            else:
                self._scalars[storage.name] = 0

    # ------------------------------------------------------------------
    # Alias resolution
    # ------------------------------------------------------------------

    def _resolve(
        self,
        name: str,
        index: Optional[int],
        hi: Optional[int],
        lo: Optional[int],
    ) -> Tuple[ast.Storage, Optional[int], Optional[int], Optional[int]]:
        """Resolve *name* (storage or alias) to a concrete location."""
        storage = self.desc.storages.get(name)
        if storage is not None:
            return storage, index, hi, lo
        alias = self.desc.aliases.get(name)
        if alias is None:
            raise StateError(f"unknown storage {name!r}")
        storage = self.desc.storages[alias.storage]
        if index is not None:
            raise StateError(f"alias {name!r} cannot be indexed")
        base_index = alias.index if storage.addressed else None
        # A single [n] suffix on a scalar-storage alias selects one bit.
        alias_hi, alias_lo = alias.hi, alias.lo
        if not storage.addressed and alias.index is not None:
            alias_hi = alias_lo = alias.index
        if alias_lo is None:
            alias_lo = alias_hi
        if alias_hi is None:
            return storage, base_index, hi, lo
        if hi is None:
            return storage, base_index, alias_hi, alias_lo
        # Caller range is relative to the alias slice.
        return storage, base_index, alias_lo + hi, alias_lo + lo

    # ------------------------------------------------------------------
    # Reads and writes
    # ------------------------------------------------------------------

    def read(
        self,
        name: str,
        index: Optional[int] = None,
        hi: Optional[int] = None,
        lo: Optional[int] = None,
    ) -> int:
        """Read a state location; returns an unsigned integer."""
        storage, index, hi, lo = self._resolve(name, index, hi, lo)
        raw = self._read_element(storage, index)
        if hi is None:
            return raw
        if lo is None:
            lo = hi
        return get_bits(raw, hi, lo)

    def write(
        self,
        name: str,
        value: int,
        index: Optional[int] = None,
        hi: Optional[int] = None,
        lo: Optional[int] = None,
    ) -> None:
        """Write a state location (masked to the destination width)."""
        storage, index, hi, lo = self._resolve(name, index, hi, lo)
        old = self._read_element(storage, index)
        if hi is None:
            new = value & mask(storage.width)
        else:
            if lo is None:
                lo = hi
            new = set_bits(old, hi, lo, value)
        self._write_element(storage, index, new)
        if new != old:
            self.monitors.notify(storage.name, index, old, new)

    def _read_element(self, storage: ast.Storage, index: Optional[int]) -> int:
        if storage.addressed:
            if index is None:
                raise StateError(
                    f"addressed storage {storage.name!r} read without index"
                )
            array = self._arrays[storage.name]
            if not 0 <= index < len(array):
                out_of_range(storage.name, index, len(array))
            return array[index]
        if index is not None:
            raise StateError(
                f"scalar storage {storage.name!r} read with index"
            )
        return self._scalars[storage.name]

    def _write_element(
        self, storage: ast.Storage, index: Optional[int], value: int
    ) -> None:
        if storage.addressed:
            if index is None:
                raise StateError(
                    f"addressed storage {storage.name!r} written without"
                    " index"
                )
            array = self._arrays[storage.name]
            if not 0 <= index < len(array):
                out_of_range(storage.name, index, len(array))
            array[index] = value
        else:
            if index is not None:
                raise StateError(
                    f"scalar storage {storage.name!r} written with index"
                )
            self._scalars[storage.name] = value

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    @property
    def pc_name(self) -> str:
        return self.desc.program_counter().name

    @property
    def pc(self) -> int:
        return self.read(self.pc_name)

    @pc.setter
    def pc(self, value: int) -> None:
        self.write(self.pc_name, value)

    def dump(self) -> Dict[str, object]:
        """A snapshot of the whole state (for checkpointing and tests)."""
        snapshot: Dict[str, object] = dict(self._scalars)
        for name, array in self._arrays.items():
            snapshot[name] = list(array)
        return snapshot

    def restore(self, snapshot: Dict[str, object]) -> None:
        """Restore a snapshot produced by :meth:`dump` (no notifications)."""
        for name, value in snapshot.items():
            if name in self._arrays:
                self._arrays[name][:] = value  # type: ignore[index]
            else:
                self._scalars[name] = value  # type: ignore[assignment]
