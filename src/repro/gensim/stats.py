"""Performance measurements and utilization statistics (paper §1, §3).

The ILS exists to "measure performance, verify correctness and evaluate the
suitability of the architecture" — cycle counts plus per-operation and
per-field utilization.  These statistics feed the exploration loop's
improvement heuristics (:mod:`repro.explore`) and the power estimate.

Every backend records how many times each program address executed, and
:meth:`SimulationStats.from_counts` turns those counts and the load-time
decode into the statistics, so they do not depend on which engine ran.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, Sequence

from ..isdl import ast


@dataclass
class SimulationStats:
    """Cycle counts and utilization of one run (or a sum of runs)."""

    cycles: int = 0  # total cycles including stalls
    stall_cycles: int = 0  # cycles attributed to hazards
    instructions: int = 0  # instructions issued
    op_counts: Counter = field(default_factory=Counter)  # (field, op) -> n
    field_busy: Counter = field(default_factory=Counter)  # field -> n

    @classmethod
    def from_counts(cls, desc: ast.Description, decoded: Sequence,
                    counts: Sequence[int], **scalars) -> "SimulationStats":
        """Statistics of a run from its per-address execution counts.

        *decoded* is the program's load-time decode and ``counts[i]`` the
        number of times address ``origin + i`` executed; *scalars* carries
        the driver's own counters (``cycles``, ``stall_cycles``).  A field
        is busy when its operation has an action: explicit NOPs do no work.
        """
        active = {(fld.name, op.name) for fld, op in desc.operations()
                  if op.action}
        op_counts: Counter = Counter()
        field_busy: Counter = Counter()
        for instruction, n in zip(decoded, counts):
            if n:
                for dop in instruction.operations:
                    key = (dop.field, dop.op_name)
                    op_counts[key] += n
                    if key in active:
                        field_busy[dop.field] += n
        return cls(instructions=sum(counts), op_counts=op_counts,
                   field_busy=field_busy, **scalars)

    @classmethod
    def merge(cls, runs: Iterable["SimulationStats"]) -> "SimulationStats":
        """The total of several runs (one per kernel of an evaluation)."""
        total = cls()
        for run in runs:
            total.cycles += run.cycles
            total.stall_cycles += run.stall_cycles
            total.instructions += run.instructions
            total.op_counts.update(run.op_counts)
            total.field_busy.update(run.field_busy)
        return total

    @property
    def base_cycles(self) -> int:
        """Cycles excluding stalls."""
        return self.cycles - self.stall_cycles

    @property
    def cpi(self) -> float:
        """Cycles per instruction."""
        if self.instructions == 0:
            return 0.0
        return self.cycles / self.instructions

    def field_utilization(self, desc: ast.Description) -> Dict[str, float]:
        """Fraction of issued instructions in which each field did work.

        Explicit NOPs (operations with an empty action) do not count as
        work — this is the number the exploration loop uses to find idle
        functional units.
        """
        if self.instructions == 0:
            return {fld.name: 0.0 for fld in desc.fields}
        return {
            fld.name: self.field_busy[fld.name] / self.instructions
            for fld in desc.fields
        }

    def unused_operations(self, desc: ast.Description):
        """Operations never executed in this run — candidates for removal."""
        return [
            (fld.name, op.name)
            for fld, op in desc.operations()
            if self.op_counts[(fld.name, op.name)] == 0
        ]

    def report(self, desc: ast.Description) -> str:
        """A human-readable summary."""
        lines = [
            f"cycles:        {self.cycles}",
            f"  base:        {self.base_cycles}",
            f"  stalls:      {self.stall_cycles}",
            f"instructions:  {self.instructions}",
            f"CPI:           {self.cpi:.3f}",
            "field utilization:",
        ]
        for name, util in self.field_utilization(desc).items():
            lines.append(f"  {name:12s} {util * 100:5.1f}%")
        lines.append("hottest operations:")
        for (field_name, op_name), count in self.op_counts.most_common(8):
            lines.append(f"  {field_name}.{op_name:12s} {count}")
        return "\n".join(lines)


@dataclass(eq=False)
class RunResult(SimulationStats):
    """Statistics of one run plus the reason it stopped.

    :meth:`XSim.run` historically returned the stop reason as a bare
    string; it now returns this — a full :class:`SimulationStats` with the
    reason in :attr:`halt_reason` (``"halted"``, ``"breakpoint"`` or
    ``"max_steps"``).  Inspect ``result.halt_reason`` to branch on the
    stop reason; comparing the result to a bare string is no longer
    supported (the deprecation shim was removed once call sites migrated).
    """

    halt_reason: str = ""

    @classmethod
    def from_stats(cls, stats: SimulationStats,
                   halt_reason: str) -> "RunResult":
        """Wrap *stats* (counters are shared, not copied) with a reason."""
        return cls(halt_reason=halt_reason,
                   **{f.name: getattr(stats, f.name)
                      for f in fields(SimulationStats)})

    def __eq__(self, other):
        if isinstance(other, SimulationStats):
            base = [f.name for f in fields(SimulationStats)]
            if isinstance(other, RunResult) and (
                self.halt_reason != other.halt_reason
            ):
                return False
            return all(
                getattr(self, name) == getattr(other, name)
                for name in base
            )
        return NotImplemented

    __hash__ = None
