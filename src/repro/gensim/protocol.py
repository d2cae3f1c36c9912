"""The common simulator surface shared by every backend.

:func:`simulator_for` builds the two cycle-accurate, bit-true engines:
``xsim`` (:class:`~repro.gensim.xsim.XSim`, the reference processing core
over instructions bound at load time; ``interpretive`` names the same
simulator) and ``compiled`` (the program-specialized
:class:`~repro.gensim.compiled.CompiledSimulator`; ``block`` names the
same simulator).  The :class:`Simulator` protocol pins down the surface
they share: load a program, reset, run to completion, examine/set state,
read statistics.  Code written against the protocol runs unchanged on
every backend.

``compiled`` is the engine the measurement pipeline runs by default
(:func:`repro.explore.evaluate`, the sweep's evaluator and the
evaluation service): on the short kernels of a sweep it loads as fast
as ``xsim`` and runs several times faster.  ``xsim`` stays the reference
that the compiled engine is tested against, and the only one with
breakpoints, execution traces and per-write state monitors.
"""

from __future__ import annotations

from typing import Optional, Protocol, Sequence, runtime_checkable

from .stats import SimulationStats

__all__ = ["Simulator", "simulator_for"]


@runtime_checkable
class Simulator(Protocol):
    """Structural interface of a generated simulator.

    ``runtime_checkable`` — ``isinstance(sim, Simulator)`` verifies the
    surface is present, which the test suite uses to keep every backend
    conforming.
    """

    def load_words(self, words: Sequence[int], origin: int = 0):
        """Load raw instruction words (off-line disassembly happens here)."""

    def reset(self) -> None:
        """Reset cycle counts, pending writes and the PC; state persists."""

    def run_to_completion(self, max_steps: int = 1_000_000) -> SimulationStats:
        """Run until the halt flag rises; raise if it never does."""

    def read(self, name: str, index: Optional[int] = None) -> int:
        """Examine a storage element."""

    def write(self, name: str, value: int,
              index: Optional[int] = None) -> None:
        """Set a storage element."""

    @property
    def stats(self) -> SimulationStats:
        """Counters accumulated so far."""
        ...


def simulator_for(desc, backend: str = "xsim", **kwargs) -> "Simulator":
    """Build a simulator for *desc* by backend name.

    ``"xsim"`` or its other name ``"interpretive"`` (the reference core),
    ``"compiled"`` or its other name ``"block"`` (program-specialized
    closures).
    """
    from .compiled import CompiledSimulator
    from .xsim import XSim

    if backend in ("xsim", "interpretive"):
        return XSim(desc, **kwargs)
    if backend in ("compiled", "block"):
        return CompiledSimulator(desc, **kwargs)
    raise ValueError(f"unknown simulator backend {backend!r}")
