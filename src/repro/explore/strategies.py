"""Pluggable search strategies for architecture exploration.

A :class:`Strategy` owns *which* candidates get measured and *what*
survives; the :class:`~repro.explore.explorer.Explorer` driver owns the
measuring.  The lifecycle per ``Explorer.explore`` run:

1. ``begin(context)`` — receive the evaluated initial candidate, the
   cost weights, the round budget, a seeded ``random.Random``, and
   ``propose_from`` (the measurement-guided transform generator that
   greedy has always used).
2. Each round, ``propose()`` returns a batch of
   :class:`~repro.explore.parallel.EvalRequest`\\ s.  The driver pushes
   the whole batch through the :class:`ParallelEvaluator` — worker
   pools, the artifact cache, the static gate, and obs profiling apply
   to every strategy identically — and calls ``observe(survivors)``
   with the feasible results in submission order (errors and infeasible
   points go straight to the log).
3. When ``finished`` goes true, ``winner()`` names the trajectory whose
   accepted chain becomes ``ExplorationLog.accepted``.

Tag every request with the trajectory it belongs to
(``EvalRequest(..., tag=...)``) so the log attributes profiles and
cache hits per lineage.

Strategies must be deterministic given (initial description, seed):
propose in a reproducible order and break ties first-wins, so a run is
bit-identical whatever pool mode measures it.  A Strategy instance is
reusable (``begin`` resets it) but must not drive two concurrent
explorations.

The registry maps spelling to implementation: ``get("greedy")``,
``get("pareto", frontier_cap=6)``, or pass an instance through
unchanged.  ``"greedy"`` is the default everywhere and reproduces the
original single-trajectory engine bit-for-bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Type

from ..errors import ExplorationError, ReproError
from ..isdl import ast, fingerprint
from . import transforms
from .explorer import Candidate, ExplorationLog, Trajectory
from .metrics import CostWeights
from .parallel import EvalRequest

__all__ = [
    "Greedy",
    "MultiStart",
    "ParetoFrontier",
    "Population",
    "Strategy",
    "StrategyContext",
    "UnknownStrategyError",
    "available",
    "get",
    "register",
]


class UnknownStrategyError(ExplorationError):
    """Raised for a strategy name or parameters the registry rejects."""


@dataclass
class StrategyContext:
    """Everything a strategy may consult, handed to ``begin``."""

    #: the already-evaluated, feasible starting point
    initial: Candidate
    weights: CostWeights
    #: round budget — one ``propose``/``observe`` exchange per round
    max_iterations: int
    #: measurement-guided proposal generator: incumbent → [(desc, how)]
    propose_from: Callable[[Candidate], List[Tuple[ast.Description, str]]]
    #: seeded PRNG — the only sanctioned randomness source
    rng: random.Random
    log: ExplorationLog


class Strategy:
    """Base lifecycle; subclasses fill in the search policy."""

    #: registry spelling, also recorded on the log
    name = "strategy"

    def begin(self, context: StrategyContext) -> None:
        raise NotImplementedError

    def propose(self) -> List[EvalRequest]:
        raise NotImplementedError

    def observe(self, survivors: List[Candidate]) -> None:
        raise NotImplementedError

    @property
    def finished(self) -> bool:
        raise NotImplementedError

    def winner(self) -> Trajectory:
        """The trajectory whose chain becomes ``log.accepted``."""
        raise NotImplementedError


def _best(candidates: List[Candidate],
          weights: CostWeights) -> Optional[Candidate]:
    """Cheapest candidate, first-wins on ties (strict ``<`` in order)."""
    best: Optional[Candidate] = None
    for candidate in candidates:
        if best is None or candidate.cost(weights) < best.cost(weights):
            best = candidate
    return best


class Greedy(Strategy):
    """The paper's Figure-1 loop: adopt the cheapest feasible proposal,
    stop when nothing beats the incumbent.

    This is the original ``Explorer`` engine extracted unchanged —
    trajectories, iteration counts, and tie-breaks are bit-identical to
    the pre-strategy code.
    """

    name = "greedy"

    def begin(self, context: StrategyContext) -> None:
        self.context = context
        self.trajectory = context.log.trajectory("greedy")
        self.trajectory.accepted.append(context.initial)
        self.incumbent = context.initial
        self.rounds_left = context.max_iterations
        self._done = context.max_iterations <= 0

    def propose(self) -> List[EvalRequest]:
        return [
            EvalRequest(desc, derived_by, tag=self.trajectory.label)
            for desc, derived_by in self.context.propose_from(self.incumbent)
        ]

    def observe(self, survivors: List[Candidate]) -> None:
        self.rounds_left -= 1
        weights = self.context.weights
        best = _best(survivors, weights)
        if best is None or best.cost(weights) >= self.incumbent.cost(weights):
            self._done = True  # converged: the round still counts
            return
        self.incumbent = best
        self.trajectory.accepted.append(best)
        if self.rounds_left <= 0:
            self._done = True

    @property
    def finished(self) -> bool:
        return self._done

    def winner(self) -> Trajectory:
        return self.trajectory


def perturb(desc: ast.Description, rng: random.Random,
            moves: int = 2) -> Optional[Tuple[ast.Description, str]]:
    """Apply *moves* random structural transforms to *desc*.

    The move list is enumerated in deterministic description order, so
    a given (desc, rng state) always perturbs identically.  Moves that
    the transform layer rejects are skipped; returns ``None`` when no
    legal move exists.
    """
    applied: List[str] = []
    current = desc
    for _ in range(max(1, moves)):
        options: List[Tuple[str, Callable[[], ast.Description]]] = []
        for fld in current.fields:
            if len(fld.operations) > 1:
                for op in fld.operations:
                    options.append((
                        f"drop {fld.name}.{op.name}",
                        lambda f=fld.name, o=op.name: transforms.drop_operation(
                            current, f, o),
                    ))
        for storage in current.storages.values():
            if storage.kind in (ast.StorageKind.INSTRUCTION_MEMORY,
                                ast.StorageKind.DATA_MEMORY):
                if (storage.depth or 0) >= 32:
                    options.append((
                        f"halve {storage.name}",
                        lambda s=storage.name, d=storage.depth:
                            transforms.resize_memory(current, s, d // 2),
                    ))
            elif storage.kind is ast.StorageKind.REGISTER_FILE:
                if (storage.depth or 0) >= 4:
                    options.append((
                        "narrow register file",
                        lambda d=storage.depth:
                            transforms.narrow_register_file(current, d // 2),
                    ))
        for fld, op in current.operations():
            if op.costs.stall > 0:
                options.append((
                    f"bypass {fld.name}.{op.name}",
                    lambda f=fld.name, o=op.name, c=op.costs, t=op.timing:
                        transforms.set_operation_timing(
                            current, f, o,
                            costs=ast.Costs(c.cycle, 0, c.size),
                            timing=ast.Timing(1, t.usage),
                            rename=f"{current.name}+byp-{o}"),
                ))
        rng.shuffle(options)
        for label, apply in options:
            try:
                current = apply()
            except ReproError:
                continue
            applied.append(label)
            break
    if not applied:
        return None
    return current, "perturb: " + ", ".join(applied)


class MultiStart(Strategy):
    """Random-restart greedy: *restarts* independent greedy climbs, the
    first from the given initial, the rest from seeded random
    perturbations of it.  The winner is the cheapest endpoint across
    restarts."""

    name = "multistart"

    def __init__(self, restarts: int = 4, perturbations: int = 2):
        if restarts < 1:
            raise ValueError("multistart needs at least one restart")
        self.restarts = restarts
        self.perturbations = perturbations

    def begin(self, context: StrategyContext) -> None:
        self.context = context
        self.trajectories: List[Trajectory] = []
        self.index = -1
        self._done = False
        self._advance()

    def _advance(self) -> None:
        """Open the next restart, or finish."""
        while True:
            self.index += 1
            if self.index >= self.restarts:
                self._done = True
                return
            label = f"restart-{self.index}"
            self.trajectory = self.context.log.trajectory(label)
            self.trajectories.append(self.trajectory)
            if self.index == 0:
                seed: Optional[Tuple[ast.Description, str]] = None
                self.trajectory.accepted.append(self.context.initial)
                self.incumbent: Optional[Candidate] = self.context.initial
                self.rounds_left = self.context.max_iterations
                self.seeding = False
                if self.context.max_iterations <= 0:
                    continue  # no budget: record the start, move on
                return
            seed = perturb(self.context.initial.desc, self.context.rng,
                           self.perturbations)
            if seed is None:
                # nothing perturbable: further restarts would all
                # duplicate restart-0
                self.trajectories.pop()
                self.context.log.trajectories.remove(self.trajectory)
                self._done = True
                return
            self.seed = seed
            self.seeding = True
            self.incumbent = None
            self.rounds_left = self.context.max_iterations
            return

    def propose(self) -> List[EvalRequest]:
        if self.seeding:
            desc, derived_by = self.seed
            return [EvalRequest(desc, derived_by,
                                tag=self.trajectory.label)]
        assert self.incumbent is not None
        return [
            EvalRequest(desc, derived_by, tag=self.trajectory.label)
            for desc, derived_by in self.context.propose_from(self.incumbent)
        ]

    def observe(self, survivors: List[Candidate]) -> None:
        weights = self.context.weights
        if self.seeding:
            self.seeding = False
            start = _best(survivors, weights)
            if start is None:
                self._advance()  # infeasible seed: skip this restart
                return
            self.trajectory.accepted.append(start)
            self.incumbent = start
            return
        assert self.incumbent is not None
        self.rounds_left -= 1
        best = _best(survivors, weights)
        if (best is None
                or best.cost(weights) >= self.incumbent.cost(weights)):
            self._advance()
            return
        self.incumbent = best
        self.trajectory.accepted.append(best)
        if self.rounds_left <= 0:
            self._advance()

    @property
    def finished(self) -> bool:
        return self._done

    def winner(self) -> Trajectory:
        weights = self.context.weights
        best = self.trajectories[0]
        for trajectory in self.trajectories[1:]:
            if not trajectory.accepted:
                continue
            if trajectory.best.cost(weights) < best.best.cost(weights):
                best = trajectory
        return best


class Population(Strategy):
    """(μ+λ) beam search: every survivor proposes, parents and children
    compete, the *size* cheapest distinct designs survive each
    generation."""

    name = "population"

    def __init__(self, size: int = 4):
        if size < 1:
            raise ValueError("population size must be >= 1")
        self.size = size

    def begin(self, context: StrategyContext) -> None:
        self.context = context
        self.trajectory = context.log.trajectory("population")
        self.trajectory.accepted.append(context.initial)
        self.survivors = [context.initial]
        self.seen = {fingerprint(context.initial.desc)}
        self.generations_left = context.max_iterations
        self._done = context.max_iterations <= 0

    def propose(self) -> List[EvalRequest]:
        requests: List[EvalRequest] = []
        batch_seen = set(self.seen)
        for parent in self.survivors:
            for desc, derived_by in self.context.propose_from(parent):
                print_key = fingerprint(desc)
                if print_key in batch_seen:
                    continue
                batch_seen.add(print_key)
                requests.append(
                    EvalRequest(desc, derived_by,
                                tag=self.trajectory.label)
                )
        return requests

    def observe(self, survivors: List[Candidate]) -> None:
        self.generations_left -= 1
        weights = self.context.weights
        for child in survivors:
            self.seen.add(fingerprint(child.desc))
        pool = self.survivors + survivors
        # stable sort: parents outrank equal-cost children, submission
        # order breaks the rest
        pool.sort(key=lambda c: c.cost(weights))
        next_generation = pool[: self.size]
        incumbent = self.trajectory.best
        best = next_generation[0]
        if best.cost(weights) < incumbent.cost(weights):
            self.trajectory.accepted.append(best)
        before = [fingerprint(c.desc) for c in self.survivors]
        after = [fingerprint(c.desc) for c in next_generation]
        self.survivors = next_generation
        if after == before or self.generations_left <= 0:
            self._done = True

    @property
    def finished(self) -> bool:
        return self._done

    def winner(self) -> Trajectory:
        return self.trajectory


class ParetoFrontier(Strategy):
    """Multi-objective search keeping the mutually non-dominated
    archive over (cost, cycle_ns, power_mw, die_size).

    Each round expands the cost-cheapest archive point plus up to
    ``frontier_cap - 1`` other frontier members, round-robin.  Because
    the cost-best point is always expanded with the same proposal
    generator greedy uses, the final frontier contains a point no worse
    in cost than greedy's best under the same round budget.  ``winner``
    is the cost-best chain; the full frontier is
    ``ExplorationLog.frontier()``.
    """

    name = "pareto"

    def __init__(self, frontier_cap: int = 4):
        if frontier_cap < 1:
            raise ValueError("frontier_cap must be >= 1")
        self.frontier_cap = frontier_cap

    def begin(self, context: StrategyContext) -> None:
        self.context = context
        self.trajectory = context.log.trajectory("pareto")
        self.trajectory.accepted.append(context.initial)
        self.archive = [context.initial]
        self.seen = {fingerprint(context.initial.desc)}
        self.rounds_left = context.max_iterations
        self.rotation = 0
        self._done = context.max_iterations <= 0

    def _objectives(self, candidate: Candidate):
        from . import pareto

        return pareto.objectives(candidate.evaluation,
                                 self.context.weights)

    def propose(self) -> List[EvalRequest]:
        weights = self.context.weights
        cheapest = min(range(len(self.archive)),
                       key=lambda i: self.archive[i].cost(weights))
        parents = [self.archive[cheapest]]
        others = [c for i, c in enumerate(self.archive) if i != cheapest]
        if others and self.frontier_cap > 1:
            take = self.frontier_cap - 1
            start = self.rotation % len(others)
            self.rotation += take
            parents.extend(others[(start + k) % len(others)]
                           for k in range(min(take, len(others))))
        requests: List[EvalRequest] = []
        batch_seen = set(self.seen)
        for parent in parents:
            for desc, derived_by in self.context.propose_from(parent):
                print_key = fingerprint(desc)
                if print_key in batch_seen:
                    continue
                batch_seen.add(print_key)
                requests.append(
                    EvalRequest(desc, derived_by,
                                tag=self.trajectory.label)
                )
        return requests

    def observe(self, survivors: List[Candidate]) -> None:
        from . import pareto

        self.rounds_left -= 1
        weights = self.context.weights
        for child in survivors:
            self.seen.add(fingerprint(child.desc))
        before = [fingerprint(c.desc) for c in self.archive]
        self.archive = pareto.frontier(self.archive + survivors,
                                       key=self._objectives)
        after = [fingerprint(c.desc) for c in self.archive]
        incumbent = self.trajectory.best
        best = _best(self.archive, weights)
        if best is not None and best.cost(weights) < incumbent.cost(weights):
            self.trajectory.accepted.append(best)
        if after == before or self.rounds_left <= 0:
            self._done = True

    @property
    def finished(self) -> bool:
        return self._done

    def winner(self) -> Trajectory:
        return self.trajectory


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_REGISTRY: Dict[str, Type[Strategy]] = {}


def register(cls: Type[Strategy]) -> Type[Strategy]:
    """Add a Strategy class to the registry under ``cls.name``."""
    _REGISTRY[cls.name] = cls
    return cls


def available() -> List[str]:
    """Registered strategy names, sorted."""
    return sorted(_REGISTRY)


def get(spec, **params) -> Strategy:
    """Resolve *spec* to a Strategy instance.

    *spec* is either an instance (returned as-is; *params* must then be
    empty) or a registry name constructed with ``**params``.  Unknown
    names and rejected parameters raise :class:`UnknownStrategyError`
    naming the known strategies.
    """
    if isinstance(spec, Strategy):
        if params:
            raise UnknownStrategyError(
                "params apply only when the strategy is given by name,"
                " not as an instance"
            )
        return spec
    known = ", ".join(available())
    if not isinstance(spec, str) or spec not in _REGISTRY:
        raise UnknownStrategyError(
            f"unknown strategy {spec!r}; known strategies: {known}"
        )
    try:
        return _REGISTRY[spec](**params)
    except (TypeError, ValueError) as exc:
        raise UnknownStrategyError(
            f"bad parameters for strategy {spec!r}: {exc};"
            f" known strategies: {known}"
        ) from None


for _cls in (Greedy, MultiStart, Population, ParetoFrontier):
    register(_cls)
