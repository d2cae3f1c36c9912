"""Candidate-architecture evaluation (the measurement box of Figure 1).

One evaluation runs the whole methodology for a candidate description:
compile the application kernels with the retargetable compiler, execute them
on the generated ILS (cycle counts + utilization statistics), synthesize the
hardware model with HGEN (cycle length, die size), estimate power from the
observed activity, and fold everything into a scalar cost for the
iterative-improvement search.

When handed a :class:`repro.cache.ArtifactCache`, the pipeline memoizes
every generated artifact by the description's structural fingerprint —
signature tables, assembled workload binaries, simulation results,
synthesized hardware models, and whole evaluations — so re-measuring a
known candidate (the common case inside an exploration sweep) costs a
lookup instead of a tool-chain run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from .. import obs
from ..cache import ArtifactCache, kernel_fingerprint
from ..codegen import Compiler
from ..codegen.ir import Kernel
from ..errors import CodegenError, ReproError
from ..encoding.signature import SignatureTable
from ..gensim.protocol import simulator_for
from ..gensim.stats import SimulationStats
from ..hgen import estimate_power
from ..isdl import ast, fingerprint
from ..tech.model import TechSpec

#: The engine a candidate is simulated on unless its caller names
#: another (see :func:`evaluate`).
DEFAULT_SIM_BACKEND = "compiled"


@dataclass
class CostWeights:
    """Exponents of the weighted-geometric cost function.

    ``cost = runtime^wt · area^wa · power^wp`` — runtime in µs, area in
    grid cells, power in mW.  Embedded targets (paper §1: "low cost and low
    power") weight area and power; a performance target sets them to 0.
    """

    runtime: float = 1.0
    area: float = 0.35
    power: float = 0.25


@dataclass
class Evaluation:
    """Everything measured about one candidate architecture."""

    name: str
    feasible: bool
    reason: str = ""
    cycles: int = 0
    stall_cycles: int = 0
    cycle_ns: float = 0.0
    die_size: float = 0.0
    core_die_size: float = 0.0
    power_mw: float = 0.0
    verilog_lines: int = 0
    synthesis_seconds: float = 0.0
    stats: Optional[SimulationStats] = None
    per_kernel_cycles: Dict[str, int] = field(default_factory=dict)
    weights: Optional[CostWeights] = None
    fingerprint: str = ""
    # Technology axis (None/False on baseline evaluations).
    tech_node: Optional[int] = None
    tech_flavor: Optional[str] = None
    vdd: Optional[float] = None
    budget_mw: Optional[float] = None
    power_capped: bool = False

    @property
    def runtime_us(self) -> float:
        return self.cycles * self.cycle_ns / 1000.0

    @property
    def clock_mhz(self) -> float:
        return 1000.0 / self.cycle_ns if self.cycle_ns else 0.0

    @property
    def tech_spec(self) -> Optional[TechSpec]:
        """The technology this candidate was evaluated in, if any."""
        if self.tech_node is None:
            return None
        return TechSpec(self.tech_node, self.tech_flavor or "HP",
                        self.budget_mw)

    def cost(self, weights: Optional[CostWeights] = None) -> float:
        weights = weights or self.weights or CostWeights()
        if not self.feasible:
            return float("inf")
        return (
            max(self.runtime_us, 1e-9) ** weights.runtime
            * max(self.die_size, 1.0) ** weights.area
            * max(self.power_mw, 1e-6) ** weights.power
        )

    def summary(self) -> str:
        if not self.feasible:
            return f"{self.name}: INFEASIBLE ({self.reason})"
        spec = self.tech_spec
        suffix = ""
        if spec is not None:
            suffix = f" [{spec.suffix()[1:]}"
            if self.power_capped:
                suffix += ", capped"
            suffix += "]"
        return (
            f"{self.name}: {self.cycles} cycles @ {self.cycle_ns:.1f} ns ="
            f" {self.runtime_us:.2f} µs, die {self.die_size:,.0f} cells,"
            f" {self.power_mw:.1f} mW{suffix}"
        )


def evaluation_key(desc: ast.Description, kernels: Sequence[Kernel],
                   max_steps: int, fp: Optional[str] = None, *,
                   sim_backend: str, tech: Optional[TechSpec] = None):
    """The cache key identifying one candidate measurement.

    The technology axis is appended **only when set**, so keys written
    by tech-free runs keep their exact historical shape.
    """
    fp = fp or fingerprint(desc)
    key = (fp, tuple(kernel_fingerprint(k) for k in kernels), max_steps,
           sim_backend)
    if tech is not None:
        key = key + (tech.cache_key,)
    return key


def evaluate(
    desc: ast.Description,
    kernels: Sequence[Kernel],
    max_steps: int = 500_000,
    name: Optional[str] = None,
    *,
    weights: Optional[CostWeights] = None,
    cache: Optional[ArtifactCache] = None,
    sim_backend: str = DEFAULT_SIM_BACKEND,
    memoize: bool = True,
    tech: Optional[TechSpec] = None,
) -> Evaluation:
    """Run the full Figure-1 measurement pipeline on one candidate.

    *tech* (keyword-only, a :class:`repro.tech.TechSpec`) measures the
    candidate in a scaled technology, optionally power-capped to the
    spec's ``budget_mw``.  Cycle *counts* are technology independent and
    stay shared; synthesis is projected (not re-run) and the power model
    re-estimated, with the spec folded into the evaluation cache key.
    ``tech=None`` is bit-identical to earlier releases.

    *weights* (keyword-only) is attached to the result so
    :meth:`Evaluation.cost` can be called without repeating them; *cache*
    (keyword-only) memoizes generated artifacts and whole evaluations by
    structural fingerprint instead of rebuilding them internally.
    *sim_backend* selects the executor (see
    :func:`repro.gensim.simulator_for`): by default ``"compiled"``,
    whose per-instruction closures run a short kernel several times
    faster than ``"xsim"``, the reference interpreter every backend is
    checked against.  Every backend derives its statistics from
    per-address execution counts, so all of them return the same
    :class:`Evaluation` — cycles, utilization, power and cost — and
    differ only in speed; the cache key still names the backend.

    *memoize* (keyword-only) controls only the whole-evaluation memo:
    with ``memoize=False`` the pipeline still shares artifact-level
    caches (signature tables, cores, programs, synthesis) but always
    re-runs the measurement itself — what the evaluation service's
    no-dedup baseline and simulator-noise studies need.

    On a cache miss every artifact is built from *desc* itself: each is
    keyed by the whole fingerprint, never by part of the description.
    """
    label = name or desc.name
    if cache is None:
        with obs.span("explore.evaluate", candidate=label):
            return _evaluate_uncached(desc, kernels, max_steps, label,
                                      weights, sim_backend=sim_backend,
                                      tech=tech)
    with obs.span("explore.evaluate", candidate=label):
        fp = fingerprint(desc)
        if not memoize:
            return _evaluate_uncached(desc, kernels, max_steps, label,
                                      weights, cache=cache, fp=fp,
                                      sim_backend=sim_backend, tech=tech)
        key = evaluation_key(desc, kernels, max_steps, fp,
                             sim_backend=sim_backend, tech=tech)
        evaluation = cache.evaluation(
            key,
            lambda: _evaluate_uncached(desc, kernels, max_steps, label,
                                       weights, cache=cache, fp=fp,
                                       sim_backend=sim_backend, tech=tech),
        )
    # A hit may carry another run's label/weights; normalize without
    # touching the cached instance.
    if evaluation.name != label or evaluation.weights != weights:
        evaluation = replace(evaluation, name=label, weights=weights)
    return evaluation


def _evaluate_uncached(
    desc: ast.Description,
    kernels: Sequence[Kernel],
    max_steps: int,
    label: str,
    weights: Optional[CostWeights],
    *,
    sim_backend: str,
    cache: Optional[ArtifactCache] = None,
    fp: Optional[str] = None,
    tech: Optional[TechSpec] = None,
) -> Evaluation:
    fp = fp or (fingerprint(desc) if cache is not None else "")
    # Resolve the technology up front so an unknown node fails loudly
    # before any tool-chain work; tech_fields stays empty on the
    # baseline path, keeping its Evaluation constructions byte-identical.
    tech_model = tech.model() if tech is not None else None
    tech_fields = {} if tech is None else {
        "tech_node": tech.node_nm,
        "tech_flavor": tech.flavor,
        "budget_mw": tech.budget_mw,
    }
    # 1. Retarget the compiler; an unfit ISA is a legitimate negative result.
    #    The signature table is a pure function of the description, so one
    #    serves the assembler, every simulator and synthesis — with a
    #    cache, the one the static gate already built.
    try:
        table = (cache.signature_table(desc, fp)
                 if cache is not None else SignatureTable(desc))
        compiler = Compiler(desc, table=table)
        if cache is None:
            programs = [
                (kernel.name, compiler.compile_to_words(kernel), None)
                for kernel in kernels
            ]
        else:
            programs = [
                (
                    kernel.name,
                    cache.assembled(
                        desc, kernel,
                        lambda k=kernel: compiler.compile_to_words(k),
                        fp=fp,
                    ),
                    kernel_fingerprint(kernel),
                )
                for kernel in kernels
            ]
    except (CodegenError, ReproError) as exc:
        return Evaluation(label, feasible=False, reason=str(exc),
                          weights=weights, fingerprint=fp, **tech_fields)
    # 2. Simulate every kernel on the generated ILS.
    runs: List[SimulationStats] = []
    per_kernel: Dict[str, int] = {}
    for kernel_name, program, kfp in programs:

        def run_kernel(program=program) -> SimulationStats:
            sim = simulator_for(desc, sim_backend, table=table)
            sim.load_words(program.words, program.origin)
            return sim.run_to_completion(max_steps)

        try:
            if cache is not None:
                stats = cache.get_or_build(
                    "sim", (fp, kfp, max_steps, sim_backend), run_kernel
                )
            else:
                stats = run_kernel()
        except ReproError as exc:
            # e.g. the program no longer fits a shrunken instruction
            # memory, or it fails to halt on this candidate
            return Evaluation(
                label, feasible=False,
                reason=f"kernel {kernel_name!r}: {exc}",
                weights=weights, fingerprint=fp, **tech_fields,
            )
        per_kernel[kernel_name] = stats.cycles
        runs.append(stats)
    merged_stats = SimulationStats.merge(runs)
    # 3. Synthesize the hardware model (projected, not re-run, when a
    #    technology is set — the synth cache stays technology-free).
    if cache is None:
        from ..hgen import synthesize

        model = synthesize(desc, table=table, tech=tech_model)
    else:
        model = cache.synthesized(desc, fp, tech=tech_model, table=table)
    with obs.span("hgen.power"):
        power = estimate_power(
            desc, model.netlist, model.clock_mhz, stats=merged_stats,
            area=model.area, tech=tech_model,
            budget_mw=tech.budget_mw if tech is not None else None,
        )
    cycle_ns = model.cycle_ns
    if power.capped and power.frequency_mhz > 0:
        # dark-silicon capping slows the clock below the timing-closure
        # cycle; runtime must be charged at the operating point's clock
        cycle_ns = 1000.0 / power.frequency_mhz
    if tech is not None:
        tech_fields = dict(tech_fields, vdd=power.vdd,
                           power_capped=power.capped)
    return Evaluation(
        name=label,
        feasible=True,
        cycles=merged_stats.cycles,
        stall_cycles=merged_stats.stall_cycles,
        cycle_ns=cycle_ns,
        die_size=model.die_size,
        core_die_size=model.core_die_size,
        power_mw=power.total_mw,
        verilog_lines=model.verilog_lines,
        synthesis_seconds=model.synthesis_seconds,
        stats=merged_stats,
        per_kernel_cycles=per_kernel,
        weights=weights,
        fingerprint=fp,
        **tech_fields,
    )


#: The deterministic fields of an :class:`Evaluation` (synthesis_seconds
#: is wall-clock and excluded): what a test compares to show two
#: measurements of one candidate agree, across backends or code paths.
_CHECK_FIELDS = (
    "feasible", "reason", "cycles", "stall_cycles", "cycle_ns",
    "die_size", "core_die_size", "power_mw", "verilog_lines",
    "per_kernel_cycles", "tech_node", "tech_flavor", "vdd", "budget_mw",
    "power_capped",
)
