"""Human-readable reports for exploration runs."""

from __future__ import annotations

from typing import List, Optional

from ..cache import ArtifactCache
from ..obs import MetricsSnapshot
from .explorer import ExplorationLog
from .metrics import CostWeights, Evaluation


def evaluation_table(evaluations: List[Evaluation],
                     weights: CostWeights) -> str:
    """A fixed-width comparison table of candidate evaluations."""
    header = (
        f"{'architecture':<24} {'cycles':>8} {'ns/cyc':>7} {'µs':>9}"
        f" {'die (cells)':>12} {'mW':>7} {'cost':>12}"
    )
    lines = [header, "-" * len(header)]
    for evaluation in evaluations:
        if not evaluation.feasible:
            lines.append(
                f"{evaluation.name:<24} infeasible: {evaluation.reason}"
            )
            continue
        lines.append(
            f"{evaluation.name:<24} {evaluation.cycles:>8}"
            f" {evaluation.cycle_ns:>7.1f} {evaluation.runtime_us:>9.2f}"
            f" {evaluation.die_size:>12,.0f} {evaluation.power_mw:>7.1f}"
            f" {evaluation.cost(weights):>12.1f}"
        )
    return "\n".join(lines)


def operating_point_table(evaluations: List[Evaluation]) -> str:
    """The operating-point curve of technology-swept evaluations.

    One row per evaluation that carries a technology axis: node/flavor,
    supply voltage, clock, total power, the budget it was solved under,
    and whether the dark-silicon cap bound.  Evaluations without a tech
    axis are skipped; returns an empty string when none qualify.
    """
    rows = []
    for evaluation in evaluations:
        if evaluation.tech_node is None or not evaluation.feasible:
            continue
        vdd = evaluation.vdd
        budget = evaluation.budget_mw
        rows.append((
            evaluation.name,
            f"{evaluation.tech_node}{evaluation.tech_flavor or '?'}",
            f"{vdd:.2f}" if vdd is not None else "-",
            f"{evaluation.clock_mhz:.1f}",
            f"{evaluation.power_mw:.2f}",
            f"{budget:g}" if budget is not None else "-",
            "capped" if evaluation.power_capped else "",
        ))
    if not rows:
        return ""
    header = (
        f"{'architecture':<28} {'tech':>6} {'vdd':>6} {'MHz':>8}"
        f" {'mW':>8} {'budget':>7} {'':<6}"
    )
    lines = ["operating points:", header, "  " + "-" * (len(header) - 2)]
    for name, tech, vdd, mhz, mw, budget, capped in rows:
        lines.append(
            f"{name:<28} {tech:>6} {vdd:>6} {mhz:>8} {mw:>8}"
            f" {budget:>7} {capped:<6}"
        )
    return "\n".join(lines)


def service_metrics_table(snapshot: MetricsSnapshot) -> str:
    """The evaluation-service section of a report: every ``serve.*``
    counter and gauge from *snapshot*, one per line, sorted by name.

    Returns an empty string when the snapshot carries no service
    metrics (e.g. the run never touched :mod:`repro.serve`).
    """
    rows = []
    for name in sorted(snapshot.counters):
        if name.startswith("serve."):
            rows.append((name, snapshot.counters[name]))
    for name in sorted(snapshot.gauges):
        if name.startswith("serve."):
            rows.append((name, snapshot.gauges[name]))
    if not rows:
        return ""
    lines = ["evaluation service:"]
    for name, value in rows:
        text = f"{value:g}" if value != int(value) else f"{int(value)}"
        lines.append(f"  {name:<28} {text:>10}")
    return "\n".join(lines)


def exploration_report(log: ExplorationLog,
                       cache: Optional[ArtifactCache] = None,
                       metrics: Optional[MetricsSnapshot] = None) -> str:
    """The trajectory of one exploration run.

    Pass the run's *cache* to append its hit/miss accounting.  Stage
    timings of a run made with :mod:`repro.obs` enabled are the tracer's
    span table, or ``log.merged_profile().stage_table()`` for the
    candidate measurements alone.  Pass a
    *metrics* snapshot (e.g. ``service.metrics_snapshot()`` from a
    :class:`repro.serve.EvaluationService`) to append the service's
    job accounting — accepted/coalesced/rejected counts and queue
    depth — so batch runs driven through the daemon report the same
    way as in-process ones.
    """
    statically_rejected = sum(1 for r in log.errors if r.diagnostics)
    lines = [
        f"exploration ({log.strategy}): {log.iterations} iteration(s),"
        f" {len(log.accepted) - 1} improvement step(s),"
        f" {len(log.rejected)} infeasible candidate(s),"
        f" {statically_rejected} statically rejected",
        "",
    ]
    for i, candidate in enumerate(log.accepted):
        cost = candidate.cost(log.weights)
        lines.append(
            f"  step {i}: [{candidate.derived_by}]"
            f" cost {cost:,.1f} — {candidate.evaluation.summary()}"
        )
    lines.append("")
    lines.append(
        f"total improvement: {log.improvement:.2f}x cost reduction"
    )
    if len(log.trajectories) > 1:
        lines.append("")
        lines.append(f"trajectories ({len(log.trajectories)}):")
        for trajectory in log.trajectories:
            if not trajectory.accepted:
                lines.append(f"  {trajectory.label:<16} (no feasible start)")
                continue
            best = trajectory.best
            lines.append(
                f"  {trajectory.label:<16} {len(trajectory.accepted) - 1}"
                f" step(s), best cost {best.cost(log.weights):,.1f}"
                f" [{best.derived_by}],"
                f" cache {trajectory.cache_hits} hit(s)"
                f" / {trajectory.cache_misses} miss(es)"
            )
    front = log.frontier()
    if len(front) > 1:
        lines.append("")
        lines.append(f"pareto frontier ({len(front)} point(s),"
                     f" cost/cycle-time/power/area):")
        lines.append(
            evaluation_table([c.evaluation for c in front], log.weights)
        )
    points = operating_point_table([c.evaluation for c in log.evaluated])
    if points:
        lines.append("")
        lines.append(points)
    if cache is not None:
        lines.append("")
        lines.append(cache.stats.report())
    if metrics is not None:
        table = service_metrics_table(metrics)
        if table:
            lines.append("")
            lines.append(table)
    return "\n".join(lines)
