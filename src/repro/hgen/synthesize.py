"""HGEN top level: ISDL description → hardware model + physical estimates.

Runs the full paper §4 pipeline: node extraction, the resource-sharing
matrix, maximal-clique allocation (Fig. 5), datapath construction with
generated decode logic (§4.2), the Verilog module's line count (the text
itself is emitted when read), and the technology-library estimates that
stand in for the Synopsys/LSI-10K flow.  The result carries
everything Table 2 reports: cycle length (ns), lines of Verilog, die size
(grid cells), and synthesis time (s).
"""

from __future__ import annotations

import dataclasses
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from .. import obs
from ..encoding.signature import SignatureTable
from ..isdl import ast
from ..tech.model import TechModel
from .area import AreaReport, estimate_area
from .cliques import clique_partition, verify_cliques
from .datapath import build_datapath
from .netlist import Netlist
from .nodes import HwNode, NodeExtractor, NodeId
from .sharing import SharingAnalysis
from .timing import TimingReport, estimate_timing
from .verilog import emit_verilog, verilog_line_count


@dataclass
class HardwareModel:
    """The output of one HGEN run.

    The Verilog module is not kept: :attr:`verilog` emits it from the
    netlist when read (the ``hgen`` CLI, the examples), and
    :attr:`verilog_lines`, Table 2's line count, is counted from the
    netlist during synthesis, so a model in the artifact cache holds no
    text.
    """

    desc: ast.Description
    netlist: Netlist
    #: non-blank lines of :attr:`verilog` (Table 2's "Lines of Verilog")
    verilog_lines: int
    nodes: List[HwNode]
    cliques: List[List[int]]
    allocation: Optional[Dict[NodeId, int]]
    area: AreaReport
    timing: TimingReport
    synthesis_seconds: float
    shared: bool
    #: Technology the metric properties are projected into (None =
    #: the calibrated baseline process, bit-identical to pre-tech runs).
    tech: Optional[TechModel] = None

    # -- Table 2 metrics -----------------------------------------------

    @property
    def cycle_ns(self) -> float:
        tech = self.tech
        if tech is not None:
            return self.timing.cycle_ns * tech.delay_scale
        return self.timing.cycle_ns

    @property
    def verilog(self) -> str:
        """The synthesizable Verilog module, emitted on every read."""
        return emit_verilog(self.desc, self.netlist)

    @property
    def die_size(self) -> float:
        tech = self.tech
        if tech is not None:
            return self.area.total * tech.area_scale
        return self.area.total

    @property
    def core_die_size(self) -> float:
        """Die size excluding the instruction/data memory macros."""
        tech = self.tech
        if tech is not None:
            return self.area.core_total * tech.area_scale
        return self.area.core_total

    @property
    def clock_mhz(self) -> float:
        return 1000.0 / self.cycle_ns

    def with_tech(self, tech: Optional[TechModel]) -> "HardwareModel":
        """A view of this model projected into *tech* — no re-synthesis.

        The stored netlist, area, and timing reports stay the baseline
        ones (cell counts and logic structure are technology
        independent); only the metric properties scale.  Returns
        ``self`` when *tech* is ``None`` or already bound; re-projecting
        a model bound to a *different* technology is refused — project
        from the baseline model instead, so scale factors never stack.
        """
        bound = self.tech
        if tech is None or tech is bound:
            return self
        if bound is not None:
            raise ValueError(
                f"model already projected into {bound.name};"
                f" re-project from the baseline model, not {tech.name}"
            )
        return dataclasses.replace(self, tech=tech)

    @property
    def shared_unit_count(self) -> int:
        """Physical functional-unit instances after sharing."""
        return len(
            {
                instance
                for instance, sites in self.netlist.unit_instances().items()
                if sites[0].unit_class not in ("glue", "wire")
            }
        )

    def summary(self) -> str:
        return (
            f"{self.desc.name}: cycle {self.cycle_ns:.1f} ns"
            f" ({self.clock_mhz:.0f} MHz), {self.verilog_lines} lines of"
            f" Verilog, die {self.die_size:,.0f} grid cells,"
            f" synthesis {self.synthesis_seconds:.2f} s"
        )


def synthesize(
    desc: ast.Description,
    share: bool = True,
    use_constraints: bool = True,
    table: Optional[SignatureTable] = None,
    tech: Optional[TechModel] = None,
) -> HardwareModel:
    """Run HGEN on a description.

    HGEN trusts *desc* to be valid, as every tool stage does: a
    description is checked where it enters (loading, and the
    :mod:`repro.analyze` gate for exploration candidates).

    *share* toggles the resource-sharing pass (the naive scheme of paper
    §4.1.1 when off); *use_constraints* controls whether constraints may
    prove cross-field exclusion (paper rule 4's refinement).

    *tech* projects the metric properties (cycle, die size, clock) into
    a scaled technology; synthesis itself is technology independent, so
    the default ``tech=None`` is bit-identical to earlier releases and a
    built model can be re-projected cheaply via :meth:`with_tech`.
    """
    with obs.span("hgen.synthesize", desc=desc.name, share=share):
        start = time.perf_counter()
        table = table or SignatureTable(desc)
        extractor = NodeExtractor(desc)
        with obs.span("hgen.nodes"):
            nodes = extractor.extract()
        allocation: Optional[Dict[NodeId, int]] = None
        cliques: List[List[int]] = [[i] for i in range(len(nodes))]
        if share:
            with obs.span("hgen.sharing"):
                with obs.span("hgen.matrix"):
                    adjacency = SharingAnalysis(
                        desc, nodes, use_constraints
                    ).adjacency()
                with obs.span("hgen.cliques"):
                    cliques = clique_partition(adjacency)
                    verify_cliques(adjacency, cliques)
            allocation = {}
            for instance, clique in enumerate(cliques):
                for vertex in clique:
                    allocation[nodes[vertex].node_id] = instance
        with obs.span("hgen.datapath"):
            netlist = build_datapath(desc, table, allocation, extractor)
        with obs.span("hgen.verilog"):
            verilog_lines = verilog_line_count(desc, netlist)
        with obs.span("hgen.estimate"):
            area = estimate_area(desc, netlist)
            timing = estimate_timing(desc, netlist)
        elapsed = time.perf_counter() - start
        obs.add("hgen.syntheses")
    return HardwareModel(
        desc=desc,
        netlist=netlist,
        verilog_lines=verilog_lines,
        nodes=nodes,
        cliques=cliques,
        allocation=allocation,
        area=area,
        timing=timing,
        synthesis_seconds=elapsed,
        shared=share,
        tech=tech,
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Console entry point: ``hgen <description.isdl> [out.v]``."""
    from ..isdl import load_file

    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print("usage: hgen <description.isdl> [out.v]")
        return 2
    desc = load_file(argv[0])
    model = synthesize(desc)
    print(model.summary())
    if len(argv) > 1:
        with open(argv[1], "w", encoding="utf-8") as handle:
            handle.write(model.verilog)
        print(f"wrote {model.verilog_lines} lines to {argv[1]}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
