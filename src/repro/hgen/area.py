"""Die-size estimation over the netlist (Table 2, "Die Size (grid cells)").

Functional-unit instances are charged once per sharing allocation (sites
merged into one instance pay a single unit plus input multiplexers), storage
is charged through the register/memory models, decode logic per literal, and
the whole sum gets the wiring-overhead factor of the technology library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

from ..isdl import ast
from . import techlib
from .netlist import Decode, Netlist, PriorityMux


@dataclass
class AreaReport:
    """Breakdown of the estimated die size in grid cells."""

    functional_units: float = 0.0
    sharing_muxes: float = 0.0
    storage: float = 0.0  # registers and register files
    memories: float = 0.0  # instruction/data memory macros
    decode: float = 0.0
    steering: float = 0.0  # priority muxes, glue logic
    pipeline_registers: float = 0.0
    by_unit_class: Dict[str, float] = field(default_factory=dict)

    @property
    def logic_total(self) -> float:
        return (
            self.functional_units
            + self.sharing_muxes
            + self.decode
            + self.steering
            + self.pipeline_registers
        )

    @property
    def core_total(self) -> float:
        """Grid cells excluding memory macros, with wiring overhead."""
        return (self.logic_total + self.storage) * techlib.WIRING_OVERHEAD

    @property
    def total(self) -> float:
        """Total grid cells including memory macros and wiring overhead."""
        return (
            (self.logic_total + self.storage + self.memories)
            * techlib.WIRING_OVERHEAD
        )


def estimate_area(desc: ast.Description, netlist: Netlist) -> AreaReport:
    """Estimate the die size of a synthesized netlist."""
    report = AreaReport()
    _units(netlist, report)
    _storage(desc, netlist, report)
    _decode_and_steering(netlist, report)
    _pipeline_registers(desc, netlist, report)
    return report


def _units(netlist: Netlist, report: AreaReport) -> None:
    for sites in netlist.unit_instances().values():
        first = sites[0]
        width = max(site.width for site in sites)
        if first.unit_class in ("glue", "wire"):
            area_fn = techlib.GLUE_AREA.get(first.op)
            area = area_fn(width) if area_fn else 1.0
            report.steering += area * len(sites)
            continue
        model = techlib.UNIT_MODELS.get(first.unit_class)
        if model is None:
            # Storage-port pseudo classes never appear as Unit cells.
            continue
        unit_area = model.area(width)
        report.functional_units += unit_area
        report.by_unit_class[first.unit_class] = (
            report.by_unit_class.get(first.unit_class, 0.0) + unit_area
        )
        if len(sites) > 1:
            arity = max(len(site.args) for site in sites)
            report.sharing_muxes += (
                (len(sites) - 1)
                * arity
                * techlib.SHARING_MUX_AREA_PER_BIT
                * width
            )


def _storage(desc: ast.Description, netlist: Netlist,
             report: AreaReport) -> None:
    for storage in desc.storages.values():
        info = netlist.storages.get(storage.name)
        read_ports = info.read_ports if info else 1
        write_ports = info.write_ports if info else 1
        if storage.kind in (
            ast.StorageKind.DATA_MEMORY,
            ast.StorageKind.INSTRUCTION_MEMORY,
            ast.StorageKind.MEMORY_MAPPED_IO,
        ):
            report.memories += techlib.memory_area(
                storage.width, storage.depth, read_ports, write_ports
            )
        elif storage.addressed:  # register files, stacks
            report.storage += techlib.register_file_area(
                storage.width, storage.depth, read_ports, write_ports
            )
        else:
            report.storage += techlib.REGISTER_AREA_PER_BIT * storage.width


def _decode_and_steering(netlist: Netlist, report: AreaReport) -> None:
    # the other cell kinds are wiring (Concat, Const, Sext) or charged
    # elsewhere (Unit, RegRead)
    for cell in netlist.cells:
        if isinstance(cell, Decode):
            inverters = sum(1 for _, value in cell.literals if value == 0)
            ands = max(len(cell.literals) - 1, 0)
            if cell.base is not None:
                ands += 1
            report.decode += (inverters * 0.7 + ands) * techlib.DECODE_GATE_AREA
        elif isinstance(cell, PriorityMux):
            width = cell.out.width if cell.out else 1
            report.steering += (
                len(cell.cases) * techlib.SHARING_MUX_AREA_PER_BIT * width
            )
    # Write-port data/index steering: merged write sites share one port
    # through (sites - 1) muxes.
    for storage_ports in netlist.write_port_instances().values():
        for site_count in storage_ports.values():
            if site_count > 1:
                report.steering += (
                    (site_count - 1) * techlib.SHARING_MUX_AREA_PER_BIT * 16
                )


def _pipeline_registers(desc: ast.Description, netlist: Netlist,
                        report: AreaReport) -> None:
    """Latency/pipeline staging registers implied by the timing model.

    A write with delay *d* needs *d* stages of (value + enable [+ index])
    registers; a multi-stage datapath (Cycle + Stall > 1) needs inter-stage
    registers sized by the unit width.
    """
    for write in netlist.writes:
        if write.delay > 0:
            width = write.value.width + 1
            if write.index is not None:
                width += write.index.width
            report.pipeline_registers += (
                write.delay * width * techlib.REGISTER_AREA_PER_BIT
            )
    # one register per instance, sized by its first multi-stage site (the
    # terms are whole numbers, so their order cannot change the sum)
    for sites in netlist.unit_instances().values():
        for site in sites:
            if site.stages > 1:
                report.pipeline_registers += (
                    (site.stages - 1)
                    * site.width
                    * techlib.REGISTER_AREA_PER_BIT
                )
                break
