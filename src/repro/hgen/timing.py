"""Cycle-length estimation (Table 2, "Cycle (nsec)").

Static timing over the netlist: every net gets an arrival time, cells add
their technology delay, and the cycle length is the worst register-to-
register path plus setup and clock margin.  Multi-stage operations (paper
§4.1.3: Cycle + Stall stages) divide their functional-unit delay across the
inferred pipeline, so a 2-cycle load does not stretch the clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..isdl import ast
from . import techlib
from .netlist import (
    Concat,
    Const,
    Decode,
    Netlist,
    PriorityMux,
    RegRead,
    Sext,
    Unit,
)


@dataclass
class TimingReport:
    """Critical-path analysis result."""

    critical_path_ns: float
    cycle_ns: float
    critical_net: str = ""
    arrival: Dict[int, float] = field(default_factory=dict, repr=False)


def estimate_timing(desc: ast.Description, netlist: Netlist) -> TimingReport:
    """Compute the critical path and cycle length of a netlist."""
    arrival: Dict[int, float] = {}
    instance_sites: Dict[int, int] = {}
    for instance, sites in netlist.unit_instances().items():
        instance_sites[instance] = len(sites)

    worst = 0.0
    worst_net = ""
    for cell in netlist.cells:
        out = cell.out
        if out is None:
            continue
        base = 0.0  # the latest input arrival
        for net in cell.inputs():
            time = arrival.get(net.uid, 0.0)
            if time > base:
                base = time
        time = base + _cell_delay(desc, cell, instance_sites)
        arrival[out.uid] = time
        if time > worst:
            worst = time
            worst_net = out.name

    # Register-to-register paths end at write ports (value, enable, index)
    # plus setup time.
    for write in netlist.writes:
        ends = [arrival.get(write.value.uid, 0.0),
                arrival.get(write.enable.uid, 0.0)]
        if write.index is not None:
            ends.append(arrival.get(write.index.uid, 0.0))
        path = max(ends) + techlib.REGISTER_SETUP
        if path > worst:
            worst = path
            worst_net = f"write:{write.storage}"
    # The PC increment path.
    if netlist.size_net is not None:
        path = arrival.get(netlist.size_net.uid, 0.0) + 2.0  # small adder
        if path > worst:
            worst = path
            worst_net = "pc_increment"

    return TimingReport(
        critical_path_ns=worst,
        cycle_ns=worst + techlib.CLOCK_MARGIN,
        critical_net=worst_net,
        arrival=arrival,
    )


def _cell_delay(desc: ast.Description, cell, instance_sites) -> float:
    if isinstance(cell, (Const, Concat, Sext)):
        return 0.0
    if isinstance(cell, Decode):
        literals = len(cell.literals) + (1 if cell.base is not None else 0)
        levels = math.ceil(math.log2(max(literals, 2)))
        return 0.35 + levels * techlib.DECODE_DELAY_PER_LEVEL
    if isinstance(cell, PriorityMux):
        return 0.3 + len(cell.cases) * techlib.SHARING_MUX_DELAY_PER_LEVEL
    if isinstance(cell, RegRead):
        storage = desc.storages[cell.storage]
        if not storage.addressed:
            return techlib.REGISTER_CLK_TO_Q
        if storage.kind in (
            ast.StorageKind.DATA_MEMORY,
            ast.StorageKind.INSTRUCTION_MEMORY,
            ast.StorageKind.MEMORY_MAPPED_IO,
        ):
            return techlib.memory_read_delay(storage.depth or 1)
        return techlib.register_file_read_delay(storage.depth or 1)
    if isinstance(cell, Unit):
        if cell.unit_class in ("glue", "wire"):
            return techlib.GLUE_DELAY.get(cell.op, 0.5)
        model = techlib.UNIT_MODELS[cell.unit_class]
        delay = model.delay(max(cell.width, 1))
        # Inferred pipelining spreads the unit across its stages.
        delay /= max(cell.stages, 1)
        sites = instance_sites.get(cell.instance_id, 1)
        if sites > 1:
            levels = math.ceil(math.log2(sites))
            delay += levels * techlib.SHARING_MUX_DELAY_PER_LEVEL
        return delay
    return 0.0
