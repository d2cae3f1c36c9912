"""The structural netlist produced by HGEN.

The netlist is the "synthesizable Verilog" of the paper in IR form: the
Verilog emitter prints it, the technology-library estimators size and time
it, and the :mod:`repro.vsim` simulator executes it cycle by cycle (the
paper notes "the synthesizable Verilog model is itself a simulator",
footnote 8).

Cells are created in dependency order, so evaluation in creation order is a
valid topological schedule.  Cell outputs are modelled as unbounded Python
integers and masked at the state boundary, mirroring the ILS evaluator —
this keeps the hardware model bit-true against XSIM by construction.

Cell vocabulary
---------------
``Const``, ``Concat`` (assembles a value from instruction-word slices),
``Sext``, ``Unit`` (a shared functional unit with one *member* operation per
merged node), ``PriorityMux``, ``Decode`` (an AND of instruction-word-bit
literals), ``RegRead`` (a storage read port), and ``Write`` (a storage write
port with enable, latency delay and phase).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Net:
    """One signal; ``width`` is the declared hardware width."""

    uid: int
    width: int
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass
class Cell:
    """Base class for netlist cells."""

    out: Optional[Net]

    def inputs(self) -> Sequence[Net]:  # pragma: no cover - overridden
        return ()


@dataclass
class Const(Cell):
    value: int

    def inputs(self):
        return ()


@dataclass
class Concat(Cell):
    """``out[dst_lo + k] = src[src_lo + k]`` for each part."""

    # (source net, src_hi, src_lo, dst_lo)
    parts: List[Tuple[Net, int, int, int]]

    def inputs(self):
        return [p[0] for p in self.parts]


@dataclass
class Sext(Cell):
    """Sign-extend *src* from *from_width* bits (output may be negative)."""

    src: Net
    from_width: int

    def inputs(self):
        return (self.src,)


@dataclass
class Unit(Cell):
    """One functional-unit *site* (an operator in some operation's RTL).

    Sites sharing the same ``instance_id`` are implemented by one physical
    unit: the resource-sharing allocation merged their nodes, and the
    area/timing models charge a single unit plus the input multiplexers
    implied by the number of merged sites.  Evaluation stays per-site (the
    sites are mutually exclusive by construction, so the physical unit
    computes exactly the active site's function each cycle).

    ``op`` is a binary-operator symbol, ``"neg"``/``"not"``/``"lnot"`` for
    unary operators, or an intrinsic name.  ``const_args`` holds constant
    (non-hardware) arguments such as intrinsic widths, aligned with the
    argument list: ``args`` supplies the nets for positions whose
    ``const_args`` entry is None.
    """

    unit_class: str
    width: int
    op: str
    args: Tuple[Net, ...]
    const_args: Tuple[Optional[int], ...]
    enable: Optional[Net]
    instance_id: int
    node_key: str = ""
    stages: int = 1  # pipeline depth of the owning operation (timing model)

    def inputs(self):
        nets = list(self.args)
        if self.enable is not None:
            nets.append(self.enable)
        return nets


@dataclass
class PriorityMux(Cell):
    """First input whose enable is true wins; otherwise *default*."""

    cases: List[Tuple[Net, Net]]  # (enable, value)
    default: Optional[Net]

    def inputs(self):
        nets = []
        for enable, value in self.cases:
            nets.extend((enable, value))
        if self.default is not None:
            nets.append(self.default)
        return nets


@dataclass
class Decode(Cell):
    """A decode line: AND of word-bit literals (paper §4.2)."""

    word: Net
    literals: Tuple[Tuple[int, int], ...]  # (bit position, required value)
    base: Optional[Net] = None  # ANDed in (option lines chain off op lines)

    def inputs(self):
        return (self.word,) if self.base is None else (self.word, self.base)


@dataclass
class RegRead(Cell):
    """A read port on a storage element."""

    storage: str
    index: Optional[Net]  # None for scalar storage
    hi: Optional[int] = None
    lo: Optional[int] = None
    port_id: int = 0  # allocation result: which physical port

    def inputs(self):
        return () if self.index is None else (self.index,)


@dataclass
class Write:
    """A write port: commits when *enable* is true (not a dataflow cell)."""

    storage: str
    index: Optional[Net]
    hi: Optional[int]
    lo: Optional[int]
    value: Net
    enable: Net
    delay: int  # latency - 1 cycles
    phase: int  # 0 = action, 1 = side effect (commit order)
    seq: int  # tie-break: program order within the phase
    port_id: int = 0


class Netlist:
    """The complete structural model of one synthesized processor."""

    def __init__(self, name: str):
        self.name = name
        self.cells: List[Cell] = []
        self.writes: List[Write] = []
        self.nets: List[Net] = []
        self._net_names: Dict[str, int] = {}
        # kept up to date by add / add_write: unit sites by physical
        # instance, and storage -> {port_id: merged sites} per port kind
        self._instances: Dict[int, List[Unit]] = {}
        self._read_ports: Dict[str, Dict[int, int]] = {}
        self._write_ports: Dict[str, Dict[int, int]] = {}
        # filled by the datapath builder:
        self.word_net: Optional[Net] = None
        self.size_net: Optional[Net] = None
        self.storages: Dict[str, "StorageInfo"] = {}

    # ------------------------------------------------------------------

    def new_net(self, width: int, name: str) -> Net:
        count = self._net_names.get(name, 0)
        self._net_names[name] = count + 1
        if count:
            name = f"{name}_{count}"
        net = Net(len(self.nets), width, name)
        self.nets.append(net)
        return net

    def add(self, cell: Cell) -> Net:
        self.cells.append(cell)
        if isinstance(cell, Unit):
            sites = self._instances.get(cell.instance_id)
            if sites is None:
                self._instances[cell.instance_id] = [cell]
            else:
                sites.append(cell)
        elif isinstance(cell, RegRead):
            ports = self._read_ports.get(cell.storage)
            if ports is None:
                ports = self._read_ports[cell.storage] = {}
            ports[cell.port_id] = ports.get(cell.port_id, 0) + 1
        return cell.out

    def add_write(self, write: Write) -> None:
        self.writes.append(write)
        ports = self._write_ports.get(write.storage)
        if ports is None:
            ports = self._write_ports[write.storage] = {}
        ports[write.port_id] = ports.get(write.port_id, 0) + 1

    # ------------------------------------------------------------------

    def const(self, value: int, width: int, name: str = "const") -> Net:
        net = self.new_net(width, name)
        self.add(Const(net, value))
        return net

    def stats(self) -> Dict[str, int]:
        """Cell-kind histogram (for reports and tests)."""
        histogram: Dict[str, int] = {}
        for cell in self.cells:
            key = type(cell).__name__
            if isinstance(cell, Unit):
                key = f"Unit[{cell.unit_class}]"
            histogram[key] = histogram.get(key, 0) + 1
        histogram["Write"] = len(self.writes)
        return histogram

    # The three views below are the netlist's own indexes, kept as cells
    # are added; callers read them and must not modify them.

    def unit_instances(self) -> Dict[int, List["Unit"]]:
        """Unit sites grouped by physical instance (sharing allocation),
        instances in order of their first site."""
        return self._instances

    def read_port_instances(self) -> Dict[str, Dict[int, int]]:
        """storage → {port_id: number of merged read sites}."""
        return self._read_ports

    def write_port_instances(self) -> Dict[str, Dict[int, int]]:
        """storage → {port_id: number of merged write sites}."""
        return self._write_ports


@dataclass
class StorageInfo:
    """Physical storage in the netlist (mirrors the ISDL storage section)."""

    name: str
    kind: str
    width: int
    depth: Optional[int]
    read_ports: int = 1
    write_ports: int = 1
