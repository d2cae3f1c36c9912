"""Synthesizable-Verilog emission (paper §4: HGEN's output).

Prints the structural netlist as a Verilog module: storage as ``reg``
declarations, decode lines and datapath cells as continuous assignments,
floating-point macros as black-box instantiations, and write-back (with
latency staging registers and the default PC increment) as clocked always
blocks whose last-assignment-wins ordering reproduces the commit order of
the ILS scheduler.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..isdl import ast
from .netlist import (
    Concat,
    Const,
    Decode,
    Net,
    Netlist,
    PriorityMux,
    RegRead,
    Sext,
    Unit,
    Write,
)

_FP_MACROS = {
    "fadd": "FP_ADD",
    "fsub": "FP_SUB",
    "fmul": "FP_MUL",
    "fdiv": "FP_DIV",
    "fcmp": "FP_CMP",
    "itof": "FP_ITOF",
    "ftoi": "FP_FTOI",
}


def emit_verilog(desc: ast.Description, netlist: Netlist) -> str:
    """Render *netlist* as a synthesizable Verilog module."""
    emitter = _Emitter(desc, netlist)
    return emitter.emit()


def count_lines(verilog: str) -> int:
    """Non-blank line count (the paper's "Lines of Verilog" metric)."""
    return sum(1 for line in verilog.splitlines() if line.strip())


#: cells :class:`_Emitter` writes as one continuous assignment each
_ONE_LINE_CELLS = (Const, Concat, Sext, Decode, PriorityMux, RegRead)


def verilog_line_count(desc: ast.Description, netlist: Netlist) -> int:
    """``count_lines(emit_verilog(desc, netlist))`` without the text.

    Counts the non-blank lines :class:`_Emitter` would write, section by
    section; every line it writes is non-blank except the empty section
    separators.  A change to the emitter's layout must change this count
    with it (the HGEN golden digests pin both).
    """
    lines = 6  # banner comments, module header, ports
    lines += 1 + len(desc.storages)  # state comment, one reg per storage
    lines += 1  # datapath comment
    macros = set()
    for cell in netlist.cells:
        if cell.out is None:
            continue
        if isinstance(cell, Unit):
            if cell.op in _FP_MACROS:
                macros.add(_FP_MACROS[cell.op])
                lines += 2  # output wire and macro instance
            else:
                lines += 1
        elif isinstance(cell, _ONE_LINE_CELLS):
            lines += 1
    lines += 1  # write-back comment
    pc_name = desc.program_counter().name
    targets = set()
    for write in netlist.writes:
        if write.delay > 0:
            # value and enable registers (and index), each declared and
            # shifted once per stage, inside one always block
            registers = 2 if write.index is None else 3
            lines += registers * (1 + write.delay) + 2
        targets.add(write.storage)
        lines += 1  # the guarded commit
    for storage_name in targets:
        # one always block per storage; the PC's also increments it
        lines += 2 + (storage_name == pc_name)
    lines += 1  # endmodule
    lines += 3 * len(macros)  # one black-box stub per macro kind
    return lines


class _Emitter:
    def __init__(self, desc: ast.Description, netlist: Netlist):
        self.desc = desc
        self.netlist = netlist
        self.lines: List[str] = []
        self._macro_kinds: Set[str] = set()
        self._macro_count = 0
        self._instance_sites: Dict[int, int] = {
            instance: len(sites)
            for instance, sites in netlist.unit_instances().items()
        }

    def emit(self) -> str:
        name = _ident(self.desc.name)
        self.lines = [
            f"// Synthesizable model of {self.desc.name!r}",
            "// Generated by HGEN from the ISDL description.",
            f"module {name}_core (",
            "    input  wire clk,",
            "    input  wire reset",
            ");",
            "",
        ]
        self._emit_storage()
        self._emit_cells()
        self._emit_writeback()
        self.lines += ["endmodule", ""]
        self._emit_macro_stubs()
        return "\n".join(self.lines)

    # ------------------------------------------------------------------

    def _emit_storage(self) -> None:
        self.lines.append("  // ---- architectural state ----")
        for storage in self.desc.storages.values():
            rng = f"[{storage.width - 1}:0]" if storage.width > 1 else ""
            if storage.addressed:
                self.lines.append(
                    f"  reg {rng:10s} {_ident(storage.name)}"
                    f" [0:{storage.depth - 1}];"
                )
            else:
                self.lines.append(f"  reg {rng:10s} {_ident(storage.name)};")
        self.lines.append("")

    # ------------------------------------------------------------------

    def _emit_cells(self) -> None:
        self.lines.append("  // ---- decode, operand recovery, datapath ----")
        for cell in self.netlist.cells:
            if cell.out is None:
                continue
            self._emit_cell(cell)
        self.lines.append("")

    def _wire(self, net: Net) -> str:
        rng = f"[{net.width - 1}:0] " if net.width > 1 else ""
        return f"  wire {rng}{_ident(net.name)}"

    def _emit_cell(self, cell) -> None:
        out = cell.out
        if isinstance(cell, Const):
            self.lines.append(
                f"{self._wire(out)} = {out.width}'d{cell.value};"
            )
        elif isinstance(cell, Concat):
            parts = []
            for src, hi, lo, dst_lo in cell.parts:
                slice_text = _slice(src, hi, lo)
                if dst_lo:
                    parts.append(f"({slice_text} << {dst_lo})")
                else:
                    parts.append(slice_text)
            self.lines.append(f"{self._wire(out)} = " + " | ".join(parts) + ";")
        elif isinstance(cell, Sext):
            src = _ident(cell.src.name)
            self.lines.append(
                f"{self._wire(out)} = {src};  // interpreted as signed"
                f" {cell.from_width}-bit"
            )
        elif isinstance(cell, Decode):
            terms = [
                (f"{_ident(cell.word.name)}[{bit}]" if value
                 else f"~{_ident(cell.word.name)}[{bit}]")
                for bit, value in cell.literals
            ]
            if cell.base is not None:
                terms.append(_ident(cell.base.name))
            expr = " & ".join(terms) if terms else "1'b1"
            self.lines.append(f"{self._wire(out)} = {expr};")
        elif isinstance(cell, PriorityMux):
            expr = (
                _ident(cell.default.name) if cell.default is not None
                else f"{out.width}'d0"
            )
            for enable, value in reversed(cell.cases):
                expr = (
                    f"{_ident(enable.name)} ? {_ident(value.name)} : {expr}"
                )
            self.lines.append(f"{self._wire(out)} = {expr};")
        elif isinstance(cell, RegRead):
            base = _ident(cell.storage)
            if cell.index is not None:
                base = f"{base}[{_ident(cell.index.name)}]"
            if cell.hi is not None:
                lo = cell.lo if cell.lo is not None else cell.hi
                base = (
                    f"{base}[{cell.hi}]" if cell.hi == lo
                    else f"{base}[{cell.hi}:{lo}]"
                )
            self.lines.append(f"{self._wire(out)} = {base};")
        elif isinstance(cell, Unit):
            self._emit_unit(cell)

    def _emit_unit(self, cell: Unit) -> None:
        out = cell.out
        args = [_ident(net.name) for net in cell.args]
        sites = self._instance_sites.get(cell.instance_id, 1)
        comment = ""
        if sites > 1:
            comment = f"  // FU inst {cell.instance_id} ({sites} sites merged)"
        op = cell.op
        simple = {
            "+": "{} + {}", "-": "{} - {}", "*": "{} * {}",
            "/": "{} / {}", "%": "{} % {}",
            "&": "{} & {}", "|": "{} | {}", "^": "{} ^ {}",
            "<<": "{} << {}", ">>": "{} >> {}",
            "==": "{} == {}", "!=": "{} != {}",
            "<": "{} < {}", "<=": "{} <= {}",
            ">": "{} > {}", ">=": "{} >= {}",
            "&&": "{} && {}", "||": "{} || {}",
        }
        if op in simple:
            expr = simple[op].format(*args)
        elif op == "neg":
            expr = f"-{args[0]}"
        elif op == "not":
            expr = f"~{args[0]}"
        elif op == "lnot":
            expr = f"!{args[0]}"
        elif op == "mux":
            expr = f"{args[0]} ? {args[1]} : {args[2]}"
        elif op == "bus":
            expr = args[0]
        elif op == "carry":
            width = cell.const_args[2] or cell.width
            expr = (
                f"(({{1'b0, {args[0]}}} + {{1'b0, {args[1]}}}) >> {width})"
                " & 1'b1"
            )
        elif op == "carryc":
            width = cell.const_args[3] or cell.width
            expr = (
                f"(({{1'b0, {args[0]}}} + {{1'b0, {args[1]}}} +"
                f" {args[2]}) >> {width}) & 1'b1"
            )
        elif op == "borrow":
            expr = f"{args[0]} < {args[1]}"
        elif op == "overflow":
            expr = (
                f"($signed({args[0]}) + $signed({args[1]}) >"
                f" $signed({args[0]})) ^ ($signed({args[1]}) > 0)"
            )
        elif op in ("sext", "zext"):
            expr = args[0]
        elif op == "bit":
            expr = f"({args[0]} >> {args[1]}) & 1'b1"
        elif op == "slice":
            expr = f"({args[0]} >> {args[2]})"
        elif op == "abs":
            expr = f"$signed({args[0]}) < 0 ? -{args[0]} : {args[0]}"
        elif op == "min":
            expr = f"{args[0]} < {args[1]} ? {args[0]} : {args[1]}"
        elif op == "max":
            expr = f"{args[0]} > {args[1]} ? {args[0]} : {args[1]}"
        elif op == "fneg":
            expr = f"{args[0]} ^ 32'h8000_0000"
        elif op == "fabs":
            expr = f"{args[0]} & 32'h7fff_ffff"
        elif op in _FP_MACROS:
            self._emit_macro(cell, args)
            return
        else:
            expr = args[0] if args else "1'b0"
        self.lines.append(f"{self._wire(out)} = {expr};{comment}")

    def _emit_macro(self, cell: Unit, args: List[str]) -> None:
        kind = _FP_MACROS[cell.op]
        self._macro_kinds.add(kind)
        self._macro_count += 1
        out = _ident(cell.out.name)
        ports = ", ".join(
            f".i{i}({arg})" for i, arg in enumerate(args)
        )
        rng = f"[{cell.out.width - 1}:0] " if cell.out.width > 1 else ""
        self.lines.append(f"  wire {rng}{out};")
        self.lines.append(
            f"  {kind} u_{kind.lower()}_{self._macro_count}"
            f" ({ports}, .o({out}));"
        )

    # ------------------------------------------------------------------

    def _emit_writeback(self) -> None:
        self.lines.append("  // ---- write-back ----")
        by_storage: Dict[str, List[Write]] = {}
        for write in self.netlist.writes:
            by_storage.setdefault(write.storage, []).append(write)
        # Latency staging registers.
        staged: Dict[int, Tuple[str, str, Optional[str]]] = {}
        for write in self.netlist.writes:
            if write.delay > 0:
                staged[write.seq] = self._emit_staging(write)
        pc_name = self.desc.program_counter().name
        for storage_name, writes in by_storage.items():
            storage = self.desc.storages[storage_name]
            self.lines.append("  always @(posedge clk) begin")
            if storage_name == pc_name:
                size = (
                    _ident(self.netlist.size_net.name)
                    if self.netlist.size_net is not None else "1"
                )
                self.lines.append(
                    f"    {_ident(storage_name)} <="
                    f" {_ident(storage_name)} + {size};"
                )
            for write in sorted(writes, key=lambda w: (w.phase, w.seq)):
                self._emit_write(write, staged.get(write.seq))
            self.lines.append("  end")
        self.lines.append("")

    def _emit_staging(self, write: Write):
        """Delay registers for a latency-L write; returns staged signals."""
        seq = write.seq
        value_w = write.value.width
        en, val, idx = f"wb{seq}_en", f"wb{seq}_val", None
        rng = f"[{value_w - 1}:0] " if value_w > 1 else ""
        decls = [f"  reg {rng}{val}_d{write.delay};",
                 f"  reg {en}_d{write.delay};"]
        if write.index is not None:
            idx = f"wb{seq}_idx"
            iw = write.index.width
            irng = f"[{iw - 1}:0] " if iw > 1 else ""
            decls.append(f"  reg {irng}{idx}_d{write.delay};")
        self.lines.extend(decls)
        self.lines.append("  always @(posedge clk) begin")
        src_en = _ident(write.enable.name)
        src_val = _ident(write.value.name)
        src_idx = _ident(write.index.name) if write.index is not None else None
        for stage in range(1, write.delay + 1):
            dst = f"_d{stage}"
            prev_en, prev_val = src_en, src_val
            if stage > 1:
                prev_en = f"{en}_d{stage - 1}"
                prev_val = f"{val}_d{stage - 1}"
            self.lines.append(f"    {en}{dst} <= {prev_en};")
            self.lines.append(f"    {val}{dst} <= {prev_val};")
            if idx is not None:
                prev_idx = src_idx if stage == 1 else f"{idx}_d{stage - 1}"
                self.lines.append(f"    {idx}{dst} <= {prev_idx};")
        self.lines.append("  end")
        suffix = f"_d{write.delay}"
        return (
            f"{en}{suffix}",
            f"{val}{suffix}",
            f"{idx}{suffix}" if idx is not None else None,
        )

    def _emit_write(self, write: Write, staged) -> None:
        if staged is not None:
            enable, value, index = staged
        else:
            enable = _ident(write.enable.name)
            value = _ident(write.value.name)
            index = (
                _ident(write.index.name) if write.index is not None else None
            )
        target = _ident(write.storage)
        if index is not None:
            target = f"{target}[{index}]"
        if write.hi is not None:
            lo = write.lo if write.lo is not None else write.hi
            bits = (
                f"[{write.hi}]" if write.hi == lo else f"[{write.hi}:{lo}]"
            )
            target = f"{target}{bits}"
        self.lines.append(f"    if ({enable}) {target} <= {value};")

    # ------------------------------------------------------------------

    def _emit_macro_stubs(self) -> None:
        stubs = {
            "FP_ADD": 2, "FP_SUB": 2, "FP_MUL": 2, "FP_DIV": 2,
            "FP_CMP": 2, "FP_ITOF": 2, "FP_FTOI": 2,
        }
        for kind in sorted(self._macro_kinds):
            arity = stubs[kind]
            ports = ", ".join(f"input wire [31:0] i{i}" for i in range(arity))
            self.lines += [
                f"// black-box macro from the technology library",
                f"module {kind} ({ports}, output wire [31:0] o);",
                "endmodule",
                "",
            ]


def _ident(name: str) -> str:
    # most names are already legal: str.isalnum holds iff every character
    # does, the same test the rewrite below applies per character
    stripped = name.replace("_", "")
    if not stripped or stripped.isalnum():
        return name
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def _slice(net: Net, hi: int, lo: int) -> str:
    name = _ident(net.name)
    if hi == lo and net.width == 1:
        return name
    if hi == lo:
        return f"{name}[{hi}]"
    return f"{name}[{hi}:{lo}]"
