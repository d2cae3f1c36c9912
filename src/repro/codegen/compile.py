"""The retargetable compiler facade: IR kernel → assembly text.

Pipeline: instruction selection against the classified patterns of the
machine description, constant materialization, branch lowering (flag-based
or register-zero, with a shift-based fallback for signed less-than), linear
scan register allocation, VLIW packing, hazard-free latency padding, and
rendering through the description's own syntax templates.  The output is
ordinary assembly text for :mod:`repro.asm` — the compiler, assembler and
simulator all speak the single ISDL description (paper §4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from .. import obs
from ..encoding.signature import SignatureTable
from ..errors import CodegenError
from ..isdl import ast, rtl
from .ir import (
    BINARY_OPS,
    Cond,
    Imm,
    IrOp,
    Kernel,
    Opcode,
    VReg,
)
from .regalloc import allocate
from .schedule import MachineOp, insert_latency_padding, pack, render_program
from .select import Pattern, TargetIsa, _IR_BINOP, _IR_FP, analyze


@dataclass
class _Lowered:
    """One selected operation with virtual-register operands."""

    pattern: Optional[Pattern]  # None for labels
    binding: Dict[str, object] = field(default_factory=dict)
    label: Optional[str] = None  # label definition or branch target

    def uses(self) -> List[VReg]:
        return [
            v
            for key in ("lhs", "src", "addr", "data", "reg")
            for v in [self.binding.get(key)]
            if isinstance(v, VReg)
        ]

    def defines(self) -> Optional[VReg]:
        dst = self.binding.get("dst")
        return dst if isinstance(dst, VReg) else None


@dataclass
class CompiledProgram:
    """Compiler output: assembly text plus bookkeeping."""

    source: str
    instruction_count: int
    register_mapping: Dict[VReg, int]
    lowered_count: int

    def __str__(self) -> str:
        return self.source


class Compiler:
    """A code generator retargeted from one machine description."""

    def __init__(self, desc: ast.Description,
                 isa: Optional[TargetIsa] = None,
                 table: Optional[SignatureTable] = None):
        """*table* is the description's signature table when the caller
        already has one; the assembler behind :meth:`compile_to_words`
        then shares it instead of building its own."""
        self.desc = desc
        if isa is None:
            with obs.span("codegen.retarget"):
                isa = analyze(desc)
        self.isa = isa
        self.table = table
        self._assembler = None
        self._temp_counter = 1 << 20  # temp vregs above user vregs

    # ------------------------------------------------------------------

    def compile(self, kernel: Kernel, parallelize: bool = True,
                halt: bool = True) -> CompiledProgram:
        """Compile *kernel* to assembly text for this target."""
        with obs.span("codegen.compile", kernel=kernel.name):
            kernel.validate()
            lowered = self._lower(kernel, append_halt=halt)
            mapping = self._allocate(lowered)
            mops = [self._render(item, mapping) for item in lowered]
            entries = pack(self.desc, mops, parallelize)
            entries = insert_latency_padding(entries, self._nop_text())
            source = render_program(entries)
            packets = sum(1 for e in entries if not isinstance(e, str))
            return CompiledProgram(source, packets, mapping, len(lowered))

    def compile_to_words(self, kernel: Kernel, parallelize: bool = True):
        """Compile and assemble in one step."""
        from ..asm import Assembler

        program = self.compile(kernel, parallelize)
        if self._assembler is None:
            self._assembler = Assembler(self.desc, self.table)
        return self._assembler.assemble(
            program.source, filename=f"{kernel.name}.s"
        )

    # ------------------------------------------------------------------
    # Lowering
    # ------------------------------------------------------------------

    def _temp(self) -> VReg:
        self._temp_counter += 1
        return VReg(self._temp_counter)

    def _lower(self, kernel: Kernel, append_halt: bool) -> List[_Lowered]:
        out: List[_Lowered] = []
        for op in kernel.ops:
            self._lower_op(op, out)
        if append_halt and (
            not kernel.ops or kernel.ops[-1].opcode is not Opcode.HALT
        ):
            out.append(_Lowered(self.isa.first("halt")))
        return out

    def _lower_op(self, op: IrOp, out: List[_Lowered]) -> None:
        if op.opcode is Opcode.LABEL:
            out.append(_Lowered(None, label=op.label))
        elif op.opcode is Opcode.LI:
            self._materialize(op.a.value, out, dst=op.dst)
        elif op.opcode is Opcode.MOV:
            src = self._as_vreg(op.a, out)
            out.append(
                _Lowered(self.isa.first("mov"),
                         {"dst": op.dst, "src": src})
            )
        elif op.opcode in BINARY_OPS:
            self._lower_binary(op, out)
        elif op.opcode is Opcode.LOAD:
            addr = self._as_vreg(op.a, out)
            out.append(
                _Lowered(self.isa.first("load"),
                         {"dst": op.dst, "addr": addr})
            )
        elif op.opcode is Opcode.STORE:
            addr = self._as_vreg(op.a, out)
            data = self._as_vreg(op.b, out)
            out.append(
                _Lowered(self.isa.first("store"),
                         {"addr": addr, "data": data})
            )
        elif op.opcode is Opcode.JUMP:
            out.append(_Lowered(self.isa.first("jump"), {}, label=op.label))
        elif op.opcode is Opcode.CBR:
            self._lower_cbr(op, out)
        elif op.opcode is Opcode.HALT:
            out.append(_Lowered(self.isa.first("halt")))
        else:  # pragma: no cover - exhaustive over Opcode
            raise CodegenError(f"cannot lower {op.opcode}")

    # -- constants ---------------------------------------------------------

    def _as_vreg(self, value, out: List[_Lowered]) -> VReg:
        if isinstance(value, VReg):
            return value
        return self._materialize(value.value, out)

    def _materialize(self, value: int, out: List[_Lowered],
                     dst: Optional[VReg] = None) -> VReg:
        """Load an arbitrary constant into a register."""
        li = self.isa.first("li")
        width = li.src_token.width
        dst = dst or self._temp()
        if 0 <= value < (1 << width):
            out.append(_Lowered(li, {"dst": dst, "imm": value}))
            return dst
        # Wide constant: build from chunks with shl/or.
        reg_width = self.desc.storages[self.isa.reg_file].width
        value &= (1 << reg_width) - 1
        chunks: List[int] = []
        remaining = value
        while remaining or not chunks:
            chunks.append(remaining & ((1 << width) - 1))
            remaining >>= width
        chunks.reverse()
        shl = self.isa.first("alu", "<<")
        orp = self.isa.first("alu", "|")
        current = self._temp()
        out.append(_Lowered(li, {"dst": current, "imm": chunks[0]}))
        for chunk in chunks[1:]:
            shifted = self._temp()
            out.append(
                _Lowered(shl, {"dst": shifted, "lhs": current,
                               "src": ("imm", width)})
            )
            merged = self._temp()
            out.append(
                _Lowered(orp, {"dst": merged, "lhs": shifted,
                               "src": ("imm", chunk)})
            )
            current = merged
        out.append(
            _Lowered(self.isa.first("mov"), {"dst": dst, "src": current})
        )
        return dst

    # -- arithmetic ----------------------------------------------------------

    def _lower_binary(self, op: IrOp, out: List[_Lowered]) -> None:
        if op.opcode in _IR_FP:
            pattern = self.isa.first("falu", _IR_FP[op.opcode])
            lhs = self._as_vreg(op.a, out)
            src = self._as_vreg(op.b, out)
            out.append(
                _Lowered(pattern, {"dst": op.dst, "lhs": lhs, "src": src})
            )
            return
        rtl_op = _IR_BINOP[op.opcode]
        pattern = self.isa.first("alu", rtl_op)
        lhs = self._as_vreg(op.a, out)
        src = self._operand(pattern, op.b, out)
        out.append(
            _Lowered(pattern, {"dst": op.dst, "lhs": lhs, "src": src})
        )

    def _operand(self, pattern: Pattern, value, out) -> object:
        """Bind the flexible source operand: immediate mode if possible."""
        if isinstance(value, Imm):
            token = None
            if pattern.src_nt is not None:
                token = pattern.src_nt.imm_token
            elif (
                pattern.src_token is not None
                and pattern.src_token.kind is ast.TokenKind.IMMEDIATE
            ):
                token = pattern.src_token
            if token is not None and value.value in token.valid_values():
                return ("imm", value.value)
            return self._materialize(value.value, out)
        return value

    # -- control flow --------------------------------------------------------

    def _lower_cbr(self, op: IrOp, out: List[_Lowered]) -> None:
        cond = op.cond
        # Preferred route: a compare op plus a flag branch.
        cmps = self.isa.find("cmp")
        if cmps:
            cmp = cmps[0]
            flag, taken = None, 1
            if cond is Cond.EQ and cmp.zero_flag:
                flag, taken = cmp.zero_flag, 1
            elif cond is Cond.NE and cmp.zero_flag:
                flag, taken = cmp.zero_flag, 0
            elif cond is Cond.LT and cmp.neg_flag:
                flag, taken = cmp.neg_flag, 1
            if flag is not None:
                branch = self._flag_branch(flag, taken)
                if branch is not None:
                    lhs = self._as_vreg(op.a, out)
                    src = self._operand(cmp, op.b, out)
                    out.append(
                        _Lowered(cmp, {"lhs": lhs, "src": src})
                    )
                    out.append(_Lowered(branch, {}, label=op.label))
                    return
        # A flag-setting subtract plus a flag branch (targets like SPAM2
        # whose ALU sets ZF as a side effect, with no dedicated compare).
        if cond in (Cond.EQ, Cond.NE, Cond.LT):
            for sub in self.isa.find("alu", "-"):
                flag, taken = None, 1
                if cond is Cond.EQ and sub.zero_flag:
                    flag, taken = sub.zero_flag, 1
                elif cond is Cond.NE and sub.zero_flag:
                    flag, taken = sub.zero_flag, 0
                elif cond is Cond.LT and sub.neg_flag:
                    flag, taken = sub.neg_flag, 1
                if flag is None:
                    continue
                branch = self._flag_branch(flag, taken)
                if branch is None:
                    continue
                lhs = self._as_vreg(op.a, out)
                src = self._operand(sub, op.b, out)
                scratch = self._temp()
                out.append(
                    _Lowered(sub, {"dst": scratch, "lhs": lhs, "src": src})
                )
                out.append(_Lowered(branch, {}, label=op.label))
                return
        # Register-zero branches (possibly after computing a difference).
        reg_cond = {"eq0": Cond.EQ, "ne0": Cond.NE}
        for pattern in self.isa.find("branch_reg"):
            if reg_cond.get(pattern.reg_cond) is not cond:
                continue
            reg = self._difference_or_value(op, out)
            out.append(_Lowered(pattern, {"reg": reg}, label=op.label))
            return
        # Signed less-than via sign-bit extraction + not-equal-zero branch.
        if cond is Cond.LT:
            bnez = [
                p for p in self.isa.find("branch_reg") if p.reg_cond == "ne0"
            ]
            shr = self.isa.find("alu", ">>")
            sub = self.isa.find("alu", "-")
            if bnez and shr and sub:
                lhs = self._as_vreg(op.a, out)
                rhs = self._as_vreg(op.b, out)
                diff = self._temp()
                out.append(
                    _Lowered(sub[0], {"dst": diff, "lhs": lhs, "src": rhs})
                )
                width = self.desc.storages[self.isa.reg_file].width
                sign = self._temp()
                out.append(
                    _Lowered(shr[0], {"dst": sign, "lhs": diff,
                                      "src": ("imm", width - 1)})
                )
                out.append(_Lowered(bnez[0], {"reg": sign}, label=op.label))
                return
        raise CodegenError(
            f"target {self.desc.name!r} cannot implement a"
            f" {cond.value} branch"
        )

    def _difference_or_value(self, op: IrOp, out) -> VReg:
        """RF value that is zero iff a == b."""
        if isinstance(op.b, Imm) and op.b.value == 0:
            return self._as_vreg(op.a, out)
        sub = self.isa.find("alu", "-") or self.isa.find("alu", "^")
        if not sub:
            raise CodegenError(
                f"target {self.desc.name!r} cannot compare registers"
            )
        lhs = self._as_vreg(op.a, out)
        pattern = sub[0]
        src = self._operand(pattern, op.b, out)
        diff = self._temp()
        out.append(_Lowered(pattern, {"dst": diff, "lhs": lhs, "src": src}))
        return diff

    def _flag_branch(self, flag: str, taken: int) -> Optional[Pattern]:
        for pattern in self.isa.find("branch_flag"):
            if pattern.flag == flag and pattern.flag_taken == taken:
                return pattern
        return None

    # ------------------------------------------------------------------
    # Allocation adapter
    # ------------------------------------------------------------------

    def _allocate(self, lowered: List[_Lowered]) -> Dict[VReg, int]:
        pseudo = Kernel(name="lowered")
        for item in lowered:
            if item.pattern is None:
                pseudo.ops.append(IrOp(Opcode.LABEL, label=item.label))
                continue
            uses = item.uses()
            kind = item.pattern.kind
            if kind in ("branch_flag", "branch_reg"):
                pseudo.ops.append(
                    IrOp(
                        Opcode.CBR,
                        a=uses[0] if uses else None,
                        label=item.label,
                        cond=Cond.EQ,
                    )
                )
            elif kind == "jump":
                pseudo.ops.append(IrOp(Opcode.JUMP, label=item.label))
            else:
                pseudo.ops.append(
                    IrOp(
                        Opcode.ADD,
                        dst=item.defines(),
                        a=uses[0] if uses else None,
                        b=uses[1] if len(uses) > 1 else None,
                    )
                )
        return allocate(
            pseudo,
            self.isa.register_count,
            first_register=self.isa.reg_token.lo,
        )

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def _reg_text(self, number: int) -> str:
        return f"{self.isa.reg_token.prefix}{number}"

    def _nop_text(self) -> str:
        nop = self.isa.first("nop")
        op = self.desc.operation(nop.field, nop.op_name)
        return op.syntax or op.name

    def _render(self, item: _Lowered, mapping: Dict[VReg, int]) -> MachineOp:
        if item.pattern is None:
            return MachineOp("", "", "", label=item.label)
        pattern = item.pattern
        op = self.desc.operation(pattern.field, pattern.op_name)
        texts: Dict[str, str] = {}
        reads: set = set()
        writes: set = set()

        def reg_of(vreg: VReg) -> int:
            return mapping[vreg]

        binding = item.binding
        if "dst" in binding:
            number = reg_of(binding["dst"])
            texts[pattern.dst] = self._reg_text(number)
            writes.add(("R", number))
        if "lhs" in binding and pattern.lhs:
            number = reg_of(binding["lhs"])
            texts[pattern.lhs] = self._reg_text(number)
            reads.add(("R", number))
        if "addr" in binding and pattern.addr:
            number = reg_of(binding["addr"])
            texts[pattern.addr] = self._reg_text(number)
            reads.add(("R", number))
        if "data" in binding and pattern.data:
            number = reg_of(binding["data"])
            texts[pattern.data] = self._reg_text(number)
            reads.add(("R", number))
        if "reg" in binding and pattern.lhs:
            number = reg_of(binding["reg"])
            texts[pattern.lhs] = self._reg_text(number)
            reads.add(("R", number))
        if "imm" in binding:
            texts[pattern.src] = str(binding["imm"])
        if "src" in binding:
            texts[pattern.src] = self._src_text(
                pattern, binding["src"], mapping, reads
            )
        if pattern.target is not None:
            texts[pattern.target] = (
                f"{item.label} - ." if pattern.relative else item.label
            )
        # Flag and memory effects for scheduling.
        if pattern.kind == "load":
            reads.add("__MEM__")
        if pattern.kind == "store":
            writes.add("__MEM__")
        if pattern.kind == "branch_flag":
            reads.add(("F", pattern.flag))
        for flag in rtl.storages_written(op.side_effect):
            writes.add(("F", flag))
        if pattern.kind == "cmp":
            for flag in (pattern.zero_flag, pattern.neg_flag):
                if flag:
                    writes.add(("F", flag))
        text = self._fill_template(op, texts)
        return MachineOp(
            pattern.field,
            pattern.op_name,
            text,
            reads=reads,
            writes=writes,
            latency=pattern.latency,
            is_branch=pattern.kind in ("branch_flag", "branch_reg", "jump"),
        )

    def _src_text(self, pattern: Pattern, value, mapping, reads) -> str:
        if isinstance(value, tuple) and value[0] == "imm":
            imm_value = value[1]
            if pattern.src_nt is not None:
                nt = self.desc.nonterminals[pattern.src_nt.nt_name]
                option = nt.option(pattern.src_nt.imm_label)
                template = option.syntax or f"%{pattern.src_nt.imm_param}"
                return template.replace(
                    f"%{pattern.src_nt.imm_param}", str(imm_value)
                )
            return str(imm_value)
        number = mapping[value]
        reads.add(("R", number))
        reg_text = self._reg_text(number)
        if pattern.src_nt is not None:
            nt = self.desc.nonterminals[pattern.src_nt.nt_name]
            option = nt.option(pattern.src_nt.reg_label)
            template = option.syntax or f"%{pattern.src_nt.reg_param}"
            return template.replace(
                f"%{pattern.src_nt.reg_param}", reg_text
            )
        return reg_text

    def _fill_template(self, op: ast.Operation, texts: Dict[str, str]) -> str:
        template = op.syntax or ast.default_syntax(op.name, op.params)
        for name in sorted(texts, key=len, reverse=True):
            template = template.replace(f"%{name}", texts[name])
        return template


def compile_kernel(desc: ast.Description, kernel: Kernel,
                   parallelize: bool = True) -> CompiledProgram:
    """One-shot convenience wrapper."""
    return Compiler(desc).compile(kernel, parallelize)
