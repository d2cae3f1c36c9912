"""The HGEN datapath builder: ISDL → structural netlist (paper §4).

Compiles the whole description into a :class:`~repro.hgen.netlist.Netlist`:

* one decode line per operation (paper §4.2), chained into option-match
  lines for non-terminal parameters;
* parameter-value recovery as pure wiring (``Concat`` of instruction-word
  slices, plus sign extension for signed tokens) — the hardware twin of
  the disassembler's ``extract``;
* one functional-unit *site* per RTL operator, tagged with the physical
  instance chosen by the resource-sharing allocation (sites walk the same
  paths as :mod:`repro.hgen.nodes`, so the allocation maps 1:1);
* write ports with enables derived from decode lines and ``if`` conditions,
  phase-tagged so side effects commit after actions, and delay-tagged from
  the ISDL latency.

With ``allocation=None`` every site gets its own instance — the "naive
scheme" of paper §4.1.1, used as the ablation baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..encoding.signature import Signature, SignatureTable
from ..errors import SynthesisError
from ..isdl import ast, rtl
from ..isdl.intrinsics import INTRINSICS
from .decode import decode_line
from .nodes import _BINOP_CLASS, NodeExtractor, NodeId
from .netlist import (
    Concat,
    Const,
    Decode,
    Net,
    Netlist,
    PriorityMux,
    RegRead,
    Sext,
    StorageInfo,
    Unit,
    Write,
)

#: instance ids below this come from the sharing allocation; above are glue.
_FRESH_BASE = 1_000_000


@dataclass
class _NtBinding:
    """A non-terminal parameter compiled into hardware."""

    nt: ast.NonTerminal
    raw: Net  # the NT return-value bits recovered from the word
    value: Optional[Net]  # the $$ value (None until options compiled)
    option_lines: Dict[str, Net]
    option_ctxs: Dict[str, "_Ctx"]


@dataclass
class _Ctx:
    """One activation context: an operation or a non-terminal option."""

    owner: Tuple
    enable: Net
    word: Net  # bit source for this context's signature
    signature: Signature
    params: Dict[str, object]  # name -> Net (token) or _NtBinding
    widths: Dict[str, int]
    delay: int  # latency - 1 for writes issued here
    stages: int = 1  # inferred datapath pipeline depth (Cycle + Stall)
    #: ``str(NodeId(owner, path))`` up to the path: ``"<owner>:"``
    key_prefix: str = field(init=False)

    def __post_init__(self):
        self.key_prefix = ".".join(map(str, self.owner)) + ":"


class DatapathBuilder:
    """Builds the netlist for one description."""

    def __init__(
        self,
        desc: ast.Description,
        table: Optional[SignatureTable] = None,
        allocation: Optional[Dict[NodeId, int]] = None,
        extractor: Optional[NodeExtractor] = None,
    ):
        """*extractor* is the one that found the nodes of *allocation*,
        when the caller has it: its parameter widths are then shared."""
        self.desc = desc
        self.table = table or SignatureTable(desc)
        # the allocation keyed by (owner, path), as the builder walks it
        self._instances: Dict[Tuple[Tuple, Tuple], int] = {
            (node_id.owner, node_id.path): instance
            for node_id, instance in (allocation or {}).items()
        }
        self.extractor = extractor or NodeExtractor(desc)
        self.netlist = Netlist(desc.name)
        self._fresh_instance = _FRESH_BASE
        self._fresh_port: Dict[str, int] = {}
        self._seq = 0
        self._const_cache: Dict[Tuple[int, int], Net] = {}

    # ------------------------------------------------------------------
    # Small helpers
    # ------------------------------------------------------------------

    def _fresh(self) -> int:
        self._fresh_instance += 1
        return self._fresh_instance

    def _fresh_port_id(self, storage: str) -> int:
        port = self._fresh_port.get(storage, _FRESH_BASE)
        self._fresh_port[storage] = port + 1
        return port

    def _const(self, value: int, width: int) -> Net:
        key = (value, width)
        net = self._const_cache.get(key)
        if net is None:
            net = self.netlist.const(value, width, f"k{value}")
            self._const_cache[key] = net
        return net

    def _glue(self, op: str, args: Tuple[Net, ...], width: int,
              name: str) -> Net:
        out = self.netlist.new_net(width, name)
        self.netlist.add(
            Unit(
                out,
                unit_class="glue",
                width=width,
                op=op,
                args=args,
                const_args=(None,) * len(args),
                enable=None,
                instance_id=self._fresh(),
            )
        )
        return out

    def _and(self, a: Net, b: Net) -> Net:
        return self._glue("&&", (a, b), 1, "en")

    def _not(self, a: Net) -> Net:
        return self._glue("lnot", (a,), 1, "nen")

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def build(self) -> Netlist:
        nl = self.netlist
        for storage in self.desc.storages.values():
            nl.storages[storage.name] = StorageInfo(
                storage.name, storage.kind.value, storage.width, storage.depth
            )
        pc = self.desc.program_counter()
        im = self.desc.instruction_memory()
        pc_net = nl.new_net(pc.width, "pc")
        nl.add(RegRead(pc_net, pc.name, None, port_id=0))
        word_net = nl.new_net(self.desc.word_width, "iword")
        nl.add(
            RegRead(
                word_net, im.name, pc_net,
                port_id=self._fresh_port_id(im.name),
            )
        )
        nl.word_net = word_net

        contexts: List[Tuple[ast.Operation, _Ctx]] = []
        for fld in self.desc.fields:
            for op in fld.operations:
                ctx = self._operation_context(fld, op, word_net)
                contexts.append((op, ctx))
                self._compile_block(ctx, ("action",), op.action, ctx.enable,
                                    phase=0)
        for op, ctx in contexts:
            self._compile_block(
                ctx, ("side_effect",), op.side_effect, ctx.enable, phase=1
            )
            for binding in ctx.params.values():
                if isinstance(binding, _NtBinding):
                    for label, option_ctx in binding.option_ctxs.items():
                        option = binding.nt.option(label)
                        if option.side_effect:
                            self._compile_block(
                                option_ctx,
                                ("side_effect",),
                                option.side_effect,
                                option_ctx.enable,
                                phase=1,
                            )
        nl.size_net = self._build_size_net(contexts)
        self._count_ports()
        return nl

    def _build_size_net(self, contexts) -> Net:
        sizes = {op.costs.size for op, _ in contexts}
        if sizes == {1}:
            return self._const(1, 4)
        cases = [
            (ctx.enable, self._const(op.costs.size, 4))
            for op, ctx in contexts
            if op.costs.size != 1
        ]
        out = self.netlist.new_net(4, "isize")
        self.netlist.add(PriorityMux(out, cases, self._const(1, 4)))
        return out

    def _count_ports(self) -> None:
        for name, ports in self.netlist.read_port_instances().items():
            info = self.netlist.storages.get(name)
            if info is not None:
                info.read_ports = len(ports)
        for name, ports in self.netlist.write_port_instances().items():
            info = self.netlist.storages.get(name)
            if info is not None:
                info.write_ports = len(ports)

    # ------------------------------------------------------------------
    # Contexts
    # ------------------------------------------------------------------

    def _operation_context(self, fld: ast.Field, op: ast.Operation,
                           word_net: Net) -> _Ctx:
        signature = self.table.operation(fld.name, op.name)
        line = decode_line(f"{fld.name}.{op.name}", signature)
        enable = self.netlist.new_net(1, f"dec_{fld.name}_{op.name}")
        self.netlist.add(Decode(enable, word_net, line.literals))
        ctx = _Ctx(
            owner=(fld.name, op.name),
            enable=enable,
            word=word_net,
            signature=signature,
            params={},
            widths={},
            delay=op.timing.latency - 1,
            # Structural information from costs (paper 4.1.3): an operation
            # with Cycle c and Stall s implies a (c + s)-stage datapath.
            stages=max(op.costs.cycle + op.costs.stall, 1),
        )
        for param in op.params:
            self._bind_param(ctx, param)
        return ctx

    def _bind_param(self, ctx: _Ctx, param: ast.Param) -> None:
        ptype = self.desc.param_type(param)
        raw = self._param_wiring(ctx, param.name, ctx.signature)
        if isinstance(ptype, ast.TokenDef):
            net = raw
            if ptype.kind is ast.TokenKind.IMMEDIATE and ptype.signed:
                out = self.netlist.new_net(ptype.width, f"{param.name}_sx")
                self.netlist.add(Sext(out, raw, ptype.width))
                net = out
            ctx.params[param.name] = net
            ctx.widths[param.name] = ptype.value_width
            return
        binding = self._bind_nonterminal(ctx, param, ptype, raw)
        ctx.params[param.name] = binding
        ctx.widths[param.name] = self.extractor.param_width(param)

    def _param_wiring(self, ctx: _Ctx, name: str,
                      signature: Signature) -> Net:
        """Recover a parameter's value bits from the context word (wiring)."""
        # one part per contiguous run (word and value bit advancing
        # together), in value-bit order
        runs = sorted(signature.param_runs(name), key=lambda run: run[2])
        if not runs:
            raise SynthesisError(
                f"parameter {name!r} of {ctx.owner} has no encoding bits"
            )
        value_width = max(value_lo + width for _, width, value_lo in runs)
        parts: List[Tuple[Net, int, int, int]] = [
            (ctx.word, word_lo + width - 1, word_lo, value_lo)
            for word_lo, width, value_lo in runs
        ]
        out = self.netlist.new_net(value_width, f"p_{name}")
        self.netlist.add(Concat(out, parts))
        return out

    def _bind_nonterminal(self, ctx: _Ctx, param: ast.Param,
                          nt: ast.NonTerminal, raw: Net) -> _NtBinding:
        binding = _NtBinding(nt, raw, None, {}, {})
        value_cases: List[Tuple[Net, Net]] = []
        for option in nt.options:
            signature = self.table.option(nt.name, option.label)
            line = decode_line(f"{nt.name}.{option.label}", signature)
            option_enable = self.netlist.new_net(
                1, f"opt_{param.name}_{option.label}"
            )
            self.netlist.add(
                Decode(option_enable, raw, line.literals, base=ctx.enable)
            )
            option_ctx = _Ctx(
                owner=ctx.owner + (param.name, option.label),
                enable=option_enable,
                word=raw,
                signature=signature,
                params={},
                widths={},
                delay=option.timing.latency - 1,
                stages=ctx.stages,
            )
            for sub_param in option.params:
                self._bind_param(option_ctx, sub_param)
            binding.option_lines[option.label] = option_enable
            binding.option_ctxs[option.label] = option_ctx
            # Compile the option action now (phase 0): it yields the $$
            # value and any state writes (e.g. auto-increment addressing).
            value_net = self._compile_nt_action(option_ctx, option)
            if value_net is not None:
                value_cases.append((option_enable, value_net))
        width = self.extractor.param_width(param)
        value = self.netlist.new_net(width, f"v_{param.name}")
        self.netlist.add(
            PriorityMux(value, value_cases, self._const(0, width))
        )
        binding.value = value
        return binding

    def _compile_nt_action(self, option_ctx: _Ctx,
                           option: ast.NtOption) -> Optional[Net]:
        collector: List[Tuple[Net, Net]] = []
        self._compile_block(
            option_ctx,
            ("action",),
            option.action,
            option_ctx.enable,
            phase=0,
            nt_collector=collector,
        )
        if not collector:
            return None
        if len(collector) == 1:
            return collector[0][1]
        width = max(net.width for _, net in collector)
        out = self.netlist.new_net(width, "ntv")
        self.netlist.add(PriorityMux(out, collector[::-1], None))
        return out

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _compile_block(self, ctx: _Ctx, path: Tuple, stmts, enable: Net,
                       phase: int, nt_collector=None) -> None:
        for i, stmt in enumerate(stmts):
            stmt_path = path + (i,)
            if isinstance(stmt, rtl.Assign):
                value = self._compile_expr(
                    ctx, stmt_path + ("rhs",), stmt.expr, nt_collector
                )
                self._compile_assign(
                    ctx, stmt_path, stmt, value, enable, phase, nt_collector
                )
            elif isinstance(stmt, rtl.If):
                cond = self._compile_expr(
                    ctx, stmt_path + ("cond",), stmt.cond, nt_collector
                )
                then_enable = self._and(enable, cond)
                self._compile_block(
                    ctx, stmt_path + ("then",), stmt.then, then_enable,
                    phase, nt_collector,
                )
                if stmt.orelse:
                    else_enable = self._and(enable, self._not(cond))
                    self._compile_block(
                        ctx, stmt_path + ("else",), stmt.orelse, else_enable,
                        phase, nt_collector,
                    )
            else:
                raise SynthesisError(f"unknown RTL statement {stmt!r}")

    def _compile_assign(self, ctx, stmt_path, stmt, value, enable, phase,
                        nt_collector) -> None:
        dest = stmt.dest
        if isinstance(dest, rtl.NtLV):
            if nt_collector is None:
                raise SynthesisError("'$$' assigned outside a non-terminal")
            nt_collector.append((enable, value))
            return
        if isinstance(dest, rtl.ParamLV):
            binding = ctx.params[dest.name]
            if not isinstance(binding, _NtBinding):
                raise SynthesisError(
                    f"parameter {dest.name!r} is not a destination"
                )
            # Route the value through the NT's bus node, then write each
            # transparent option's target, gated by its option line.
            bus = self._unit_site(
                ctx, stmt_path + ("bus",), "bus", "bus", (value,),
                value.width,
            )
            for label, option_ctx in binding.option_ctxs.items():
                option = binding.nt.option(label)
                target = option.storage_target()
                if target is None:
                    raise SynthesisError(
                        f"option {label!r} of {binding.nt.name!r} is not"
                        " transparent"
                    )
                write_enable = self._and(enable, binding.option_lines[label])
                self._emit_write(
                    option_ctx,
                    option_ctx.owner + ("wthru",) + stmt_path,
                    target.storage,
                    target.index,
                    target.hi,
                    target.lo,
                    bus,
                    write_enable,
                    phase,
                    delay=option_ctx.delay,
                    index_path=("wthru",) + stmt_path + ("index",),
                )
            return
        if isinstance(dest, rtl.StorageLV):
            if self._is_move(stmt.expr):
                value = self._unit_site(
                    ctx, stmt_path + ("bus",), "bus", "bus", (value,),
                    self.extractor.location_width(
                        dest.storage, dest.hi, dest.lo
                    ),
                )
            self._emit_write(
                ctx,
                ctx.owner + stmt_path,
                dest.storage,
                dest.index,
                dest.hi,
                dest.lo,
                value,
                enable,
                phase,
                delay=ctx.delay,
                index_path=stmt_path + ("index",),
            )
            return
        raise SynthesisError(f"invalid destination {dest!r}")

    @staticmethod
    def _is_move(expr: rtl.Expr) -> bool:
        return isinstance(expr, (rtl.StorageRead, rtl.ParamRef, rtl.IntLit))

    def _emit_write(self, ctx, node_key, name, index_expr, hi, lo, value,
                    enable, phase, delay, index_path) -> None:
        storage_name, fixed_index, hi, lo = self._resolve_location(
            name, hi, lo
        )
        storage = self.desc.storages[storage_name]
        index_net = None
        port_id = 0
        if storage.addressed:
            if index_expr is not None:
                index_net = self._compile_expr(ctx, index_path, index_expr,
                                               None)
            elif fixed_index is not None:
                index_net = self._const(fixed_index, 16)
            else:
                raise SynthesisError(
                    f"write to addressed storage {storage_name!r} without"
                    " index"
                )
            # Write-port allocation: the extractor created a write_port node
            # at stmt_path + ('wport',) for addressed destinations.
            stmt_rel = tuple(node_key[len(ctx.owner):])
            port_id = self._instances.get(
                (ctx.owner, stmt_rel + ("wport",)),
                self._fresh_port_id(storage_name),
            )
        self.netlist.add_write(
            Write(
                storage=storage_name,
                index=index_net,
                hi=hi,
                lo=lo,
                value=value,
                enable=enable,
                delay=delay,
                phase=phase,
                seq=self._next_seq(),
                port_id=port_id,
            )
        )

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _resolve_location(self, name, hi, lo):
        """Resolve an alias to (storage, fixed_index, hi, lo)."""
        if name in self.desc.storages:
            return name, None, hi, lo
        alias = self.desc.aliases[name]
        storage = self.desc.storages[alias.storage]
        alias_hi, alias_lo = alias.hi, alias.lo
        fixed_index = alias.index if storage.addressed else None
        if not storage.addressed and alias.index is not None:
            alias_hi = alias_lo = alias.index
        if alias_lo is None:
            alias_lo = alias_hi
        if alias_hi is None:
            return storage.name, fixed_index, hi, lo
        if hi is None:
            return storage.name, fixed_index, alias_hi, alias_lo
        effective_lo = lo if lo is not None else hi
        return (
            storage.name,
            fixed_index,
            alias_lo + hi,
            alias_lo + effective_lo,
        )

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _unit_site(self, ctx, path, unit_class, op, args, width,
                   const_args=None) -> Net:
        instance = self._instances.get((ctx.owner, path))
        if instance is None:
            instance = self._fresh()
        out = self.netlist.new_net(width, f"u_{op if op.isalnum() else unit_class}")
        self.netlist.add(
            Unit(
                out,
                unit_class=unit_class,
                width=width,
                op=op,
                args=tuple(args),
                const_args=const_args or (None,) * len(args),
                enable=ctx.enable,
                instance_id=instance,
                node_key=ctx.key_prefix + "/".join(map(str, path)),
                stages=ctx.stages,
            )
        )
        return out

    def _compile_expr(self, ctx: _Ctx, path: Tuple, expr: rtl.Expr,
                      nt_collector) -> Net:
        if isinstance(expr, rtl.IntLit):
            return self._const(
                expr.value, max(expr.value.bit_length(), 1)
            )
        if isinstance(expr, rtl.ParamRef):
            binding = ctx.params[expr.name]
            if isinstance(binding, _NtBinding):
                return binding.value
            return binding
        if isinstance(expr, rtl.NtValue):
            if not nt_collector:
                raise SynthesisError("'$$' read before assignment")
            return nt_collector[-1][1]
        if isinstance(expr, rtl.StorageRead):
            return self._compile_read(ctx, path, expr, nt_collector)
        if isinstance(expr, rtl.BinOp):
            left = self._compile_expr(ctx, path + (0,), expr.left, nt_collector)
            right = self._compile_expr(ctx, path + (1,), expr.right, nt_collector)
            if expr.op in ("==", "!=", "<", "<=", ">", ">="):
                # A comparator is sized by its datapath inputs even though
                # its result is one bit.
                width = max(left.width, right.width)
            else:
                width = self.extractor.expr_width(expr, ctx.widths)
            return self._unit_site(
                ctx, path, _BINOP_CLASS[expr.op], expr.op, (left, right),
                width,
            )
        if isinstance(expr, rtl.UnOp):
            operand = self._compile_expr(
                ctx, path + (0,), expr.operand, nt_collector
            )
            width = self.extractor.expr_width(expr, ctx.widths)
            if expr.op == "-":
                return self._unit_site(
                    ctx, path, "adder", "neg", (operand,), width
                )
            op = "not" if expr.op == "~" else "lnot"
            return self._glue(op, (operand,), width, "g")
        if isinstance(expr, rtl.Cond):
            cond = self._compile_expr(ctx, path + (0,), expr.cond, nt_collector)
            then = self._compile_expr(ctx, path + (1,), expr.then, nt_collector)
            other = self._compile_expr(ctx, path + (2,), expr.other, nt_collector)
            width = self.extractor.expr_width(expr, ctx.widths)
            return self._unit_site(
                ctx, path, "mux", "mux", (cond, then, other), width
            )
        if isinstance(expr, rtl.Call):
            return self._compile_call(ctx, path, expr, nt_collector)
        raise SynthesisError(f"unknown RTL expression {expr!r}")

    def _compile_read(self, ctx, path, expr: rtl.StorageRead, nt_collector):
        storage_name, fixed_index, hi, lo = self._resolve_location(
            expr.storage, expr.hi, expr.lo
        )
        storage = self.desc.storages[storage_name]
        index_net = None
        port_id = 0
        if storage.addressed:
            if expr.index is not None:
                index_net = self._compile_expr(
                    ctx, path + ("index",), expr.index, nt_collector
                )
            elif fixed_index is not None:
                index_net = self._const(fixed_index, 16)
            port_id = self._instances.get(
                (ctx.owner, path + ("rport",)),
                self._fresh_port_id(storage_name),
            )
        width = hi - lo + 1 if hi is not None else storage.width
        out = self.netlist.new_net(width, f"r_{storage_name}")
        self.netlist.add(
            RegRead(out, storage_name, index_net, hi, lo, port_id)
        )
        return out

    def _compile_call(self, ctx, path, expr: rtl.Call, nt_collector) -> Net:
        meta = INTRINSICS[expr.func]
        args: List[Net] = []
        const_args: List[Optional[int]] = []
        for i, arg in enumerate(expr.args):
            if isinstance(arg, rtl.IntLit):
                const_args.append(arg.value)
                args.append(self._const(arg.value, max(arg.value.bit_length(), 1)))
            else:
                const_args.append(None)
                args.append(
                    self._compile_expr(ctx, path + (i,), arg, nt_collector)
                )
        width = self.extractor._call_width(expr, ctx.widths)
        if meta.unit_class == "wire":
            return self._glue(expr.func, tuple(args), width, expr.func)
        return self._unit_site(
            ctx, path, meta.unit_class, expr.func, tuple(args), width,
            tuple(const_args),
        )


def build_datapath(desc: ast.Description,
                   table: Optional[SignatureTable] = None,
                   allocation: Optional[Dict[NodeId, int]] = None,
                   extractor: Optional[NodeExtractor] = None) -> Netlist:
    """Convenience wrapper over :class:`DatapathBuilder`."""
    return DatapathBuilder(desc, table, allocation, extractor).build()
