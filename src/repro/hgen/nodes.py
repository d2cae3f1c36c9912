"""RTL decomposition into hardware nodes (paper §4.1.2, step 1).

"First we break up the RTL expressions for all operation definitions into a
number of nodes, each of which can be mapped to a circuit."  A node is one
operator site: an adder, a shifter, a comparator, a mux (from ``?:``), a
floating-point macro, a storage read/write port, or a plain move (the bus of
the paper's §4.1.1 example).

Non-terminal actions are inlined into every operation that uses the
non-terminal: an operation with a ``SRC`` parameter owns one copy of the
nodes of *each* ``SRC`` option (the options are mutually exclusive among
themselves, so the sharing pass merges them again).  Node identities are
stable paths into the RTL tree; :mod:`repro.hgen.datapath` walks the same
paths when it instantiates cells, which is what lets a sharing allocation
map onto the executable netlist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..isdl import ast, rtl
from ..isdl.intrinsics import INTRINSICS

#: Owner of a node: (field, op) optionally extended by (param, option_label).
Owner = Tuple


@dataclass(frozen=True)
class NodeId:
    """A stable identity for one operator site in the description."""

    owner: Owner
    path: Tuple  # indices into statements/expressions

    def __str__(self) -> str:
        owner = ".".join(str(part) for part in self.owner)
        path = "/".join(str(part) for part in self.path)
        return f"{owner}:{path}"


@dataclass(frozen=True)
class HwNode:
    """One shareable hardware node."""

    node_id: NodeId
    unit_class: str
    width: int
    stmt_key: Tuple  # identifies the RTL statement the node belongs to
    is_macro: bool = False


_BINOP_CLASS = {
    "+": "adder",
    "-": "adder",
    "*": "multiplier",
    "/": "divider",
    "%": "divider",
    "&": "logic",
    "|": "logic",
    "^": "logic",
    "<<": "shifter",
    ">>": "shifter",
    "==": "comparator",
    "!=": "comparator",
    "<": "comparator",
    "<=": "comparator",
    ">": "comparator",
    ">=": "comparator",
    "&&": "logic",
    "||": "logic",
}

_UNOP_CLASS = {"~": "logic", "-": "adder", "!": "logic"}


class NodeExtractor:
    """Walks a description and yields its hardware nodes."""

    def __init__(self, desc: ast.Description):
        self.desc = desc
        # parameter type name -> value width, filled on first use
        self._param_widths: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Width inference
    # ------------------------------------------------------------------

    def location_width(self, name: str, hi, lo) -> int:
        if hi is not None:
            return hi - (lo if lo is not None else hi) + 1
        if name in self.desc.aliases:
            alias = self.desc.aliases[name]
            storage = self.desc.storages[alias.storage]
            if alias.hi is not None:
                alias_lo = alias.lo if alias.lo is not None else alias.hi
                return alias.hi - alias_lo + 1
            if alias.index is not None and not storage.addressed:
                return 1  # bit alias of a scalar storage
            return storage.width
        return self.desc.storages[name].width

    def param_width(self, param: ast.Param) -> int:
        """The width of the value *param* carries (one walk per type)."""
        width = self._param_widths.get(param.type_name)
        if width is None:
            width = self._param_widths[param.type_name] = self._type_width(
                self.desc.param_type(param)
            )
        return width

    def _type_width(self, ptype) -> int:
        if isinstance(ptype, ast.TokenDef):
            return ptype.value_width
        # An NT's *value* width is the width its options' actions produce.
        widths = []
        for option in ptype.options:
            env = {p.name: self.param_width(p) for p in option.params}
            for stmt in rtl.walk_stmts(option.action):
                if isinstance(stmt, rtl.Assign) and isinstance(
                    stmt.dest, rtl.NtLV
                ):
                    widths.append(self.expr_width(stmt.expr, env))
        return max(widths, default=1)

    def expr_width(self, expr: rtl.Expr, env: Dict[str, int]) -> int:
        if isinstance(expr, rtl.IntLit):
            return max(expr.value.bit_length(), 1)
        if isinstance(expr, rtl.ParamRef):
            return env.get(expr.name, 1)
        if isinstance(expr, rtl.NtValue):
            return env.get("$$", 1)
        if isinstance(expr, rtl.StorageRead):
            return self.location_width(expr.storage, expr.hi, expr.lo)
        if isinstance(expr, rtl.BinOp):
            if expr.op in ("==", "!=", "<", "<=", ">", ">=", "&&", "||"):
                return 1
            left = self.expr_width(expr.left, env)
            if expr.op in ("<<", ">>"):
                return left
            return max(left, self.expr_width(expr.right, env))
        if isinstance(expr, rtl.UnOp):
            if expr.op == "!":
                return 1
            return self.expr_width(expr.operand, env)
        if isinstance(expr, rtl.Cond):
            return max(
                self.expr_width(expr.then, env),
                self.expr_width(expr.other, env),
            )
        if isinstance(expr, rtl.Call):
            return self._call_width(expr, env)
        return 1

    def _call_width(self, expr: rtl.Call, env) -> int:
        name = expr.func
        if name in ("carry", "carryc", "borrow", "overflow", "bit"):
            return 1
        if name in ("sext", "zext", "itof", "ftoi"):
            const = expr.args[1]
            if isinstance(const, rtl.IntLit):
                return const.value
            return self.expr_width(expr.args[0], env)
        if name == "slice":
            hi, lo = expr.args[1], expr.args[2]
            if isinstance(hi, rtl.IntLit) and isinstance(lo, rtl.IntLit):
                return hi.value - lo.value + 1
            return self.expr_width(expr.args[0], env)
        if name in ("fadd", "fsub", "fmul", "fdiv", "fneg", "fabs"):
            return 32
        if name == "fcmp":
            return 2
        return max(
            (self.expr_width(a, env) for a in expr.args), default=1
        )

    # ------------------------------------------------------------------
    # Node extraction
    # ------------------------------------------------------------------

    def extract(self) -> List[HwNode]:
        """All hardware nodes of the description."""
        nodes: List[HwNode] = []
        for fld, op in self.desc.operations():
            nodes.extend(self.extract_operation(fld, op))
        return nodes

    def extract_operation(
        self, fld: ast.Field, op: ast.Operation
    ) -> List[HwNode]:
        """The nodes owned by one operation (inlined NT options included).

        Depends only on the operation's definition plus the widths of the
        tokens, non-terminals, storages, and aliases it references.
        """
        owner = (fld.name, op.name)
        env = {p.name: self.param_width(p) for p in op.params}
        nodes: List[HwNode] = []
        self._from_blocks(owner, op, env, nodes)
        for param in op.params:
            ptype = self.desc.param_type(param)
            if isinstance(ptype, ast.NonTerminal):
                for option in ptype.options:
                    sub_owner = owner + (param.name, option.label)
                    sub_env = {
                        p.name: self.param_width(p)
                        for p in option.params
                    }
                    sub_env["$$"] = self.param_width(param)
                    self._from_blocks(sub_owner, option, sub_env, nodes)
        return nodes

    # The walkers below append each node they find to *out*, in the order
    # of the paths they visit.

    def _from_blocks(self, owner, item, env, out) -> None:
        self._walk_stmts(owner, ("action",), item.action, env, out)
        self._walk_stmts(owner, ("side_effect",), item.side_effect, env, out)

    def _walk_stmts(self, owner, path, stmts, env, out) -> None:
        for i, stmt in enumerate(stmts):
            stmt_path = path + (i,)
            stmt_key = owner + stmt_path
            if isinstance(stmt, rtl.Assign):
                self._walk_expr(
                    owner, stmt_path + ("rhs",), stmt.expr, env, stmt_key,
                    out,
                )
                self._dest_nodes(owner, stmt_path, stmt, env, stmt_key, out)
            elif isinstance(stmt, rtl.If):
                self._walk_expr(
                    owner, stmt_path + ("cond",), stmt.cond, env, stmt_key,
                    out,
                )
                self._walk_stmts(
                    owner, stmt_path + ("then",), stmt.then, env, out
                )
                self._walk_stmts(
                    owner, stmt_path + ("else",), stmt.orelse, env, out
                )

    def _dest_nodes(self, owner, stmt_path, stmt, env, stmt_key, out):
        dest = stmt.dest
        if isinstance(dest, rtl.StorageLV):
            storage = self.desc.storage_or_alias(dest.storage)
            if storage.addressed:
                out.append(HwNode(
                    NodeId(owner, stmt_path + ("wport",)),
                    f"write_port:{storage.name}",
                    storage.width,
                    stmt_key,
                ))
                if dest.index is not None:
                    self._walk_expr(
                        owner, stmt_path + ("index",), dest.index, env,
                        stmt_key, out,
                    )
            if self._is_move(stmt.expr):
                # A plain move routes through a data bus (paper §4.1.1:
                # "a move operation that is implemented using a bus").
                out.append(HwNode(
                    NodeId(owner, stmt_path + ("bus",)),
                    "bus",
                    self.location_width(dest.storage, dest.hi, dest.lo),
                    stmt_key,
                ))
        elif isinstance(dest, rtl.ParamLV):
            # Writing through a transparent NT: each option contributes its
            # own write port / bus inside its sub-owner; the op-level node
            # is the routing bus that feeds the NT.
            out.append(HwNode(
                NodeId(owner, stmt_path + ("bus",)),
                "bus",
                env.get(dest.name, 1),
                stmt_key,
            ))

    @staticmethod
    def _is_move(expr: rtl.Expr) -> bool:
        return isinstance(expr, (rtl.StorageRead, rtl.ParamRef, rtl.IntLit))

    def _walk_expr(self, owner, path, expr, env, stmt_key, out) -> None:
        if isinstance(expr, rtl.BinOp):
            out.append(HwNode(
                NodeId(owner, path),
                _BINOP_CLASS[expr.op],
                self.expr_width(expr, env)
                if expr.op not in ("==", "!=", "<", "<=", ">", ">=")
                else max(
                    self.expr_width(expr.left, env),
                    self.expr_width(expr.right, env),
                ),
                stmt_key,
            ))
            self._walk_expr(owner, path + (0,), expr.left, env, stmt_key, out)
            self._walk_expr(
                owner, path + (1,), expr.right, env, stmt_key, out
            )
        elif isinstance(expr, rtl.UnOp):
            if expr.op in ("-",):
                out.append(HwNode(
                    NodeId(owner, path),
                    _UNOP_CLASS[expr.op],
                    self.expr_width(expr, env),
                    stmt_key,
                ))
            self._walk_expr(
                owner, path + (0,), expr.operand, env, stmt_key, out
            )
        elif isinstance(expr, rtl.Cond):
            out.append(HwNode(
                NodeId(owner, path),
                "mux",
                self.expr_width(expr, env),
                stmt_key,
            ))
            self._walk_expr(owner, path + (0,), expr.cond, env, stmt_key, out)
            self._walk_expr(owner, path + (1,), expr.then, env, stmt_key, out)
            self._walk_expr(
                owner, path + (2,), expr.other, env, stmt_key, out
            )
        elif isinstance(expr, rtl.Call):
            meta = INTRINSICS[expr.func]
            if meta.unit_class != "wire":
                out.append(HwNode(
                    NodeId(owner, path),
                    meta.unit_class,
                    self._call_width(expr, env),
                    stmt_key,
                    is_macro=meta.is_macro,
                ))
            for i, arg in enumerate(expr.args):
                self._walk_expr(owner, path + (i,), arg, env, stmt_key, out)
        elif isinstance(expr, rtl.StorageRead):
            storage_name = expr.storage
            if storage_name in self.desc.storages:
                storage = self.desc.storages[storage_name]
                if storage.addressed:
                    out.append(HwNode(
                        NodeId(owner, path + ("rport",)),
                        f"read_port:{storage.name}",
                        storage.width,
                        stmt_key,
                    ))
            if expr.index is not None:
                self._walk_expr(
                    owner, path + ("index",), expr.index, env, stmt_key, out
                )


def extract_nodes(desc: ast.Description) -> List[HwNode]:
    """Convenience wrapper over :class:`NodeExtractor`."""
    return NodeExtractor(desc).extract()

