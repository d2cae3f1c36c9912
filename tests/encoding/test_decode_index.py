"""The indexed decode agrees with the paper's linear scan (Fig. 4).

:meth:`SignatureTable.decode` looks a word up in one mask-grouped index
per field and per non-terminal, and a :class:`Signature` reads parameters
through precomputed bit runs.  The reference here is the decoder those
replace: walk every signature's symbols bit by bit, keep each operation
whose constant bits all match, and gather parameter values one bit at a
time.  The two must agree on every word: the same
:class:`DecodedInstruction`, or the same exception type, message and
``.matches``.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.arch import ARCHITECTURES, all_workloads, description_for
from repro.asm import Assembler
from repro.cache import ArtifactCache
from repro.codegen.kernels import resolve_kernels
from repro.encoding.signature import Signature, SignatureTable
from repro.errors import (
    AmbiguousEncodingError,
    DisassemblyError,
    EncodingError,
)
from repro.explore import evaluate, transforms
from repro.gensim.disassembler import (
    DecodedInstruction,
    DecodedOperation,
    Disassembler,
)
from repro.isdl import ast, load_file, load_string

ARCHS = sorted(ARCHITECTURES)


# ---------------------------------------------------------------------------
# The reference: per-bit walks over Signature.symbols, linear scan per field
# ---------------------------------------------------------------------------


def scan_matches(signature, word):
    return all(
        (word >> position) & 1 == symbol
        for position, symbol in enumerate(signature.symbols)
        if symbol in (0, 1)
    )


def scan_positions(signature, name):
    return [
        (position, symbol[1])
        for position, symbol in enumerate(signature.symbols)
        if isinstance(symbol, tuple) and symbol[0] == name
    ]


def scan_extract(signature, word, name):
    value = 0
    for position, value_bit in scan_positions(signature, name):
        if (word >> position) & 1:
            value |= 1 << value_bit
    return value


def scan_assemble(signature, param_bits):
    word = 0
    for position, symbol in enumerate(signature.symbols):
        if symbol == 1:
            word |= 1 << position
        elif isinstance(symbol, tuple):
            name, value_bit = symbol
            if name not in param_bits:
                raise EncodingError(f"missing value for parameter {name!r}")
            if (param_bits[name] >> value_bit) & 1:
                word |= 1 << position
    return word


class ScanDisassembler:
    """Fig. 4 as a linear scan over each field's signatures."""

    def __init__(self, desc, table):
        self.desc = desc
        self.table = table

    def disassemble(self, word):
        return DecodedInstruction(word, tuple(
            self.field(word, fld) for fld in self.desc.fields
        ))

    def field(self, word, fld):
        matches = [
            op for op in fld.operations
            if scan_matches(self.table.operation(fld.name, op.name), word)
        ]
        if len(matches) > 1:
            names = sorted(f"{fld.name}.{op.name}" for op in matches)
            raise AmbiguousEncodingError(
                f"AMBIGUOUS INSTRUCTION: word 0x{word:x} matches"
                f" {len(names)} operations in field {fld.name!r}:"
                f" {', '.join(names)} (assembly function is not"
                " decodable — see Axiom 1)",
                matches=tuple(names),
            )
        if not matches:
            raise DisassemblyError(
                f"ILLEGAL INSTRUCTION: word 0x{word:x} matches no operation"
                f" in field {fld.name!r}"
            )
        op = matches[0]
        signature = self.table.operation(fld.name, op.name)
        return DecodedOperation(
            fld.name, op.name, self.params(word, op.params, signature)
        )

    def ntl(self, value, nt):
        matches = [
            option for option in nt.options
            if scan_matches(self.table.option(nt.name, option.label), value)
        ]
        if len(matches) > 1:
            names = sorted(f"{nt.name}.{option.label}" for option in matches)
            raise AmbiguousEncodingError(
                f"AMBIGUOUS INSTRUCTION: value 0x{value:x} matches"
                f" {len(names)} options of non-terminal {nt.name!r}:"
                f" {', '.join(names)}",
                matches=tuple(names),
            )
        if not matches:
            raise DisassemblyError(
                f"ILLEGAL INSTRUCTION: value 0x{value:x} matches no option"
                f" of non-terminal {nt.name!r}"
            )
        option = matches[0]
        signature = self.table.option(nt.name, option.label)
        return (option.label, self.params(value, option.params, signature))

    def params(self, word, params, signature):
        operands = {}
        for param in params:
            ptype = self.desc.param_type(param)
            raw = scan_extract(signature, word, param.name)
            if isinstance(ptype, ast.TokenDef):
                operands[param.name] = ptype.decode_value(raw)
            else:
                operands[param.name] = self.ntl(raw, ptype)
        return operands


def outcome(decode, word):
    """A decode result, or its exception as (type, text, matches)."""
    try:
        return decode(word)
    except DisassemblyError as exc:
        return (type(exc), str(exc), getattr(exc, "matches", None))


def decoders(desc):
    table = SignatureTable(desc)
    return Disassembler(desc, table, cache_size=0), ScanDisassembler(
        desc, table
    )


def workload_words(arch):
    desc = description_for(arch)
    assembler = Assembler(desc)
    words = []
    for workload in all_workloads():
        if workload.arch == arch:
            words.extend(assembler.assemble(
                workload.source, filename=f"{workload.name}.s"
            ).words)
    return words


# ---------------------------------------------------------------------------
# Equivalence on real programs and on drawn words
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("arch", ARCHS)
def test_every_workload_word_decodes_as_the_scan_does(arch):
    desc = description_for(arch)
    indexed, scan = decoders(desc)
    words = workload_words(arch)
    assert words
    for word in words:
        decoded = indexed.disassemble(word)
        assert decoded == scan.disassemble(word)


@functools.lru_cache(maxsize=None)
def drawn_words(arch):
    """Words built from one encoded operation per field (legal, mostly),
    or any word of the description's width."""
    desc = description_for(arch)
    table = SignatureTable(desc)
    per_field = []
    for fld in desc.fields:
        choices = [
            st.tuples(st.just(op.name), st.fixed_dictionaries(
                {p.name: operand_strategy(desc, p) for p in op.params}
            ))
            for op in fld.operations
        ]
        per_field.append(st.tuples(st.just(fld.name), st.one_of(choices)))
    return st.one_of(
        st.tuples(*per_field).map(
            lambda picks: table.encode_instruction(dict(picks))
        ),
        st.integers(0, (1 << desc.word_width) - 1),
    )


def operand_strategy(desc, param):
    ptype = desc.param_type(param)
    if isinstance(ptype, ast.TokenDef):
        values = ptype.valid_values()
        return st.integers(values.start, values.stop - 1)
    return st.one_of([
        st.tuples(st.just(option.label), st.fixed_dictionaries(
            {p.name: operand_strategy(desc, p) for p in option.params}
        ))
        for option in ptype.options
    ])


@pytest.mark.parametrize("arch", ARCHS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_drawn_words_decode_as_the_scan_does(arch, data):
    indexed, scan = decoders(description_for(arch))
    word = data.draw(drawn_words(arch))
    assert outcome(indexed.disassemble, word) == outcome(
        scan.disassemble, word
    )


@pytest.mark.parametrize("arch", ARCHS)
def test_near_legal_words_decode_as_the_scan_does(arch):
    # flip 1-3 adjacent bits of real program words: many land on no
    # operation at all, the rest decode to a neighbouring one
    desc = description_for(arch)
    indexed, scan = decoders(desc)
    illegal = 0
    for word in sorted(set(workload_words(arch)))[:8]:
        for run in (0b1, 0b11, 0b111):
            for shift in range(desc.word_width):
                flipped = (word ^ (run << shift)) & ((1 << desc.word_width) - 1)
                want = outcome(scan.disassemble, flipped)
                assert outcome(indexed.disassemble, flipped) == want
                if isinstance(want, tuple):
                    assert want[0] is DisassemblyError
                    illegal += 1
    assert illegal


def test_every_word_of_the_ambiguous_description_decodes_as_the_scan_does():
    # 8-bit words: all of them — legal, illegal (0b00xxxxxx) and
    # ambiguous (0b11xxxxxx, matching both EX.a and EX.b)
    desc = load_file("examples/ambiguous.isdl")
    indexed, scan = decoders(desc)
    kinds = set()
    for word in range(1 << desc.word_width):
        want = outcome(scan.disassemble, word)
        assert outcome(indexed.disassemble, word) == want
        kinds.add(want[0] if isinstance(want, tuple) else DecodedInstruction)
    assert kinds == {DecodedInstruction, DisassemblyError,
                     AmbiguousEncodingError}


def transformed_children(arch):
    """The machine without each of the first two operations per field
    that its workloads execute, and with a narrowed register file."""
    desc = description_for(arch)
    indexed, _scan = decoders(desc)
    used = {fld.name: [] for fld in desc.fields}
    for word in sorted(set(workload_words(arch))):
        for decoded in indexed.disassemble(word).operations:
            if decoded.op_name not in used[decoded.field]:
                used[decoded.field].append(decoded.op_name)
    children = [
        transforms.drop_operation(desc, field_name, op_name)
        for field_name, op_names in used.items()
        for op_name in op_names[:2]
    ]
    if arch != "acc8":  # the accumulator machine has no register file
        children.append(transforms.narrow_register_file(desc, 4))
    return children


@pytest.mark.parametrize("arch", ARCHS)
def test_transformed_children_decode_as_the_scan_does(arch):
    # the parent's program words against each child's own index: a word
    # of a dropped operation now decodes to nothing, or to a neighbour
    words = sorted(set(workload_words(arch)))
    parent, _scan = decoders(description_for(arch))
    for child in transformed_children(arch):
        indexed, scan = decoders(child)
        changed = 0
        for word in words:
            want = outcome(scan.disassemble, word)
            assert outcome(indexed.disassemble, word) == want, (
                child.name, hex(word)
            )
            changed += want != outcome(parent.disassemble, word)
        assert changed, child.name


# ---------------------------------------------------------------------------
# Multi-run parameters: a split immediate
# ---------------------------------------------------------------------------

SPLIT_ISDL = '''
processor "SPLIT"

section format
    word 16
end

section global_definitions
    token REG prefix "R" range 0 .. 3
    token IMM8 immediate unsigned width 8
end

section storage
    instruction_memory IM width 16 depth 64
    register_file RF width 8 depth 4
    control_register HALTED width 1
    program_counter PC width 6
end

section instruction_set
    field EX
        operation nop()
            encoding { bits[15:12] = 0b0000 }
        operation ldi(d: REG, v: IMM8)
            encoding { bits[15:12] = 0b0010; bits[11:8] = v[7:4];
                       bits[5:4] = d; bits[3:0] = v[3:0] }
            action { RF[d] <- v; }
        operation halt()
            encoding { bits[15:12] = 0b1111 }
            action { HALTED <- 1; }
    end
end

section optional
    attribute halt_flag "HALTED"
end
'''


@pytest.fixture(scope="module")
def split_desc():
    return load_string(SPLIT_ISDL, filename="split.isdl")


def test_split_parameter_has_two_runs(split_desc):
    sig = SignatureTable(split_desc).operation("EX", "ldi")
    assert sig.param_runs("v") == ((0, 4, 0), (8, 4, 4))
    assert sig.param_runs("d") == ((4, 2, 0),)
    assert sig.param_positions("v") == scan_positions(sig, "v")
    assert sig.param_positions("d") == scan_positions(sig, "d")
    assert sig.param_runs("absent") == ()
    assert sig.param_names() == ["v", "d"]


@given(word=st.integers(0, 0xFFFF))
def test_split_extract_matches_the_bit_walk(split_desc, word):
    sig = SignatureTable(split_desc).operation("EX", "ldi")
    for name in ("v", "d", "absent"):
        assert sig.extract(word, name) == scan_extract(sig, word, name)
    assert sig.matches(word) == scan_matches(sig, word)


@given(v=st.integers(0, 0xFF), d=st.integers(0, 3))
def test_split_assemble_matches_the_bit_walk(split_desc, v, d):
    table = SignatureTable(split_desc)
    sig = table.operation("EX", "ldi")
    word = sig.assemble({"v": v, "d": d})
    assert word == scan_assemble(sig, {"v": v, "d": d})
    decoded = Disassembler(split_desc, table).disassemble(word)
    assert decoded.operations == (DecodedOperation("EX", "ldi",
                                                   {"d": d, "v": v}),)


def test_hgen_wires_a_split_parameter_from_both_runs(split_desc):
    from repro.hgen import synthesize
    from repro.hgen.netlist import Concat

    netlist = synthesize(split_desc).netlist
    (wiring,) = [cell for cell in netlist.cells
                 if isinstance(cell, Concat) and cell.out.name.startswith("p_v")]
    assert wiring.out.width == 8
    # (source, word_hi, word_lo, value_lo), in value-bit order
    assert [part[1:] for part in wiring.parts] == [(3, 0, 0), (11, 8, 4)]


def test_missing_parameter_names_the_first_in_bit_order(split_desc):
    sig = SignatureTable(split_desc).operation("EX", "ldi")
    with pytest.raises(EncodingError, match="'v'"):
        sig.assemble({"d": 1})
    with pytest.raises(EncodingError, match="'v'"):
        scan_assemble(sig, {"d": 1})


@pytest.mark.parametrize("arch", ARCHS)
def test_shipped_parameters_match_the_bit_walk(arch):
    desc = description_for(arch)
    table = SignatureTable(desc)
    signatures = list(table.operation_signatures.values()) + list(
        table.option_signatures.values()
    )
    for sig in signatures:
        for name in sig.param_names():
            assert sig.param_positions(name) == scan_positions(sig, name)
            assert len(sig.param_runs(name)) == 1  # single runs all round
        assert sig.constant_mask == sum(
            1 << i for i, s in enumerate(sig.symbols) if s in (0, 1)
        )
        assert sig.defined_mask == sum(
            1 << i for i, s in enumerate(sig.symbols) if s is not None
        )


# ---------------------------------------------------------------------------
# The derived views are not part of a signature's identity
# ---------------------------------------------------------------------------


def test_derived_views_stay_out_of_eq_hash_and_repr(spam_desc):
    sig = SignatureTable(spam_desc).operation("INT", "add")
    twin = Signature(sig.width, sig.symbols)
    assert sig == twin and sig is not twin
    assert hash(sig) == hash(twin) == hash((sig.width, sig.symbols))
    assert repr(sig) == (
        f"Signature(width={sig.width!r}, symbols={sig.symbols!r})"
    )
    assert sig != Signature(sig.width, (None,) * sig.width)


# ---------------------------------------------------------------------------
# One table per description within an evaluation
# ---------------------------------------------------------------------------


@pytest.fixture
def obs_on():
    obs.disable(reset=True)
    obs.enable()
    yield
    obs.disable(reset=True)


KERNELS = ["sum:10", "blockmove:8"]


@pytest.mark.parametrize("backend", ["xsim", "compiled"])
def test_one_evaluate_builds_one_signature_table(obs_on, backend):
    with obs.capture() as cap:
        evaluation = evaluate(description_for("spam"),
                              resolve_kernels(KERNELS),
                              cache=ArtifactCache(), sim_backend=backend)
    assert evaluation.feasible
    assert cap.snapshot.counters["sigtable.builds"] == 1
