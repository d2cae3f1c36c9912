"""Tests for decode-line generation (§4.2) and Verilog emission."""

import glob
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import ARCHITECTURES, description_for
from repro.encoding.signature import Signature, SignatureTable
from repro.hgen.decode import decode_line, decode_lines_for
from repro.hgen.synthesize import synthesize
from repro.hgen.verilog import count_lines
from repro.isdl import load_file

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "examples")


def test_decode_line_from_signature(risc16_desc):
    table = SignatureTable(risc16_desc)
    line = decode_line("EX.add", table.operation("EX", "add"))
    # opcode 00001 in bits 23:19
    assert set(line.literals) == {
        (23, 0), (22, 0), (21, 0), (20, 0), (19, 1)
    }


def test_equation_matches_paper_style(risc16_desc):
    table = SignatureTable(risc16_desc)
    line = decode_line("EX.add", table.operation("EX", "add"))
    assert line.equation() == "I23'.I22'.I21'.I20'.I19"


def test_decode_line_matches_exactly_its_words(risc16_desc):
    table = SignatureTable(risc16_desc)
    add_sig = table.operation("EX", "add")
    line = decode_line("EX.add", add_sig)
    word = table.encode_operation(
        "EX", "add", {"d": 1, "a": 2, "b": ("reg", {"r": 3})}
    )
    assert line.matches(word)
    other = table.encode_operation(
        "EX", "sub", {"d": 1, "a": 2, "b": ("reg", {"r": 3})}
    )
    assert not line.matches(other)


def test_gate_count_counts_inverters_and_ands(risc16_desc):
    table = SignatureTable(risc16_desc)
    line = decode_line("EX.add", table.operation("EX", "add"))
    # 4 inverters (zero literals) + 4 AND gates for 5 literals
    assert line.gate_count == 8


def test_all_operations_have_decode_lines(spam_desc):
    table = SignatureTable(spam_desc)
    lines = decode_lines_for(table, spam_desc)
    names = {line.name for line in lines}
    assert "FP1.fadd" in names and "MV3.mov" in names
    assert len(lines) == sum(len(f.operations) for f in spam_desc.fields)


def _walked_literals(signature):
    """The literals a walk over every word bit of the symbol image finds."""
    return tuple(
        (position, symbol)
        for position, symbol in enumerate(signature.symbols)
        if symbol in (0, 1)
    )


def _every_signature():
    descriptions = [description_for(name) for name in sorted(ARCHITECTURES)]
    descriptions += [
        load_file(path, validate=False)
        for path in sorted(glob.glob(os.path.join(EXAMPLES, "*.isdl")))
    ]
    for desc in descriptions:
        table = SignatureTable(desc)
        yield from table.operation_signatures.values()
        yield from table.option_signatures.values()


def test_decode_line_literals_equal_a_walk_over_the_symbols():
    # the mask-derived literals, on every operation and option of the
    # shipped architectures and the example descriptions
    signatures = list(_every_signature())
    assert signatures
    for signature in signatures:
        line = decode_line("x", signature)
        assert line.literals == _walked_literals(signature)


symbol_images = st.lists(
    st.one_of(
        st.none(),
        st.sampled_from([0, 1]),
        st.tuples(st.sampled_from(["a", "b"]), st.integers(0, 7)),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(symbol_images)
def test_decode_line_literals_equal_a_walk_on_any_symbol_image(symbols):
    signature = Signature(len(symbols), tuple(symbols))
    assert decode_line("x", signature).literals == _walked_literals(
        signature
    )


def test_empty_literals_equation():
    line = decode_line("x", Signature(4, (None,) * 4))
    assert line.equation() == "1"
    assert line.matches(0b1010)


# ---------------------------------------------------------------------------
# Verilog emission
# ---------------------------------------------------------------------------


def test_verilog_module_structure(risc16_desc):
    model = synthesize(risc16_desc)
    v = model.verilog
    assert "module RISC16_core (" in v
    assert "endmodule" in v
    assert "reg" in v and "wire" in v
    assert "always @(posedge clk)" in v
    assert count_lines(v) == model.verilog_lines
    assert count_lines(v) > 100


def test_verilog_declares_all_storages(spam_desc):
    model = synthesize(spam_desc)
    for name in spam_desc.storages:
        assert name in model.verilog


def test_verilog_fp_macros_instantiated_and_stubbed(spam_desc):
    model = synthesize(spam_desc)
    assert "FP_ADD" in model.verilog
    assert "FP_MUL" in model.verilog
    assert "module FP_ADD" in model.verilog  # black-box stub


def test_verilog_decode_lines_present(risc16_desc):
    model = synthesize(risc16_desc)
    assert "dec_EX_add" in model.verilog
    assert "~iword[" in model.verilog  # inverted literals


def test_verilog_marks_shared_instances(risc16_desc):
    model = synthesize(risc16_desc, share=True)
    assert "sites merged" in model.verilog


def test_verilog_latency_staging_registers(spam_desc):
    model = synthesize(spam_desc)
    # fadd latency 2 -> one delay stage for its RF write
    assert "_d1" in model.verilog


def test_verilog_no_sharing_comment_when_unshared(mini_desc):
    model = synthesize(mini_desc, share=False)
    assert "sites merged" not in model.verilog


def test_emitted_identifiers_are_sane(spam_desc):
    model = synthesize(spam_desc)
    for line in model.verilog.splitlines():
        assert "%" not in line
