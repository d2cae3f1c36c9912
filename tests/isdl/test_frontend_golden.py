"""The ISDL front end's output, pinned before its lexer and expression
parser were rewritten for speed.

The goldens under ``golden/`` were recorded with the previous
per-character lexer and tier-recursive expression parser:

* ``lexer_cases.json``: the tokens, or the error and its position, of the
  empty string and 511 strings from ``random_source(random.Random(1999))``;
* ``parse_digests.json``: ``sha256(repr(load_string(text)))`` of the shipped
  architecture sources, ``examples/*.isdl`` and a seeded sample of
  ``resize_memory`` / ``narrow_register_file`` / ``drop_operation``
  variants, beside the digest of each text;
* ``parse_mutations.json``: the parse outcome of 320 seeded one-edit
  mutations of the shipped sources;
* ``parse_expressions.json``: the parsed action, or the error, of 400
  seeded RTL expressions that chain every binary operator without
  parentheses and mix in unary operators, ``?:``, parentheses, calls and
  storage reads; about one in seven has a token dropped.  The shipped
  sources barely exercise precedence and associativity; these pin both.

One difference is intended: input that the old lexer failed on with a bare
``ValueError`` (a non-decimal digit such as ``²`` inside an integer) now
fails with ``IsdlSyntaxError("unexpected character ...")``.
"""

import ast as pyast
import glob
import hashlib
import json
import os
import random

import pytest

from repro.arch import acc8, description_for, risc16, spam, spam2
from repro.errors import IsdlSyntaxError
from repro.explore import transforms
from repro.isdl import load_string, print_description
from repro.isdl.lexer import tokenize
from repro.isdl.parser import parse

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
SOURCES = {"acc8": acc8.ISDL_SOURCE, "risc16": risc16.ISDL_SOURCE,
           "spam": spam.ISDL_SOURCE, "spam2": spam2.ISDL_SOURCE}

#: single characters: the lexical alphabet, characters the grammar
#: rejects, and Unicode that str.isdigit/isalpha classify differently
CHARS = ("aBxXbf_09" " \t\r\n" '#"\\' "<>=!&|$.{}()[]:;,?~^+-*/%@" "`'"
         "²٣éⅧ\f\xa0")
#: multi-character fragments, so literals and operators occur whole
FRAGMENTS = ("0x", "0X", "0b", "0B", "1_0", "0x1F", "0b10", "42", "ab",
             "field", "$$", "<-", "<<", ">>", "<=", ">=", "==", "!=", "&&",
             "||", "..", '"s"', '"\\"', "#c\n", "1²", "٣١")

#: a description whose action assigns one expression
EXPRESSION = ('processor "p"\nsection format word 8 end\n'
              'section storage register_file R width 8 depth 4\n'
              '    register A width 8 end\n'
              'section instruction_set field F operation o(x: T)\n'
              '    encoding { bits[0] = 1 }\n'
              '    action { A <- %s; }\nend end\n')

#: a description whose action embeds the string under test twice: once
#: as an expression, once between two operands
EMBEDDING = ('processor "p"\nsection format word 8 end\n'
             'section storage register_file R width 8 depth 4\n'
             '    register A width 8 end\n'
             'section instruction_set field F operation o(x: T)\n'
             '    encoding { bits[0] = 1 }\n'
             '    action { A <- %s; R[x] <- A %s 1; }\nend end\n')


def random_source(rng: random.Random) -> str:
    """A short string of one to eight characters or fragments."""
    return "".join(
        rng.choice(CHARS) if rng.random() < 0.6 else rng.choice(FRAGMENTS)
        for _ in range(rng.randint(1, 8))
    )


def _load(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as handle:
        return json.load(handle)


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _assert_former_value_error(exc):
    """The old lexer's int() raised ValueError on a non-decimal digit;
    the new one stops the integer before it and rejects the digit."""
    prefix = "unexpected character "
    assert exc.message.startswith(prefix), exc.message
    char = pyast.literal_eval(exc.message[len(prefix):])
    assert char.isdigit() and not char.isdecimal(), exc.message


def test_lexer_matches_golden_cases():
    cases = _load("lexer_cases.json")["cases"]
    assert len(cases) == 512
    for source, expected in cases:
        try:
            tokens = tokenize(source, "g.isdl")
        except IsdlSyntaxError as exc:
            assert isinstance(expected, dict), (source, exc)
            if expected["error"] == "ValueError":
                _assert_former_value_error(exc)
                continue
            assert expected["error"] == "IsdlSyntaxError", source
            assert exc.message == expected["message"], source
            location = exc.location
            assert location.filename == "g.isdl"
            assert [location.line, location.column] == expected["at"], source
            continue
        assert not isinstance(expected, dict), (source, expected)
        got = [[t.kind, t.value, t.text, t.location.line, t.location.column]
               for t in tokens]
        assert got == expected, source
        assert all(t.location.filename == "g.isdl" for t in tokens)
        assert all((t.line, t.column) == (t.location.line, t.location.column)
                   for t in tokens)


def _text_of(entry):
    kind, _, rest = entry["text"].partition(":")
    if kind == "arch":
        return SOURCES[rest]
    if kind == "variant":
        desc = description_for(rest)
        for step in entry["steps"]:
            if step[0] == "resize":
                desc = transforms.resize_memory(desc, step[1], step[2])
            elif step[0] == "narrow":
                desc = transforms.narrow_register_file(desc, step[1])
            else:
                desc = transforms.drop_operation(desc, step[1], step[2])
        return print_description(desc)
    with open(os.path.join(ROOT, entry["text"]), encoding="utf-8") as handle:
        return handle.read()


_DIGESTS = _load("parse_digests.json")["texts"]


def test_digests_cover_every_shipped_text():
    names = {entry["text"] for entry in _DIGESTS}
    assert {f"arch:{name}" for name in SOURCES} <= names
    examples = glob.glob(os.path.join(ROOT, "examples", "*.isdl"))
    assert {"examples/" + os.path.basename(p) for p in examples} <= names
    assert sum(1 for n in _DIGESTS if n["text"].startswith("variant:")) == 32


@pytest.mark.parametrize(
    "entry", _DIGESTS,
    ids=[f"{i}-{entry['text']}" for i, entry in enumerate(_DIGESTS)],
)
def test_parse_repr_digest_is_unchanged(entry):
    text = _text_of(entry)
    # a different input is a printer or transform change, not a parse one
    assert _sha256(text) == entry["sha256"], "input text changed"
    assert _sha256(repr(load_string(text))) == entry["repr_sha256"]


def test_parse_outcomes_of_mutated_sources_are_unchanged():
    mutations = _load("parse_mutations.json")["mutations"]
    assert len(mutations) == 320
    for name, edit, expected in mutations:
        source = SOURCES[name]
        action, at, arg = edit
        if action == "delete":
            mutated = source[:at] + source[at + arg:]
        else:
            mutated = source[:at] + arg + source[at:]
        try:
            got = ["ok", _sha256(repr(parse(mutated, "m.isdl")))[:16]]
        except IsdlSyntaxError as exc:
            if expected[0] == "ValueError":
                _assert_former_value_error(exc)
                continue
            location = exc.location
            got = ["IsdlSyntaxError", exc.message]
            if location is not None:
                assert location.filename == "m.isdl"
                got += [location.line, location.column]
        assert got == expected, (name, edit)


def test_parsed_expressions_are_unchanged():
    expressions = _load("parse_expressions.json")["expressions"]
    assert len(expressions) == 400
    for source, expected in expressions:
        try:
            desc = parse(EXPRESSION % source, "e.isdl")
        except IsdlSyntaxError as exc:
            location = exc.location
            got = ["IsdlSyntaxError", exc.message,
                   location.line, location.column]
        else:
            action = desc.fields[0].operations[0].action
            got = ["ok", _sha256(repr(action))[:16]]
        assert got == expected, source


def test_front_end_raises_nothing_but_isdl_syntax_errors():
    rng = random.Random(20000)
    for _ in range(20_000):
        source = random_source(rng)
        for run, text in ((tokenize, source), (parse, source),
                          (parse, EMBEDDING % (source, source))):
            try:
                run(text)
            except IsdlSyntaxError:
                pass
