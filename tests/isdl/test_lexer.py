"""Unit tests for the ISDL tokenizer."""

import pytest

from repro.errors import IsdlSyntaxError, SourceLocation
from repro.isdl.lexer import tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source) if t.kind != "EOF"]


def test_empty_source_yields_only_eof():
    tokens = tokenize("")
    assert len(tokens) == 1
    assert tokens[0].kind == "EOF"


def test_identifiers_and_keywords_are_ids():
    tokens = tokenize("section format word register_file _x9")
    assert [t.kind for t in tokens[:-1]] == ["ID"] * 5
    assert tokens[0].value == "section"


def test_decimal_hex_binary_integers():
    tokens = tokenize("42 0x2A 0b101010 1_000")
    values = [t.value for t in tokens if t.kind == "INT"]
    assert values == [42, 42, 42, 1000]


def test_malformed_hex_literal_raises():
    with pytest.raises(IsdlSyntaxError):
        tokenize("0x")


def test_malformed_binary_literal_raises():
    with pytest.raises(IsdlSyntaxError):
        tokenize("0b")


def test_string_literal_with_escape():
    tokens = tokenize(r'"he said \"hi\""')
    assert tokens[0].kind == "STRING"
    assert tokens[0].value == 'he said "hi"'


def test_unterminated_string_raises():
    with pytest.raises(IsdlSyntaxError):
        tokenize('"oops')


def test_string_may_not_span_lines():
    with pytest.raises(IsdlSyntaxError):
        tokenize('"one\ntwo"')


def test_comments_are_skipped():
    tokens = tokenize("a # everything after is gone\nb")
    assert texts("a # gone\nb") == ["a", "b"]
    assert len(tokens) == 3  # a, b, EOF


def test_maximal_munch_on_operators():
    assert texts("a <- b << 2 <= 3") == ["a", "<-", "b", "<<", "2", "<=", "3"]


def test_double_dollar_token():
    tokens = tokenize("$$ <- 1")
    assert tokens[0].value == "$$"


def test_range_dots():
    tokens = tokenize("0 .. 15")
    assert [t.text for t in tokens[:-1]] == ["0", "..", "15"]


def test_locations_track_lines_and_columns():
    tokens = tokenize("ab\n  cd", filename="f.isdl")
    assert tokens[0].location.line == 1
    assert tokens[0].location.column == 1
    assert tokens[1].location.line == 2
    assert tokens[1].location.column == 3
    assert tokens[1].location.filename == "f.isdl"


def test_unexpected_character_reports_location():
    with pytest.raises(IsdlSyntaxError) as excinfo:
        tokenize("a\n  `")
    assert "2:3" in str(excinfo.value)


def test_non_decimal_digit_is_an_unexpected_character():
    # '²' passes str.isdigit() but int() rejects it: the integer stops
    # before it and the digit itself is reported
    with pytest.raises(IsdlSyntaxError) as excinfo:
        tokenize("x 1²", filename="f.isdl")
    assert excinfo.value.message == "unexpected character '²'"
    assert str(excinfo.value.location) == "f.isdl:1:4"


def test_unicode_decimal_digits_are_integers():
    tokens = tokenize("٣١ é")
    assert [(t.kind, t.value) for t in tokens[:-1]] == [
        ("INT", 31), ("ID", "é")]


def test_escaped_newline_in_a_string_advances_the_line():
    tokens = tokenize('"a\\\nb" c')
    assert tokens[0].value == "a\nb"
    assert (tokens[1].line, tokens[1].column) == (2, 4)


def test_location_is_built_from_the_token_fields():
    token = tokenize("\n  ab", filename="f.isdl")[0]
    assert (token.filename, token.line, token.column) == ("f.isdl", 2, 3)
    assert token.location == SourceLocation("f.isdl", 2, 3)
