"""Tests for the ``repro-lint`` command line."""

import json
import os

import pytest

from repro.analyze.cli import main

AMBIGUOUS = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir,
    "examples", "ambiguous.isdl",
)


def test_ambiguous_example_fails_with_isdl101(capsys):
    assert main([AMBIGUOUS]) == 2
    out = capsys.readouterr().out
    assert "error ISDL101" in out
    assert "EX.a" in out and "EX.b" in out


def test_all_arch_descriptions_lint_clean(capsys):
    assert main(["--all-arch"]) == 0
    out = capsys.readouterr().out
    for name in ("RISC16", "SPAM2", "ACC8"):
        assert f"{name}: 0 error(s), 0 warning(s)" in out


def test_single_arch_selection(capsys):
    assert main(["--arch", "spam2"]) == 0
    out = capsys.readouterr().out
    assert "SPAM2" in out and "RISC16" not in out


def test_json_format_is_machine_readable(capsys):
    assert main([AMBIGUOUS, "--format=json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["tool"] == "repro-lint"
    assert payload["max_severity"] == "error"
    codes = [
        d["code"]
        for target in payload["targets"]
        for d in target["diagnostics"]
    ]
    assert "ISDL101" in codes


def test_sarif_format_and_out_file(tmp_path, capsys):
    out_path = tmp_path / "lint.sarif"
    assert main([AMBIGUOUS, "--format=sarif", "--out", str(out_path)]) == 2
    assert capsys.readouterr().out == ""  # report went to the file
    sarif = json.loads(out_path.read_text())
    assert sarif["version"] == "2.1.0"
    assert any(
        r["ruleId"] == "ISDL101" for r in sarif["runs"][0]["results"]
    )


def test_fail_on_info_makes_clean_arch_fail_with_1(capsys):
    # the built-ins have INFO findings (opcode holes), so tightening the
    # threshold to info must fail with 1 (no errors present)
    assert main(["--arch", "risc16", "--fail-on", "info"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("content, message", [
    (b"processor !!!\n", "expected string"),
    # a non-decimal digit: str.isdigit() accepts it, int() does not
    ('processor "p" section format word 1\u00b2 end\n'.encode("utf-8"),
     "unexpected character '\u00b2'"),
    (b"processor \xff\n", "cannot read"),  # not UTF-8
], ids=["syntax", "superscript-digit", "not-utf8"])
def test_parse_error_is_a_diagnostic_not_a_crash(tmp_path, capsys,
                                                 content, message):
    bad = tmp_path / "bad.isdl"
    bad.write_bytes(content)
    assert main([str(bad)]) == 2
    out = capsys.readouterr().out
    assert "ISDL001" in out
    assert message in out


def test_missing_file_is_a_diagnostic(tmp_path, capsys):
    assert main([str(tmp_path / "nope.isdl")]) == 2
    assert "ISDL001" in capsys.readouterr().out


def test_unknown_arch_is_a_diagnostic(capsys):
    assert main(["--arch", "z80"]) == 2
    assert "unknown architecture" in capsys.readouterr().out


def test_list_codes_prints_registry(capsys):
    assert main(["--list-codes"]) == 0
    out = capsys.readouterr().out
    for name in ("semantic", "decode-ambiguity", "constraints",
                 "rtl-dataflow", "unused-definitions", "encoding-space"):
        assert name in out


def test_no_targets_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
