"""Tests for table rendering."""

from repro.analysis.report import format_table


def test_headers_and_alignment():
    out = format_table(["name", "value"], [["a", 1.5], ["bb", 20.25]])
    lines = out.splitlines()
    assert "name" in lines[0] and "value" in lines[0]
    assert "-+-" in lines[1]
    # numeric column right-aligned: both value cells end at same offset
    assert lines[2].rstrip().endswith("1.500")
    assert lines[3].rstrip().endswith("20.250")


def test_float_format_override():
    out = format_table(["x"], [[1.23456]], float_fmt=".1f")
    assert "1.2" in out and "1.23" not in out


def test_integers_rendered_without_decimals():
    out = format_table(["n"], [[42]])
    assert "42" in out and "42.0" not in out


def test_title_prepended():
    out = format_table(["a"], [["x"]], title="My Table")
    assert out.splitlines()[0] == "My Table"


def test_empty_rows_ok():
    out = format_table(["a", "b"], [])
    assert "a" in out
