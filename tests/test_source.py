"""Checks on the library source itself."""

from __future__ import annotations

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "nbwalk").glob("*.py"))


def test_library_has_no_assert_statements():
    # ``python -O`` strips an assert, and a failing one is a traceback, not a
    # documented exit code: every check in the library raises an NbwalkError.
    assert SOURCES
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
