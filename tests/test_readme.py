"""The README's quick start runs, its CLI examples parse, and its entry points exist."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import nbwalk
from nbwalk.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert "kappa=1.316074 pi_hub=0.267949 t_hub=3.065384" in capsys.readouterr().out


def test_readme_cli_examples_parse():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line, comments=True) for line in lines if line.startswith("nbwalk ")]
    assert len(commands) >= 8
    for argv in commands:
        build_parser().parse_args(argv[1:])


def test_readme_entry_points_are_real():
    # The list after "Key entry points:" names public attributes of nbwalk,
    # or methods of one (`Graph.from_edges`).
    entries = README.read_text().split("Key entry points:", 1)[1].split("\n\n")[1]
    names = re.findall(r"`([^`]+)`", entries)
    assert len(names) >= 20
    missing = []
    for name in names:
        owner = nbwalk
        for attr in name.split("."):
            owner = getattr(owner, attr, None)
        if owner is None:
            missing.append(name)
    assert missing == []
