"""The README's Python quick start runs as written, and its CLI examples parse."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

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
