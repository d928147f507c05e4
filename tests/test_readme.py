"""The README's library example runs and prints what its comments say, and
its command-line reference covers every subcommand."""

import argparse
import re
from pathlib import Path

from soupdiv.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (library)", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_example_runs(capsys):
    code = quick_start_block()
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    comments = [
        line.split("#", 1)[1].strip() for line in code.splitlines() if line.startswith("print(")
    ]
    assert len(printed) == len(comments)
    for out, comment in zip(printed, comments):
        if comment.startswith("includes "):
            assert comment.removeprefix("includes ") in out
        else:
            assert out == comment


def test_command_line_headings_name_every_subcommand_in_order():
    text = README.read_text(encoding="utf-8")
    headings = re.findall(r"^### `soupdiv ([\w-]+) ", text, re.M)
    (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert headings == list(action.choices)
