"""The README's library example runs and prints what its comments say."""

import re
from pathlib import Path

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
