"""The README's command examples, run through ``cli.main``.

Every ``$ biq ...`` line in a fenced block is a command; the lines after it,
up to a blank line, the next command or the fence, are its stdout. A ``...``
line stands for any run of lines.
"""

import re
import shlex
from pathlib import Path

import pytest

from biquandles.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples():
    examples, fenced, current = [], False, None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced, current = not fenced, None
        elif fenced and line.startswith("$ biq "):
            current = (line[len("$ "):], [])
            examples.append(current)
        elif not line.strip() or not fenced:
            current = None
        elif current is not None:
            current[1].append(line)
    return examples


def _pattern(expected):
    return "".join(r"(?:.*\n)*?" if line == "..." else re.escape(line) + r"\n" for line in expected)


EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(EXAMPLES) == 6


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[command for command, _ in EXAMPLES])
def test_readme_example(capsys, command, expected):
    assert main(shlex.split(command)[1:]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert re.fullmatch(_pattern(expected), captured.out), captured.out
