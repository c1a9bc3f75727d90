"""The README's command examples, run through ``cli.main``.

Every ``$ biq ...`` line in a fenced block is a command; the lines after it,
up to a blank line, the next command or the fence, are its stdout. A ``...``
line stands for any run of lines.
"""

import ast
import re
import shlex
import sys
from pathlib import Path

import pytest

from biquandles.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def test_readme_python_example(capsys):
    """The library example prints the presentation the ``biq present`` example
    shows, a blank line (``render`` ends in a newline), then the polynomial its
    comment names."""
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    exec(compile(block, str(README), "exec"), {})
    (polynomial,) = re.findall(r"print\(gap_text\(word\)\)  # (.+)", block)
    presentation = dict(EXAMPLES)['biq present --braid "n=2; v1 s1"']
    assert capsys.readouterr().out == "\n".join(presentation) + "\n\n" + polynomial + "\n"


def test_only_runtime_dependency_is_numpy():
    """The README says numpy is the one runtime dependency: every absolute
    import in the package is the standard library or numpy, and the
    project metadata lists numpy alone."""
    for path in sorted((ROOT / "src" / "biquandles").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "numpy", (path.name, name)
    assert 'dependencies = ["numpy>=1.24"]' in (ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines()


def test_readme_names_every_refusal_cap():
    """Every module-level cap, a name matching ``MAX_*`` or ``*_LIMIT``, is
    named in the README as ``module.NAME``."""
    caps = []
    for path in sorted((ROOT / "src" / "biquandles").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name) and re.fullmatch(r"MAX_\w+|\w+_LIMIT", target.id):
                    caps.append(f"`{path.stem}.{target.id}`")
    assert "`laurent.MAX_MATRIX_CELLS`" in caps and "`cli.MAX_PRESENT_BYTES`" in caps
    text = README.read_text(encoding="utf-8")
    assert [cap for cap in caps if cap not in text] == []
