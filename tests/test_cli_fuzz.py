"""The command-line contract under random argv and random input files.

Every run exits 0, 1 or 2. A nonzero exit prints nothing on stdout and
exactly one stderr line, starting ``error: ``; a success prints nothing on
stderr. No run lets an exception out of ``main``. Inputs stay small (n <= 6,
L <= 10, trials <= 3, carriers <= 5 or far above the 625-element cap) so
every run is quick, also under ``--force``.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from biquandles.braids import random_braid, render_braid_word
from biquandles.cli import main
from biquandles.terms import presentation_from_braid

# Integers around every bound the commands check, and far beyond them; LONG
# has more digits than ``int`` converts from text.
LONG = "9" * 5000
HUGE = [2**31 - 1, 2**31, 2**63, 10**40, -(10**40)]
INTS = st.one_of(st.integers(-3, 5), st.sampled_from(HUGE))
# Texts that Python's int() reads but the integer flags refuse.
NON_ASCII_INTS = ["\u0663", "0_3", "+3", " 3"]
INT_TEXTS = st.one_of(INTS.map(str), st.sampled_from([LONG, "-" + LONG, "\u0662", "\u00b2", *NON_ASCII_INTS]))

# Words within n <= 6 and L <= 10, valid, truncated, or assembled from
# plausible and broken tokens.
VALID_WORDS = st.builds(
    lambda n, length, seed: render_braid_word(random_braid(n, length, seed)),
    st.integers(1, 6),
    st.integers(0, 10),
    st.integers(0, 10**6),
)
HEADERS = st.sampled_from(
    ["n=1;", "n=2;", "n=4;", "n=6;", "n=0;", "n=-2;", "n=x;", "n=3", "", "m=3;", "n=2;;", f"n={LONG};", "n=\u00b2;"]
)
LETTERS = st.builds(
    lambda sign, kind, index: f"{sign}{kind}{index}",
    st.sampled_from(["", "-", "+", "--"]),
    st.sampled_from(["s", "v", "x", ""]),
    st.sampled_from(["1", "2", "5", "0", "-1", "9", "99999999999999999999", LONG, "\u0661", "\u00b9", ""]),
)
BROKEN_WORDS = st.builds(lambda h, ls: " ".join([h, *ls]), HEADERS, st.lists(LETTERS, max_size=10))
WORDS = st.one_of(
    VALID_WORDS,
    VALID_WORDS,
    BROKEN_WORDS,
    st.builds(lambda w, k: w[:k], VALID_WORDS, st.integers(0, 40)),
)


def _misspell(text: str, at: int, char: str) -> str:
    if not text:
        return char
    at %= len(text)
    return text[:at] + char + text[at + 1 :]


def _text_variants(valid):
    """Valid text, truncated, with one character replaced, or with a line dropped."""
    return st.one_of(
        valid,
        valid,
        st.builds(lambda t, k: t[:k], valid, st.integers(0, 200)),
        st.builds(_misspell, valid, st.integers(0, 10**4), st.sampled_from(list("x(),=# \n1-\u00b2\u0662"))),
        st.builds(lambda t, k: "\n".join(line for i, line in enumerate(t.split("\n")) if i != k), valid, st.integers(0, 8)),
    )


PRESENTATIONS = _text_variants(
    st.builds(
        lambda n, length, seed: presentation_from_braid(random_braid(n, length, seed)).render(),
        st.integers(1, 6),
        st.integers(0, 10),
        st.integers(0, 10**6),
    )
)


@st.composite
def table_texts(draw):
    """A table file on at most 5 elements with entries in range, under a size line that may be off."""
    size = draw(st.integers(1, 5))
    header = draw(st.sampled_from(["size", "size", "size", "sise", "size -", f"size {LONG}", "size \u00b2"]))
    lines = [f"{header} {size}"]
    for op in ("ur", "lr", "ul", "ll"):
        lines.append(op)
        lines += [" ".join(str(draw(st.integers(0, size - 1))) for _ in range(size)) for _ in range(size)]
    return "\n".join(lines) + "\n"


TABLES = _text_variants(table_texts())

ODD_BYTES = st.one_of(
    st.binary(max_size=120),
    st.sampled_from([b"\xff\xfe gens a", b"gens a\nrel a = \xe9\n", b"\x00" * 10, b""]),
)

# Values for each flag; FILE stands for the file the example writes.
FILE = object()
PATHS = st.sampled_from([FILE, FILE, FILE, "/no/such/file.bq", "."])
FLAG_VALUES = {
    "--braid": WORDS,
    "--presentation": PATHS,
    "--tables": PATHS,
    "--alexander": st.one_of(
        st.builds(lambda m, s, t: f"{m},{s},{t}", st.integers(-2, 5) | st.sampled_from(HUGE), INTS, INTS),
        st.sampled_from(["5,2,3", "3,1,1", "4,1,3", "5,2", "5,2,3,4", "a,b,c", "", "5,,3", "1e3,2,3", f"{LONG},1,1"]),
    ),
    "--quaternionic": st.sampled_from(
        ["-7", "-1", "0", "1", "2", "4", "9", "x", "3.0", LONG, *NON_ASCII_INTS] + [str(v) for v in HUGE]
    ),
    "--prime": st.one_of(INT_TEXTS, st.sampled_from(["7", "9", str(2**31 - 19), "p", ""])),
    "--trials": st.one_of(
        st.integers(-3, 3).map(str), st.sampled_from(["-99999999999999999999", "1.5", "x", LONG, *NON_ASCII_INTS])
    ),
    "--seed": st.one_of(INT_TEXTS, st.sampled_from(["s", ""])),
    "--op": st.sampled_from(["invert", "mirror", "ad", "reduce", "reverse", ""]),
}
V = FLAG_VALUES
# Each command's well-formed shapes: alternatives of flag and value lists.
SHAPES = {
    "present": [["--braid", V["--braid"]], ["--braid", V["--braid"], "--down"]],
    "gap": [["--braid", V["--braid"]], ["--presentation", V["--presentation"]]],
    "axioms": [
        [flag, V[flag], *force] for flag in ("--alexander", "--quaternionic", "--tables") for force in ([], ["--force"])
    ],
    "qcheck": [
        ["--presentation", V["--presentation"]],
        ["--presentation", V["--presentation"], "--prime", V["--prime"]],
        ["--kishino", "--prime", V["--prime"]],
    ],
    "invariance": [["--braid", V["--braid"], "--trials", V["--trials"], "--seed", V["--seed"]]],
    "convert": [["--braid", V["--braid"], "--op", V["--op"]]],
}
STRAYS = [*FLAG_VALUES, "--down", "--kishino", "--help", "--force=1", "extra", "-", "--", "gap", "n=2; s1"]


@st.composite
def command_lines(draw):
    """A well-formed command line, then up to two edits: a token dropped, a
    stray flag or word inserted, or the command misspelled."""
    command = draw(st.sampled_from(list(SHAPES)))
    shape = draw(st.sampled_from(SHAPES[command]))
    argv = [command] + [part if isinstance(part, str) else draw(part) for part in shape]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        edit = draw(st.sampled_from(["drop", "insert", "command"]))
        at = draw(st.integers(0, len(argv)))
        if edit == "drop" and argv:
            del argv[min(at, len(argv) - 1)]
        elif edit == "insert":
            stray = draw(st.sampled_from(STRAYS))
            with_value = stray in FLAG_VALUES and draw(st.booleans())
            argv[at:at] = [stray, draw(FLAG_VALUES[stray])] if with_value else [stray]
        elif argv:
            argv[0] = draw(st.sampled_from(["", "gapp", "-x", "Gap", *SHAPES]))
    # Mostly the kind of file the flag reads, sometimes the other kind or raw bytes.
    own, other = (TABLES, PRESENTATIONS) if "--tables" in argv else (PRESENTATIONS, TABLES)
    data = draw(st.one_of(own, own, own, other).map(str.encode) | ODD_BYTES)
    return argv, data


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # --help prints its usage and exits 0
            code = ("help", e.code)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(command_lines())
def test_exit_code_and_single_error_line(input_path, case):
    argv, data = case
    input_path.write_bytes(data)
    argv = [str(input_path) if a is FILE else a for a in argv]
    code, out, err = run_cli(argv)
    if code == ("help", 0):
        assert "--help" in argv and out.startswith("usage: ") and err == ""
        return
    assert code in (0, 1, 2), argv
    if code == 0:
        assert err == "", argv
    else:
        assert out == "", argv
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, (argv, err)
    assert "Traceback" not in out + err
