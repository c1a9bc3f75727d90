import os
import subprocess
import sys
import time
from math import prod
from pathlib import Path

import pytest

import biquandles
from biquandles import alexander, cli, finite, quaternion
from biquandles.braids import BraidWord, random_braid, render_braid_word
from biquandles.cli import main, run
from biquandles.laurent import ONE, S, LaurentPoly, cofactor_determinant, format_poly
from biquandles.terms import BQPresentation, parse_presentation, presentation_from_braid, presentation_from_braid_down
from biquandles.terms import presentation_size_floor

# Child interpreters import the same package the tests imported, also from a
# checkout where only pytest's own pythonpath setting points at src/.
_PACKAGE_ROOT = str(Path(biquandles.__file__).resolve().parents[1])
_CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")])),
}


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def diagonal_presentation(path, count):
    """Write ``count`` generators, each with the relation ur(g,g) = g, to path."""
    names = [f"g{i}" for i in range(1, count + 1)]
    path.write_text("gens " + " ".join(names) + "\n" + "".join(f"rel ur({g},{g}) = {g}\n" for g in names))
    return path


class TestPresent:
    def test_upward(self, capsys):
        code, out, err = invoke(capsys, "present", "--braid", "n=2; v1 s1")
        assert code == 0 and err == ""
        assert out == "gens a b\nrel ur(a,b) = a\nrel lr(b,a) = b\n"

    def test_downward(self, capsys):
        code, out, err = invoke(capsys, "present", "--braid", "n=2; -s1 v1", "--down")
        assert code == 0
        assert out == "gens a b\nrel lr(b,a) = b\nrel ur(a,b) = a\n"

    @pytest.mark.parametrize("down", [[], ["--down"]])
    def test_long_text_refused_before_rendering(self, capsys, monkeypatch, down):
        """The text of this 50-letter word is about 2.7 GB; its DAG is small."""

        def never(self):
            raise AssertionError("the presentation was rendered")

        monkeypatch.setattr(BQPresentation, "render", never)
        word = render_braid_word(random_braid(3, 50, seed=2))
        start = time.perf_counter()
        code, out, err = invoke(capsys, "present", "--braid", word, *down)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == "error: presentation text would be 2697591863 bytes, above the limit of 2^26\n"

    def test_text_of_exactly_the_limit_is_printed(self, capsys, monkeypatch):
        text = "gens a b\nrel ur(a,b) = a\nrel lr(b,a) = b\n"
        monkeypatch.setattr(cli, "MAX_PRESENT_BYTES", len(text))
        assert invoke(capsys, "present", "--braid", "n=2; v1 s1") == (0, text, "")
        monkeypatch.setattr(cli, "MAX_PRESENT_BYTES", len(text) - 1)
        code, out, err = invoke(capsys, "present", "--braid", "n=2; v1 s1")
        assert (code, out) == (2, "") and err.count("error: ") == 1


class TestGap:
    def test_braid_source(self, capsys):
        code, out, err = invoke(capsys, "gap", "--braid", "n=2; v1 s1")
        assert (code, out, err) == (0, "1 - s - t + s*t\n", "")

    def test_presentation_source(self, capsys, tmp_path):
        path = tmp_path / "hopf.bq"
        path.write_text("gens a b\nrel ur(a,b) = a\nrel lr(b,a) = b\n")
        code, out, err = invoke(capsys, "gap", "--presentation", str(path))
        assert (code, out) == (0, "1 - s - t + s*t\n")

    def test_braid_builds_no_presentation(self, capsys, monkeypatch):
        """A braid's relation matrix is braid_matrix_up minus the identity,
        for gap and for every invariance trial."""
        built = []
        init = BQPresentation.__post_init__
        monkeypatch.setattr(BQPresentation, "__post_init__", lambda self: built.append(self) or init(self))
        word = "n=3; s1 v2 -s1 v1"
        assert invoke(capsys, "gap", "--braid", word)[0] == 0
        assert invoke(capsys, "invariance", "--braid", word, "--trials", "3", "--seed", "0")[0] == 0
        assert len(built) == 0

    def test_parse_error_exits_one(self, capsys):
        code, out, err = invoke(capsys, "gap", "--braid", "n=2; s9")
        assert code == 1 and out == ""
        assert err.startswith("error: ")

    def test_non_ascii_digits_exit_one(self, capsys):
        code, out, err = invoke(capsys, "gap", "--braid", "n=٢; v١ s١")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_missing_file_exits_one(self, capsys):
        code, out, err = invoke(capsys, "gap", "--presentation", "/no/such/file.bq")
        assert code == 1 and err.startswith("error: ")

    def test_non_square_presentation_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.bq"
        path.write_text("gens a b\nrel ur(a,b) = a\n")
        code, out, err = invoke(capsys, "gap", "--presentation", str(path))
        assert code == 2 and err.startswith("error: ")

    def test_presentation_without_relations_exits_two(self, capsys, tmp_path):
        """No relations used to give a 0x0 matrix, whose determinant 1 was printed."""
        path = tmp_path / "norel.bq"
        path.write_text("gens a b\n")
        code, out, err = invoke(capsys, "gap", "--presentation", str(path))
        assert (code, out) == (2, "")
        assert err == "error: need a square system, got 0 relations for 2 generators\n"

    @pytest.mark.parametrize("source", ["braid", "presentation"])
    def test_oversized_matrix_refused_before_filling(self, capsys, tmp_path, monkeypatch, source):
        """A 30000-strand word asked for about 7 GB of list slots and died
        with a MemoryError; no row may be linearized above the cap."""

        def never(*args):
            raise AssertionError("a row was linearized")

        monkeypatch.setattr(alexander, "braid_act_up", never)
        monkeypatch.setattr(alexander, "braid_act_down", never)
        monkeypatch.setattr(alexander, "linearize_relations", never)
        if source == "braid":
            argv, size = ["--braid", "n=30000;"], 30000
        else:
            argv, size = ["--presentation", str(diagonal_presentation(tmp_path / "wide.bq", 5000))], 5000
        start = time.perf_counter()
        code, out, err = invoke(capsys, "gap", *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: matrix would have {size}x{size} = {size * size} cells, above the limit of 2^24\n"

    def test_diagonal_file_is_a_product_of_one_by_one_blocks(self, tmp_path):
        """Each relation ur(g,g) = g involves its own generator only, so the
        1000 x 1000 matrix is diagonal; evaluated whole it ran for minutes."""
        proc, seconds = _run_child("gap", "--presentation", str(diagonal_presentation(tmp_path / "diagonal.bq", 1000)))
        assert seconds < 20
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == format_poly(prod([ONE - S] * 1000, start=ONE)) + "\n"

    def test_deep_right_nested_entry_is_read_off(self, tmp_path):
        """ur(a,ur(a,...ur(a,a)...)) = a, 400 deep, is one 1 x 1 block whose
        entry has s- and t-degree near 400; evaluated on its degree grid it
        took about 20 s."""
        depth = 400
        text = "gens a\nrel " + "ur(a," * depth + "a" + ")" * depth + " = a\n"
        path = tmp_path / "deep.bq"
        path.write_text(text)
        proc, seconds = _run_child("gap", "--presentation", str(path))
        assert seconds < 5
        assert (proc.returncode, proc.stderr) == (0, "")
        [[entry]] = alexander.relation_matrix_from_presentation(parse_presentation(text)).entries
        assert proc.stdout == format_poly(alexander.normalize_gap(entry)) + "\n"

    def test_deep_two_generator_block_takes_the_sheared_box(self, tmp_path):
        """ur(b,ur(b,...ur(b,a)...)) = b, 400 deep, with ur(a,b) = a, is one
        2 x 2 block whose entries lie on a band along i = j, near degree 400
        in s and in t. Its box in (i - j, j) has 1,206 points, not the
        161,604 of its box in (i, j), which took about 37 s."""
        depth = 400
        text = "gens a b\nrel " + "ur(b," * depth + "a" + ")" * depth + " = b\nrel ur(a,b) = a\n"
        path = tmp_path / "deep2.bq"
        path.write_text(text)
        proc, seconds = _run_child("gap", "--presentation", str(path))
        assert seconds < 5
        assert (proc.returncode, proc.stderr) == (0, "")
        m = alexander.relation_matrix_from_presentation(parse_presentation(text))
        assert proc.stdout == format_poly(alexander.normalize_gap(cofactor_determinant(m))) + "\n"

    def test_matrix_of_exactly_the_limit_is_filled(self, capsys, monkeypatch):
        monkeypatch.setattr(alexander, "MAX_MATRIX_CELLS", 4)
        assert invoke(capsys, "gap", "--braid", "n=2; v1 s1") == (0, "1 - s - t + s*t\n", "")
        code, out, err = invoke(capsys, "gap", "--braid", "n=3; v1 s1 s2")
        assert (code, out) == (2, "")
        assert err == "error: matrix would have 3x3 = 9 cells, above the limit of 2^24\n"

    def test_requires_exactly_one_source(self, capsys):
        code, out, err = invoke(capsys, "gap")
        assert code == 1 and err.startswith("error: ")


class TestAxioms:
    def test_linear_tables_pass(self, capsys):
        code, out, err = invoke(capsys, "axioms", "--alexander", "5,2,3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 9
        assert all(line.endswith(": pass") for line in lines)

    def test_quaternionic_reports_failures_but_exits_zero(self, capsys):
        code, out, err = invoke(capsys, "axioms", "--quaternionic", "3")
        assert (code, err) == (0, "")
        # One line per sweep shape: single and pair existentials, two- and
        # three-variable equation lists.
        assert out == (
            "axiom1: pass\n"
            "axiom1.variant: pass\n"
            "axiom2: pass\n"
            "axiom2.variant: fail [counterexample a=k]\n"
            "axiom3: fail [counterexample a=0 b=k (equation 1)]\n"
            "axiom4: fail [counterexample a=0 b=k]\n"
            "axiom4.variant: fail [counterexample a=0 b=k]\n"
            "axiom5: fail [counterexample a=0 b=0 c=k (equation 1)]\n"
            "axiom5.variant: pass\n"
        )

    def test_table_file(self, capsys, tmp_path):
        path = tmp_path / "tiny.tables"
        path.write_text("size 1\nur\n0\nlr\n0\nul\n0\nll\n0\n")
        code, out, err = invoke(capsys, "axioms", "--tables", str(path))
        assert code == 0 and out.count(": pass") == 9

    def test_malformed_params_exit_one(self, capsys):
        code, out, err = invoke(capsys, "axioms", "--alexander", "5,2")
        assert code == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("params", ["٥,٢,٣", "5_0,2,3", "+5,2,3", "5, 2,3"])
    def test_params_are_ascii_integers(self, capsys, params):
        code, out, err = invoke(capsys, "axioms", "--alexander", params)
        assert (code, out) == (1, "")
        assert err == f"error: expected m,s,t with three integers, got {params!r}\n"

    def test_negative_param_is_read(self, capsys):
        code, out, err = invoke(capsys, "axioms", "--alexander", "5,-2,3")
        assert (code, err) == (0, "")
        assert out.count(": pass\n") == 9

    def test_non_unit_parameter_exits_two(self, capsys):
        code, out, err = invoke(capsys, "axioms", "--alexander", "4,2,1")
        assert code == 2 and err.startswith("error: ")

    def test_non_prime_exits_two(self, capsys):
        code, out, err = invoke(capsys, "axioms", "--quaternionic", "6")
        assert code == 2 and err.startswith("error: ")

    def test_modulus_of_2_to_31_or_more_exits_two_at_once_under_force(self, capsys):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "axioms", "--quaternionic", "2305843009213693951", "--force")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == "error: modulus must be below 2^31, got 2305843009213693951\n"

    @pytest.mark.parametrize(
        "argv, size",
        [(["--quaternionic", "11"], 14641), (["--alexander", "100000,1,1"], 100000)],
    )
    def test_large_carrier_refused_before_building(self, capsys, monkeypatch, argv, size):
        def never(*args):
            raise AssertionError("a table or label was built")

        monkeypatch.setattr(finite, "_linear_biquandle", never)
        monkeypatch.setattr(finite, "Quaternion", never)
        code, out, err = invoke(capsys, "axioms", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: carrier size {size} exceeds the limit of 625 elements\n"

    @pytest.mark.parametrize("argv, size", [(["--alexander", "101,1,1"], 101), (["--quaternionic", "5"], 625)])
    def test_carrier_between_the_caps_needs_force(self, capsys, argv, size):
        code, out, err = invoke(capsys, "axioms", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: carrier size {size} exceeds 100; enable force to check anyway\n"

    @pytest.mark.parametrize("argv", [["--quaternionic", "5"], ["--alexander", "625,1,1"]])
    def test_force_still_builds_large_carriers(self, monkeypatch, argv):
        class Built(Exception):
            pass

        def builder(*args):
            raise Built

        monkeypatch.setattr(finite, "_linear_biquandle", builder)
        with pytest.raises(Built):
            main(["axioms", *argv, "--force"])

    @pytest.mark.parametrize(
        "argv, size",
        [(["--alexander", "1000003,2,3"], 1000003), (["--quaternionic", "2147483647"], 2147483647**4)],
    )
    def test_table_cap_holds_under_force(self, capsys, argv, size):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "axioms", *argv, "--force")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: carrier size {size} exceeds the limit of 625 elements\n"


def _run_child(*argv, preexec_fn=None):
    """Run ``python -m biquandles`` on argv; return the process and its wall time."""
    return _run_python("-m", "biquandles", *argv, preexec_fn=preexec_fn)


def _run_python(*args, preexec_fn=None):
    """Run the interpreter on args; return the process and its wall time."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=_CHILD_ENV,
        timeout=60,
        preexec_fn=preexec_fn,
    )
    return proc, time.perf_counter() - start


class TestForcedCapInAChild:
    """Above 625 elements every carrier is refused in well under a second,
    also under --force; below it a forced check runs to the end."""

    @pytest.mark.parametrize(
        "argv, size",
        [
            (["--quaternionic", "7"], 2401),
            (["--alexander", "1000003,2,3"], 1000003),
            (["--quaternionic", "2147483647"], 2147483647**4),
        ],
    )
    def test_forced_carrier_above_the_cap_exits_two_at_once(self, argv, size):
        proc, seconds = _run_child("axioms", *argv, "--force")
        assert seconds < 1
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: carrier size {size} exceeds the limit of 625 elements\n"

    @pytest.mark.parametrize("force", [[], ["--force"]], ids=["default", "force"])
    def test_table_file_is_refused_at_its_size_line(self, tmp_path, force):
        path = tmp_path / "big.tables"
        path.write_text("size 626\n")
        proc, seconds = _run_child("axioms", "--tables", str(path), *force)
        assert seconds < 1
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: carrier size 626 exceeds the limit of 625 elements\n"

    def test_forced_carrier_below_the_cap_is_checked(self):
        proc, _ = _run_child("axioms", "--alexander", "101,2,3", "--force")
        assert (proc.returncode, proc.stderr) == (0, "")
        lines = proc.stdout.splitlines()
        assert len(lines) == 9 and all(line.endswith(": pass") for line in lines)


class TestQcheck:
    def test_kishino_golden(self, capsys):
        code, out, err = invoke(capsys, "qcheck", "--kishino")
        assert (code, out, err) == (0, "nontrivial (rank 8 of 12, dim 4)\n", "")

    def test_presentation_with_prime(self, capsys, tmp_path):
        path = tmp_path / "one.bq"
        path.write_text("gens a\nrel ur(a,a) = a\n")
        code, out, err = invoke(capsys, "qcheck", "--presentation", str(path), "--prime", "5")
        assert (code, out) == (0, "trivial (rank 4 of 4, dim 0)\n")

    def test_non_prime_exits_two(self, capsys):
        code, out, err = invoke(capsys, "qcheck", "--kishino", "--prime", "4")
        assert code == 2 and err.startswith("error: ")

    def test_modulus_of_2_to_31_or_more_exits_two_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "qcheck", "--kishino", "--prime", "2305843009213693951")
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err == "error: modulus must be below 2^31, got 2305843009213693951\n"


    def test_negative_prime_exits_two(self, capsys):
        assert invoke(capsys, "qcheck", "--kishino", "--prime", "-3") == (2, "", "error: modulus must be prime, got -3\n")


# Each integer flag in a command line that is otherwise well formed.
_INT_FLAG_ARGV = {
    "--quaternionic": lambda v: ["axioms", "--quaternionic", v],
    "--prime": lambda v: ["qcheck", "--kishino", "--prime", v],
    "--trials": lambda v: ["invariance", "--braid", "n=2; s1", "--trials", v, "--seed", "1"],
    "--seed": lambda v: ["invariance", "--braid", "n=2; s1", "--trials", "1", "--seed", v],
}


@pytest.mark.parametrize("value", ["\u0663", "0_3", "+3", " 3"])
@pytest.mark.parametrize("flag", list(_INT_FLAG_ARGV))
def test_integer_flags_read_ascii_digits(capsys, flag, value):
    code, out, err = invoke(capsys, *_INT_FLAG_ARGV[flag](value))
    assert (code, out) == (1, "")
    assert err == f"error: argument {flag}: invalid int value: {value!r}\n"


_FILE_ARGVS = [["gap", "--presentation"], ["qcheck", "--presentation"], ["axioms", "--tables"]]


@pytest.mark.parametrize("argv", _FILE_ARGVS)
def test_file_that_is_not_utf8_exits_one(tmp_path, argv):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"gens a\nrel ur(a,a) = a # \xff\n")
    proc, _ = _run_child(*argv, str(path))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: cannot read {path}: not UTF-8 text (invalid start byte at byte 25)\n"


def _limit_memory_to_1_gb():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv", _FILE_ARGVS)
class TestInputFileCap:
    """An input file is read up to 2^26 bytes and refused above, before it
    is parsed: /dev/zero grew until memory ran out."""

    @pytest.fixture(scope="class")
    def long_file(self, tmp_path_factory):
        """A valid presentation followed by 2^26 bytes of '#'."""
        path = tmp_path_factory.mktemp("long") / "long.txt"
        path.write_bytes(b"gens a\nrel ur(a,a) = a\n" + b"#" * cli.MAX_PRESENT_BYTES)
        return path

    def test_valid_text_followed_by_a_long_comment_is_refused(self, long_file, argv):
        proc, _ = _run_child(*argv, str(long_file))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: input file {long_file} is above the limit of 2^26 bytes\n"

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
    def test_endless_file_is_refused_in_bounded_memory(self, argv):
        proc, _ = _run_child(*argv, "/dev/zero", preexec_fn=_limit_memory_to_1_gb)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: input file /dev/zero is above the limit of 2^26 bytes\n"


# Parses the presentation file argv[1] and prints how many tokens it read.
_COUNT_TOKEN_READS = """
import sys, types
from biquandles import terms
reads, read = [], terms._TOKEN_AT.match
terms._TOKEN_AT = types.SimpleNamespace(match=lambda *args: reads.append(1) or read(*args))
with open(sys.argv[1], encoding="utf-8") as f:
    terms.parse_presentation(f.read())
print(len(reads))
"""


class TestParseCostInAChild:
    """The parser reads each distinct subterm's text once, and slices memo keys
    in total length linear in the text."""

    def test_doubling_text_reads_each_distinct_subterm_once(self, tmp_path):
        """x_{k+1} = ur(x_k,x_k) at k = 19 is 3 MB of text, 2.6 million tokens,
        over 20 distinct terms. Read token by token, it took 1.2 s."""
        k, term = 19, "a"
        for _ in range(k):
            term = f"ur({term},{term})"
        path = tmp_path / "doubling.bq"
        path.write_text(f"gens a\nrel {term} = a\n")
        proc, seconds = _run_python("-c", _COUNT_TOKEN_READS, str(path))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert int(proc.stdout) == 6 * k + 3  # six reads per level, the right operand skipped
        assert seconds < 1

    def test_deep_chain_of_distinct_subterms_stays_linear(self, tmp_path):
        """Each of the 200,000 nested subterms is new, so every memo key would
        be sliced: about 10^11 characters without the key budget."""
        depth = 200_000
        path = tmp_path / "chain.bq"
        path.write_text("gens a b\nrel " + "ur(" * depth + "a" + ",b)" * depth + " = a\n")
        proc, seconds = _run_python("-c", _COUNT_TOKEN_READS, str(path), preexec_fn=_limit_memory_to_1_gb)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert int(proc.stdout) == 5 * depth + 4  # each token once
        assert seconds < 5


class TestDeterminantBlockCap:
    """A determinant block whose dense coefficient array would pass 2^24
    cells is refused before it is allocated: numpy's allocation failure
    ended in a traceback with exit 1."""

    @pytest.mark.parametrize(
        "n, letter, shape, cells",
        [(300, "s", "12x90000x299x1", 322920000), (1500, "v", "58x2250000x1x1", 130500000)],
    )
    def test_block_above_the_cap_exits_two(self, n, letter, shape, cells):
        word = f"n={n}; " + " ".join(f"{letter}{i}" for i in range(1, n))
        proc, _ = _run_child("gap", "--braid", word, preexec_fn=_limit_memory_to_1_gb)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: determinant block would have {shape} = {cells} cells, above the limit of 2^24\n"


LONG = "9" * 5000


@pytest.mark.parametrize(
    "argv, tables, message",
    [
        (["gap", "--braid", f"n={LONG};"], None, "strand count has 5000 digits, too many to read"),
        (["convert", "--braid", f"n=3; s{LONG}", "--op", "invert"], None, "letter index has 5000 digits, too many to read"),
        (["axioms", "--tables"], f"size {LONG}\n", "carrier size has 5000 digits, too many to read"),
        (["axioms", "--tables"], "size ²\nur\n0\n", "bad size line 'size ²'"),
    ],
    ids=["strand-count", "letter-index", "carrier-size", "superscript-size"],
)
def test_unreadable_number_exits_one(capsys, tmp_path, argv, tables, message):
    """Numbers longer than int() reads, and a superscript digit that passes
    str.isdigit, used to escape as a ValueError traceback."""
    if tables is not None:
        path = tmp_path / "t.tables"
        path.write_text(tables, encoding="utf-8")
        argv = [*argv, str(path)]
    assert invoke(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["gap", "qcheck"])
def test_deeply_nested_presentation(capsys, tmp_path, command):
    """Parsing and linearizing do not recurse per nesting level."""
    depth = 1200
    path = tmp_path / "deep.bq"
    path.write_text("gens a\nrel " + "ur(" * depth + "a" + ",a)" * depth + " = a\n")
    start = time.perf_counter()
    code, out, err = invoke(capsys, command, "--presentation", str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    assert out.count("\n") == 1


class TestInvariance:
    def test_reports_pass(self, capsys):
        code, out, err = invoke(
            capsys, "invariance", "--braid", "n=2; v1 s1", "--trials", "6", "--seed", "0"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "base gap: 1 - s - t + s*t"
        assert lines[-1] == "PASS"
        assert sum(1 for line in lines if line.startswith("trial ")) == 6

    def test_deterministic_for_seed(self, capsys):
        args = ("invariance", "--braid", "n=3; s1 v2", "--trials", "5", "--seed", "9")
        _, first, _ = invoke(capsys, *args)
        _, second, _ = invoke(capsys, *args)
        assert first == second

    def test_requires_trials_and_seed(self, capsys):
        code, out, err = invoke(capsys, "invariance", "--braid", "n=2; s1")
        assert code == 1 and err.startswith("error: ")

    def test_negative_trials_rejected(self, capsys):
        code, out, err = invoke(
            capsys, "invariance", "--braid", "n=2; s1", "--trials", "-1", "--seed", "0"
        )
        assert code == 1


class TestConvert:
    def test_invert(self, capsys):
        code, out, err = invoke(capsys, "convert", "--braid", "n=2; v1 s1", "--op", "invert")
        assert (code, out) == (0, "n=2; -s1 v1\n")

    def test_mirror_matches_invert(self, capsys):
        _, inverted, _ = invoke(capsys, "convert", "--braid", "n=3; s1 v2", "--op", "invert")
        _, mirrored, _ = invoke(capsys, "convert", "--braid", "n=3; s1 v2", "--op", "mirror")
        assert inverted == mirrored

    def test_ad(self, capsys):
        code, out, err = invoke(capsys, "convert", "--braid", "n=2; s1", "--op", "ad")
        assert (code, out) == (0, "n=2; v1 -s1 v1\n")

    def test_reduce(self, capsys):
        code, out, err = invoke(capsys, "convert", "--braid", "n=2; s1 -s1 v1", "--op", "reduce")
        assert (code, out) == (0, "n=2; v1\n")

    def test_unknown_op_exits_one(self, capsys):
        code, out, err = invoke(capsys, "convert", "--braid", "n=2; s1", "--op", "twist")
        assert code == 1 and err.startswith("error: ")


class TestTopLevel:
    def test_unknown_subcommand_exits_one(self, capsys):
        code, out, err = invoke(capsys, "nonsense")
        assert code == 1 and err.startswith("error: ")

    def test_no_arguments_exits_one(self, capsys):
        code, out, err = invoke(capsys)
        assert code == 1 and err.startswith("error: ")

    def test_run_alias(self, capsys):
        assert run(["gap", "--braid", "n=2; v1 s1"]) == 0
        assert capsys.readouterr().out == "1 - s - t + s*t\n"

    def test_cached_parser_matches_fresh_parsers(self, capsys, monkeypatch, tmp_path):
        pres = tmp_path / "hopf.txt"
        pres.write_text("gens a b\nrel ur(a,b) = a\nrel lr(b,a) = b\n")
        argvs = [
            ["gap", "--braid", "n=2; v1 s1"],
            ["present", "--braid", "n=3; s1 -s2 v1"],
            ["gap", "--braid", "n=2; s9"],
            ["axioms", "--alexander", "5,2,3"],
            ["gap", "--braid", "n=2; s1", "--presentation", str(pres)],
            ["qcheck", "--presentation", str(pres), "--prime", "4"],
            ["nonsense"],
            ["convert", "--braid", "n=3; s1 v2", "--op", "invert"],
            ["qcheck", "--presentation", str(pres)],
            ["gap", "--presentation", str(pres)],
        ]
        cli.build_parser.cache_clear()
        cached = [invoke(capsys, *argv) for argv in argvs]
        assert cli.build_parser.cache_info().misses == 1
        assert {code for code, _, _ in cached} == {0, 1, 2}
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert [invoke(capsys, *argv) for argv in argvs] == cached

    def test_module_entry_point(self):
        proc, _ = _run_child("gap", "--braid", "n=2; v1 s1")
        assert proc.returncode == 0
        assert proc.stdout == "1 - s - t + s*t\n"

    def test_module_entry_point_error_code(self):
        proc, _ = _run_child("gap", "--braid", "n=2; s9")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["gap", "--braid", "n=2; s9"], 1),
            (["gap", "--braid", "s1"], 1),
            (["axioms", "--alexander", "1000003,2,3", "--force"], 2),
        ],
    )
    def test_module_entry_point_refusal_is_one_error_line(self, argv, code):
        proc, _ = _run_child(*argv)
        assert (proc.returncode, proc.stdout) == (code, "")
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("argv", [["gap", "--braid", "n=2; v1 s1"], ["axioms", "--alexander", "1,1,1"]])
    def test_closed_stdout_gives_one_error_line(self, argv):
        with subprocess.Popen(
            [sys.executable, "-m", "biquandles", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=_CHILD_ENV,
        ) as proc:
            proc.stdout.close()  # before the child has written anything
            err = proc.stderr.read()
            assert proc.wait() == 1
        assert "Traceback" not in err and "Exception ignored" not in err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestStrandCountRefusals:
    """The strand count alone decides these refusals, before any term is
    built: n = 200000 took 2.9 s and 181 MB to reach the matrix cap."""

    @pytest.mark.parametrize(
        "argv", [["gap", "--braid", "n=200000;"], ["invariance", "--braid", "n=200000;", "--trials", "3", "--seed", "1"]]
    )
    def test_wide_matrix_refused_before_any_term(self, capsys, monkeypatch, argv):
        def never(*args):
            raise AssertionError("a strand's generator was named")

        monkeypatch.setattr(alexander, "generator_names", never)
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err == "error: matrix would have 200000x200000 = 40000000000 cells, above the limit of 2^24\n"

    @pytest.mark.parametrize("down", [[], ["--down"]])
    def test_present_refuses_a_huge_strand_count_from_its_text_floor(self, capsys, monkeypatch, down):
        def never(*args):
            raise AssertionError("a presentation was built")

        monkeypatch.setattr(cli, "presentation_from_braid", never)
        monkeypatch.setattr(cli, "presentation_from_braid_down", never)
        start = time.perf_counter()
        code, out, err = invoke(capsys, "present", "--braid", "n=100000000;", *down)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == "error: presentation text would be at least 2877777801 bytes, above the limit of 2^26\n"

    def test_text_floor_never_exceeds_the_text(self):
        for n in (1, 2, 26, 27, 99, 100, 101, 1000):
            w = random_braid(n, 2 * n, seed=n)
            floor = presentation_size_floor(n)
            assert floor <= presentation_from_braid(w).render_size()
            assert floor <= presentation_from_braid_down(w).render_size()
            if n <= 26:  # one-letter names: an empty word's text is its floor
                assert floor == presentation_from_braid(BraidWord(n)).render_size()

    def test_present_still_prints_a_wide_empty_word(self, capsys):
        code, out, err = invoke(capsys, "present", "--braid", "n=200000;")
        assert (code, err) == (0, "")
        assert len(out) == 5666690
        assert out.endswith("rel g200000 = g200000\n")


class TestQcheckCap:
    def test_wide_file_refused_before_restriction(self, capsys, tmp_path, monkeypatch):
        """qcheck took 18 s at 500 generators of this file and 200 s at 1000."""

        def never(*args):
            raise AssertionError("a coefficient block was built")

        monkeypatch.setattr(quaternion, "left_matrix", never)
        names = [f"g{i}" for i in range(1, 301)]
        path = tmp_path / "wide.bq"
        path.write_text("gens " + " ".join(names) + "\n" + "".join(f"rel ur({g},{g}) = {g}\n" for g in names))
        start = time.perf_counter()
        code, out, err = invoke(capsys, "qcheck", "--presentation", str(path))
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == "error: restricted matrix would have 1200x1200 = 1440000 cells, above the limit of 2^20\n"

    def test_restriction_of_exactly_the_limit_is_built(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(quaternion, "MAX_RESTRICTED_CELLS", 16)
        path = tmp_path / "one.bq"
        path.write_text("gens a\nrel ur(a,a) = a\n")
        assert invoke(capsys, "qcheck", "--presentation", str(path)) == (0, "nontrivial (rank 2 of 4, dim 2)\n", "")
        path.write_text("gens a b\nrel ur(a,b) = a\nrel lr(b,a) = b\n")
        code, out, err = invoke(capsys, "qcheck", "--presentation", str(path))
        assert (code, out) == (2, "")
        assert err == "error: restricted matrix would have 8x8 = 64 cells, above the limit of 2^20\n"

    def test_cap_is_checked_before_the_prime(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(quaternion, "MAX_RESTRICTED_CELLS", 16)
        path = tmp_path / "two.bq"
        path.write_text("gens a b\nrel ur(a,b) = a\nrel lr(b,a) = b\n")
        code, out, err = invoke(capsys, "qcheck", "--presentation", str(path), "--prime", "4")
        assert (code, out) == (2, "")
        assert err == "error: restricted matrix would have 8x8 = 64 cells, above the limit of 2^20\n"

    def test_kishino_is_far_below_the_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(quaternion, "MAX_RESTRICTED_CELLS", 12 * 12)
        assert invoke(capsys, "qcheck", "--kishino") == (0, "nontrivial (rank 8 of 12, dim 4)\n", "")


class TestInvarianceFailureReport:
    def test_a_changed_polynomial_is_reported_and_exits_zero(self, capsys, monkeypatch):
        """A move that changed the polynomial prints the word, both values
        and FAIL; it is a result, so the exit code stays 0."""
        real_gap, calls = cli.gap, []

        def gap_that_changes(word):
            calls.append(word)
            return real_gap(word) if len(calls) < 3 else LaurentPoly.const(7)

        monkeypatch.setattr(cli, "gap", gap_that_changes)
        code, out, err = invoke(capsys, "invariance", "--braid", "n=2; v1 s1", "--trials", "4", "--seed", "7")
        assert (code, err) == (0, "")
        assert out == (
            "base gap: 1 - s - t + s*t\n"
            "trial 1: conjugate v1, gap unchanged\n"
            "trial 2: conjugate -s1, gap changed\n"
            "  word: n=2; v1 s1\n"
            "  expected: 1 - s - t + s*t\n"
            "  got: 7\n"
            "FAIL\n"
        )
        assert len(calls) == 3
