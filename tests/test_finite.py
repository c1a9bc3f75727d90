import math
import random
import sys
import time
import types
from itertools import product

import numpy as np
import pytest

from biquandles import finite
from biquandles.errors import DomainError, ParseError
from biquandles.finite import (
    FiniteBiquandle,
    check_axioms,
    finite_alexander_biquandle,
    finite_quaternionic_biquandle,
    parse_table_file,
)
from biquandles.terms import OPS


def one_element():
    return FiniteBiquandle({op: [[0]] for op in ("ur", "lr", "ul", "ll")})


class TestConstruction:
    def test_missing_table_rejected(self):
        with pytest.raises(ValueError):
            FiniteBiquandle({"ur": [[0]], "lr": [[0]], "ul": [[0]]})

    def test_non_square_rejected(self):
        tables = {op: [[0, 1]] for op in ("ur", "lr", "ul", "ll")}
        with pytest.raises(ValueError):
            FiniteBiquandle(tables)

    def test_size_mismatch_rejected(self):
        tables = {op: [[0]] for op in ("ur", "lr", "ul")}
        tables["ll"] = [[0, 1], [1, 0]]
        with pytest.raises(ValueError):
            FiniteBiquandle(tables)

    def test_out_of_range_entry_rejected(self):
        tables = {op: [[0]] for op in ("ur", "lr", "ul", "ll")}
        tables["ur"] = [[1]]
        with pytest.raises(ValueError):
            FiniteBiquandle(tables)

    def test_label_count_checked(self):
        with pytest.raises(ValueError):
            FiniteBiquandle({op: [[0]] for op in ("ur", "lr", "ul", "ll")}, labels=["x", "y"])

    @pytest.mark.parametrize(
        "tables, labels, message",
        [
            ({"ur": [[0]], "lr": [[0]]}, None, "missing operation tables: ul, ll"),
            ({op: np.zeros((0, 0)) for op in OPS}, None, "tables must be square and nonempty, got shape (0, 0)"),
            ({op: [] for op in OPS}, None, "tables must be square and nonempty, got shape (0,)"),
            ({op: [[0, 1]] for op in OPS}, None, "tables must be square and nonempty, got shape (1, 2)"),
            ({op: [[0, 1], [1, -1]] for op in OPS}, None, "table entries must lie in 0..1"),
            ({op: [[0]] for op in OPS}, ["x", "y"], "expected 1 labels, got 2"),
            ({**{op: [[0]] for op in OPS}, "ur": [[0.5]]}, None, "table entries must be integers, got float64"),
            ({op: [[np.float64(1.9), 0], [0, 1]] for op in OPS}, None, "table entries must be integers, got float64"),
            ({op: [["1", "0"], ["0", "1"]] for op in OPS}, None, "table entries must be integers, got <U1"),
            ({op: [[2**70]] for op in OPS}, None, "table entries must be integers, got object"),
        ],
        ids=[
            "missing", "empty", "no-rows", "non-square", "negative-entry", "label-count",
            "half-entry", "float64-entry", "string-entry", "huge-entry",
        ],
    )
    def test_refusal_messages(self, tables, labels, message):
        with pytest.raises(ValueError) as err:
            FiniteBiquandle(tables, labels)
        assert str(err.value) == message

    def test_tables_are_views_of_one_array(self):
        b = finite_alexander_biquandle(5, 2, 3)
        stack = b.tables["ur"].base
        assert stack.shape == (4, 5, 5)
        assert all(b.tables[op].base is stack for op in OPS)

    def test_apply_and_label(self):
        b = finite_alexander_biquandle(5, 2, 3)
        assert b.apply("ur", 1, 0) == 3
        assert b.apply("lr", 1, 4) == 2
        assert b.label(4) == "4"
        with pytest.raises(ValueError):
            b.apply("xx", 0, 0)

    @pytest.mark.parametrize("element", [-1, 5, 1.5])
    def test_elements_outside_the_carrier_refused(self, element):
        """Numpy would read -1 as row 4; 5 and 1.5 would escape as an IndexError."""
        b = finite_alexander_biquandle(5, 2, 3)
        message = f"^element {element} out of range 0..4$"
        for call in (lambda: b.apply("ur", element, 0), lambda: b.apply("ur", 0, element), lambda: b.label(element)):
            with pytest.raises(ValueError, match=message):
                call()


class TestLinearTables:
    def test_known_values_mod_five(self):
        b = finite_alexander_biquandle(5, 2, 3)
        # ur(a,b) = 3a + (1-6)b = 3a - 5b = 3a mod 5; lr(a,b) = 2a
        assert b.apply("ur", 2, 4) == (3 * 2) % 5
        assert b.apply("lr", 3, 0) == (2 * 3) % 5

    def test_inverse_parameters_used_for_left_ops(self):
        b = finite_alexander_biquandle(5, 2, 3)
        # ll(a,b) = s^-1 a with s^-1 = 3 mod 5
        assert b.apply("ll", 4, 1) == (3 * 4) % 5

    @pytest.mark.parametrize("m,s,t", [(1, 3, 5), (7, -2, 3), (9, 4, -5), (16, -1, -7)])
    def test_tables_follow_the_linear_rules(self, m, s, t):
        b = finite_alexander_biquandle(m, s, t)
        a, c = np.arange(m)[:, None], np.arange(m)[None, :]
        s_inv, t_inv = pow(s, -1, m), pow(t, -1, m)
        expected = {
            "ur": t * a + (1 - s * t) * c,
            "lr": s * a + 0 * c,
            "ul": t_inv * a + (1 - s_inv * t_inv) * c,
            "ll": s_inv * a + 0 * c,
        }
        for op, table in expected.items():
            assert np.array_equal(b.tables[op], table % m), op

    def test_all_axioms_pass(self):
        assert check_axioms(finite_alexander_biquandle(5, 2, 3)).all_pass

    def test_identity_parameters_pass(self):
        assert check_axioms(finite_alexander_biquandle(3, 1, 1)).all_pass

    def test_one_element_passes(self):
        assert check_axioms(one_element()).all_pass

    def test_non_unit_s_rejected(self):
        with pytest.raises(DomainError):
            finite_alexander_biquandle(4, 2, 1)

    def test_non_unit_t_rejected(self):
        with pytest.raises(DomainError):
            finite_alexander_biquandle(6, 5, 3)

    def test_bad_modulus_rejected(self):
        with pytest.raises(DomainError):
            finite_alexander_biquandle(0, 1, 1)


class TestChecker:
    def test_report_lists_all_axioms_in_order(self):
        report = check_axioms(finite_alexander_biquandle(5, 2, 3))
        names = [check.name for check in report.checks]
        assert names == [
            "axiom1",
            "axiom1.variant",
            "axiom2",
            "axiom2.variant",
            "axiom3",
            "axiom4",
            "axiom4.variant",
            "axiom5",
            "axiom5.variant",
        ]

    def test_render_format(self):
        report = check_axioms(one_element())
        lines = report.render().splitlines()
        assert lines[0] == "axiom1: pass"
        assert len(lines) == 9

    def test_corrupted_entry_reports_counterexample(self):
        base = finite_alexander_biquandle(5, 2, 3)
        tables = {op: base.tables[op].copy() for op in ("ur", "lr", "ul", "ll")}
        tables["ur"][0, 1] = (tables["ur"][0, 1] + 1) % 5
        report = check_axioms(FiniteBiquandle(tables))
        assert not report.all_pass
        failed = {check.name: check for check in report.checks if not check.passed}
        assert "axiom3" in failed
        assert failed["axiom3"].counterexample
        assert "fail [counterexample" in failed["axiom3"].render()

    def test_large_carrier_needs_force(self):
        big = finite_alexander_biquandle(101, 1, 1)
        with pytest.raises(DomainError):
            check_axioms(big)
        assert check_axioms(big, force=True).all_pass

    def test_counterexamples_use_labels(self):
        tables = {op: [[0, 1], [1, 0]] for op in ("ur", "lr", "ul", "ll")}
        b = FiniteBiquandle(tables, labels=["p", "q"])
        report = check_axioms(b)
        failing = [c for c in report.checks if not c.passed]
        assert failing
        assert any("p" in c.counterexample or "q" in c.counterexample for c in failing)


class TestChunking:
    def test_small_blocks_give_the_same_report(self, monkeypatch):
        """Blocks of one first-variable value report what one block reports."""
        rng = np.random.default_rng(11)
        cases = []
        for m, s, t in [(8, 3, 5), (11, 2, 3), (13, 4, 6), (13, -1, 2)] * 3:
            tables = {op: table.copy() for op, table in finite_alexander_biquandle(m, s, t).tables.items()}
            for _ in range(int(rng.integers(1, 4))):
                op = ("ur", "lr", "ul", "ll")[int(rng.integers(4))]
                a, b = (int(v) for v in rng.integers(m, size=2))
                tables[op][a, b] = (tables[op][a, b] + int(rng.integers(1, m))) % m
            cases.append(FiniteBiquandle(tables))
        expected = [check_axioms(B) for B in cases]
        # Every failure past a=0 lies beyond the first block below.
        assert any(
            not c.passed and c.counterexample.split()[0] != "a=0"
            for report in expected
            for c in report.checks
        )
        monkeypatch.setattr(finite, "_CHUNK_BUDGET", 7)
        assert [check_axioms(B).render() for B in cases] == [r.render() for r in expected]


def reference_report(tables: dict, labels: list[str]) -> str:
    """The nine verdicts by per-tuple loops over lists of rows, as check_axioms renders them.

    A universal axiom reports the first failing (a, b, c) of its first failing
    equation, with the equation's number; an existential one the first tuple
    with no witness x, in row-major order.
    """
    ur, lr, ul, ll = (tables[op] for op in OPS)
    carrier = range(len(ur))

    def tuple_text(values):
        return " ".join(f"{var}={labels[v]}" for var, v in zip("abc", values))

    def universal(name, arity, equations):
        for eq_no, equation in enumerate(equations, start=1):
            for values in product(carrier, repeat=arity):
                if not equation(*values):
                    return f"{name}: fail [counterexample {tuple_text(values)} (equation {eq_no})]"
        return f"{name}: pass"

    def existential(name, arity, condition):
        for values in product(carrier, repeat=arity):
            if not any(condition(*values, x) for x in carrier):
                return f"{name}: fail [counterexample {tuple_text(values)}]"
        return f"{name}: pass"

    return "\n".join([
        existential("axiom1", 1, lambda a, x: lr[ur[a][x]][a] == a),
        existential("axiom1.variant", 1, lambda a, x: ll[ul[a][x]][a] == a),
        existential("axiom2", 1, lambda a, x: ll[a][x] == x and ul[x][a] == a),
        existential("axiom2.variant", 1, lambda a, x: lr[a][x] == x and ur[x][a] == a),
        universal("axiom3", 2, [
            lambda a, b: ll[lr[a][b]][ur[b][a]] == a,
            lambda a, b: ul[ur[a][b]][lr[b][a]] == a,
            lambda a, b: ur[ul[a][b]][ll[b][a]] == a,
            lambda a, b: lr[ll[a][b]][ul[b][a]] == a,
        ]),
        existential("axiom4", 2,
                    lambda a, b, x: ur[a][ll[b][x]] == x and ul[x][b] == a and lr[ll[b][x]][a] == b),
        existential("axiom4.variant", 2,
                    lambda a, b, x: ul[a][lr[b][x]] == x and ur[x][b] == a and ll[lr[b][x]][a] == b),
        universal("axiom5", 3, [
            lambda a, b, c: ur[ur[a][b]][c] == ur[ur[a][lr[c][b]]][ur[b][c]],
            lambda a, b, c: lr[lr[a][b]][c] == lr[lr[a][ur[c][b]]][lr[b][c]],
            lambda a, b, c: ur[lr[a][b]][lr[c][ur[b][a]]] == lr[ur[a][c]][ur[b][lr[c][a]]],
        ]),
        universal("axiom5.variant", 3, [
            lambda a, b, c: ul[ul[a][b]][c] == ul[ul[a][ll[c][b]]][ul[b][c]],
            lambda a, b, c: ll[ll[a][b]][c] == ll[ll[a][ul[c][b]]][ll[b][c]],
            lambda a, b, c: ul[ll[a][b]][ll[c][ul[b][a]]] == ll[ul[a][c]][ul[b][ll[c][a]]],
        ]),
    ])


def linear_tables(rng: random.Random, m: int) -> dict:
    units = [u for u in range(1, m + 1) if math.gcd(u, m) == 1]
    B = finite_alexander_biquandle(m, rng.choice(units), rng.choice(units))
    return {op: table.tolist() for op, table in B.tables.items()}


def random_case(rng):
    m = rng.randint(1, 6)
    return {op: [[rng.randrange(m) for _ in range(m)] for _ in range(m)] for op in OPS}, None


def corrupted_linear_case(rng):
    tables = linear_tables(rng, m := rng.randint(2, 6))
    for _ in range(rng.randint(1, 3)):
        op, a, b = rng.choice(OPS), rng.randrange(m), rng.randrange(m)
        tables[op][a][b] = (tables[op][a][b] + rng.randrange(1, m)) % m
    return tables, None


def one_element_case(rng):
    return {op: [[0]] for op in OPS}, rng.choice([None, ["e"]])


def labelled_case(rng):
    tables, _ = rng.choice([random_case, corrupted_linear_case])(rng)
    m = len(tables["ur"])
    return tables, rng.sample(["p", "q", "1+i", "-j", "x0", "y", "k2"], m)


def unpinned_case(rng):
    """A linear table whose ul or ur column b repeats an entry, so that two x
    pin one a and some a is pinned by no x."""
    tables = linear_tables(rng, m := rng.randint(2, 6))
    pin = tables[rng.choice(["ul", "ur"])]
    b, x, y = rng.randrange(m), *rng.sample(range(m), 2)
    pin[y][b] = pin[x][b]
    return tables, None


CASE_KINDS = {
    "random": (random_case, 60),
    "corrupted-linear": (corrupted_linear_case, 60),
    "one-element": (one_element_case, 4),
    "labelled": (labelled_case, 40),
    "unpinned": (unpinned_case, 40),
}


class TestSweepLookups:
    def test_affine_tables_make_no_full_size_gather_in_axioms_3_and_5(self, monkeypatch):
        """Linear tables pass axioms 3 and 5 on the certificate's arity + 1
        points; the same tables with one changed entry sweep full blocks."""
        m, gathers, sweep = 97, [], [None]
        check = finite._check

        def named_check(B, name, arity, equations):
            sweep[0] = name
            try:
                return check(B, name, arity, equations)
            finally:
                sweep[0] = None

        class Counted(finite._FlatTable):
            def __init__(self, table):
                super().__init__(table)
                flat = self.flat
                self.flat = types.SimpleNamespace(take=lambda i: gathers.append((sweep[0], i.size)) or flat.take(i))

        monkeypatch.setattr(finite, "_check", named_check)
        monkeypatch.setattr(finite, "_FlatTable", Counted)
        universal = {"axiom3": 2, "axiom5": 3, "axiom5.variant": 3}
        B = finite_alexander_biquandle(m, 2, 3)
        assert check_axioms(B).all_pass
        assert {name for name, _ in gathers} == set(universal) | {None}
        assert max(size for name, size in gathers if name) <= 4
        tables = {op: table.copy() for op, table in B.tables.items()}
        tables["ur"][40, 50] = (tables["ur"][40, 50] + 1) % m
        gathers.clear()
        check_axioms(FiniteBiquandle(tables))
        for name, arity in universal.items():
            block = min(m, finite._CHUNK_BUDGET // m ** (arity - 1)) * m ** (arity - 1)
            assert (name, block) in gathers

    def test_lookup_at_a_value_varying_along_the_last_axis_is_a_gather(self):
        """In T[x, c] with x = T[a, c], x varies along c's axis, so no row of T
        holds the answer: the sweep reads it entry by entry, as the loops do."""
        rng = np.random.default_rng(3)
        m = 7
        tables = {op: rng.integers(m, size=(m, m)) for op in OPS}
        ur = tables["ur"]
        wanted = np.array([[[ur[ur[a, c], c] for c in range(m)] for _ in range(m)] for a in range(m)])
        B = FiniteBiquandle(tables)
        T = finite._FlatTable(B.tables["ur"])
        probe = lambda a, b, c: T[T[a, c], c] == wanted[a, b, c]  # noqa: E731
        assert finite._check(B, "probe", 3, [probe]).passed
        wanted[5, 3, 2] = (wanted[5, 3, 2] + 1) % m
        assert finite._check(B, "probe", 3, [probe]).render() == "probe: fail [counterexample a=5 b=3 c=2 (equation 1)]"


def affine_case(rng: random.Random, m: int) -> dict:
    """Tables alpha x + beta y + gamma mod m. Each operation keeps the
    coefficients of one linear table, so that some axioms pass, or draws any
    residues, 0 and non-units among them."""
    linear = linear_tables(rng, m)
    tables = {}
    for op in OPS:
        if rng.random() < 0.6:
            alpha, beta, gamma = linear[op][1 % m][0], linear[op][0][1 % m], 0
        else:
            alpha, beta, gamma = (rng.randrange(m) for _ in range(3))
        tables[op] = [[(alpha * x + beta * y + gamma) % m for y in range(m)] for x in range(m)]
    return tables


class TestAffineCertificate:
    def test_certified_reports_match_the_sweep_and_the_loops(self, monkeypatch):
        """On affine tables with m 1-12 and on Alexander tables with changed
        entries, check_axioms reports what it reports with the certificate
        off, and what the per-tuple loops report."""
        rng = random.Random("affine-certificate")
        cases = [affine_case(rng, 1 + k % 12) for k in range(144)]
        cases += [corrupted_linear_case(rng)[0] for _ in range(44)]
        certified = [check_axioms(FiniteBiquandle(tables)).render() for tables in cases]
        assert certified == [reference_report(tables, [str(i) for i in range(len(tables["ur"]))]) for tables in cases]
        monkeypatch.setattr(finite, "_is_affine", lambda table: False)
        assert certified == [check_axioms(FiniteBiquandle(tables)).render() for tables in cases]
        verdicts = [line for report in certified[:144] for line in report.splitlines() if line.startswith(("axiom3", "axiom5"))]
        assert sum("pass" in line for line in verdicts) > 100
        assert sum("fail" in line for line in verdicts) > 100


class TestReferenceChecker:
    """check_axioms renders what per-tuple loops render, on 204 tables with m <= 6."""

    @pytest.mark.parametrize("kind", sorted(CASE_KINDS))
    def test_render_matches_the_loops(self, kind):
        make, count = CASE_KINDS[kind]
        rng = random.Random(f"axioms-{kind}")
        failed = set()
        for _ in range(count):
            tables, labels = make(rng)
            B = FiniteBiquandle(tables, labels)
            expected = reference_report(tables, B.labels)
            assert check_axioms(B).render() == expected, (tables, labels)
            failed.update(line.split(":")[0] for line in expected.splitlines() if "fail" in line)
        if kind == "unpinned":  # a repeated pin entry leaves some (a, b) without a witness
            assert failed & {"axiom4", "axiom4.variant"}
        if kind in ("random", "corrupted-linear"):
            assert {"axiom4", "axiom4.variant", "axiom5", "axiom5.variant"} <= failed

    def test_blocks_of_one_first_value_match_the_loops(self, monkeypatch):
        """With blocks of one value of a, the first failures of axiom 5 past
        a=0 come from later blocks, and still match the loops."""
        monkeypatch.setattr(finite, "_CHUNK_BUDGET", 7)
        rng = random.Random("axioms-blocks")
        later = set()
        for _ in range(60):
            tables, labels = corrupted_linear_case(rng)
            B = FiniteBiquandle(tables, labels)
            expected = reference_report(tables, B.labels)
            assert check_axioms(B).render() == expected, tables
            later.update(
                line for line in expected.splitlines()
                if line.startswith("axiom5") and "fail" in line and "[counterexample a=0 " not in line
            )
        assert len(later) >= 5

    def test_linear_tables_pass_the_loops(self):
        rng = random.Random(19)
        for m in range(1, 7):
            assert "fail" not in reference_report(linear_tables(rng, m), [str(i) for i in range(m)])


class TestQuaternionicTables:
    def test_carrier_size(self):
        assert finite_quaternionic_biquandle(3).size == 81

    def test_known_entries(self):
        q = finite_quaternionic_biquandle(3)
        index = {label: k for k, label in enumerate(q.labels)}
        assert q.label(q.apply("ur", index["1"], index["0"])) == "i"
        assert q.label(q.apply("ll", index["0"], index["1"])) == "1+2j"

    def test_rejects_non_prime(self):
        with pytest.raises(DomainError):
            finite_quaternionic_biquandle(4)

    def test_rejects_two(self):
        with pytest.raises(DomainError):
            finite_quaternionic_biquandle(2)

    @pytest.mark.parametrize("p", [2, 9, 2**31 - 3])
    def test_non_odd_prime_message(self, p):
        with pytest.raises(DomainError, match=f"modulus must be an odd prime, got {p}$"):
            finite_quaternionic_biquandle(p)

    def test_modulus_of_2_to_31_or_more_refused_before_primality(self):
        for p in (2**31, 2**61 - 1):
            start = time.perf_counter()
            with pytest.raises(DomainError, match=f"modulus must be below 2\\^31, got {p}$"):
                finite_quaternionic_biquandle(p)
            assert time.perf_counter() - start < 0.1

    def test_checker_runs_under_force_flag_rules(self):
        q = finite_quaternionic_biquandle(3)
        report = check_axioms(q)
        by_name = {check.name: check.passed for check in report.checks}
        assert by_name["axiom1"] and by_name["axiom1.variant"]
        assert not by_name["axiom3"]


class TestTableFiles:
    def test_round_trip(self):
        b = finite_alexander_biquandle(3, 2, 2)
        text = b.render_tables()
        again = parse_table_file(text)
        for op in ("ur", "lr", "ul", "ll"):
            assert np.array_equal(again.tables[op], b.tables[op])

    def test_comments_allowed(self):
        text = "# tiny\nsize 1\nur\n0\nlr\n0\nul\n0\nll\n0\n"
        assert parse_table_file(text).size == 1

    def test_missing_size_rejected(self):
        with pytest.raises(ParseError):
            parse_table_file("ur\n0\n")

    def test_bad_size_rejected(self):
        with pytest.raises(ParseError):
            parse_table_file("size x\n")

    def test_unknown_block_rejected(self):
        with pytest.raises(ParseError):
            parse_table_file("size 1\nxx\n0\n")

    def test_duplicate_block_rejected(self):
        with pytest.raises(ParseError):
            parse_table_file("size 1\nur\n0\nur\n0\nlr\n0\nul\n0\nll\n0\n")

    def test_short_row_rejected(self):
        with pytest.raises(ParseError):
            parse_table_file("size 2\nur\n0 1\n1\nlr\n0 1\n1 0\nul\n0 1\n1 0\nll\n0 1\n1 0\n")

    def test_non_integer_rejected(self):
        with pytest.raises(ParseError):
            parse_table_file("size 1\nur\nz\nlr\n0\nul\n0\nll\n0\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("sizex 1\nur\n0\nlr\n0\nul\n0\nll\n0\n", "table file must start with 'size <m>'"),
            ("size 1\nur\n0_0\nlr\n0\nul\n0\nll\n0\n", "non-integer entry in ur table row '0_0'"),
            ("size 1\nur\n+0\nlr\n0\nul\n0\nll\n0\n", "non-integer entry in ur table row '+0'"),
            (f"size 1\nur\n{'0' * 5000}\n", f"non-integer entry in ur table row '{'0' * 5000}'"),
            ("size 1\nur\n٠\nlr\n0\nul\n0\nll\n0\n", "non-integer entry in ur table row '٠'"),
            ("size １\nur\n0\nlr\n0\nul\n0\nll\n0\n", "bad size line 'size １'"),
            ("size 0\n", "carrier size must be >= 1, got 0"),
            ("size 2\nur\n0 1\n1 0\nlr\n0 1\n", "lr table is missing rows (need 2)"),
            ("size 3\nur\n0 1 2\n0 4 5\n0 9 0\n", "ur table entry 4 out of range 0..2"),
            ("size 3\nur\n0 1 2\n0 1 2\n0 1 2\nll\n0 1 2\n2 1 0\n0 x 3\n", "non-integer entry in ll table row '0 x 3'"),
        ],
        ids=[
            "keyword-prefix", "underscore", "sign", "over-long", "non-ascii-digit", "non-ascii-size",
            "size-zero", "missing-rows", "first-out-of-range-entry", "non-integer-before-range",
        ],
    )
    def test_exact_keyword_and_unsigned_decimal_entries(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_table_file(text)
        assert str(err.value) == message

    def test_out_of_range_rejected(self):
        with pytest.raises(ParseError):
            parse_table_file("size 1\nur\n3\nlr\n0\nul\n0\nll\n0\n")

    def test_missing_block_rejected(self):
        with pytest.raises(ParseError):
            parse_table_file("size 1\nur\n0\nlr\n0\nul\n0\n")


def reference_read(text: str, m: int):
    """The tables of a file whose first content line is "size m", read row by
    row with str.split and int, as {op: rows}; or the ParseError message that
    parse_table_file gives."""
    lines = [line for raw in text.splitlines() if (line := raw.split("#", 1)[0].strip())][1:]
    tables = {}
    for start in range(0, len(lines), m + 1):
        op = lines[start]
        if op not in OPS:
            return f"expected an operation name (ur, lr, ul, ll), got {op!r}"
        if op in tables:
            return f"duplicate table for {op}"
        tables[op] = []
        for line in lines[start + 1 : start + 1 + m]:
            entries = line.split()
            if len(entries) != m:
                return f"{op} table row has {len(entries)} entries, expected {m}"
            if not all(e.isascii() and e.isdecimal() and len(e) <= sys.get_int_max_str_digits() for e in entries):
                return f"non-integer entry in {op} table row {line!r}"
            row = [int(e) for e in entries]
            if too_big := [v for v in row if v >= m]:
                return f"{op} table entry {too_big[0]} out of range 0..{m - 1}"
            tables[op].append(row)
        if len(tables[op]) < m:
            return f"{op} table is missing rows (need {m})"
    if missing := [op for op in OPS if op not in tables]:
        return f"missing operation tables: {', '.join(missing)}"
    return tables


SEPARATORS = [" "] * 6 + ["\t", "\x1f", "  ", " \t ", "\u00a0", "\u3000"]
ODD_ENTRIES = ["0005", "1005", "0" * 5000, "+0", "0_0", "\u0663", "x", "-1"]


def table_text(rng: random.Random, m: int, rows: dict, faults: int) -> str:
    """rows written as a table file, with separators, line ends and comments
    drawn from rng, after `faults` random edits of entries and rows."""
    rows = {op: [[str(v) for v in row] for row in table] for op, table in rows.items()}
    for _ in range(faults):
        op = rng.choice(OPS)
        if not rows[op]:
            continue
        row = rng.choice(rows[op])
        k = rng.randrange(len(row)) if row else 0
        edit = rng.choice(["odd", "odd", "zeros", "range", "short", "long", "shift", "missing", "extra"])
        if edit == "odd" and row:
            row[k] = rng.choice(ODD_ENTRIES)
        elif edit == "zeros" and row:  # 007 reads as 7, below m or not
            row[k] = "00" + rng.choice([row[k], "7"])
        elif edit == "range" and row:
            row[k] = str(m + rng.randrange(3))
        elif edit == "short" and row:
            del row[k]
        elif edit == "long":
            row.insert(k, "0")
        elif edit == "shift" and row:  # one row short and another long: the block's count is right
            rng.choice(rows[op]).append(row.pop(k))
        elif edit == "missing":
            rows[op].remove(row)
        elif edit == "extra":
            rows[op].append(list(row))
    end = rng.choice(["\n", "\n", "\r\n"])
    comment = lambda: rng.choice(["", "", "", "  # note", "\t#"])  # noqa: E731
    lines = [f"size {m}"]
    for op in rng.sample(OPS, 4) if rng.random() < 0.2 else OPS:
        lines.append(op + comment())
        for row in rows[op]:
            if rng.random() < 0.1:
                lines.append("# a comment line inside the block")
            sep = rng.choice(SEPARATORS) if rng.random() < 0.3 else " "
            lines.append(sep.join(row) + comment())
    return end.join(lines) + end


def read_outcome(text: str):
    """parse_table_file's tables as lists of rows, or its ParseError message."""
    try:
        B = parse_table_file(text)
    except ParseError as err:
        return str(err)
    return {op: table.tolist() for op, table in B.tables.items()}


class TestBlockReader:
    """parse_table_file reads what a plain per-row reader reads, and refuses
    what it refuses with the same message."""

    def test_reads_and_refusals_match_the_row_reader(self):
        rng = random.Random("table-reader")
        outcomes = []
        for _ in range(400):
            m = rng.choice([1, 2, 3, 5, 7, 10, 31])
            rows = {op: [[rng.randrange(m) for _ in range(m)] for _ in range(m)] for op in OPS}
            text = table_text(rng, m, rows, rng.choice([0, 0, 1, 1, 2]))
            expected = reference_read(text, m)
            assert read_outcome(text) == expected, text
            outcomes.append(expected)
        messages = {e.split()[0] if isinstance(e, str) else "read" for e in outcomes}
        assert {"read", "ur", "lr", "ul", "ll", "non-integer", "expected"} <= messages
        assert any(isinstance(e, str) and " out of range " in e for e in outcomes)

    def test_largest_carrier(self):
        """625 elements, and an entry out of range in the last row."""
        B = finite_alexander_biquandle(625, 2, 3)
        rows = {op: table.tolist() for op, table in B.tables.items()}
        text = B.render_tables()
        assert read_outcome(text) == rows
        text = text.rsplit(" ", 1)[0] + " 625\n"
        assert read_outcome(text) == "ll table entry 625 out of range 0..624"

    @pytest.mark.parametrize(
        "row, outcome",
        [
            ("0\t1\x1f2 3 4 5", [0, 1, 2, 3, 4, 5]),
            ("0\u00a01\u30002 3 4 5", [0, 1, 2, 3, 4, 5]),
            ("000 001 002 003 004 005", [0, 1, 2, 3, 4, 5]),
            ("0005 1 2 3 4 5", [5, 1, 2, 3, 4, 5]),
            ("1005 1 2 3 4 5", "ur table entry 1005 out of range 0..5"),
            ("0 1 6 3 4 5", "ur table entry 6 out of range 0..5"),
            ("+0 1 2 3 4 5", "non-integer entry in ur table row '+0 1 2 3 4 5'"),
            ("0_0 1 2 3 4 5", "non-integer entry in ur table row '0_0 1 2 3 4 5'"),
            ("\u0663 1 2 3 4 5", "non-integer entry in ur table row '\u0663 1 2 3 4 5'"),
            ("0 1", "ur table row has 2 entries, expected 6"),
            ("0 1 2 3 4 5 0", "ur table row has 7 entries, expected 6"),
            ("0 1 2 3 4 5 0\n0 0 0 0 0", "ur table row has 7 entries, expected 6"),
        ],
    )
    def test_one_odd_row(self, row, outcome):
        """Six-element zero tables but for ur's first rows, written as given."""
        zeros = "0 0 0 0 0 0\n" * 6
        text = f"size 6\nur\n{row}\n" + zeros[12 * (row.count("\n") + 1) :] + "".join(f"{op}\n{zeros}" for op in OPS[1:])
        if isinstance(outcome, list):
            outcome = {op: [[0] * 6 for _ in range(6)] for op in OPS} | {"ur": [outcome] + [[0] * 6] * 5}
        assert read_outcome(text) == reference_read(text, 6) == outcome


class TestReaderPaths:
    """Which path reads a block, by counted calls of the line-by-line reader."""

    def count_row_reads(self, monkeypatch, text):
        calls, read = [], finite._table_row
        monkeypatch.setattr(finite, "_table_row", lambda *args: calls.append(args[0]) or read(*args))
        return read_outcome(text), calls

    def test_clean_workload_file_reads_no_row_by_row(self, monkeypatch):
        B = finite_alexander_biquandle(97, 5, 7)
        outcome, calls = self.count_row_reads(monkeypatch, B.render_tables())
        assert outcome == {op: table.tolist() for op, table in B.tables.items()}
        assert calls == []

    def test_bad_entry_in_the_last_row_of_the_last_block(self, monkeypatch):
        text = finite_alexander_biquandle(97, 5, 7).render_tables()
        text = text.rsplit(" ", 1)[0] + " 97\n"
        outcome, calls = self.count_row_reads(monkeypatch, text)
        assert outcome == "ll table entry 97 out of range 0..96"
        assert calls == ["ll"] * 97


class TestTableCap:
    """No carrier above MAX_FORCED_SIZE elements is built, read or checked, whatever force says."""

    def test_alexander_carrier_at_the_cap_builds_and_one_above_is_refused(self):
        assert finite_alexander_biquandle(625, 2, 3).size == 625
        with pytest.raises(DomainError, match=r"^carrier size 626 exceeds the limit of 625 elements$"):
            finite_alexander_biquandle(626, 1, 1)

    def test_quaternionic_carrier_at_the_cap_builds_and_one_above_is_refused(self, monkeypatch):
        assert finite_quaternionic_biquandle(5).size == 625
        monkeypatch.setattr(finite, "MAX_FORCED_SIZE", 624)
        with pytest.raises(DomainError, match=r"^carrier size 625 exceeds the limit of 624 elements$"):
            finite_quaternionic_biquandle(5)

    def test_default_cap_is_625_elements(self):
        assert finite.MAX_FORCED_SIZE == 5**4
        finite.check_carrier_size(625, force=True)
        with pytest.raises(DomainError, match=r"^carrier size 625 exceeds 100; enable force to check anyway$"):
            finite.check_carrier_size(625)
        for force in (False, True):
            with pytest.raises(DomainError, match=r"^carrier size 626 exceeds the limit of 625 elements$"):
                finite.check_carrier_size(626, force)

    def test_refused_before_labels_or_tables(self, monkeypatch):
        def never(*args):
            raise AssertionError("a table or label was built")

        monkeypatch.setattr(finite, "_linear_biquandle", never)
        monkeypatch.setattr(finite, "Quaternion", never)
        for p, size in [(7, 2401), (11, 14641)]:
            with pytest.raises(DomainError, match=rf"^carrier size {size} exceeds the limit of 625 elements$"):
                finite_quaternionic_biquandle(p)
        for m in (626, 1000003):
            with pytest.raises(DomainError, match=rf"^carrier size {m} exceeds the limit of 625 elements$"):
                finite_alexander_biquandle(m, 1, 1)

    def test_table_file_refused_at_its_size_line(self):
        with pytest.raises(DomainError, match=r"^carrier size 626 exceeds the limit of 625 elements$"):
            parse_table_file("size 626\n")
        with pytest.raises(ParseError, match=r"^ur table is missing rows \(need 625\)$"):
            parse_table_file("size 625\nur\n")

    def test_checker_refuses_above_the_cap_under_force(self):
        big = FiniteBiquandle({op: np.zeros((626, 626), dtype=np.int64) for op in OPS})
        with pytest.raises(DomainError, match=r"^carrier size 626 exceeds the limit of 625 elements$"):
            check_axioms(big, force=True)

    def test_parameters_are_checked_before_the_cap(self):
        with pytest.raises(DomainError, match=r"^s=2 is not a unit mod 1000000$"):
            finite_alexander_biquandle(1000000, 2, 3)
        with pytest.raises(DomainError, match=r"^modulus must be an odd prime, got 1000001$"):
            finite_quaternionic_biquandle(1000001)
