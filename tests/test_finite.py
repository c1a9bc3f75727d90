import time

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

    def test_apply_and_label(self):
        b = finite_alexander_biquandle(5, 2, 3)
        assert b.apply("ur", 1, 0) == 3
        assert b.apply("lr", 1, 4) == 2
        assert b.label(4) == "4"
        with pytest.raises(ValueError):
            b.apply("xx", 0, 0)


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

    def test_out_of_range_rejected(self):
        with pytest.raises(ParseError):
            parse_table_file("size 1\nur\n3\nlr\n0\nul\n0\nll\n0\n")

    def test_missing_block_rejected(self):
        with pytest.raises(ParseError):
            parse_table_file("size 1\nur\n0\nlr\n0\nul\n0\n")
