import dataclasses
import random
import time

import pytest
from hypothesis import given, strategies as st

from biquandles import quaternion
from biquandles.braids import random_braid
from biquandles.errors import DomainError
from biquandles.laurent import LaurentPoly
from biquandles.quaternion import (
    I_Q,
    J_Q,
    K_Q,
    ONE_Q,
    ZERO_Q,
    QRelationSet,
    Quaternion,
    forced_zero_generators,
    fp_rank,
    is_prime,
    kishino_certificate,
    left_matrix,
    module_is_trivial,
    q_linearize_term,
    q_relations_from_presentation,
    scalar_restriction,
)
from biquandles.terms import lr, parse_presentation, presentation_from_braid, ul, ur


def random_quaternion(rng):
    return Quaternion(*(rng.randint(-4, 4) for _ in range(4)))


def reference_rank(rows, p):
    """Rank over Z_p by plain Gauss-Jordan elimination on Python ints: the oracle for fp_rank."""
    work = [[value % p for value in row] for row in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col], -1, p)
        work[rank] = [(value * inv) % p for value in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                factor = work[r][col]
                work[r] = [(value - factor * pivot_value) % p for value, pivot_value in zip(work[r], work[rank])]
        rank += 1
        if rank == len(work):
            break
    return rank


@st.composite
def rank_cases(draw):
    """A modulus and a 0..16 x 0..16 integer matrix: dense, all zero, or a
    product through at most 4 inner columns (so of low rank)."""
    p = draw(st.sampled_from([2, 3, 5, 65521, 2**31 - 1]))
    entries = (
        st.integers(-3, 3)
        | st.integers(-(2**70), 2**70)
        | st.builds(lambda k, d: k * p + d, st.integers(-3, 3), st.integers(-1, 1))
    )
    m, c = draw(st.integers(0, 16)), draw(st.integers(0, 16))
    kind = draw(st.sampled_from(["dense", "zero", "product"]))
    if kind == "zero":
        return [[0] * c for _ in range(m)], p
    if kind == "dense":
        return draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=m, max_size=m)), p
    inner = draw(st.integers(0, 4))
    left = draw(st.lists(st.lists(entries, min_size=inner, max_size=inner), min_size=m, max_size=m))
    right = draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=inner, max_size=inner))
    return [[sum(x * y[j] for x, y in zip(row, right)) for j in range(c)] for row in left], p


class TestQuaternionArithmetic:
    def test_unit_products(self):
        assert I_Q * J_Q == K_Q
        assert J_Q * K_Q == I_Q
        assert K_Q * I_Q == J_Q
        assert J_Q * I_Q == -K_Q
        assert I_Q * I_Q == -ONE_Q
        assert J_Q * J_Q == -ONE_Q
        assert K_Q * K_Q == -ONE_Q

    def test_noncommutative(self):
        p = Quaternion(1, 1, 0, 0)
        q = Quaternion(0, 0, 1, 1)
        assert p * q != q * p

    def test_norm_is_multiplicative(self):
        rng = random.Random(3)
        for _ in range(50):
            p, q = random_quaternion(rng), random_quaternion(rng)
            assert (p * q).norm() == p.norm() * q.norm()

    def test_integer_scaling(self):
        q = Quaternion(1, -2, 0, 3)
        assert 2 * q == q + q == q * 2

    @pytest.mark.parametrize(
        "mix",
        [
            lambda: Quaternion(1) + 1,
            lambda: Quaternion(1) - 1,
            lambda: 1 - Quaternion(1),
            lambda: Quaternion(1) * 1.5,
            lambda: 1.5 * Quaternion(1),
            lambda: Quaternion(1) * LaurentPoly.const(1),
            lambda: LaurentPoly.const(1) + 1.5,
            lambda: LaurentPoly.const(1) * Quaternion(1),
        ],
        ids=["q+int", "q-int", "int-q", "q*float", "float*q", "q*poly", "poly+float", "poly*q"],
    )
    def test_mixing_with_another_type_is_a_type_error(self, mix):
        """Neither ring reads a foreign operand's fields: Python raises TypeError."""
        with pytest.raises(TypeError):
            mix()

    def test_reduce(self):
        assert Quaternion(-4, 3, 7, -1).reduce(3) == Quaternion(2, 0, 1, 2)

    def test_render(self):
        assert Quaternion().render() == "0"
        assert Quaternion(1).render() == "1"
        assert Quaternion(0, -1).render() == "-i"
        assert Quaternion(1, 2, 0, 1).render() == "1 + 2i + k"
        assert Quaternion(0, 0, 2, -1).render() == "2j - k"
        assert Quaternion(-1, -1).render() == "-1 - i"


class TestLeftMatrix:
    def test_matrix_of_i(self):
        assert left_matrix(I_Q) == [
            [0, -1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, -1],
            [0, 0, 1, 0],
        ]

    def test_matrix_of_one_is_identity(self):
        assert left_matrix(ONE_Q) == [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ]

    def test_multiplicative(self):
        rng = random.Random(9)
        for _ in range(25):
            p, q = random_quaternion(rng), random_quaternion(rng)
            lp, lq = left_matrix(p), left_matrix(q)
            product = [
                [sum(lp[i][k] * lq[k][j] for k in range(4)) for j in range(4)]
                for i in range(4)
            ]
            assert product == left_matrix(p * q)


class TestPrimes:
    def test_small_values(self):
        assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


class TestLinearization:
    def test_generator_coefficient_is_one(self):
        from biquandles.terms import BQTerm

        assert q_linearize_term(BQTerm.gen("a")) == {"a": ONE_Q}

    def test_single_operations(self):
        assert q_linearize_term(ur("a", "b")) == {"a": I_Q, "b": I_Q + J_Q}
        assert q_linearize_term(ul("a", "b")) == {"a": I_Q, "b": ONE_Q - J_Q}
        assert q_linearize_term(lr("a", "b")) == {"a": -I_Q, "b": I_Q + J_Q}

    def test_nested_term_composes_left_to_right(self):
        term = ul(lr("a", "b"), ur("b", "a"))
        assert q_linearize_term(term) == {
            "a": Quaternion(2, 1, 1, 1),
            "b": Quaternion(-1, 1, 0, 2),
        }

    def test_relation_rows_subtract_sides(self):
        pres = parse_presentation("gens a b\nrel ur(a,b) = ur(a,b)\n")
        rset = q_relations_from_presentation(pres)
        assert rset.rows == [{}]

    def test_relation_set_reduction(self):
        pres = parse_presentation("gens a\nrel ur(a,a) = a\n")
        rset = q_relations_from_presentation(pres)
        assert rset.rows == [{"a": Quaternion(-1, 2, 1, 0)}]
        reduced = rset.reduce_mod(3)
        assert reduced.rows == [{"a": Quaternion(2, 2, 1, 0)}]
        assert [field.name for field in dataclasses.fields(reduced)] == ["generators", "rows"]

    def test_reduction_requires_prime(self):
        pres = parse_presentation("gens a\nrel ur(a,a) = a\n")
        with pytest.raises(DomainError):
            q_relations_from_presentation(pres).reduce_mod(6)


class TestRank:
    def test_known_block_ranks_mod_three(self):
        assert fp_rank(left_matrix(Quaternion(0, 2)), 3) == 4
        assert fp_rank(left_matrix(Quaternion(1, 1, 0, 1)), 3) == 2
        assert fp_rank(left_matrix(Quaternion(2, 1, 0, 1)), 3) == 2

    def test_zero_and_identity(self):
        assert fp_rank([[0, 0], [0, 0]], 5) == 0
        assert fp_rank([[1, 0], [0, 1]], 5) == 2

    def test_requires_prime(self):
        with pytest.raises(DomainError, match="modulus must be prime, got 4"):
            fp_rank([[1]], 4)

    @given(rank_cases())
    def test_matches_gaussian_elimination(self, case):
        rows, p = case
        assert fp_rank(rows, p) == reference_rank(rows, p)

    def test_largest_modulus(self):
        p = 2**31 - 1
        assert fp_rank([[p - 1, p - 2], [p - 2, p - 1]], p) == 2
        assert fp_rank([[p - 1, p - 2], [2, 4]], p) == 1

    @pytest.mark.parametrize(
        "call",
        [
            lambda p: fp_rank([[1]], p),
            lambda p: module_is_trivial(parse_presentation("gens a\nrel ur(a,a) = a\n"), p),
            lambda p: kishino_certificate(prime=p),
        ],
    )
    def test_modulus_of_2_to_31_or_more_refused_before_primality(self, call):
        for p in (2**31, 2**61 - 1):
            start = time.perf_counter()
            with pytest.raises(DomainError, match=f"modulus must be below 2\\^31, got {p}$"):
                call(p)
            assert time.perf_counter() - start < 0.1


class TestRelationSetEquality:
    def test_zero_entries_are_dropped_before_comparing(self):
        rset = QRelationSet(["a", "b"], [{"a": ONE_Q, "b": ZERO_Q}])
        assert rset == QRelationSet(["a", "b"], [{"a": ONE_Q}])
        assert rset != QRelationSet(["b", "a"], [{"a": ONE_Q}])
        with pytest.raises(TypeError):
            hash(rset)


class TestRelationSetGenerators:
    def test_undeclared_generator_is_refused(self):
        """A row naming b over the generators [a] once rendered as (1)*a = 0,
        dropping the b term, and module_is_trivial raised a bare KeyError."""
        with pytest.raises(ValueError, match="^row uses undeclared generator 'b'$"):
            QRelationSet(["a"], [{"a": ONE_Q, "b": I_Q}])
        with pytest.raises(ValueError, match="^row uses undeclared generator 'b'$"):
            QRelationSet(["a"], [{"a": ONE_Q}, {"b": ZERO_Q}])

    def test_duplicate_generator_names_are_refused(self):
        with pytest.raises(ValueError, match="^duplicate generator names$"):
            QRelationSet(["a", "b", "a"], [{"a": ONE_Q}])

    def test_declared_generators_still_build(self):
        rset = QRelationSet(("a", "b"), [{"b": I_Q}, {}])
        assert rset.render() == "(i)*b = 0\n0 = 0"
        assert module_is_trivial(rset, 3)[1].verdict_line() == "nontrivial (rank 4 of 8, dim 4)"


class TestScalarRestriction:
    def test_identity_coefficient_gives_identity_block(self):
        rset = QRelationSet(["a"], [{"a": ONE_Q}])
        assert scalar_restriction(rset) == left_matrix(ONE_Q)

    def test_shape(self):
        rset = QRelationSet(["a", "b"], [{"a": I_Q}, {"b": J_Q}])
        rows = scalar_restriction(rset)
        assert len(rows) == 8 and all(len(r) == 8 for r in rows)

    def test_restriction_is_over_the_integers(self):
        q = Quaternion(5, 7)
        assert scalar_restriction(QRelationSet(["a"], [{"a": q}])) == left_matrix(q)


class TestTriviality:
    def test_unit_coefficient_forces_trivial(self):
        pres = parse_presentation("gens a\nrel ur(a,a) = a\n")
        trivial, report = module_is_trivial(pres, 5)
        assert trivial and report.verdict_line() == "trivial (rank 4 of 4, dim 0)"

    def test_norm_divisible_by_prime_leaves_kernel(self):
        pres = parse_presentation("gens a\nrel ur(a,a) = a\n")
        trivial, report = module_is_trivial(pres, 3)
        assert not trivial
        assert report.verdict_line() == "nontrivial (rank 2 of 4, dim 2)"

    def test_requires_prime(self):
        pres = parse_presentation("gens a\nrel ur(a,a) = a\n")
        with pytest.raises(DomainError, match="modulus must be prime, got 9"):
            module_is_trivial(pres, 9)

    @pytest.mark.parametrize("text", ["gens a b\n", "gens a b\nrel ur(a,b) = ur(a,b)\n"])
    def test_no_relations_or_only_a_zero_row(self, text):
        trivial, report = module_is_trivial(parse_presentation(text), 3)
        assert not trivial
        assert report.verdict_line() == "nontrivial (rank 0 of 8, dim 8)"

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            module_is_trivial([["not", "relations"]], 3)

    def test_forced_zero_detection(self):
        rset = QRelationSet(
            ["a", "b"],
            [{"a": Quaternion(0, 2)}, {"b": Quaternion(1, 1, 0, 1)}],
        ).reduce_mod(3)
        assert forced_zero_generators(rset, 3) == ["a"]


class TestOneRankPath:
    @pytest.fixture
    def prime_tests(self, monkeypatch):
        calls = []

        def counting_is_prime(n):
            calls.append(n)
            return is_prime(n)

        monkeypatch.setattr(quaternion, "is_prime", counting_is_prime)
        return calls

    def test_prime_is_tested_once_per_check(self, prime_tests):
        module_is_trivial(parse_presentation("gens a\nrel ur(a,a) = a\n"), 3)
        assert prime_tests == [3]

    def test_prime_is_tested_twice_per_certificate(self, prime_tests):
        kishino_certificate(prime=5)
        assert prime_tests == [5, 5]

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_verdicts_match_the_reduced_restriction(self, p):
        rng = random.Random(p)
        for _ in range(60):
            word = random_braid(rng.randint(1, 4), rng.randint(0, 8), rng.randrange(10**6))
            rset = q_relations_from_presentation(parse_presentation(presentation_from_braid(word).render()))
            rank = reference_rank(scalar_restriction(rset.reduce_mod(p)), p)
            total = 4 * len(rset.generators)
            trivial, report = module_is_trivial(rset, p)
            assert (report.rank, report.total, trivial) == (rank, total, rank == total)


class TestKishinoCertificate:
    def test_reference_relations_are_integral(self):
        cert = kishino_certificate()
        assert cert.reference_relations.rows == [
            {"a": Quaternion(-3), "b": Quaternion(1, -2, 0, -2)},
            {"a": Quaternion(-1, 1, 0, 1), "c": Quaternion(-1, 1, 0, 1)},
            {"a": Quaternion(0, -4), "b": Quaternion(3), "c": Quaternion(-3)},
        ]

    def test_generic_linearization_differs_and_is_flagged(self):
        cert = kishino_certificate()
        assert not cert.rules_match_reference
        assert cert.linearized_relations.rows != cert.reference_relations.rows

    def test_verdict(self):
        cert = kishino_certificate()
        assert cert.verdict_line() == "nontrivial (rank 8 of 12, dim 4)"
        assert cert.forced_zero == ["a"]

    def test_render_mentions_verdict_and_flag(self):
        text = kishino_certificate().render()
        assert "nontrivial (rank 8 of 12, dim 4)" in text
        assert "matches reference: no" in text

    def test_requires_prime(self):
        with pytest.raises(DomainError, match="modulus must be prime, got 4"):
            kishino_certificate(prime=4)
