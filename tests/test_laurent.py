import hashlib
import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from biquandles import alexander, laurent
from biquandles.alexander import relation_matrix_from_braid, relation_matrix_from_presentation
from biquandles.braids import BraidLetter, BraidWord, random_braid
from biquandles.errors import DomainError
from biquandles.laurent import (
    ONE,
    S,
    T,
    ZERO,
    LaurentMatrix,
    LaurentPoly,
    cofactor_determinant,
    determinant,
    format_poly,
)
from biquandles.quaternion import Quaternion
from biquandles.terms import parse_presentation
from oracles import bareiss_determinant, divide_exact

exponents = st.integers(min_value=-3, max_value=3)
coefficients = st.integers(min_value=-6, max_value=6)
polys = st.dictionaries(
    st.tuples(exponents, exponents), coefficients, max_size=5
).map(LaurentPoly)


def _divide_by_rebuilding(num, den):
    """Reference exact division: one full polynomial subtraction per step."""
    si, sj = num.min_degrees()
    di, dj = den.min_degrees()
    num = num.scale_by_monomial(-si, -sj)
    den = den.scale_by_monomial(-di, -dj)
    lead = max(den.terms)
    quo = {}
    while num:
        top = max(num.terms)
        qi, qj = top[0] - lead[0], top[1] - lead[1]
        if qi < 0 or qj < 0 or num.terms[top] % den.terms[lead]:
            raise ArithmeticError("inexact polynomial division")
        quo[(qi, qj)] = num.terms[top] // den.terms[lead]
        num = num - den * LaurentPoly.monomial(quo[(qi, qj)], qi, qj)
    return LaurentPoly(quo).scale_by_monomial(si - di, sj - dj)


def random_poly(rng, max_terms=3, span=2):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        key = (rng.randint(-span, span), rng.randint(-span, span))
        terms[key] = rng.randint(-4, 4)
    return LaurentPoly(terms)


class TestArithmetic:
    @given(polys, polys)
    def test_addition_commutes(self, p, q):
        assert p + q == q + p

    @given(polys, polys)
    def test_multiplication_commutes(self, p, q):
        assert p * q == q * p

    @given(polys, polys, polys)
    def test_multiplication_distributes(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polys)
    def test_subtraction_cancels(self, p):
        assert p - p == ZERO

    @given(polys)
    def test_int_coercion(self, p):
        assert p + 0 == p
        assert p * 1 == p
        assert 2 * p == p + p

    def test_no_zero_terms_stored(self):
        p = LaurentPoly({(0, 0): 1}) + LaurentPoly({(0, 0): -1})
        assert p.terms == {}
        assert not p

    @given(polys, polys)
    def test_exact_division_inverts_multiplication(self, p, q):
        if not q:
            return
        assert divide_exact(p * q, q) == p

    def test_inexact_division_raises(self):
        with pytest.raises(ArithmeticError):
            divide_exact(S + 1, S - 1)

    @given(polys, polys, polys)
    def test_division_matches_rebuilding_reference(self, p, q, r):
        """Same quotient, or the same ArithmeticError, as reducing by
        rebuilding the whole remainder each step."""
        if not q:
            return
        for num in (p * q, p * q + r):
            try:
                expected = _divide_by_rebuilding(num, q)
            except ArithmeticError:
                with pytest.raises(ArithmeticError):
                    divide_exact(num, q)
            else:
                assert divide_exact(num, q) == expected

    def test_division_of_thousands_of_terms(self):
        """A step costs the divisor's size: rebuilding a 4500-term remainder
        each step took 1.7 s on this Bareiss sweep."""
        f = LaurentPoly({(0, k): -1 for k in range(4500)})
        m = LaurentMatrix([[f, ONE], [T, ONE]])
        start = time.perf_counter()
        assert bareiss_determinant(m) == f - T
        assert time.perf_counter() - start < 0.5
        rng = random.Random(3)
        q = LaurentPoly({(rng.randint(0, 60), rng.randint(-30, 30)): rng.randint(-9, 9) for _ in range(1500)})
        d = LaurentPoly({(rng.randint(-3, 3), rng.randint(-3, 3)): rng.randint(-9, 9) for _ in range(6)})
        assert divide_exact(q * d, d) == q
        assert len(d.terms) > 1
        with pytest.raises(ArithmeticError):
            divide_exact(q * d + ONE, d)

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            divide_exact(ONE, ZERO)

    @given(coefficients)
    def test_constants_hash_as_their_int(self, c):
        """A constant polynomial equals its int, so it must hash as that int."""
        assert LaurentPoly.const(c) == c
        assert hash(LaurentPoly.const(c)) == hash(c)

    def test_constants_and_ints_share_set_members(self):
        assert {3, LaurentPoly.const(3)} == {3}
        assert len({0, ZERO, ONE, 1, S}) == 3
        assert {LaurentPoly.const(-2): "x"}[-2] == "x"

    def test_min_degrees(self):
        p = LaurentPoly({(-2, 1): 1, (0, -3): 4})
        assert p.min_degrees() == (-2, -3)
        assert ZERO.min_degrees() == (0, 0)

    def test_scale_by_monomial(self):
        assert S.scale_by_monomial(-1, 2) == LaurentPoly.monomial(1, 0, 2)


class TestFormatting:
    def test_zero(self):
        assert format_poly(ZERO) == "0"

    def test_constant(self):
        assert format_poly(LaurentPoly.const(-3)) == "-3"

    def test_unit_coefficients_elided(self):
        assert format_poly(S * T) == "s*t"

    def test_ascending_t_then_s_order(self):
        p = ONE - S - T + S * T
        assert format_poly(p) == "1 - s - t + s*t"

    def test_negative_exponents(self):
        assert format_poly(LaurentPoly.monomial(1, -1, 0)) == "s^-1"
        assert format_poly(LaurentPoly.monomial(2, -1, -2)) == "2*s^-1*t^-2"

    def test_leading_sign_attached(self):
        assert format_poly(-(S * S)) == "-s^2"

    def test_higher_powers(self):
        p = S * S * T - S * T * T
        assert format_poly(p) == "s^2*t - s*t^2"

    def test_seeded_grid_of_both_rings_is_pinned(self):
        """Every small quaternion and 20000 seeded polynomials, through the one
        signed-sum formatter the two rings share."""
        texts = [Quaternion(*q).render() for q in itertools.product(range(-3, 4), repeat=4)]
        rng = random.Random(1)
        for _ in range(20000):
            terms = {
                (rng.randint(-4, 4), rng.randint(-4, 4)): rng.choice([-12, -2, -1, 1, 2, 7, 10**30])
                for _ in range(rng.randint(0, 6))
            }
            texts.append(format_poly(LaurentPoly(terms)))
        assert len(texts) == 22401
        digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
        assert digest == "b5f085d7aa5960aa78775b52eba20b2b7a3c5fe8807396a84458020f20bd9bea"


class TestMatrices:
    def test_identity_multiplication(self):
        m = LaurentMatrix([[S, T], [ONE, ZERO]])
        assert LaurentMatrix.identity(2) @ m == m
        assert m @ LaurentMatrix.identity(2) == m

    def test_shape_mismatch_raises(self):
        a = LaurentMatrix.identity(2)
        b = LaurentMatrix.identity(3)
        with pytest.raises(ValueError):
            a @ b

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            LaurentMatrix([[ONE, ZERO], [ONE]])

    def test_equality_is_by_entries(self):
        m = LaurentMatrix([[ONE, S]])
        assert m == LaurentMatrix([[ONE, S]])
        assert m != LaurentMatrix([[ONE, ZERO]])
        assert m != [[ONE, S]]
        with pytest.raises(TypeError):
            hash(m)


class TestDeterminant:
    def test_empty_matrix(self):
        assert determinant(LaurentMatrix([])) == ONE

    def test_identity(self):
        assert determinant(LaurentMatrix.identity(4)) == ONE

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            determinant(LaurentMatrix([[ONE, ZERO]]))

    def test_two_by_two(self):
        m = LaurentMatrix([[S, T], [ONE, S]])
        assert determinant(m) == S * S - T

    def test_zero_row_gives_zero(self):
        m = LaurentMatrix([[ZERO, ZERO], [S, T]])
        assert determinant(m) == ZERO

    def test_equal_rows_give_zero(self):
        """Rank 1 with no zero row or column: no pivot in the last column."""
        m = LaurentMatrix([[ONE + S, T], [ONE + S, T]])
        assert determinant(m) == ZERO

    def test_row_swap_changes_sign(self):
        m = LaurentMatrix([[ZERO, ONE], [ONE, ZERO]])
        assert determinant(m) == -ONE

    def test_negative_exponents_handled(self):
        s_inv = LaurentPoly.monomial(1, -1, 0)
        m = LaurentMatrix([[s_inv, ZERO], [ZERO, S]])
        assert determinant(m) == ONE

    def test_matches_cofactor_on_random_matrices(self):
        rng = random.Random(20240817)
        for trial in range(60):
            n = rng.randint(1, 4)
            m = LaurentMatrix(
                [[random_poly(rng) for _ in range(n)] for _ in range(n)]
            )
            assert determinant(m) == cofactor_determinant(m), f"trial {trial}"

    def test_multiplicative_on_products(self):
        rng = random.Random(11)
        for _ in range(20):
            a = LaurentMatrix([[random_poly(rng, span=1) for _ in range(3)] for _ in range(3)])
            b = LaurentMatrix([[random_poly(rng, span=1) for _ in range(3)] for _ in range(3)])
            assert determinant(a @ b) == determinant(a) * determinant(b)


def seeded_matrices(seed, count, max_n=4, coeff=4):
    """Square matrices with negative exponents; some have a zero row, and some
    are singular with every row nonzero (one row a monomial times another)."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        n = rng.randint(1, max_n)
        rows = [
            [
                LaurentPoly({
                    (rng.randint(-3, 3), rng.randint(-3, 3)): rng.randint(-coeff, coeff)
                    for _ in range(rng.randint(0, 3))
                })
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        if n > 1 and k % 3 == 1:
            i, j = rng.sample(range(n), 2)
            rows[j][rng.randrange(n)] += ONE
            rows[i] = [LaurentPoly.monomial(rng.choice((1, -2)), -1, 2) * p for p in rows[j]]
        elif k % 5 == 2:
            rows[rng.randrange(n)] = [ZERO] * n
        out.append(LaurentMatrix(rows))
    return out


class TestModularDeterminant:
    """``determinant`` (evaluation mod primes) against the two exact oracles."""

    def test_matches_both_oracles_on_seeded_matrices(self):
        matrices = seeded_matrices(7, 90)
        singular = [m for m in matrices if not bareiss_determinant(m)]
        assert any(all(any(p for p in row) for row in m.entries) for m in singular)
        assert any(not any(p for p in row) for m in singular for row in m.entries)
        for k, m in enumerate(matrices):
            expected = bareiss_determinant(m)
            assert expected == cofactor_determinant(m), k
            assert determinant(m) == expected, k

    def test_sizes_zero_and_one(self):
        assert determinant(LaurentMatrix([])) == ONE
        p = LaurentPoly({(-2, 1): 3, (1, -4): -5, (0, 0): 1})
        assert determinant(LaurentMatrix([[p]])) == p
        assert determinant(LaurentMatrix([[ZERO]])) == ZERO
        assert determinant(LaurentMatrix([[LaurentPoly.monomial(-7, 3, -2)]])) == LaurentPoly.monomial(-7, 3, -2)

    def test_large_coefficients_use_three_primes(self, monkeypatch):
        rng = random.Random(40)
        big = 1 << 40
        requested = []
        prime = laurent._prime
        monkeypatch.setattr(laurent, "_prime", lambda index: requested.append(index) or prime(index))
        for _ in range(6):
            m = LaurentMatrix([
                [LaurentPoly({(rng.randint(-1, 1), rng.randint(-1, 1)): rng.randint(-big, big)
                              for _ in range(2)}) for _ in range(3)]
                for _ in range(3)
            ])
            requested.clear()
            assert determinant(m) == bareiss_determinant(m) == cofactor_determinant(m)
            assert max(requested) >= 2

    def test_matches_bareiss_on_braids_like_gap_dense(self):
        for seed in range(30):
            rng = random.Random(seed)
            m = relation_matrix_from_braid(random_braid(rng.randint(4, 6), rng.randint(30, 45), seed))
            assert determinant(m) == bareiss_determinant(m), seed

    def test_blocks_of_one_point_give_the_same_determinant(self, monkeypatch):
        matrices = seeded_matrices(8, 30, max_n=3, coeff=1 << 30)
        matrices.append(relation_matrix_from_braid(random_braid(4, 12, 3)))
        # Kept under the map (i, j) -> (i - j, j): 9 points, against 21 in (i, j).
        e = ONE - LaurentPoly.monomial(1, 3, 2)
        matrices.append(LaurentMatrix([[e, S], [S, e]]))
        expected = [determinant(m) for m in matrices]
        monkeypatch.setattr(laurent, "_BLOCK_ELEMENTS", 1)
        assert [determinant(m) for m in matrices] == expected

    def test_sparse_entry_costs_two_points_not_its_degree(self):
        """A 1 x 1 block such as t^8000 + 1 is read off. The 2 x 2 block of
        e = s^300 t^300 + 1 is a polynomial in s^300 and t^300, so its grid
        is 3 x 3, not 601 x 601."""
        determinant(LaurentMatrix([[S, T], [T, S]]))
        e = LaurentPoly({(300, 300): 1, (0, 0): 1})
        for m in (LaurentMatrix([[LaurentPoly({(0, 8000): 1, (0, 0): 1})]]), LaurentMatrix([[e, ONE], [ONE, e]])):
            start = time.perf_counter()
            det = determinant(m)
            assert time.perf_counter() - start < 0.1
            assert det == bareiss_determinant(m)

    def test_deep_ll_chain_entry(self):
        """An N-deep ll(ll(...),a) chain linearizes to the entry s^-N - 1."""
        depth = 2000
        text = "gens a\nrel " + "ll(" * depth + "a" + ",a)" * depth + " = a\n"
        m = relation_matrix_from_presentation(parse_presentation(text))
        assert m.entries == [[LaurentPoly({(-depth, 0): 1, (0, 0): -1})]]
        assert determinant(m) == bareiss_determinant(m)

    def test_exponent_gcds_match_bareiss(self):
        """Entries in s^g and t^h, after row and column shifts, for g, h up to 4."""
        rng = random.Random(11)
        for k in range(40):
            g, h = rng.randint(1, 4), rng.randint(1, 4)
            n = rng.randint(1, 3)
            rows = [
                [LaurentPoly({(g * rng.randint(-2, 2) + i, h * rng.randint(-2, 2) + j): rng.randint(-5, 5)
                              for _ in range(rng.randint(0, 3))}) for _ in range(n)]
                for i, j in [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]
            ]
            m = LaurentMatrix(rows)
            assert determinant(m) == bareiss_determinant(m), k

    def test_column_without_a_pivot_zeroes_the_batch(self):
        """Column 0 is zero in all three members: each determinant is 0,
        whatever column 1 holds, and only column 1 takes a pivot row."""
        a = np.zeros((1, 2, 2, 3), dtype=np.int64)
        a[0, :, 1] = [[3, 5, 7], [2, 4, 6]]
        num, den, rank = laurent.eliminate_mod(a, np.array([11], dtype=np.int64))
        assert num.tolist() == [[0, 0, 0]]
        assert rank == 1

    def test_high_t_degree_splits_inner_products(self):
        """A t-degree far above _MAX_INNER: one unsplit int64 product sum
        would pass 2^63 at most grid points."""
        f = LaurentPoly({(0, k): -1 for k in range(4500)})
        m = LaurentMatrix([[f, ONE], [T, ONE]])
        assert determinant(m) == cofactor_determinant(m) == f - T


def permuted(rows, rng):
    """rows with their order and their columns' order shuffled."""
    n = len(rows)
    row_order, col_order = rng.sample(range(n), n), rng.sample(range(n), n)
    return LaurentMatrix([[rows[i][j] for j in col_order] for i in row_order])


def block_triangular(rng, sizes):
    """Random dense diagonal blocks of the given sizes, a few random entries
    below them and zeros above."""
    n = sum(sizes)
    starts = list(itertools.accumulate(sizes, initial=0))
    rows = [[ZERO] * n for _ in range(n)]
    for start, size in zip(starts, sizes):
        for i in range(start, n):
            for j in range(start, start + size):
                if i < start + size or rng.random() < 0.3:
                    rows[i][j] = LaurentPoly({(rng.randint(-2, 2), rng.randint(-2, 2)): rng.choice((-3, -1, 1, 2))})
    return rows


def block_split_matrices():
    """40 permuted block-triangular matrices and the relation matrices of 20
    gap-dense-shaped braids (4-6 strands, 30-45 letters)."""
    rng = random.Random(17)
    matrices = []
    for _ in range(40):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        matrices.append(permuted(block_triangular(rng, sizes), rng))
    for seed in range(20):
        rng = random.Random(seed)
        matrices.append(relation_matrix_from_braid(random_braid(rng.randint(4, 6), rng.randint(30, 45), seed)))
    return matrices


def diagonal_monomials(rng, n):
    """An n x n diagonal matrix of random monomials."""
    entries = [LaurentPoly.monomial(rng.choice((-2, -1, 1, 3)), rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)]
    return [[entries[i] if i == j else ZERO for j in range(n)] for i in range(n)]


def partitions(n, largest=None):
    """Every partition of n into parts of at most ``largest``, largest first."""
    if n == 0:
        yield ()
    for first in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first, *rest)


def with_cycle_type(rows, lengths, rng):
    """The diagonal rows with their rows and columns shuffled so that the
    row holding column j's entry is sigma[j], for a permutation sigma whose
    cycles have the given lengths."""
    starts = itertools.accumulate(lengths, initial=0)
    sigma = [start + (k + 1) % length for start, length in zip(starts, lengths) for k in range(length)]
    col_order = rng.sample(range(len(rows)), len(rows))
    row_order = [0] * len(rows)
    for j, i in enumerate(sigma):
        row_order[i] = col_order[j]
    return LaurentMatrix([[rows[i][j] for j in col_order] for i in row_order])


class TestGraphHelpers:
    """``_perfect_matching`` and ``_strong_components`` give ``determinant``
    its matching, its diagonal blocks and the matching's cycles."""

    def test_strong_components_are_mutual_reachability(self):
        rng = random.Random(8)
        for trial in range(200):
            n = rng.randint(0, 8)
            edges = [[w for w in range(n) if rng.random() < 0.25] for _ in range(n)]
            reach = [[v == w or w in edges[v] for w in range(n)] for v in range(n)]
            for k, v, w in itertools.product(range(n), repeat=3):
                reach[v][w] = reach[v][w] or (reach[v][k] and reach[k][w])
            components = laurent._strong_components(edges)
            assert sorted(v for c in components for v in c) == list(range(n)), trial
            component_of = {v: b for b, c in enumerate(components) for v in c}
            for v, w in itertools.product(range(n), repeat=2):
                same = component_of[v] == component_of[w]
                assert same == (reach[v][w] and reach[w][v]), trial

    def test_perfect_matching_exists_exactly_when_a_permutation_fits(self):
        rng = random.Random(9)
        for trial in range(300):
            n = rng.randint(0, 6)
            pattern = [{j for j in range(n) if rng.random() < 0.35} for _ in range(n)]
            fits = any(all(sigma[i] in pattern[i] for i in range(n)) for sigma in itertools.permutations(range(n)))
            owner = laurent._perfect_matching(pattern)
            assert (owner is not None) == fits, trial
            if owner is not None:
                assert sorted(owner) == list(range(n)), trial
                assert all(j in pattern[i] for j, i in enumerate(owner)), trial

    def test_long_paths_need_no_recursion(self):
        """5000 nodes deep, well past the recursion limit of 1000."""
        n = 5000
        path = [[v + 1] for v in range(n - 1)] + [[]]
        assert laurent._strong_components(path) == [[v] for v in reversed(range(n))]
        assert len(laurent._strong_components(path[:-1] + [[0]])) == 1
        # Row n - 1 needs column 0, so one augmenting path moves every row.
        staircase = [{i, i + 1} for i in range(n - 1)] + [{0}]
        assert laurent._perfect_matching(staircase) == [n - 1] + list(range(n - 1))

    def test_chain_pattern_is_matched_in_linear_reads(self):
        """The pattern of the relation matrix of n=N; s1 ... s(N-1): a row's
        free column is taken before the rows behind its owned columns are
        read, so the columns read stay within twice the nonzeros."""
        reads = 0

        class CountingRow(set):
            def __iter__(self):
                nonlocal reads
                for j in super().__iter__():
                    reads += 1
                    yield j

        n = 1000
        rows = [{0, 1}] + [{0, i, i + 1} for i in range(1, n - 1)] + [{0, n - 1}]
        pattern = [CountingRow(row) for row in rows]
        assert laurent._perfect_matching(pattern) is not None
        assert reads <= 2 * sum(map(len, rows))

    def test_strong_components_beyond_eight_vertices(self):
        """200 seeded digraphs of 9-60 vertices: sparse, dense, one long
        cycle with sparse edges around it, and the column graphs of 12-20
        strand chain words. Components are the mutual-reachability classes
        of a breadth-first oracle, listed sinks first."""
        rng = random.Random(10)
        graphs = []
        for trial in range(180):
            n = rng.randint(9, 60)
            density = rng.choice((1.5 / n, 0.2)) if trial < 120 else 1 / n
            edges = [[w for w in range(n) if rng.random() < density] for _ in range(n)]
            if trial >= 120:
                cycle = rng.sample(range(n), rng.randint(n // 2, n))
                for v, w in zip(cycle, cycle[1:] + cycle[:1]):
                    edges[v].append(w)
            graphs.append(edges)
        for seed in range(20):
            n = 12 + seed % 9
            indices = list(range(1, n)) + [rng.randint(1, n - 1) for _ in range(rng.randint(1, n // 4))]
            rng.shuffle(indices)
            letters = [
                BraidLetter(i, virtual=True) if rng.random() < 2 / 3 else BraidLetter(i, rng.choice((1, -1)))
                for i in indices
            ]
            m = relation_matrix_from_braid(BraidWord(n, tuple(letters)))
            pattern = [{j for j, poly in enumerate(row) if poly} for row in m.entries]
            owner = laurent._perfect_matching(pattern)
            graphs.append(pattern if owner is None else [pattern[i] for i in owner])
        for trial, edges in enumerate(graphs):
            n = len(edges)
            reach = []
            for v in range(n):
                queue = [v]
                for u in queue:
                    queue += [w for w in edges[u] if w not in queue]
                reach.append(set(queue))
            components = laurent._strong_components(edges)
            assert sorted(v for c in components for v in c) == list(range(n)), trial
            component_of = {v: b for b, c in enumerate(components) for v in c}
            for v, w in itertools.product(range(n), repeat=2):
                same = component_of[v] == component_of[w]
                assert same == (w in reach[v] and v in reach[w]), trial
            # Sinks first: no edge leads to a later component.
            assert all(component_of[w] <= component_of[v] for v in range(n) for w in edges[v]), trial


class TestBlockSplit:
    """``determinant`` splits a matrix into the diagonal blocks of its block
    triangular form and multiplies their determinants."""

    @pytest.fixture
    def grid_sizes(self, monkeypatch):
        sizes = []
        grid = laurent._grid_determinants

        def recording(dense, n, box_s, box_t, p):
            # The one cap on dense also bounds the grid and everything after it.
            assert len(p) * box_s * box_t <= dense.size
            sizes.append(n)
            return grid(dense, n, box_s, box_t, p)

        monkeypatch.setattr(laurent, "_grid_determinants", recording)
        return sizes

    def test_hidden_blocks_match_both_oracles(self, grid_sizes):
        rng = random.Random(17)
        for trial in range(40):
            sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
            m = permuted(block_triangular(rng, sizes), rng)
            grid_sizes.clear()
            assert determinant(m) == bareiss_determinant(m) == cofactor_determinant(m), trial
            # A 1 x 1 block is read off as its entry, with no grid.
            assert sorted(grid_sizes) == sorted(n for n in sizes if n > 1), trial
        # Permuted diagonal matrices of monomials: every block is 1 x 1, so
        # no grid is evaluated, and the matching takes every cycle type up to 9.
        for n in range(1, 10):
            for lengths in partitions(n):
                m = with_cycle_type(diagonal_monomials(rng, n), lengths, rng)
                grid_sizes.clear()
                det = determinant(m)
                assert det == bareiss_determinant(m), lengths
                assert n > 6 or det == cofactor_determinant(m), lengths
                assert grid_sizes == [], lengths

    def test_component_order_does_not_change_the_determinant(self, monkeypatch):
        """The blocks and cycles may come in any order, with members in any
        order: reversed lists, each rotated by one, give the same results."""
        components = laurent._strong_components

        def shuffled(edges):
            return [c[1:] + c[:1] for c in reversed(components(edges))]

        monkeypatch.setattr(laurent, "_strong_components", shuffled)
        for trial, m in enumerate(block_split_matrices()):
            assert determinant(m) == bareiss_determinant(m), trial

    def test_structural_zero_needs_no_grid(self, monkeypatch):
        def never(*args):
            raise AssertionError("a grid was evaluated")

        monkeypatch.setattr(laurent, "_grid_determinants", never)
        m = LaurentMatrix([[ONE + S, ZERO, ZERO], [T, ZERO, ZERO], [S, T, ONE]])
        assert all(any(row) for row in m.entries) and all(any(col) for col in zip(*m.entries))
        assert determinant(m) == ZERO
        assert determinant(LaurentMatrix([])) == ONE

    def test_one_block_is_evaluated_whole(self, grid_sizes):
        rng = random.Random(3)
        m = permuted(block_triangular(rng, [5]), rng)
        assert determinant(m) == bareiss_determinant(m)
        assert grid_sizes == [5]

    def test_zero_block_ends_the_product(self, grid_sizes):
        rng = random.Random(4)
        rows = block_triangular(rng, [3, 2, 3])
        rows[3][3:5] = [ONE + S, T]
        rows[4][3:5] = [ONE + S, T]
        m = permuted(rows, rng)
        assert determinant(m) == ZERO == bareiss_determinant(m)
        assert grid_sizes == [2]

    def test_blocks_are_read_from_the_pattern(self, monkeypatch):
        """After the pattern pass no entry of the matrix is read again: each
        block reaches ``_block_determinant`` as its nonzero cells."""
        reads = 0

        class CountingRow(list):
            def __getitem__(self, j):
                nonlocal reads
                reads += 1
                return super().__getitem__(j)

        recorded = []
        block_determinant = laurent._block_determinant

        def recording(n, cells):
            recorded.append((n, cells))
            return block_determinant(n, cells)

        monkeypatch.setattr(laurent, "_block_determinant", recording)
        chain = relation_matrix_from_braid(BraidWord(60, tuple(BraidLetter(i) for i in range(1, 60))))
        for trial, m in enumerate(block_split_matrices() + [chain]):
            expected = bareiss_determinant(m)
            m.entries = [CountingRow(row) for row in m.entries]
            recorded.clear()
            assert determinant(m) == expected, trial
            assert reads == 0, trial
            for n, cells in recorded:
                assert all(poly and 0 <= i < n and 0 <= j < n for i, j, poly in cells), trial
        assert recorded, "the chain word's matrix has a block larger than 1 x 1"


class TestBlockCap:
    """A block's dense coefficient array, primes x n^2 x (s-degree + 1) x
    (t-degree + 1), may have at most MAX_MATRIX_CELLS cells; a larger one is
    refused before it is allocated and before any grid is evaluated."""

    m = LaurentMatrix([[ONE + S, T], [S * T, ONE - T]])
    shape = (1, 4, 2, 2)

    def test_block_at_the_cap_is_evaluated(self, monkeypatch):
        shapes = []
        grid = laurent._grid_determinants

        def recording(dense, *args):
            shapes.append(dense.shape)
            return grid(dense, *args)

        monkeypatch.setattr(laurent, "_grid_determinants", recording)
        monkeypatch.setattr(laurent, "MAX_MATRIX_CELLS", 16)
        assert determinant(self.m) == bareiss_determinant(self.m)
        assert shapes == [self.shape]

    def test_block_one_cell_above_the_cap_is_refused(self, monkeypatch):
        def never(*args):
            raise AssertionError("a grid was evaluated")

        monkeypatch.setattr(laurent, "_grid_determinants", never)
        monkeypatch.setattr(laurent, "MAX_MATRIX_CELLS", 15)
        message = "determinant block would have 1x4x2x2 = 16 cells, above the limit of 2^24"
        with pytest.raises(DomainError) as refusal:
            determinant(self.m)
        assert str(refusal.value) == message

    def test_one_constant_caps_matrices_and_blocks(self):
        assert alexander.MAX_MATRIX_CELLS is laurent.MAX_MATRIX_CELLS


def band_matrix(rng, n):
    """An n x n matrix whose entries on the band |i - j| <= 1 each sum one to
    three terms drawn from 1 - st, s, t, (st)^k, s^-1 t^-1 and the sparse
    powers s^g and t^h, with k, g and h drawn once per matrix; zeros off it."""
    k, g, h = rng.randint(2, 4), rng.randint(2, 5), rng.randint(2, 5)
    vocabulary = [
        ONE - S * T,
        S,
        T,
        LaurentPoly.monomial(1, k, k),
        LaurentPoly.monomial(1, -1, -1),
        LaurentPoly.monomial(1, g, 0),
        LaurentPoly.monomial(1, 0, h),
    ]
    return LaurentMatrix([
        [
            sum((rng.choice((-2, -1, 1, 3)) * p for p in rng.sample(vocabulary, rng.randint(1, 3))), ZERO)
            if abs(i - j) <= 1 else ZERO
            for j in range(n)
        ]
        for i in range(n)
    ])


class TestExponentMaps:
    """Each block is evaluated under the map of the exponents whose box has
    the fewest points; the determinant maps back."""

    @pytest.fixture
    def boxes(self, monkeypatch):
        out = []
        grid = laurent._grid_determinants

        def recording(dense, n, box_s, box_t, p):
            assert len(p) * box_s * box_t <= dense.size
            out.append((box_s, box_t))
            return grid(dense, n, box_s, box_t, p)

        monkeypatch.setattr(laurent, "_grid_determinants", recording)
        return out

    @staticmethod
    def boxes_by_map(m, boxes, monkeypatch):
        """The boxes of m's blocks under each map alone, and then the boxes
        ``determinant`` evaluates; every run must give the Bareiss determinant."""
        expected = bareiss_determinant(m)
        by_map = []
        for index in range(len(laurent._MAPS)):
            with monkeypatch.context() as only:
                only.setattr(laurent, "_MAPS", (laurent._MAPS[index],))
                boxes.clear()
                assert determinant(m) == expected
                by_map.append(list(boxes))
        boxes.clear()
        assert determinant(m) == expected
        return by_map, list(boxes)

    @pytest.mark.parametrize(
        "entry, other, points",
        [
            (S + T, ONE, [9, 15, 15]),
            (ONE - LaurentPoly.monomial(1, 3, 2), S, [21, 9, 21]),
            (ONE - LaurentPoly.monomial(1, 2, 3), T, [21, 21, 9]),
        ],
        ids=["identity", "i-j", "j-i"],
    )
    def test_the_one_map_that_shrinks_the_box_is_kept(self, boxes, monkeypatch, entry, other, points):
        m = LaurentMatrix([[entry, other], [other, entry]])
        by_map, kept = self.boxes_by_map(m, boxes, monkeypatch)
        assert [box_s * box_t for [(box_s, box_t)] in by_map] == points
        assert kept == [(3, 3)]
        assert determinant(m) == cofactor_determinant(m)

    def test_band_matrices_match_bareiss_and_keep_every_map(self, boxes, monkeypatch):
        rng = random.Random(23)
        kept_maps = set()
        for trial in range(40):
            m = band_matrix(rng, rng.randint(2, 4))
            by_map, kept = self.boxes_by_map(m, boxes, monkeypatch)
            for b, box in enumerate(kept):
                points = [box_s * box_t for box_s, box_t in (boxes_m[b] for boxes_m in by_map)]
                best = points.index(min(points))
                assert box == by_map[best][b], trial
                kept_maps.add(best)
        assert kept_maps == {0, 1, 2}
