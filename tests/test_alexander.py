import hashlib
import random
import time

import pytest

from biquandles import terms
from biquandles.alexander import (
    block_at,
    braid_matrix_down,
    braid_matrix_up,
    crossing_matrix,
    gap,
    gap_text,
    normalize_gap,
    relation_matrix_from_braid,
    relation_matrix_from_presentation,
)
from biquandles.braids import BraidLetter, BraidWord, invert_braid, parse_braid_word, random_braid
from biquandles.errors import DomainError
from biquandles.laurent import ONE, S, T, ZERO, LaurentMatrix, LaurentPoly, determinant, format_poly
from biquandles.terms import BQTerm, parse_presentation, presentation_from_braid


def seeded_words(count):
    """Seeded random words with 2 to 6 strands and 0 to 12 letters."""
    for seed in range(count):
        yield random_braid(2 + seed % 5, seed % 13, seed)


def chain_word(n, seed):
    """Every index 1..n-1 once, in seeded order; two letters in three virtual."""
    rng = random.Random(seed)
    indices = list(range(1, n))
    rng.shuffle(indices)
    letters = [
        BraidLetter(i, virtual=True) if rng.random() < 2 / 3 else BraidLetter(i, rng.choice((1, -1)))
        for i in indices
    ]
    return BraidWord(n, tuple(letters))


def wide_chain_word(seed):
    """n = 12..20 by seed: every index 1..n-1 once plus 1..n//4 extra
    indices, in seeded order; two letters in three virtual."""
    rng = random.Random(seed)
    n = 12 + seed % 9
    indices = list(range(1, n)) + [rng.randint(1, n - 1) for _ in range(rng.randint(1, n // 4))]
    rng.shuffle(indices)
    letters = [
        BraidLetter(i, virtual=True) if rng.random() < 2 / 3 else BraidLetter(i, rng.choice((1, -1)))
        for i in indices
    ]
    return BraidWord(n, tuple(letters))


def block_product(w, names, down):
    """The braid matrix as a product of embedded n x n crossing blocks."""
    n = w.strands
    out = LaurentMatrix.identity(n)
    for letter in w.letters:
        name = "V" if letter.virtual else names[letter.exponent]
        if down:
            out = out @ block_at(crossing_matrix(name), n, n - 1 - letter.index)
        else:
            out = block_at(crossing_matrix(name), n, letter.index - 1) @ out
    return out


def reversal_matrix(n):
    rows = [[ONE if j == n - 1 - i else ZERO for j in range(n)] for i in range(n)]
    return LaurentMatrix(rows)


S_INV = LaurentPoly.monomial(1, -1, 0)
T_INV = LaurentPoly.monomial(1, 0, -1)
ST_INV = LaurentPoly.monomial(1, -1, -1)


class TestCrossingMatrices:
    def test_positive_up_crossing(self):
        assert crossing_matrix("A").entries == [[ONE - S * T, T], [S, ZERO]]

    def test_hatted_pair_swaps_corners(self):
        assert crossing_matrix("Ahat").entries == [[ZERO, S], [T, ONE - S * T]]
        assert crossing_matrix("Bhat").entries == [[ONE - ST_INV, T_INV], [S_INV, ZERO]]

    def test_inverse_crossing(self):
        assert crossing_matrix("B").entries == [[ZERO, S_INV], [T_INV, ONE - ST_INV]]

    def test_sideways_family(self):
        assert crossing_matrix("C").entries == [[ZERO, S_INV], [T, S_INV - T]]
        assert crossing_matrix("Chat").entries == [[S_INV - T, T], [S_INV, ZERO]]
        assert crossing_matrix("D").entries == [[ZERO, S], [T_INV, S - T_INV]]
        assert crossing_matrix("Dhat").entries == [[S - T_INV, T_INV], [S, ZERO]]

    def test_virtual_swap(self):
        assert crossing_matrix("V").entries == [[ZERO, ONE], [ONE, ZERO]]

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            crossing_matrix("E")

    def test_copies_are_independent(self):
        m = crossing_matrix("A")
        m.entries[0][0] = ZERO
        assert crossing_matrix("A").entries[0][0] == ONE - S * T


class TestBlockEmbedding:
    def test_places_block(self):
        m = block_at(crossing_matrix("V"), 3, 1)
        assert m.entries[0][0] == ONE
        assert m.entries[1][2] == ONE and m.entries[2][1] == ONE
        assert m.entries[1][1] == ZERO

    def test_rejects_bad_start(self):
        with pytest.raises(ValueError):
            block_at(crossing_matrix("V"), 3, 2)


class TestBraidMatrices:
    def test_up_single_letters(self):
        assert braid_matrix_up(parse_braid_word("n=2; s1")) == crossing_matrix("A")
        assert braid_matrix_up(parse_braid_word("n=2; -s1")) == crossing_matrix("B")
        assert braid_matrix_up(parse_braid_word("n=2; v1")) == crossing_matrix("V")

    def test_down_single_letters(self):
        assert braid_matrix_down(parse_braid_word("n=2; s1")) == crossing_matrix("Bhat")
        assert braid_matrix_down(parse_braid_word("n=2; -s1")) == crossing_matrix("Ahat")

    def test_up_composes_letters_as_left_factors(self):
        w = parse_braid_word("n=2; v1 s1")
        assert braid_matrix_up(w) == crossing_matrix("A") @ crossing_matrix("V")

    def test_down_composes_letters_as_right_factors(self):
        w = parse_braid_word("n=2; s1 v1")
        assert braid_matrix_down(w) == crossing_matrix("Bhat") @ crossing_matrix("V")

    def test_down_uses_mirrored_positions(self):
        w = parse_braid_word("n=3; s1")
        expected = block_at(crossing_matrix("Bhat"), 3, 1)
        assert braid_matrix_down(w) == expected

    def test_row_fold_matches_block_product(self):
        for w in list(seeded_words(60)) + [chain_word(n, seed=n) for n in range(12, 21, 2)]:
            assert braid_matrix_up(w) == block_product(w, {1: "A", -1: "B"}, down=False)
            assert braid_matrix_down(w) == block_product(w, {1: "Bhat", -1: "Ahat"}, down=True)

    def test_up_matches_reversed_down_of_inverse(self):
        for seed in range(10):
            w = random_braid(4, 8, seed)
            r = reversal_matrix(4)
            assert braid_matrix_up(w) == r @ braid_matrix_down(invert_braid(w)) @ r

    def test_braid_path_builds_no_term(self, monkeypatch):
        """Braid matrices and ``gap`` fold coefficient rows: with term
        construction and ``terms.linearize`` both raising, they still give
        the same values."""
        words = [parse_braid_word("n=1;"), parse_braid_word("n=2; v1 s1")] + list(seeded_words(20))
        expected = [(braid_matrix_up(w), braid_matrix_down(w), gap(w)) for w in words]

        def never(*args, **kwargs):
            raise AssertionError("a term was built or linearized")

        monkeypatch.setattr(BQTerm, "__init__", never)
        monkeypatch.setattr(terms, "linearize", never)
        with pytest.raises(AssertionError):
            presentation_from_braid(words[1])
        assert [(braid_matrix_up(w), braid_matrix_down(w), gap(w)) for w in words] == expected


class TestRelationMatrices:
    def test_virtual_hopf_braid_matrix(self):
        m = relation_matrix_from_braid(parse_braid_word("n=2; v1 s1"))
        assert m.entries == [[T - 1, ONE - S * T], [ZERO, S - 1]]

    def test_wide_chain_builds_fast(self):
        w = chain_word(400, 3)
        start = time.perf_counter()
        m = relation_matrix_from_braid(w)
        assert time.perf_counter() - start < 1.0
        assert m.rows == m.cols == 400

    def test_presentation_linearization_matches_braid(self):
        """M - I for M = braid_matrix_up(w) equals the linearized closure
        presentation. An empty word's M is the identity, so M - I is zero."""
        empty = [parse_braid_word("n=1;"), parse_braid_word("n=2;")]
        words = [random_braid(3, 7, seed) for seed in range(8)] + list(seeded_words(60))
        words += [chain_word(n, seed=n) for n in range(12, 21)] + [parse_braid_word("n=4; v1 v3 v2 v1")] + empty
        for w in words:
            from_braid = relation_matrix_from_braid(w)
            from_pres = relation_matrix_from_presentation(presentation_from_braid(w))
            assert from_braid == from_pres
        assert not any(cell for w in empty for row in relation_matrix_from_braid(w).entries for cell in row)

    def test_presentation_rows_follow_relation_order(self):
        pres = parse_presentation("gens a b\nrel ur(a,b) = a\nrel lr(b,a) = b\n")
        m = relation_matrix_from_presentation(pres)
        assert m.entries[0] == [T - 1, ONE - S * T]
        assert m.entries[1] == [ZERO, S - 1]


class TestNormalization:
    def test_zero_normalizes_to_zero(self):
        assert normalize_gap(ZERO) == ZERO

    def test_clears_minimal_degrees(self):
        p = LaurentPoly.monomial(1, -2, 3) + LaurentPoly.monomial(2, 0, 5)
        out = normalize_gap(p)
        assert out.min_degrees() == (0, 0)

    def test_sign_fixed_by_smallest_monomial(self):
        p = -(ONE - S)
        assert normalize_gap(p) == ONE - S

    def test_invariant_under_unit_multiples(self):
        p = ONE - S - T + S * T
        for di, dj, sign in ((1, 0, 1), (-2, 3, -1), (0, -1, 1), (4, 4, -1)):
            q = p.scale_by_monomial(di, dj) * LaurentPoly.const(sign)
            assert normalize_gap(q) == normalize_gap(p)


class TestGap:
    def test_virtual_hopf(self):
        assert gap_text(parse_braid_word("n=2; v1 s1")) == "1 - s - t + s*t"

    def test_classical_words_vanish(self):
        assert gap(parse_braid_word("n=2; s1 s1 s1")) == ZERO
        assert gap(parse_braid_word("n=1;")) == ZERO
        assert gap(parse_braid_word("n=2; s1")) == ZERO

    def test_braid_and_presentation_paths_agree(self):
        for seed in range(6):
            w = random_braid(3, 6, seed + 30)
            assert gap(w) == gap(presentation_from_braid(w))

    def test_presentation_must_be_square(self):
        pres = parse_presentation("gens a b\nrel ur(a,b) = a\n")
        with pytest.raises(DomainError):
            gap(pres)

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            gap("n=2; s1")

    def test_text_form_is_normalized(self):
        w = parse_braid_word("n=2; v1 s1")
        assert gap_text(w) == format_poly(gap(w))

    def test_wide_chain_words_are_pinned(self):
        """120 mostly virtual chain words, whose relation matrices split into
        diagonal blocks or have no perfect matching; the digest is the one
        computed before ``determinant`` split its matrices."""
        texts = [gap_text(wide_chain_word(seed)) for seed in range(120)]
        assert 0 < texts.count("0") < 120
        digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
        assert digest == "789135ca9cad2368d246a97d63cb2761fd4187ba442063a967ca667fc8e9e23d"

    def test_raw_determinants_are_pinned(self):
        """The unnormalized determinants of 40 braids shaped like gap-dense
        items (n 4-6, L 30-45) and of 40 wide chain words (n 12-20); the
        digest is the one computed before ``determinant`` chose a map of the
        exponents per block."""
        words = []
        for seed in range(200, 240):
            rng = random.Random(seed)
            words.append(random_braid(rng.randint(4, 6), rng.randint(30, 45), seed))
        words += [wide_chain_word(seed) for seed in range(120, 160)]
        texts = [format_poly(determinant(relation_matrix_from_braid(w))) for w in words]
        digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
        assert digest == "60fbde27691df73a43cc7c8010400d2b86b49e966858f31ffccf4e92bbe232f7"
