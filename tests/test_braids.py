from collections import Counter
from itertools import product

import pytest
from hypothesis import given, strategies as st

from biquandles.braids import (
    BraidLetter,
    BraidWord,
    ad_inversion,
    apply_relator_move,
    available_moves,
    free_reduce,
    invert_braid,
    letter_alphabet,
    markov_move,
    nu,
    parse_braid_word,
    random_braid,
    relator_move_sites,
    render_braid_word,
    sigma,
    vertical_mirror,
)
from biquandles.errors import ParseError


def words(max_strands=5, max_len=12):
    def build(draw):
        n = draw(st.integers(min_value=2, max_value=max_strands))
        k = draw(st.integers(min_value=0, max_value=max_len))
        letters = [draw(st.sampled_from(letter_alphabet(n))) for _ in range(k)]
        return BraidWord(n, tuple(letters))

    return st.composite(build)()


class TestLetters:
    def test_sigma_inverse_flips_exponent(self):
        assert sigma(2).inverse() == sigma(2, -1)
        assert sigma(2, -1).inverse() == sigma(2)

    def test_virtual_is_its_own_inverse(self):
        assert nu(3).inverse() == nu(3)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            BraidLetter(0)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            BraidLetter(1, 2)

    def test_virtual_rejects_exponent(self):
        with pytest.raises(ValueError):
            BraidLetter(1, -1, virtual=True)


class TestParseRender:
    def test_parses_mixed_word(self):
        w = parse_braid_word("n=3; s1 -s2 v1")
        assert w.strands == 3
        assert w.letters == (sigma(1), sigma(2, -1), nu(1))

    def test_empty_word(self):
        w = parse_braid_word("n=2;")
        assert w.letters == ()
        assert render_braid_word(w) == "n=2;"

    def test_render_round_trip_examples(self):
        for text in ("n=2; v1 s1", "n=4; s1 -s3 v2 v2", "n=1;"):
            w = parse_braid_word(text)
            assert render_braid_word(w) == str(w) == text

    @given(words())
    def test_round_trip_random(self, w):
        assert parse_braid_word(render_braid_word(w)) == w

    def test_rejects_missing_header(self):
        with pytest.raises(ParseError):
            parse_braid_word("s1 s2")

    def test_rejects_negative_virtual(self):
        with pytest.raises(ParseError):
            parse_braid_word("n=3; -v1")

    def test_rejects_index_out_of_range(self):
        with pytest.raises(ParseError):
            parse_braid_word("n=2; s2")

    def test_rejects_index_zero(self):
        with pytest.raises(ParseError):
            parse_braid_word("n=2; s0")

    def test_rejects_zero_strands(self):
        with pytest.raises(ParseError):
            parse_braid_word("n=0;")

    def test_rejects_garbage_token(self):
        with pytest.raises(ParseError):
            parse_braid_word("n=2; x1")

    @pytest.mark.parametrize("text", ["n=٣; s1", "n=3; s١", "n=３; s1", "n=3; v２"])
    def test_rejects_non_ascii_digits(self, text):
        with pytest.raises(ParseError):
            parse_braid_word(text)


class TestInversionAndReduction:
    @given(words())
    def test_invert_is_involution(self, w):
        assert invert_braid(invert_braid(w)) == w

    @given(words())
    def test_word_times_inverse_reduces_to_empty(self, w):
        inv = invert_braid(w)
        doubled = BraidWord(w.strands, w.letters + inv.letters)
        assert free_reduce(doubled).letters == ()

    def test_reduce_cancels_inner_pair(self):
        w = parse_braid_word("n=3; s1 v2 v2 -s1")
        assert free_reduce(w).letters == ()

    @given(words())
    def test_reduce_is_idempotent(self, w):
        once = free_reduce(w)
        assert free_reduce(once) == once

    def test_vertical_mirror_is_inverse_word(self):
        w = parse_braid_word("n=2; v1 s1")
        assert vertical_mirror(w) == parse_braid_word("n=2; -s1 v1")


class TestRelatorMoves:
    def test_braid_relator_rewrites_forward(self):
        w = parse_braid_word("n=3; s1 s2 s1")
        assert apply_relator_move(w, "braid", 0, 1) == parse_braid_word("n=3; s2 s1 s2")

    def test_braid_relator_rewrites_backward(self):
        w = parse_braid_word("n=3; s2 s1 s2")
        assert apply_relator_move(w, "braid", 0, -1) == parse_braid_word("n=3; s1 s2 s1")

    def test_braid_relator_handles_inverses(self):
        w = parse_braid_word("n=3; -s1 -s2 -s1")
        assert apply_relator_move(w, "braid", 0, 1) == parse_braid_word("n=3; -s2 -s1 -s2")

    def test_virtual_relator(self):
        w = parse_braid_word("n=3; v1 v2 v1")
        assert apply_relator_move(w, "virtual", 0, 1) == parse_braid_word("n=3; v2 v1 v2")

    def test_mixed_relator(self):
        w = parse_braid_word("n=3; s1 v2 v1")
        assert apply_relator_move(w, "mixed", 0, 1) == parse_braid_word("n=3; v2 v1 s2")

    def test_mixed_relator_negative_exponent(self):
        w = parse_braid_word("n=3; -s1 v2 v1")
        assert apply_relator_move(w, "mixed", 0, 1) == parse_braid_word("n=3; v2 v1 -s2")

    def test_commute_swaps_distant_letters(self):
        w = parse_braid_word("n=4; s1 v3")
        assert apply_relator_move(w, "commute", 0, 1) == parse_braid_word("n=4; v3 s1")

    def test_commute_rejects_adjacent_indices(self):
        w = parse_braid_word("n=3; s1 s2")
        with pytest.raises(ValueError):
            apply_relator_move(w, "commute", 0, 1)

    def test_no_match_raises(self):
        w = parse_braid_word("n=3; s1 s1 s1")
        with pytest.raises(ValueError):
            apply_relator_move(w, "braid", 0, 1)

    def test_unknown_family_raises(self):
        w = parse_braid_word("n=3; s1 s2 s1")
        with pytest.raises(ValueError):
            apply_relator_move(w, "nonsense", 0, 1)

    @given(words(max_strands=4, max_len=10))
    def test_every_site_round_trips(self, w):
        for family, pos, direction in relator_move_sites(w):
            moved = apply_relator_move(w, family, pos, direction)
            assert moved.strands == w.strands
            if family == "commute":
                back = apply_relator_move(moved, "commute", pos, 1)
            else:
                back = apply_relator_move(moved, family, pos, -direction)
            assert back == w

    def test_sites_on_known_word(self):
        w = parse_braid_word("n=3; s1 s2 s1")
        assert ("braid", 0, 1) in relator_move_sites(w)

    def test_site_counts_over_all_short_words(self):
        """Golden counts over all 6561 words of 4 letters on 4 strands."""
        counts = Counter()
        for letters in product(letter_alphabet(4), repeat=4):
            for family, _, direction in relator_move_sites(BraidWord(4, letters)):
                counts[family, direction] += 1
        assert counts == {
            ("braid", 1): 72,
            ("braid", -1): 72,
            ("virtual", 1): 36,
            ("virtual", -1): 36,
            ("mixed", 1): 72,
            ("mixed", -1): 72,
            ("commute", 1): 4374,
        }


class TestMarkovMoves:
    def test_conjugate_wraps_word(self):
        w = parse_braid_word("n=2; s1")
        out = markov_move(w, "conjugate", letter=nu(1))
        assert out == parse_braid_word("n=2; v1 s1 v1")

    def test_conjugate_requires_letter(self):
        with pytest.raises(ValueError):
            markov_move(parse_braid_word("n=2; s1"), "conjugate")

    def test_stabilize_adds_strand_and_letter(self):
        w = parse_braid_word("n=2; s1")
        out = markov_move(w, "stabilize", sign=-1)
        assert out == parse_braid_word("n=3; s1 -s2")

    def test_destabilize_undoes_stabilize(self):
        w = parse_braid_word("n=2; s1 v1")
        up = markov_move(w, "stabilize")
        assert markov_move(up, "destabilize") == w

    def test_destabilize_rejects_repeated_top_index(self):
        w = parse_braid_word("n=3; s2 s2")
        with pytest.raises(ValueError):
            markov_move(w, "destabilize")

    def test_destabilize_rejects_virtual_top(self):
        w = parse_braid_word("n=3; s1 v2")
        with pytest.raises(ValueError):
            markov_move(w, "destabilize")

    def test_destabilize_rejects_empty(self):
        with pytest.raises(ValueError):
            markov_move(parse_braid_word("n=2;"), "destabilize")

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            markov_move(parse_braid_word("n=2; s1"), "flip")


class TestAdInversion:
    def test_single_positive_crossing(self):
        assert ad_inversion(parse_braid_word("n=2; s1")) == parse_braid_word("n=2; v1 -s1 v1")

    def test_virtual_letter_unchanged(self):
        assert ad_inversion(parse_braid_word("n=2; v1")) == parse_braid_word("n=2; v1")

    def test_two_crossings_reduce(self):
        out = ad_inversion(parse_braid_word("n=2; s1 s1"))
        assert out == parse_braid_word("n=2; v1 -s1 v1 v1 -s1 v1")
        assert free_reduce(out) == parse_braid_word("n=2; v1 -s1 -s1 v1")

    def test_indices_flip_on_more_strands(self):
        out = ad_inversion(parse_braid_word("n=3; s1"))
        assert out == parse_braid_word("n=3; v2 -s2 v2")


class TestRandomWords:
    def test_deterministic_for_seed(self):
        assert random_braid(4, 10, 7) == random_braid(4, 10, 7)

    def test_respects_length_and_strands(self):
        w = random_braid(3, 8, 1)
        assert w.strands == 3 and len(w) == 8

    def test_single_strand_is_empty(self):
        assert random_braid(1, 9, 0).letters == ()

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError):
            random_braid(2, -1, 0)


class TestAvailableMoves:
    def test_labels_are_unique_and_deterministic(self):
        w = parse_braid_word("n=3; s1 s2 s1")
        first = available_moves(w)
        second = available_moves(w)
        assert [label for label, _ in first] == [label for label, _ in second]

    def test_mirrors_are_opt_in(self):
        w = parse_braid_word("n=2; s1")
        labels = [label for label, _ in available_moves(w)]
        assert "ad_inversion" not in labels
        labels = [label for label, _ in available_moves(w, include_mirrors=True)]
        assert "ad_inversion" in labels and "vertical_mirror" in labels


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: BraidWord(0), "strand count must be >= 1, got 0"),
        (lambda: BraidWord(2, (sigma(2),)), "letter s2 needs 3 strands, word has 2"),
        (lambda: BraidWord(3, (sigma(1), nu(3))), "letter v3 needs 4 strands, word has 3"),
        (
            lambda: apply_relator_move(parse_braid_word("n=3; s1 s2"), "braid", 0),
            "no braid relator window at position 0",
        ),
        (
            lambda: apply_relator_move(parse_braid_word("n=4; s1 s3"), "commute", 1),
            "no commute relator window at position 1",
        ),
        (
            lambda: markov_move(parse_braid_word("n=2; s1"), "stabilize", sign=2),
            "stabilization sign must be +1 or -1, got 2",
        ),
        (lambda: random_braid(0, 5, 1), "strand count must be >= 1, got 0"),
    ],
    ids=["no-strands", "letter-beyond-strands", "virtual-beyond-strands", "window-past-end",
         "commute-window-past-end", "stabilize-sign", "random-no-strands"],
)
def test_refusal_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
