import time

import pytest

from biquandles.braids import invert_braid, parse_braid_word, random_braid
from biquandles.errors import DomainError, ParseError
from biquandles.terms import (
    BQPresentation,
    BQRelation,
    BQTerm,
    apply_morphism,
    braid_act_down,
    braid_act_up,
    generator_names,
    ll,
    lr,
    parse_presentation,
    presentation_from_braid,
    presentation_from_braid_down,
    presentations_equal_up_to_renaming,
    ul,
    ur,
)

A = BQTerm.gen("a")
B = BQTerm.gen("b")


class TestTerms:
    def test_helpers_coerce_strings(self):
        assert ur("a", "b") == BQTerm.node("ur", A, B)

    def test_render_nested(self):
        t = ll(lr("a", "b"), ur("b", "a"))
        assert t.render() == "ll(lr(a,b),ur(b,a))"

    def test_deep_terms_do_not_recurse(self):
        depth = 1200
        text = "gens a b\nrel " + "ur(" * depth + "a" + ",b)" * depth + " = a\n"
        p, q = parse_presentation(text), parse_presentation(text)
        assert p.render() == text
        assert p == q and hash(p.relations[0]) == hash(q.relations[0])
        assert p != parse_presentation(text.replace("ur(a,b)", "ur(b,b)"))
        assert repr(p.relations[0].lhs).count("BQTerm(") == 2 * depth + 1
        assert presentations_equal_up_to_renaming(p, q)
        assert not presentations_equal_up_to_renaming(p, parse_presentation(text.replace(" = a", " = b")))

    def test_repr_lists_fields(self):
        assert repr(ur("a", "b")) == (
            "BQTerm(op='ur', name=None, left=BQTerm(op=None, name='a', left=None, right=None),"
            " right=BQTerm(op=None, name='b', left=None, right=None))"
        )

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            BQTerm.node("up", A, B)

    def test_relation_render_and_flip(self):
        rel = BQRelation(ur("a", "b"), A)
        assert rel.render() == "ur(a,b) = a"
        assert rel.flip().render() == "a = ur(a,b)"


class TestPresentationText:
    def test_round_trip(self):
        text = "gens a b\nrel ur(a,b) = a\nrel lr(b,a) = b\n"
        pres = parse_presentation(text)
        assert pres.render() == text
        assert parse_presentation(pres.render()) == pres

    def test_comments_and_blank_lines(self):
        pres = parse_presentation("# closure of a two-strand word\ngens a b\n\nrel ur(a,b) = a # top\n")
        assert pres.generators == ["a", "b"]
        assert len(pres.relations) == 1

    def test_rejects_missing_gens(self):
        with pytest.raises(ParseError):
            parse_presentation("rel ur(a,b) = a\n")

    def test_rejects_rel_before_gens(self):
        with pytest.raises(ParseError):
            parse_presentation("rel a = a\ngens a\n")

    def test_rejects_duplicate_gens_line(self):
        with pytest.raises(ParseError):
            parse_presentation("gens a\ngens b\n")

    def test_rejects_duplicate_generator_names(self):
        with pytest.raises(ParseError):
            parse_presentation("gens a a\n")

    def test_rejects_undeclared_generator(self):
        with pytest.raises(ParseError):
            parse_presentation("gens a\nrel ur(a,b) = a\n")

    def test_rejects_operation_as_generator_name(self):
        with pytest.raises(ParseError):
            parse_presentation("gens ur\n")

    def test_rejects_malformed_term(self):
        with pytest.raises(ParseError):
            parse_presentation("gens a b\nrel ur(a b) = a\n")

    def test_rejects_missing_equals(self):
        with pytest.raises(ParseError):
            parse_presentation("gens a b\nrel ur(a,b) a\n")

    def test_rejects_trailing_tokens(self):
        with pytest.raises(ParseError):
            parse_presentation("gens a b\nrel ur(a,b) = a b\n")

    def test_rejects_unknown_line(self):
        with pytest.raises(ParseError):
            parse_presentation("gens a\nrelation a = a\n")

    def test_presentation_validates_generators(self):
        with pytest.raises(ValueError):
            BQPresentation(["a"], [BQRelation(ur("a", "b"), A)])

    def test_generator_check_visits_shared_subterms_once(self):
        """The tree below has 2^24 leaves but only 25 distinct nodes."""
        t = A
        for _ in range(24):
            t = ur(t, t)
        start = time.perf_counter()
        BQPresentation(["a"], [BQRelation(t, A)])
        assert time.perf_counter() - start < 1.0
        with pytest.raises(ValueError):
            BQPresentation(["a"], [BQRelation(t, ur(t, B))])


class TestMorphisms:
    def test_positive_up_crossing(self):
        assert apply_morphism("phi_u", (A, B)) == (ur(B, A), lr(A, B))

    def test_negative_up_crossing(self):
        assert apply_morphism("phi_u_inv", (A, B)) == (ll(B, A), ul(A, B))

    def test_positive_down_crossing(self):
        assert apply_morphism("phi_d", (A, B)) == (ul(B, A), ll(A, B))

    def test_negative_down_crossing(self):
        assert apply_morphism("phi_d_inv", (A, B)) == (lr(B, A), ur(A, B))

    def test_virtual_swap(self):
        assert apply_morphism("tau", (A, B)) == (B, A)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            apply_morphism("phi", (A, B))


class TestBraidActions:
    def test_up_single_positive(self):
        w = parse_braid_word("n=2; s1")
        assert braid_act_up(w, (A, B)) == (ur(B, A), lr(A, B))

    def test_up_word_composes_first_letter_first(self):
        w = parse_braid_word("n=2; v1 s1")
        assert braid_act_up(w, (A, B)) == (ur(A, B), lr(B, A))

    def test_down_single_positive_acts_on_top_slots(self):
        w = parse_braid_word("n=3; s2")
        out = braid_act_down(w, (A, B, BQTerm.gen("c")))
        assert out == (ul(B, A), ll(A, B), BQTerm.gen("c"))

    def test_down_word_composes_last_letter_first(self):
        w = parse_braid_word("n=2; -s1 v1")
        assert braid_act_down(w, (B, A)) == (lr(B, A), ur(A, B))

    def test_tuple_length_checked(self):
        w = parse_braid_word("n=3; s1")
        with pytest.raises(ValueError):
            braid_act_up(w, (A, B))

    def test_up_action_is_anti_homomorphism(self):
        for seed in range(6):
            left = random_braid(3, 4, seed)
            right = random_braid(3, 4, seed + 50)
            combined = type(left)(3, left.letters + right.letters)
            tup = tuple(BQTerm.gen(g) for g in generator_names(3))
            assert braid_act_up(combined, tup) == braid_act_up(
                right, braid_act_up(left, tup)
            )

    def test_down_action_is_homomorphism(self):
        for seed in range(6):
            left = random_braid(3, 4, seed)
            right = random_braid(3, 4, seed + 50)
            combined = type(left)(3, left.letters + right.letters)
            tup = tuple(BQTerm.gen(g) for g in generator_names(3))
            assert braid_act_down(combined, tup) == braid_act_down(
                left, braid_act_down(right, tup)
            )

    def test_up_equals_reversed_down_of_inverse(self):
        for seed in range(8):
            w = random_braid(4, 7, seed)
            gens = tuple(BQTerm.gen(g) for g in generator_names(4))
            up = braid_act_up(w, gens)
            down = braid_act_down(invert_braid(w), tuple(reversed(gens)))
            assert up == tuple(reversed(down))


class TestPresentationsFromBraids:
    def test_virtual_hopf_up(self):
        pres = presentation_from_braid(parse_braid_word("n=2; v1 s1"))
        assert pres.generators == ["a", "b"]
        assert [rel.render() for rel in pres.relations] == [
            "ur(a,b) = a",
            "lr(b,a) = b",
        ]

    def test_virtual_hopf_down(self):
        pres = presentation_from_braid_down(parse_braid_word("n=2; -s1 v1"))
        assert pres.generators == ["a", "b"]
        assert [rel.render() for rel in pres.relations] == [
            "lr(b,a) = b",
            "ur(a,b) = a",
        ]

    def test_down_of_inverse_matches_up(self):
        for seed in range(6):
            w = random_braid(3, 6, seed)
            up = presentation_from_braid(w)
            down = presentation_from_braid_down(invert_braid(w))
            assert presentations_equal_up_to_renaming(up, down)

    def test_generator_names_roll_over(self):
        assert generator_names(3) == ["a", "b", "c"]
        assert generator_names(27)[:2] == ["g1", "g2"]


class TestRenamingEquivalence:
    def test_detects_swapped_names(self):
        p = parse_presentation("gens a b\nrel ur(a,b) = a\n")
        q = parse_presentation("gens a b\nrel ur(b,a) = b\n")
        assert presentations_equal_up_to_renaming(p, q)

    def test_relation_order_ignored(self):
        p = parse_presentation("gens a b\nrel ur(a,b) = a\nrel lr(b,a) = b\n")
        q = parse_presentation("gens a b\nrel lr(b,a) = b\nrel ur(a,b) = a\n")
        assert presentations_equal_up_to_renaming(p, q)

    def test_relation_sides_unordered(self):
        p = parse_presentation("gens a b\nrel ur(a,b) = a\n")
        q = parse_presentation("gens a b\nrel a = ur(a,b)\n")
        assert presentations_equal_up_to_renaming(p, q)

    def test_different_relations_rejected(self):
        p = parse_presentation("gens a b\nrel ur(a,b) = a\n")
        q = parse_presentation("gens a b\nrel lr(a,b) = a\n")
        assert not presentations_equal_up_to_renaming(p, q)

    def test_size_mismatch_rejected(self):
        p = parse_presentation("gens a b\nrel ur(a,b) = a\n")
        q = parse_presentation("gens a b c\nrel ur(a,b) = a\n")
        assert not presentations_equal_up_to_renaming(p, q)

    def test_too_many_generators_guarded(self):
        names = [f"g{i}" for i in range(1, 10)]
        pres = BQPresentation(names, [])
        with pytest.raises(DomainError):
            presentations_equal_up_to_renaming(pres, pres)
