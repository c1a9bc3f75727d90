import itertools
import random
import re
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from biquandles import alexander, quaternion, terms
from biquandles.braids import invert_braid, parse_braid_word, random_braid
from biquandles.errors import DomainError, ParseError
from biquandles.laurent import ONE, ZERO, LaurentPoly, S, T
from biquandles.quaternion import Quaternion
from biquandles.terms import (
    OPS,
    BQPresentation,
    BQRelation,
    BQTerm,
    _postorder,
    apply_morphism,
    braid_act_down,
    braid_act_up,
    generator_names,
    linear_node,
    linearize,
    ll,
    lr,
    parse_presentation,
    presentation_from_braid,
    presentation_from_braid_down,
    presentations_equal_up_to_renaming,
    switch_rules,
    ul,
    ur,
)

A = BQTerm.gen("a")
B = BQTerm.gen("b")


def _linearize_tree(pairs, rules):
    """Reference linearizer: one stack entry per path of the unshared tree."""
    acc = {}
    stack = pairs[::-1]
    while stack:
        t, mult = stack.pop()
        if t.op is None:
            total = acc.get(t.name)
            total = mult if total is None else total + mult
            if total:
                acc[t.name] = total
            else:
                acc.pop(t.name, None)
            continue
        left_mult, right_mult = rules[t.op]
        if right_mult is not None:
            stack.append((t.right, mult * right_mult))
        stack.append((t.left, mult * left_mult))
    return acc


def _distinct_nodes(pres):
    """The node objects reachable from the relations, each once by identity."""
    seen = {}
    stack = [t for rel in pres.relations for t in (rel.lhs, rel.rhs)]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            if t.op is not None:
                stack += (t.left, t.right)
    return list(seen.values())


# Ring elements for the linearizer property tests: zero, units, sums, and
# (quaternions) non-commuting pairs.
RINGS = {
    "alexander": (
        alexander.OP_COEFFS,
        [LaurentPoly(), LaurentPoly.const(1), LaurentPoly.const(-2), LaurentPoly({(1, -1): 3, (0, 2): -1})],
    ),
    "quaternion": (
        quaternion.OP_COEFFS,
        [Quaternion(), Quaternion(1), Quaternion(0, 1, -1), Quaternion(2, 0, 1, -3)],
    ),
}


# Each ring's crossing pair (the positive crossing and its inverse) as rows of
# output slots over the input pair, and its per-operation multipliers written
# out by hand.
_S_INV, _T_INV, _ST_INV = (LaurentPoly.monomial(1, i, j) for i, j in ((-1, 0), (0, -1), (-1, -1)))
_I, _J = Quaternion(0, 1), Quaternion(0, 0, 1)
SWITCHES = {
    "alexander": (
        (alexander._CROSSING_MATRICES["A"], alexander._CROSSING_MATRICES["B"]),
        {"ur": (T, ONE - S * T), "lr": (S, ZERO), "ul": (_T_INV, ONE - _ST_INV), "ll": (_S_INV, ZERO)},
    ),
    "quaternion": (
        quaternion._CROSSING_PAIR,
        {
            "ur": (_I, _I + _J),
            "ul": (_I, Quaternion(1) - _J),
            "lr": (-_I, _I + _J),
            "ll": (-_I, Quaternion(1) - _J),
        },
    ),
}


@pytest.mark.parametrize("ring", sorted(SWITCHES))
def test_switch_rules_read_the_written_out_table(ring):
    pair, table = SWITCHES[ring]
    assert switch_rules(*pair) == table


def _matmul(x, y):
    """Matrix product over any ring with + and *, entries multiplied in order."""
    return [
        [sum((row[k] * y[k][j] for k in range(1, len(y))), row[0] * y[0][j]) for j in range(len(y[0]))]
        for row in x
    ]


def _embed(m, at):
    """The 2x2 quaternion matrix m in the 3 x 3 identity at rows and columns at, at + 1."""
    out = [[Quaternion(int(i == j)) for j in range(3)] for i in range(3)]
    for i, j in itertools.product(range(2), repeat=2):
        out[at + i][at + j] = m[i][j]
    return out


@pytest.mark.parametrize("identity", ["inverse", "yang_baxter"])
@pytest.mark.xfail(
    strict=True,
    reason="S·S' != I and S fails (S×1)(1×S)(S×1) = (1×S)(S×1)(1×S), so the quaternion pair is no switch",
)
def test_quaternion_crossing_pair_is_a_switch(identity):
    """S·S⁻¹ = I and the Yang–Baxter equation, the linear-switch conditions of
    Fenn, Jordan-Santana and Kauffman, "Biquandles and virtual links" (2004).
    The Laurent pair passes both in ``test_acceptance.py``."""
    switch, inverse = quaternion._CROSSING_PAIR
    if identity == "inverse":
        assert _matmul(switch, inverse) == [[Quaternion(1), Quaternion()], [Quaternion(), Quaternion(1)]]
    else:
        left, right = _embed(switch, 0), _embed(switch, 1)
        assert _matmul(_matmul(left, right), left) == _matmul(_matmul(right, left), right)


def _shared_dag(steps, roots, ring):
    """Terms built from steps (op, i, j): each new node joins two earlier
    pool entries, so subterms are shared; 'a' appears as two distinct
    generator objects. roots (k, c) pick pool entries and multipliers."""
    pool = [BQTerm.gen("a"), BQTerm.gen("b"), BQTerm.gen("a"), BQTerm.gen("c")]
    for op, i, j in steps:
        pool.append(BQTerm.node(OPS[op % 4], pool[i % len(pool)], pool[j % len(pool)]))
    mults = RINGS[ring][1]
    return [(pool[k % len(pool)], mults[c % len(mults)]) for k, c in roots]


class TestTerms:
    def test_helpers_coerce_strings(self):
        assert ur("a", "b") == BQTerm.node("ur", A, B)
        assert ur("a", "b") != "ur(a,b)" and A != "a"

    def test_render_nested(self):
        t = ll(lr("a", "b"), ur("b", "a"))
        assert t.render() == str(t) == "ll(lr(a,b),ur(b,a))"

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
        assert rel.render() == str(rel) == "ur(a,b) = a"
        assert rel.flip().render() == "a = ur(a,b)"


class TestPresentationText:
    def test_round_trip(self):
        text = "gens a b\nrel ur(a,b) = a\nrel lr(b,a) = b\n"
        pres = parse_presentation(text)
        assert pres.render() == str(pres) == text
        assert parse_presentation(pres.render()) == pres

    def test_each_render_is_one_walk(self, monkeypatch):
        """A presentation renders and sizes in one walk over all its relation
        sides, and a relation renders in one walk over both of its sides."""
        pres = presentation_from_braid(parse_braid_word("n=3; s1 s2 -s1 v2"))
        walks = []
        monkeypatch.setattr(terms, "_postorder", lambda roots: walks.append(roots) or _postorder(roots))
        for render in (pres.render, pres.render_size, pres.relations[0].render):
            walks.clear()
            render()
            assert len(walks) == 1, render

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

    def test_presentation_refuses_duplicate_generator_names(self):
        with pytest.raises(ValueError) as info:
            BQPresentation(["a", "b", "a"], [])
        assert str(info.value) == "duplicate generator names"

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

    def test_generator_check_walks_shared_chain_once(self):
        """2000 relations over one 2000-deep chain: one walk, not one per side."""
        t = A
        for _ in range(2000):
            t = ur(t, B)
        start = time.perf_counter()
        BQPresentation(["a", "b"], [BQRelation(t, A)] * 2000)
        assert time.perf_counter() - start < 0.5

    def test_undeclared_generator_is_named_left_to_right(self):
        with pytest.raises(ValueError, match="undeclared generator 'b'"):
            BQPresentation(["a"], [BQRelation(ur("b", "c"), ur("d", "e"))])


class TestInterningParser:
    def test_repeated_subterms_are_one_object(self):
        p = parse_presentation("gens a b\nrel ur(a,b) = a\nrel lr(ur(a,b),ur(a,b)) = b\n")
        first, second = p.relations[0].lhs, p.relations[1].lhs
        assert second.left is first and second.right is first
        assert p.relations[0].rhs is first.left

    @pytest.mark.parametrize("seed", range(3))
    def test_parsed_render_has_the_braid_built_nodes(self, seed):
        built = presentation_from_braid(random_braid(3, 30, seed=seed))
        parsed = parse_presentation(built.render())
        assert parsed == built
        assert len(_distinct_nodes(parsed)) == len(_distinct_nodes(built))

    def test_round_trip_of_shared_dags(self):
        """One node per distinct subterm, and the render comes back unchanged."""
        rng = random.Random(9)
        for k in range(100):
            steps = [(rng.randrange(4), rng.randrange(64), rng.randrange(64)) for _ in range(rng.randint(1, 10))]
            roots = [(rng.randrange(64), 0) for _ in range(2)]
            text = "gens a b c\nrel " + " = ".join(t.render() for t, _ in _shared_dag(steps, roots, "alexander")) + "\n"
            parsed = parse_presentation(text)
            assert parsed.render() == text, k
            nodes = _distinct_nodes(parsed)
            assert len(nodes) == len({t.render() for t in nodes}), k

    @pytest.mark.parametrize(
        "text, message",
        [
            ("rel ur(a,b) = a\n", "line 1: rel before gens"),
            ("rel a = a\ngens a\n", "line 1: rel before gens"),
            ("gens a\ngens b\n", "line 2: duplicate gens line"),
            ("gens a a\n", "line 1: duplicate generator names"),
            ("gens a\nrel ur(a,b) = a\n", "line 2: undeclared generator 'b'"),
            ("gens a b\nrel ur(a,b) = ur(b,c)\n", "line 2: undeclared generator 'c'"),
            ("gens ur\n", "line 1: bad generator name 'ur'"),
            ("gens a b\nrel ur(a b) = a\n", "line 2: expected ',' in ur(...) term"),
            ("gens a b\nrel ur(a,b) a\n", "line 2: expected '=' between relation sides"),
            ("gens a b\nrel ur(a,b) = a b\n", "line 2: trailing tokens after relation"),
            ("gens a b\nrel ur(a,ur(b,a)) = ur(a,ur(b,a)) x\n", "line 2: trailing tokens after relation"),
            ("gens a\nrelation a = a\n", "line 2: expected 'gens' or 'rel', got 'relation a = a'"),
            ("gens a\nrel ur(a,a\n", "line 2: expected ')' closing ur(...) term"),
            ("gens a\nrel ur(a,a) =\n", "line 2: unexpected end of term"),
            ("gens a\nrel ur(a,) = a\n", "line 2: unexpected token ')' in term"),
            ("gens a\nrel ur a = a\n", "line 2: undeclared generator 'ur'"),
            ("gensa b\n", "line 1: expected 'gens' or 'rel', got 'gensa b'"),
            ("gens a b\nrelur(a,b) = a\n", "line 2: expected 'gens' or 'rel', got 'relur(a,b) = a'"),
            ("gens\n", "line 1: gens line lists no generators"),
            ("# no names\ngens   # a comment\n", "line 2: gens line lists no generators"),
            ("", "presentation has no gens line"),
            ("# only a comment\n\n", "presentation has no gens line"),
            # Through the text-keyed skip: ur(a,b) is memoized on line 2 and skipped on line 3.
            ("gens a b\nrel ur(a,b) = a\nrel lr(ur(a,b),ur(a,c)) = b\n", "line 3: undeclared generator 'c'"),
            ("gens a b\nrel ur(a,b) = a\nrel ur(a,b) = ur(a,b)(a)\n", "line 3: trailing tokens after relation"),
            ("gens a b\nrel ur(a,b) = a\nrel lr(ur(a,b),ur(a,b) = b\n", "line 3: expected ')' closing lr(...) term"),
            ("gens a b\nrel ur(a,b) = a\nrel ur(a,b)) = a\n", "line 3: expected '=' between relation sides"),
            ("gens a b\nrel ur(a,b) = a\nrel a = ur(a,b))\n", "line 3: trailing tokens after relation"),
            ("gens a b\nrel lr(ur(a,b),b) = a\nrel lr(ur(a, b),c) = a\n", "line 3: undeclared generator 'c'"),
            ("gens a b\nrel ur(a,b) = a\nrel ur( a , b ) b = a\n", "line 3: expected '=' between relation sides"),
        ],
    )
    def test_error_messages(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_presentation(text)
        assert str(info.value) == message


def _one_node_per_subterm(pres) -> bool:
    """No two node objects of ``pres`` are equal as trees."""
    numbers, table = {}, {}
    for t in _postorder([side for rel in pres.relations for side in (rel.lhs, rel.rhs)]):
        key = t.name if t.op is None else (t.op, numbers[id(t.left)], numbers[id(t.right)])
        if key in table:
            return False
        numbers[id(t)] = table[key] = len(table)
    return True


def _respaced(text, rng, spacers):
    """``text`` with a spacer from ``spacers`` between tokens, a comment after
    some lines and CRLF line ends; names and the keyword keep a nonempty one."""
    lines = []
    for line in text.splitlines():
        keyword, rest = line.split(" ", 1)
        tokens = re.findall(r"[a-z][a-z0-9]*|\S", rest)
        between = [s for s in spacers if s] if keyword == "gens" else spacers
        body = "".join(tok + rng.choice(between) for tok in tokens)
        comment = rng.choice(["", "# ur(a,b) (", "\t# note )"])
        lines.append(keyword + rng.choice([" ", "\t", "\u3000"]) + body + comment)
    return "\r\n".join(lines) + "\r\n"


class TestSpacingProperty:
    """Re-spaced, commented and CRLF text parses to the canonical presentation,
    one node per distinct subterm. Uniform spacing repeats subterm text exactly
    (the skip path); mixed spacing repeats it with other whitespace."""

    SPACINGS = [[" "], ["\t"], ["\u3000"], ["", " ", "\t", "\u3000", " \t "]]

    def _check(self, text, rng):
        canonical = parse_presentation(text)
        assert canonical.render() == text and _one_node_per_subterm(canonical)
        count = len(_distinct_nodes(canonical))
        for spacers in self.SPACINGS:
            variant = parse_presentation(_respaced(text, rng, spacers))
            assert variant == canonical
            assert len(_distinct_nodes(variant)) == count
            assert _one_node_per_subterm(variant)

    def test_braid_presentations(self):
        rng = random.Random(29)
        for _ in range(6):
            word = random_braid(rng.randint(3, 5), rng.randint(12, 22), seed=rng.randrange(2**32))
            self._check(presentation_from_braid(word).render(), rng)

    def test_shared_dags(self):
        rng = random.Random(29)
        for _ in range(40):
            steps = [(rng.randrange(4), rng.randrange(64), rng.randrange(64)) for _ in range(rng.randint(1, 12))]
            pairs = _shared_dag(steps, [(rng.randrange(64), 0) for _ in range(4)], "alexander")
            rels = [f"rel {lhs.render()} = {rhs.render()}" for (lhs, _), (rhs, _) in zip(pairs[::2], pairs[1::2])]
            self._check("gens a b c\n" + "\n".join(rels) + "\n", rng)


class TestLinearize:
    """``linearize`` visits each distinct node once; ``_linearize_tree``
    walks every path and is the reference."""

    @pytest.mark.parametrize("ring", sorted(RINGS))
    def test_matches_tree_walk_on_seeded_dags(self, ring):
        rng = random.Random(5)
        rules = RINGS[ring][0]
        for k in range(200):
            steps = [(rng.randrange(4), rng.randrange(64), rng.randrange(64)) for _ in range(rng.randint(0, 10))]
            roots = [(rng.randrange(64), rng.randrange(4)) for _ in range(rng.randint(1, 3))]
            pairs = _shared_dag(steps, roots, ring)
            assert linearize(pairs, rules) == _linearize_tree(pairs, rules), k

    @given(
        st.sampled_from(sorted(RINGS)),
        st.lists(st.tuples(*[st.integers(0, 63)] * 3), max_size=10),
        st.lists(st.tuples(st.integers(0, 63), st.integers(0, 3)), min_size=1, max_size=3),
    )
    def test_matches_tree_walk(self, ring, steps, roots):
        pairs = _shared_dag(steps, roots, ring)
        rules = RINGS[ring][0]
        assert linearize(pairs, rules) == _linearize_tree(pairs, rules)

    def test_one_multiplication_per_edge(self):
        """t_{k+1} = ur(t_k, t_k) has k+1 distinct nodes and 2^k leaf paths."""

        class Counted:
            def __init__(self, value):
                self.value = value

            def __mul__(self, other):
                products.append(None)
                return Counted(self.value * other.value)

            def __add__(self, other):
                return Counted(self.value + other.value)

            def __bool__(self):
                return bool(self.value)

        products = []
        k = 20
        t = A
        for _ in range(k):
            t = ur(t, t)
        rules = {op: (Counted(2), Counted(3)) for op in OPS}
        out = linearize([(t, Counted(1))], rules)
        assert out["a"].value == 5**k
        assert len(products) <= 2 * (k + 1)


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


def reference_act_down(w, tup):
    """The downward fold written out: letters last to first, a letter with
    index i on slots n-1-i and n-i, through phi_d, phi_d_inv and tau.
    """
    n = w.strands
    labels = list(tup)
    for letter in reversed(w.letters):
        kind = "tau" if letter.virtual else ("phi_d" if letter.exponent > 0 else "phi_d_inv")
        i = n - 1 - letter.index
        labels[i], labels[i + 1] = apply_morphism(kind, (labels[i], labels[i + 1]))
    return tuple(labels)


# Every (n, L) with n in 1..7 and L in 0..20, the empty word on each n among
# them; on one strand random_braid gives the empty word at any length.
DOWN_WORDS = [random_braid(1 + k % 7, (k // 7) % 21, seed=k) for k in range(210)]


class TestDownwardActionOracle:
    def test_action_matches_reference(self):
        for w in DOWN_WORDS:
            gens = tuple(BQTerm.gen(g) for g in generator_names(w.strands))
            assert braid_act_down(w, gens) == reference_act_down(w, gens), str(w)

    def test_presentation_matches_reference(self):
        for w in DOWN_WORDS:
            names = generator_names(w.strands)
            gens = tuple(BQTerm.gen(g) for g in reversed(names))
            image = reference_act_down(w, gens)
            expected = "gens " + " ".join(names) + "\n" + "".join(
                f"rel {lhs.render()} = {rhs.render()}\n" for lhs, rhs in zip(image, gens)
            )
            assert presentation_from_braid_down(w).render() == expected, str(w)

    @pytest.mark.parametrize("size", [2, 4])
    def test_tuple_length_checked(self, size):
        w = parse_braid_word("n=3; s1")
        with pytest.raises(ValueError, match=f"tuple length {size} does not match 3 strands"):
            braid_act_down(w, tuple(BQTerm.gen(g) for g in generator_names(size)))


# n in 1..6 and L in 0..15, so one-strand and empty words are among them.
ROW_FOLD_WORDS = [random_braid(1 + k % 6, k % 16, seed=k) for k in range(200)]


class TestRowFold:
    """``linear_node`` folds coefficient rows through a word; linearizing the
    term fold's images is the reference."""

    @pytest.mark.parametrize("ring, one", [("alexander", ONE), ("quaternion", quaternion.ONE_Q)])
    @pytest.mark.parametrize("act", [braid_act_up, braid_act_down])
    def test_matches_linearized_term_fold(self, ring, one, act):
        rules = RINGS[ring][0]
        assert any(w.strands == 1 for w in ROW_FOLD_WORDS) and any(not w.letters for w in ROW_FOLD_WORDS)
        for w in ROW_FOLD_WORDS:
            names = generator_names(w.strands)
            rows = act(w, tuple({g: one} for g in names), linear_node(rules))
            images = act(w, tuple(BQTerm.gen(g) for g in names))
            assert len(rows) == w.strands
            for row, image in zip(rows, images):
                assert {g: c for g, c in row.items() if c} == linearize([(image, one)], rules), str(w)


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

    def test_renaming_check_is_bounded_by_the_dags(self):
        """The text of this 40-letter word is about 50 MB; its DAGs are small."""
        w = random_braid(3, 40, seed=2)
        up, down = presentation_from_braid(w), presentation_from_braid_down(invert_braid(w))
        start = time.perf_counter()
        assert presentations_equal_up_to_renaming(up, down)
        assert time.perf_counter() - start < 0.1
        tracemalloc.start()
        try:
            assert presentations_equal_up_to_renaming(up, down)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_render_size_counts_the_text(self):
        chain = parse_braid_word("n=300; " + " ".join(f"s{i}" for i in range(1, 300)))
        for w in DOWN_WORDS + [random_braid(30, 12, seed=3), chain]:
            for pres in (presentation_from_braid(w), presentation_from_braid_down(w)):
                assert pres.render_size() == len(pres.render()), str(w)

    def test_equality_is_by_value(self):
        pres = presentation_from_braid(parse_braid_word("n=3; s1 v2 -s1"))
        fresh = parse_presentation(pres.render())
        assert fresh.relations[0].lhs is not pres.relations[0].lhs
        assert fresh == pres
        assert BQPresentation(pres.generators[::-1], pres.relations) != pres
        with pytest.raises(TypeError):
            hash(pres)

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
        q = parse_presentation("gens a b\nrel ur(a,b) = a\nrel lr(a,b) = b\n")
        assert not presentations_equal_up_to_renaming(p, q)

    def test_too_many_generators_guarded(self):
        names = [f"g{i}" for i in range(1, 10)]
        pres = BQPresentation(names, [])
        with pytest.raises(DomainError):
            presentations_equal_up_to_renaming(pres, pres)


def reference_term_eq(x, y):
    """Reference term equality: the two terms walked in parallel with an
    explicit stack, each pair of shared nodes once.
    """
    seen = set()
    stack = [(x, y)]
    while stack:
        x, y = stack.pop()
        if x is y or (id(x), id(y)) in seen:
            continue
        if x.op != y.op or x.name != y.name:
            return False
        if x.op is not None:
            seen.add((id(x), id(y)))
            stack += ((x.right, y.right), (x.left, y.left))
    return True


def reference_presentation_eq(p, q):
    return (
        p.generators == q.generators
        and len(p.relations) == len(q.relations)
        and all(
            reference_term_eq(r.lhs, s.lhs) and reference_term_eq(r.rhs, s.rhs)
            for r, s in zip(p.relations, q.relations)
        )
    )


def _tree(t, mapping=None):
    """``t`` as a tree with a fresh node on every path, generators renamed by ``mapping``."""
    if t.op is None:
        return BQTerm.gen(t.name if mapping is None else mapping[t.name])
    return BQTerm.node(t.op, _tree(t.left, mapping), _tree(t.right, mapping))


def _text(t, mapping=None):
    if t.op is None:
        return t.name if mapping is None else mapping[t.name]
    return f"{t.op}({_text(t.left, mapping)},{_text(t.right, mapping)})"


def reference_equal_up_to_renaming(p, q):
    """Reference renaming-equality: rename every leaf and render every
    relation, once per bijection, and compare the sorted texts.
    """
    if len(p.generators) != len(q.generators) or len(p.relations) != len(q.relations):
        return False

    def key(rel, mapping=None):
        return sorted(_text(side, mapping) for side in (rel.lhs, rel.rhs))

    target = sorted(key(rel) for rel in q.relations)
    return any(
        sorted(key(rel, dict(zip(p.generators, perm))) for rel in p.relations) == target
        for perm in itertools.permutations(q.generators)
    )


def _with_one_change(t, names, rng):
    """A tree copy of ``t`` with one node changed: another operation at an
    inner node, another generator name at a leaf.
    """
    tree = _tree(t)
    nodes, stack = [], [tree]
    while stack:
        s = stack.pop()
        nodes.append(s)
        if s.op is not None:
            stack += (s.left, s.right)
    target = rng.choice(nodes)

    def rebuild(s):
        if s is target:
            if s.op is None:
                return BQTerm.gen(rng.choice([g for g in names if g != s.name]))
            return BQTerm.node(rng.choice([o for o in OPS if o != s.op]), s.left, s.right)
        if s.op is None:
            return s
        return BQTerm.node(s.op, rebuild(s.left), rebuild(s.right))

    return rebuild(tree)


def _base_presentation(k, rng):
    """A braid closure's presentation (up or down) or random shared relations, on 2-4 generators."""
    n = 2 + k % 3
    if k % 2:
        w = random_braid(n, rng.randint(0, 7), seed=k)
        return presentation_from_braid_down(w) if k % 4 == 1 else presentation_from_braid(w)
    names = generator_names(n)
    pool = [BQTerm.gen(g) for g in names]
    for _ in range(rng.randint(0, 8)):
        pool.append(BQTerm.node(rng.choice(OPS), rng.choice(pool), rng.choice(pool)))
    rels = [BQRelation(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(1, n))]
    return BQPresentation(names, rels)


def _variants(p, rng):
    """Presentations to compare with ``p``: equal with other sharing, one node
    changed, generators swapped, relations reordered and sides flipped.
    """
    names = p.generators
    perm = rng.sample(names, len(names))
    mapping = dict(zip(names, perm))
    trees = [BQRelation(_tree(r.lhs), _tree(r.rhs)) for r in p.relations]

    def changed(rels):
        rels = list(rels)
        i = rng.randrange(len(rels))
        lhs, rhs = rels[i].lhs, rels[i].rhs
        if rng.random() < 0.5:
            lhs = _with_one_change(lhs, names, rng)
        else:
            rhs = _with_one_change(rhs, names, rng)
        rels[i] = BQRelation(lhs, rhs)
        return rels

    def reordered(rels):
        rels = [r.flip() if rng.random() < 0.5 else r for r in rels]
        rng.shuffle(rels)
        return rels

    renamed = [BQRelation(_tree(r.lhs, mapping), _tree(r.rhs, mapping)) for r in p.relations]
    return [
        parse_presentation(p.render()),
        BQPresentation(names, trees),
        BQPresentation(names, changed(p.relations)),
        BQPresentation(names, renamed),
        BQPresentation(names, reordered(p.relations)),
        BQPresentation(names, reordered(renamed)),
        BQPresentation(names, changed(reordered(renamed))),
    ]


class TestStructureEqualityOracle:
    """Term and presentation equality, and renaming-equality, agree with the
    reference walker and the reference render-and-rename key."""

    def test_matches_references(self):
        rng = random.Random(2024)
        outcomes = {"term": set(), "presentation": set(), "renaming": set()}
        cases = 0
        for k in range(40):
            p = _base_presentation(k, rng)
            for q in _variants(p, rng):
                for x, y in ((p, q), (q, p)):
                    cases += 1
                    for r, s in zip(x.relations, y.relations):
                        for a, b in ((r.lhs, s.lhs), (r.rhs, s.rhs), (r.lhs, s.rhs)):
                            expected = reference_term_eq(a, b)
                            assert (a == b) is expected and (a != b) is not expected, (k, str(x), str(y))
                            outcomes["term"].add(expected)
                    expected = reference_presentation_eq(x, y)
                    assert (x == y) is expected, (k, str(x), str(y))
                    outcomes["presentation"].add(expected)
                    expected = reference_equal_up_to_renaming(x, y)
                    assert presentations_equal_up_to_renaming(x, y) is expected, (k, str(x), str(y))
                    outcomes["renaming"].add(expected)
        assert cases >= 200
        assert all(seen == {True, False} for seen in outcomes.values())

    def test_sharing_does_not_matter(self):
        """A parsed DAG equals its unshared tree, and one changed node breaks it."""
        rng = random.Random(7)
        for k in range(60):
            p = presentation_from_braid(random_braid(3, 1 + k % 8, seed=k))
            parsed = parse_presentation(p.render())
            for rel in parsed.relations:
                tree = _tree(rel.lhs)
                assert rel.lhs == tree and tree == rel.lhs, k
                other = _with_one_change(rel.lhs, parsed.generators, rng)
                assert rel.lhs != other and not reference_term_eq(rel.lhs, other), k


def test_renaming_search_stops_at_the_first_unmatched_relation():
    """Every bijection fails here; keying all relations of each one before
    comparing took 4.2 s on this 7-generator pair."""
    p = presentation_from_braid(random_braid(7, 50, seed=3))
    q = parse_presentation(p.render().replace("ur(", "ul(", 1))
    start = time.perf_counter()
    assert not presentations_equal_up_to_renaming(p, q)
    assert time.perf_counter() - start < 2
