"""Biquandle terms, presentations, and the braid actions that produce them.

A term is either a generator or one of the four binary operations ur, lr,
ul, ll applied to two terms. A presentation lists generators and relations
between terms; closing a braid word yields one presentation per strand.
Presentations and the braid matrices both come from the one upward fold
``braid_act_up``, over terms or (``linear_node``) coefficient rows; the downward
action is the upward one of the inverse word, read from the other end.
``linearize_relations`` (lhs - rhs, by ``linearize``) serves presentations in both rings.
``_postorder`` is the one walk over term DAGs: rendering, hashing, repr,
equality and renaming-equality (both compare structure numbers from
``_fold``), the generator check and ``linearize`` all take their node order
from it, so each visits each distinct node once.
Parsed presentations are hash-consed: a subterm repeated anywhere in a file
is one shared node, so the text's tree becomes a DAG. The parser also reads
each distinct subterm's text once. It keeps each parsed subterm under its
source text, finds where a subterm ends from its line's matching parens
(``_closing_parens``, one numpy pass over the paren positions), and on a repeat
takes the node and skips the text. Keys are sliced only while their total
length stays within ``_KEY_CHARS_PER_CHAR`` (4) times the text; past that the
parser reads token by token, so a deep chain of distinct subterms, whose keys
would be quadratic in its depth, still parses in linear time and memory.

Presentation text grammar (line oriented, ``#`` starts a comment):

    gens a b c
    rel ur(a,b) = a

with ``TERM := IDENT | OP "(" TERM "," TERM ")"`` and IDENT matching
``[a-z][a-z0-9]*``.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .braids import BraidWord, invert_braid
from .errors import DomainError, ParseError, content_lines

OPS = ("ur", "lr", "ul", "ll")


def _postorder(roots) -> list["BQTerm"]:
    """Each distinct node reachable from ``roots``, generators included, after
    its operands; left operands before right ones, roots in order. Iterative,
    so depth is bounded by memory.
    """
    order: list[BQTerm] = []
    seen: set[int] = set()
    stack = [(t, False) for t in reversed(roots)]
    while stack:
        t, operands_done = stack.pop()
        if operands_done:
            order.append(t)
        elif id(t) not in seen:
            seen.add(id(t))
            stack.append((t, True))
            if t.op is not None:
                stack += ((t.right, False), (t.left, False))
    return order


def _fold(term: "BQTerm", leaf, node):
    """Bottom-up value of a term: leaf(t) at generators, node(t, left, right)
    elsewhere. Each distinct node is evaluated once, so shared subterms cost
    nothing extra.
    """
    done: dict[int, object] = {}
    for t in _postorder([term]):
        done[id(t)] = leaf(t) if t.op is None else node(t, done[id(t.left)], done[id(t.right)])
    return done[id(term)]


def _structure_number(term: "BQTerm", key) -> int:
    """``term``'s number as a tree: ``key`` numbers each generator name and each
    (op, left number, right number). Under one injective ``key``, terms get
    equal numbers exactly when they are equal as trees, whatever their sharing.
    A lookup-only ``key`` that answers -1 for a missing entry gives -1 to every
    term with a subterm not numbered before.
    """
    return _fold(term, lambda g: key(g.name), lambda t, a, b: key((t.op, a, b)))


# Equality, hashing and repr walk the term with ``_fold``; the
# dataclass-generated ones recurse once per nesting level.
@dataclass(frozen=True, eq=False, repr=False)
class BQTerm:
    op: str | None = None
    name: str | None = None
    left: "BQTerm | None" = None
    right: "BQTerm | None" = None

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        table: dict = {}  # self is numbered first; other only looks numbers up
        return self is other or _structure_number(
            self, lambda k: table.setdefault(k, len(table))
        ) == _structure_number(other, lambda k: table.get(k, -1))

    def __hash__(self) -> int:
        return _fold(self, lambda t: hash(t.name), lambda t, a, b: hash((t.op, a, b)))

    def __repr__(self) -> str:
        return _fold(
            self,
            lambda t: f"BQTerm(op=None, name={t.name!r}, left=None, right=None)",
            lambda t, a, b: f"BQTerm(op={t.op!r}, name=None, left={a}, right={b})",
        )

    @classmethod
    def gen(cls, name: str) -> "BQTerm":
        return cls(name=name)

    @classmethod
    def node(cls, op: str, left: "BQTerm", right: "BQTerm") -> "BQTerm":
        if op not in OPS:
            raise ValueError(f"unknown operation {op!r}")
        return cls(op=op, left=left, right=right)

    def render(self) -> str:
        return _fold(self, lambda t: t.name, lambda t, a, b: f"{t.op}({a},{b})")

    def __str__(self) -> str:
        return self.render()


def _coerce(x) -> BQTerm:
    return BQTerm.gen(x) if isinstance(x, str) else x


def ur(a, b) -> BQTerm:
    return BQTerm.node("ur", _coerce(a), _coerce(b))


def lr(a, b) -> BQTerm:
    return BQTerm.node("lr", _coerce(a), _coerce(b))


def ul(a, b) -> BQTerm:
    return BQTerm.node("ul", _coerce(a), _coerce(b))


def ll(a, b) -> BQTerm:
    return BQTerm.node("ll", _coerce(a), _coerce(b))


@dataclass(frozen=True)
class BQRelation:
    lhs: BQTerm
    rhs: BQTerm

    def flip(self) -> "BQRelation":
        return BQRelation(self.rhs, self.lhs)

    def render(self) -> str:
        return f"{self.lhs.render()} = {self.rhs.render()}"

    def __str__(self) -> str:
        return self.render()


# repr=False: a generated repr would write each relation out as a tree.
@dataclass(repr=False)
class BQPresentation:
    """Finitely presented biquandle: generator names plus term relations."""

    generators: list[str]
    relations: list[BQRelation]

    def __post_init__(self):
        self.generators = list(self.generators)
        self.relations = list(self.relations)
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generator names")
        declared = set(self.generators)
        for t in _postorder([side for rel in self.relations for side in (rel.lhs, rel.rhs)]):
            if t.op is None and t.name not in declared:
                raise ValueError(f"relation uses undeclared generator {t.name!r}")

    def render(self) -> str:
        lines = ["gens " + " ".join(self.generators)]
        lines.extend(f"rel {rel.render()}" for rel in self.relations)
        return "\n".join(lines) + "\n"

    def render_size(self) -> int:
        """``len(self.render())``, counted over the term DAGs without rendering:
        the text can be exponentially longer than the DAG behind it.
        """

        def size(t: BQTerm) -> int:
            return _fold(t, lambda g: len(g.name), lambda t, a, b: len(t.op) + len("(,)") + a + b)

        head = len("gens " + " ".join(self.generators) + "\n")
        return head + sum(len("rel  = \n") + size(rel.lhs) + size(rel.rhs) for rel in self.relations)

    def __str__(self) -> str:
        return self.render()


_IDENT_RE = re.compile(r"^[a-z][a-z0-9]*$")
# One token at a position, after any whitespace; no match means only whitespace is left.
_TOKEN_AT = re.compile(r"\s*([a-z][a-z0-9]*|[(),=]|\S)")
# A presentation slices subterm texts as memo keys up to this many characters
# per character of its text, so key slicing stays linear in the text.
_KEY_CHARS_PER_CHAR = 4


def _closing_parens(line: str) -> tuple[memoryview, memoryview]:
    """The position of each paren of ``line``, in order, and at each '(' the
    position of the ')' that closes it; both empty unless the parens balance.
    Sorted stably by nesting level, the parens alternate '(' and ')', and each
    ')' closes the '(' just before it. Both come as memoryviews, which
    ``bisect`` and indexing read as Python ints: the parser looks up only the
    '(' it reaches, a few of them, so converting them all would cost more.
    """
    wide = not line.isascii()
    codes = np.frombuffer(line.encode("utf-32-le" if wide else "ascii"), np.uint32 if wide else np.uint8)
    at = np.flatnonzero((codes == ord("(")) | (codes == ord(")")))
    opens = codes[at] == ord("(")
    depth = np.cumsum(np.where(opens, 1, -1))
    if not len(at) or depth.min() < 0 or depth[-1]:
        return memoryview(b""), memoryview(b"")
    depth -= opens  # the level of each pair, below len(at)
    # The narrowest dtype for the levels lets numpy's stable sort be a radix sort.
    pairs = np.argsort(depth.astype(np.min_scalar_type(len(at))), kind="stable").reshape(-1, 2)
    close_at = np.empty_like(at)
    close_at[pairs[:, 0]] = at[pairs[:, 1]]
    return at.data, close_at.data


def _parse_term(line: str, pos: int, declared: set[str], memo: dict, parens: tuple, budget: int):
    """The term that starts at ``line[pos:]``, the position after it, and what
    is left of ``budget``, the characters still to be sliced as memo keys.

    Iterative, so depth is bounded by memory; open_ops holds [op, left or
    None, text key or None]. ``memo`` interns generators by name and nodes by
    (op, id(left), id(right)), so a repeated subterm is one shared BQTerm. The
    memo keeps every node alive, so an id is never reused while it is a key.
    It also holds each parsed subterm under its source text, cut at the ')'
    that ``parens`` (from ``_closing_parens``) gives: a later subterm with the
    same text is that node, and its text is skipped. Equal text parses to the
    same node and consumes exactly that text, so the skip changes no result
    and no error.
    """
    at, close_at = parens
    read = _TOKEN_AT.match
    open_ops: list[list] = []
    while True:
        token = read(line, pos)
        if token is None:
            raise ParseError("unexpected end of term")
        tok, pos = token[1], token.end()
        term = memo.get(tok)
        if term is None:
            paren = read(line, pos) if tok in OPS else None
            if paren is None or paren[1] != "(":
                if not _IDENT_RE.match(tok):
                    raise ParseError(f"unexpected token {tok!r} in term")
                if tok not in declared:
                    raise ParseError(f"undeclared generator {tok!r}")
                term = memo[tok] = BQTerm.gen(tok)
            else:
                start, key = token.start(1), None
                close = close_at[bisect_left(at, paren.start(1))] if at else -1
                if start < close < start + budget:
                    key = line[start : close + 1]
                    budget -= len(key)
                    term = memo.get(key)
                if term is None:
                    open_ops.append([tok, None, key])
                    pos = paren.end()
                    continue
                pos = close + 1
        while open_ops:
            op, left, key = open_ops[-1]
            token = read(line, pos)
            if left is None:
                if token is None or token[1] != ",":
                    raise ParseError(f"expected ',' in {op}(...) term")
                open_ops[-1][1] = term
                pos = token.end()
                break
            if token is None or token[1] != ")":
                raise ParseError(f"expected ')' closing {op}(...) term")
            open_ops.pop()
            node_key = (op, id(left), id(term))
            node = memo.get(node_key)
            if node is None:
                node = memo[node_key] = BQTerm.node(op, left, term)
            if key is not None:
                memo[key] = node
            term, pos = node, token.end()
        else:
            return term, pos, budget


def parse_presentation(text: str) -> BQPresentation:
    generators: list[str] | None = None
    relations: list[BQRelation] = []
    memo: dict = {}
    budget = _KEY_CHARS_PER_CHAR * len(text)
    for lineno, line in content_lines(text):
        keyword = line.split(None, 1)[0]
        rest = line[len(keyword) :]
        if keyword == "gens":
            if generators is not None:
                raise ParseError(f"line {lineno}: duplicate gens line")
            names = rest.split()
            if not names:
                raise ParseError(f"line {lineno}: gens line lists no generators")
            for name in names:
                if not _IDENT_RE.match(name) or name in OPS:
                    raise ParseError(f"line {lineno}: bad generator name {name!r}")
            if len(set(names)) != len(names):
                raise ParseError(f"line {lineno}: duplicate generator names")
            generators, declared = names, set(names)
            continue
        if keyword == "rel":
            if generators is None:
                raise ParseError(f"line {lineno}: rel before gens")
            parens = _closing_parens(rest)
            try:
                lhs, pos, budget = _parse_term(rest, 0, declared, memo, parens, budget)
                equals = _TOKEN_AT.match(rest, pos)
                if equals is None or equals[1] != "=":
                    raise ParseError("expected '=' between relation sides")
                rhs, pos, budget = _parse_term(rest, equals.end(), declared, memo, parens, budget)
            except ParseError as e:
                raise ParseError(f"line {lineno}: {e}") from None
            if _TOKEN_AT.match(rest, pos):
                raise ParseError(f"line {lineno}: trailing tokens after relation")
            relations.append(BQRelation(lhs, rhs))
            continue
        raise ParseError(f"line {lineno}: expected 'gens' or 'rel', got {line!r}")
    if generators is None:
        raise ParseError("presentation has no gens line")
    return BQPresentation(generators, relations)


# Crossing morphisms, each output built by ``node`` (terms, or ``linear_node`` rows):
# phi_u(a, b) = (ur(b,a), lr(a,b)) and phi_u_inv(a, b) = (ll(b,a), ul(a,b)). A downward
# crossing is the upward one of the other sign, conjugated by the strand swap.
def apply_morphism(kind: str, pair: tuple, node=BQTerm.node) -> tuple:
    a, b = pair
    if kind == "phi_u":
        return (node("ur", b, a), node("lr", a, b))
    if kind == "phi_u_inv":
        return (node("ll", b, a), node("ul", a, b))
    if kind == "phi_d":
        return apply_morphism("phi_u_inv", (b, a), node)[::-1]
    if kind == "phi_d_inv":
        return apply_morphism("phi_u", (b, a), node)[::-1]
    if kind == "tau":
        return (b, a)
    raise ValueError(f"unknown morphism {kind!r}")


def switch_rules(switch, inverse) -> dict:
    """Each operation's (left, right) multipliers, read off the 2x2 matrices of
    phi_u and phi_u_inv: rows are output slots, columns the input pair (a, b).
    """
    return {"ur": switch[0][::-1], "lr": switch[1], "ul": inverse[1], "ll": inverse[0][::-1]}


def linear_node(rules: dict):
    """``node`` on coefficient rows, dicts from generator to ring element: op(x, y)
    = left·x + right·y for (left, right) = ``rules[op]``. As in ``linearize``, the
    multiplier goes on the left (quaternion order); a zero right one is skipped."""

    def node(op: str, x: dict, y: dict) -> dict:
        left, right = rules[op]
        out = {g: left * c for g, c in x.items()}
        if right:
            for g, c in y.items():
                out[g] = out[g] + right * c if g in out else right * c
        return out

    return node


def braid_act_up(w: BraidWord, tup: tuple, node=BQTerm.node) -> tuple:
    """Push labels up through the braid, first letter first.

    The action is an anti-homomorphism on words, which is exactly this
    left-to-right fold. A letter with index i acts on slots i-1 and i.
    """
    if len(tup) != w.strands:
        raise ValueError(f"tuple length {len(tup)} does not match {w.strands} strands")
    labels = list(tup)
    for letter in w.letters:
        kind = "tau" if letter.virtual else ("phi_u" if letter.exponent > 0 else "phi_u_inv")
        i = letter.index - 1
        labels[i], labels[i + 1] = apply_morphism(kind, (labels[i], labels[i + 1]), node)
    return tuple(labels)


def braid_act_down(w: BraidWord, tup: tuple, node=BQTerm.node) -> tuple:
    """Push labels down through the braid, last letter first.

    The downward action is a homomorphism on words. Slot positions count
    from the top strand: a letter with index i acts on slots n-1-i and n-i
    through phi_d, phi_d_inv or tau. By ``apply_morphism``'s swap identity,
    this is the upward action of the inverse word on the reversed tuple,
    reversed.
    """
    return braid_act_up(invert_braid(w), tup[::-1], node)[::-1]


def linearize(pairs: list[tuple[BQTerm, object]], rules: dict) -> dict:
    """Coefficient of each generator in the sum of ``c * term`` over (term, c).

    ``rules`` maps each operation to its (left, right) multipliers. The outer
    factor multiplies on the left, which keeps quaternion order. Ring
    elements are false exactly when zero: a zero right multiplier (an
    operation that ignores its right operand) is skipped, and zero totals
    are left out.

    Each distinct node is visited once, so shared subterms cost one ring
    multiplication per edge of the term DAG, not per path of its tree: in
    reverse ``_postorder``, parents before children, each node's inflow (the
    sum over its paths from the roots of the multiplier products) flows down
    to its children.
    """
    inflow: dict = {}
    acc: dict = {}

    def add(t: BQTerm, mult) -> None:
        table, key = (acc, t.name) if t.op is None else (inflow, id(t))
        total = table.get(key)
        table[key] = mult if total is None else total + mult

    for t, mult in pairs:
        add(t, mult)
    for t in reversed(_postorder([term for term, _ in pairs])):
        flow = inflow.get(id(t))
        if not flow:  # absent at generators, ignored operands and zero flow
            continue
        left_mult, right_mult = rules[t.op]
        add(t.left, flow * left_mult)
        if right_mult:
            add(t.right, flow * right_mult)
    return {name: total for name, total in acc.items() if total}


def linearize_relations(relations: list[BQRelation], one, rules: dict) -> list[dict]:
    """One ``linearize`` row per relation lhs = rhs: lhs - rhs, ``one`` the ring's unit."""
    return [linearize([(rel.lhs, one), (rel.rhs, -one)], rules) for rel in relations]


def generator_names(n: int) -> list[str]:
    """a, b, c, ... for up to 26 strands; g1, g2, ... beyond that."""
    if n <= 26:
        return [chr(ord("a") + i) for i in range(n)]
    return [f"g{i + 1}" for i in range(n)]


def presentation_size_floor(n: int) -> int:
    """A lower bound on the ``render_size`` of any n-strand braid's
    presentation, from n alone and without building a name: the gens line,
    and per strand ``rel `` + the shortest name + `` = `` + that strand's name
    + a newline. Past 26 strands the names are ``g`` and the digits of 1..n.
    """
    if n <= 26:
        shortest, names = 1, n
    else:
        shortest, names = 2, n + sum(n - 10**d + 1 for d in range(len(str(n))))
    return len("gens \n") + (n - 1) + names + n * (len("rel  = \n") + shortest) + names


def presentation_from_braid(w: BraidWord) -> BQPresentation:
    """Biquandle of the braid closure, traversing the diagram upward.

    One generator per strand; each relation equates the label returned to a
    strand's bottom by the closure arcs with that strand's generator.
    """
    names = generator_names(w.strands)
    gens = tuple(BQTerm.gen(name) for name in names)
    image = braid_act_up(w, gens)
    relations = [BQRelation(image[i], gens[i]) for i in range(w.strands)]
    return BQPresentation(names, relations)


def presentation_from_braid_down(w: BraidWord) -> BQPresentation:
    """Biquandle of the braid closure, traversing the diagram downward.

    The tuple enters at the top, so it lists the generators in reverse strand
    order; the generator list itself is unchanged. By ``braid_act_down``'s
    identity these are the upward relations of the inverse word, last first.
    """
    up = presentation_from_braid(invert_braid(w))
    return BQPresentation(up.generators, up.relations[::-1])


def presentations_equal_up_to_renaming(p: BQPresentation, q: BQPresentation) -> bool:
    """True when some bijection of generator names maps one relation multiset
    onto the other. Relations are compared as unordered equations.

    The search tries every bijection, so it is limited to 8 generators.
    Each relation is keyed by the sorted structure numbers of its sides. q's
    terms are numbered once; each renaming of p only looks numbers up, so no
    term is built or rendered per bijection and the table holds q's nodes only.
    A bijection is dropped at p's first relation whose key q has no copy of
    left.
    """
    if len(p.generators) != len(q.generators):
        return False
    if len(p.relations) != len(q.relations):
        return False
    if len(p.generators) > 8:
        raise DomainError(
            f"renaming search supports at most 8 generators, got {len(p.generators)}"
        )
    table: dict = {}

    def relation_key(rel: BQRelation, key) -> tuple[int, int]:
        return tuple(sorted(_structure_number(side, key) for side in (rel.lhs, rel.rhs)))

    target = Counter(relation_key(rel, lambda k: table.setdefault(k, len(table))) for rel in q.relations)
    for perm in permutations(q.generators):
        rename = dict(zip(p.generators, perm))  # a node triple is no name: rename.get keeps it
        unmatched = target.copy()
        for rel in p.relations:
            found = relation_key(rel, lambda k: table.get(rename.get(k, k), -1))
            if not unmatched[found]:
                break
            unmatched[found] -= 1
        else:
            return True
    return False
