"""Virtual braid words: parsing, rendering, and rewriting moves.

A word lists its letters bottom-to-top: the first letter is the lowest
crossing of the braid diagram. Classical letters carry an exponent of +1 or
-1; virtual letters square to the identity and never carry an exponent.

Text grammar: ``word := "n=" INT ";" letter*`` with whitespace-separated
letters ``s<i>`` (positive classical), ``-s<i>`` (negative classical) and
``v<i>`` (virtual), where ``1 <= i <= n-1``.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from .errors import ParseError, read_decimal


@dataclass(frozen=True)
class BraidLetter:
    """One generator: a crossing between strands ``index`` and ``index + 1``."""

    index: int
    exponent: int = 1
    virtual: bool = False

    def __post_init__(self):
        if self.index < 1:
            raise ValueError(f"letter index must be >= 1, got {self.index}")
        if self.exponent not in (1, -1):
            raise ValueError(f"letter exponent must be +1 or -1, got {self.exponent}")
        if self.virtual and self.exponent != 1:
            raise ValueError("virtual letters are involutions and take no exponent")

    def inverse(self) -> "BraidLetter":
        if self.virtual:
            return self
        return BraidLetter(self.index, -self.exponent)

    def __str__(self) -> str:
        head = "v" if self.virtual else "s"
        sign = "-" if self.exponent < 0 else ""
        return f"{sign}{head}{self.index}"


def sigma(i: int, exponent: int = 1) -> BraidLetter:
    return BraidLetter(i, exponent)


def nu(i: int) -> BraidLetter:
    return BraidLetter(i, 1, virtual=True)


@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple[BraidLetter, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        if self.strands < 1:
            raise ValueError(f"strand count must be >= 1, got {self.strands}")
        for letter in self.letters:
            if letter.index > self.strands - 1:
                raise ValueError(
                    f"letter {letter} needs {letter.index + 1} strands, word has {self.strands}"
                )

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return render_braid_word(self)


# Numbers are ASCII digits: ``\d`` would also match other scripts' digits.
_HEADER_RE = re.compile(r"^\s*n=([0-9]+)\s*;(.*)$", re.DOTALL)
_LETTER_RE = re.compile(r"^(-?)([sv])([0-9]+)$")


def parse_braid_word(text: str) -> BraidWord:
    m = _HEADER_RE.match(text)
    if not m:
        raise ParseError(f"braid word must start with 'n=<strands>;', got {text!r}")
    n = read_decimal(m.group(1), "strand count")
    if n < 1:
        raise ParseError(f"strand count must be >= 1, got {n}")
    letters = []
    for token in m.group(2).split():
        lm = _LETTER_RE.match(token)
        if not lm:
            raise ParseError(f"bad letter {token!r}: expected s<i>, -s<i> or v<i>")
        neg, kind, digits = lm.groups()
        if neg and kind == "v":
            raise ParseError(f"bad letter {token!r}: virtual letters have no inverse form")
        i = read_decimal(digits, "letter index")
        if not 1 <= i <= n - 1:
            raise ParseError(f"letter index {i} out of range for {n} strands")
        letters.append(nu(i) if kind == "v" else sigma(i, -1 if neg else 1))
    return BraidWord(n, tuple(letters))


def render_braid_word(w: BraidWord) -> str:
    head = f"n={w.strands};"
    if not w.letters:
        return head
    return head + " " + " ".join(str(letter) for letter in w.letters)


def invert_braid(w: BraidWord) -> BraidWord:
    """Group inverse: reversed letters, classical exponents negated."""
    return BraidWord(w.strands, tuple(letter.inverse() for letter in reversed(w.letters)))


def free_reduce(w: BraidWord) -> BraidWord:
    """Cancel adjacent inverse pairs (and virtual squares) until none remain.

    A single stack pass is complete for free cancellation.
    """
    out: list[BraidLetter] = []
    for letter in w.letters:
        if out and out[-1].inverse() == letter:
            out.pop()
        else:
            out.append(letter)
    return BraidWord(w.strands, tuple(out))


# Relator families of the virtual braid group. The three-letter families are
# matched in their printed generator form plus the uniform-exponent variants,
# which are conjugates or inverses of the printed relators and therefore
# preserve the closure. "commute" swaps two letters whose indices differ by
# at least two (any kinds, any exponents).
RELATOR_FAMILIES = ("braid", "virtual", "mixed", "commute")


def _match_relator(family: str, window: tuple[BraidLetter, ...], direction: int):
    """Return the replacement window if ``window`` matches the chosen side."""
    if family == "commute":
        a, b = window
        return (b, a) if abs(a.index - b.index) >= 2 else None
    a, b, c = window
    if family in ("braid", "virtual"):
        # x y x -> y x y: y is x's kind and exponent one strand up (direction
        # > 0) or down (direction < 0), so the reverse move maps y x y back.
        step = b.index - a.index
        same_kind = a.virtual == b.virtual == (family == "virtual") and a.exponent == b.exponent
        return (b, a, b) if a == c and same_kind and abs(step) == 1 and step * direction > 0 else None
    if direction > 0:
        # mixed: s_i^e v_{i+1} v_i  ->  v_{i+1} v_i s_{i+1}^e
        match = not a.virtual and b.virtual and c.virtual and b.index - 1 == a.index == c.index
        return (b, c, sigma(b.index, a.exponent)) if match else None
    # mixed: v_{i+1} v_i s_{i+1}^e  ->  s_i^e v_{i+1} v_i
    match = a.virtual and b.virtual and not c.virtual and b.index + 1 == a.index == c.index
    return (sigma(b.index, c.exponent), a, b) if match else None


def _window_size(family: str) -> int:
    return 2 if family == "commute" else 3


def apply_relator_move(w: BraidWord, family: str, pos: int, direction: int = 1) -> BraidWord:
    """Replace the subword at ``pos`` by the other side of the chosen relator."""
    if family not in RELATOR_FAMILIES:
        raise ValueError(f"unknown relator family {family!r}")
    size = _window_size(family)
    if pos < 0 or pos + size > len(w.letters):
        raise ValueError(f"no {family} relator window at position {pos}")
    window = w.letters[pos : pos + size]
    replacement = _match_relator(family, window, direction)
    if replacement is None:
        raise ValueError(f"no {family} relator match at position {pos}")
    return BraidWord(w.strands, w.letters[:pos] + replacement + w.letters[pos + size :])


def relator_move_sites(w: BraidWord) -> list[tuple[str, int, int]]:
    """Every (family, position, direction) that apply_relator_move accepts."""
    sites = []
    for family in RELATOR_FAMILIES:
        size = _window_size(family)
        directions = (1,) if family == "commute" else (1, -1)
        for pos in range(len(w.letters) - size + 1):
            window = w.letters[pos : pos + size]
            for direction in directions:
                if _match_relator(family, window, direction) is not None:
                    sites.append((family, pos, direction))
    return sites


def markov_move(w: BraidWord, kind: str, letter: BraidLetter | None = None, sign: int = 1) -> BraidWord:
    """Closure-preserving move: conjugate, stabilize, or destabilize.

    Conjugation by g returns g w g^-1 on the same strands. Stabilization
    appends a classical crossing on a fresh strand. Destabilization is only
    offered in the strictly safe syntactic case: the final letter is classical
    on the last two strands and the rest of the word lies on the first n - 1.
    """
    if kind == "conjugate":
        if letter is None:
            raise ValueError("conjugation needs a letter")
        return BraidWord(w.strands, (letter,) + w.letters + (letter.inverse(),))
    if kind == "stabilize":
        if sign not in (1, -1):
            raise ValueError(f"stabilization sign must be +1 or -1, got {sign}")
        return BraidWord(w.strands + 1, w.letters + (sigma(w.strands, sign),))
    if kind == "destabilize":
        if w.strands < 2 or not w.letters:
            raise ValueError("destabilization needs at least two strands and one letter")
        last = w.letters[-1]
        top = w.strands - 1
        if last.virtual or last.index != top:
            raise ValueError("destabilization needs a final classical letter on the last two strands")
        if any(letter.index == top for letter in w.letters[:-1]):
            raise ValueError("destabilization needs the top index to occur exactly once")
        return BraidWord(w.strands - 1, w.letters[:-1])
    raise ValueError(f"unknown markov move {kind!r}")


def vertical_mirror(w: BraidWord) -> BraidWord:
    """The closure of the inverse word is the vertical mirror of the closure."""
    return invert_braid(w)


def ad_inversion(w: BraidWord) -> BraidWord:
    """Switch-virtualize every classical crossing, then reverse orientation.

    Each classical letter becomes the three-letter block v_i s_i^-e v_i.
    Reversing the orientation of the closure is realized by rotating the
    diagram half a turn: the letter list reverses and every index i flips
    to n - i.
    """
    replaced: list[BraidLetter] = []
    for letter in w.letters:
        if letter.virtual:
            replaced.append(letter)
        else:
            replaced.extend((nu(letter.index), sigma(letter.index, -letter.exponent), nu(letter.index)))
    flipped = tuple(
        BraidLetter(w.strands - letter.index, letter.exponent, letter.virtual)
        for letter in reversed(replaced)
    )
    return BraidWord(w.strands, flipped)


def letter_alphabet(n: int) -> list[BraidLetter]:
    """All generators available on n strands, in a fixed order."""
    out: list[BraidLetter] = []
    for i in range(1, n):
        out.extend((sigma(i), sigma(i, -1), nu(i)))
    return out


def random_braid(n: int, length: int, seed: int) -> BraidWord:
    """Uniform random word of the given length; deterministic for a fixed seed.

    On one strand the alphabet is empty, so the word is empty whatever length
    was requested.
    """
    if n < 1:
        raise ValueError(f"strand count must be >= 1, got {n}")
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    rng = random.Random(seed)
    alphabet = letter_alphabet(n)
    if not alphabet:
        return BraidWord(n)
    return BraidWord(n, tuple(rng.choice(alphabet) for _ in range(length)))


def available_moves(w: BraidWord, include_mirrors: bool = False) -> list[tuple[str, BraidWord]]:
    """Labelled closure-preserving rewrites applicable to w, in a fixed order.

    Used by randomized invariance drivers; the deterministic ordering keeps
    seeded runs reproducible. Mirrors (vertical mirror, AD inversion) change
    the knot only up to the symmetries the derived invariants ignore, so they
    are opt-in.
    """
    moves: list[tuple[str, BraidWord]] = []
    for family, pos, direction in relator_move_sites(w):
        arrow = "+" if direction > 0 else "-"
        moves.append(
            (f"relator {family}@{pos}{arrow}", apply_relator_move(w, family, pos, direction))
        )
    for letter in letter_alphabet(w.strands):
        moves.append((f"conjugate {letter}", markov_move(w, "conjugate", letter=letter)))
    moves.append(("stabilize +", markov_move(w, "stabilize", sign=1)))
    moves.append(("stabilize -", markov_move(w, "stabilize", sign=-1)))
    try:
        moves.append(("destabilize", markov_move(w, "destabilize")))
    except ValueError:
        pass
    moves.append(("free_reduce", free_reduce(w)))
    if include_mirrors:
        moves.append(("vertical_mirror", vertical_mirror(w)))
        moves.append(("ad_inversion", ad_inversion(w)))
    return moves
