"""Independent checks of the command line's outputs.

Nothing here imports the library. Each check returns None when the output is
right and a one-line reason when it is not.

* gap: the relation matrix of the braid is built here from the crossing
  rules and evaluated at random points modulo the prime 2^61-1. Its
  determinant there must match the printed polynomial up to the unit
  +-s^i t^j that normalization removes; evaluating at (s0, t0) and at
  (s0^2, t0^2) pins the unit down, since d2 * e1^2 = +-d1^2 * e2 holds for a
  monomial ratio. The printed text must also be in canonical form.
* qcheck: the quaternionic relations are folded straight from the braid
  word, restricted to Z_3 and ranked by elimination here.
* axioms: verdicts known in advance must match, every verdict on a
  corrupted table is recomputed, and every printed counterexample is looked
  up.
"""

from __future__ import annotations

import random
import re

import numpy as np

P = (1 << 61) - 1


# ---------------------------------------------------------------- braid words

def parse_word(text: str) -> tuple[int, list[tuple[int, str]]]:
    """(strands, [(position, kind)]) with kind in {"+", "-", "v"}, position 0-based."""
    head, _, body = text.partition(";")
    n = int(head.strip()[2:])
    letters = []
    for token in body.split():
        kind = "v" if token[0] == "v" else ("-" if token[0] == "-" else "+")
        letters.append((int(token.lstrip("-sv")) - 1, kind))
    return n, letters


# --------------------------------------------------- Laurent evaluation mod P

def _parse_monomial(text: str) -> tuple[tuple[int, int], int] | None:
    factors = text.split("*")
    coeff = int(factors.pop(0)) if factors[0].isdigit() else 1
    i = j = 0
    for factor in factors:
        var, caret, exp = factor.partition("^")
        if var not in ("s", "t") or (caret and not re.fullmatch(r"-?\d+", exp)):
            return None
        if var == "s":
            i += int(exp) if caret else 1
        else:
            j += int(exp) if caret else 1
    return ((i, j), coeff) if coeff else None


def parse_poly(text: str) -> dict[tuple[int, int], int] | None:
    """Terms of a printed polynomial, or None when the text is malformed.

    Lenient on purpose: check_gap compares the text with canonical_text of the
    parsed terms, which rejects every non-canonical spelling.
    """
    if text == "0":
        return {}
    sign = -1 if text.startswith("-") else 1
    parts = re.split(r" ([+-]) ", text[1:] if sign < 0 else text)
    signed = [(sign, parts[0])] + [(1 if op == "+" else -1, mono) for op, mono in zip(parts[1::2], parts[2::2])]
    terms: dict[tuple[int, int], int] = {}
    for sg, mono in signed:
        parsed = _parse_monomial(mono)
        if parsed is None or parsed[0] in terms:
            return None
        terms[parsed[0]] = sg * parsed[1]
    return terms


def _format_monomial(i: int, j: int, coeff: int) -> str:
    parts = ([] if not i else ["s" if i == 1 else f"s^{i}"]) + ([] if not j else ["t" if j == 1 else f"t^{j}"])
    mag = abs(coeff)
    if not parts:
        return str(mag)
    return "*".join(([str(mag)] if mag != 1 else []) + parts)


def canonical_text(terms: dict[tuple[int, int], int]) -> str:
    """The normalized text the CLI must print for a polynomial with these terms:
    both minimal degrees zero, smallest (i, j) monomial positive, terms
    ascending by (t-degree, s-degree)."""
    if not terms:
        return "0"
    mi = min(i for i, _ in terms)
    mj = min(j for _, j in terms)
    shifted = {(i - mi, j - mj): c for (i, j), c in terms.items()}
    if shifted[min(shifted)] < 0:
        shifted = {k: -c for k, c in shifted.items()}
    items = sorted(shifted.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    out = ""
    for k, ((i, j), c) in enumerate(items):
        mono = _format_monomial(i, j, c)
        if k == 0:
            out = f"-{mono}" if c < 0 else mono
        else:
            out += (" - " if c < 0 else " + ") + mono
    return out


def eval_poly(terms: dict[tuple[int, int], int], s: int, t: int) -> int:
    return sum(c * pow(s, i, P) * pow(t, j, P) for (i, j), c in terms.items()) % P


def det_mod(rows: list[list[int]], p: int) -> int:
    a = [row[:] for row in rows]
    n = len(a)
    det = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k] % p), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det = det * a[k][k] % p
        inv = pow(a[k][k], -1, p)
        for r in range(k + 1, n):
            f = a[r][k] * inv % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[k])]
    return det % p


def relation_det_mod(word: str, s: int, t: int) -> int:
    """det(M - I) mod P at (s, t), M the upward action of the word on strand labels.

    Letter at position p acts on rows p, p+1 (row operations):
    positive [[1-st, t], [s, 0]], negative [[0, 1/s], [1/t, 1-1/(st)]],
    virtual a swap.
    """
    n, letters = parse_word(word)
    si, ti = pow(s, -1, P), pow(t, -1, P)
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for p, kind in letters:
        a, b = m[p], m[p + 1]
        if kind == "v":
            m[p], m[p + 1] = b, a
        elif kind == "+":
            m[p] = [((1 - s * t) * x + t * y) % P for x, y in zip(a, b)]
            m[p + 1] = [s * x % P for x in a]
        else:
            m[p] = [si * y % P for y in b]
            m[p + 1] = [(ti * x + (1 - si * ti) * y) % P for x, y in zip(a, b)]
    for i in range(n):
        m[i][i] = (m[i][i] - 1) % P
    return det_mod(m, P)


def check_gap(word: str, printed: str, rng: random.Random) -> str | None:
    """The printed gap of ``word`` (one line, trailing newline) must be right."""
    if not printed.endswith("\n") or printed.count("\n") != 1:
        return f"expected one line, got {printed!r}"
    text = printed[:-1]
    terms = parse_poly(text)
    if terms is None:
        return f"unparsable polynomial {text!r}"
    if canonical_text(terms) != text:
        return f"not in canonical form: {text!r}"
    for _ in range(2):
        s0, t0 = rng.randrange(2, P - 1), rng.randrange(2, P - 1)
        d1, d2 = relation_det_mod(word, s0, t0), relation_det_mod(word, s0 * s0 % P, t0 * t0 % P)
        e1, e2 = eval_poly(terms, s0, t0), eval_poly(terms, s0 * s0 % P, t0 * t0 % P)
        if (d1 == 0) != (e1 == 0) or (d2 == 0) != (e2 == 0):
            return f"determinant vanishes at a point where {text!r} does not, or the reverse"
        lhs, rhs = d2 * e1 * e1 % P, d1 * d1 * e2 % P
        if lhs != rhs and lhs != (P - rhs) % P:
            return f"{text!r} is not the determinant up to a unit"
    return None


# ------------------------------------------------------ quaternions mod three

def qmul(a, b, p):
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (
        (w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2) % p,
        (w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2) % p,
        (w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2) % p,
        (w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2) % p,
    )


def _qadd(a, b, p):
    return tuple((x + y) % p for x, y in zip(a, b))


_Q_I, _Q_J, _Q_ONE = (0, 1, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0)


def _qneg(a, p):
    return tuple(-x % p for x in a)


def rank_mod(rows: list[list[int]], p: int) -> int:
    a = [[x % p for x in row] for row in rows]
    rank = 0
    cols = len(a[0]) if a else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(a)) if a[r][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][c], -1, p)
        for r in range(rank + 1, len(a)):
            f = a[r][c] * inv % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def qcheck_rank(word: str, p: int = 3) -> tuple[int, int]:
    """(rank, columns) of the Z_p scalar restriction of the braid's
    quaternionic relations.

    Each slot holds the quaternion coefficient of every generator. A positive
    letter sends slots (a, b) to (ur(b,a), lr(a,b)), a negative one to
    (ll(b,a), ul(a,b)), with ur(x,y) = i x + (i+j) y, lr(x,y) = -i x + (i+j) y,
    ul(x,y) = i x + (1-j) y, ll(x,y) = -i x + (1-j) y; coefficients multiply on
    the left. Relation k is slot k minus generator k.
    """
    n, letters = parse_word(word)
    i_q, i_plus_j, one_minus_j = _Q_I, _qadd(_Q_I, _Q_J, p), _qadd(_Q_ONE, _qneg(_Q_J, p), p)
    neg_i = _qneg(i_q, p)
    zero = (0, 0, 0, 0)
    slots = [[_Q_ONE if g == k else zero for g in range(n)] for k in range(n)]

    def comb(qa, xa, qb, xb):
        return [_qadd(qmul(qa, u, p), qmul(qb, v, p), p) for u, v in zip(xa, xb)]

    for pos, kind in letters:
        a, b = slots[pos], slots[pos + 1]
        if kind == "v":
            slots[pos], slots[pos + 1] = b, a
        elif kind == "+":
            slots[pos] = comb(i_plus_j, a, i_q, b)  # ur(b, a) = i b + (i+j) a
            slots[pos + 1] = comb(neg_i, a, i_plus_j, b)  # lr(a, b) = -i a + (i+j) b
        else:
            slots[pos] = comb(one_minus_j, a, neg_i, b)  # ll(b, a) = -i b + (1-j) a
            slots[pos + 1] = comb(i_q, a, one_minus_j, b)  # ul(a, b) = i a + (1-j) b
    rows = []
    for k in range(n):
        coeffs = [q if g != k else _qadd(q, _qneg(_Q_ONE, p), p) for g, q in enumerate(slots[k])]
        for r in range(4):
            row = []
            for w, x, y, z in coeffs:
                row.extend(
                    ((w, -x, -y, -z), (x, w, -z, y), (y, z, w, -x), (z, -y, x, w))[r]
                )
            rows.append(row)
    return rank_mod(rows, p), 4 * n


_QCHECK_RE = re.compile(r"^(trivial|nontrivial) \(rank (\d+) of (\d+), dim (\d+)\)\n$")


def check_present_qcheck(word: str, present: str, gap_pres: str, braid_gap: str,
                         qcheck: str, rng: random.Random) -> str | None:
    """present's file, gap on it, and qcheck --prime 3 on it must agree with the word."""
    n, _ = parse_word(word)
    lines = present.splitlines()
    if not lines or not lines[0].startswith("gens ") or len(lines[0].split()) != n + 1:
        return f"presentation does not declare {n} generators"
    if sum(line.startswith("rel ") for line in lines) != n:
        return f"presentation does not have {n} relations"
    if gap_pres != braid_gap:
        return f"gap --presentation {gap_pres!r} differs from gap --braid {braid_gap!r}"
    reason = check_gap(word, gap_pres, rng)
    if reason:
        return "gap --presentation: " + reason
    m = _QCHECK_RE.match(qcheck)
    if not m:
        return f"unparsable qcheck verdict {qcheck!r}"
    verdict, rank, total, dim = m.group(1), int(m.group(2)), int(m.group(3)), int(m.group(4))
    want_rank, want_total = qcheck_rank(word, 3)
    if (rank, total, dim) != (want_rank, want_total, want_total - want_rank):
        return f"qcheck says rank {rank} of {total}, dim {dim}; expected rank {want_rank} of {want_total}"
    if (verdict == "trivial") != (dim == 0):
        return f"qcheck verdict {verdict!r} contradicts dim {dim}"
    return None


# ------------------------------------------------------------- finite tables

AXIOM_NAMES = (
    "axiom1", "axiom1.variant", "axiom2", "axiom2.variant", "axiom3",
    "axiom4", "axiom4.variant", "axiom5", "axiom5.variant",
)

# Verdicts of the quaternionic tables over Z_3 with the package's rules.
QUATERNIONIC_3_FAILS = {"axiom2.variant", "axiom3", "axiom4", "axiom4.variant", "axiom5"}


def _single_exists(name, ur, lr, ul, ll):
    return {
        "axiom1": lambda a, x: lr[ur[a, x], a] == a,
        "axiom1.variant": lambda a, x: ll[ul[a, x], a] == a,
        "axiom2": lambda a, x: (ll[a, x] == x) & (ul[x, a] == a),
        "axiom2.variant": lambda a, x: (lr[a, x] == x) & (ur[x, a] == a),
    }[name]


def _pair_exists(name, ur, lr, ul, ll):
    return {
        "axiom4": lambda a, b, x: (ur[a, ll[b, x]] == x) & (ul[x, b] == a) & (lr[ll[b, x], a] == b),
        "axiom4.variant": lambda a, b, x: (ul[a, lr[b, x]] == x) & (ur[x, b] == a) & (ll[lr[b, x], a] == b),
    }[name]


def _equations(name, ur, lr, ul, ll):
    return {
        "axiom3": [
            lambda a, b: ll[lr[a, b], ur[b, a]] == a,
            lambda a, b: ul[ur[a, b], lr[b, a]] == a,
            lambda a, b: ur[ul[a, b], ll[b, a]] == a,
            lambda a, b: lr[ll[a, b], ul[b, a]] == a,
        ],
        "axiom5": [
            lambda a, b, c: ur[ur[a, b], c] == ur[ur[a, lr[c, b]], ur[b, c]],
            lambda a, b, c: lr[lr[a, b], c] == lr[lr[a, ur[c, b]], lr[b, c]],
            lambda a, b, c: ur[lr[a, b], lr[c, ur[b, a]]] == lr[ur[a, c], ur[b, lr[c, a]]],
        ],
        "axiom5.variant": [
            lambda a, b, c: ul[ul[a, b], c] == ul[ul[a, ll[c, b]], ul[b, c]],
            lambda a, b, c: ll[ll[a, b], c] == ll[ll[a, ul[c, b]], ll[b, c]],
            lambda a, b, c: ul[ll[a, b], ll[c, ul[b, a]]] == ll[ul[a, c], ul[b, ll[c, a]]],
        ],
    }[name]


def quaternion_label(idx: int, p: int) -> str:
    coeffs = (idx // p ** 3, (idx // p ** 2) % p, (idx // p) % p, idx % p)
    parts = [
        (str(c) if unit == "" else (unit if c == 1 else f"{c}{unit}"))
        for c, unit in zip(coeffs, ("", "i", "j", "k"))
        if c
    ]
    return "+".join(parts) if parts else "0"


def quaternionic_tables(p: int) -> dict:
    """ur = i a + (i+j) b, lr = -i a + (i+j) b, ul = i a + (1-j) b, ll = -i a + (1-j) b."""
    n = p ** 4
    elems = [(x // p ** 3, (x // p ** 2) % p, (x // p) % p, x % p) for x in range(n)]
    code = {q: k for k, q in enumerate(elems)}
    i_q, ipj, omj = _Q_I, _qadd(_Q_I, _Q_J, p), _qadd(_Q_ONE, _qneg(_Q_J, p), p)
    rules = {"ur": (i_q, ipj), "lr": (_qneg(i_q, p), ipj), "ul": (i_q, omj), "ll": (_qneg(i_q, p), omj)}
    tables = {}
    for op, (lq, rq) in rules.items():
        left = [qmul(lq, q, p) for q in elems]
        right = [qmul(rq, q, p) for q in elems]
        tables[op] = [[code[_qadd(la, rb, p)] for rb in right] for la in left]
    return tables


_LINE_RE = re.compile(r"^(\S+): (?:(pass)|fail \[counterexample (.*)\])$")
_CE_RE = re.compile(r"^a=(\S+)(?: b=(\S+))?(?: c=(\S+))?(?: \(equation (\d+)\))?$")


def _refute(name: str, ce: str, arrays, index: dict[str, int]) -> str | None:
    """None when ``ce`` really is a counterexample to axiom ``name``."""
    m = _CE_RE.match(ce)
    if not m or any(v is not None and v not in index for v in m.groups()[:3]):
        return f"{name}: unparsable counterexample {ce!r}"
    a, b, c = (index[v] if v is not None else None for v in m.groups()[:3])
    eq = int(m.group(4)) if m.group(4) else None
    size = len(index)
    xs = np.arange(size)
    if name in ("axiom1", "axiom1.variant", "axiom2", "axiom2.variant"):
        ok = b is None and eq is None and not _single_exists(name, *arrays)(np.full(size, a), xs).any()
    elif name in ("axiom4", "axiom4.variant"):
        ok = (b is not None and c is None and eq is None
              and not _pair_exists(name, *arrays)(np.full(size, a), np.full(size, b), xs).any())
    else:
        eqs = _equations(name, *arrays)
        arity = 2 if name == "axiom3" else 3
        args = (a, b) if arity == 2 else (a, b, c)
        ok = (eq is not None and 1 <= eq <= len(eqs) and None not in args
              and not bool(eqs[eq - 1](*(np.int64(v) for v in args))))
    return None if ok else f"{name}: {ce!r} is not a counterexample"


# Cells per numpy block when verdicts are recomputed over a cube: small
# enough that the oracle never sets the worker's peak RSS.
_BLOCK_CELLS = 1 << 16


def verdicts(arrays) -> dict[str, bool]:
    """Every axiom's verdict, recomputed over the whole square or cube."""
    size = len(arrays[0])
    a, x = np.arange(size)[:, None], np.arange(size)[None, :]
    out = {
        name: bool(_single_exists(name, *arrays)(a, x).any(axis=1).all())
        for name in ("axiom1", "axiom1.variant", "axiom2", "axiom2.variant")
    }
    out["axiom3"] = all(bool(eq(a, x).all()) for eq in _equations("axiom3", *arrays))
    step = max(1, _BLOCK_CELLS // size ** 2)
    blocks = [np.arange(lo, min(lo + step, size))[:, None, None] for lo in range(0, size, step)]
    b, c = np.arange(size)[None, :, None], np.arange(size)[None, None, :]
    for name in ("axiom4", "axiom4.variant"):
        exists = _pair_exists(name, *arrays)
        out[name] = all(bool(exists(block, b, c).any(axis=2).all()) for block in blocks)
    for name in ("axiom5", "axiom5.variant"):
        eqs = _equations(name, *arrays)
        out[name] = all(bool(eq(block, b, c).all()) for eq in eqs for block in blocks)
    return out


def check_axioms(tables: dict, labels: list[str], corrupted: bool, quaternionic: bool,
                 printed: str) -> str | None:
    """Verdicts known in advance must hold, and every counterexample must be real.

    Linear tables pass everything. A corrupted linear table fails axiom3 (its
    four equations each compose one table with a unit multiple of another),
    and all nine of its verdicts, passes included, are recomputed here. The
    p=3 quaternionic tables fail exactly QUATERNIONIC_3_FAILS.
    """
    lines = printed.splitlines()
    if not printed.endswith("\n") or len(lines) != len(AXIOM_NAMES):
        return f"expected {len(AXIOM_NAMES)} verdict lines, got {len(lines)}"
    arrays = tuple(np.asarray(tables[op], dtype=np.int64) for op in ("ur", "lr", "ul", "ll"))
    index = {label: k for k, label in enumerate(labels)}
    fails = set()
    for line, name in zip(lines, AXIOM_NAMES):
        m = _LINE_RE.match(line)
        if not m or m.group(1) != name:
            return f"bad verdict line {line!r}, expected {name}"
        if not m.group(2):
            fails.add(name)
            reason = _refute(name, m.group(3), arrays, index)
            if reason:
                return reason
    if quaternionic:
        if fails != QUATERNIONIC_3_FAILS:
            return f"quaternionic p=3 fails {sorted(fails)}, expected {sorted(QUATERNIONIC_3_FAILS)}"
    elif not corrupted:
        if fails:
            return f"linear table fails {sorted(fails)}"
    else:
        for name, passed in verdicts(arrays).items():
            if passed == (name in fails):
                return f"{name} {'fails' if passed else 'passes'} on a table where it should not"
        if "axiom3" not in fails:
            return "corrupted table passes axiom3"
    return None
