"""Exact Laurent polynomials in s and t, and matrices over them.

A polynomial is a dict from exponent pairs (i, j) to nonzero integer
coefficients, meaning sum of c * s^i * t^j. All arithmetic is exact; there
is no floating point anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import isqrt, prod

import numpy as np

from .errors import DomainError


class LaurentPoly:
    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], int] | None = None):
        self.terms: dict[tuple[int, int], int] = {}
        if terms:
            for key, coeff in terms.items():
                if coeff:
                    self.terms[key] = coeff

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, c: int, i: int, j: int) -> "LaurentPoly":
        return cls({(i, j): c})

    @staticmethod
    def _coerce(other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly.const(other)
        raise TypeError(f"cannot mix LaurentPoly with {type(other).__name__}")

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, 0) + coeff
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({key: -coeff for key, coeff in self.terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "LaurentPoly":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (LaurentPoly, int)):
            return self.terms == self._coerce(other).terms
        return NotImplemented

    def __hash__(self):
        if self.terms.keys() <= {(0, 0)}:  # a constant equals its int, so hashes as it
            return hash(self.terms.get((0, 0), 0))
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"LaurentPoly({format_poly(self)!r})"

    def scale_by_monomial(self, di: int, dj: int) -> "LaurentPoly":
        """Multiply by s^di * t^dj."""
        return LaurentPoly({(i + di, j + dj): c for (i, j), c in self.terms.items()})

    def evaluate_mod(self, s: int, t: int, m: int) -> int:
        """Value at (s, t) in Z_m; s and t must be units mod m."""
        return sum(c * pow(s, i, m) * pow(t, j, m) for (i, j), c in self.terms.items()) % m

    def min_degrees(self) -> tuple[int, int]:
        """Smallest s-exponent and smallest t-exponent appearing (zero poly: (0, 0))."""
        if not self.terms:
            return (0, 0)
        return (
            min(i for i, _ in self.terms),
            min(j for _, j in self.terms),
        )


ZERO = LaurentPoly()
ONE = LaurentPoly.const(1)
S = LaurentPoly.monomial(1, 1, 0)
T = LaurentPoly.monomial(1, 0, 1)


def _format_monomial(i: int, j: int) -> str:
    """The unit text of s^i * t^j: ``s^2*t``, or ``""`` for a constant."""
    parts = []
    if i:
        parts.append("s" if i == 1 else f"s^{i}")
    if j:
        parts.append("t" if j == 1 else f"t^{j}")
    return "*".join(parts)


def format_signed_sum(terms, sep: str) -> str:
    """Text of a sum of (coefficient, unit) pairs, in the order given.

    The first term keeps its sign attached; later terms join with " + " or
    " - ". A magnitude of 1 is dropped before a nonempty unit; any other
    magnitude is followed by ``sep`` and the unit. The empty sum is "0".
    """
    out = []
    for coeff, unit in terms:
        mag = abs(coeff)
        out.append(" - " if coeff < 0 else " + ")
        out.append(f"{mag}{sep}{unit}" if unit and mag != 1 else unit or str(mag))
    if not out:
        return "0"
    out[0] = "-" if out[0] == " - " else ""
    return "".join(out)


def format_poly(p: LaurentPoly) -> str:
    """Canonical text form: terms ascending by (t-degree, s-degree), written
    by ``format_signed_sum`` with ``*`` between a coefficient and its unit.
    """
    items = sorted(p.terms.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    return format_signed_sum([(c, _format_monomial(i, j)) for (i, j), c in items], "*")


@dataclass(repr=False)
class LaurentMatrix:
    entries: list[list[LaurentPoly]]

    def __post_init__(self):
        self.entries = [list(row) for row in self.entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")

    @classmethod
    def identity(cls, n: int) -> "LaurentMatrix":
        return cls([[ONE if i == j else LaurentPoly() for j in range(n)] for i in range(n)])

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = LaurentPoly()
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return LaurentMatrix(out)

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(format_poly(e) for e in row) for row in self.entries
        )
        return f"LaurentMatrix[{body}]"


# Primes stay below 2^26, so a product of two residues is below 2^52 and a sum
# of _MAX_INNER such products is below 2^63: every int64 step is exact.
_PRIME_BITS = 26
_MAX_INNER = 1 << (63 - 2 * _PRIME_BITS)
# Below this modulus eliminate_mod's products of residues, and their differences, are exact in int64.
MODULUS_LIMIT = 1 << 31
# The most cells of a braid or relation matrix (n <= 4096 when square), refused
# before its first row or term is built, and of a determinant block's dense
# coefficient array, refused before it is allocated.
MAX_MATRIX_CELLS = 1 << 24
# The most int64 elements one block of the evaluation grid puts in one array;
# a block shrinks to one grid point, never further.
_BLOCK_ELEMENTS = 1 << 14
# The maps (i, j) -> (i - k*j, j - l*i) of exponent pairs, one per (k, l). Each
# has determinant 1, so it is a ring automorphism of Z[s^-1, s, t^-1, t] and
# commutes with the determinant; _block_determinant stacks their 2 x 2 matrices.
_MAPS = ((0, 0), (1, 0), (0, 1))


def is_prime(n: int) -> bool:
    """Trial division by 2, then by odd divisors up to isqrt(n)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    return all(n % d for d in range(3, isqrt(n) + 1, 2))


def check_modulus_bound(p: int) -> None:
    """Refuse p >= MODULUS_LIMIT; run it before ``is_prime``, whose trial
    division takes seconds for a large p.
    """
    if p >= MODULUS_LIMIT:
        raise DomainError(f"modulus must be below 2^31, got {p}")


@cache
def _prime(index: int) -> int:
    """The index-th largest prime below 2^26 (index 0 is the largest)."""
    c = (1 << _PRIME_BITS) - 1 if index == 0 else _prime(index - 1) - 2
    while not is_prime(c):
        c -= 2
    return c


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a @ b mod p in int64, summing at most _MAX_INNER products at a time."""
    out = None
    for lo in range(0, a.shape[-1], _MAX_INNER):
        part = np.matmul(a[..., lo : lo + _MAX_INNER], b[..., lo : lo + _MAX_INNER, :]) % p
        out = part if out is None else (out + part) % p
    return out


def _powers(points: np.ndarray, degree: int, p: np.ndarray) -> np.ndarray:
    """out[r, x, k] = points[x]^k mod p[r] for k = 0..degree, doubling the
    filled columns at each step."""
    out = np.empty((len(p), len(points), degree + 1), dtype=np.int64)
    out[..., 0] = 1
    power = points % p[:, None]
    filled = 1
    while filled <= degree:
        count = min(filled, degree + 1 - filled)
        out[..., filled : filled + count] = out[..., :count] * power[..., None] % p[:, None, None]
        power = power * power % p[:, None]
        filled += count
    return out


def _inverse(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """x^(p-2) mod p elementwise: the inverse of each nonzero residue, 0 for 0."""
    out = np.ones_like(x)
    for bit in range(_PRIME_BITS):
        out = np.where((p - 2) >> bit & 1, out * x % p, out)
        x = x * x % p
    return out


def eliminate_mod(a: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Fraction-free row reduction of the m x c matrices a[r, :, :, g] mod p[r] < MODULUS_LIMIT.

    One pivot row serves the whole batch: where it has a zero, the first row
    below with a nonzero in the column is added to it, and a column that is
    zero from the pivot row down in every matrix is skipped and sets num to
    0. Rows below are multiplied by the pivot, not divided, so den collects
    those factors. rank counts pivot rows (the rank of a batch of one); a
    square matrix's determinant is num / den. ``a`` is overwritten.
    """
    p2, p3, p4 = p[:, None], p[:, None, None], p[:, None, None, None]
    num = np.ones((a.shape[0], a.shape[3]), dtype=np.int64)
    den = np.ones_like(num)
    r = 0
    for k in range(a.shape[2]):
        nonzero = a[:, r:, k] != 0
        if not nonzero.any():
            num[:] = 0
            continue
        first = nonzero.argmax(axis=1)
        if first.any():
            below = a[np.arange(len(p))[:, None], r + first, k:, np.arange(a.shape[3])]
            a[:, r, k:] = (a[:, r, k:] + below.transpose(0, 2, 1) * (first > 0)[:, None, :]) % p3
        pivot = a[:, r, k]
        den = den * num % p2
        num = num * pivot % p2
        a[:, r + 1 :, k + 1 :] = (
            a[:, r + 1 :, k + 1 :] * pivot[:, None, None]
            - a[:, r + 1 :, k, None] * a[:, r, None, k + 1 :]
        ) % p4
        r += 1
    return num, den, r


def _interpolate(values: np.ndarray, primes: list[int]) -> np.ndarray:
    """Coefficients, lowest degree first, of the polynomials of degree at most
    D taking the values values[r, i, x] mod primes[r] at x = 0..D.

    Lagrange form: the sum over nodes x of values[x] * w[x] * master(y) / (y - x),
    master(y) = y(y-1)...(y-D), w[x] = 1 / ((-1)^(D-x) x! (D-x)!). Synthetic
    division builds the quotients' coefficients top down, a column for all
    nodes at once, in blocks of at most max(values.size, _BLOCK_ELEMENTS)
    cells, each applied by one _matmul_mod, which keeps the int64 sums exact.
    """
    top = values.shape[-1] - 1
    if top == 0:
        return values
    modulus, fact = prod(primes), [1]
    for k in range(1, top + 1):
        fact.append(fact[-1] * k % modulus)
    weight = [[pow((-1) ** (top - x) * fact[x] * fact[top - x], -1, q) for x in range(top + 1)] for q in primes]
    p, nodes = np.array(primes, dtype=np.int64)[:, None], np.arange(top + 1)
    scaled = values * np.array(weight, dtype=np.int64)[:, None] % p[:, None]
    # master[:, i] is the coefficient of y^(D+1-i): the factor y only shifts, and the constant term is 0.
    master = np.array([[1] + [0] * top] * len(primes), dtype=np.int64)
    for j in range(1, top + 1):
        master[:, 1 : j + 1] = (master[:, 1 : j + 1] - j * master[:, :j]) % p
    width, column = max(values.size, _BLOCK_ELEMENTS) // (len(primes) * (top + 1)), 0
    block = np.empty((len(primes), top + 1, min(width, top + 1)), dtype=np.int64)
    out = np.empty_like(values)
    for i in range(top + 1):
        # column[:, x] is the coefficient of y^(D-i) in master(y) / (y - x).
        block[..., i % width] = column = (master[:, i, None] + nodes * column) % p
        if i % width == width - 1 or i == top:
            out[..., i - i % width : i + 1] = _matmul_mod(scaled, block[..., : i % width + 1], p[:, None])
    return out[..., ::-1]


def _grid_determinants(dense: np.ndarray, n: int, box_s: int, box_t: int, p: np.ndarray) -> np.ndarray:
    """out[r, x, y] = det of the matrix at s = x, t = y, mod p[r].

    ``dense[r, i*n + j, a, b]`` is the coefficient of s^a t^b in entry (i, j)
    mod p[r]. The grid goes in blocks of t-points, each split into blocks
    of s-points, so that no array of a block exceeds _BLOCK_ELEMENTS.
    """
    count, cells, deg_s, deg_t = dense.shape[0], n * n, dense.shape[2] - 1, dense.shape[3] - 1
    dense = dense.reshape(count, cells * (deg_s + 1), deg_t + 1)
    num = np.empty((count, box_s, box_t), dtype=np.int64)
    den = np.empty_like(num)
    step_t = min(box_t, max(1, _BLOCK_ELEMENTS // (count * max(deg_t + 1, cells * (deg_s + 1)))))
    step_s = min(box_s, max(1, _BLOCK_ELEMENTS // (count * max(deg_s + 1, cells * step_t))))
    for t0 in range(0, box_t, step_t):
        ts = np.arange(t0, min(t0 + step_t, box_t))
        at_t = _matmul_mod(dense, _powers(ts, deg_t, p).transpose(0, 2, 1), p[:, None, None])
        at_t = at_t.reshape(count, cells, deg_s + 1, len(ts))
        for s0 in range(0, box_s, step_s):
            ss = np.arange(s0, min(s0 + step_s, box_s))
            values = _matmul_mod(_powers(ss, deg_s, p)[:, None], at_t, p[:, None, None, None])
            block_num, block_den, _ = eliminate_mod(values.reshape(count, n, n, -1), p)
            block = (count, len(ss), len(ts))
            num[:, s0 : s0 + len(ss), t0 : t0 + len(ts)] = block_num.reshape(block)
            den[:, s0 : s0 + len(ss), t0 : t0 + len(ts)] = block_den.reshape(block)
    return num * _inverse(den, p[:, None, None]) % p[:, None, None]


def _perfect_matching(pattern: list) -> list[int] | None:
    """owner[j], the row matched to column j, for a perfect matching of rows
    to the columns in ``pattern[row]``; None when there is none.

    Kuhn's augmenting paths, each searched breadth first, so a long path
    needs no recursion: via[j] is the row that reached column j, held[i]
    the column that row i holds (-1 for the root).
    """
    owner = [-1] * len(pattern)
    for root in range(len(pattern)):
        via, held, rows = {}, {root: -1}, [root]
        for i in rows:
            j = next((j for j in pattern[i] if owner[j] < 0), None)
            if j is not None:
                via[j] = i
                while j >= 0:
                    owner[j], j = via[j], held[via[j]]
                break
            for j in pattern[i]:
                if j not in via:
                    via[j] = i
                    held[owner[j]] = j
                    rows.append(owner[j])
        else:
            return None
    return owner


def _strong_components(edges: list) -> list[list[int]]:
    """Strongly connected components of the graph v -> edges[v], sinks first.

    Kosaraju: a depth-first walk of the reversed graph records finish order,
    then, latest finish first, each unclaimed vertex claims all it reaches in
    the graph. The reversed walk finishes last in a sink of the graph, so each
    claim stays in one component and sinks come first. Neither sweep
    recurses, so a long path needs no deep stack.
    """
    n = len(edges)
    reverse = [[] for _ in range(n)]
    for v in range(n):
        for w in edges[v]:
            reverse[w].append(v)
    order, seen = [], [False] * n
    stack = [(v, False) for v in range(n)]
    while stack:
        v, done = stack.pop()
        if done:
            order.append(v)
        elif not seen[v]:
            seen[v] = True
            stack.append((v, True))
            stack += ((w, False) for w in reverse[v] if not seen[w])
    out, claimed = [], [False] * n
    for root in reversed(order):
        if not claimed[root]:
            claimed[root] = True
            component = [root]
            for v in component:
                for w in edges[v]:
                    if not claimed[w]:
                        claimed[w] = True
                        component.append(w)
            out.append(component)
    return out


def determinant(m: LaurentMatrix) -> LaurentPoly:
    """Exact determinant by evaluation modulo primes and interpolation.

    0. Rows are matched to the columns of their nonzero entries, which one
       pass over the matrix keeps as the pattern; with no perfect matching
       the determinant is 0, found before any ring arithmetic. Otherwise
       the strongly connected components of the column graph j -> k (the
       row matched to j has a nonzero in column k) are the diagonal blocks
       of a block-triangular form of the matrix, and det M is the sign of
       the matching permutation times the product of the blocks'
       determinants (the sign of the row order times that of the column
       order), which is (-1)^(n - c) for the c cycles of the matching, the
       strong components of j -> owner[j]. Every matrix takes this one
       path: blocks are taken smallest first as their nonzero cells in the
       pattern, a 1 x 1 block's determinant is its entry, larger blocks run
       steps 1-5, and a zero block ends the product. The empty matrix's
       determinant is the empty product, 1. The matching is breadth first:
       a row's free column is taken before any row behind an owned column
       is entered. It takes O(n * cells) time at worst, cells the nonzero
       entries, and linear time on a chain word's matrix; the components
       and the blocks' cells take O(n + cells), with no second matrix read.
    1. Each row, then each column, is divided by the largest monomial that
       divides it, so every entry is a polynomial. When every s-exponent
       is a multiple of some g > 1, they are divided by g and the result's
       are multiplied back (likewise for t), so a sparse entry such as
       s^N - 1 costs two grid points, not N + 1.
    2. Degree box: the determinant's s-degree is at most Ds, the smaller of
       the sum over rows and the sum over columns of the largest s-exponent
       in that row or column; its t-degree is at most Dt, likewise. Steps 1
       and 2 run in one pass under each of three maps of the exponents,
       (i, j) -> (i - k*j, j - l*i) for (k, l) = (0, 0), (1, 0) and (0, 1)
       (_MAPS). Each has determinant 1, so it is a ring automorphism of
       Z[s^-1, s, t^-1, t] and commutes with the determinant. The map whose
       box has the fewest points (Ds+1)(Dt+1) is kept, the identity on a
       tie. Entries built from 1 - st, s and t lie on a band along i = j,
       which a rectangle in (i, j) covers poorly and (i - j, j) or
       (i, j - i) covers well.
    3. Coefficient bound: every coefficient is at most B in absolute value,
       B the smaller of the product of the row L1 norms and the product of
       the column L1 norms (a line's L1 norm sums the absolute values of all
       coefficients in it).
    4. The matrix is evaluated on the grid {0..Ds} x {0..Dt} modulo the
       largest primes below 2^26, as many as make their product M exceed
       2B, and every grid determinant mod every prime is eliminated in
       batched int64 numpy arrays, block by block.
    5. Interpolation along t, then along s, each a blocked matmul against
       the Lagrange basis (_interpolate), gives every coefficient mod every
       prime, and the Chinese remainder theorem lifts it to the symmetric
       range -M/2 < c < M/2, which holds it since |c| <= B. The inverse of
       the kept map, (a, b) -> (a + k*b, b + l*a), takes each pair back.

    All arithmetic is on integers (int64 residues and Python ints); no float
    is used. Per block of size n, time grows as the number of primes times
    (Ds+1)(Dt+1) times n^3 + Ds + Dt, with Ds and Dt the box of the block's
    kept map after the division by g and h. A box side is at most n times the
    side of the dense array (primes x n^2 x the entries' s- and t-degrees + 1,
    capped at MAX_MATRIX_CELLS = 2^24 cells), so the grid is no larger than
    it, and no later array is larger than it or _BLOCK_ELEMENTS.
    """
    if m.rows != m.cols:
        raise ValueError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    pattern = [{j: poly for j, poly in enumerate(row) if poly} for row in m.entries]
    owner = _perfect_matching(pattern)
    if owner is None:
        return LaurentPoly()
    det = LaurentPoly.const((-1) ** (m.rows - len(_strong_components([[i] for i in owner]))))
    for columns in sorted(_strong_components([pattern[i] for i in owner]), key=len):
        # Row owner[k] takes column k's place: matched entries lie on the diagonal.
        place = {j: b for b, j in enumerate(columns)}
        cells = [(place[k], place[j], poly) for k in columns for j, poly in pattern[owner[k]].items() if j in place]
        part = cells[0][2] if len(columns) == 1 else _block_determinant(len(columns), cells)
        if not part:
            return part
        det = det * part
    return det


def _block_determinant(n: int, cells: list[tuple[int, int, LaurentPoly]]) -> LaurentPoly:
    """Steps 1-5 of ``determinant`` on an n x n diagonal block, n > 1, given
    as its nonzero (row, column, entry) cells in any order. Its matched
    entries lie on its diagonal, so every line has a term. First the terms
    are flattened into (row, column, s-exp, t-exp, coefficient) columns."""
    rows, cols, exp_s, exp_t, coeffs = zip(*(
        (i, j, es, et, c) for i, j, poly in cells for (es, et), c in poly.terms.items()
    ))
    row_norms, col_norms = [0] * n, [0] * n
    for i, j, c in zip(rows, cols, coeffs):
        row_norms[i] += abs(c)
        col_norms[j] += abs(c)
    bound = min(prod(row_norms), prod(col_norms))
    rows, cols = np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)
    maps = np.array([row for k, l in _MAPS for row in ((1, -k), (-l, 1))], dtype=np.int64)
    exp = maps @ np.array((exp_s, exp_t), dtype=np.int64)
    shift = np.zeros(len(exp), dtype=np.int64)
    for line in (rows, cols):
        low = np.full((n, len(exp)), exp.max())
        np.minimum.at(low, line, exp.T)
        exp -= low[line].T
        shift += low.sum(axis=0)
    # Entries in s^g (or t^h) only: work in u = s^g, whose determinant in u
    # is the determinant in s with every exponent divided by g.
    step = np.maximum(np.gcd.reduce(exp, axis=1), 1)
    exp //= step[:, None]
    top = np.zeros((2, n, len(exp)), dtype=np.int64)
    for side, line in zip(top, (rows, cols)):
        np.maximum.at(side, line, exp.T)
    boxes = top.sum(axis=1).min(axis=0) + 1
    # The map with the fewest grid points; argmin keeps the identity on a tie.
    best = int(np.argmin(boxes[0::2] * boxes[1::2]))
    exp_s, exp_t = exp[2 * best : 2 * best + 2]
    (box_s, box_t), (step_s, step_t), (shift_s, shift_t) = (
        v[2 * best : 2 * best + 2].tolist() for v in (boxes, step, shift)
    )
    primes, modulus = [], 1
    while modulus <= 2 * bound:
        primes.append(_prime(len(primes)))
        modulus *= primes[-1]
    # A box side is at most n times the array's side, so no later array of the block is larger.
    shape = (len(primes), n * n, int(exp_s.max()) + 1, int(exp_t.max()) + 1)
    if (cells := prod(shape)) > MAX_MATRIX_CELLS:
        shape_text = "x".join(map(str, shape))
        raise DomainError(f"determinant block would have {shape_text} = {cells} cells, above the limit of 2^24")
    dense = np.zeros(shape, dtype=np.int64)
    for r, q in enumerate(primes):
        dense[r, rows * n + cols, exp_s, exp_t] = [c % q for c in coeffs]
    grid = _grid_determinants(dense, n, box_s, box_t, np.array(primes, dtype=np.int64))

    # residues[r, b, a]: coefficient of s^a t^b mod primes[r]; lift the nonzero ones.
    residues = _interpolate(_interpolate(grid, primes).transpose(0, 2, 1), primes)
    at_t, at_s = np.nonzero(residues.any(axis=0))
    lifted = 0
    for q, res in zip(primes, residues[:, at_t, at_s]):
        cofactor = modulus // q
        lifted = lifted + res.astype(object) * (cofactor * pow(cofactor, -1, q))
    half = modulus // 2
    # (a, b) -> (a + k*b, b + l*a) inverts the chosen map, since k*l = 0.
    k, l = _MAPS[best]
    out = {}
    for a, b, c in zip(at_s.tolist(), at_t.tolist(), (lifted % modulus).tolist()):
        a, b = a * step_s + shift_s, b * step_t + shift_t
        out[a + k * b, b + l * a] = c - modulus if c > half else c
    return LaurentPoly(out)


def cofactor_determinant(m: LaurentMatrix) -> LaurentPoly:
    """Determinant by first-row cofactor expansion. Slow; used as a cross-check."""
    if m.rows != m.cols:
        raise ValueError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")

    def expand(rows: list[list[LaurentPoly]]) -> LaurentPoly:
        n = len(rows)
        if n == 0:
            return ONE
        if n == 1:
            return rows[0][0]
        acc = LaurentPoly()
        for j in range(n):
            if not rows[0][j]:
                continue
            minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
            term = rows[0][j] * expand(minor)
            acc = acc + (term if j % 2 == 0 else -term)
        return acc

    return expand(m.entries)
