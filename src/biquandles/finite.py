"""Finite biquandles as operation tables, with a full axiom checker.

A finite biquandle on m elements is one (4, m, m) int32 array, an m x m table
per operation with entries in 0..m-1. The checker verifies every axiom by
numpy broadcasting. Each table is decided once to be affine over Z_m or not;
axioms 3 and 5 hold everywhere when the tables they read are affine and they
hold at 0 and at each unit vector, which settles the linear (Alexander)
tables in O(m^2); otherwise they sweep every tuple, each lookup one gather
from the flat table. In the existential axioms 1, 2 and 4 a witness x pins the
one tuple it can witness, so they sweep the m^2 pairs (u, x), not a cube.

The table reader reads each operation's m rows in one byte-level numpy pass
into an (m, m) array; a block that pass cannot read whole (other
separators, leading zeros past 3 digits, or any error) is read line by line,
and that reader words every error.

Table file grammar (``#`` starts a comment):

    size <m>
    ur
    <m rows of m integers>
    lr
    ...
    ul
    ...
    ll
    ...
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .alexander import OP_COEFFS as ALEXANDER_COEFFS
from .errors import DomainError, ParseError, content_lines, read_decimal
from .laurent import check_modulus_bound, is_prime
from .quaternion import OP_COEFFS as QUATERNION_COEFFS, Quaternion, left_matrix
from .terms import OPS

# Sweeps walk blocks of their first variable; each block's arrays (up to an
# (a-block, b, c) cube) keep near this many entries, so that a block's
# gathers stay in cache. On the 26 swept tables (one changed entry, or
# quaternionic) of 50 benchmark items (check_axioms, best of 5, five rounds
# on 2 vCPUs), 2^16 took 0.22-0.29 s, 2^15 0.24-0.33 s, 2^17 0.25-0.33 s.
_CHUNK_BUDGET = 1 << 16

# Carriers above this need force=True; the cubes grow with the third power.
MAX_CHECK_SIZE = 100
# No carrier above this is built, read or checked, also under force. 625 = 5^4
# keeps the quaternionic carrier for p = 5.
MAX_FORCED_SIZE = 625


class FiniteBiquandle:
    """Four operation tables over a common finite carrier."""

    def __init__(self, tables: dict, labels: list[str] | None = None):
        missing = [op for op in OPS if op not in tables]
        if missing:
            raise ValueError(f"missing operation tables: {', '.join(missing)}")
        stack = np.asarray([tables[op] for op in OPS])  # tables of unequal sizes raise here
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.size == 0:
            raise ValueError(f"tables must be square and nonempty, got shape {stack.shape[1:]}")
        if stack.dtype.kind not in "iu":  # floats, bools, strings, and ints too large for int64
            raise ValueError(f"table entries must be integers, got {stack.dtype}")
        self.size = size = stack.shape[1]
        if stack.min() < 0 or stack.max() >= size:
            raise ValueError(f"table entries must lie in 0..{size - 1}")
        # Narrowed after the range check, which must see the input's values;
        # the checker's flat indices x * m + y stay below 625^2.
        self.tables = dict(zip(OPS, stack.astype(np.int32)))
        self.labels = [str(i) for i in range(size)] if labels is None else list(labels)
        if len(self.labels) != size:
            raise ValueError(f"expected {size} labels, got {len(self.labels)}")

    def apply(self, op: str, a: int, b: int) -> int:
        if op not in OPS:
            raise ValueError(f"unknown operation {op!r}")
        return int(self.tables[op][self._element(a), self._element(b)])

    def label(self, i: int) -> str:
        return self.labels[self._element(i)]

    def _element(self, i: int) -> int:
        """i itself, if it is an element 0..m-1; numpy would read -1 as m - 1."""
        if not (isinstance(i, (int, np.integer)) and 0 <= i < self.size):
            raise ValueError(f"element {i} out of range 0..{self.size - 1}")
        return i

    def render_tables(self) -> str:
        lines = [f"size {self.size}"]
        for op in OPS:
            lines.append(op)
            for row in self.tables[op]:
                lines.append(" ".join(map(str, row.tolist())))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    counterexample: str | None = None

    def render(self) -> str:
        if self.passed:
            return f"{self.name}: pass"
        return f"{self.name}: fail [counterexample {self.counterexample}]"


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple[AxiomCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(check.passed for check in self.checks)

    def render(self) -> str:
        return "\n".join(check.render() for check in self.checks)

    def __str__(self) -> str:
        return self.render()


class _FlatTable:
    """An m x m table for the sweeps of check_axioms: T[x, y] is one gather
    at x * m + y of the flat table. affine is whether T[x, y] == (alpha x +
    beta y + gamma) mod m for every x, y, with gamma = T[0, 0], alpha =
    T[1, 0] - gamma and beta = T[0, 1] - gamma (indices mod m, so m = 1 has
    the one entry 0); it is decided once, in O(m^2), when the view is made."""

    def __init__(self, table: np.ndarray):
        self.m = m = len(table)
        self.flat = table.ravel()
        gamma = int(table[0, 0])
        alpha, beta = int(table[1 % m, 0]) - gamma, int(table[0, 1 % m]) - gamma
        x, y = np.ogrid[:m, :m]
        self.affine = bool(((alpha * x + beta * y + gamma) % m == table).all())

    def __getitem__(self, xy):
        x, y = xy
        return self.flat.take(x * self.m + y)


def _failure(B: FiniteBiquandle, name: str, first, note: str = "") -> AxiomCheck:
    detail = " ".join(f"{var}={B.label(int(i))}" for var, i in zip("abc", first))
    return AxiomCheck(name, False, detail + note)


def _check(B: FiniteBiquandle, name: str, arity: int, tables, equations) -> AxiomCheck:
    """Check that each equation holds for every arity-tuple (a, b, c)[:arity].

    Equations take one broadcast index grid per variable and return a boolean
    array; tables are the _FlatTable views their lookups read. Blocks of the
    first variable keep each array near _CHUNK_BUDGET entries. The first
    failing tuple of the first failing equation is reported with its
    equation number.

    When every view in tables is affine over Z_m, an equation lhs == rhs
    built only from lookups in those tables and the variables is first
    evaluated at 0 and at each unit vector, mod m. Both sides are then
    compositions of affine maps, whatever the tables it does not read hold,
    so lhs - rhs is an affine map Z_m^arity -> Z_m, and an affine map that
    vanishes at 0 and at every unit vector vanishes everywhere. If every
    equation holds at those arity + 1 points, the axiom passes without a
    sweep; otherwise the sweep runs and reports as above.
    """
    m = B.size
    if all(table.affine for table in tables):
        points = np.eye(arity + 1, arity, k=-1, dtype=np.int32) % m
        if all(equation(*points.T).all() for equation in equations):
            return AxiomCheck(name, True)
    grids = np.ix_(*[np.arange(m, dtype=np.int32)] * arity)
    step = max(1, _CHUNK_BUDGET // m ** (arity - 1))
    for eq_no, equation in enumerate(equations, start=1):
        for lo in range(0, m, step):
            ok = equation(grids[0][lo : lo + step], *grids[1:])
            if not ok.all():
                first = np.argwhere(~ok)[0]
                first[0] += lo
                return _failure(B, name, first, f" (equation {eq_no})")
    return AxiomCheck(name, True)


def _check_witness(B: FiniteBiquandle, name: str, pin, condition) -> AxiomCheck:
    """Check that every tuple (a,) or (a, b) has an x with condition(*tuple, x).

    pin(u, x) names the one tuple x can witness at (u, x), so one sweep over
    the m^2 pairs marks every tuple with a witness. The first unmarked tuple
    in row-major order, the first a search of every tuple reports, is the
    counterexample, without an equation number.
    """
    m = B.size
    u, x = np.indices((m, m), dtype=np.int32)
    pinned = pin(u, x)
    ok = condition(*pinned, x)
    covered = np.zeros((m,) * len(pinned), dtype=bool)
    covered[tuple(v[ok] for v in pinned)] = True
    if covered.all():
        return AxiomCheck(name, True)
    return _failure(B, name, np.unravel_index(covered.argmin(), covered.shape))


def check_carrier_size(size: int, force: bool = False) -> None:
    """Refuse a carrier of more than MAX_CHECK_SIZE elements unless force is
    set, and one of more than MAX_FORCED_SIZE elements always. Every sweep
    is at most cubic in the carrier, so the element cap bounds time as well
    as memory. The builders and the table reader call this with force=True
    before any table exists; check_axioms calls it with the caller's force."""
    if size > MAX_FORCED_SIZE:
        raise DomainError(f"carrier size {size} exceeds the limit of {MAX_FORCED_SIZE} elements")
    if size > MAX_CHECK_SIZE and not force:
        raise DomainError(f"carrier size {size} exceeds {MAX_CHECK_SIZE}; enable force to check anyway")


def check_axioms(B: FiniteBiquandle, force: bool = False) -> AxiomReport:
    """Verify every biquandle axiom on the tables; report per-axiom results.

    Carriers larger than MAX_CHECK_SIZE elements are refused unless force
    is set, and larger than MAX_FORCED_SIZE always (see check_carrier_size).
    """
    check_carrier_size(B.size, force)
    ur, lr, ul, ll = (_FlatTable(B.tables[op]) for op in OPS)
    return AxiomReport((
        _check_witness(B, "axiom1", lambda a, x: (a,), lambda a, x: lr[ur[a, x], a] == a),
        _check_witness(B, "axiom1.variant", lambda a, x: (a,), lambda a, x: ll[ul[a, x], a] == a),
        _check_witness(B, "axiom2", lambda a, x: (a,), lambda a, x: (ll[a, x] == x) & (ul[x, a] == a)),
        _check_witness(B, "axiom2.variant", lambda a, x: (a,), lambda a, x: (lr[a, x] == x) & (ur[x, a] == a)),
        _check(B, "axiom3", 2, (ur, lr, ul, ll), [
            lambda a, b: ll[lr[a, b], ur[b, a]] == a,
            lambda a, b: ul[ur[a, b], lr[b, a]] == a,
            lambda a, b: ur[ul[a, b], ll[b, a]] == a,
            lambda a, b: lr[ll[a, b], ul[b, a]] == a,
        ]),
        # x witnesses (a, b) only if ul[x, b] == a (ur in the variant), so x pins (ul[x, b], b).
        _check_witness(B, "axiom4", lambda b, x: (ul[x, b], b),
                       lambda a, b, x: (ur[a, ll[b, x]] == x) & (lr[ll[b, x], a] == b)),
        _check_witness(B, "axiom4.variant", lambda b, x: (ur[x, b], b),
                       lambda a, b, x: (ul[a, lr[b, x]] == x) & (ll[lr[b, x], a] == b)),
        _check(B, "axiom5", 3, (ur, lr), [
            lambda a, b, c: ur[ur[a, b], c] == ur[ur[a, lr[c, b]], ur[b, c]],
            lambda a, b, c: lr[lr[a, b], c] == lr[lr[a, ur[c, b]], lr[b, c]],
            lambda a, b, c: ur[lr[a, b], lr[c, ur[b, a]]] == lr[ur[a, c], ur[b, lr[c, a]]],
        ]),
        _check(B, "axiom5.variant", 3, (ul, ll), [
            lambda a, b, c: ul[ul[a, b], c] == ul[ul[a, ll[c, b]], ul[b, c]],
            lambda a, b, c: ll[ll[a, b], c] == ll[ll[a, ul[c, b]], ll[b, c]],
            lambda a, b, c: ul[ll[a, b], ll[c, ul[b, a]]] == ll[ul[a, c], ul[b, ll[c, a]]],
        ]),
    ))


def _linear_biquandle(base: int, maps: dict, labels: list[str] | None = None) -> FiniteBiquandle:
    """Tables of op(a, b) = L a + R b on base-``base`` digit vectors.

    ``maps`` sends each operation to its (L, R) pair of d x d integer
    matrices; element k of 0..base^d - 1 is the vector of its d digits, most
    significant first.
    """
    d = len(maps["ur"][0])
    weights = base ** np.arange(d - 1, -1, -1)
    digits = np.arange(base ** d)[:, None] // weights % base

    def table(L, R):
        left, right = (digits @ np.array(M, dtype=np.int64).T for M in (L, R))
        return (left[:, None, :] + right[None, :, :]) % base @ weights

    return FiniteBiquandle({op: table(*maps[op]) for op in OPS}, labels)


def finite_alexander_biquandle(m: int, s: int, t: int) -> FiniteBiquandle:
    """Linear biquandle on Z_m with parameters s, t (both must be units mod m)."""
    if m < 1:
        raise DomainError(f"modulus must be >= 1, got {m}")
    if math.gcd(s, m) != 1:
        raise DomainError(f"s={s} is not a unit mod {m}")
    if math.gcd(t, m) != 1:
        raise DomainError(f"t={t} is not a unit mod {m}")
    check_carrier_size(m, force=True)
    maps = {
        op: tuple([[c.evaluate_mod(s, t, m)]] for c in pair)
        for op, pair in ALEXANDER_COEFFS.items()
    }
    return _linear_biquandle(m, maps)


def finite_quaternionic_biquandle(p: int) -> FiniteBiquandle:
    """Quaternionic biquandle on the p^4 quaternions over Z_p, p an odd prime below 2^31."""
    check_modulus_bound(p)
    if not is_prime(p) or p == 2:
        raise DomainError(f"modulus must be an odd prime, got {p}")
    check_carrier_size(p**4, force=True)
    maps = {op: tuple(left_matrix(q) for q in pair) for op, pair in QUATERNION_COEFFS.items()}
    labels = [Quaternion(*c).render().replace(" ", "") for c in product(range(p), repeat=4)]
    return _linear_biquandle(p, maps, labels)


def _table_row(op: str, line: str, m: int) -> list[int]:
    """One row of op's table: m unsigned ASCII decimals, each below m."""
    entries = line.split()
    if len(entries) != m:
        raise ParseError(f"{op} table row has {len(entries)} entries, expected {m}")
    try:  # int() also reads signs, underscores and other scripts' digits
        if not ((digits := "".join(entries)).isascii() and digits.isdecimal()):
            raise ValueError
        row = list(map(int, entries))
    except ValueError:  # also an entry with more digits than int reads
        raise ParseError(f"non-integer entry in {op} table row {line!r}") from None
    if max(row) >= m:  # unsigned decimals, so no entry is below 0
        v = next(v for v in row if v >= m)
        raise ParseError(f"{op} table entry {v} out of range 0..{m - 1}")
    return row


# The byte classes of the block reader: 0 an in-line separator (the only
# ASCII bytes str.split() splits on inside a content line), 1 a digit, 2 the
# newline that joins a block's rows, 3 anything else.
_BYTE_CLASS = np.full(256, 3, dtype=np.uint8)
_BYTE_CLASS[[0x09, 0x1F, 0x20]] = 0
_BYTE_CLASS[ord("0") : ord("9") + 1] = 1
_BYTE_CLASS[ord("\n")] = 2


def _table_block(op: str, lines: list[str], m: int):
    """op's table from the lines after its name: an (m, m) array read by one
    byte-level numpy pass over the m rows, or, for a block that pass cannot
    read whole, a list of rows read line by line by _table_row.

    The pass reads a block of m rows of m ASCII digit runs of at most 3
    digits, split by tabs, 0x1f and spaces, each below m. Any other block
    (other bytes, longer runs, wrong counts or values, missing rows) goes
    through _table_row and its "missing rows" check, which word every error.
    """
    if len(lines) == m:
        # two leading blanks keep the third-last digit's index ends - 3 in range
        text = np.frombuffer(("  " + "\n".join(lines)).encode(), dtype=np.uint8)
        kind = _BYTE_CLASS[text]
        if not (kind == 3).any():
            edges = np.flatnonzero(np.diff(kind == 1, prepend=False, append=False))
            starts, ends = edges[::2], edges[1::2]
            width = ends - starts
            if len(starts) == m * m and width.max() <= 3:
                row_of = np.searchsorted(np.flatnonzero(kind == 2), starts)
                digit = (text - ord("0")).astype(np.int32)
                # a run's k-th last digit counts only if the run has k digits
                values = digit[ends - 1] + 10 * (width > 1) * digit[ends - 2] + 100 * (width > 2) * digit[ends - 3]
                if (np.bincount(row_of, minlength=m) == m).all() and values.max() < m:
                    return values.reshape(m, m)
    rows = [_table_row(op, line, m) for line in lines]
    if len(rows) < m:
        raise ParseError(f"{op} table is missing rows (need {m})")
    return rows


def parse_table_file(text: str) -> FiniteBiquandle:
    lines = [line for _, line in content_lines(text)]
    if not lines or lines[0].split()[0] != "size":
        raise ParseError("table file must start with 'size <m>'")
    parts = lines[0].split()
    if len(parts) != 2 or not (parts[1].isascii() and parts[1].isdecimal()):
        raise ParseError(f"bad size line {lines[0]!r}")
    m = read_decimal(parts[1], "carrier size")
    if m < 1:
        raise ParseError(f"carrier size must be >= 1, got {m}")
    check_carrier_size(m, force=True)
    tables = {}
    for start in range(1, len(lines), m + 1):
        op = lines[start]
        if op not in OPS:
            raise ParseError(f"expected an operation name (ur, lr, ul, ll), got {op!r}")
        if op in tables:
            raise ParseError(f"duplicate table for {op}")
        tables[op] = _table_block(op, lines[start + 1 : start + 1 + m], m)
    missing = [op for op in OPS if op not in tables]
    if missing:
        raise ParseError(f"missing operation tables: {', '.join(missing)}")
    return FiniteBiquandle(tables)
