"""Finite biquandles as operation tables, with a full axiom checker.

A finite biquandle on m elements is four m x m tables, one per operation,
with entries in 0..m-1. The checker verifies every defining axiom by numpy
broadcasting; existential axioms are checked by searching the whole carrier.

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
from .errors import DomainError, ParseError, read_decimal
from .laurent import check_modulus_bound, is_prime
from .quaternion import OP_COEFFS as QUATERNION_COEFFS, Quaternion, left_matrix
from .terms import OPS

# Sweeps walk blocks of their first variable; each block's array (up to an
# (a-block, b, c) or (a-block, b, x) cube) keeps near this many entries
# regardless of carrier size.
_CHUNK_BUDGET = 1_000_000

# Carriers above this need force=True; the cubes grow with the third power.
MAX_CHECK_SIZE = 100


class FiniteBiquandle:
    """Four operation tables over a common finite carrier."""

    def __init__(self, tables: dict, labels: list[str] | None = None):
        missing = [op for op in OPS if op not in tables]
        if missing:
            raise ValueError(f"missing operation tables: {', '.join(missing)}")
        converted = {}
        size = None
        for op in OPS:
            arr = np.asarray(tables[op], dtype=np.int64)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ValueError(f"{op} table must be square, got shape {arr.shape}")
            if size is None:
                size = arr.shape[0]
            elif arr.shape[0] != size:
                raise ValueError(f"{op} table size {arr.shape[0]} does not match {size}")
            if size == 0:
                raise ValueError("carrier must be nonempty")
            if arr.min() < 0 or arr.max() >= size:
                raise ValueError(f"{op} table entries must lie in 0..{size - 1}")
            converted[op] = arr
        self.tables = converted
        self.size = size
        if labels is not None:
            if len(labels) != size:
                raise ValueError(f"expected {size} labels, got {len(labels)}")
            self.labels = list(labels)
        else:
            self.labels = [str(i) for i in range(size)]

    def apply(self, op: str, a: int, b: int) -> int:
        if op not in OPS:
            raise ValueError(f"unknown operation {op!r}")
        return int(self.tables[op][a, b])

    def label(self, i: int) -> str:
        return self.labels[i]

    def render_tables(self) -> str:
        lines = [f"size {self.size}"]
        for op in OPS:
            lines.append(op)
            for row in self.tables[op]:
                lines.append(" ".join(str(int(v)) for v in row))
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


def _check(B: FiniteBiquandle, name: str, arity: int, equations, exists: bool = False) -> AxiomCheck:
    """Check that each equation holds for every arity-tuple (a, b, c)[:arity].

    Equations take one broadcast index grid per variable and return a boolean
    array. With exists, a trailing variable x is added and a tuple passes
    when some x satisfies the equation. Blocks of the first variable keep
    each array near _CHUNK_BUDGET entries. The first failing tuple of the
    first failing equation is reported; only universal axioms number it.
    """
    m = B.size
    dims = arity + exists
    grids = [np.arange(m).reshape([m if j == k else 1 for j in range(dims)]) for k in range(dims)]
    step = max(1, _CHUNK_BUDGET // m ** (dims - 1))
    for eq_no, equation in enumerate(equations, start=1):
        for lo in range(0, m, step):
            ok = equation(grids[0][lo : lo + step], *grids[1:])
            if exists:
                ok = ok.any(axis=-1)
            if not ok.all():
                first = np.argwhere(~ok)[0]
                first[0] += lo
                detail = " ".join(f"{var}={B.label(int(i))}" for var, i in zip("abc", first))
                return AxiomCheck(name, False, detail if exists else f"{detail} (equation {eq_no})")
    return AxiomCheck(name, True)


def check_carrier_size(size: int, force: bool = False) -> None:
    """Refuse a carrier of more than MAX_CHECK_SIZE elements unless force is
    set: the checks quantify over triples, and the linear table builders
    allocate about 2*d*size^2 int64 values."""
    if size > MAX_CHECK_SIZE and not force:
        raise DomainError(f"carrier size {size} exceeds {MAX_CHECK_SIZE}; enable force to check anyway")


def check_axioms(B: FiniteBiquandle, force: bool = False) -> AxiomReport:
    """Verify every biquandle axiom on the tables; report per-axiom results.

    Carriers larger than 100 elements are refused unless force is set, since
    several axioms quantify over triples.
    """
    check_carrier_size(B.size, force)
    ur, lr, ul, ll = (B.tables[op] for op in OPS)
    return AxiomReport((
        _check(B, "axiom1", 1, [lambda a, x: lr[ur[a, x], a] == a], exists=True),
        _check(B, "axiom1.variant", 1, [lambda a, x: ll[ul[a, x], a] == a], exists=True),
        _check(B, "axiom2", 1, [lambda a, x: (ll[a, x] == x) & (ul[x, a] == a)], exists=True),
        _check(B, "axiom2.variant", 1, [lambda a, x: (lr[a, x] == x) & (ur[x, a] == a)], exists=True),
        _check(B, "axiom3", 2, [
            lambda a, b: ll[lr[a, b], ur[b, a]] == a,
            lambda a, b: ul[ur[a, b], lr[b, a]] == a,
            lambda a, b: ur[ul[a, b], ll[b, a]] == a,
            lambda a, b: lr[ll[a, b], ul[b, a]] == a,
        ]),
        _check(B, "axiom4", 2, [
            lambda a, b, x: (ur[a, ll[b, x]] == x) & (ul[x, b] == a) & (lr[ll[b, x], a] == b),
        ], exists=True),
        _check(B, "axiom4.variant", 2, [
            lambda a, b, x: (ul[a, lr[b, x]] == x) & (ur[x, b] == a) & (ll[lr[b, x], a] == b),
        ], exists=True),
        _check(B, "axiom5", 3, [
            lambda a, b, c: ur[ur[a, b], c] == ur[ur[a, lr[c, b]], ur[b, c]],
            lambda a, b, c: lr[lr[a, b], c] == lr[lr[a, ur[c, b]], lr[b, c]],
            lambda a, b, c: ur[lr[a, b], lr[c, ur[b, a]]] == lr[ur[a, c], ur[b, lr[c, a]]],
        ]),
        _check(B, "axiom5.variant", 3, [
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
    maps = {op: tuple(left_matrix(q) for q in pair) for op, pair in QUATERNION_COEFFS.items()}
    labels = [Quaternion(*c).render().replace(" ", "") for c in product(range(p), repeat=4)]
    return _linear_biquandle(p, maps, labels)


def parse_table_file(text: str) -> FiniteBiquandle:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines or lines[0].split()[0] != "size":
        raise ParseError("table file must start with 'size <m>'")
    parts = lines[0].split()
    if len(parts) != 2 or not (parts[1].isascii() and parts[1].isdecimal()):
        raise ParseError(f"bad size line {lines[0]!r}")
    m = read_decimal(parts[1], "carrier size")
    if m < 1:
        raise ParseError(f"carrier size must be >= 1, got {m}")
    pos = 1
    tables = {}
    while pos < len(lines):
        op = lines[pos]
        if op not in OPS:
            raise ParseError(f"expected an operation name (ur, lr, ul, ll), got {op!r}")
        if op in tables:
            raise ParseError(f"duplicate table for {op}")
        pos += 1
        rows = []
        for _ in range(m):
            if pos >= len(lines):
                raise ParseError(f"{op} table is missing rows (need {m})")
            entries = lines[pos].split()
            if len(entries) != m:
                raise ParseError(
                    f"{op} table row has {len(entries)} entries, expected {m}"
                )
            try:  # int() also reads signs, underscores and other scripts' digits
                if not ((digits := "".join(entries)).isascii() and digits.isdecimal()):
                    raise ValueError
                row = [int(e) for e in entries]
            except ValueError:  # also an entry with more digits than int reads
                raise ParseError(f"non-integer entry in {op} table row {lines[pos]!r}") from None
            for v in row:
                if not 0 <= v < m:
                    raise ParseError(f"{op} table entry {v} out of range 0..{m - 1}")
            rows.append(row)
            pos += 1
        tables[op] = rows
    missing = [op for op in OPS if op not in tables]
    if missing:
        raise ParseError(f"missing operation tables: {', '.join(missing)}")
    return FiniteBiquandle(tables)
