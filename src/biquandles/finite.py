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

import numpy as np

from .errors import DomainError, ParseError
from .quaternion import OP_COEFFS, Quaternion, is_prime, left_matrix
from .terms import OPS

# Existential axioms search an (a-block, x) or (a-block, b, x) cube; blocks
# keep peak memory near this many entries regardless of carrier size.
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


def _chunks(m: int, per_a_cost: int):
    step = max(1, _CHUNK_BUDGET // max(per_a_cost, 1))
    for start in range(0, m, step):
        yield start, min(start + step, m)


def _check_single_exists(B: FiniteBiquandle, name: str, builder) -> AxiomCheck:
    """Axioms of the form: for every a there is an x with builder(a, x) true.

    builder takes column vectors A (k, 1) and X (1, m) and returns a boolean
    (k, m) array; row a must contain at least one True.
    """
    m = B.size
    X = np.arange(m)[None, :]
    for lo, hi in _chunks(m, m):
        A = np.arange(lo, hi)[:, None]
        ok = builder(A, X).any(axis=1)
        if not ok.all():
            a = lo + int(np.argmin(ok))
            return AxiomCheck(name, False, f"a={B.label(a)}")
    return AxiomCheck(name, True)


def _check_pair_exists(B: FiniteBiquandle, name: str, builder) -> AxiomCheck:
    """Axioms of the form: for all a, b there is an x making builder true.

    builder takes index arrays A (k,1,1), Bv (1,m,1), X (1,1,m) and returns a
    boolean (k, m, m) array; each (a, b) slice must contain a True.
    """
    m = B.size
    Bv = np.arange(m)[None, :, None]
    X = np.arange(m)[None, None, :]
    for lo, hi in _chunks(m, m * m):
        A = np.arange(lo, hi)[:, None, None]
        ok = builder(A, Bv, X).any(axis=2)
        if not ok.all():
            a_off, b = np.argwhere(~ok)[0]
            return AxiomCheck(
                name, False, f"a={B.label(lo + int(a_off))} b={B.label(int(b))}"
            )
    return AxiomCheck(name, True)


def _check_equations(B: FiniteBiquandle, name: str, var_names: str, equations) -> AxiomCheck:
    """Universally quantified equation lists over 2 or 3 variables.

    equations is a list of callables taking the broadcast index arrays and
    returning a boolean array; the first failing equation (in order) is
    reported with its first failing tuple.
    """
    m = B.size
    arity = len(var_names)
    for eq_no, equation in enumerate(equations, start=1):
        if arity == 2:
            A = np.arange(m)[:, None]
            Bv = np.arange(m)[None, :]
            ok = equation(A, Bv)
            if not ok.all():
                a, b = np.argwhere(~ok)[0]
                detail = f"a={B.label(int(a))} b={B.label(int(b))} (equation {eq_no})"
                return AxiomCheck(name, False, detail)
        else:
            Bv = np.arange(m)[None, :, None]
            C = np.arange(m)[None, None, :]
            failed = None
            for lo, hi in _chunks(m, m * m):
                A = np.arange(lo, hi)[:, None, None]
                ok = equation(A, Bv, C)
                if not ok.all():
                    a_off, b, c = np.argwhere(~ok)[0]
                    failed = (lo + int(a_off), int(b), int(c))
                    break
            if failed is not None:
                a, b, c = failed
                detail = (
                    f"a={B.label(a)} b={B.label(b)} c={B.label(c)} (equation {eq_no})"
                )
                return AxiomCheck(name, False, detail)
    return AxiomCheck(name, True)


def check_axioms(B: FiniteBiquandle, force: bool = False) -> AxiomReport:
    """Verify every biquandle axiom on the tables; report per-axiom results.

    Carriers larger than 100 elements are refused unless force is set, since
    several axioms quantify over triples.
    """
    if B.size > MAX_CHECK_SIZE and not force:
        raise DomainError(
            f"carrier size {B.size} exceeds {MAX_CHECK_SIZE}; enable force to check anyway"
        )
    ur, lr, ul, ll = (B.tables[op] for op in OPS)
    checks = []

    checks.append(
        _check_single_exists(B, "axiom1", lambda A, X: lr[ur[A, X], A] == A)
    )
    checks.append(
        _check_single_exists(B, "axiom1.variant", lambda A, X: ll[ul[A, X], A] == A)
    )
    checks.append(
        _check_single_exists(
            B, "axiom2", lambda A, X: (ll[A, X] == X) & (ul[X, A] == A)
        )
    )
    checks.append(
        _check_single_exists(
            B, "axiom2.variant", lambda A, X: (lr[A, X] == X) & (ur[X, A] == A)
        )
    )
    checks.append(
        _check_equations(
            B,
            "axiom3",
            "ab",
            [
                lambda A, Bv: ll[lr[A, Bv], ur[Bv, A]] == A,
                lambda A, Bv: ul[ur[A, Bv], lr[Bv, A]] == A,
                lambda A, Bv: ur[ul[A, Bv], ll[Bv, A]] == A,
                lambda A, Bv: lr[ll[A, Bv], ul[Bv, A]] == A,
            ],
        )
    )
    checks.append(
        _check_pair_exists(
            B,
            "axiom4",
            lambda A, Bv, X: (ur[A, ll[Bv, X]] == X)
            & (ul[X, Bv] == A)
            & (lr[ll[Bv, X], A] == Bv),
        )
    )
    checks.append(
        _check_pair_exists(
            B,
            "axiom4.variant",
            lambda A, Bv, X: (ul[A, lr[Bv, X]] == X)
            & (ur[X, Bv] == A)
            & (ll[lr[Bv, X], A] == Bv),
        )
    )
    checks.append(
        _check_equations(
            B,
            "axiom5",
            "abc",
            [
                lambda A, Bv, C: ur[ur[A, Bv], C] == ur[ur[A, lr[C, Bv]], ur[Bv, C]],
                lambda A, Bv, C: lr[lr[A, Bv], C] == lr[lr[A, ur[C, Bv]], lr[Bv, C]],
                lambda A, Bv, C: ur[lr[A, Bv], lr[C, ur[Bv, A]]]
                == lr[ur[A, C], ur[Bv, lr[C, A]]],
            ],
        )
    )
    checks.append(
        _check_equations(
            B,
            "axiom5.variant",
            "abc",
            [
                lambda A, Bv, C: ul[ul[A, Bv], C] == ul[ul[A, ll[C, Bv]], ul[Bv, C]],
                lambda A, Bv, C: ll[ll[A, Bv], C] == ll[ll[A, ul[C, Bv]], ll[Bv, C]],
                lambda A, Bv, C: ul[ll[A, Bv], ll[C, ul[Bv, A]]]
                == ll[ul[A, C], ul[Bv, ll[C, A]]],
            ],
        )
    )
    return AxiomReport(tuple(checks))


def finite_alexander_biquandle(m: int, s: int, t: int) -> FiniteBiquandle:
    """Linear biquandle on Z_m with parameters s, t (both must be units mod m)."""
    if m < 1:
        raise DomainError(f"modulus must be >= 1, got {m}")
    if math.gcd(s, m) != 1:
        raise DomainError(f"s={s} is not a unit mod {m}")
    if math.gcd(t, m) != 1:
        raise DomainError(f"t={t} is not a unit mod {m}")
    s_inv = pow(s, -1, m)
    t_inv = pow(t, -1, m)
    A = np.arange(m)[:, None]
    Bv = np.arange(m)[None, :]
    tables = {
        "ur": (t * A + (1 - s * t) * Bv) % m,
        "lr": ((s * A) + 0 * Bv) % m,
        "ul": (t_inv * A + (1 - s_inv * t_inv) * Bv) % m,
        "ll": ((s_inv * A) + 0 * Bv) % m,
    }
    return FiniteBiquandle(tables)


def finite_quaternionic_biquandle(p: int) -> FiniteBiquandle:
    """Quaternionic biquandle on the p^4 quaternions over Z_p, p an odd prime."""
    if not is_prime(p) or p == 2:
        raise DomainError(f"modulus must be an odd prime, got {p}")
    n = p ** 4
    idx = np.arange(n)
    coeffs = np.stack(
        [idx // p ** 3, (idx // p ** 2) % p, (idx // p) % p, idx % p], axis=1
    )
    weights = np.array([p ** 3, p ** 2, p, 1], dtype=np.int64)

    def encode(vec):
        return (vec % p) @ weights

    def table(left_q: Quaternion, right_q: Quaternion):
        left_part = coeffs @ np.array(left_matrix(left_q), dtype=np.int64).T
        right_part = coeffs @ np.array(left_matrix(right_q), dtype=np.int64).T
        return encode(left_part[:, None, :] + right_part[None, :, :])

    tables = {op: table(*OP_COEFFS[op]) for op in OPS}
    labels = [
        Quaternion(int(wc), int(xc), int(yc), int(zc)).render().replace(" ", "")
        for wc, xc, yc, zc in coeffs
    ]
    return FiniteBiquandle(tables, labels=labels)


def parse_table_file(text: str) -> FiniteBiquandle:
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines or not lines[0].startswith("size"):
        raise ParseError("table file must start with 'size <m>'")
    parts = lines[0].split()
    if len(parts) != 2 or not parts[1].isdigit():
        raise ParseError(f"bad size line {lines[0]!r}")
    m = int(parts[1])
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
            try:
                row = [int(e) for e in entries]
            except ValueError:
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
