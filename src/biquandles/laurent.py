"""Exact Laurent polynomials in s and t, and matrices over them.

A polynomial is a dict from exponent pairs (i, j) to nonzero integer
coefficients, meaning sum of c * s^i * t^j. All arithmetic is exact; there
is no floating point anywhere in this module.
"""

from __future__ import annotations


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
            new = out.get(key, 0) + coeff
            if new:
                out[key] = new
            else:
                out.pop(key, None)
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
                new = out.get(key, 0) + c1 * c2
                if new:
                    out[key] = new
                else:
                    out.pop(key, None)
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (LaurentPoly, int)):
            return self.terms == self._coerce(other).terms
        return NotImplemented

    def __hash__(self):
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

    def divide_exact(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact division, raising ArithmeticError when the quotient is not polynomial.

        Both operands are shifted to plain polynomials first, then reduced by
        the divisor's lexicographically largest term. Leading terms multiply,
        so every step strictly shrinks the remainder's leading term and an
        exact quotient is found whenever one exists.
        """
        divisor = self._coerce(divisor)
        if not divisor.terms:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self.terms:
            return LaurentPoly()
        si, sj = self.min_degrees()
        di, dj = divisor.min_degrees()
        num = self.scale_by_monomial(-si, -sj)
        den = divisor.scale_by_monomial(-di, -dj)
        lead = max(den.terms)
        lead_c = den.terms[lead]
        quo: dict[tuple[int, int], int] = {}
        while num.terms:
            top = max(num.terms)
            top_c = num.terms[top]
            qi, qj = top[0] - lead[0], top[1] - lead[1]
            if qi < 0 or qj < 0 or top_c % lead_c:
                raise ArithmeticError("inexact polynomial division")
            qc = top_c // lead_c
            quo[(qi, qj)] = qc
            num = num - den * LaurentPoly.monomial(qc, qi, qj)
        return LaurentPoly(quo).scale_by_monomial(si - di, sj - dj)


ZERO = LaurentPoly()
ONE = LaurentPoly.const(1)
S = LaurentPoly.monomial(1, 1, 0)
T = LaurentPoly.monomial(1, 0, 1)


def _format_monomial(i: int, j: int, coeff: int) -> str:
    parts = []
    if i:
        parts.append("s" if i == 1 else f"s^{i}")
    if j:
        parts.append("t" if j == 1 else f"t^{j}")
    mag = abs(coeff)
    if not parts:
        return str(mag)
    if mag != 1:
        parts.insert(0, str(mag))
    return "*".join(parts)


def format_poly(p: LaurentPoly) -> str:
    """Canonical text form: terms ascending by (t-degree, s-degree).

    The first term keeps its sign attached; later terms join with " + " or
    " - ". Unit coefficients are elided except on constants.
    """
    if not p.terms:
        return "0"
    items = sorted(p.terms.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    (i0, j0), c0 = items[0]
    head = _format_monomial(i0, j0, c0)
    out = f"-{head}" if c0 < 0 else head
    for (i, j), c in items[1:]:
        joiner = " - " if c < 0 else " + "
        out += joiner + _format_monomial(i, j, c)
    return out


class LaurentMatrix:
    def __init__(self, entries: list[list[LaurentPoly]]):
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")

    @classmethod
    def identity(cls, n: int) -> "LaurentMatrix":
        return cls([[ONE if i == j else LaurentPoly() for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "LaurentMatrix":
        return cls([[LaurentPoly() for _ in range(cols)] for _ in range(rows)])

    def __getitem__(self, key: tuple[int, int]) -> LaurentPoly:
        i, j = key
        return self.entries[i][j]

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

    def __sub__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return LaurentMatrix(
            [
                [self.entries[i][j] - other.entries[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(format_poly(e) for e in row) for row in self.entries
        )
        return f"LaurentMatrix[{body}]"


def determinant(m: LaurentMatrix) -> LaurentPoly:
    """Exact determinant via fraction-free elimination.

    Each row is first scaled by a monomial to clear negative exponents (the
    scaling is undone at the end), then a Bareiss sweep keeps every
    intermediate entry polynomial. Division by the previous pivot is exact
    at every step, so the arithmetic stays in the integer coefficient ring.
    """
    if m.rows != m.cols:
        raise ValueError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    n = m.rows
    if n == 0:
        return ONE
    work = []
    shift_i = 0
    shift_j = 0
    for row in m.entries:
        mins = [p.min_degrees() for p in row if p]
        if not mins:
            return LaurentPoly()
        di = min(mi for mi, _ in mins)
        dj = min(mj for _, mj in mins)
        shift_i += di
        shift_j += dj
        work.append([p.scale_by_monomial(-di, -dj) for p in row])
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if not work[k][k]:
            pivot_row = next((r for r in range(k + 1, n) if work[r][k]), None)
            if pivot_row is None:
                return LaurentPoly()
            work[k], work[pivot_row] = work[pivot_row], work[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = work[i][j] * work[k][k] - work[i][k] * work[k][j]
                work[i][j] = num.divide_exact(prev)
            work[i][k] = LaurentPoly()
        prev = work[k][k]
    det = work[n - 1][n - 1]
    if sign < 0:
        det = -det
    return det.scale_by_monomial(shift_i, shift_j)


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
