"""Exact references that only the tests use.

``bareiss_determinant`` is a fraction-free elimination over Z[s, t], slow and
independent of ``laurent.determinant``'s evaluation mod primes; its exact
division is ``divide_exact``.
"""

from heapq import heapify, heappop, heappush

from biquandles.laurent import ONE, LaurentMatrix, LaurentPoly


def divide_exact(num: LaurentPoly, divisor: LaurentPoly) -> LaurentPoly:
    """Exact division, raising ArithmeticError when the quotient is not polynomial.

    Both operands are shifted to plain polynomials first, then reduced by
    the divisor's lexicographically largest term. Leading terms multiply,
    so every step strictly shrinks the remainder's leading term and an
    exact quotient is found whenever one exists. The remainder is one
    dict updated in place, and a heap of its exponents (stale entries are
    skipped) finds the leading term, so a step costs the divisor's size.
    """
    if not divisor.terms:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num.terms:
        return LaurentPoly()
    si, sj = num.min_degrees()
    di, dj = divisor.min_degrees()
    rem = {(i - si, j - sj): c for (i, j), c in num.terms.items()}
    den = [((i - di, j - dj), c) for (i, j), c in divisor.terms.items()]
    lead, lead_c = max(den)
    heap = [(-i, -j) for i, j in rem]
    heapify(heap)
    quo: dict[tuple[int, int], int] = {}
    while rem:
        ni, nj = heappop(heap)
        top = (-ni, -nj)
        if top not in rem:
            continue
        top_c = rem[top]
        qi, qj = top[0] - lead[0], top[1] - lead[1]
        if qi < 0 or qj < 0 or top_c % lead_c:
            raise ArithmeticError("inexact polynomial division")
        qc = top_c // lead_c
        quo[(qi, qj)] = qc
        for (i, j), c in den:
            key = (i + qi, j + qj)
            old = rem.get(key)
            if old is None:
                rem[key] = -qc * c
                heappush(heap, (-key[0], -key[1]))
            elif old == qc * c:
                del rem[key]
            else:
                rem[key] = old - qc * c
    return LaurentPoly(quo).scale_by_monomial(si - di, sj - dj)


def bareiss_determinant(m: LaurentMatrix) -> LaurentPoly:
    """Exact determinant via fraction-free elimination over Z[s, t].

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
                work[i][j] = divide_exact(num, prev)
            work[i][k] = LaurentPoly()
        prev = work[k][k]
    det = work[n - 1][n - 1]
    if sign < 0:
        det = -det
    return det.scale_by_monomial(shift_i, shift_j)
