"""The two-variable Alexander invariant of virtual knot closures.

Crossings act linearly on strand labels over the Laurent ring Z[s^±1, t^±1];
the determinant of the resulting relation matrix, normalized up to units, is
an invariant of the braid closure. Every matrix is ``terms.linearize`` with
``OP_COEFFS`` applied to terms: relations, or a braid's term images under
``braid_act_up``/``braid_act_down`` (the one upward fold), so the term
morphisms state each crossing. A braid closure's relation matrix is M - I
for M = ``braid_matrix_up(w)``.
"""

from __future__ import annotations

from .braids import BraidWord
from .errors import DomainError
from .laurent import MAX_MATRIX_CELLS, ONE, S, T, ZERO, LaurentMatrix, LaurentPoly, determinant, format_poly
from .terms import BQPresentation, BQTerm, braid_act_down, braid_act_up, generator_names
from .terms import linearize, linearize_relations, switch_rules

_S_INV = LaurentPoly.monomial(1, -1, 0)
_T_INV = LaurentPoly.monomial(1, 0, -1)
_ST_INV = LaurentPoly.monomial(1, -1, -1)

# The printed 2x2 crossing matrices. A and B, the positive upward crossing
# and its inverse, give ``OP_COEFFS``; tests check the rest against the
# linearized term morphisms.
_CROSSING_MATRICES = {
    "A": ((ONE - S * T, T), (S, ZERO)),
    "B": ((ZERO, _S_INV), (_T_INV, ONE - _ST_INV)),
    # Mixed-variable pair used by the horizontal-mirror symmetry.
    "C": ((ZERO, _S_INV), (T, _S_INV - T)),
    "D": ((ZERO, S), (_T_INV, S - _T_INV)),
    # Virtual crossing: plain swap.
    "V": ((ZERO, ONE), (ONE, ZERO)),
}
# Each hat partner is the strand swap ((d, c), (b, a)) of ((a, b), (c, d)).
_CROSSING_MATRICES.update(
    {name + "hat": ((d, c), (b, a)) for name, ((a, b), (c, d)) in _CROSSING_MATRICES.items() if name != "V"}
)


def crossing_matrix(name: str) -> LaurentMatrix:
    """The 2x2 label action of a single crossing, by conventional name."""
    try:
        m = _CROSSING_MATRICES[name]
    except KeyError:
        raise ValueError(f"unknown crossing matrix {name!r}") from None
    return LaurentMatrix([list(row) for row in m])


def block_at(m2: LaurentMatrix, n: int, start: int) -> LaurentMatrix:
    """Embed a 2x2 matrix into the n x n identity at rows/cols start, start+1."""
    if not 0 <= start <= n - 2:
        raise ValueError(f"block start {start} out of range for size {n}")
    out = LaurentMatrix.identity(n)
    for di in range(2):
        for dj in range(2):
            out.entries[start + di][start + dj] = m2.entries[di][dj]
    return out


OP_COEFFS = switch_rules(_CROSSING_MATRICES["A"], _CROSSING_MATRICES["B"])


def _check_matrix_cells(rows: int, cols: int) -> None:
    cells = rows * cols
    if cells > MAX_MATRIX_CELLS:
        raise DomainError(f"matrix would have {rows}x{cols} = {cells} cells, above the limit of 2^24")


def _linear_rows(names: list[str], rows: list[dict]) -> LaurentMatrix:
    """One matrix row per coefficient dict. Cells are shared objects (``ZERO``,
    and ``linearize``'s ``ONE`` and ``OP_COEFFS`` entries): a caller may put a
    new polynomial in a cell's slot, but may not change a cell's terms in place."""
    return LaurentMatrix([[coeffs.get(name, ZERO) for name in names] for coeffs in rows])


def _braid_matrix(w: BraidWord, braid_act) -> LaurentMatrix:
    _check_matrix_cells(w.strands, w.strands)
    names = generator_names(w.strands)
    image = braid_act(w, tuple(BQTerm.gen(name) for name in names))
    return _linear_rows(names, [linearize([(t, ONE)], OP_COEFFS) for t in image])


def braid_matrix_up(w: BraidWord) -> LaurentMatrix:
    """Linearized upward action of the whole word on strand labels.

    Row i holds the coefficients of slot i's term under ``braid_act_up``. The
    action is an anti-homomorphism, so each successive letter's block
    multiplies on the left.
    """
    return _braid_matrix(w, braid_act_up)


def braid_matrix_down(w: BraidWord) -> LaurentMatrix:
    """Linearized downward action of the whole word on strand labels.

    Row i holds the coefficients of slot i's term under ``braid_act_down``.
    The downward action is a homomorphism, so blocks multiply on the right;
    positions count from the top strand.
    """
    return _braid_matrix(w, braid_act_down)


def relation_matrix_from_braid(w: BraidWord) -> LaurentMatrix:
    """Closure relations in matrix form, M - I for M = ``braid_matrix_up(w)``:
    closing the braid equates each strand's upward image with its generator."""
    m = braid_matrix_up(w)
    for i, row in enumerate(m.entries):
        row[i] -= ONE
    return m


def relation_matrix_from_presentation(p: BQPresentation) -> LaurentMatrix:
    """Linearize each relation over Z[s^±1, t^±1], lhs - rhs; one row per relation."""
    _check_matrix_cells(len(p.relations), len(p.generators))
    return _linear_rows(p.generators, linearize_relations(p.relations, ONE, OP_COEFFS))


def normalize_gap(p: LaurentPoly) -> LaurentPoly:
    """Canonical representative modulo multiplication by units ±s^i t^j.

    Shift so both minimal degrees are zero, then fix the overall sign by
    making the coefficient of the lexicographically smallest monomial
    positive. The zero polynomial maps to itself.
    """
    if not p.terms:
        return LaurentPoly()
    mi, mj = p.min_degrees()
    shifted = p.scale_by_monomial(-mi, -mj)
    if shifted.terms[min(shifted.terms)] < 0:
        shifted = -shifted
    return shifted


def gap(x) -> LaurentPoly:
    """Normalized generalized Alexander polynomial of a closed braid.

    Accepts a braid word or an already-built presentation. Presentations must
    be square (as many relations as generators).
    """
    if isinstance(x, BraidWord):
        matrix = relation_matrix_from_braid(x)
    elif isinstance(x, BQPresentation):
        if len(x.relations) != len(x.generators):
            raise DomainError(
                f"need a square system, got {len(x.relations)} relations for {len(x.generators)} generators"
            )
        matrix = relation_matrix_from_presentation(x)
    else:
        raise TypeError(f"gap expects a braid word or presentation, got {type(x).__name__}")
    return normalize_gap(determinant(matrix))


def gap_text(x) -> str:
    """Canonical text of the normalized polynomial, for printing and goldens."""
    return format_poly(gap(x))
