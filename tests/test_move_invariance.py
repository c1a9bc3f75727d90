"""Move invariance of the printed invariants beyond ``gap``.

Coloring counts by a finite biquandle that passes every axiom are invariant
under the closure-preserving moves, so they are the oracle here: a count is
the number of points of X^n where every relation of the closure's
presentation holds. The ``qcheck`` dimension is pinned as a known failure:
its quaternionic rules do not form a switch that satisfies Yang–Baxter.
"""

import random

import numpy as np
import pytest

from biquandles.braids import available_moves, random_braid
from biquandles.finite import check_axioms, finite_alexander_biquandle
from biquandles.quaternion import module_is_trivial
from biquandles.terms import _fold, presentation_from_braid


def coloring_count(B, w):
    """Points of X^n, X the carrier of B, where every closure relation holds.

    Each generator is an index grid along its own axis, and each node gathers
    from its operation's table, so one fold evaluates a side at every point.
    """
    pres = presentation_from_braid(w)
    n, m = w.strands, B.size
    grids = {name: np.arange(m).reshape([m if j == k else 1 for j in range(n)]) for k, name in enumerate(pres.generators)}

    def value(t):
        return _fold(t, lambda g: grids[g.name], lambda t, a, b: B.tables[t.op][a, b])

    holds = np.ones([m] * n, dtype=bool)
    for rel in pres.relations:
        holds &= value(rel.lhs) == value(rel.rhs)
    return int(holds.sum())


def _move_trials(count):
    """200 seeded trials: a word on 2 or 3 strands, one move from
    ``available_moves``, and the invariant before and after."""
    out = []
    for seed in range(200):
        rng = random.Random(seed)
        w = random_braid(rng.randint(2, 3), rng.randint(0, 6), seed)
        label, moved = rng.choice(available_moves(w))
        out.append((label, count(w), count(moved)))
    return out


@pytest.mark.parametrize("params", [(5, 2, 3), (7, 3, 2)])
def test_coloring_counts_are_move_invariant(params):
    B = finite_alexander_biquandle(*params)
    assert check_axioms(B).all_pass
    trials = _move_trials(lambda w: coloring_count(B, w))
    changed = [(label, before, after) for label, before, after in trials if before != after]
    assert changed == []
    # The oracle separates words, and the trials cover every move kind.
    assert len({before for _, before, _ in trials}) > 1
    assert {label.split()[0] for label, _, _ in trials} >= {"relator", "conjugate", "stabilize", "free_reduce"}


def test_coloring_count_of_unlinked_strands_is_every_point():
    B = finite_alexander_biquandle(5, 2, 3)
    assert coloring_count(B, random_braid(3, 0, seed=0)) == 5**3


def _qcheck_dim(w):
    return module_is_trivial(presentation_from_braid(w), 3)[1].dim


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the mod-3 qcheck dimension changes in 84 of these 240 move trials: "
    "quaternion.OP_COEFFS is not a switch that satisfies Yang–Baxter",
)
def test_qcheck_dimension_is_move_invariant():
    changes = 0
    for seed in range(60):
        rng = random.Random(seed)
        w = random_braid(3, 6, seed)
        for _ in range(4):
            _, moved = rng.choice(available_moves(w))
            changes += _qcheck_dim(moved) != _qcheck_dim(w)
            w = moved
    assert changes == 0, f"{changes} of 240 trials changed the dimension"
