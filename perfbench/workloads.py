"""Seeded inputs for the benchmark workloads.

Every input is drawn from ``random.Random(seed)`` by code in this file. The
library is never called here (not ``random_braid``, not the table builders),
so a change to the library cannot change what a workload feeds it.

Shapes (strand count ``n``, word length ``L``, carrier size ``m``) are not
drawn at random: item ``k`` takes shape ``k`` of a fixed cycle that covers the
stated range evenly. Only the letters, units and corruptions are random. The
cost of an item depends mostly on its shape, so stratifying shapes keeps the
spread between seeds small while every seed still sees new words and tables.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass

OPS = ("ur", "lr", "ul", "ll")


@dataclass(frozen=True)
class BraidItem:
    """One braid word, as the text the command line receives."""

    word: str
    strands: int
    letters: int


@dataclass(frozen=True)
class TableItem:
    """One finite table: a table file (``path``) or ``--quaternionic 3`` (no path).

    ``tables`` holds the four operation tables as lists of rows, for the
    oracle; it is None for the quaternionic item, whose tables the oracle
    builds itself.
    """

    path: str | None
    size: int
    tables: dict | None
    corrupted: bool
    label: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "gap", "present-qcheck" or "axioms"
    make_items: Callable[[random.Random, str], Iterator]


def random_word(rng: random.Random, n: int, length: int) -> BraidItem:
    """Random letters over s_i, -s_i, v_i with 1 <= i <= n-1, exactly
    round(2L/3) of them classical (the expected share of uniform letters).

    Term sizes and determinant degrees grow with the classical letters;
    uniform letters make that count vary, and with it the cost of an item
    by up to 100x at one shape, so a few items would decide a run's numbers.
    """
    classical = round(2 * length / 3)
    kinds = ["c"] * classical + ["v"] * (length - classical)
    rng.shuffle(kinds)
    letters = [
        (rng.choice(("s{}", "-s{}")) if kind == "c" else "v{}").format(rng.randint(1, n - 1))
        for kind in kinds
    ]
    return BraidItem(f"n={n}; " + " ".join(letters), n, length)


def chain_word(rng: random.Random, n: int) -> BraidItem:
    """Every index 1..n-1 once plus 1..n//4 extra letters, in random order;
    each letter is virtual with probability 2/3, else s_i or -s_i.

    Each strand meets a crossing, so no row of the relation matrix is zero
    for free, while the word stays about 1-1.25 letters per strand: the
    n x n matrix products dominate. Mostly virtual letters keep the entries,
    and so the determinant, small; with uniform letters some determinants
    take seconds and the workload stops isolating the matrix build.
    """
    indices = list(range(1, n)) + [rng.randint(1, n - 1) for _ in range(rng.randint(1, n // 4))]
    rng.shuffle(indices)
    letters = [f"v{i}" if rng.random() < 2 / 3 else rng.choice(("s{}", "-s{}")).format(i) for i in indices]
    return BraidItem(f"n={n}; " + " ".join(letters), n, len(indices))


def _shape_cycle(rng_for_order: random.Random, *ranges) -> list[tuple[int, ...]]:
    shapes = list(itertools.product(*ranges))
    rng_for_order.shuffle(shapes)
    return shapes


def gap_dense_items(rng: random.Random, tmpdir: str):
    shapes = _shape_cycle(random.Random(0), range(4, 7), range(30, 46))
    for k in itertools.count():
        n, length = shapes[k % len(shapes)]
        yield random_word(rng, n, length)


def gap_wide_items(rng: random.Random, tmpdir: str):
    shapes = _shape_cycle(random.Random(0), range(12, 21))
    for k in itertools.count():
        (n,) = shapes[k % len(shapes)]
        yield chain_word(rng, n)


def present_qcheck_items(rng: random.Random, tmpdir: str):
    shapes = _shape_cycle(random.Random(0), range(3, 6), range(12, 23))
    for k in itertools.count():
        n, length = shapes[k % len(shapes)]
        yield random_word(rng, n, length)


# Carrier sizes of the axioms workload: twelve evenly spaced sizes, 31..97.
AXIOM_SIZES = tuple(31 + round(66 * k / 11) for k in range(12))


def linear_tables(m: int, s: int, t: int) -> dict:
    """Alexander tables on Z_m: ur=t*a+(1-s*t)*b, lr=s*a, and their inverses."""
    si, ti = pow(s, -1, m), pow(t, -1, m)
    rng_m = range(m)
    return {
        "ur": [[(t * a + (1 - s * t) * b) % m for b in rng_m] for a in rng_m],
        "lr": [[(s * a) % m for _ in rng_m] for a in rng_m],
        "ul": [[(ti * a + (1 - si * ti) * b) % m for b in rng_m] for a in rng_m],
        "ll": [[(si * a) % m for _ in rng_m] for a in rng_m],
    }


def render_tables(tables: dict) -> str:
    m = len(tables["ur"])
    lines = [f"size {m}"]
    for op in OPS:
        lines.append(op)
        lines.extend(" ".join(map(str, row)) for row in tables[op])
    return "\n".join(lines) + "\n"


def _random_unit(rng: random.Random, m: int) -> int:
    while True:
        u = rng.randrange(1, m)
        if math.gcd(u, m) == 1:
            return u


def axioms_items(rng: random.Random, tmpdir: str):
    """A cycle of 25 slots: per size one clean linear table and one with a
    single entry changed, plus ``--quaternionic 3``. Every table slot draws
    fresh units s, t (and a fresh corruption), so no table repeats; each is
    written to the same file, which the item reads before the next is drawn.
    """
    slots = [(m, corrupted) for m in AXIOM_SIZES for corrupted in (False, True)] + [None]
    random.Random(0).shuffle(slots)
    path = os.path.join(tmpdir, "tables.txt")
    for k in itertools.count():
        slot = slots[k % len(slots)]
        if slot is None:
            yield TableItem(None, 81, None, False, "quaternionic p=3")
            continue
        m, corrupted = slot
        s, t = _random_unit(rng, m), _random_unit(rng, m)
        tables = linear_tables(m, s, t)
        label = f"m={m} s={s} t={t}"
        if corrupted:
            op, a, b = rng.choice(OPS), rng.randrange(m), rng.randrange(m)
            tables[op][a][b] = (tables[op][a][b] + rng.randrange(1, m)) % m
            label += f" corrupt {op}[{a}][{b}]"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_tables(tables))
        yield TableItem(path, m, tables, corrupted, label)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gap-dense",
            "gap --braid on random words, n 4-6, L 30-45, 2/3 classical: time is in "
            "laurent.determinant, so determinant work shows here",
            "gap",
            gap_dense_items,
        ),
        Workload(
            "gap-wide",
            "gap --braid on chain words through every strand, n 12-20, 1-1.25 letters per strand, "
            "2/3 virtual: time is in relation_matrix_from_braid, the determinant is small",
            "gap",
            gap_wide_items,
        ),
        Workload(
            "present-qcheck",
            "present, then gap and qcheck --prime 3 on the written file, n 3-5, L 12-22, 2/3 "
            "classical: time is in parse_presentation and quaternion linearization",
            "present-qcheck",
            present_qcheck_items,
        ),
        Workload(
            "axioms",
            "axioms --tables on linear tables, m 31-97, clean and with one corrupted entry, plus "
            "--quaternionic 3: full sweeps and early exits of check_axioms",
            "axioms",
            axioms_items,
        ),
    )
}
