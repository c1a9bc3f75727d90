"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

1. Each oracle accepts the real output and rejects a corrupted one: a
   perturbed polynomial coefficient, a rank off by one, a flipped axiom
   verdict, and a wrong counterexample.
2. A traced item runs cli.main itself and restores the names it wraps.
3. A tiny smoke run of every workload, untraced and traced, prints every
   metric name that BENCHMARK.json lists, plus fail_ratio, and BENCHMARK.json
   names the workloads this directory defines, with the same reasons.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402  (puts the checkout's src/ on sys.path)
import traced  # noqa: E402
from workloads import WORKLOADS, axioms_items, present_qcheck_items, random_word  # noqa: E402

RUNS_DIR = os.path.join(run.ROOT, ".perfbench_runs")
FAILURES = []


def expect(condition: bool, what: str) -> None:
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        FAILURES.append(what)


def perturb_first_coefficient(text: str) -> str:
    """Add one to the first coefficient of a printed polynomial."""
    m = re.match(r"^(-?)(\d+)(?=\*|$| )", text)
    if m:
        return f"{m.group(1)}{int(m.group(2)) + 1}" + text[m.end():]
    sign = "-" if text.startswith("-") else ""
    return f"{sign}2*" + text[len(sign):]


def check_gap_oracle() -> None:
    rng = random.Random(1)
    for n, length in ((4, 30), (5, 12), (2, 2)):
        word = random_word(rng, n, length).word
        code, out = worker.untraced_call(["gap", "--braid", word])
        expect(code == 0 and oracle.check_gap(word, out, random.Random(0)) is None,
               f"gap oracle accepts the real gap of {word!r}")
        if out.strip() == "0":
            bad = "1\n"
        else:
            bad = perturb_first_coefficient(out.strip()) + "\n"
        expect(oracle.check_gap(word, bad, random.Random(0)) is not None,
               f"gap oracle rejects {bad.strip()!r} for {out.strip()!r}")
    word = "n=2; v1 s1"
    expect(oracle.check_gap(word, "1 - s - t + s*t\n", random.Random(0)) is None,
           "gap oracle accepts the documented 1 - s - t + s*t")
    expect(oracle.check_gap(word, "1 - s - t + 2*s*t\n", random.Random(0)) is not None,
           "gap oracle rejects 1 - s - t + 2*s*t")
    expect(oracle.check_gap(word, "-1 + s + t - s*t\n", random.Random(0)) is not None,
           "gap oracle rejects a non-normalized sign")


def check_qcheck_oracle() -> None:
    with tempfile.TemporaryDirectory(dir=RUNS_DIR) as tmp:
        for item in itertools.islice(present_qcheck_items(random.Random(2), tmp), 3):
            word = item.word
            outs = [text for _, text in worker.run_item("present-qcheck", item, worker.untraced_call, tmp)]
            _, braid_gap = worker.untraced_call(["gap", "--braid", word])
            good = oracle.check_present_qcheck(word, outs[0], outs[1], braid_gap, outs[2], random.Random(0))
            expect(good is None, f"qcheck oracle accepts the real outputs of {word!r} ({outs[2].strip()})")
            m = re.match(r"^(\w+) \(rank (\d+) of (\d+), dim (\d+)\)$", outs[2].strip())
            verdict, rank, total, dim = m.group(1), int(m.group(2)), int(m.group(3)), int(m.group(4))
            step = 1 if rank < total else -1
            bad = f"{verdict} (rank {rank + step} of {total}, dim {dim - step})\n"
            reason = oracle.check_present_qcheck(word, outs[0], outs[1], braid_gap, bad, random.Random(0))
            expect(reason is not None, f"qcheck oracle rejects a rank off by one: {bad.strip()!r}")


def _not_a_counterexample(tables: dict, labels: list[str], line: str) -> str:
    """The line's axiom with a tuple that satisfies it, in the same format."""
    name, ce = re.match(r"^(\S+): fail \[counterexample (.*)\]$", line).groups()
    arrays = tuple(np.asarray(tables[op]) for op in ("ur", "lr", "ul", "ll"))
    index = {label: k for k, label in enumerate(labels)}
    suffix = ce[ce.index(" ("):] if " (" in ce else ""
    arity = ce.count("=")
    for values in zip(*(random.Random(3).sample(labels, len(labels)) for _ in range(arity))):
        candidate = " ".join(f"{var}={v}" for var, v in zip("abc", values)) + suffix
        if oracle._refute(name, candidate, arrays, index) is not None:
            return f"{name}: fail [counterexample {candidate}]"
    raise AssertionError(f"every tuple is a counterexample to {name}")


def check_axioms_oracle() -> None:
    q3, q3_labels = oracle.quaternionic_tables(3), [oracle.quaternion_label(k, 3) for k in range(81)]
    q3_arrays = tuple(np.asarray(q3[op]) for op in ("ur", "lr", "ul", "ll"))
    expect({name for name, passed in oracle.verdicts(q3_arrays).items() if not passed}
           == oracle.QUATERNIONIC_3_FAILS, "recomputed p=3 quaternionic verdicts match the known ones")
    with tempfile.TemporaryDirectory(dir=RUNS_DIR) as tmp:
        seen = set()
        # Items share one table file, so each runs before the next is drawn.
        for item in axioms_items(random.Random(4), tmp):
            kind = "quaternionic" if item.path is None else ("corrupted" if item.corrupted else "clean")
            if kind in seen:
                continue
            seen.add(kind)
            tables, labels = (q3, q3_labels) if item.path is None else (item.tables, [str(k) for k in range(item.size)])
            check_axioms_item(item, tables, labels, tmp)
            if len(seen) == 3:
                break


def check_axioms_item(item, tables: dict, labels: list[str], tmp: str) -> None:
    _, out = worker.run_item("axioms", item, worker.untraced_call, tmp)[0]
    lines = out.splitlines()

    def rejects(text: str) -> bool:
        return oracle.check_axioms(tables, labels, item.corrupted, item.path is None, text) is not None

    expect(not rejects(out), f"axioms oracle accepts the real report on {item.label}")
    # Flip each verdict in turn: pass -> fail with a made-up counterexample, fail -> pass.
    for k, line in enumerate(lines):
        name = line.split(":")[0]
        flipped = f"{name}: pass" if ": fail" in line else f"{name}: fail [counterexample a={labels[0]}]"
        expect(rejects("\n".join(lines[:k] + [flipped] + lines[k + 1:]) + "\n"),
               f"axioms oracle rejects a flipped {name} verdict on {item.label}")
    fails = [k for k, line in enumerate(lines) if ": fail" in line]
    if fails:
        k = fails[0]
        wrong = _not_a_counterexample(tables, labels, lines[k])
        expect(rejects("\n".join(lines[:k] + [wrong] + lines[k + 1:]) + "\n"),
               f"axioms oracle rejects a wrong counterexample on {item.label}: {wrong!r}")


def check_tracing() -> None:
    """A traced item runs cli.main itself, times every layer call of gap, and
    leaves the library's names as it found them."""
    argv = ["gap", "--braid", "n=3; s1 -s2 v1 s2"]
    before = {(owner, attr): getattr(owner, attr) for owner, attr, _, _ in traced.TRACED}
    rec = traced.Recorder()
    rec.begin_item(0)
    got = rec.main(argv)
    rec.end_item(0.0)
    expect(got == worker.untraced_call(argv), "traced gap prints what cli.main prints")
    wanted = ("cli.main", "braids.parse_braid_word", "alexander.relation_matrix_from_braid",
              "laurent.determinant", "alexander.normalize_gap", "laurent.format_poly")
    expect(all(rec.calls[name] == 1 for name in wanted) and sum(rec.calls.values()) == len(wanted),
           f"traced gap records one call each of {', '.join(wanted)}")
    expect(all(getattr(owner, attr) is fn for (owner, attr), fn in before.items()),
           "tracing restores every wrapped name")


def check_smoke_runs() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expect({w["name"]: w["why"] for w in spec["workloads"]} == {w.name: w.why for w in WORKLOADS.values()},
           "BENCHMARK.json lists this directory's workloads with their reasons")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in WORKLOADS:
        for trace, wanted in ((False, e2e), (True, layers)):
            final, lines = run.run_benchmark(name, seed=5, seconds=0, trace=trace, min_items=3, setup_samples=1)
            got = {k: v["unit"] for k, v in final["metrics"].items()}
            printed = {line.split(" = ")[0] for line in lines if " = " in line}
            expect(final["correct"] and got == wanted and set(wanted) | {"fail_ratio"} <= printed,
                   f"smoke run of {name} (trace {int(trace)}) prints every metric of BENCHMARK.json")


def main() -> int:
    os.makedirs(RUNS_DIR, exist_ok=True)
    check_gap_oracle()
    check_qcheck_oracle()
    check_axioms_oracle()
    check_tracing()
    check_smoke_runs()
    print(f"{len(FAILURES)} self-check(s) failed" if FAILURES else "all self-checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
