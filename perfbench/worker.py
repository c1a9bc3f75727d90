"""One workload in one fresh interpreter: the closed loop the benchmark times.

Started by run.py, never by hand. One caller, one thread: each item starts
when the previous one has returned. An item is one or more command lines run
in-process through ``biquandles.cli.main(argv)`` with stdout captured. The
oracle checks every item between items, outside the timed region. The
reference task is timed right before and right after every untraced item,
so that run.py can scale the item's time to reference speed.

With --trace 1 every item runs twice through cli.main, untraced and traced
(traced.Recorder.main), in alternating order; both stdouts must be
byte-identical. Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402

import biquandles  # noqa: E402
from biquandles import cli  # noqa: E402

import oracle  # noqa: E402
import traced  # noqa: E402
from reference import time_reference  # noqa: E402
from workloads import WORKLOADS, BraidItem  # noqa: E402

# Items whose stdout goes into the run's digest: the first ones, which every
# run of a seed completes, so runs of one seed can be compared byte for byte.
DIGEST_ITEMS = 100


def untraced_call(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def run_item(kind: str, item, call, tmpdir: str) -> list[tuple[int, str]]:
    """The item's command lines, in order; returns (exit code, stdout) of each."""
    if kind == "gap":
        return [call(["gap", "--braid", item.word])]
    if kind == "present-qcheck":
        results = [call(["present", "--braid", item.word])]
        path = os.path.join(tmpdir, "presentation.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(results[0][1])
        results.append(call(["gap", "--presentation", path]))
        results.append(call(["qcheck", "--presentation", path, "--prime", "3"]))
        return results
    argv = ["axioms", "--tables", item.path] if item.path else ["axioms", "--quaternionic", "3"]
    return [call(argv)]


class Checker:
    """Applies the workload's oracle to one item's results."""

    def __init__(self, kind: str, seed: int):
        self.kind = kind
        self.rng = random.Random(f"oracle-{seed}")
        if kind == "axioms":
            self.q3 = oracle.quaternionic_tables(3)
            self.q3_labels = [oracle.quaternion_label(k, 3) for k in range(81)]

    def __call__(self, item, results) -> str | None:
        bad = [code for code, _ in results if code != 0]
        if bad:
            return f"exit code {bad[0]}"
        outs = [text for _, text in results]
        if self.kind == "gap":
            return oracle.check_gap(item.word, outs[0], self.rng)
        if self.kind == "present-qcheck":
            braid_code, braid_gap = untraced_call(["gap", "--braid", item.word])
            if braid_code != 0:
                return f"gap --braid exit code {braid_code}"
            return oracle.check_present_qcheck(item.word, outs[0], outs[1], braid_gap, outs[2], self.rng)
        if item.path is None:
            return oracle.check_axioms(self.q3, self.q3_labels, False, True, outs[0])
        labels = [str(k) for k in range(item.size)]
        return oracle.check_axioms(item.tables, labels, item.corrupted, False, outs[0])


def describe(item) -> str:
    return item.word if isinstance(item, BraidItem) else item.label


def measure(workload: str, seed: int, seconds: float, trace: bool, min_items: int, tmpdir: str) -> dict:
    spec = WORKLOADS[workload]
    items = spec.make_items(random.Random(seed), tmpdir)
    check = Checker(spec.kind, seed)
    rec = None

    def call_traced(argv):
        return rec.main(argv)

    first = next(items)
    run_item(spec.kind, first, untraced_call, tmpdir)  # warm-up, not counted
    if trace:
        rec = traced.Recorder()
        rec.begin_item(-1)
        run_item(spec.kind, first, call_traced, tmpdir)  # warm-up, not counted
        rec = traced.Recorder()

    latencies, traced_latencies, reference, failures = [], [], [], []
    digest, digest_all = hashlib.sha256(), hashlib.sha256()
    attempted = 0
    start = time.perf_counter()
    for k, item in enumerate(itertools.chain([first], items)):
        if k >= min_items and time.perf_counter() - start >= seconds:
            break
        attempted += 1
        order = ((False, True) if k % 2 == 0 else (True, False)) if trace else (False,)
        results, errors = {}, []
        for is_traced in order:
            if is_traced:
                rec.begin_item(k)
            else:
                before = time_reference()
            t0 = time.perf_counter()
            try:
                results[is_traced] = run_item(spec.kind, item, call_traced if is_traced else untraced_call, tmpdir)
            except Exception as e:  # an item that raises is a failed item, not a crashed run
                results[is_traced] = None
                errors.append(f"{type(e).__name__}: {e}")
            elapsed = time.perf_counter() - t0
            if is_traced:
                rec.end_item(elapsed)
                traced_latencies.append(elapsed)
            else:
                latencies.append(elapsed)
                reference.append((before + time_reference()) / 2)
        reason = errors[0] if errors else None
        if reason is None and trace and results[True] != results[False]:
            reason = "traced stdout differs from cli.main stdout"
        if reason is None:
            reason = check(item, results[False])
        if results[False] is not None:
            data = "".join(text for _, text in results[False]).encode()
            digest_all.update(data)
            if k < DIGEST_ITEMS:
                digest.update(data)
        if reason is not None:
            failures.append({"input": describe(item), "reason": reason})
    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "latencies_s": latencies,
        "reference_s": reference,
        "stdout_sha256_first": digest.hexdigest(),
        "stdout_sha256_all": digest_all.hexdigest(),
        "digest_items": min(attempted, DIGEST_ITEMS),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "library": os.path.dirname(biquandles.__file__),
    }
    if trace:
        result["traced_latencies_s"] = traced_latencies
        result["trace"] = {
            "busy_s": dict(rec.busy),
            "calls": dict(rec.calls),
            "errors": dict(rec.errors),
            "counts": dict(rec.counts),
            "cli_self_s": rec.cli_self,
            "items": rec.items,
        }
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--min-items", required=True, type=int)
    parser.add_argument("--tmpdir", required=True)
    args = parser.parse_args()
    if not os.path.dirname(biquandles.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"error: imported biquandles from {biquandles.__file__}, not from {ROOT}/src", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.min_items, args.tmpdir)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
