"""The biquandles benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload gap-dense --seed 1 --seconds 28 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` of the
checkout this file sits in. The run

1. times ``setup_s``: SETUP_SAMPLES fresh interpreters each import
   ``biquandles.cli`` and build its argument parser, half of them before
   step 2 and half after, so that the median spans the whole run;
2. runs the workload in one more fresh interpreter (worker.py): seeded
   inputs, a closed loop with one caller for --seconds seconds and at least
   MIN_ITEMS items, every output checked by an independent oracle;
3. scales setup and item times to reference speed (see REFERENCE_S) and
   prints every metric by name and unit, then, as its last line, one JSON
   object with the end-to-end metrics (--trace 0) or the per-layer metrics
   of the traced run (--trace 1).

It exits 1 when an oracle rejects an output or the traced stdout differs
from the untraced one, and 2 when the run cannot start. The traced run also
writes one JSON line per traced item, tagged with its sizes, to
``.perfbench_runs/trace-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

LAYERS = ("cli", "braids", "laurent", "alexander", "terms", "quaternion", "finite")

# Every function span traced.py records, by metric name.
FUNCTIONS = (
    "braids.parse_braid_word",
    "alexander.relation_matrix_from_braid",
    "alexander.relation_matrix_from_presentation",
    "alexander.normalize_gap",
    "laurent.determinant",
    "laurent.format_poly",
    "terms.presentation_from_braid",
    "terms.BQPresentation.render",
    "terms.parse_presentation",
    "quaternion.q_relations_from_presentation",
    "quaternion.module_is_trivial",
    "finite.parse_table_file",
    "finite.finite_quaternionic_biquandle",
    "finite.check_axioms",
)

# Work counts traced.py records at the same boundaries, reported per traced item.
COUNTS = (
    "braids.letters",
    "braids.strands",
    "alexander.matrix_cells",
    "laurent.det_dim",
    "laurent.det_terms",
    "laurent.det_coeff_bits",
    "terms.rendered_bytes",
    "quaternion.rank_rows",
    "finite.cells",
    "finite.axioms_failed",
)


SETUP_SAMPLES = 10
# p90 needs ten items beyond it; traced runs need enough items for shares.
MIN_ITEMS = 100
MIN_TRACED_ITEMS = 20
WORKER_TIMEOUT_S = 160

# Setup and item times are reported at reference speed: each time is scaled
# by REFERENCE_S over the time of reference.reference_task run right before
# and right after it (mean of the two), i.e. to a machine on which that task
# takes REFERENCE_S. On a shared 2-vCPU virtual machine the same items ran
# up to 40% slower from one pass to the next, in bursts shorter than a run;
# the bracketing reference slows with them, so the ratio stays steady where
# raw times and run-wide corrections do not.
REFERENCE_S = 0.0006

# Import-and-build time of a fresh interpreter, bracketed by the reference
# task (best of three before and after) so that it can be scaled like items.
SETUP_PROBE = (
    "import sys, time\n"
    f"sys.path.insert(0, {HERE!r})\n"
    "from reference import time_reference\n"
    "before = min(time_reference() for _ in range(3))\n"
    "t0 = time.perf_counter()\n"
    "import biquandles.cli\n"
    "biquandles.cli.build_parser()\n"
    "t1 = time.perf_counter()\n"
    "after = min(time_reference() for _ in range(3))\n"
    "print(t1 - t0, (before + after) / 2, biquandles.cli.__file__)\n"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def measure_setup(samples: int, warm_up: bool) -> list[tuple[float, float]]:
    """(import-and-build time, reference time) of fresh interpreters. A
    warm-up probe, which may write bytecode caches, is not counted."""
    times = []
    for k in range(samples + warm_up):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        seconds, reference, path = proc.stdout.split(maxsplit=2)
        if not os.path.abspath(path.strip()).startswith(os.path.join(ROOT, "src")):
            raise RuntimeError(f"setup probe imported {path.strip()}, not the checkout's src/")
        if k or not warm_up:
            times.append((float(seconds), float(reference)))
    return times


def run_worker(workload: str, seed: int, seconds: float, trace: bool, min_items: int, tmpdir: str) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--min-items", str(min_items), "--tmpdir", tmpdir,
    ]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def at_reference_speed(latencies, reference) -> list[float]:
    """Scale each time to a machine where reference.reference_task takes REFERENCE_S."""
    return [latency * REFERENCE_S / ref for latency, ref in zip(latencies, reference)]


def item_metrics(lat: list[float]) -> tuple[float, float, float]:
    """(items_per_s, item_p50_ms, item_p90_ms) of a list of latencies."""
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
    return len(lat) / sum(lat), 1000 * statistics.median(lat), 1000 * p90


def end_to_end(setup: list[tuple[float, float]], result: dict) -> dict:
    lat = at_reference_speed(result["latencies_s"], result["reference_s"])
    items_per_s, p50, p90 = item_metrics(lat)
    return {
        "setup_s": statistics.median(at_reference_speed(*zip(*setup))),
        "items_per_s": items_per_s,
        "item_p50_ms": p50,
        "item_p90_ms": p90,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }


def per_layer(result: dict) -> dict[str, tuple[float, str]]:
    tr = result["trace"]
    total = sum(result["traced_latencies_s"])
    items = len(result["traced_latencies_s"])
    out = {}
    for name in FUNCTIONS:
        busy = tr["busy_s"].get(name, 0.0)
        out[f"{name}.busy_s"] = (busy, "s")
        out[f"{name}.calls"] = (tr["calls"].get(name, 0), "count")
        out[f"{name}.share"] = (busy / total, "ratio")
    out["cli.main.self_s"] = (tr["cli_self_s"], "s")
    out["cli.main.share"] = (tr["cli_self_s"] / total, "ratio")
    for name in COUNTS:
        out[name] = (tr["counts"].get(name, 0) / items, "count/item")
    for layer in LAYERS:
        out[f"{layer}.errors"] = (tr["errors"].get(layer, 0), "count")
    out["trace.overhead"] = (
        statistics.median(result["traced_latencies_s"]) / statistics.median(result["latencies_s"]),
        "ratio",
    )
    return out


def scaling_lines(items: list[dict]) -> list[str]:
    """Median span time per size, for the spans whose scaling aim 1 tracks."""
    lines = []
    for span, tag in (
        ("laurent.determinant", "n"),
        ("laurent.determinant", "L"),
        ("alexander.relation_matrix_from_braid", "n"),
        ("alexander.relation_matrix_from_braid", "L"),
        ("terms.parse_presentation", "L"),
        ("finite.check_axioms", "carrier"),
    ):
        groups: dict[int, list[float]] = {}
        for item in items:
            if tag not in item:
                continue
            times = [end - start for name, start, end in item["spans"] if name == span]
            if times:
                groups.setdefault(item[tag], []).append(sum(times))
        if groups:
            cells = " ".join(
                f"{size}:{1000 * statistics.median(ts):.2f}" for size, ts in sorted(groups.items())
            )
            lines.append(f"scaling {span} by {tag} (median ms): {cells}")
    return lines


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  min_items: int | None = None, setup_samples: int = SETUP_SAMPLES) -> tuple[dict, list[str]]:
    """Returns (final JSON object, human-readable lines)."""
    if min_items is None:
        min_items = MIN_TRACED_ITEMS if trace else MIN_ITEMS
    runs_dir = os.path.join(ROOT, ".perfbench_runs")
    os.makedirs(runs_dir, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="tmp-", dir=runs_dir)
    try:
        setup = measure_setup(setup_samples // 2, warm_up=True)
        result = run_worker(workload, seed, seconds, trace, min_items, tmpdir)
        setup += measure_setup(setup_samples - setup_samples // 2, warm_up=False)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    lines = [
        f"workload {workload} seed {seed}: {WORKLOADS[workload].why}",
        f"env: python {result['python']}, numpy {result['numpy']}, nproc {os.cpu_count()}, "
        f"OMP/OPENBLAS/MKL threads 1, library {result['library']}",
        f"loop: closed, 1 caller, 1 thread; {attempted} items, {len(result['latencies_s'])} timed "
        f"untraced, setup over {len(setup)} fresh interpreters",
        f"stdout sha256 of the first {result['digest_items']} items: {result['stdout_sha256_first']}",
        f"stdout sha256 of all {attempted} items: {result['stdout_sha256_all']}",
    ]
    e2e = end_to_end(setup, result)
    lines += [f"{name} = {value:.6g} {END_TO_END_UNITS[name]}" for name, value in e2e.items()]
    lines.append(f"fail_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted})")
    wall = item_metrics(result["latencies_s"])
    lines.append(
        f"wall clock, unscaled: setup_s {statistics.median(t for t, _ in setup):.6g} s, "
        f"items_per_s {wall[0]:.6g} 1/s, item_p50_ms {wall[1]:.6g} ms, item_p90_ms {wall[2]:.6g} ms; "
        f"reference task median {1000 * statistics.median(result['reference_s']):.4g} ms "
        f"(scaled to {1000 * REFERENCE_S:g} ms)"
    )
    for failure in result["failures"]:
        lines.append(f"FAILED {failure['input']!r}: {failure['reason']}")
    if trace:
        layers = per_layer(result)
        lines += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in layers.items()]
        lines += scaling_lines(result["trace"]["items"])
        path = os.path.join(runs_dir, f"trace-{workload}-seed{seed}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for item in result["trace"]["items"]:
                fh.write(json.dumps(item) + "\n")
        lines.append(f"trace: {len(result['trace']['items'])} items written to {os.path.relpath(path, ROOT)}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in e2e.items()}
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return final, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "biquandles", "cli.py")):
        print(f"error: no library source at {os.path.join(ROOT, 'src', 'biquandles')}", file=sys.stderr)
        return 2
    try:
        final, lines = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
