"""One workload in one process; started by run.py, not by hand.

run.py starts this file with ``PYTHONPATH`` set to the checkout's ``src/``
and ``COEFFSHARP_THREADS`` removed.  The worker imports ``coeffsharp``,
refusing any copy but the checkout's, builds the workload's items from the
seed, runs the first item once as warm-up and prints ``READY``: run.py
takes the set-up time at that line.  With ``--setup-only`` it stops there.

Otherwise it prints one JSON line.  Untraced (``--trace 0``) it runs whole
passes over the items until ``--seconds`` have gone by (at least one), and
reports each item's fastest wall and CPU time across the passes.
Traced (``--trace 1``) it spends half of ``--seconds`` on untraced passes of
the workload and half on traced ones, then runs TRACE_REPEATS traced passes
of every other workload and of the layer probes, and reports the per-layer
metrics; the spans go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import coeffsharp
import numpy

import layers
import spans
import workloads as wl

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "coeffsharp"
SPAN_DIR = ROOT / ".bench_out"
TRACE_REPEATS = 3  # traced passes of each other workload and of the probes


def _check_import() -> None:
    got = Path(coeffsharp.__file__).resolve().parent
    if got != SRC.resolve():
        sys.exit(f"perfbench: coeffsharp resolves to {got}, not to this checkout's {SRC}")


def run_pass(items, workload, tr, times=None) -> list[str]:
    """Run every item once, in order, appending each one's (wall, CPU)
    seconds to ``times``; return the failure messages."""
    failures = []
    for item in items:
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with tr.span("bench.item", f"{workload}/{item.id}"):
                item.run(tr)
        except Exception as exc:  # a wrong or raising item is counted, not fatal
            failures.append(f"{workload}/{item.id}: {type(exc).__name__}: {exc}")
        if times is not None:
            times.append((time.perf_counter() - t0, time.process_time() - c0))
    return failures


def fastest_items(item_times) -> list[tuple[float, float]]:
    """Each item's fastest wall and CPU time across passes over one item list."""
    return [(min(w for w, _ in reps), min(c for _, c in reps)) for reps in zip(*item_times)]


class Passes:
    """Whole passes over item lists, with their item times and failures."""

    def __init__(self, tr=spans.NULL):
        self.tr = tr
        self.item_times, self.failures = [], []  # item_times: one list per pass
        self.attempted = 0

    def run(self, items, workload, seconds=0.0) -> None:
        """Passes until ``seconds`` have gone by, at least one."""
        deadline = time.perf_counter() + seconds
        while True:
            if self.tr is not spans.NULL:
                self.tr.pass_no += 1
            self.item_times.append([])
            self.failures += run_pass(items, workload, self.tr, self.item_times[-1])
            self.attempted += len(items)
            if time.perf_counter() >= deadline:
                return

    def pass_s(self) -> float:
        """A pass at each item's fastest repetition, in wall seconds."""
        return sum(w for w, _ in fastest_items(self.item_times))


def measure(items, workload, seconds) -> dict:
    p = Passes()
    p.run(items, workload, seconds)
    return {"passes": len(p.item_times), "fastest": fastest_items(p.item_times),
            "attempted": p.attempted, "failures": p.failures}


def traced(items, workload, seed, seconds, tiny) -> dict:
    plain, trace = Passes(), Passes(spans.Tracer())
    plain.run(items, workload, seconds / 2)
    trace.run(items, workload, seconds / 2)
    traced_s = trace.pass_s()
    rest = [(w, wl.build(w, seed, tiny)) for w in wl.WORKLOADS if w != workload]
    for name, other in rest + layers.probes(tiny, dict(os.environ)):
        for _ in range(TRACE_REPEATS):
            trace.run(other, name)
    tr = trace.tr
    SPAN_DIR.mkdir(exist_ok=True)
    span_file = SPAN_DIR / f"spans-{workload}-seed{seed}.json"
    span_file.write_text(json.dumps({"fields": spans.FIELDS, "spans": tr.spans}))
    failures = plain.failures + trace.failures
    metrics = {}
    if not failures:
        metrics = layers.metrics(tr.spans, tr.notes, traced_s, plain.pass_s())
    return {"metrics": metrics, "attempted": plain.attempted + trace.attempted,
            "failures": failures, "span_file": str(span_file.relative_to(ROOT))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _check_import()
    items = wl.build(args.workload, args.seed, args.tiny)
    run_pass(items[:1], args.workload, spans.NULL)  # warm-up, untimed
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        out = traced(items, args.workload, args.seed, args.seconds, args.tiny)
    else:
        out = measure(items, args.workload, args.seconds)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                       "coeffsharp": coeffsharp.__version__}
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
