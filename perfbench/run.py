"""Benchmark of the checked-out coeffsharp: one command for every workload.

    python3 perfbench/run.py --workload oracles --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all                   # each workload once
    python3 perfbench/run.py --workload exact --repeat 10     # steadiness, 10 seeds

Run it from anywhere inside a checkout; it measures that checkout's
``src/``.  Each run is one caller in one process working in a closed loop
(the next item starts when the last one ends), with ``COEFFSHARP_THREADS``
removed so the default single-threaded path is measured.  Set-up is timed
in separate fresh processes as well as in the measured one.

A shared host's core alternates, in phases of seconds, between full speed
and little more than half of it, so the median of a 20-second run depends on
how much of the run fell into slow phases.  Times that repeat within a run
(an item, a span) are therefore reported as their fastest repetition, and a
pass as the sum of its items' fastest repetitions: over 200 s of ``exact``
passes cut into 20-second windows, that sum spread 0.06 of its median across
windows, the fastest whole pass 0.13.  Set-up is the median of several fresh
set-ups.

Untraced runs print the ``end_to_end`` metrics of ``BENCHMARK.json``,
traced runs (``--trace 1``) the ``per_layer`` ones.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--repeat K`` runs the workload K times with
seeds seed, seed+1, ... and reports each metric's median, quartiles and
spread against its bound instead.

Exit codes: 0 every output correct, 1 a correctness failure, 2 the
benchmark could not run (no ``src/coeffsharp`` here, a foreign import, a
worker that died or ran out of time).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
SEED_USED = {"verify-2param": False, "verify-3param": False, "oracles": True, "exact": True,
             "verify-all": False}
SETUP_SAMPLES = 7  # fresh set-ups per untraced run, the measured worker included
RUN_BUDGET_S = 170.0  # one run ends within this, or its worker is killed
UNITS = {"setup_s": "s", "pass_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
         "item_p50_ms": "ms", "item_p90_ms": "ms"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from None


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("COEFFSHARP_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def source_info() -> dict:
    """What is measured: commit (when the checkout is a git repository),
    a digest of the package sources, and the machine's core count."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "coeffsharp").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            commit = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass  # no usable git: the source digest still identifies the code
    threads = os.environ.get("COEFFSHARP_THREADS")
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "COEFFSHARP_THREADS": "unset" if threads is None else f"{threads!r}, removed for the run",
    }


def _worker(args: list[str], deadline: float) -> tuple[float, str]:
    """Start one worker; return its set-up time and everything it printed
    after READY.  The worker is killed when the deadline passes."""
    cmd = [sys.executable, str(WORKER), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if time.monotonic() >= deadline:
        raise BenchError(f"worker {args} ran past the {RUN_BUDGET_S:.0f} s budget")
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"worker {args} failed with exit code {code}")
    return setup_s, rest


def percentile(values, q: int) -> float:
    """q-th percentile, linear between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_once(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> dict:
    """One run, as the contract defines it; returns the result and context."""
    if not (SRC / "coeffsharp" / "__init__.py").is_file():
        raise BenchError(f"no coeffsharp sources under {SRC}")
    deadline = time.monotonic() + RUN_BUDGET_S
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)] + (["--tiny"] if tiny else [])
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_worker(base + ["--setup-only"], deadline)[0])
    setup_s, rest = _worker(base, deadline)
    setups.append(setup_s)
    try:
        out = json.loads(rest.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"worker for {workload} printed no result") from None

    failures = out["failures"]
    attempted = out["attempted"]
    samples = {"setups": len(setups), "items": attempted}
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()}
        samples["span_file"] = out["span_file"]
    else:
        # an item's time is its fastest repetition; a pass is their sum
        fastest = out["fastest"]
        best_ms = [w * 1e3 for w, _ in fastest]
        values = {
            "setup_s": statistics.median(setups),
            "pass_s": sum(w for w, _ in fastest),
            "cpu_s": sum(c for _, c in fastest),
            "peak_rss_mb": out["rss_mb"],
            "item_p50_ms": percentile(best_ms, 50),
            "item_p90_ms": percentile(best_ms, 90),
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
        samples["passes"] = out["passes"]
        samples["items"] = len(best_ms)
    info = {"workload": workload, "seed": seed, "seed_used": SEED_USED[workload],
            "seconds": seconds, "trace": trace, "tiny": tiny, **source_info(),
            **out["versions"]}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    if not failures:
        spec = load_spec()
        want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
        if set(metrics) != want:
            raise BenchError(f"metric names differ from BENCHMARK.json: "
                             f"missing {sorted(want - set(metrics))}, "
                             f"extra {sorted(set(metrics) - want)}")
    return {"result": result, "info": info, "samples": samples, "failures": failures}


def print_run(run: dict) -> None:
    info, res, smp = run["info"], run["result"], run["samples"]
    print(f"# perfbench {info['workload']} seed={info['seed']}"
          f"{'' if info['seed_used'] else ' (unused)'} seconds={info['seconds']} "
          f"trace={info['trace']}{' tiny' if info['tiny'] else ''}")
    print("# info " + json.dumps(info, sort_keys=True))
    reps = f"fastest of {smp.get('passes')} passes"
    notes = {"setup_s": f"median of {smp['setups']} fresh set-ups",
             "pass_s": f"sum over {smp['items']} items, each its {reps}",
             "cpu_s": f"user+system CPU, sum over {smp['items']} items, each its {reps}",
             "peak_rss_mb": "peak resident set of the measured worker",
             "item_p50_ms": f"over {smp['items']} items, each its {reps}",
             "item_p90_ms": f"over {smp['items']} items, each its {reps}"}
    for name, m in res["metrics"].items():
        print(f"{name:<44} {m['value']:>14.6g} {m['unit']:<9} {notes.get(name, '')}")
    n = res["attempted"]
    print(f"{'failed_frac':<44} {res['failed'] / n:>14.6g} {'':<9} "
          f"{res['failed']} of {n} items failed their check")
    if "span_file" in smp:
        print(f"# spans written to {smp['span_file']}")
    for msg in run["failures"][:10]:
        print(f"# FAILED {msg}", file=sys.stderr)


def steadiness(workload, seed, seconds, repeat, tiny) -> dict:
    """Run ``repeat`` times on consecutive seeds; summarise each metric."""
    bounds = {m["name"]: m["bound"] for m in load_spec()["end_to_end"]}
    runs = []
    for k in range(repeat):
        run = run_once(workload, seed + k, seconds, 0, tiny)
        res = run["result"]
        print(f"# {workload} seed={seed + k}: failed {res['failed']} of {res['attempted']}; "
              + ", ".join(f"{n}={m['value']:.6g}" for n, m in res["metrics"].items()),
              file=sys.stderr, flush=True)
        for msg in run["failures"][:10]:
            print(f"# FAILED {msg}", file=sys.stderr)
        runs.append(run)
    summary = {"correct": all(r["result"]["correct"] for r in runs), "runs": repeat,
               "info": runs[0]["info"], "metrics": {}}
    for name, bound in bounds.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        verdict = ("steady" if spread < bound / 3 else
                   "within bound" if spread <= bound else "UNSTEADY")
        summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                    "bound": bound, "verdict": verdict, "values": values}
    return summary


def print_steadiness(workload: str, summary: dict) -> None:
    print(f"# steadiness of {workload} over {summary['runs']} runs; "
          f"spread = (q3 - q1) / median")
    for name, s in summary["metrics"].items():
        print(f"{name:<14} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
              f"q3 {s['q3']:<12.6g} spread {s['spread']:<8.4f} bound {s['bound']:<5} "
              f"{s['verdict']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(SEED_USED) + ("all",),
                    help="one workload, all of BENCHMARK.json's, or verify-all: the "
                    "default-config headline, which is not among them")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time of one run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1, help="runs per workload, K >= 2 "
                    "reports steadiness")
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    ap.add_argument("--out", help="also write the full result as JSON to this file")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.repeat < 1:
        ap.error("--seed must be >= 0 and --repeat >= 1")
    if args.repeat > 1 and args.trace:
        ap.error("--repeat measures the untraced metrics; drop --trace")

    try:
        seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
        names = ([w["name"] for w in load_spec()["workloads"]] if args.workload == "all"
                 else [args.workload])
        if args.repeat > 1:
            record = {}
            for w in names:
                record[w] = steadiness(w, args.seed, seconds, args.repeat, args.tiny)
                print_steadiness(w, record[w])
            final = {"correct": all(s["correct"] for s in record.values()),
                     "steadiness": record}
        else:
            record = {}
            for w in names:
                record[w] = run_once(w, args.seed, seconds, args.trace, args.tiny)
                print_run(record[w])
            results = [r["result"] for r in record.values()]
            final = results[0] if len(results) == 1 else {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "workloads": {w: r["result"]["metrics"] for w, r in record.items()}}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
