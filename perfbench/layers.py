"""Per-layer metrics of the traced run.

The traced run (worker.py) repeats traced passes of every workload and of
the probes below (the initial scans alone, and the CLI in fresh
interpreters), and :func:`metrics` reduces the spans and notes to the
``per_layer`` metrics of ``BENCHMARK.json``.  Each metric name is
``<module>.<metric>[.<qualifier>]``, and a metric reads the same whichever
workload's traced run made it.
"""

from __future__ import annotations

import statistics
import subprocess
import sys

import coeffsharp as cs

import spans as sp
import workloads as wl

LAYERS = ("bench", "verifier", "lemmas", "series_engine", "functionals",
          "caratheodory", "exprs", "cli")
CLI_TIMEOUT_S = 60
COLD_START_ARGS = ("-m", "coeffsharp", "series", "f1", "--order", "4")
COLD_START_OUT = "0, 1, 1, 3/4, 5/12"
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import coeffsharp.cli; "
                  "print(time.perf_counter() - t)")


def scan_items(tiny: bool) -> list[wl.Item]:
    """``verify`` without refinement, on the grid each target has in its
    workload."""
    return [wl.scan_item(t, *wl.search_config(t, tiny)) for t in wl.theorem_ids()]


def probes(tiny: bool, env: dict) -> list[tuple[str, list[wl.Item]]]:
    """What the traced run adds to the workloads' own passes."""
    return [("probe", scan_items(tiny)), ("probe", cli_items(env))]


def cli_items(env: dict) -> list[wl.Item]:
    """Fresh interpreters: the CLI's cold start, and its import time alone."""

    def cold_start(tr):
        with tr.span("cli.cold_start"):
            out = subprocess.run([sys.executable, *COLD_START_ARGS], env=env,
                                 capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        wl.check(out.returncode == 0 and out.stdout.strip() == COLD_START_OUT,
                 f"cold start printed {out.stdout!r} (exit {out.returncode})")

    def import_time(tr):
        with tr.span("cli.import"):
            out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=env,
                                 capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        wl.check(out.returncode == 0, f"import of coeffsharp.cli failed: {out.stderr}")
        tr.note("cli.import_s", float(out.stdout))

    return [wl.Item("cold-start", cold_start), wl.Item("import", import_time)]


def metrics(spans, notes, traced_pass_s: float, untraced_pass_s: float) -> dict:
    """name -> (value, unit) for every per-layer metric.

    A time is the median, over the calls that match, of each call's fastest
    repetition (see run.py on why the fastest); counts and gaps come from
    what the items noted.
    """
    calls = sp.fastest_calls(spans)
    out = {}

    def dur(name, prefix="", scale=1.0):
        values = sp.durations(calls, name, prefix)
        if not values:
            raise ValueError(f"no {name} spans for items {prefix!r}")
        return statistics.median(values) * scale

    def noted(name, item_id=None):
        return [v for item, values in notes[name].items()
                if item_id is None or item.split("/", 1)[1] == item_id for v in values]

    for t in wl.theorem_ids():
        key = wl.search_config(t)[1] + t  # 3-parameter targets: the verify-3param grid
        verify_s = dur("verifier.verify", key)
        evals = noted("verifier.evals", key)[0]
        out[f"verifier.verify_s.{t}"] = (verify_s, "s")
        out[f"verifier.scan_s.{t}"] = (dur("verifier.verify", f"scan-{key}"), "s")
        out[f"verifier.evals.{t}"] = (evals, "count")
        # base: the evaluations of one verify over its wall time
        out[f"verifier.mevals_per_s.{t}"] = (evals / verify_s / 1e6, "Mevals/s")
        out[f"verifier.gap.{t}"] = (noted("verifier.gap", key)[0], "abs")
        out[f"verifier.witness_ms.{t}"] = (dur("verifier.sharpness_witness", key, 1e3), "ms")

    out["lemmas.y_brute_ms"] = (dur("lemmas.y_brute_force", scale=1e3), "ms")
    out["lemmas.y_closed_us"] = (dur("lemmas.y_closed_form", scale=1e6), "us")
    out["lemmas.psi_empirical_ms"] = (dur("lemmas.psi_empirical", scale=1e3), "ms")
    out["lemmas.l24_check_ms"] = (dur("lemmas.lemma24_check", scale=1e3), "ms")
    out["lemmas.l23_empirical_ms"] = (dur("lemmas.lemma23_empirical", scale=1e3), "ms")
    branches = [values[0] for values in notes["lemmas.y_branch"].values()]
    for b in wl.Y_BRANCHES:
        out[f"lemmas.y_branch_count.{b}"] = (branches.count(b), "count")
    for lemma in ("y", "l23", "l24", "psi_plus", "psi_minus"):
        out[f"lemmas.max_discrepancy.{lemma}"] = (
            max(noted(f"lemmas.max_discrepancy.{lemma}")), "abs")

    for order in wl.EXTREMAL_ORDERS:
        out[f"series_engine.extremal_ms.o{order}"] = (
            dur("series_engine.extremal_function", f"ext-o{order}-", 1e3), "ms")
    for mode in (cs.RATIONAL, cs.COMPLEX):
        out[f"series_engine.starlike_ms.{mode}"] = (
            dur("series_engine.starlike_from_schwarz", f"star-{mode}", 1e3), "ms")
    out["series_engine.max_den_digits.o64"] = (
        max(noted("series_engine.max_den_digits.o64")), "count")
    out["functionals.eval_us.exact"] = (
        dur("functionals.evaluate_functional", "fun-exact", 1e6), "us")
    out["functionals.eval_us.float"] = (
        dur("functionals.evaluate_functional", "fun-float", 1e6), "us")
    out["caratheodory.coeffs_from_point_us.exact"] = (
        dur("caratheodory.coeffs_from_point", "coeffs-exact", 1e6), "us")
    out["caratheodory.coeffs_from_point_us.float"] = (
        dur("caratheodory.coeffs_from_point", "coeffs-float", 1e6), "us")
    out["exprs.parse_us"] = (dur("exprs.parse_number", scale=1e6), "us")
    out["cli.cold_start_s"] = (dur("cli.cold_start"), "s")
    out["cli.import_s"] = (min(noted("cli.import_s")), "s")

    self_s = sp.self_times(calls)
    for layer in LAYERS:
        out[f"trace.self_s.{layer}"] = (self_s.get(layer, 0.0), "s")
    out["trace.untraced_pass_s"] = (untraced_pass_s, "s")
    out["trace.overhead_s"] = (traced_pass_s - untraced_pass_s, "s")
    out["trace.spans"] = (len(spans), "count")
    return out
