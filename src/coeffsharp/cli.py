"""Command-line front end: series, eval, verify and lemma subcommands.

Every command is deterministic given its arguments; ``verify`` searches at
the default ``SearchConfig``.  Each handler returns its config, its results,
the text to print and its exit code; ``main`` alone writes the ``--json``
report, then prints, so a refused command prints nothing.  JSON reports are
written with a fixed layout so that re-reading and re-serializing a file is
byte-identical.  Exit codes: 0 success / all passed, 1 verification failure,
2 usage or hypothesis error.  The lemma and verify handlers import ``lemmas``
and ``verifier`` themselves.  numpy comes with ``verifier`` and with a lemma
scan (an oracle, or the L24 check); series, eval and the other lemma closed
forms load none.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from . import __version__
from .caratheodory import CaratheodoryPoint, SchwarzCoeffs
from .exprs import _NotInGrammar, parse_number
from .functionals import FUNCTIONAL_NAMES, evaluate_functional
from .series_engine import COMPLEX, cosh_series, extremal_function, monomial, series, starlike_from_schwarz

SCHEMA_VERSION = 3

SERIES_ORDER_MAX = 512  # f1 at this order takes about 2 s; its coefficients grow with the order

_EVAL_ALIASES = {"H21_inverse": "H21_log_inverse"}


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """Reads every token of the number grammar as a value, never as an option.

    argparse alone takes a token starting with ``-`` for an option unless it
    is a plain negative decimal, so it refused ``--tau 1/2 -1/4 0``.  A token
    of the grammar whose value is refused, such as ``-1/0``, is a value too:
    the command then names the cause.
    """

    def _parse_optional(self, arg_string):
        try:
            parse_number(arg_string)
        except _NotInGrammar:
            return super()._parse_optional(arg_string)
        except ValueError:
            pass
        return None  # a value


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    started = _now()
    try:
        config, results, text, code = args.handler(args)
        _write_manifest(args.json, args.command, config, started, results)
    except (UsageError, ValueError) as exc:  # ValueError: a contract violation in the library
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return code


def run() -> None:
    raise SystemExit(main())


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="coeffsharp",
        description="Verify sharp coefficient bounds for starlike functions driven by z + cosh(z).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_series = sub.add_parser("series", help="print series coefficients")
    p_series.add_argument("which", choices=["f1", "f2", "f3", "phi0", "custom-omega"])
    p_series.add_argument("--order", type=int, default=8,
                          help=f"truncation order, 0 to {SERIES_ORDER_MAX}")
    p_series.add_argument("--format", choices=["frac", "dec"], default="frac")
    p_series.add_argument("--omega", nargs="+", metavar="COEFF",
                          help="coefficients of omega from degree 0 (custom-omega only)")
    p_series.add_argument("--json", metavar="PATH")
    p_series.set_defaults(handler=_cmd_series)

    p_eval = sub.add_parser("eval", help="evaluate a coefficient functional")
    p_eval.add_argument("functional")
    p_eval.add_argument("--c", nargs="+", metavar="CK", help="coefficients c1 [c2 [c3]]")
    p_eval.add_argument("--tau", nargs=3, metavar="T", help="parameter triple tau1 tau2 tau3")
    p_eval.add_argument("--json", metavar="PATH")
    p_eval.set_defaults(handler=_cmd_eval)

    p_verify = sub.add_parser("verify", help="run the global search for a bound")
    p_verify.add_argument("theorem", help="a theorem id or 'all'")
    p_verify.add_argument("--json", metavar="PATH")
    p_verify.set_defaults(handler=_cmd_verify)

    p_lemma = sub.add_parser("lemma", help="evaluate an auxiliary bound")
    p_lemma.add_argument("lemma", choices=["Y", "L23", "L24", "L41"])
    p_lemma.add_argument("params", nargs="+", help="lemma parameters")
    p_lemma.add_argument("--oracle", action="store_true",
                         help="also run the brute-force oracle (not L24, whose check is a scan)")
    p_lemma.add_argument("--json", metavar="PATH")
    p_lemma.set_defaults(handler=_cmd_lemma)

    return parser


def _write_manifest(path: str | None, command: str, config: dict, started: str,
                    results) -> None:
    if not path:
        return
    payload = {
        "schema": SCHEMA_VERSION,
        "command": command,
        "tool_version": __version__,
        "config": config,
        "started": started,
        "finished": _now(),
        "results": results,
    }
    try:
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write report file: {exc}") from None


def _num_json(x):
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    return float(x)


# --- series ------------------------------------------------------------------

def _series_for(args):
    order = args.order
    if not 0 <= order <= SERIES_ORDER_MAX:
        raise UsageError(f"--order must lie in [0, {SERIES_ORDER_MAX}]")
    if args.which == "phi0":
        m = monomial(1, max(order, 1))
        return (m + cosh_series(m)).truncate(order)
    if args.which == "custom-omega":
        if not args.omega:
            raise UsageError("custom-omega needs --omega with coefficients from degree 0")
        coeffs = [parse_number(tok) for tok in args.omega]
        if coeffs[0] != 0:
            raise UsageError("omega must vanish at 0 (first coefficient 0)")
        om = series(coeffs)
        return starlike_from_schwarz(om, max(order, 1)).truncate(order)
    n = {"f1": 1, "f2": 2, "f3": 3}[args.which]
    return extremal_function(n, max(order, n + 1)).truncate(order)


def _fmt_coeff(k: int, c, fmt: str) -> str:
    """The z^k coefficient as text; one that has none is a usage error."""
    try:
        text = str(c)  # in dec format too: --json writes the exact digits
        if fmt == "dec":
            z = complex(c)
            text = repr(z.real) if z.imag == 0 else repr(z)
    except OverflowError:
        raise UsageError(f"the z^{k} coefficient is beyond float range; "
                         "use --format frac") from None
    except ValueError:  # the interpreter's limit on integer digits
        raise UsageError(f"the z^{k} coefficient has more than "
                         f"{sys.get_int_max_str_digits()} digits") from None
    return text


def _cmd_series(args) -> tuple:
    if args.omega and args.which != "custom-omega":
        raise UsageError("--omega only applies to custom-omega")
    s = _series_for(args)
    if args.format == "frac" and s.mode == COMPLEX:
        raise UsageError("coefficients are not exact rationals; use --format dec")
    line = ", ".join(_fmt_coeff(k, c, args.format) for k, c in enumerate(s.coeffs))
    results = {
        "which": args.which,
        "order": s.order,
        "mode": s.mode,
        "coefficients": [_num_json(c) for c in s.coeffs],
    }
    return {"order": args.order, "format": args.format}, results, line, 0


# --- eval ---------------------------------------------------------------------

def _cmd_eval(args) -> tuple:
    name = _EVAL_ALIASES.get(args.functional, args.functional)
    if name not in FUNCTIONAL_NAMES:
        raise UsageError(f"unknown functional {args.functional!r}; "
                         f"choose from {', '.join(FUNCTIONAL_NAMES)}")
    if (args.c is None) == (args.tau is None):
        raise UsageError("supply exactly one of --c or --tau")
    if args.c is not None:
        vals = [parse_number(tok) for tok in args.c]
        if not 1 <= len(vals) <= 3:
            raise UsageError("--c takes 1 to 3 coefficients")
        source = SchwarzCoeffs(*vals)
        inputs = {"c": [_num_json(v) for v in vals]}
    else:
        t1, t2, t3 = (parse_number(tok) for tok in args.tau)
        source = CaratheodoryPoint(t1, t2, t3)
        inputs = {"tau": [_num_json(v) for v in (t1, t2, t3)]}
    fv = evaluate_functional(name, source)
    value = complex(fv.value)
    payload = {
        "schema": SCHEMA_VERSION,
        "functional": name,
        "inputs": inputs,
        "value": value.real if name.startswith("diff_") else {"re": value.real, "im": value.imag},
        "magnitude": abs(value),
    }
    return {}, payload, json.dumps(payload, indent=2, allow_nan=False), 0


# --- verify -------------------------------------------------------------------

def _point_json(pt: CaratheodoryPoint) -> dict:
    return {
        "tau1": float(pt.tau1),
        "tau2": _num_json(complex(pt.tau2)),
        "tau3": _num_json(complex(pt.tau3)),
    }


def _report_json(rep) -> dict:
    return {
        "theorem": rep.theorem_id,
        "bound": {"expr": rep.bound.expr, "float": rep.bound.value,
                  "direction": rep.bound.direction},
        "empirical": rep.empirical_extremum,
        "maximizer": _point_json(rep.maximizer),
        "gap": rep.gap,
        "evaluations": rep.evaluations,
        "passed": rep.passed,
    }


def _report_table(reports) -> list:
    head = f"{'theorem':<18} {'bound':>12} {'empirical':>14} {'gap':>11} {'evals':>10} status"
    return [head, "-" * len(head)] + [
        f"{rep.theorem_id:<18} {rep.bound.expr:>12} {rep.empirical_extremum:>14.9f} "
        f"{rep.gap:>11.2e} {rep.evaluations:>10d} {'pass' if rep.passed else 'FAIL'}"
        for rep in reports]


def _cmd_verify(args) -> tuple:
    from .verifier import THEOREM_IDS, SearchConfig, verify

    cfg = SearchConfig()
    if args.theorem == "all":
        ids = THEOREM_IDS
    elif args.theorem in THEOREM_IDS:
        ids = (args.theorem,)
    else:
        raise UsageError(f"unknown theorem {args.theorem!r}; "
                         f"choose from all, {', '.join(THEOREM_IDS)}")
    reports = [verify(theorem_id, cfg) for theorem_id in ids]
    results = [_report_json(rep) for rep in reports]
    failed = [rep for rep in results if not rep["passed"]]
    lines = _report_table(reports) + [f"{len(reports) - len(failed)}/{len(reports)} passed"]
    lines += [f"FAILED: {json.dumps(rep, allow_nan=False)}" for rep in failed]
    return asdict(cfg), results, "\n".join(lines), 1 if failed else 0


# --- lemma --------------------------------------------------------------------

def _lemma_floats(args, tokens) -> list:
    """The lemma parameters as floats; a rational too large for one is rejected."""
    try:
        return [float(parse_number(tok)) for tok in tokens]
    except OverflowError:
        raise UsageError(f"lemma {args.lemma}: a parameter is too large for a float") from None


def _lemma_params(args, count: int, label: str):
    if len(args.params) != count:
        raise UsageError(f"lemma {args.lemma} needs {count} parameters: {label}")
    return _lemma_floats(args, args.params)


def _cmd_lemma(args) -> tuple:
    from .lemmas import (
        PsiInput,
        YInput,
        lemma23_bound,
        lemma23_empirical,
        lemma24_check,
        psi_empirical,
        psi_minus_bound,
        psi_plus_bound,
        y_branch,
        y_brute_force,
        y_closed_form,
    )

    lines, code = [], 0
    if args.lemma == "Y":
        a, b, c = _lemma_params(args, 3, "A B C")
        yin = YInput(a, b, c)
        closed = y_closed_form(yin)
        results = {"lemma": "Y", "inputs": [a, b, c], "closed_form": closed,
                   "branch": y_branch(yin)}
        lines.append(f"closed form: {closed!r}  (branch {results['branch']})")
        if args.oracle:
            brute = y_brute_force(yin)
            results["oracle"] = brute
            results["discrepancy"] = abs(closed - brute)
            lines.append(f"oracle: {brute!r}  |difference|: {results['discrepancy']:.3e}")
    elif args.lemma == "L23":
        (v,) = _lemma_params(args, 1, "v")
        bound = lemma23_bound(v)
        results = {"lemma": "L23", "inputs": [v], "bound": bound}
        lines.append(f"bound: {bound!r}")
        if args.oracle:
            emp = lemma23_empirical(v)
            results["oracle"] = emp
            results["discrepancy"] = abs(bound - emp)
            lines.append(f"oracle: {emp!r}  |difference|: {results['discrepancy']:.3e}")
    elif args.lemma == "L24":
        if args.oracle:
            raise UsageError("lemma L24 takes no --oracle: its check is its own scan")
        b, d = _lemma_params(args, 2, "B D")
        report = lemma24_check(b, d)
        results = {"lemma": "L24", "inputs": [b, d],
                   "empirical_max": report.empirical_max, "passed": report.passed}
        lines.append(f"empirical max: {report.empirical_max!r}  "
                     f"{'<= 2 (pass)' if report.passed else 'EXCEEDS 2'}")
        if not report.passed:
            code = 1
    else:  # L41
        if len(args.params) != 4 or args.params[0] not in ("plus", "minus"):
            raise UsageError("lemma L41 needs: plus|minus B1 B2 B3")
        side = args.params[0]
        b1, b2, b3 = _lemma_floats(args, args.params[1:])
        pin = PsiInput(b1, b2, b3)
        bound = psi_plus_bound(pin) if side == "plus" else psi_minus_bound(pin)
        results = {"lemma": "L41", "side": side, "inputs": [b1, b2, b3], "bound": bound}
        lines.append(f"bound: {bound!r}")
        if args.oracle:
            lo, hi = psi_empirical(pin)
            results["oracle_min"] = lo
            results["oracle_max"] = hi
            emp = hi if side == "plus" else -lo
            results["discrepancy"] = abs(bound - emp)
            lines.append(f"oracle extreme: {emp!r}  |difference|: {results['discrepancy']:.3e}")
    return {}, results, "\n".join(lines), code
