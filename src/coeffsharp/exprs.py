"""Micro-grammar for exact numeric constants on the command line.

Accepted forms: an optional leading minus, integers, integer ratios and
``sqrt(...)`` of any accepted form.  Ratios parse to ``Fraction``; a sqrt
makes the value a float.  This is enough to type every constant the bounds
need exactly (``sqrt(2/11)``, ``sqrt(8/3)``, ``2/3``, ...).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

# one "sqrt(" layer with its optional minus
_SQRT_OPEN = re.compile(r"\s*(-?)\s*sqrt\(")
# the innermost ratio with its optional minus, then the closing parentheses
_CORE = re.compile(r"\s*(-?)\s*(\d+)\s*(?:/\s*(\d+))?((?:\s*\))*)\s*\Z")

__all__ = ["parse_expr", "parse_number"]

#: characters of an argument an error message echoes back
_SHOWN = 40


def _shown(text: str) -> str:
    """``repr`` of text, cut after its first ``_SHOWN`` characters."""
    return repr(text) if len(text) <= _SHOWN else f"{text[:_SHOWN]!r}..."


class _NotInGrammar(ValueError):
    """Text outside the exact grammar; it may still be a decimal."""


def parse_expr(text: str):
    """Parse an exact constant; Fraction when rational, float under sqrt.

    The ``sqrt(`` layers are read in a loop, not by recursion, so any depth
    parses.  A negative value under sqrt, or one past the float range, is a
    ValueError.
    """
    signs, pos = [], 0
    while m := _SQRT_OPEN.match(text, pos):
        signs.append(m.group(1))
        pos = m.end()
    m = _CORE.match(text, pos)
    if not m or m.group(4).count(")") != len(signs):
        raise _NotInGrammar(f"cannot parse constant {_shown(text)}")
    sign, num, den, _ = m.groups()
    den = int(den or 1)
    if den == 0:
        raise ValueError(f"zero denominator in {_shown(text)}")
    value = Fraction(int(num), den)
    value = -value if sign else value
    for sign in reversed(signs):  # from the innermost layer out
        if value < 0:
            raise ValueError(f"sqrt of a negative value in {_shown(text)}")
        try:
            value = math.sqrt(value)
        except OverflowError:  # a ratio past the float range
            raise ValueError(f"sqrt of a value past the float range in {_shown(text)}") from None
        value = -value if sign else value
    return value


def parse_number(text: str):
    """Exact constant when possible, otherwise a plain decimal float.

    Text of the exact grammar whose value is refused (a zero denominator, or
    the sqrt of a negative value or of one past the float range) is never a
    decimal either: its error keeps the reason :func:`parse_expr` gave.
    """
    try:
        return parse_expr(text)
    except _NotInGrammar:
        pass
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"cannot parse {_shown(text)}; use an integer, a ratio like 2/3, "
                         "sqrt(...), or a decimal") from None
