"""Micro-grammar for exact numeric constants on the command line.

Accepted forms: an optional leading minus, integers, integer ratios and
``sqrt(...)`` of any accepted form.  Ratios parse to ``Fraction``; a sqrt
makes the value a float.  This is enough to type every constant the bounds
need exactly (``sqrt(2/11)``, ``sqrt(8/3)``, ``2/3``, ...).
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

# one "sqrt(" layer with its optional minus
_SQRT_OPEN = re.compile(r"\s*(-?)\s*sqrt\(")
# the innermost ratio with its optional minus, then the closing parentheses
_CORE = re.compile(r"\s*(-?)\s*(\d+)\s*(?:/\s*(\d+))?((?:\s*\))*)\s*\Z")

__all__ = ["parse_expr", "parse_number"]

#: characters of an argument an error message echoes back
_SHOWN = 40


def _shown(value) -> str:
    """``repr`` of the text of a value, cut after its first ``_SHOWN`` characters.

    An integer or ratio past the interpreter's limit on integer digits has no
    text, and is described by the bit lengths of its terms instead.
    """
    try:
        text = str(value)
    except ValueError:  # the interpreter's limit on integer digits
        num, den = value.numerator.bit_length(), value.denominator.bit_length()
        if den == 1:
            return f"an integer of {num} bits"
        return f"a ratio of {num}-bit and {den}-bit integers"
    return repr(text) if len(text) <= _SHOWN else f"{text[:_SHOWN]!r}..."


class _NotInGrammar(ValueError):
    """Text outside the grammar of the parser that raised it: the exact forms
    of :func:`parse_expr` (such text may still be a decimal), or those and
    the decimals of :func:`parse_number`."""


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
    try:
        num, den = int(num), int(den or 1)
    except ValueError:  # the interpreter's limit on integer digits
        raise ValueError(f"integer with more than {sys.get_int_max_str_digits()} digits "
                         f"in {_shown(text)}") from None
    if den == 0:
        raise ValueError(f"zero denominator in {_shown(text)}")
    value = Fraction(num, den)
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
    Only text outside both grammars raises ``_NotInGrammar``.
    """
    try:
        return parse_expr(text)
    except _NotInGrammar:
        pass
    try:
        return float(text)
    except ValueError:
        raise _NotInGrammar(f"cannot parse {_shown(text)}; use an integer, a ratio like 2/3, "
                         "sqrt(...), or a decimal") from None
