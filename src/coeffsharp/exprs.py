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

_RATIO = re.compile(r"(\d+)\s*(?:/\s*(\d+))?\Z")

__all__ = ["parse_expr", "parse_number"]


def parse_expr(text: str):
    """Parse an exact constant; Fraction when rational, float under sqrt."""
    s = text.strip()
    if s.startswith("-"):
        return -_parse_unsigned(s[1:].strip(), text)
    return _parse_unsigned(s, text)


def _parse_unsigned(s: str, text: str):
    if s.startswith("sqrt(") and s.endswith(")"):
        inner = parse_expr(s[5:-1])
        if inner < 0:
            raise ValueError(f"sqrt of a negative value in {text!r}")
        return math.sqrt(inner)
    m = _RATIO.fullmatch(s)
    if not m:
        raise ValueError(f"cannot parse constant {text!r}")
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(int(m.group(1)), den)


def parse_number(text: str):
    """Exact constant when possible, otherwise a plain decimal float."""
    try:
        return parse_expr(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ValueError(
            f"cannot parse {text!r}; use an integer, a ratio like 2/3, sqrt(...), or a decimal"
        ) from None
