"""Exact rational scalars.

Everything in this package computes over Q with ``fractions.Fraction``,
whatever else is installed, so no optional module can change an answer.
The elimination kernel in ``exact_linalg`` does its work in Python
integers.
"""

from __future__ import annotations

from fractions import Fraction as QQ

ZERO = QQ(0)
ONE = QQ(1)


def rat(value, denom=None):
    """Build an exact rational from ints, strings like "p/q", or rationals."""
    if denom is not None:
        return QQ(value, denom)
    if type(value) is QQ:
        return value
    return QQ(value)


def format_rat(q) -> str:
    """Render a rational as "p/q" (or "p" when the denominator is 1)."""
    return str(q)


def parse_rat(text: str):
    return QQ(text.strip())


def double_factorial(n: int) -> int:
    """(2k+1)!! style double factorial; (-1)!! == 1 by convention."""
    if n <= 0:
        return 1
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result
