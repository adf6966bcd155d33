"""Exact rational scalars.

Everything in this package computes over Q with ``fractions.Fraction``,
the path the test suite and the benchmark run.  When gmpy2 is importable
its mpq is used instead; both types interoperate: they compare equal,
hash alike, print as "p/q" and expose ``numerator`` and ``denominator``.
The elimination kernel in ``exact_linalg`` does its work in Python
integers with either type.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as QQ
except ImportError:  # gmpy2 is optional; Fraction is the usual path
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
