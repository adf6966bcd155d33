"""Reference DVV recursion for psi correlators (tests only).

This is the plain recursion that the library's string/dilaton-first
evaluation replaces: every correlator, whatever its exponents, goes
through the full DVV sum on its largest exponent, and every separating
split tries every genus.  It is slow but follows the recursion as
written, so `psi_integral` is checked against it.
"""

from tautring.rationals import QQ, ZERO, ONE, double_factorial
from tautring.taut_classes import dim_moduli

_MEMO: dict[tuple, object] = {}


def oracle_psi_integral(g: int, exponents) -> object:
    """<tau_{d_1} ... tau_{d_n}>_g by the full DVV recursion."""
    exponents = tuple(sorted(int(d) for d in exponents))
    if any(d < 0 for d in exponents):
        return ZERO
    return _integral_checked(g, list(exponents))


def _dvv(g: int, exps: tuple) -> object:
    key = (g, exps)
    cached = _MEMO.get(key)
    if cached is not None:
        return cached
    n = len(exps)
    if g == 0 and n == 3:
        value = ONE  # <tau_0^3>_0, the only dimension-correct case
    elif g == 1 and n == 1:
        value = QQ(1, 24)  # <tau_1>_1
    else:
        # Recurse on the largest exponent, which is >= 1 away from the
        # base cases.
        rest = list(exps[:-1])
        d1 = exps[-1]
        total = ZERO
        # string/join terms
        for j, dj in enumerate(rest):
            reduced = rest[:j] + rest[j + 1:] + [d1 + dj - 1]
            coeff = QQ(
                double_factorial(2 * (d1 + dj) - 1),
                double_factorial(2 * dj - 1),
            )
            sub = _integral_checked(g, reduced)
            if sub:
                total += coeff * sub
        # genus and separating reductions
        for a in range(d1 - 1):
            b = d1 - 2 - a
            weight = QQ(
                double_factorial(2 * a + 1) * double_factorial(2 * b + 1), 2
            )
            sub = _integral_checked(g - 1, rest + [a, b])
            if sub:
                total += weight * sub
            for g1 in range(g + 1):
                g2 = g - g1
                for mask in range(1 << len(rest)):
                    part1 = [rest[i] for i in range(len(rest)) if mask >> i & 1]
                    part2 = [rest[i] for i in range(len(rest)) if not mask >> i & 1]
                    s1 = _integral_checked(g1, part1 + [a])
                    if not s1:
                        continue
                    s2 = _integral_checked(g2, part2 + [b])
                    if s2:
                        total += weight * s1 * s2
        value = total / double_factorial(2 * d1 + 1)
    _MEMO[key] = value
    return value


def _integral_checked(g: int, exps: list) -> object:
    exps_t = tuple(sorted(exps))
    n = len(exps_t)
    if g < 0 or 2 * g - 2 + n <= 0:
        return ZERO
    if sum(exps_t) != dim_moduli(g, n):
        return ZERO
    return _dvv(g, exps_t)
