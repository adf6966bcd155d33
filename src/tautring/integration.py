"""Integration of tautological classes against the fundamental class.

psi integrals are computed over exact rationals, each correlator by the
cheapest rule that applies: the base cases <tau_0^3>_0 = 1 and
<tau_1>_1 = 1/24, then the string equation (some exponent is 0), then
the dilaton equation (some exponent is 1), and only when every exponent
is at least 2 the Witten-Kontsevich / DVV recursion, whose separating
terms read the genus of each part off the dimension constraint.  kappa
decorations are converted to psi insertions on auxiliary markings; two
independent conversion routes are provided (a one-at-a-time recursion
used by `integrate`, and the set-partition formula behind
`kappa_to_psi`) so that they can check each other.

In the pushforward convention a term (graph, dec, c) integrates to
c times the product over vertices of the vertex integrals; no automorphism
factor appears.  `term_integral` places each psi exponent on its vertex
through the cached `taut_classes.vertex_data` of the graph; the vertex
integrals are multiplied by `vertex_product`, as in the top pairing.
`kappa_to_psi` builds the signed set partitions of each kappa monomial
and each virtual graph once and reuses them for every term that needs
them.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import gcd

from .errors import DomainError
from .rationals import QQ, ZERO, ONE, double_factorial, rat
from .stable_graphs import StableGraph
from .taut_classes import (
    PSI_LEG,
    Decoration,
    TautClass,
    dim_moduli,
    vertex_data,
)

# (g, sorted exponent tuple) -> <tau_{d_1} ... tau_{d_n}>_g, for stable,
# dimension-correct keys only.  A dict, not functools.cache:
# perfbench/spans.py reads it by name.
_CORRELATORS: dict[tuple, object] = {}


def psi_integral(g: int, exponents) -> object:
    """<tau_{d_1} ... tau_{d_n}>_g, zero unless sum(d_i) = 3g - 3 + n.

    Computed from the base cases <tau_0^3>_0 = 1 and <tau_1>_1 = 1/24 by
    the string and dilaton equations and the DVV recursion.
    """
    exponents = tuple(sorted(int(d) for d in exponents))
    n = len(exponents)
    if g < 0 or any(d < 0 for d in exponents):
        return ZERO
    if 2 * g - 2 + n <= 0:
        return ZERO
    if sum(exponents) != dim_moduli(g, n):
        return ZERO
    return _correlator(g, exponents)


def _correlator(g: int, exps: tuple) -> object:
    """A stable, dimension-correct correlator; exps is sorted."""
    key = (g, exps)
    cached = _CORRELATORS.get(key)
    if cached is not None:
        return cached
    n = len(exps)
    if g == 0 and n == 3:
        value = ONE  # <tau_0^3>_0, the only dimension-correct case
    elif g == 1 and n == 1:
        value = QQ(1, 24)  # <tau_1>_1
    elif exps[0] == 0:
        value = _string(g, exps[1:])
    elif exps[0] == 1:
        # dilaton: <tau_1 X>_g = (2g - 2 + |X|) <X>_g with |X| = n - 1
        value = (2 * g - 3 + n) * _correlator(g, exps[1:])
    else:
        value = _dvv(g, exps)
    _CORRELATORS[key] = value
    return value


def _string(g: int, rest: tuple) -> object:
    """<tau_0 prod tau_{k_i}>_g = sum_j <... tau_{k_j - 1} ...>_g.

    Equal exponents give equal terms, so each distinct k > 0 is lowered
    once, at its first position (which keeps the tuple sorted), and
    counted with its multiplicity.
    """
    total = ZERO
    previous = 0
    for j, k in enumerate(rest):
        if k != previous:
            previous = k
            lowered = rest[:j] + (k - 1,) + rest[j + 1:]
            total += rest.count(k) * _correlator(g, lowered)
    return total


def _dvv(g: int, exps: tuple) -> object:
    """The DVV recursion on the largest exponent d; every exponent is >= 2.

    (2d + 1)!! <tau_d prod tau_{k_i}>_g =
        sum_j (2d + 2k_j - 1)!! / (2k_j - 1)!! <tau_{d + k_j - 1} ...>_g
      + sum_{a + b = d - 2} (2a + 1)!! (2b + 1)!! / 2 *
          ( <tau_a tau_b prod tau_{k_i}>_{g-1}
            + sum_{I} <tau_a prod_I tau_{k_i}>_{g1} <tau_b prod_{I^c} tau_{k_i}>_{g-g1} )

    where the genus g1 of the part I is fixed by its dimension.
    """
    rest = exps[:-1]
    d = exps[-1]
    total = ZERO
    previous = None
    for j, k in enumerate(rest):
        if k != previous:
            previous = k
            joined = tuple(sorted(rest[:j] + rest[j + 1:] + (d + k - 1,)))
            coeff = QQ(
                rest.count(k) * double_factorial(2 * (d + k) - 1),
                double_factorial(2 * k - 1),
            )
            total += coeff * _correlator(g, joined)
    splits = []
    for mask in range(1 << len(rest)):
        part1 = tuple(k for i, k in enumerate(rest) if mask >> i & 1)
        part2 = tuple(k for i, k in enumerate(rest) if not mask >> i & 1)
        splits.append((part1, part2, sum(part1) - len(part1) + 2))
    for a in range(d - 1):
        b = d - 2 - a
        weight = QQ(double_factorial(2 * a + 1) * double_factorial(2 * b + 1), 2)
        term = _correlator(g - 1, tuple(sorted(rest + (a, b))))
        for part1, part2, shift in splits:
            # part1 + tau_a on Mbar_{g1, |part1| + 1} needs
            # sum(part1) + a = 3 g1 - 2 + |part1|
            g1, r = divmod(shift + a, 3)
            g2 = g - g1
            if r or g2 < 0 or 2 * g1 + len(part1) < 2 or 2 * g2 + len(part2) < 2:
                continue
            term += _correlator(g1, tuple(sorted(part1 + (a,)))) * _correlator(
                g2, tuple(sorted(part2 + (b,)))
            )
        total += weight * term
    return total / double_factorial(2 * d + 1)


# ---------------------------------------------------------------------------
# kappa conversion, route 1: one kappa at a time


def vertex_integral(g: int, psi_exps, kappas) -> object:
    """Integral of prod(psi_i^{b_i}) * prod(kappa_{a_j}) over Mbar_{g,n}.

    kappa_a = pi_*(psi^{a+1}), and pulling the remaining kappas through
    the forgetful map (pi^* kappa_b = kappa_b - psi_new^b) lets the new
    marking absorb any subset S of them with sign (-1)^|S|:

        <X kappa_a prod kappa_b> =
            sum_S (-1)^|S| <X tau_{a + sum(S) + 1} prod_{b not in S} kappa_b>
    """
    psi_exps = tuple(sorted(int(b) for b in psi_exps))
    kappas = tuple(sorted(int(a) for a in kappas))
    n = len(psi_exps)
    if 2 * g - 2 + n <= 0 and not kappas:
        return ZERO
    if sum(psi_exps) + sum(kappas) != dim_moduli(g, n):
        return ZERO
    return _vertex_integral(g, psi_exps, kappas)


@cache
def _vertex_integral(g: int, psi_exps: tuple, kappas: tuple) -> object:
    """`vertex_integral` on sorted, dimension-correct arguments."""
    if not kappas:
        return psi_integral(g, psi_exps)
    a_last = kappas[-1]
    rest = kappas[:-1]
    value = ZERO
    for bits in range(1 << len(rest)):
        absorbed = a_last
        kept = []
        for i, b in enumerate(rest):
            if bits >> i & 1:
                absorbed += b
            else:
                kept.append(b)
        sign = -ONE if bin(bits).count("1") % 2 else ONE
        value += sign * vertex_integral(g, psi_exps + (absorbed + 1,), tuple(kept))
    return value


# ---------------------------------------------------------------------------
# kappa conversion, route 2: set partitions and virtual legs


def _set_partitions(items: list):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [partition[i] + [first]] + partition[i + 1:]
        yield partition + [[first]]


@cache
def _kappa_partitions(kappas: tuple) -> tuple:
    """(sign, block exponents) of each set partition of a sorted kappa
    tuple, in `_set_partitions` order: a block B gives a psi exponent
    sum(B) + 1 and a sign (-1)^(|B| - 1)."""
    out = []
    for partition in _set_partitions(list(kappas)):
        sign = 1
        for block in partition:
            if len(block) % 2 == 0:
                sign = -sign
        out.append((sign, tuple(sum(block) + 1 for block in partition)))
    return tuple(out)


def _first_free_mark(graph: StableGraph) -> int:
    marks = [m for lv in graph.legs for m in lv]
    return max([len(marks)] + marks) + 1


@cache
def _virtual_graph(graph: StableGraph, new_legs: tuple) -> StableGraph:
    """`graph` with new_legs[v] fresh legs on each vertex v, numbered on
    from its largest marking, vertex by vertex."""
    mark = _first_free_mark(graph)
    legs = []
    for lv, k in zip(graph.legs, new_legs):
        legs.append(lv + tuple(range(mark, mark + k)))
        mark += k
    return StableGraph(graph.genera, legs, graph.edges)


def _expansion(graph: StableGraph, dec: Decoration, coeff):
    """The (graph, decoration, coefficient) terms of one term that has
    kappas, with them traded: the product over the vertices of their
    partitions.  The fresh legs, numbered above every marking and
    appended in order, keep psi sorted, so `Decoration._unchecked` builds
    each decoration."""
    spots = [v for v, ks in enumerate(dec.kappa) if ks]
    start = _first_free_mark(graph)
    no_kappa = ((),) * graph.n_vertices
    new_legs = [0] * graph.n_vertices
    for choice in itertools.product(*(_kappa_partitions(dec.kappa[v]) for v in spots)):
        sign = 1
        psi = list(dec.psi)
        mark = start
        for v, (s, exps) in zip(spots, choice):
            sign *= s
            new_legs[v] = len(exps)
            for e in exps:
                psi.append(((PSI_LEG, mark), e))
                mark += 1
        yield (
            _virtual_graph(graph, tuple(new_legs)),
            Decoration._unchecked(tuple(psi), no_kappa),
            coeff if sign > 0 else -coeff,
        )


def kappa_to_psi(cls: TautClass) -> TautClass:
    """Trade every kappa decoration for psi insertions on virtual legs.

    Each vertex kappa monomial expands over set partitions P of its factors
    into sum over P of prod_{B in P} (-1)^{|B|-1} times a psi exponent
    sum(B)+1 on a fresh leg of that vertex; a term expands into the
    product over its vertices of these sums, and the fresh legs are
    numbered on from the largest marking, vertex by vertex.  A term
    without kappas passes through as it is.  The (sign, block exponents)
    list of a sorted kappa monomial and each virtual graph, per (graph,
    new legs per vertex), are built once and cached; the decorations are
    built in normal form and the coefficients are not copied.  The result
    integrates to the same number as the input; it is marked virtual
    because its terms live on graphs with extra legs and is accepted by
    `integrate` only.
    """
    out = TautClass(cls.g, cls.n, cls.d, virtual=True)
    terms = out.terms
    for (graph, dec), coeff in cls.terms.items():
        if any(dec.kappa):
            expansion = _expansion(graph, dec, rat(coeff))
        else:
            expansion = [(graph, dec, coeff)]
        for t_graph, t_dec, t_coeff in expansion:
            key = (t_graph, t_dec)
            new = terms[key] + t_coeff if key in terms else t_coeff
            if new:
                terms[key] = new
            else:
                terms.pop(key, None)
    return out


# ---------------------------------------------------------------------------
# integration of classes


def vertex_product(genera, dims, at, kappas) -> tuple:
    """(numerator, denominator) of the product of one term's vertex
    integrals: vertex v has genus genera[v], dimension dims[v], the psi
    exponents of list at[v], padded here with zeros to its valence
    dims[v] - 3 g_v + 3, and the sorted kappa indices kappas[v].  A vertex
    whose degree is not its dimension makes it (0, 1); the others read
    the cached `_vertex_integral` on sorted exponents."""
    num = den = 1
    for gv, dim, exps, ks in zip(genera, dims, at, kappas):
        if sum(exps) + sum(ks) != dim:
            return 0, 1
        exps += [0] * (dim - 3 * gv + 3 - len(exps))
        exps.sort()
        value = _vertex_integral(gv, tuple(exps), ks)
        num *= value.numerator
        den *= value.denominator
    return num, den


@cache
def term_integral(graph: StableGraph, dec: Decoration) -> object:
    """Integral of xi_*(dec), the `vertex_product` of its vertices: each
    psi exponent goes to its vertex, read from the cached `vertex_data`
    of the graph (a leg's vertex from `home`; a half-edge key names its
    own vertex)."""
    home, dims = vertex_data(graph)
    at = [[] for _ in dims]
    for key, e in dec.psi:
        at[home[key[1]] if key[0] == PSI_LEG else key[1]].append(e)
    return QQ(*vertex_product(graph.genera, dims, at, dec.kappa))


def integrate(cls: TautClass) -> object:
    """Integrate a top-degree class over Mbar_{g,n}.

    Terms whose vertex dimensions do not match integrate to zero, so a
    virtual (kappa-converted) class is handled by the same product formula.
    The terms are summed as integer numerators over a running common
    denominator, which grows only by the factor a new denominator lacks,
    and the sum becomes one rational at the end.
    """
    if not cls.virtual and cls.d != dim_moduli(cls.g, cls.n):
        raise DomainError(
            f"degree {cls.d} class cannot be integrated on a "
            f"{dim_moduli(cls.g, cls.n)}-dimensional space"
        )
    num, den = 0, 1
    for (graph, dec), coeff in cls.terms.items():
        value = term_integral(graph, dec)
        if value:
            b = coeff.denominator * value.denominator
            if den % b:
                scale = b // gcd(den, b)
                num *= scale
                den *= scale
            num += coeff.numerator * value.numerator * (den // b)
    return QQ(num, den)
