"""Products of decorated strata classes by excess intersection.

The product of two pushforward classes is computed stratum by stratum:
every common degeneration contributes the pullbacks of the two factor
decorations times an excess class, one factor -psi_h - psi_h' for each
edge that survives in both contractions, and the contribution is
weighted by 1/|Aut| of the degeneration.

One walk serves `multiply` and the top pairing (`_common`): each graph
of `stable_graphs.common_degenerations` is visited once for all the
terms of both sides, every term is pulled back once per contraction onto
its graph, and the pulls of contractions with disjoint contracted edges
are paired.  Pulled-back monomials are psi exponent vectors with
per-vertex kappa tuples, grouped by degree at each vertex; a kappa
preimage or excess factor goes only where its vertex has room below its
dimension, since a term beyond it is zero.  `multiply` sums integer
counts per stratum term and builds each `Decoration` once;
`term_pairing` sums the integrals of each distinct row term in integers
and builds none, and `pairing_matrix` sums its rows from those.
"""

import itertools
from functools import cache
from math import gcd, lcm
from operator import add, le, sub

from . import stable_graphs as sg
from .errors import DomainError
from .integration import vertex_product
from .rationals import QQ, ZERO
from .taut_classes import (
    PSI_HE,
    PSI_LEG,
    Decoration,
    TautClass,
    dim_moduli,
    fundamental_class,
    vertex_data,
)

@cache
def _aut_orbit_sum(graph, dec):
    """Distinct transports of dec under Aut(graph), with multiplicities.

    Summing a decoration over the automorphism group shows up once per
    factor of a product; collapsing repeats into multiplicities keeps the
    later pullback loops short.
    """
    out: dict = {}
    for vmap, hemap in sg.automorphisms(graph):
        moved = dec.transport(vmap, hemap)
        out[moved] = out.get(moved, 0) + 1
    return out


@cache
def _layout(graph):
    """(slot, owner, dims): slot numbers the psi keys as positions of an
    exponent vector, owner[i] is the vertex of position i, dims the
    vertex dimensions."""
    keys = [(v, (PSI_LEG, m)) for v, legs in enumerate(graph.legs) for m in legs]
    keys += [(v, (PSI_HE, v, s)) for edge in graph.edges for v, s in edge]
    slot = {key: i for i, (_, key) in enumerate(keys)}
    owner = [v for v, _ in keys]
    return slot, owner, vertex_data(graph)[1]


def _plan(layout, vmap, he_inv):
    """(position, preimages) of a contraction onto a term's graph: the
    exponent-vector position of each psi key of that graph, and the
    degeneration vertices over each of its vertices.

    `vmap` and `he_inv` are those of an entry of
    `stable_graphs.common_degenerations`: where each vertex of the
    degeneration lands, and which of its half-edges sits over each
    half-edge of the term's graph.
    """
    slot = layout[0]
    # legs keep their keys; every half-edge key of the term's graph is
    # overwritten, so the degeneration's own half-edge keys are never read
    position = slot.copy()
    for h, k in he_inv.items():
        position[(PSI_HE, *h)] = slot[(PSI_HE, *k)]
    preimages = [[] for _ in range(max(vmap) + 1)]
    for v, w in enumerate(vmap):
        preimages[w].append(v)
    return position, preimages


def _pull(layout, plan, orbit):
    """Pull (decoration, multiplicity) pairs back along a contraction, given
    by its `_plan`.

    Returns {degrees: {(psi, kappa): multiplicity}}, kappa None or
    per-vertex sorted tuples.  A kappa class pulls back to the sum over
    the preimages; a choice is dropped if a vertex exceeds its dimension.
    """
    _, owner, dims = layout
    position, preimages = plan
    out: dict = {}
    for dec, mult in orbit:
        psi = [0] * len(owner)
        degrees = [0] * len(dims)
        for key, e in dec.psi:
            i = position[key]
            psi[i] += e
            degrees[owner[i]] += e
        psi = tuple(psi)
        if not any(dec.kappa):  # the one choice: psi alone
            if all(map(le, degrees, dims)):
                monos = out.setdefault(tuple(degrees), {})
                monos[psi, None] = monos.get((psi, None), 0) + mult
            continue
        factors = [(a, preimages[w]) for w, ks in enumerate(dec.kappa) for a in ks]
        for choice in itertools.product(*(vertices for _, vertices in factors)):
            kappa = [[] for _ in dims]
            at = degrees[:]
            for (a, _), v in zip(factors, choice):
                at[v] += a
                kappa[v].append(a)
            if all(map(le, at, dims)):
                key = (psi, tuple(map(tuple, map(sorted, kappa))))
                monos = out.setdefault(tuple(at), {})
                monos[key] = monos.get(key, 0) + mult
    return out


def _excess(ends, budget):
    """Positions of each way to place one psi per shared edge, edge by
    edge where the vertex budget has room; ends holds each edge's
    (position, vertex) ends.  These are the terms of prod (-psi_h - psi_h')
    up to sign, in the order of the choices made edge by edge."""
    partial = [((), tuple(budget))]
    for edge in ends:
        partial = [
            (picked + (pos,), left[:v] + (left[v] - 1,) + left[v + 1:])
            for picked, left in partial
            for pos, v in edge
            if left[v] > 0
        ]
    return [picked for picked, _ in partial]


def _ends(layout, graph, shared):
    return [[(layout[0][(PSI_HE, *h)], h[0]) for h in graph.edges[i]] for i in shared]


def _placements(dims, ends, deg_a, deg_b, fits):
    """The excess placements that fit beside vertex degrees deg_a + deg_b,
    memoized in fits by the budget they leave."""
    budget = tuple(map(sub, dims, map(add, deg_a, deg_b)))
    picks = fits.get(budget)
    if picks is None:
        fits[budget] = picks = min(budget) >= 0 and _excess(ends, budget)
    return picks


def _terms(monos_a, monos_b, picks):
    """(psi, kappa, count) of monos_a * monos_b * excess, one excess
    placement of picks per term; the sign is (-1)^(shared edges)."""
    sign = -1 if len(picks[0]) % 2 else 1
    for (psi_a, kappa_a), ka in monos_a.items():
        ka *= sign
        for (psi_b, kappa_b), kb in monos_b.items():
            psi_ab = list(map(add, psi_a, psi_b))
            if kappa_a is None or kappa_b is None:
                kappa = kappa_b if kappa_a is None else kappa_a
            else:
                kappa = tuple(tuple(sorted(x + y)) for x, y in zip(kappa_a, kappa_b))
            for pick in picks:
                psi = psi_ab[:]
                for i in pick:
                    psi[i] += 1
                yield tuple(psi), kappa, ka * kb


def _check_product(a, b, top):
    """Raise DomainError unless a * b is defined (and of top degree if top)."""
    if a.virtual or b.virtual:
        raise DomainError("virtual psi classes only support integration")
    if (a.g, a.n) != (b.g, b.n):
        raise DomainError("classes live on different moduli spaces")
    d, dim = a.d + b.d, dim_moduli(a.g, a.n)
    if d > dim or top and d < dim:
        raise DomainError("product degree %d against dimension %d" % (d, dim))


def multiply(a: TautClass, b: TautClass) -> TautClass:
    """Excess intersection product of two decorated strata classes, summed
    in integers per (graph, psi, kappa) over integer-scaled factors."""
    _check_product(a, b, top=False)
    out = TautClass(a.g, a.n, a.d + b.d)
    sa, sb = (lcm(*(c.denominator for c in x.terms.values())) for x in (a, b))
    ka = [c.numerator * (sa // c.denominator) for c in a.terms.values()]
    kb = [c.numerator * (sb // c.denominator) for c in b.terms.values()]
    counts: dict = {}
    for graph, pulled_a, pulled_b, picks in _common(list(a.terms), list(b.terms), a.g, a.n):
        for t, monos_a in pulled_a:
            for c, monos_b in pulled_b:
                k = ka[t] * kb[c]
                for psi, kappa, count in _terms(monos_a, monos_b, picks):
                    key = (graph, psi, kappa)
                    counts[key] = counts.get(key, 0) + k * count
    for (graph, psi, kappa), k in counts.items():
        names = tuple(_layout(graph)[0])
        psi = ((names[i], e) for i, e in enumerate(psi) if e)
        dec = Decoration(psi, kappa or ((),) * graph.n_vertices)
        out._insert(graph, dec, QQ(k, sa * sb * sg.automorphism_count(graph)))
    return out


# ---------------------------------------------------------------------------
# the top pairing, one degeneration graph at a time


@cache
def _term_value(graph, psi, kappa):
    """The integral of a pulled-back term (exponent vector psi, kappa None
    or per vertex) over |Aut(graph)|, as reduced (numerator, denominator)."""
    _, owner, dims = _layout(graph)
    at = [[] for _ in dims]
    for v, e in zip(owner, psi):
        at[v].append(e)
    num, den = vertex_product(graph.genera, dims, at, kappa or ((),) * len(dims))
    den *= sg.automorphism_count(graph)
    common = gcd(num, den)
    return num // common, den // common


def _by_graph(terms):
    """{graph: [(position, orbit)]} of the terms, numbered in order."""
    out: dict = {}
    for i, (graph, dec) in enumerate(terms):
        out.setdefault(graph, []).append((i, _aut_orbit_sum(graph, dec).items()))
    return out


def _pulls(layout, entries):
    """(bits, {degrees: [(position, monomials)]}) per entry, with each
    term pulled back once along the entry's one plan and its monomials
    grouped by vertex degrees."""
    out = []
    for bits, vmap, he_inv, terms in entries:
        plan = _plan(layout, vmap, he_inv)
        by_degrees: dict = {}
        for i, orbit in terms:
            for degrees, monos in _pull(layout, plan, orbit).items():
                by_degrees.setdefault(degrees, []).append((i, monos))
        if by_degrees:
            out.append((bits, by_degrees))
    return out


def _matches(layout, graph, rows, cols):
    """(row pulls, column pulls, excess placements) per pair of vertex
    degrees that fit, over every pair of contractions whose contracted
    edges are disjoint (a common degeneration); the edges kept by both
    carry the excess factors."""
    for bits_a, rows_by_degrees in rows:
        for bits_b, cols_by_degrees in cols:
            if bits_a & bits_b:
                continue
            both = bits_a | bits_b
            shared = [i for i in range(graph.n_edges) if not both >> i & 1]
            ends, fits = _ends(layout, graph, shared), {}
            for deg_a, pulled_rows in rows_by_degrees.items():
                for deg_b, pulled_cols in cols_by_degrees.items():
                    picks = _placements(layout[2], ends, deg_a, deg_b, fits)
                    if picks:
                        yield pulled_rows, pulled_cols, picks


def _common(row_terms, col_terms, g, n):
    """(graph, row pulls, column pulls, excess placements) of `_matches`
    over every common degeneration of a row term and a column term, with
    each term pulled back once per contraction onto its graph."""
    rows, cols = _by_graph(row_terms), _by_graph(col_terms)
    for graph, row_entries, col_entries in sg.common_degenerations(g, n, rows, cols):
        layout = _layout(graph)
        pulled_rows = _pulls(layout, row_entries)
        pulled_cols = _pulls(layout, col_entries)
        for match in _matches(layout, graph, pulled_rows, pulled_cols):
            yield graph, *match


def _term_sums(row_terms, col_terms, g, n):
    """[denominator, numerators over col_terms] of each row term."""
    sums = [[1, [0] * len(col_terms)] for _ in row_terms]
    for graph, pulled_rows, pulled_cols, picks in _common(row_terms, col_terms, g, n):
        for t, monos_a in pulled_rows:
            total, nums = slot = sums[t]
            for c, monos_b in pulled_cols:
                for psi, kappa, count in _terms(monos_a, monos_b, picks):
                    num, den = _term_value(graph, psi, kappa)
                    if num and total % den:
                        scale = den // gcd(total, den)
                        total *= scale
                        nums[:] = [x * scale for x in nums]
                    nums[c] += count * num * (total // den)
            slot[0] = total
    return sums


def term_pairing(rows, basis) -> dict:
    """{term: (denominator, numerators)} of every distinct term of rows, in
    order of first appearance: the integral of the term times basis[j] is
    numerators[j] / denominator.

    Every distinct row term is paired with every distinct column term in
    one walk over the common degenerations (`_term_sums`), and each term's
    integer sums are carried onto the basis classes once.
    """
    rows, basis = tuple(rows), tuple(basis)
    terms = list(dict.fromkeys(t for x in rows for t in x.terms))
    if not basis:
        return {term: (1, []) for term in terms}
    for x in rows:
        _check_product(x, basis[0], top=True)
    for b in basis if rows else ():
        _check_product(rows[0], b, top=True)
    if not terms:
        return {}
    uses: dict = {}
    for j, b in enumerate(basis):
        for term, coeff in b.terms.items():
            uses.setdefault(term, []).append((j, coeff))
    sums = _term_sums(terms, list(uses), rows[0].g, rows[0].n)
    scale = lcm(*(c.denominator for use in uses.values() for _, c in use))
    uses = [[(j, int(c * scale)) for j, c in use] for use in uses.values()]
    out = {}
    for term, (den, nums) in zip(terms, sums):
        row = [0] * len(basis)
        for num, use in zip(nums, uses):
            if num:
                for j, c in use:
                    row[j] += num if c == 1 else num * c
        out[term] = (den * scale, row)
    return out


def summed_row(x, pairs, columns):
    """(denominator, numerators) of the integrals of x times the basis
    classes at the given columns, summed in integers from the
    `term_pairing` rows of its terms."""
    total, row = 1, [0] * len(columns)
    for term, coeff in x.terms.items():
        den, nums = pairs[term]
        den *= coeff.denominator
        if total % den:
            factor = den // gcd(total, den)
            total *= factor
            row = [v * factor for v in row]
        factor = coeff.numerator * (total // den)
        row = [v + nums[c] * factor for v, c in zip(row, columns)]
    return total, row


def pairing_matrix(rows, basis) -> list:
    """Integrals of each class of rows times each class of basis, each row
    a `summed_row` over one denominator."""
    rows, basis = tuple(rows), tuple(basis)
    pairs = term_pairing(rows, basis)
    out = []
    for x in rows:
        total, row = summed_row(x, pairs, range(len(basis)))
        out.append([QQ(v, total) if v else ZERO for v in row])
    return out


def power(a: TautClass, k: int) -> TautClass:
    """k-th power under the excess intersection product."""
    if k < 0:
        raise DomainError("negative powers are not defined")
    result = fundamental_class(a.g, a.n)
    for _ in range(k):
        result = multiply(result, a)
    return result
