"""Double ramification cycles through weighted-graph sums.

For a genus g and integer weights A = (a_1..a_n) summing to zero, the
degree-d class P_g^d(A) is assembled from stable graphs with edge
weightings mod r: the coefficient of every decorated stratum is a
polynomial in r for large r, and the class of interest is its value at
r = 0.  The double ramification cycle is 2^{-g} times the degree-g
class, and with all weights zero it equals (-1)^g lambda_g.

A weighting enters only through the integer power sums
S_M(r) = sum_w prod_e t_e^{m_e}, with t_e = w(r - w) for the weight w on
an edge's first half, one for every multi-index M of a graph.  A
spanning-tree solve writes every edge weight of a graph as an integer
form in the free edge weights; free weights that share a form make up an
independent block of the cycle space, so S_M is a product over blocks of
sums over r**h1(block) values.  S_M(r) / r**h1 is interpolated per
(graph, M) from samples at r large enough that the weights reduce to
themselves, each fit is checked against one extra sample
(ConsistencyError on disagreement), and the psi splits and leg powers
of each graph are expanded once, with polynomial coefficients.
"""

import itertools
import math
from collections import Counter
from functools import cache

from .combinatorics import compositions, union_find
from .errors import ConsistencyError, DomainError
from .exact_linalg import QPolynomial, lagrange_interpolate
from .rationals import QQ, ZERO, ONE
from .stable_graphs import (
    StableGraph,
    automorphism_count,
    check_stable_type,
    enumerate_stable_graphs,
)
from .taut_classes import (
    PSI_HE,
    PSI_LEG,
    Decoration,
    TautClass,
    canonical_term,
    dim_moduli,
    term_is_zero_class,
    term_sort_key,
)


@cache
def _edge_forms(graph: StableGraph, a: tuple):
    """Every edge weight as an integer form in the free weights.

    A BFS spanning tree rooted at vertex 0 leaves the non-tree edges free;
    free edge j carries x_j on its first half.  Returns (forms, blocks):
    forms[e] = (const, ((j, k), ...)) says that the weight on the first
    half of edge e is const + sum k * x_j mod r (k is -1 or 1, const a
    sum of leg values), for every modulus r dividing sum(a).  blocks
    lists (variables, edges) for each group of free weights that share a
    form; the weights of different blocks are independent.  An edge in
    no block (a bridge) has a constant weight.  The forms do not depend
    on r, so each (graph, a) is solved once for all moduli.
    """
    V = graph.n_vertices
    leg_sum = [sum(a[m - 1] for m in graph.legs[v]) for v in range(V)]

    adjacency = [[] for _ in range(V)]
    for idx, ((v1, s1), (v2, s2)) in enumerate(graph.edges):
        adjacency[v1].append((idx, (v1, s1), (v2, s2), v2))
        if v2 != v1:
            adjacency[v2].append((idx, (v2, s2), (v1, s1), v1))

    # BFS spanning tree; non-tree edges carry the free weights.
    tree_edge = {}  # vertex -> (edge index, half at vertex, half at parent)
    order = [0]
    queue = [0]
    while queue:
        v = queue.pop(0)
        for idx, h_here, h_there, u in adjacency[v]:
            if u not in tree_edge and u != 0:
                tree_edge[u] = (idx, h_there, h_here)
                order.append(u)
                queue.append(u)
    tree_idxs = {idx for idx, _, _ in tree_edge.values()}
    free_idxs = [i for i in range(graph.n_edges) if i not in tree_idxs]

    ends = [[] for _ in range(V)]
    for h in graph.half_edges():
        ends[h[0]].append(h)
    # Half-edge forms as (const, {variable: coefficient}).
    half = {}
    for j, idx in enumerate(free_idxs):
        h1, h2 = graph.edges[idx]
        half[h1] = (0, {j: 1})
        half[h2] = (0, {j: -1})
    # Tree weights are forced, working from the leaves up.
    for u in reversed(order[1:]):
        _, h_at_u, h_at_parent = tree_edge[u]
        const, coeffs = leg_sum[u], {}
        for h in ends[u]:
            if h != h_at_u:
                c, k = half[h]
                const += c
                for j, x in k.items():
                    coeffs[j] = coeffs.get(j, 0) + x
        coeffs = {j: x for j, x in coeffs.items() if x}
        half[h_at_u] = (-const, {j: -x for j, x in coeffs.items()})
        half[h_at_parent] = (const, coeffs)

    forms = []
    for h1, _ in graph.edges:
        const, coeffs = half[h1]
        forms.append((const, tuple(sorted(coeffs.items()))))

    # Union-find over the free weights that share a form; the blocks are
    # numbered in order of their least weight.
    labels = union_find(
        len(free_idxs), ((j, coeffs[0][0]) for _, coeffs in forms for j, _ in coeffs[1:])
    )
    groups = {}
    for j, label in enumerate(labels):
        groups.setdefault(label, ([], []))[0].append(j)
    for e, (_, coeffs) in enumerate(forms):
        if coeffs:
            groups[labels[coeffs[0][0]]][1].append(e)
    blocks = tuple((tuple(js), tuple(es)) for js, es in groups.values())
    return tuple(forms), blocks


def weightings_mod_r(graph: StableGraph, a, r: int):
    """All half-edge weightings mod r for leg values a.

    A weighting puts w in {0..r-1} on every half-edge so that the two
    halves of each edge sum to 0 mod r and, at every vertex, the
    half-edge weights plus the leg values add up to 0 mod r (legs carry
    a_i mod r).  When sum(a) is divisible by r there are exactly
    r**h1(graph) of them; otherwise there are none.

    Returns a list of dicts mapping half-edges to weights.
    """
    if r < 1:
        raise DomainError("modulus r must be positive")
    a = tuple(int(x) for x in a)
    if len(a) != graph.n_markings:
        raise DomainError(
            "%d leg values for a graph with %d markings" % (len(a), graph.n_markings)
        )
    if sum(a) % r != 0:
        return []
    forms, _ = _edge_forms(graph, a)
    root_legs = sum(a[m - 1] for m in graph.legs[0])
    root_ends = [(0, s) for s in graph.edge_ends(0)]

    results = []
    for assign in itertools.product(range(r), repeat=graph.h1()):
        w = {}
        for (h1, h2), (const, coeffs) in zip(graph.edges, forms):
            x = (const + sum(k * assign[j] for j, k in coeffs)) % r
            w[h1] = x
            w[h2] = (-x) % r
        if (root_legs + sum(w[h] for h in root_ends)) % r != 0:
            raise ConsistencyError("root vertex condition failed")
        results.append(w)
    return results


def _power_sums(graph: StableGraph, a, d: int, r: int):
    """S_M(r) = sum over weightings mod r of prod_e t_e^{m_e}, per M.

    t_e = w(r - w) for the weight w on the first half of edge e (the
    product of its two half weights).  Returns a dict over the
    multi-indices M = (m_1..m_E) with every m_e >= 1 and sum at most d,
    in lexicographic order.  Each block of `_edge_forms` contributes a
    Counter of its t-tuples over its r**h1(block) weightings, and S_M is
    the product over blocks of sum n * prod t^m, times the fixed t^m of
    the bridges.
    """
    E = graph.n_edges
    indices = [tuple(m + 1 for m in c[:-1]) for c in compositions(d - E, (d - E,) * (E + 1))]
    if sum(a) % r != 0:
        return {M: 0 for M in indices}
    forms, blocks = _edge_forms(graph, a)
    t_of = [w * (r - w) for w in range(r)]
    fixed = [(e, t_of[const % r]) for e, (const, coeffs) in enumerate(forms) if not coeffs]
    counts = []
    for variables, edges in blocks:
        local = {j: i for i, j in enumerate(variables)}
        assigns = list(itertools.product(range(r), repeat=len(variables)))
        columns = []
        for e in edges:
            const, coeffs = forms[e]
            column = [const] * len(assigns)
            for j, k in coeffs:
                i = local[j]
                column = [w + k * x[i] for w, x in zip(column, assigns)]
            columns.append([t_of[w % r] for w in column])
        counts.append((edges, list(Counter(zip(*columns)).items())))

    sums = {}
    block_sums = {}
    for M in indices:
        total = 1
        for e, t in fixed:
            total *= t ** M[e]
        for b, (edges, items) in enumerate(counts):
            if not total:
                break
            ms = tuple(M[e] for e in edges)
            value = block_sums.get((b, ms))
            if value is None:
                value = 0
                for ts, n in items:
                    for t, m in zip(ts, ms):
                        n *= t**m
                    value += n
                block_sums[(b, ms)] = value
            total *= value
        sums[M] = total
    return sums


def _expansion(graph: StableGraph, a, d: int):
    """The graph's share of the degree-d class, as key -> {M: c}.

    At modulus r the share is the sum over canonical keys (graph,
    decoration) and multi-indices M of c * S_M(r) / r**h1(graph).  c
    collects 1/|Aut|, the edge factors (-1)^{m+1}/m!, the binomials of
    the psi splits (psi_h + psi_h')^{m-1} on each edge and the leg factors
    a_i^{2k}/k! of the remaining degree.  Zero classes are dropped.
    """
    aut = QQ(1, automorphism_count(graph))
    out = {}
    E = graph.n_edges
    # M = excess + 1 on each edge; the remaining degree goes to the legs
    for *excess, rest in compositions(d - E, (d - E,) * (E + 1)):
        M = tuple(m + 1 for m in excess)
        edge_coeff = aut
        for m in M:
            edge_coeff *= QQ((-1) ** (m + 1), math.factorial(m))
        # psi splits (psi_h + psi_h')^{m-1} on each edge
        for splits in itertools.product(*(range(m) for m in M)):
            split_coeff = edge_coeff
            psi_base: dict = {}
            for e, i in enumerate(splits):
                m = M[e]
                split_coeff *= math.comb(m - 1, i)
                (va, sa), (vb, sb) = graph.edges[e]
                if i:
                    key = (PSI_HE, va, sa)
                    psi_base[key] = psi_base.get(key, 0) + i
                if m - 1 - i:
                    key = (PSI_HE, vb, sb)
                    psi_base[key] = psi_base.get(key, 0) + (m - 1 - i)
            # leg exponents absorb the remaining degree
            for ks in compositions(rest, (rest,) * len(a)):
                if any(k and not x for k, x in zip(ks, a)):
                    continue
                coeff = split_coeff
                psi = dict(psi_base)
                for i, k in enumerate(ks):
                    if k:
                        coeff *= QQ(a[i] ** (2 * k), math.factorial(k))
                        psi[(PSI_LEG, i + 1)] = k
                dec = Decoration(psi.items(), ((),) * graph.n_vertices)
                if term_is_zero_class(graph, dec):
                    continue
                per_m = out.setdefault(canonical_term(graph, dec), {})
                per_m[M] = per_m.get(M, 0) + coeff
    return out


def _summed_graphs(g: int, a, d: int):
    """The stable graphs with at most d edges, after checking the type
    (g, len(a)) and d."""
    check_stable_type(g, len(a))
    if d < 0 or d > dim_moduli(g, len(a)):
        raise DomainError("degree out of range")
    return [graph for graph in enumerate_stable_graphs(g, len(a)) if graph.n_edges <= d]


def pixton_class_at_r(g: int, a, d: int, r: int) -> TautClass:
    """The degree-d weighted-graph class evaluated at a concrete modulus."""
    a = tuple(int(x) for x in a)
    if r < 1:
        raise DomainError("modulus r must be positive")
    if sum(a) % r != 0:
        raise DomainError("sum of weights must vanish mod r")
    out = TautClass(g, len(a), d)
    for graph in _summed_graphs(g, a, d):
        sums = _power_sums(graph, a, d, r)
        scale = QQ(r) ** graph.h1()
        for key, per_m in _expansion(graph, a, d).items():
            coeff = sum(c * sums[M] for M, c in per_m.items()) / scale
            if coeff:
                out.terms[key] = coeff
    return out


class RPolynomialClass:
    """A tautological class whose coefficients are polynomials in r."""

    __slots__ = ("g", "n", "d", "coeffs")

    def __init__(self, g, n, d, coeffs):
        self.g = g
        self.n = n
        self.d = d
        self.coeffs = coeffs  # dict (graph, dec) -> QPolynomial

    def at(self, r) -> TautClass:
        out = TautClass(self.g, self.n, self.d)
        for (graph, dec), poly in self.coeffs.items():
            value = poly(r)
            if value:
                out.terms[(graph, dec)] = value
        return out


def pixton_r_polynomial(g: int, a, d: int, start: int = None) -> RPolynomialClass:
    """Interpolate the class as a polynomial in the modulus r.

    Samples the power sums S_M(r) of every graph at 2d+2 consecutive
    values of r beginning at `start`, which is by default and at least
    just past d and the sum of the positive a_i, the largest weight a
    bridge can carry (a smaller start raises DomainError), and fits
    S_M(r) / r**h1 exactly for each (graph, M).  Every fit is verified
    against one further sample; disagreement raises ConsistencyError.
    Each stratum coefficient is then the matching combination of the
    fitted polynomials.
    """
    a = tuple(int(x) for x in a)
    if sum(a) != 0:
        raise DomainError("weights must sum to zero")
    least = max(d, sum(x for x in a if x > 0)) + 2
    if start is None:
        start = least
    elif start < least:
        raise DomainError("start must be at least %d here" % least)
    n_samples = 2 * d + 2
    rs = list(range(start, start + n_samples))
    r_check = start + n_samples

    coeffs = {}
    for graph in _summed_graphs(g, a, d):
        h1 = graph.h1()
        samples = [_power_sums(graph, a, d, r) for r in rs]
        checks = _power_sums(graph, a, d, r_check)
        fits = {}
        for M, value in checks.items():
            fit = lagrange_interpolate(
                [(r, QQ(sums[M], r**h1)) for r, sums in zip(rs, samples)]
            )
            if fit(r_check) != QQ(value, r_check**h1):
                raise ConsistencyError(
                    "interpolated power sum %r of %r disagrees with a fresh "
                    "sample at r=%d" % (M, graph, r_check)
                )
            fits[M] = fit.coeffs
        for key, per_m in _expansion(graph, a, d).items():
            total = [ZERO] * n_samples
            for M, c in per_m.items():
                for i, x in enumerate(fits[M]):
                    total[i] += c * x
            poly = QPolynomial(total)
            if poly.coeffs:
                coeffs[key] = poly
    ordered = sorted(coeffs, key=term_sort_key)
    return RPolynomialClass(g, len(a), d, {key: coeffs[key] for key in ordered})


def pixton_class(g: int, a, d: int, start: int = None) -> TautClass:
    """Value at r = 0 of the interpolated polynomial class."""
    return pixton_r_polynomial(g, a, d, start=start).at(0)


def dr_cycle(g: int, a, start: int = None) -> TautClass:
    """Double ramification cycle for weights summing to zero."""
    a = tuple(int(x) for x in a)
    if sum(a) != 0:
        raise DomainError("double ramification weights must sum to zero")
    cls = pixton_class(g, a, g, start=start)
    return QQ(1, 2**g) * cls


def lambda_top(g: int, n: int = 0, start: int = None) -> TautClass:
    """lambda_g expressed in decorated strata, via weights all zero."""
    if g < 1:
        raise DomainError("lambda_g needs positive genus")
    check_stable_type(g, n)
    sign = -ONE if g % 2 else ONE
    return sign * dr_cycle(g, (0,) * n, start=start)


def reference_lambda_expansion(g: int, n: int = 0) -> TautClass:
    """Frozen boundary expansions of lambda_g for small genus.

    These expansions are fixed reference data (independently derived and
    cross-checked); the computed lambda_top must reproduce them exactly.
    """
    if (g, n) == (1, 1):
        loop = StableGraph((0,), ((1,),), (((0, 0), (0, 1)),))
        out = TautClass(1, 1, 1)
        out._insert(loop, Decoration((), ((),)), QQ(1, 24))
        return out
    if (g, n) == (2, 0):
        L = StableGraph((1,), ((),), (((0, 0), (0, 1)),))
        B = StableGraph((0,), ((),), (((0, 0), (0, 1)), ((0, 2), (0, 3))))
        out = TautClass(2, 0, 2)
        out._insert(L, Decoration((((PSI_HE, 0, 0), 1),), ((),)), QQ(1, 240))
        out._insert(B, Decoration((), ((),)), QQ(1, 1152))
        return out
    if (g, n) == (3, 0):
        G_loop2 = StableGraph((2,), ((),), (((0, 0), (0, 1)),))
        G_banana = StableGraph(
            (1, 1), ((), ()), (((0, 0), (1, 0)), ((0, 1), (1, 1)))
        )
        G_two_loops = StableGraph(
            (1,), ((),), (((0, 0), (0, 1)), ((0, 2), (0, 3)))
        )
        G_theta = StableGraph(
            (0, 1),
            ((), ()),
            (((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 2))),
        )
        G_loop_banana = StableGraph(
            (0, 1),
            ((), ()),
            (((0, 0), (0, 1)), ((0, 2), (1, 0)), ((0, 3), (1, 1))),
        )
        G_three_loops = StableGraph(
            (0,),
            ((),),
            (((0, 0), (0, 1)), ((0, 2), (0, 3)), ((0, 4), (0, 5))),
        )
        out = TautClass(3, 0, 3)
        out._insert(
            G_loop2, Decoration((((PSI_HE, 0, 0), 2),), ((),)), QQ(1, 2016)
        )
        out._insert(
            G_loop2,
            Decoration((((PSI_HE, 0, 0), 1), ((PSI_HE, 0, 1), 1)), ((),)),
            QQ(1, 2016),
        )
        out._insert(
            G_banana, Decoration((((PSI_HE, 0, 0), 1),), ((), ())), QQ(-1, 672)
        )
        out._insert(
            G_two_loops, Decoration((((PSI_HE, 0, 0), 1),), ((),)), QQ(1, 5760)
        )
        out._insert(G_theta, Decoration((), ((), ())), QQ(-13, 30240))
        out._insert(G_loop_banana, Decoration((), ((), ())), QQ(-1, 5760))
        out._insert(G_three_loops, Decoration((), ((),)), QQ(1, 82944))
        return out
    raise DomainError("no stored expansion for this signature")
