"""Reference Pixton sampler (tests only).

This is the sampler that the library's per-block power sums replaced:
for every sample r it lists all r**h1 weightings of every stable graph
as dicts, sums prod_e t_e^{m_e} over them, expands the ψ splits and leg
compositions of the graph again for each r, and interpolates the class
coefficient by coefficient, cross-checking the whole class at one more
r.  It is slow but follows the weighted-graph sum as written, so
`pixton._power_sums`, `pixton_r_polynomial`, `dr_cycle` and `lambda_top`
are checked against it.
"""

import itertools
import math

from tautring.errors import ConsistencyError, DomainError
from tautring.exact_linalg import lagrange_interpolate
from tautring.pixton import RPolynomialClass
from tautring.rationals import QQ, ZERO, ONE
from tautring.stable_graphs import StableGraph, automorphism_count, enumerate_stable_graphs
from tautring.taut_classes import (
    PSI_HE,
    PSI_LEG,
    Decoration,
    TautClass,
    dim_moduli,
)


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
    if sum(a) % r != 0:
        return []
    V = graph.n_vertices
    leg_sum = [sum(a[m - 1] for m in graph.legs[v]) for v in range(V)]

    adjacency = [[] for _ in range(V)]
    for idx, ((v1, s1), (v2, s2)) in enumerate(graph.edges):
        adjacency[v1].append((idx, (v1, s1), (v2, s2), v2))
        if v2 != v1:
            adjacency[v2].append((idx, (v2, s2), (v1, s1), v1))

    # BFS spanning tree; non-tree edges carry the free weights.
    parent = {0: None}
    tree_edge = {}  # vertex -> (edge index, half at vertex, half at parent)
    order = [0]
    queue = [0]
    while queue:
        v = queue.pop(0)
        for idx, h_here, h_there, u in adjacency[v]:
            if u not in parent:
                parent[u] = v
                tree_edge[u] = (idx, h_there, h_here)
                order.append(u)
                queue.append(u)
    tree_idxs = {idx for idx, _, _ in tree_edge.values()}
    free_idxs = [i for i in range(graph.n_edges) if i not in tree_idxs]
    # Per vertex, the half-edges that fix the weight of its tree edge.
    others = {
        u: [(u, s) for s in graph.edge_ends(u) if (u, s) != tree_edge[u][1]]
        for u in order[1:]
    }
    root_ends = [(0, s) for s in graph.edge_ends(0)]

    results = []
    for assign in itertools.product(range(r), repeat=len(free_idxs)):
        w = {}
        for idx, x in zip(free_idxs, assign):
            h1, h2 = graph.edges[idx]
            w[h1] = x
            w[h2] = (-x) % r
        # Tree weights are forced, working from the leaves up.
        for u in reversed(order):
            if u == 0:
                continue
            _, h_at_u, h_at_parent = tree_edge[u]
            total = leg_sum[u]
            for h in others[u]:
                total += w[h]
            w[h_at_u] = (-total) % r
            w[h_at_parent] = total % r
        root_sum = leg_sum[0] + sum(w[h] for h in root_ends)
        if root_sum % r != 0:
            raise ConsistencyError("root vertex condition failed")
        results.append(w)
    return results


def _compositions(total: int, parts: int):
    """Tuples of `parts` nonnegative ints summing to total, in
    lexicographic order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _multi_indices(n_edges: int, max_total: int):
    """Tuples (m_1..m_E), every m_e >= 1, summing to at most max_total."""
    if n_edges == 0:
        return [()]
    out = []

    def rec(prefix, remaining):
        slot = len(prefix)
        if slot == n_edges:
            out.append(tuple(prefix))
            return
        most = remaining - (n_edges - slot - 1)
        for m in range(1, most + 1):
            rec(prefix + [m], remaining - m)

    rec([], max_total)
    return out


def _graph_contribution(out: TautClass, graph: StableGraph, a, d: int, r: int):
    """Add the weighted-graph sum for one stable graph into `out`."""
    E = graph.n_edges
    if E > d:
        return
    h1 = graph.h1()
    weightings = weightings_mod_r(graph, a, r)
    indices = _multi_indices(E, d)
    # Power sums over the weighting set: for each multi-index M the sum
    # of prod_e t_e^{m_e} with t_e the product of the two half weights.
    power_sums = {M: 0 for M in indices}
    for w in weightings:
        ts = [w[h1_] * w[h2_] for (h1_, h2_) in graph.edges]
        powers = [[1] * (d + 1) for _ in range(E)]
        for e in range(E):
            for m in range(1, d + 1):
                powers[e][m] = powers[e][m - 1] * ts[e]
        for M in indices:
            prod = 1
            for e, m in enumerate(M):
                prod *= powers[e][m]
            power_sums[M] += prod

    scale = ONE / (automorphism_count(graph) * QQ(r) ** h1)
    leg_of_mark = {}
    for v in range(graph.n_vertices):
        for m in graph.legs[v]:
            leg_of_mark[m] = v

    for M in indices:
        s = power_sums[M]
        if not s:
            continue
        edge_coeff = QQ(s)
        for m in M:
            edge_coeff *= QQ((-1) ** (m + 1), math.factorial(m))
        rest = d - sum(M)
        # psi splits (psi_h + psi_h')^{m-1} on each edge
        split_ranges = [range(m) for m in M]
        for splits in itertools.product(*split_ranges):
            split_coeff = ONE
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
            for ks in _compositions(rest, len(a)):
                coeff = scale * edge_coeff * split_coeff
                psi = dict(psi_base)
                dead = False
                for i, k in enumerate(ks):
                    if k == 0:
                        continue
                    if a[i] == 0:
                        dead = True
                        break
                    coeff *= QQ(a[i] ** (2 * k), math.factorial(k))
                    psi[(PSI_LEG, i + 1)] = k
                if dead or not coeff:
                    continue
                dec = Decoration(
                    tuple(sorted(psi.items())), ((),) * graph.n_vertices
                )
                out._insert(graph, dec, coeff)


def pixton_class_at_r(g: int, a, d: int, r: int) -> TautClass:
    """The degree-d weighted-graph class evaluated at a concrete modulus."""
    a = tuple(int(x) for x in a)
    n = len(a)
    if d < 0 or d > dim_moduli(g, n):
        raise DomainError("degree out of range")
    if r < 1:
        raise DomainError("modulus r must be positive")
    if sum(a) % r != 0:
        raise DomainError("sum of weights must vanish mod r")
    out = TautClass(g, n, d)
    for graph in enumerate_stable_graphs(g, n):
        if graph.n_edges <= d:
            _graph_contribution(out, graph, a, d, r)
    return out


def pixton_r_polynomial(g: int, a, d: int, start: int = None) -> RPolynomialClass:
    """Interpolate the class as a polynomial in the modulus r.

    Samples 2d+2 consecutive values of r beginning at `start` (by default
    just past d and every |a_i|), fits each stratum coefficient exactly,
    and verifies the fit against one further sample; disagreement raises
    ConsistencyError.
    """
    a = tuple(int(x) for x in a)
    if sum(a) != 0:
        raise DomainError("weights must sum to zero")
    if start is None:
        start = max([d] + [abs(x) for x in a]) + 2
    if start < 2:
        start = 2
    n_samples = 2 * d + 2
    rs = list(range(start, start + n_samples))
    samples = [pixton_class_at_r(g, a, d, r) for r in rs]

    keys = set()
    for cls in samples:
        keys.update(cls.terms)
    coeffs = {}
    for key in sorted(keys, key=lambda k: (k[0].sort_key(), k[1].sort_key())):
        points = [
            (r, cls.terms.get(key, ZERO)) for r, cls in zip(rs, samples)
        ]
        poly = lagrange_interpolate(points)
        if poly.coeffs:
            coeffs[key] = poly
    result = RPolynomialClass(g, len(a), d, coeffs)

    r_check = start + n_samples
    direct = pixton_class_at_r(g, a, d, r_check)
    if result.at(r_check) != direct:
        raise ConsistencyError(
            "interpolated class disagrees with a fresh sample at r=%d" % r_check
        )
    return result
