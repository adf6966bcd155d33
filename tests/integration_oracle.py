"""Reference kappa conversion and term integration (tests only).

These are `kappa_to_psi`, `_term_vertex_data` and `term_integral` as they
were before the library cached its partition table, its virtual graphs
and its per-vertex layout: each term is expanded vertex by vertex, every
set partition is walked and every virtual graph is built anew, and every
term integral collects its psi exponents from the decoration and goes
through the public `vertex_integral`, which sorts and checks them again.
`integrate` is the library's sum over terms on this `term_integral`.
`_set_partitions` is a copy of the library's generator, so that the
partition order is checked too.
"""

from functools import cache

from tautring.integration import vertex_integral
from tautring.rationals import ONE, QQ, ZERO
from tautring.stable_graphs import StableGraph
from tautring.taut_classes import PSI_HE, PSI_LEG, Decoration, TautClass, dim_moduli


def _set_partitions(items: list):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [partition[i] + [first]] + partition[i + 1:]
        yield partition + [[first]]


def kappa_to_psi(cls: TautClass) -> TautClass:
    """Trade every kappa decoration for psi insertions on virtual legs.

    Each vertex kappa monomial expands over set partitions P of its factors
    into sum over P of prod_{B in P} (-1)^{|B|-1} times a psi exponent
    sum(B)+1 on a fresh leg of that vertex.  The result integrates to the
    same number as the input; it is marked virtual because its terms live
    on graphs with extra legs and is accepted by `integrate` only.
    """
    out = TautClass(cls.g, cls.n, cls.d, virtual=True)
    for (graph, dec), coeff in cls.terms.items():
        expansions = [(graph, dec, coeff)]
        for v in range(graph.n_vertices):
            new_expansions = []
            for (cur_graph, cur_dec, cur_coeff) in expansions:
                kappas = list(cur_dec.kappa[v])
                if not kappas:
                    new_expansions.append((cur_graph, cur_dec, cur_coeff))
                    continue
                for partition in _set_partitions(kappas):
                    factor = 1
                    for block in partition:
                        factor *= (-1) ** (len(block) - 1)
                    next_mark = (
                        max(
                            [cur_graph.n_markings]
                            + [m for lv in cur_graph.legs for m in lv]
                        )
                        + 1
                    )
                    new_legs = list(map(list, cur_graph.legs))
                    psi = dict(cur_dec.psi)
                    for block in partition:
                        new_legs[v].append(next_mark)
                        psi[(PSI_LEG, next_mark)] = sum(block) + 1
                        next_mark += 1
                    new_graph = StableGraph(
                        cur_graph.genera,
                        tuple(tuple(l) for l in new_legs),
                        cur_graph.edges,
                    )
                    kappa = list(cur_dec.kappa)
                    kappa[v] = ()
                    new_dec = Decoration(psi.items(), kappa)
                    new_expansions.append(
                        (new_graph, new_dec, cur_coeff * factor)
                    )
            expansions = new_expansions
        for (t_graph, t_dec, t_coeff) in expansions:
            key = (t_graph, t_dec)
            new = out.terms.get(key, 0) + QQ(t_coeff)
            if new:
                out.terms[key] = new
            else:
                out.terms.pop(key, None)
    return out


def _term_vertex_data(graph: StableGraph, dec: Decoration):
    """Per-vertex (genus, psi exponent list, kappa list) for integration."""
    exps = dict(dec.psi)
    at = [[exps.get((PSI_LEG, m), 0) for m in legs] for legs in graph.legs]
    for edge in graph.edges:
        for v, s in edge:
            at[v].append(exps.get((PSI_HE, v, s), 0))
    return [(gv, tuple(sorted(e)), k) for gv, e, k in zip(graph.genera, at, dec.kappa)]


@cache
def term_integral(graph: StableGraph, dec: Decoration) -> object:
    """Integral of xi_*(dec): the product of the vertex integrals."""
    value = ONE
    for (gv, psi_exps, kappas) in _term_vertex_data(graph, dec):
        nv = len(psi_exps)
        if sum(psi_exps) + sum(kappas) != dim_moduli(gv, nv):
            value = ZERO
            break
        value *= vertex_integral(gv, psi_exps, kappas)
        if not value:
            break
    return value


def integrate(cls: TautClass) -> object:
    """The sum of coefficient times oracle term integral over the terms."""
    total = ZERO
    for (graph, dec), coeff in cls.terms.items():
        value = term_integral(graph, dec)
        if value:
            total += coeff * value
    return total
