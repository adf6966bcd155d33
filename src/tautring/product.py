"""Products of decorated strata classes by excess intersection.

The product of two pushforward classes is computed stratum by stratum:
every common degeneration contributes the pullbacks of the two factor
decorations times an excess class, one factor -psi_h - psi_h' for each
edge that survives in both contractions, and the contribution is
weighted by 1/|Aut| of the degeneration.

One kernel, `_excess_terms`, produces these contributions with integer
multiplicities per degeneration graph.  `multiply` inserts them into a
canonicalized class; `product_integral` integrates them as they come,
which is all the top pairing needs.
"""

import itertools

from . import stable_graphs as sg
from .errors import DomainError
from .integration import term_integral
from .rationals import ZERO
from .taut_classes import (
    PSI_HE,
    Decoration,
    TautClass,
    decoration_mul,
    dim_moduli,
    fundamental_class,
)

_ORBIT_CACHE: dict = {}


def _aut_orbit_sum(graph, dec):
    """Distinct transports of dec under Aut(graph), with multiplicities.

    Summing a decoration over the automorphism group shows up once per
    factor of a product; collapsing repeats into multiplicities keeps the
    later pullback loops short.
    """
    key = (graph, dec)
    cached = _ORBIT_CACHE.get(key)
    if cached is not None:
        return cached
    out: dict = {}
    for vmap, hemap in sg.automorphisms(graph):
        moved = dec.transport(vmap, hemap)
        out[moved] = out.get(moved, 0) + 1
    _ORBIT_CACHE[key] = out
    return out


def _pullback_monomials(graph, vmap, he_inv, dec):
    """Pull a factor decoration back along a contraction of `graph`.

    `vmap` sends each vertex of `graph` to the factor vertex it lands on
    and `he_inv` names, for every factor half-edge, the half-edge of
    `graph` sitting over it.  Psi classes transport along those maps; a
    kappa class pulls back to the sum over preimage vertices, so the
    result is a list of (Decoration, multiplicity) pairs.
    """
    psi = []
    for key, e in dec.psi:
        if key[0] == PSI_HE:
            nv, ns = he_inv[(key[1], key[2])]
            psi.append(((PSI_HE, nv, ns), e))
        else:
            psi.append((key, e))
    base_psi = tuple(sorted(psi))

    preimages = [[] for _ in dec.kappa]
    for v in range(graph.n_vertices):
        preimages[vmap[v]].append(v)
    factors = []
    for w, ks in enumerate(dec.kappa):
        for a in ks:
            factors.append((a, preimages[w]))
    if not factors:
        empty = ((),) * graph.n_vertices
        return [(Decoration(base_psi, empty), 1)]

    out: dict = {}
    for choice in itertools.product(*(pre for _, pre in factors)):
        kap = [[] for _ in range(graph.n_vertices)]
        for (a, _), v in zip(factors, choice):
            kap[v].append(a)
        mono = Decoration(base_psi, tuple(tuple(sorted(k)) for k in kap))
        out[mono] = out.get(mono, 0) + 1
    return list(out.items())


def _excess_monomials(graph, shared):
    """Expansion of prod over shared edges of (-psi_h - psi_h').

    Returns (Decoration, sign) pairs with integer signs.
    """
    if not shared:
        return [(Decoration((), ((),) * graph.n_vertices), 1)]
    sign = -1 if len(shared) % 2 else 1
    out = []
    for picks in itertools.product(*[graph.edges[i] for i in shared]):
        exps: dict = {}
        for v, s in picks:
            key = (PSI_HE, v, s)
            exps[key] = exps.get(key, 0) + 1
        out.append(
            (Decoration(tuple(sorted(exps.items())), ((),) * graph.n_vertices), sign)
        )
    return out


def _pulled_orbit(graph, vmap, he_inv, orbit):
    """Pullbacks of every transport in an Aut-orbit sum, merged."""
    out: dict = {}
    for dec, mult in orbit.items():
        for mono, m in _pullback_monomials(graph, vmap, he_inv, dec):
            out[mono] = out.get(mono, 0) + mult * m
    return out


def _excess_terms(term_a, term_b):
    """The excess-intersection product of two decorated strata, by graph.

    term_a and term_b are (graph, decoration) pairs on the same (g, n).
    Yields (graph, aut, counts), one per common degeneration graph, where
    counts maps decorations of `graph` to integer multiplicities: the
    product xi_*(dec_a) * xi_*(dec_b) is the sum over the yielded graphs
    of sum(count * xi_*(dec)) / aut.  Decorations are neither
    canonicalized nor filtered, so some may exceed a vertex dimension and
    push forward to zero.
    """
    (ga, da), (gb, db) = term_a, term_b
    orbit_a = _aut_orbit_sum(ga, da)
    orbit_b = _aut_orbit_sum(gb, db)
    records = sg.degeneration_base_pairs(ga, gb)
    for graph, group in itertools.groupby(records, key=lambda r: r[0]):
        counts: dict = {}
        for _, va, ia, vb, ib, shared in group:
            pulled_a = _pulled_orbit(graph, va, ia, orbit_a)
            pulled_b = _pulled_orbit(graph, vb, ib, orbit_b)
            excess = _excess_monomials(graph, shared)
            for ma, ka in pulled_a.items():
                for mb, kb in pulled_b.items():
                    mab = decoration_mul(ma, mb)
                    k = ka * kb
                    for me, sign in excess:
                        dec = decoration_mul(mab, me)
                        counts[dec] = counts.get(dec, 0) + sign * k
        yield graph, sg.automorphism_count(graph), counts


def multiply(a: TautClass, b: TautClass) -> TautClass:
    """Excess intersection product of two decorated strata classes."""
    if a.virtual or b.virtual:
        raise DomainError("virtual psi classes only support integration")
    if (a.g, a.n) != (b.g, b.n):
        raise DomainError("factors live on different moduli spaces")
    d = a.d + b.d
    if d > dim_moduli(a.g, a.n):
        raise DomainError(
            "product degree %d exceeds the dimension %d" % (d, dim_moduli(a.g, a.n))
        )
    out = TautClass(a.g, a.n, d)
    for term_a, ca in a.terms.items():
        for term_b, cb in b.terms.items():
            scale = ca * cb
            for graph, aut, counts in _excess_terms(term_a, term_b):
                weight = scale / aut
                for dec, count in counts.items():
                    out._insert(graph, dec, weight * count)
    return out


_VERTEX_SHAPE_CACHE: dict = {}


def _vertex_shape(graph):
    """(vertex of each marking, dimension of each vertex's moduli space)."""
    cached = _VERTEX_SHAPE_CACHE.get(graph)
    if cached is not None:
        return cached
    home = {m: v for v, legs in enumerate(graph.legs) for m in legs}
    valence = [len(legs) for legs in graph.legs]
    for (v1, _), (v2, _) in graph.edges:
        valence[v1] += 1
        valence[v2] += 1
    dims = [dim_moduli(gv, nv) for gv, nv in zip(graph.genera, valence)]
    result = (home, dims)
    _VERTEX_SHAPE_CACHE[graph] = result
    return result


def product_integral(term_a, term_b):
    """Integral of xi_*(dec_a) * xi_*(dec_b) for complementary degrees.

    Sums the excess terms' integrals as they are produced: an integral
    does not depend on the representative of a decorated stratum, so no
    term is canonicalized.  A term integrates to zero unless each vertex
    carries exactly its dimension, so terms that do not are skipped
    before the (cached) `term_integral`: most raw terms never enter its
    cache.
    """
    total = ZERO
    for graph, aut, counts in _excess_terms(term_a, term_b):
        home, dims = _vertex_shape(graph)
        subtotal = ZERO
        for dec, count in counts.items():
            if not count:
                continue
            degrees = [sum(ks) for ks in dec.kappa]
            for key, e in dec.psi:
                degrees[key[1] if key[0] == PSI_HE else home[key[1]]] += e
            if degrees == dims:
                subtotal += count * term_integral(graph, dec)
        total += subtotal / aut
    return total


def power(a: TautClass, k: int) -> TautClass:
    """k-th power under the excess intersection product."""
    if k < 0:
        raise DomainError("negative powers are not defined")
    result = fundamental_class(a.g, a.n)
    for _ in range(k):
        result = multiply(result, a)
    return result
