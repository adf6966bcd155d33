"""Reference excess-intersection product and degeneration scan (tests only).

This is the product that the library's pairing kernel replaces: every
excess term goes through `TautClass._insert` (zero-class filter and
canonical representative) one at a time, and the common degenerations
of two graphs are found by scanning every stable graph of the type and
probing its contraction table.  It is slow but follows the construction
as written, so `multiply`, `pair_integral` and `degeneration_base_pairs`
are checked against it.

`product_integral` is the per-pair integral that the block pairing
kernel (now `pairing_oracle.pairing_row`) replaced: it integrates the
`Decoration` terms of `_excess_terms`, the library's former product
kernel, one by one in `Fraction`s.
"""

import itertools

from tautring import stable_graphs as sg
from tautring.errors import DomainError
from tautring.integration import term_integral
from tautring.rationals import ONE, ZERO
from tautring.stable_graphs import (
    StableGraph,
    canonical_form,
    canonical_form_with_map,
    contract_edges,
    enumerate_stable_graphs,
)
from tautring.taut_classes import (
    PSI_HE,
    Decoration,
    TautClass,
    dim_moduli,
)

_CONTRACTION_TABLE_CACHE: dict[StableGraph, dict] = {}
_DEGENERATION_CACHE: dict[tuple[StableGraph, StableGraph], tuple] = {}


def _contraction_table(graph: StableGraph) -> dict:
    """canonical contraction -> list of (edge subset, vmap, he_corr).

    For every subset S of edges, contract S, canonicalize, and record the
    composed maps from `graph` onto the canonical contracted graph:
    vmap (graph vertex -> canon vertex) and for every KEPT half-edge its
    canonical name.
    """
    cached = _CONTRACTION_TABLE_CACHE.get(graph)
    if cached is not None:
        return cached
    table: dict[StableGraph, list] = {}
    E = graph.n_edges
    for bits in range(1 << E):
        subset = frozenset(i for i in range(E) if bits >> i & 1)
        contracted, vmap, hemap = contract_edges(graph, subset)
        canon, cvmap, chemap = canonical_form_with_map(contracted)
        total_v = tuple(cvmap[vmap[v]] for v in range(graph.n_vertices))
        total_he = {h: chemap[m] for h, m in hemap.items()}
        table.setdefault(canon, []).append((subset, total_v, total_he))
    _CONTRACTION_TABLE_CACHE[graph] = table
    return table


def oracle_degeneration_base_pairs(a: StableGraph, b: StableGraph) -> tuple:
    """Common degenerations of a and b, one record per contraction pair.

    Each record is (graph, vmap_a, he_to_a, vmap_b, he_to_b, shared_edges)
    where he_to_a maps every half-edge of canonical(a) to the half-edge of
    `graph` over it, and shared_edges are the edge indices of `graph` kept
    by both contractions.  Records do not include compositions with
    automorphisms of a and b; callers that need all pairs (f_a, f_b) expand
    each record by Aut(a) x Aut(b).
    """
    a = canonical_form(a)
    b = canonical_form(b)
    key = (a, b)
    cached = _DEGENERATION_CACHE.get(key)
    if cached is not None:
        return cached
    g, n = a.genus(), a.n_markings
    if (g, n) != (b.genus(), b.n_markings):
        raise DomainError("graphs live on different moduli spaces")
    max_edges = a.n_edges + b.n_edges
    results = []
    for graph in enumerate_stable_graphs(g, n):
        if graph.n_edges > max_edges or graph.n_edges < max(a.n_edges, b.n_edges):
            continue
        table = _contraction_table(graph)
        into_a = table.get(a, ())
        into_b = table.get(b, ())
        if not into_a or not into_b:
            continue
        for (sa, va, ha) in into_a:
            inv_a = {m: h for h, m in ha.items()}
            for (sb, vb, hb) in into_b:
                if sa & sb:
                    continue
                shared = tuple(
                    i for i in range(graph.n_edges) if i not in sa and i not in sb
                )
                inv_b = {m: h for h, m in hb.items()}
                results.append((graph, va, inv_a, vb, inv_b, shared))
    result = tuple(results)
    _DEGENERATION_CACHE[key] = result
    return result


def decoration_mul(d1: Decoration, d2: Decoration) -> Decoration:
    """Product of two monomials on the same graph."""
    exps = {}
    for key, e in itertools.chain(d1.psi, d2.psi):
        exps[key] = exps.get(key, 0) + e
    psi = tuple(sorted(exps.items()))
    kappa = tuple(
        tuple(sorted(k1 + k2)) for k1, k2 in zip(d1.kappa, d2.kappa)
    )
    return Decoration(psi, kappa)


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
    """Expansion of prod over shared edges of (-psi_h - psi_h')."""
    if not shared:
        return [(Decoration((), ((),) * graph.n_vertices), ONE)]
    sign = ONE if len(shared) % 2 == 0 else -ONE
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
    records = oracle_degeneration_base_pairs(ga, gb)
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


def oracle_multiply(a: TautClass, b: TautClass) -> TautClass:
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
    for (ga, da), ca in a.terms.items():
        orbit_a = _aut_orbit_sum(ga, da)
        for (gb, db), cb in b.terms.items():
            orbit_b = _aut_orbit_sum(gb, db)
            scale = ca * cb
            for graph, va, ia, vb, ib, shared in oracle_degeneration_base_pairs(ga, gb):
                weight = scale / sg.automorphism_count(graph)
                pulled_a: dict = {}
                for dec, mult in orbit_a.items():
                    for mono, m in _pullback_monomials(graph, va, ia, dec):
                        pulled_a[mono] = pulled_a.get(mono, 0) + mult * m
                pulled_b: dict = {}
                for dec, mult in orbit_b.items():
                    for mono, m in _pullback_monomials(graph, vb, ib, dec):
                        pulled_b[mono] = pulled_b.get(mono, 0) + mult * m
                excess = _excess_monomials(graph, shared)
                for ma, ka in pulled_a.items():
                    for mb, kb in pulled_b.items():
                        mab = decoration_mul(ma, mb)
                        coeff = weight * ka * kb
                        for me, sign in excess:
                            out._insert(graph, decoration_mul(mab, me), coeff * sign)
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
