"""Reference generate-then-filter construction of the generators (tests only).

This is the construction that `taut_classes.generators` replaces: every
psi/kappa decoration of the remaining degree is built on every graph,
zero classes included, and then dropped if some vertex exceeds its
dimension; the zero test re-sorts the half-edges of every vertex on each
call, and each kept orbit becomes a class through `class_of_graph`, which
re-validates the graph and runs the zero test and `canonical_term` again.
The orbit representative comes from `oracle_canonical_term`, which
transports every decoration to the canonical graph and then along every
automorphism of it, the identity maps included.  Its transports are
`oracle_transport`, the move that `Decoration.transport` replaces: it
builds a psi-key map from the half-edge map on every call and rebuilds
the decoration through the sorting constructor.  It is slow but follows
the definition as written, so `generators`, `canonical_term`,
`Decoration.transport`, `vertex_degrees` and `term_is_zero_class` are
checked against it.
"""

import itertools

from tautring.errors import DomainError
from tautring.stable_graphs import (
    automorphisms,
    canonical_form_with_map,
    enumerate_stable_graphs,
)
from tautring.taut_classes import (
    PSI_HE,
    PSI_LEG,
    Decoration,
    class_of_graph,
    dim_moduli,
)


def _compositions(total, parts):
    """Tuples of `parts` nonnegative ints summing to total, in
    lexicographic order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _partitions(k, max_part=None):
    """Partitions of k into parts between 1 and max_part (default k)."""
    if k == 0:
        yield ()
        return
    top = k if max_part is None else min(k, max_part)
    for part in range(top, 0, -1):
        for rest in _partitions(k - part, part):
            yield (part,) + rest


def oracle_vertex_degrees(graph, dec):
    """Decoration degree accumulated at each vertex."""
    degs = [sum(ks) for ks in dec.kappa]
    leg_home = {}
    for v in range(graph.n_vertices):
        for m in graph.legs[v]:
            leg_home[m] = v
    for key, e in dec.psi:
        if key[0] == PSI_LEG:
            degs[leg_home[key[1]]] += e
        else:
            degs[key[1]] += e
    return degs


def oracle_term_is_zero_class(graph, dec):
    """True when some vertex decoration exceeds that vertex's dimension."""
    for v, deg in enumerate(oracle_vertex_degrees(graph, dec)):
        nv = len(graph.legs[v]) + len(graph.edge_ends(v))
        if deg > dim_moduli(graph.genera[v], nv):
            return True
    return False


def _moved(psi, kappa, keymap, vmap):
    """Normal-form fields (psi, kappa) moved along a graph isomorphism:
    each psi key to keymap.get(key, key) (legs stay), the kappa of vertex
    v to vmap[v]."""
    moved = [()] * len(kappa)
    for new, ks in zip(vmap, kappa):
        moved[new] = ks
    get = keymap.get
    return tuple(sorted([(get(key, key), e) for key, e in psi])), tuple(moved)


def oracle_transport(dec, vmap, hemap):
    """dec relabelled along a graph isomorphism (vmap, hemap) through a
    map from each of its half-edge psi keys to its image."""
    keymap = {key: (PSI_HE, *hemap[key[1:]]) for key, _ in dec.psi if key[0] == PSI_HE}
    return Decoration(*_moved(dec.psi, dec.kappa, keymap, vmap))


def oracle_canonical_term(graph, dec):
    """Canonical (graph, decoration) representative of a decorated stratum."""
    canon, vmap, hemap = canonical_form_with_map(graph)
    moved = oracle_transport(dec, vmap, hemap)
    best = min(
        (oracle_transport(moved, av, ah) for av, ah in automorphisms(canon)),
        key=Decoration.sort_key,
    )
    return canon, best


def oracle_decorations_of_degree(graph, m):
    """All decorations of total degree m on `graph`, before orbit reduction."""
    psi_keys = [(PSI_LEG, i) for i in graph.markings()]
    psi_keys += [(PSI_HE, v, s) for (v, s) in sorted(graph.half_edges())]
    V = graph.n_vertices
    slots = len(psi_keys) + V
    for combo in _compositions(m, slots):
        psi_part = combo[: len(psi_keys)]
        kappa_budget = combo[len(psi_keys):]
        psi = tuple(
            sorted((key, e) for key, e in zip(psi_keys, psi_part) if e)
        )
        for kappa_parts in itertools.product(
            *[_partitions(k) for k in kappa_budget]
        ):
            yield Decoration(psi, tuple(kappa_parts))


def oracle_generators(g, n, d):
    """The decorated-stratum generating set of degree d on (g, n)."""
    if d < 0 or d > dim_moduli(g, n):
        raise DomainError("degree outside 0..3g-3+n")
    seen = set()
    for graph in enumerate_stable_graphs(g, n):
        if graph.n_edges > d:
            continue
        for dec in oracle_decorations_of_degree(graph, d - graph.n_edges):
            if oracle_term_is_zero_class(graph, dec):
                continue
            seen.add(oracle_canonical_term(graph, dec))
    ordered = sorted(seen, key=lambda t: (t[0].sort_key(), t[1].sort_key()))
    return tuple(class_of_graph(graph, dec) for (graph, dec) in ordered)
