"""Reference contraction index of stable graphs (tests only).

This is the index that `stable_graphs._degeneration_index` slices by the
number of contracted edges: it contracts every edge subset of every
E-edge graph of (g, n) at once, so the union of the slices is checked
against it entry for entry.
"""

from tautring.stable_graphs import (
    canonical_form_with_map,
    contract_edges,
    enumerate_stable_graphs,
)


def degeneration_index(g: int, n: int, E: int) -> dict:
    """Contractions of the E-edge graphs of (g, n), inverted by target.

    Maps every canonical contracted graph to {graph: [(bits, vmap, he_inv)]}
    with graphs in enumeration order and subsets in increasing order: bits
    marks the contracted edges, vmap sends each graph vertex to the target
    vertex it lands on, and he_inv names, for every target half-edge, the
    graph half-edge sitting over it.
    """
    index = {}
    for graph in enumerate_stable_graphs(g, n):
        if graph.n_edges != E:
            continue
        for bits in range(1 << E):
            subset = [i for i in range(E) if bits >> i & 1]
            contracted, vmap, hemap = contract_edges(graph, subset)
            canon, cvmap, chemap = canonical_form_with_map(contracted)
            total_v = tuple(cvmap[vmap[v]] for v in range(graph.n_vertices))
            he_inv = {chemap[m]: h for h, m in hemap.items()}
            over = index.setdefault(canon, {})
            over.setdefault(graph, []).append((bits, total_v, he_inv))
    return index
