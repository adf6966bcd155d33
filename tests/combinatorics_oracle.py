"""Reference copies of the hand-written combinatorics (tests only).

Before `tautring.combinatorics` existed, each module carried its own
union-find, connectivity check and compositions.  These are those
copies, as they were, so that the shared helpers and the code that now
calls them can be compared with them for exact equality.  The multi-index
list is `pixton_oracle._multi_indices`.
"""

import itertools

from tautring.stable_graphs import StableGraph


def contract_edges(graph: StableGraph, subset):
    """`stable_graphs.contract_edges` with its own union-find, which hangs
    the larger root under the smaller one."""
    subset = frozenset(subset)
    V = graph.n_vertices
    parent = list(range(V))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for idx in subset:
        (v1, _), (v2, _) = graph.edges[idx]
        r1, r2 = find(v1), find(v2)
        if r1 != r2:
            parent[max(r1, r2)] = min(r1, r2)

    comp_members: dict[int, list[int]] = {}
    for v in range(V):
        comp_members.setdefault(find(v), []).append(v)
    roots = sorted(comp_members)
    vmap = [0] * V
    for new_v, root in enumerate(roots):
        for v in comp_members[root]:
            vmap[v] = new_v

    genera = []
    legs = []
    for root in roots:
        members = comp_members[root]
        inner = sum(1 for idx in subset if find(graph.edges[idx][0][0]) == root)
        h1_local = inner - (len(members) - 1)
        genera.append(sum(graph.genera[v] for v in members) + h1_local)
        legs.append(tuple(sorted(m for v in members for m in graph.legs[v])))

    next_slot = [0] * len(roots)
    new_edges = []
    hemap = {}
    for idx, (h1, h2) in enumerate(graph.edges):
        if idx in subset:
            continue
        a = vmap[h1[0]]
        b = vmap[h2[0]]
        sa = next_slot[a]
        next_slot[a] += 1
        sb = next_slot[b]
        next_slot[b] += 1
        hemap[h1] = (a, sa)
        hemap[h2] = (b, sb)
        new_edges.append(((a, sa), (b, sb)))
    new_graph = StableGraph(tuple(genera), tuple(legs), tuple(new_edges))
    return new_graph, tuple(vmap), hemap


def is_connected(graph: StableGraph) -> bool:
    """`StableGraph.is_connected` as a search from vertex 0."""
    if graph.n_vertices == 0:
        return False
    seen = {0}
    frontier = [0]
    adj = [[] for _ in range(graph.n_vertices)]
    for ((v1, _), (v2, _)) in graph.edges:
        adj[v1].append(v2)
        adj[v2].append(v1)
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == graph.n_vertices


def edge_form_blocks(forms, n_free):
    """The blocks of `pixton._edge_forms` from its forms, by the
    union-find that hung the root of each weight under the root of the
    first weight of its form."""
    root = list(range(n_free))

    def find(j):
        while root[j] != j:
            root[j] = root[root[j]]
            j = root[j]
        return j

    for _, coeffs in forms:
        for j, _ in coeffs[1:]:
            root[find(j)] = find(coeffs[0][0])
    groups = {}
    for j in range(n_free):
        groups.setdefault(find(j), ([], []))[0].append(j)
    for e, (_, coeffs) in enumerate(forms):
        if coeffs:
            groups[find(coeffs[0][0])][1].append(e)
    return tuple((tuple(js), tuple(es)) for js, es in groups.values())


def compositions(total: int, parts: int):
    """Tuples of `parts` nonnegative ints summing to total, in
    lexicographic order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def cone_monomials(m, d):
    """Exponent vectors of the degree-d monomials in m ray coordinates,
    in the order of `combinations_with_replacement(range(m), d)`."""
    if d == 0:
        return ((0,) * m,)
    out = []
    for combo in itertools.combinations_with_replacement(range(m), d):
        exps = [0] * m
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return tuple(out)
