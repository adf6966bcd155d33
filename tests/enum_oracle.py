"""Reference brute-force enumerator of stable graphs (tests only).

This is the enumerator that the library's generation by vertex splitting
replaces: it tries every connected multigraph on V labeled vertices with E
edges, every composition of the vertex genera and all V^n leg assignments,
and keeps the canonical forms of the stable results.  It is slow but
follows the definition as written, so `enumerate_stable_graphs` is checked
against it.
"""

import itertools

from tautring.errors import DomainError
from tautring.stable_graphs import StableGraph, canonical_form


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _connected(V: int, counts: dict[tuple[int, int], int]) -> bool:
    adj = [[] for _ in range(V)]
    for (i, j), c in counts.items():
        if c > 0 and i != j:
            adj[i].append(j)
            adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == V


def _multigraphs(V: int, E: int):
    """Connected multigraphs on V labeled vertices with E edges.

    Yields dicts (i, j) -> multiplicity with i <= j (loops allowed).
    """
    pairs = [(i, j) for i in range(V) for j in range(i, V)]

    def rec(idx, remaining, current):
        if remaining == 0:
            counts = {p: c for p, c in current.items() if c}
            if _connected(V, counts):
                yield counts
            return
        if idx == len(pairs):
            return
        for cnt in range(remaining + 1):
            if cnt:
                current[pairs[idx]] = cnt
            yield from rec(idx + 1, remaining - cnt, current)
            current.pop(pairs[idx], None)

    yield from rec(0, E, {})


def _build_graph(counts, genera, leg_assign, n):
    V = len(genera)
    legs = [[] for _ in range(V)]
    for mark in range(1, n + 1):
        legs[leg_assign[mark - 1]].append(mark)
    next_slot = [0] * V
    edges = []
    for (i, j) in sorted(counts):
        for _ in range(counts[(i, j)]):
            si = next_slot[i]
            next_slot[i] += 1
            sj = next_slot[j]
            next_slot[j] += 1
            edges.append(((i, si), (j, sj)))
    return StableGraph(tuple(genera), tuple(tuple(l) for l in legs),
                       tuple(edges))


def oracle_stable_graphs(g: int, n: int) -> tuple[StableGraph, ...]:
    """All isomorphism classes of stable graphs of type (g, n).

    Deterministic order.  The maximal number of edges is 3g - 3 + n (the
    dimension bound) and the maximal number of vertices is 2g - 2 + n since
    every vertex contributes at least 1 to sum(2 g_v - 2 + val(v)).
    """
    if g < 0 or n < 0 or 2 * g - 2 + n <= 0:
        raise DomainError(f"({g},{n}) is not a stable type")
    found: set[StableGraph] = set()
    max_v = 2 * g - 2 + n if g > 0 else n - 2
    for V in range(1, max_v + 1):
        max_e = min(3 * g - 3 + n, g + V - 1)
        for E in range(V - 1, max_e + 1):
            h1 = E - V + 1
            gsum = g - h1
            if gsum < 0:
                continue
            for counts in _multigraphs(V, E):
                degree = [0] * V
                for (i, j), c in counts.items():
                    degree[i] += c
                    degree[j] += c
                for genera in _compositions(gsum, V):
                    base_ok = all(
                        2 * genera[v] - 2 + degree[v] + n > 0
                        for v in range(V)
                    )
                    if not base_ok:
                        continue
                    for leg_assign in itertools.product(range(V), repeat=n):
                        nlegs = [0] * V
                        for target in leg_assign:
                            nlegs[target] += 1
                        if any(
                            2 * genera[v] - 2 + degree[v] + nlegs[v] <= 0
                            for v in range(V)
                        ):
                            continue
                        graph = _build_graph(counts, genera, leg_assign, n)
                        found.add(canonical_form(graph))
    return tuple(sorted(found, key=lambda gr: gr.sort_key()))


def all_splits(graph: StableGraph):
    """Every one-edge degeneration of `graph` from every side assignment,
    as (graph, new edge) pairs: the split generator that the symmetry-
    reduced `stable_graphs._splits` replaces.  For each vertex v, a loop
    that lowers g_v, and each of the 2^(legs + edge ends) ways to share
    the legs and edge ends of v between v and a new last vertex, with
    every genus share that keeps both stable.  Isomorphic outputs repeat,
    each unordered split twice."""
    V = graph.n_vertices
    for v in range(V):
        gv, legs, ends = graph.genera[v], graph.legs[v], graph.edge_ends(v)
        if gv:
            new = ((v, len(ends)), (v, len(ends) + 1))
            genera = graph.genera[:v] + (gv - 1,) + graph.genera[v + 1:]
            yield StableGraph(genera, graph.legs, graph.edges + (new,)), new
        for sides in itertools.product((0, 1), repeat=len(legs) + len(ends)):
            parts = ([], [])
            for m, side in zip(legs, sides):
                parts[side].append(m)
            rename, slots = {}, [0, 0]
            for s, side in zip(ends, sides[len(legs):]):
                rename[(v, s)] = (V if side else v, slots[side])
                slots[side] += 1
            new = ((v, slots[0]), (V, slots[1]))
            edges = [new] + [(rename.get(a, a), rename.get(b, b)) for a, b in graph.edges]
            legs_out = (graph.legs[:v] + (tuple(parts[0]),) + graph.legs[v + 1:]
                        + (tuple(parts[1]),))
            for g_new in range(gv + 1):
                if min(2 * (gv - g_new) + len(parts[0]) + slots[0],
                       2 * g_new + len(parts[1]) + slots[1]) < 2:
                    continue
                genera = (graph.genera[:v] + (gv - g_new,) + graph.genera[v + 1:]
                          + (g_new,))
                yield StableGraph(genera, legs_out, edges), new
