"""Reference canonical forms and automorphisms of stable graphs (tests only).

The two permutation sweeps that `stable_graphs._search` replaces: one
over colour-class vertex permutations for the least candidate edge tuple,
and one for the vertex automorphisms, kept by an edge-bundle count test.
Neither is cached, and neither calls the library's colour classes, search
or automorphism code; `automorphisms` expands the vertex maps to
half-edge maps as the library does, and their number is |Aut|.
"""

import itertools

from tautring.stable_graphs import StableGraph


def _vertex_colors(graph):
    ends = [0] * graph.n_vertices
    loops = [0] * graph.n_vertices
    for ((v1, _), (v2, _)) in graph.edges:
        ends[v1] += 1
        ends[v2] += 1
        if v1 == v2:
            loops[v1] += 1
    return [
        (graph.genera[v], graph.legs[v], ends[v], loops[v])
        for v in range(graph.n_vertices)
    ]


def _color_classes(graph):
    colors = _vertex_colors(graph)
    order = sorted(range(graph.n_vertices), key=lambda v: (colors[v], v))
    classes = []
    for v in order:
        if classes and colors[classes[-1][-1]] == colors[v]:
            classes[-1].append(v)
        else:
            classes.append([v])
    return classes


def _candidate(graph, new_of_old):
    """Relabel along a vertex permutation with greedy slot assignment."""
    items = []
    for idx, ((v1, s1), (v2, s2)) in enumerate(graph.edges):
        a, b = new_of_old[v1], new_of_old[v2]
        if a > b:
            items.append(((b, a), idx, True))
        else:
            items.append(((a, b), idx, False))
    items.sort(key=lambda t: (t[0], t[1]))
    next_slot = [0] * graph.n_vertices
    new_edges = []
    hemap = {}
    for (a, b), idx, swapped in items:
        (h1, h2) = graph.edges[idx]
        if swapped:
            h1, h2 = h2, h1
        sa = next_slot[a]
        next_slot[a] += 1
        sb = next_slot[b]
        next_slot[b] += 1
        hemap[h1] = (a, sa)
        hemap[h2] = (b, sb)
        new_edges.append(((a, sa), (b, sb)))
    return tuple(new_edges), hemap


def canonical_form_with_map(graph):
    """(canon, vmap, hemap) of the first permutation reaching the least
    candidate edge tuple."""
    classes = _color_classes(graph)
    best = None
    for perms in itertools.product(*[itertools.permutations(c) for c in classes]):
        new_of_old = [0] * graph.n_vertices
        pos = 0
        for perm in perms:
            for old_v in perm:
                new_of_old[old_v] = pos
                pos += 1
        cand_edges, hemap = _candidate(graph, new_of_old)
        if best is None or cand_edges < best[0]:
            best = (cand_edges, tuple(new_of_old), hemap)
    cand_edges, vmap, hemap = best
    genera = [0] * graph.n_vertices
    legs = [()] * graph.n_vertices
    for old_v in range(graph.n_vertices):
        genera[vmap[old_v]] = graph.genera[old_v]
        legs[vmap[old_v]] = graph.legs[old_v]
    return StableGraph(tuple(genera), tuple(legs), cand_edges), vmap, hemap


def _edge_bundles(graph):
    """Non-loop edge indices per unordered vertex pair, loops per vertex."""
    bundles = {}
    loops = {}
    for idx, ((v1, _), (v2, _)) in enumerate(graph.edges):
        if v1 == v2:
            loops.setdefault(v1, []).append(idx)
        else:
            bundles.setdefault((min(v1, v2), max(v1, v2)), []).append(idx)
    return bundles, loops


def vertex_automorphism_maps(graph):
    """Vertex permutations preserving colors and the edge multiset."""
    bundles, loops = _edge_bundles(graph)
    classes = _color_classes(graph)
    out = []
    for perms in itertools.product(*[itertools.permutations(c) for c in classes]):
        vmap = [0] * graph.n_vertices
        for cls, perm in zip(classes, perms):
            for src, dst in zip(cls, perm):
                vmap[src] = dst
        ok = True
        for (u, v), idxs in bundles.items():
            tu, tv = vmap[u], vmap[v]
            key = (min(tu, tv), max(tu, tv))
            if len(bundles.get(key, ())) != len(idxs):
                ok = False
                break
        if ok:
            for v, idxs in loops.items():
                if len(loops.get(vmap[v], ())) != len(idxs):
                    ok = False
                    break
        if ok:
            out.append(tuple(vmap))
    return out


def automorphisms(graph, maps):
    """All automorphisms as (vmap, hemap) pairs over the vertex maps
    `maps` of `vertex_automorphism_maps`, the identity first."""
    bundles, loops = _edge_bundles(graph)
    result = []
    for vmap in maps:
        bundle_options = []
        for (u, v), idxs in sorted(bundles.items()):
            tu, tv = vmap[u], vmap[v]
            tidxs = bundles[(min(tu, tv), max(tu, tv))]
            options = []
            for assignment in itertools.permutations(tidxs, len(idxs)):
                mapping = []
                for src_idx, dst_idx in zip(idxs, assignment):
                    (a1, a2) = graph.edges[src_idx]
                    (b1, b2) = graph.edges[dst_idx]
                    src_u = a1 if a1[0] == u else a2
                    src_v = a2 if a1[0] == u else a1
                    dst_u = b1 if b1[0] == tu else b2
                    dst_v = b2 if b1[0] == tu else b1
                    mapping.append((src_u, dst_u))
                    mapping.append((src_v, dst_v))
                options.append(mapping)
            bundle_options.append(options)
        for v, idxs in sorted(loops.items()):
            tidxs = loops[vmap[v]]
            options = []
            for assignment in itertools.permutations(tidxs, len(idxs)):
                for flips in itertools.product((False, True), repeat=len(idxs)):
                    mapping = []
                    for (src_idx, dst_idx), flip in zip(zip(idxs, assignment), flips):
                        (a1, a2) = graph.edges[src_idx]
                        (b1, b2) = graph.edges[dst_idx]
                        if flip:
                            b1, b2 = b2, b1
                        mapping.append((a1, b1))
                        mapping.append((a2, b2))
                    options.append(mapping)
            bundle_options.append(options)
        for combo in itertools.product(*bundle_options):
            hemap = {}
            for mapping in combo:
                hemap.update(mapping)
            result.append((vmap, hemap))
    return result

