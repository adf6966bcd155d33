"""Stable graphs: dual graphs of stable nodal curves.

A stable graph of type (g, n) has vertices carrying genera, legs carrying the
marking labels 1..n, and edges given as unordered pairs of half-edges.  A
half-edge is addressed as (vertex index, local slot); slots at a vertex are
numbered 0..k-1 where k is the number of edge ends at that vertex.  Loops and
parallel edges are allowed.  Isomorphisms fix legs pointwise.

The total genus is sum of vertex genera plus the first Betti number
h1 = #edges - #vertices + 1, and every vertex must satisfy
2*g(v) - 2 + valence(v) > 0.
"""

from __future__ import annotations

import itertools
import json
from functools import cache
from math import factorial

from .combinatorics import union_find
from .errors import DomainError, json_field, json_ints, json_loads

HalfEdge = tuple[int, int]


_new = object.__new__
_set = object.__setattr__


def _fill(graph, genera, legs, edges):
    """Set the fields of a new graph from normalized genera, legs and
    oriented edges (h1 <= h2 in each), sorting the edges; hash once."""
    edges = tuple(sorted(edges))
    _set(graph, "genera", genera)
    _set(graph, "legs", legs)
    _set(graph, "edges", edges)
    _set(graph, "_hash", hash((genera, legs, edges)))


class StableGraph:
    """An immutable stable graph, equal by its three fields.

    genera holds each vertex genus, legs each vertex's sorted marking
    labels, and edges the sorted pairs (h1, h2) of half-edges with
    h1 <= h2.  The constructor normalizes any input to that form.
    """

    __slots__ = ("genera", "legs", "edges", "_hash")

    def __init__(self, genera, legs, edges):
        oriented = []
        for (h1, h2) in edges:
            a = (int(h1[0]), int(h1[1]))
            b = (int(h2[0]), int(h2[1]))
            oriented.append((a, b) if a <= b else (b, a))
        _fill(
            self,
            tuple(int(x) for x in genera),
            tuple(tuple(sorted(int(m) for m in lv)) for lv in legs),
            oriented,
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return StableGraph, (self.genera, self.legs, self.edges)

    def __eq__(self, other):
        if other.__class__ is not StableGraph:
            return NotImplemented
        return self is other or (
            self._hash == other._hash
            and self.edges == other.edges
            and self.genera == other.genera
            and self.legs == other.legs
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (
            f"StableGraph(genera={self.genera!r}, legs={self.legs!r}, "
            f"edges={self.edges!r})"
        )

    @property
    def n_vertices(self) -> int:
        return len(self.genera)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def h1(self) -> int:
        return self.n_edges - self.n_vertices + 1

    def genus(self) -> int:
        return sum(self.genera) + self.h1()

    def markings(self) -> tuple[int, ...]:
        return tuple(sorted(m for lv in self.legs for m in lv))

    @property
    def n_markings(self) -> int:
        return len(self.markings())

    def half_edges(self) -> list[HalfEdge]:
        out = []
        for (a, b) in self.edges:
            out.append(a)
            out.append(b)
        return out

    def edge_ends(self, v: int) -> list[int]:
        """Slots of the edge ends at vertex v."""
        return sorted(s for (w, s) in self.half_edges() if w == v)

    def valence(self, v: int) -> int:
        return len(self.edge_ends(v)) + len(self.legs[v])

    def is_connected(self) -> bool:
        labels = union_find(self.n_vertices, ((v1, v2) for (v1, _), (v2, _) in self.edges))
        return len(set(labels)) == 1

    def validate(self) -> None:
        """Raise DomainError unless this is a valid stable graph."""
        V = self.n_vertices
        if V == 0:
            raise DomainError("graph has no vertices")
        if len(self.legs) != V:
            raise DomainError("legs and genera lengths differ")
        if any(g < 0 for g in self.genera):
            raise DomainError("negative genus")
        marks = [m for lv in self.legs for m in lv]
        if sorted(marks) != list(range(1, len(marks) + 1)):
            raise DomainError("markings must be exactly 1..n without repeats")
        seen_he = set()
        slots = [[] for _ in range(V)]
        for (a, b) in self.edges:
            for (v, s) in (a, b):
                if not (0 <= v < V):
                    raise DomainError(f"half-edge {(v, s)} at missing vertex")
                if (v, s) in seen_he:
                    raise DomainError(f"half-edge {(v, s)} used twice")
                seen_he.add((v, s))
                slots[v].append(s)
        for v in range(V):
            if sorted(slots[v]) != list(range(len(slots[v]))):
                raise DomainError(f"slots at vertex {v} are not 0..k-1")
        if not self.is_connected():
            raise DomainError("graph is not connected")
        for v in range(V):
            if 2 * self.genera[v] - 2 + self.valence(v) <= 0:
                raise DomainError(f"vertex {v} violates stability")

    def sort_key(self):
        return (self.n_edges, self.n_vertices, self.genera, self.legs, self.edges)

    def to_json_dict(self) -> dict:
        return {
            "g": self.genus(),
            "n": self.n_markings,
            "vertices": [
                {"genus": self.genera[v], "legs": list(self.legs[v])}
                for v in range(self.n_vertices)
            ],
            "edges": [[[a[0], a[1]], [b[0], b[1]]] for (a, b) in self.edges],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def from_json_dict(data: dict) -> "StableGraph":
        """Read a graph; a key or type out of place raises DomainError."""
        vertices = json_field(data, "vertices", list)
        genera = tuple(json_field(v, "genus", int) for v in vertices)
        legs = tuple(json_ints(json_field(v, "legs", list)) for v in vertices)
        edges = []
        for e in json_field(data, "edges", list):
            if type(e) is not list or len(e) != 2:
                raise DomainError("an edge must be two half-edges, not %r" % (e,))
            edges.append((json_ints(e[0], 2), json_ints(e[1], 2)))
        graph = StableGraph(genera, legs, tuple(edges))
        graph.validate()
        if graph.genus() != json_field(data, "g", int, graph.genus()):
            raise DomainError("declared g does not match the graph")
        if graph.n_markings != json_field(data, "n", int, graph.n_markings):
            raise DomainError("declared n does not match the graph")
        return graph

    @staticmethod
    def from_json(text: str) -> "StableGraph":
        return StableGraph.from_json_dict(json_loads(text))


def _graph(genera, legs, edges) -> StableGraph:
    """A graph from int tuples with sorted legs and oriented edges, as
    this module's builders hold them: no normalization but the edge sort."""
    graph = _new(StableGraph)
    _fill(graph, genera, legs, edges)
    return graph


def stable_graph(genera, legs, edges) -> StableGraph:
    """Build and validate a stable graph."""
    graph = StableGraph(tuple(genera), tuple(tuple(l) for l in legs),
                        tuple(edges))
    graph.validate()
    return graph


def check_stable_type(g: int, n: int) -> None:
    """Raise DomainError unless g >= 0, n >= 0 and 2g - 2 + n > 0."""
    if g < 0 or n < 0 or 2 * g - 2 + n <= 0:
        raise DomainError(f"({g},{n}) is not a stable type")


def smooth_graph(g: int, n: int) -> StableGraph:
    """The one-vertex graph with no edges (the open stratum)."""
    check_stable_type(g, n)
    return StableGraph((g,), (tuple(range(1, n + 1)),), ())


# ---------------------------------------------------------------------------
# canonical form


def _color_classes(graph: StableGraph) -> list[list[int]]:
    """The vertices grouped by colour (genus, legs, edge ends, loops),
    classes in colour order and each class in vertex order."""
    ends = [0] * graph.n_vertices
    loops = [0] * graph.n_vertices
    for ((v1, _), (v2, _)) in graph.edges:
        ends[v1] += 1
        ends[v2] += 1
        if v1 == v2:
            loops[v1] += 1
    colors = list(zip(graph.genera, graph.legs, ends, loops))
    order = sorted(range(graph.n_vertices), key=lambda v: (colors[v], v))
    classes = []
    for v in order:
        if classes and colors[classes[-1][-1]] == colors[v]:
            classes[-1].append(v)
        else:
            classes.append([v])
    return classes


def _candidate(graph: StableGraph, new_of_old, hemap=None):
    """Relabel along a vertex permutation with greedy slot assignment.

    Returns the edge tuple, and fills hemap, when one is given, with the
    new name of every old half-edge.  The edge tuple depends only on the
    underlying multigraph and the permutation, which makes min-over-
    permutations a true canonical form.
    """
    items = []
    for idx, ((v1, _), (v2, _)) in enumerate(graph.edges):
        a, b = new_of_old[v1], new_of_old[v2]
        if a > b:
            items.append(((b, a), idx, True))
        else:
            items.append(((a, b), idx, False))
    items.sort()
    next_slot = [0] * graph.n_vertices
    new_edges = []
    for (a, b), idx, swapped in items:
        sa = next_slot[a]
        next_slot[a] += 1
        sb = next_slot[b]
        next_slot[b] += 1
        new_edges.append(((a, sa), (b, sb)))
        if hemap is not None:
            (h1, h2) = graph.edges[idx]
            if swapped:
                h1, h2 = h2, h1
            # h1 now sits over new vertex a, h2 over b (for loops a == b and
            # the normalized edges of the graph already give h1 < h2).
            hemap[h1] = (a, sa)
            hemap[h2] = (b, sb)
    # sorted and oriented: by (a, b), and by slot within one (a, b)
    return tuple(new_edges)


def _search(graph: StableGraph):
    """The one sweep over the vertex permutations within colour classes:
    the least `_candidate` edge tuple, the hemap of the first permutation
    that reaches it, and every new_of_old that reaches it, the first one
    first.  Two permutations tie when they differ by an automorphism; the
    sweep compares edge tuples only, and the hemap is built once, for the
    first tie."""
    classes = _color_classes(graph)
    best = None
    ties = []
    for perms in itertools.product(*[itertools.permutations(c) for c in classes]):
        new_of_old = [0] * graph.n_vertices
        pos = 0
        for perm in perms:
            for old_v in perm:
                new_of_old[old_v] = pos
                pos += 1
        cand_edges = _candidate(graph, new_of_old)
        if best is None or cand_edges < best:
            best, ties = cand_edges, [tuple(new_of_old)]
        elif cand_edges == best:
            ties.append(tuple(new_of_old))
    hemap: dict = {}
    _candidate(graph, ties[0], hemap)
    return best, hemap, ties


# A dict, not functools.cache: it also stores each canonical graph's
# identity entry, and a cache in its place raised the RSS of `graphs 4 1`.
_CANONICAL_CACHE: dict[StableGraph, tuple] = {}


def canonical_form_with_map(graph: StableGraph):
    """Canonical representative plus the relabeling used to reach it.

    Returns (canon, vmap, hemap) with vmap[old_vertex] = new_vertex and
    hemap mapping every old half-edge to its new name, read off the first
    permutation of `_search`.  The canonical graph of two isomorphic
    inputs coincides as a value.
    """
    cached = _CANONICAL_CACHE.get(graph)
    if cached is not None:
        return cached
    cand_edges, hemap, ties = _search(graph)
    vmap = ties[0]
    genera = [0] * graph.n_vertices
    legs: list[tuple[int, ...]] = [()] * graph.n_vertices
    for old_v in range(graph.n_vertices):
        genera[vmap[old_v]] = graph.genera[old_v]
        legs[vmap[old_v]] = graph.legs[old_v]
    canon = _graph(tuple(genera), tuple(legs), cand_edges)
    result = (canon, vmap, hemap)
    _CANONICAL_CACHE[graph] = result
    if canon not in _CANONICAL_CACHE:
        ident = {h: h for h in canon.half_edges()}
        _CANONICAL_CACHE[canon] = (canon, tuple(range(canon.n_vertices)), ident)
    return result


def canonical_form(graph: StableGraph) -> StableGraph:
    return canonical_form_with_map(graph)[0]


# ---------------------------------------------------------------------------
# automorphisms


def _edge_bundles(graph: StableGraph):
    """Non-loop edge indices per unordered vertex pair, loops per vertex."""
    bundles: dict[tuple[int, int], list[int]] = {}
    loops: dict[int, list[int]] = {}
    for idx, ((v1, _), (v2, _)) in enumerate(graph.edges):
        if v1 == v2:
            loops.setdefault(v1, []).append(idx)
        else:
            bundles.setdefault((min(v1, v2), max(v1, v2)), []).append(idx)
    return bundles, loops


@cache
def _vertex_automorphism_maps(graph: StableGraph) -> tuple:
    """Vertex permutations preserving colours and the edge multiset.

    These are first^-1 o p for every permutation p of `_search` that ties
    with the first one, sorted by the images of the vertices taken in
    colour-class order: the identity first.
    """
    ties = _search(graph)[2]
    first_inv = sorted(range(graph.n_vertices), key=ties[0].__getitem__)
    order = [v for cls in _color_classes(graph) for v in cls]
    maps = [tuple(first_inv[w] for w in p) for p in ties]
    return tuple(sorted(maps, key=lambda vmap: [vmap[v] for v in order]))


@cache
def automorphisms(graph: StableGraph) -> tuple:
    """All automorphisms as (vmap, hemap) pairs, legs fixed pointwise,
    the identity first."""
    bundles, loops = _edge_bundles(graph)
    result = []
    for vmap in _vertex_automorphism_maps(graph):
        # Per-bundle target choices, expanded to half-edge maps.
        bundle_options = []
        for (u, v), idxs in sorted(bundles.items()):
            tu, tv = vmap[u], vmap[v]
            key = (min(tu, tv), max(tu, tv))
            tidxs = bundles[key]
            options = []
            for assignment in itertools.permutations(tidxs, len(idxs)):
                mapping = []
                for src_idx, dst_idx in zip(idxs, assignment):
                    (a1, a2) = graph.edges[src_idx]
                    (b1, b2) = graph.edges[dst_idx]
                    # orient: the half at u goes to the half at vmap[u]
                    src_u = a1 if a1[0] == u else a2
                    src_v = a2 if a1[0] == u else a1
                    dst_u = b1 if b1[0] == tu else b2
                    dst_v = b2 if b1[0] == tu else b1
                    mapping.append((src_u, dst_u))
                    mapping.append((src_v, dst_v))
                options.append(mapping)
            bundle_options.append(options)
        for v, idxs in sorted(loops.items()):
            tv = vmap[v]
            tidxs = loops[tv]
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
    return tuple(result)


@cache
def automorphism_count(graph: StableGraph) -> int:
    """|Aut| via the orbit formula: vertex symmetries times edge symmetries.

    Every admissible vertex permutation extends to half-edges in the same
    number of ways: m! per bundle of m parallel edges and l! * 2^l per
    bundle of l loops.
    """
    bundles, loops = _edge_bundles(graph)
    count = len(_vertex_automorphism_maps(graph))
    for idxs in bundles.values():
        count *= factorial(len(idxs))
    for idxs in loops.values():
        count *= factorial(len(idxs)) * 2 ** len(idxs)
    return count


# ---------------------------------------------------------------------------
# contraction


def contract_edges(graph: StableGraph, subset):
    """Contract the edges with indices in subset.

    Returns (contracted graph, vmap, hemap) where vmap sends old vertices to
    new ones and hemap renames the half-edges of the surviving edges.
    Contracting a loop adds one to the genus of its vertex; contracting a
    connected subgraph adds its first Betti number.
    """
    subset = frozenset(subset)
    ends = [(graph.edges[idx][0][0], graph.edges[idx][1][0]) for idx in subset]
    labels = union_find(graph.n_vertices, ends)
    # Components are numbered in order of their least vertex.
    number = {label: w for w, label in enumerate(dict.fromkeys(labels))}
    vmap = [number[label] for label in labels]
    members = [[] for _ in number]
    for v, w in enumerate(vmap):
        members[w].append(v)
    inner = [0] * len(members)
    for v1, _ in ends:
        inner[vmap[v1]] += 1
    genera = []
    legs = []
    for w, vs in enumerate(members):
        genera.append(sum(graph.genera[v] for v in vs) + inner[w] - (len(vs) - 1))
        legs.append(tuple(sorted(m for v in vs for m in graph.legs[v])))

    next_slot = [0] * len(members)
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
        # vmap need not keep the order of vertices: orient the edge
        new_edges.append(((a, sa), (b, sb)) if a <= b else ((b, sb), (a, sa)))
    new_graph = _graph(tuple(genera), tuple(legs), new_edges)
    return new_graph, tuple(vmap), hemap


def separating_edges(graph: StableGraph) -> list[int]:
    """Indices of edges whose removal disconnects the graph."""
    ends = [(v1, v2) for (v1, _), (v2, _) in graph.edges]
    out = []
    for idx, (v1, v2) in enumerate(ends):
        if v1 != v2:
            labels = union_find(graph.n_vertices, ends[:idx] + ends[idx + 1:])
            if len(set(labels)) > 1:
                out.append(idx)
    return out


def has_separating_edge(graph: StableGraph) -> bool:
    return bool(separating_edges(graph))


# ---------------------------------------------------------------------------
# enumeration


def _moved_ends(graph: StableGraph, v: int):
    """(moved slots, key, complement key) per choice of the edge ends of v
    that move to the new vertex, up to the automorphisms of `graph` that
    fix v: the first c ends of each bundle of parallel edges to one
    neighbour, and both ends of the first `both` loops and one end of the
    next `one`.  The key orders a choice against its complement."""
    bundles: dict[int, list[int]] = {}
    loops = []
    for (v1, s1), (v2, s2) in graph.edges:
        if v1 == v2 == v:
            loops.append((s1, s2))
        elif v1 == v:
            bundles.setdefault(v2, []).append(s1)
        elif v2 == v:
            bundles.setdefault(v1, []).append(s2)
    sizes = [len(slots) for slots in bundles.values()]
    for counts in itertools.product(*(range(k + 1) for k in sizes)):
        moved = {s for slots, c in zip(bundles.values(), counts) for s in slots[:c]}
        for both in range(len(loops) + 1):
            for one in range(len(loops) - both + 1):
                ends = set(moved)
                ends.update(s for loop in loops[:both] for s in loop)
                ends.update(s2 for _, s2 in loops[both:both + one])
                complement = (tuple(k - c for k, c in zip(sizes, counts)),
                              len(loops) - both - one)
                yield ends, (counts, both), complement


def _splits(graph: StableGraph):
    """The one-edge degenerations of `graph`, as (graph, new edge) pairs:
    at least one in every isomorphism class of them.

    The inverse of contracting one edge.  For each vertex v: a loop at v
    that lowers g_v by one, and the splits of v into v and a new last
    vertex joined by the new edge, sharing out g_v, the legs of v and the
    edge ends at v so that both vertices stay stable.  The two ends of a
    loop at v may land on different sides, which makes a parallel edge.
    Three symmetries of a split are used to yield one choice where the
    side assignments give several isomorphic graphs:

    - complement: moving (S, g_new) or its complement (S^c, g_v - g_new)
      gives the same graph with v and the new vertex swapped, so the
      first leg of v stays on v; with no legs, the choice that is not
      larger than its complement in (bundle counts, loops moved whole,
      g_new) is kept;
    - parallel edges: permuting the edges from v to one neighbour is an
      automorphism, so only how many of their ends move matters;
    - loops: permuting the loops at v and swapping the two ends of one are
      automorphisms, so only how many loops move 0, 1 or 2 ends matters.

    Each symmetry maps a side assignment to an isomorphic split, so every
    class keeps a representative; isomorphic outputs still repeat across
    different vertices and different choices.
    """
    V = graph.n_vertices
    for v in range(V):
        gv, legs, ends = graph.genera[v], graph.legs[v], graph.edge_ends(v)
        if gv:
            new = ((v, len(ends)), (v, len(ends) + 1))
            genera = graph.genera[:v] + (gv - 1,) + graph.genera[v + 1:]
            yield _graph(genera, graph.legs, graph.edges + (new,)), new
        for moved, key, complement in _moved_ends(graph, v):
            if not legs and key > complement:
                continue
            rename, slots = {}, [0, 0]
            for s in ends:
                side = s in moved
                rename[(v, s)] = (V if side else v, slots[side])
                slots[side] += 1
            new = ((v, slots[0]), (V, slots[1]))
            edges = [new]
            for a, b in graph.edges:
                a, b = rename.get(a, a), rename.get(b, b)
                # an end moved to the new last vertex V can swap the order
                edges.append((a, b) if a <= b else (b, a))
            # the first leg, if any, stays on v
            for sides in itertools.product((0, 1), repeat=max(len(legs) - 1, 0)):
                parts = (list(legs[:1]), [])
                for m, side in zip(legs[1:], sides):
                    parts[side].append(m)
                legs_out = (graph.legs[:v] + (tuple(parts[0]),) + graph.legs[v + 1:]
                            + (tuple(parts[1]),))
                for g_new in range(gv + 1):
                    if not legs and key == complement and g_new > gv - g_new:
                        continue
                    # 2 g - 2 + valence > 0 on both sides, the new edge included
                    if min(2 * (gv - g_new) + len(parts[0]) + slots[0],
                           2 * g_new + len(parts[1]) + slots[1]) < 2:
                        continue
                    genera = (graph.genera[:v] + (gv - g_new,) + graph.genera[v + 1:]
                              + (g_new,))
                    yield _graph(genera, legs_out, edges), new


# A dict, not functools.cache: perfbench/spans.py reads it by name.
_ENUM_CACHE: dict[tuple[int, int], tuple] = {}


def enumerate_stable_graphs(g: int, n: int) -> tuple[StableGraph, ...]:
    """All isomorphism classes of stable graphs of type (g, n).

    Generated by degeneration: contracting any edge of a stable graph gives
    a stable graph with one edge fewer, so the canonical forms of the
    `_splits` of the graphs with E edges are all graphs with E + 1 edges,
    starting from the smooth graph and stopping at the dimension bound
    3g - 3 + n.  `_splits` yields one split per class of side choices up
    to the symmetries of the split, not every labelled copy, so each
    class costs fewer canonical forms.  The graphs are canonical forms,
    sorted by `StableGraph.sort_key`.
    """
    key = (g, n)
    if key in _ENUM_CACHE:
        return _ENUM_CACHE[key]
    check_stable_type(g, n)
    layer = {canonical_form(smooth_graph(g, n))}
    found = set(layer)
    for _ in range(3 * g - 3 + n):
        layer = {
            canonical_form(split) for graph in layer for split, _ in _splits(graph)
        }
        found |= layer
    result = tuple(sorted(found, key=lambda gr: gr.sort_key()))
    _ENUM_CACHE[key] = result
    return result


# ---------------------------------------------------------------------------
# common degenerations


@cache
def _degeneration_index(g: int, n: int, E: int, k: int) -> dict:
    """The contractions of k edges of the E-edge graphs of (g, n), inverted
    by target: the slice of the index onto the (E - k)-edge graphs.

    Maps every canonical contracted graph to {graph: [(bits, vmap, he_inv)]}
    with graphs in enumeration order and subsets in increasing order: bits
    marks the contracted edges, vmap sends each graph vertex to the target
    vertex it lands on, and he_inv names, for every target half-edge, the
    graph half-edge sitting over it.
    """
    index = {}
    subsets = [bits for bits in range(1 << E) if bits.bit_count() == k]
    for graph in enumerate_stable_graphs(g, n):
        if graph.n_edges != E:
            continue
        for bits in subsets:
            subset = [i for i in range(E) if bits >> i & 1]
            contracted, vmap, hemap = contract_edges(graph, subset)
            canon, cvmap, chemap = canonical_form_with_map(contracted)
            total_v = tuple(cvmap[vmap[v]] for v in range(graph.n_vertices))
            he_inv = {chemap[m]: h for h, m in hemap.items()}
            over = index.setdefault(canon, {})
            over.setdefault(graph, []).append((bits, total_v, he_inv))
    return index


def _over(g, n, E, targets, fewest):
    """{graph: [(bits, vmap, he_inv, payload)]} of the contractions of the
    E-edge graphs onto the targets with at least `fewest` edges, with their
    payloads; each target reads the index slice of its edge count."""
    out: dict = {}
    for target, payload in targets.items():
        if fewest <= target.n_edges <= E:
            index = _degeneration_index(g, n, E, E - target.n_edges)
            for graph, entries in index.get(target, {}).items():
                out.setdefault(graph, []).extend((*entry, payload) for entry in entries)
    return out


def _partnered(entries, others):
    """The entries whose contracted edges miss those of some other entry."""
    return [e for e in entries if not all(e[0] & other[0] for other in others)]


def common_degenerations(g: int, n: int, left: dict, right: dict):
    """(graph, left entries, right entries) per common degeneration of a
    graph of left and one of right: contractions onto both, with disjoint
    contracted edges.  left and right map canonical graphs to payloads;
    an entry (bits, vmap, he_inv, payload) is a contraction as in
    `_degeneration_index` that has a disjoint partner.  Such a graph has
    between max(|E(a)|, |E(b)|) and |E(a)| + |E(b)| edges, so only those
    edge counts E are read, and for each target t only the index slice
    that contracts E - |E(t)| edges."""
    if not left or not right:
        return
    most_left = max(a.n_edges for a in left)
    most_right = max(b.n_edges for b in right)
    low = max(min(a.n_edges for a in left), min(b.n_edges for b in right))
    for E in range(low, min(most_left + most_right, 3 * g - 3 + n) + 1):
        over_right = _over(g, n, E, right, E - most_left)
        for graph, entries in _over(g, n, E, left, E - most_right).items():
            rights = over_right.get(graph, [])
            lefts = _partnered(entries, rights)
            if lefts:
                yield graph, lefts, _partnered(rights, lefts)


def degeneration_base_pairs(a: StableGraph, b: StableGraph) -> tuple:
    """Common degenerations of a and b, one record per contraction pair.

    Each record is (graph, vmap_a, he_to_a, vmap_b, he_to_b, shared_edges)
    where he_to_a maps every half-edge of canonical(a) to the half-edge of
    `graph` over it, and shared_edges are the edge indices of `graph` kept
    by both contractions.  Records do not include compositions with
    automorphisms of a and b.  A record view of `common_degenerations`
    that no library code calls; tests and the benchmark's spans read it.
    """
    a, b = canonical_form(a), canonical_form(b)
    g, n = a.genus(), a.n_markings
    if (g, n) != (b.genus(), b.n_markings):
        raise DomainError("graphs live on different moduli spaces")
    results = []
    for graph, into_a, into_b in common_degenerations(g, n, {a: None}, {b: None}):
        for (sa, va, ia, _), (sb, vb, ib, _) in itertools.product(into_a, into_b):
            if not sa & sb:
                both = sa | sb
                shared = tuple(i for i in range(graph.n_edges) if not both >> i & 1)
                results.append((graph, va, ia, vb, ib, shared))
    return tuple(results)
