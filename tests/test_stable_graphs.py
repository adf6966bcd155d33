"""Stable graphs: construction, canonical forms, automorphisms, enumeration."""

import itertools
import json
import random
from dataclasses import dataclass

import pytest

import canonical_oracle
from enum_oracle import all_splits, oracle_stable_graphs
from tautring.errors import DomainError
from tautring.stable_graphs import (
    _splits,
    _vertex_automorphism_maps,
    StableGraph,
    automorphism_count,
    automorphisms,
    canonical_form,
    canonical_form_with_map,
    check_stable_type,
    degeneration_base_pairs,
    contract_edges,
    enumerate_stable_graphs,
    has_separating_edge,
    separating_edges,
    smooth_graph,
)
from tautring.pixton import lambda_top
from tautring.taut_classes import fundamental_class, kappa_class, psi_class

THETA = StableGraph((0, 0), ((), ()), (((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 2))))
DUMBBELL = StableGraph((0, 0), ((), ()), (((0, 0), (0, 1)), ((1, 0), (1, 1)), ((0, 2), (1, 2))))
LOOP_G1 = StableGraph((1,), ((),), (((0, 0), (0, 1)),))
BRIDGE_G1_G1 = StableGraph((1, 1), ((), ()), (((0, 0), (1, 0)),))
LOOP_11 = StableGraph((0,), ((1,),), (((0, 0), (0, 1)),))


def _brute_force_aut_count(graph):
    """Count self-isomorphisms directly: a vertex permutation plus a slot
    assignment at every vertex that together carry edges to edges and fix
    the legs.  Only sensible for a handful of half-edges."""
    V = graph.n_vertices
    ends = [graph.edge_ends(v) for v in range(V)]
    edge_set = set(graph.edges)
    total = 0
    for vperm in itertools.permutations(range(V)):
        if any(graph.genera[v] != graph.genera[vperm[v]] for v in range(V)):
            continue
        if any(graph.legs[v] != graph.legs[vperm[v]] for v in range(V)):
            continue
        if any(len(ends[v]) != len(ends[vperm[v]]) for v in range(V)):
            continue
        for slot_choice in itertools.product(
            *(itertools.permutations(ends[vperm[v]]) for v in range(V))
        ):
            hemap = {}
            for v in range(V):
                for s, t in zip(ends[v], slot_choice[v]):
                    hemap[(v, s)] = (vperm[v], t)
            if all(
                tuple(sorted((hemap[a], hemap[b]))) in edge_set
                for (a, b) in graph.edges
            ):
                total += 1
    return total


def _relabeled(graph, vperm, slot_perms):
    """An isomorphic copy: vertex v becomes vperm[v] and slot s at v becomes
    slot_perms[v][s]."""
    genera = [0] * graph.n_vertices
    legs = [()] * graph.n_vertices
    for v in range(graph.n_vertices):
        genera[vperm[v]] = graph.genera[v]
        legs[vperm[v]] = graph.legs[v]
    edges = tuple(
        ((vperm[v1], slot_perms[v1][s1]), (vperm[v2], slot_perms[v2][s2]))
        for ((v1, s1), (v2, s2)) in graph.edges
    )
    out = StableGraph(tuple(genera), tuple(legs), edges)
    out.validate()
    return out


def test_basic_invariants():
    assert THETA.genus() == 2
    assert THETA.h1() == 2
    assert THETA.n_markings == 0
    assert DUMBBELL.genus() == 2
    assert LOOP_11.genus() == 1
    assert LOOP_11.markings() == (1,)
    g = smooth_graph(2, 3)
    assert g.n_edges == 0 and g.genus() == 2 and g.markings() == (1, 2, 3)
    assert THETA.edge_ends(0) == [0, 1, 2]
    assert THETA.valence(0) == 3


@pytest.mark.parametrize(
    "g, n, count",
    [(0, 3, 1), (0, 4, 4), (1, 1, 2), (1, 2, 5), (2, 0, 7), (3, 0, 42), (4, 0, 379)],
)
def test_enumeration_counts(g, n, count):
    graphs = enumerate_stable_graphs(g, n)
    assert len(graphs) == count
    assert len(set(graphs)) == count
    for graph in graphs:
        graph.validate()
        assert graph.genus() == g
        assert graph.n_markings == n
        assert canonical_form(graph) == graph


SMALL_TYPES = [
    (g, n) for g in range(4) for n in range(7) if 0 < 2 * g - 2 + n <= 4
]


@pytest.mark.parametrize("g, n", SMALL_TYPES)
def test_enumeration_matches_brute_force(g, n):
    assert enumerate_stable_graphs(g, n) == oracle_stable_graphs(g, n)


SPLIT_TYPES = [
    (g, n) for g in range(4) for n in range(8) if 0 < 2 * g - 2 + n <= 5
] + [(4, 0)]


@pytest.mark.parametrize("g, n", SPLIT_TYPES)
def test_splits_reach_every_class_of_all_side_assignments(g, n):
    """The symmetry-reduced splits of each graph have the same canonical
    forms as the splits from every side assignment."""
    for graph in enumerate_stable_graphs(g, n):
        reduced = {canonical_form(split) for split, _ in _splits(graph)}
        every = {canonical_form(split) for split, _ in all_splits(graph)}
        assert reduced == every, graph


@pytest.mark.parametrize("g, n", [(2, 0), (1, 2), (0, 5), (2, 1), (1, 3)])
def test_contracting_the_new_edge_undoes_a_split(g, n):
    for source in enumerate_stable_graphs(g, n):
        for split, new in _splits(source):
            split.validate()
            assert split.n_edges == source.n_edges + 1
            contracted, _, _ = contract_edges(split, {split.edges.index(new)})
            assert canonical_form(contracted) == source


def test_genus2_graphs_by_hand():
    """The seven strata of genus 2 listed explicitly."""
    by_hand = {
        smooth_graph(2, 0),
        LOOP_G1,
        BRIDGE_G1_G1,
        StableGraph((0,), ((),), (((0, 0), (0, 1)), ((0, 2), (0, 3)))),
        StableGraph((0, 1), ((), ()), (((0, 0), (0, 1)), ((0, 2), (1, 0)))),
        THETA,
        DUMBBELL,
    }
    assert {canonical_form(g) for g in by_hand} == set(enumerate_stable_graphs(2, 0))


def test_automorphism_counts_against_brute_force():
    for graph in enumerate_stable_graphs(2, 0) + enumerate_stable_graphs(1, 2):
        expected = _brute_force_aut_count(graph)
        assert automorphism_count(graph) == expected
        assert len(automorphisms(graph)) == expected


def test_known_automorphism_orders():
    assert automorphism_count(THETA) == 12
    assert automorphism_count(DUMBBELL) == 8
    assert automorphism_count(LOOP_11) == 2
    assert automorphism_count(smooth_graph(3, 0)) == 1


def test_automorphisms_fix_legs_and_preserve_edges():
    for graph in enumerate_stable_graphs(1, 2):
        edge_set = set(graph.edges)
        for vmap, hemap in automorphisms(graph):
            for v in range(graph.n_vertices):
                assert graph.legs[v] == graph.legs[vmap[v]]
            for (a, b) in graph.edges:
                assert tuple(sorted((hemap[a], hemap[b]))) in edge_set


def test_canonical_form_is_relabeling_invariant():
    for graph in (THETA, DUMBBELL, BRIDGE_G1_G1):
        base = canonical_form(graph)
        V = graph.n_vertices
        ends = [graph.edge_ends(v) for v in range(V)]
        for vperm in itertools.permutations(range(V)):
            slot_perms = [
                {s: t for s, t in zip(ends[v], reversed(ends[v]))} for v in range(V)
            ]
            other = _relabeled(graph, vperm, slot_perms)
            assert canonical_form(other) == base


def _oracle_inputs():
    """Every graph with 2g - 2 + n <= 4 and every graph of (2,3) and (3,1),
    each also under two seeded relabelings of its vertices and slots."""
    rng = random.Random(1301)
    for g, n in itertools.product(range(4), range(7)):
        if 0 < 2 * g - 2 + n <= 4 or (g, n) in ((2, 3), (3, 1)):
            for graph in enumerate_stable_graphs(g, n):
                yield graph
                for _ in range(2):
                    vperm = rng.sample(range(graph.n_vertices), graph.n_vertices)
                    slot_perms = []
                    for v in range(graph.n_vertices):
                        ends = graph.edge_ends(v)
                        slot_perms.append(dict(zip(ends, rng.sample(ends, len(ends)))))
                    yield _relabeled(graph, vperm, slot_perms)


def test_search_matches_the_two_sweeps_of_the_oracle():
    """One search gives the canonical forms and the automorphisms that the
    two sweeps of `canonical_oracle` give, in the same order."""
    relabeled = 0
    for graph in _oracle_inputs():
        assert canonical_form_with_map(graph) == canonical_oracle.canonical_form_with_map(graph)
        maps = canonical_oracle.vertex_automorphism_maps(graph)
        assert list(_vertex_automorphism_maps(graph)) == maps
        auts = canonical_oracle.automorphisms(graph, maps)
        assert list(automorphisms(graph)) == auts
        assert auts[0] == (tuple(range(graph.n_vertices)), {h: h for h in graph.half_edges()})
        assert automorphism_count(graph) == len(auts)
        relabeled += canonical_form(graph) != graph
    assert relabeled > 1000


def test_contraction_closure():
    for g, n in ((2, 0), (1, 2)):
        universe = set(enumerate_stable_graphs(g, n))
        for graph in universe:
            for e in range(graph.n_edges):
                contracted, vmap, hemap = contract_edges(graph, {e})
                contracted.validate()
                assert contracted.genus() == g
                assert contracted.n_markings == n
                assert contracted.n_edges == graph.n_edges - 1
                assert canonical_form(contracted) in universe
                # the recorded maps really land in the contracted graph
                he = set(contracted.half_edges())
                assert all(h in he for h in hemap.values())
                assert all(0 <= vmap[v] < contracted.n_vertices for v in range(graph.n_vertices))


def test_contract_loop_raises_genus():
    contracted, _, _ = contract_edges(LOOP_G1, {0})
    assert contracted == smooth_graph(2, 0)


def test_separating_edges():
    assert separating_edges(BRIDGE_G1_G1) == [0]
    assert has_separating_edge(BRIDGE_G1_G1)
    assert separating_edges(LOOP_G1) == []
    assert separating_edges(THETA) == []
    # the dumbbell's bridge is its only separating edge
    assert len(separating_edges(DUMBBELL)) == 1
    assert not has_separating_edge(smooth_graph(2, 1))


def _separating_edges_by_rebuilding(graph):
    """The construction that `separating_edges` replaced: rebuild the graph
    without each edge and ask whether it is still connected."""
    out = []
    for idx, ((v1, _), (v2, _)) in enumerate(graph.edges):
        rest = graph.edges[:idx] + graph.edges[idx + 1:]
        if v1 != v2 and not StableGraph(graph.genera, graph.legs, rest).is_connected():
            out.append(idx)
    return out


def test_separating_edges_match_the_rebuilding_oracle():
    """Every stable graph with 2g - 2 + n <= 4, many with separating edges."""
    graphs = with_bridges = 0
    for g, n in itertools.product(range(4), range(7)):
        if 0 < 2 * g - 2 + n <= 4:
            for graph in enumerate_stable_graphs(g, n):
                want = _separating_edges_by_rebuilding(graph)
                assert separating_edges(graph) == want
                graphs += 1
                with_bridges += bool(want)
    assert 0 < with_bridges < graphs


@dataclass(frozen=True)
class ContractionPair:
    """A common degeneration of two stable graphs.

    `graph` contracts onto each factor; `vmap_a[v]` is the factor-A vertex a
    vertex of `graph` lands on, `he_to_a` pairs each half-edge of A with the
    half-edge of `graph` sitting over it (likewise for B).  `shared_edges`
    lists the edge indices of `graph` lying over an edge of both factors;
    these carry the excess factor in products.
    """
    graph: StableGraph
    vmap_a: tuple[int, ...]
    he_to_a: tuple
    vmap_b: tuple[int, ...]
    he_to_b: tuple
    shared_edges: tuple[int, ...]


def common_degenerations(a, b):
    """Every contraction pair (graph, f_a, f_b) onto canonical a and b.

    The base records of `degeneration_base_pairs` composed with all
    automorphisms of the two factors.
    """
    auts_a = automorphisms(canonical_form(a))
    auts_b = automorphisms(canonical_form(b))
    results = []
    for (graph, va, ia, vb, ib, shared) in degeneration_base_pairs(a, b):
        for aut_v_a, aut_he_a in auts_a:
            fa_v = tuple(aut_v_a[va[v]] for v in range(graph.n_vertices))
            inv_a = tuple(sorted((aut_he_a[m], h) for m, h in ia.items()))
            for aut_v_b, aut_he_b in auts_b:
                fb_v = tuple(aut_v_b[vb[v]] for v in range(graph.n_vertices))
                inv_b = tuple(sorted((aut_he_b[m], h) for m, h in ib.items()))
                results.append(
                    ContractionPair(graph, fa_v, inv_a, fb_v, inv_b, shared)
                )
    return tuple(results)


def test_common_degenerations_shapes():
    pairs = common_degenerations(LOOP_G1, BRIDGE_G1_G1)
    assert pairs
    for pair in pairs:
        assert pair.graph.genus() == 2
        assert pair.graph.n_edges >= 1
        assert set(pair.shared_edges) <= set(range(pair.graph.n_edges))
        assert len(pair.vmap_a) == pair.graph.n_vertices
        assert len(pair.vmap_b) == pair.graph.n_vertices


@pytest.mark.parametrize(
    "a, b",
    [
        (LOOP_G1, BRIDGE_G1_G1),
        (LOOP_G1, LOOP_G1),
        (THETA, LOOP_G1),
        (DUMBBELL, BRIDGE_G1_G1),
        (LOOP_11, LOOP_11),
    ],
)
def test_degeneration_records_contract_onto_both_factors(a, b):
    """Contracting the edges a record does not keep over a factor gives
    that factor, with every factor half-edge over a kept one."""
    records = degeneration_base_pairs(a, b)
    assert records
    for graph, va, ia, vb, ib, shared in records:
        kept_a = {i for i, e in enumerate(graph.edges) if e[0] in ia.values()}
        kept_b = {i for i, e in enumerate(graph.edges) if e[0] in ib.values()}
        assert kept_a | kept_b == set(range(graph.n_edges))
        assert tuple(sorted(kept_a & kept_b)) == shared
        for factor, kept, he_inv in ((a, kept_a, ia), (b, kept_b, ib)):
            drop = set(range(graph.n_edges)) - kept
            assert canonical_form(contract_edges(graph, drop)[0]) == canonical_form(factor)
            assert set(he_inv) == set(canonical_form(factor).half_edges())


def test_json_round_trip():
    for graph in enumerate_stable_graphs(2, 0) + (LOOP_11,):
        again = StableGraph.from_json(graph.to_json())
        assert again == graph
    data = json.loads(THETA.to_json())
    assert data["g"] == 2 and data["n"] == 0
    data["g"] = 3
    with pytest.raises(DomainError):
        StableGraph.from_json_dict(data)


@pytest.mark.parametrize(
    "genera, legs, edges",
    [
        ((0,), ((),), ()),  # genus 0 vertex with no special points
        ((0, 1), ((), ()), ()),  # disconnected
        ((1,), ((1, 1),), ()),  # repeated marking
        ((-1,), ((1,),), ()),  # negative genus
        ((1, 0), ((), (1,)), (((0, 0), (1, 0)),)),  # unstable genus-0 end
        ((1,), ((),), (((0, 0), (0, 0)),)),  # half-edge used twice
    ],
)
def test_validate_rejects(genera, legs, edges):
    with pytest.raises(DomainError):
        StableGraph(genera, legs, edges).validate()


@pytest.mark.parametrize(
    "build",
    [
        check_stable_type,
        smooth_graph,
        enumerate_stable_graphs,
        fundamental_class,
        lambda_top,
        lambda g, n: kappa_class(g, n, 1),
        lambda g, n: psi_class(g, n, 1),
    ],
    ids=["check", "smooth", "enumerate", "fundamental", "lambda", "kappa", "psi"],
)
@pytest.mark.parametrize("g, n", [(2, -1), (3, -1), (1, -2), (4, -3)])
def test_negative_marking_counts_are_rejected(build, g, n):
    """Each has 2g - 2 + n > 0 and was once read as n = 0."""
    with pytest.raises(DomainError, match="is not a stable type"):
        build(g, n)


def test_the_stable_type_check():
    for g, n in [(0, 3), (1, 1), (2, 0), (3, 5)]:
        assert check_stable_type(g, n) is None
    for g, n in [(0, 2), (1, 0), (-1, 5), (2, -1), (0, -3)]:
        with pytest.raises(DomainError, match=r"\(%d,%d\) is not a stable type" % (g, n)):
            check_stable_type(g, n)


GRAPH_PROBES = {
    "empty object": "{}",
    "array": "[]",
    "invalid JSON": "{",
    "vertex genus 1.5": '{"vertices": [{"genus": 1.5, "legs": []}], "edges": [[[0, 0], [0, 1]]]}',
    "vertex genus a bool": '{"vertices": [{"genus": true, "legs": [1]}], "edges": []}',
    "vertex genus a string": '{"vertices": [{"genus": "2", "legs": []}], "edges": []}',
    "vertex not an object": '{"vertices": [2], "edges": []}',
    "legs missing": '{"vertices": [{"genus": 1}], "edges": [[[0, 0], [0, 1]]]}',
    "leg a float": '{"vertices": [{"genus": 1, "legs": [1.0]}], "edges": []}',
    "vertices an object": '{"vertices": {}, "edges": []}',
    "edges missing": '{"vertices": [{"genus": 2, "legs": []}]}',
    "edge of one half": '{"vertices": [{"genus": 1, "legs": []}], "edges": [[[0, 0]]]}',
    "half-edge of three ints": '{"vertices": [{"genus": 1, "legs": []}], "edges": [[[0, 0], [0, 1, 2]]]}',
    "half-edge slot a string": '{"vertices": [{"genus": 1, "legs": []}], "edges": [[[0, 0], [0, "1"]]]}',
    "edge of two ints": '{"vertices": [{"genus": 1, "legs": []}], "edges": [[0, 1]]}',
    "g a float": '{"g": 2.0, "vertices": [{"genus": 1, "legs": []}], "edges": [[[0, 0], [0, 1]]]}',
    "n a string": '{"n": "0", "vertices": [{"genus": 1, "legs": []}], "edges": [[[0, 0], [0, 1]]]}',
}


@pytest.mark.parametrize("probe", sorted(GRAPH_PROBES))
def test_malformed_graph_json_is_a_domain_error(probe):
    with pytest.raises(DomainError):
        StableGraph.from_json(GRAPH_PROBES[probe])
