"""The graph layer's own builders against the public constructor, and the
sliced contraction index against the whole one.

`_splits`, `contract_edges` and `canonical_form_with_map` build their
graphs through a private constructor that trusts their legs and edge
orientation; the public `StableGraph(...)` normalizes every input.  Each
graph they make must equal, field for field and in hash, the graph the
public constructor rebuilds from the same fields.
"""

import pytest

from degeneration_oracle import degeneration_index
from tautring import stable_graphs as sg
from tautring.stable_graphs import (
    StableGraph,
    _splits,
    canonical_form_with_map,
    contract_edges,
    enumerate_stable_graphs,
)

TYPES = [(g, n) for g in range(4) for n in range(8) if 0 < 2 * g - 2 + n <= 5]


def _same_as_public(graph):
    rebuilt = StableGraph(graph.genera, graph.legs, graph.edges)
    return (graph.genera, graph.legs, graph.edges, hash(graph)) == (
        rebuilt.genera,
        rebuilt.legs,
        rebuilt.edges,
        hash(rebuilt),
    )


def _built(g, n):
    """Every split and every contraction of the graphs of (g, n), and each
    distinct canonical form of them."""
    built = []
    for graph in enumerate_stable_graphs(g, n):
        built.extend(split for split, _ in _splits(graph))
        for bits in range(1 << graph.n_edges):
            subset = [i for i in range(graph.n_edges) if bits >> i & 1]
            built.append(contract_edges(graph, subset)[0])
    canons = {id(c): c for c in (canonical_form_with_map(b)[0] for b in built)}
    return built + list(canons.values())


@pytest.mark.parametrize("g, n", TYPES)
def test_builders_match_the_public_constructor(g, n):
    bad = [graph for graph in _built(g, n) if not _same_as_public(graph)]
    assert bad == []


def test_the_check_finds_an_unoriented_edge():
    graph = StableGraph((0, 0), ((1, 2), (3, 4)), (((0, 0), (1, 0)),))
    flipped = sg._graph(graph.genera, graph.legs, [((1, 0), (0, 0))])
    assert _same_as_public(graph) and not _same_as_public(flipped)


@pytest.mark.parametrize("g, n", TYPES)
def test_index_slices_make_up_the_whole_index(g, n):
    """Per target, the slice of its edge count holds the whole index's
    entries: the same graphs in the same order, the same entries in the
    same order; no slice holds a target that the whole index lacks."""
    top = 3 * g - 3 + n
    for E in range(top + 1):
        whole = degeneration_index(g, n, E)
        slices = [sg._degeneration_index(g, n, E, k) for k in range(E + 1)]
        assert sum(map(len, slices)) == len(whole)
        for target, over in whole.items():
            part = slices[E - target.n_edges][target]
            assert list(part) == list(over)
            assert list(part.values()) == list(over.values())
