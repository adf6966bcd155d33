"""The shared combinatorics against the hand-written copies it replaced.

`combinatorics_oracle` keeps the former union-finds of `contract_edges`
and `pixton._edge_forms`, the search in `StableGraph.is_connected`, the
compositions of `taut_classes` and the cone monomials of `cone_complex`.
Every result must be equal, order included: the contraction maps number
the components by least vertex, the Pixton blocks come in order of
their least weight, and the generator, multi-index and pp_space bases
follow the composition and monomial orders.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import combinatorics_oracle as oracle
import pixton_oracle
from tautring import cone_complex, pixton
from tautring.combinatorics import compositions, union_find
from tautring.stable_graphs import StableGraph, contract_edges, enumerate_stable_graphs


def test_union_find_hangs_the_first_root_under_the_second():
    assert union_find(3, [(0, 1)]) == [1, 1, 2]
    assert union_find(3, [(1, 0)]) == [0, 0, 2]
    assert union_find(4, [(0, 1), (2, 3), (1, 3)]) == [3, 3, 3, 3]
    assert union_find(0, []) == []


@pytest.mark.parametrize("g, n", [(0, 5), (1, 3), (2, 1), (2, 2), (3, 0), (3, 1), (1, 4), (0, 6)])
def test_contract_edges_matches_the_oracle_on_every_edge_subset(g, n):
    for graph in enumerate_stable_graphs(g, n):
        for size in range(graph.n_edges + 1):
            for subset in itertools.combinations(range(graph.n_edges), size):
                assert contract_edges(graph, subset) == oracle.contract_edges(graph, subset)


@st.composite
def multigraphs(draw):
    """Vertex count 0..6 and random edges, loops and parallels included,
    with consecutive slots at each vertex."""
    V = draw(st.integers(0, 6))
    vertex = st.integers(0, max(V - 1, 0))
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=8 if V else 0))
    slots = [0] * V
    edges = []
    for v1, v2 in pairs:
        a = (v1, slots[v1])
        slots[v1] += 1
        b = (v2, slots[v2])
        slots[v2] += 1
        edges.append((a, b))
    return StableGraph((0,) * V, ((),) * V, tuple(edges))


@settings(max_examples=300, deadline=None)
@given(multigraphs())
def test_is_connected_matches_the_search(graph):
    assert graph.is_connected() == oracle.is_connected(graph)


def test_is_connected_edge_cases():
    for V, edges, expected in [
        (0, (), False),
        (1, (), True),
        (2, (), False),
        (2, (((0, 0), (0, 1)),), False),
        (3, (((0, 0), (2, 0)), ((2, 1), (1, 0))), True),
    ]:
        graph = StableGraph((0,) * V, ((),) * V, edges)
        assert graph.is_connected() == oracle.is_connected(graph) == expected


@pytest.mark.parametrize("g, n", [(3, 0), (2, 2), (1, 4), (4, 0)])
def test_edge_form_blocks_match_the_oracle(g, n):
    for graph in enumerate_stable_graphs(g, n):
        forms, blocks = pixton._edge_forms(graph, (0,) * n)
        assert blocks == oracle.edge_form_blocks(forms, graph.h1())


def test_compositions_capped_at_the_total_match_the_oracle():
    for total, parts in itertools.product(range(8), range(8)):
        expected = list(oracle.compositions(total, parts))
        assert list(compositions(total, (total,) * parts)) == expected


@pytest.mark.parametrize("g, n", [(0, 6), (2, 2), (3, 1)])
def test_power_sums_list_the_multi_indices_in_order(g, n):
    """Edge counts 0..7 and every degree up to the dimension, below the
    edge count included."""
    top = 3 * g - 3 + n
    for graph in enumerate_stable_graphs(g, n):
        for d in range(top + 1):
            sums = pixton._power_sums(graph, (0,) * n, d, 1)
            assert list(sums) == pixton_oracle._multi_indices(graph.n_edges, d)


@pytest.mark.parametrize("m", range(1, 6))
def test_pp_space_monomials_follow_the_oracle_order(m):
    """On one orthant every multiset is its own class, so basis function
    k is the k-th monomial, and its multiset vector is the k-th unit
    vector."""
    complex = cone_complex.simplex_cone_complex(m)
    for d in range(5):
        basis = cone_complex.pp_space(complex, d)
        monomials = oracle.cone_monomials(m, d)
        assert [list(f.polys[0].items()) for f in basis] == [[(e, 1)] for e in monomials]
        for k, f in enumerate(basis):
            vector = cone_complex._multiset_vector(f)
            assert vector == [int(i == k) for i in range(len(monomials))]
