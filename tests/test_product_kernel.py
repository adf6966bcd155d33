"""The excess-intersection kernel against the reference product.

`tests/product_oracle.py` keeps the product as it was before the kernel:
every excess term inserted into a canonicalized class one at a time, and
common degenerations found by scanning every stable graph.  On every pair
of generators of complementary degree of a few small spaces, the kernel
must give the same product class term for term, the same integral
without building the class, and the same degeneration records.  Sums of
terms with rational coefficients, on several graphs, and the zero class
are multiplied against it too.  The excess placements are checked
against the recursive walk of `tests/pairing_oracle.py`.
"""

import itertools
from collections import Counter

import pytest

from pairing_oracle import _excess as block_excess
from product_oracle import (
    oracle_degeneration_base_pairs,
    oracle_multiply,
    product_integral,
)
from tautring.integration import integrate
from tautring.membership import pair_integral
from tautring.pixton import lambda_top
from tautring.product import _ends, _excess, _layout, multiply
from tautring.rationals import QQ
from tautring.stable_graphs import (
    StableGraph,
    degeneration_base_pairs,
    enumerate_stable_graphs,
)
from tautring.taut_classes import TautClass, class_of_graph, dim_moduli, generators

SPACES = [(0, 5), (1, 2), (1, 3), (2, 0), (2, 1)]


def _complementary_pairs(g, n):
    top = dim_moduli(g, n)
    for d in range(top + 1):
        yield from itertools.product(generators(g, n, d), generators(g, n, top - d))


def _records(records):
    """Degeneration records in a hashable form, counted."""
    return Counter(
        (graph, va, frozenset(ia.items()), vb, frozenset(ib.items()), shared)
        for graph, va, ia, vb, ib, shared in records
    )


@pytest.mark.parametrize("g, n", SPACES)
def test_kernel_matches_the_reference_product(g, n):
    for a, b in _complementary_pairs(g, n):
        [(term_a, _)] = a.terms.items()
        [(term_b, _)] = b.terms.items()
        reference = oracle_multiply(a, b)
        assert multiply(a, b) == reference
        value = product_integral(term_a, term_b)
        assert value == integrate(reference)
        assert value == product_integral(term_b, term_a)
        assert pair_integral(a, b) == value
        assert _records(degeneration_base_pairs(term_a[0], term_b[0])) == _records(
            oracle_degeneration_base_pairs(term_a[0], term_b[0])
        )


@pytest.mark.parametrize("g, n", [(1, 3), (2, 0), (2, 1)])
def test_products_below_the_top_match_the_reference(g, n):
    top = dim_moduli(g, n)
    for d1 in range(1, top):
        for d2 in range(d1, top - d1):
            for a, b in itertools.product(generators(g, n, d1), generators(g, n, d2)):
                assert multiply(a, b) == oracle_multiply(a, b)


def _factors(case):
    """Two factors, the first with several terms and non-unit rational
    coefficients."""
    if case == "lambda3*loop/2":
        loop = StableGraph((2,), ((),), (((0, 0), (0, 1)),))
        return lambda_top(3), QQ(1, 2) * class_of_graph(loop)
    deg1, deg2 = generators(2, 1, 1), generators(2, 1, 2)
    x = QQ(2, 3) * deg2[1] - QQ(5, 7) * deg2[4] + 3 * deg2[9]
    return {
        "x*deg1": (x, deg1[0] - QQ(1, 2) * deg1[3]),
        "x*deg2": (x, QQ(3, 4) * deg2[2] - QQ(2, 5) * deg2[16]),
        "deg1*x": (deg1[1] + QQ(7, 2) * deg1[2], x),
    }[case]


@pytest.mark.parametrize("case", ["x*deg1", "x*deg2", "deg1*x", "lambda3*loop/2"])
def test_sums_with_rational_coefficients_match_the_reference(case):
    a, b = _factors(case)
    assert len(a.terms) > 1
    product = multiply(a, b)
    assert product.terms
    assert product == oracle_multiply(a, b)


def test_a_zero_factor_gives_the_zero_class():
    zero, x = TautClass(2, 1, 1), QQ(2, 3) * generators(2, 1, 2)[1]
    assert multiply(zero, x) == multiply(x, zero) == TautClass(2, 1, 3)
    assert oracle_multiply(zero, x) == TautClass(2, 1, 3)


@pytest.mark.parametrize("g, n", [(2, 2), (3, 0)])
def test_excess_placements_match_the_recursive_walk(g, n):
    """`_excess` gives the placements of the recursive walk of the block
    kernel, in its order, for every set of shared edges of every graph
    and for tight vertex budgets."""
    for graph in enumerate_stable_graphs(g, n):
        layout = _layout(graph)
        dims = layout[2]
        budgets = {dims, (1,) * len(dims)}
        budgets |= {dims[:v] + (b,) + dims[v + 1:] for v in range(len(dims)) for b in (0, 1)}
        for k in range(graph.n_edges + 1):
            for shared in itertools.combinations(range(graph.n_edges), k):
                ends = _ends(layout, graph, shared)
                for budget in budgets:
                    walked = [picked for _, picked in block_excess(ends, list(budget))]
                    assert _excess(ends, budget) == walked, (graph, shared, budget)
