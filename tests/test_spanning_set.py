"""The spanning set of the membership ranks, against two oracles.

`spanning_generators(g, n, d)` builds the classes of `generators(g, n, d)`
with no psi or kappa on a vertex of genus 0 or 1, without building the
others.  The filter of `generators()` on `vertex_degrees` is its oracle:
equal in order, terms and coefficients on every type with
2g - 2 + n <= 4 and on (2, 3) and (3, 1), at every degree (those two
take about 1.1 s together).  On (0, 7) and (1, 5), where every vertex
has genus 0 or 1, the set is the undecorated strata, one per graph with
d edges, read off the enumeration instead.

The spanning claim itself (boundary strata span the tautological rings
in genus 0 and 1) is checked in pairing coordinates: against the full
complementary `generators()`, the pairing row of every dropped class
lies in the row span of the kept ones, for the rows and for the columns
of each pairing matrix.
"""

import pytest

from tautring.errors import DomainError
from tautring.exact_linalg import QMatrix
from tautring.membership import pairing_rank
from tautring.product import pairing_matrix
from tautring.stable_graphs import enumerate_stable_graphs
from tautring.taut_classes import (
    class_of_graph,
    dim_moduli,
    generators,
    spanning_generators,
    term_sort_key,
    vertex_degrees,
)

FILTERED = [(g, n) for g in range(4) for n in range(7) if 0 < 2 * g - 2 + n <= 4] + [(2, 3), (3, 1)]
UNDECORATED = [(0, 7), (1, 5)]
CLAIMED = [(0, 5), (0, 6), (1, 3), (2, 0), (2, 1), (2, 2), (3, 0)]


def _kept(cls):
    """True when cls has no psi or kappa on a vertex of genus 0 or 1."""
    [(graph, dec)] = cls.terms
    return not any(
        deg for deg, genus in zip(vertex_degrees(graph, dec), graph.genera) if genus < 2
    )


def _exact(classes):
    return [(c.g, c.n, c.d, c.virtual, list(c.terms.items())) for c in classes]


@pytest.mark.parametrize("g, n", FILTERED)
def test_the_builder_is_the_filter_of_the_generators(g, n):
    for d in range(dim_moduli(g, n) + 1):
        kept = [cls for cls in generators(g, n, d) if _kept(cls)]
        assert _exact(spanning_generators(g, n, d)) == _exact(kept), d


@pytest.mark.parametrize("g, n", UNDECORATED)
def test_genus_0_and_1_keep_the_undecorated_strata(g, n):
    graphs = enumerate_stable_graphs(g, n)
    for d in range(dim_moduli(g, n) + 1):
        strata = [class_of_graph(graph) for graph in graphs if graph.n_edges == d]
        strata.sort(key=lambda cls: term_sort_key(next(iter(cls.terms))))
        assert _exact(spanning_generators(g, n, d)) == _exact(strata), d


def _rank(rows, n_cols):
    return QMatrix(rows, n_cols=n_cols).rank()


@pytest.mark.parametrize("g, n", CLAIMED)
def test_dropped_generators_pair_in_the_span_of_the_kept_ones(g, n):
    """Every degree d <= D/2 checks the rows (degree d) and the columns
    (degree D - d) of one matrix, so both sides of the pairing are seen
    at every degree."""
    top = dim_moduli(g, n)
    for d in range(top // 2 + 1):
        rows, cols = generators(g, n, d), generators(g, n, top - d)
        matrix = pairing_matrix(rows, cols)
        full = _rank(matrix, len(cols))
        kept_rows = [row for cls, row in zip(rows, matrix) if _kept(cls)]
        assert _rank(kept_rows, len(cols)) == full, ("rows", d)
        columns = list(zip(*matrix)) if rows else []
        kept_cols = [list(col) for cls, col in zip(cols, columns) if _kept(cls)]
        assert _rank(kept_cols, len(rows)) == full, ("columns", d)


def test_the_undecorated_strata_alone_do_not_span():
    """The check above can fail: kappa_1 on the smooth genus-3 curve is
    needed in degree 1 (Pic(M̄_3) has rank 3, with two boundary
    divisors)."""
    rows, cols = generators(3, 0, 1), generators(3, 0, 5)
    matrix = pairing_matrix(rows, cols)
    undecorated = [
        row for cls, row in zip(rows, matrix) if not next(iter(cls.terms))[1].degree()
    ]
    assert (_rank(undecorated, len(cols)), _rank(matrix, len(cols))) == (2, 3)


@pytest.mark.parametrize(
    "call, args",
    [
        (generators, (0, 2, 0)),
        (generators, (1, 0, 0)),
        (spanning_generators, (0, 2, 0)),
        (spanning_generators, (-1, 3, 0)),
        (pairing_rank, (0, 1, 0)),
        (pairing_rank, (-1, 3, 0)),
    ],
)
def test_an_unstable_type_is_named_before_the_degree(call, args):
    g, n, _ = args
    with pytest.raises(DomainError, match=r"^\(%d,%d\) is not a stable type$" % (g, n)):
        call(*args)


@pytest.mark.parametrize("call", [generators, spanning_generators, pairing_rank])
@pytest.mark.parametrize("d", [-1, 4])
def test_a_degree_outside_the_range_is_refused(call, d):
    with pytest.raises(DomainError, match=r"^degree outside 0\.\.3g-3\+n$"):
        call(2, 0, d)
