"""Membership ranks on the integer term pairing against the full matrix.

`tautring.membership` ranks each block of classes on the pivot columns of
the integer matrix of their distinct terms.  `pairing_oracle` keeps the
route it replaced: the full `pairing_matrix` of every class, ranked by
`QMatrix` over all columns.  The reports must be equal on a spread of
spaces, and Hypothesis classes with planted answers must get them:
rational combinations of the divisor monomials are members, also with a
zero-class term that is no generator among their terms, and adding a
generator outside the span makes a non-member.
"""

from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

import pairing_oracle
from tautring.exact_linalg import QMatrix
from tautring.membership import (
    _degree_monomials,
    _term_pivots,
    div_membership,
    pairing_rank,
    subalgebra_span,
)
from tautring.pixton import lambda_top
from tautring.product import pairing_matrix
from tautring.rationals import QQ
from tautring.stable_graphs import enumerate_stable_graphs
from tautring.taut_classes import (
    PSI_HE,
    PSI_LEG,
    Decoration,
    canonical_term,
    dim_moduli,
    generators,
    kappa_class,
    vertex_data,
)

# (g, n, d): degree g, or 1 where g = 0
SPACES = [(1, 1, 1), (1, 3, 1), (2, 0, 2), (2, 1, 2), (0, 5, 1)]
# The golden digests of `div-membership` pin the reports of these, and of
# (3,1,3) and (3,0,3) with degree-2 generators; a walk of (3,1) costs
# over a second a route, so it is left to them.
PINNED = [(2, 2, 2), (1, 4, 1), (3, 0, 3)]


@pytest.mark.parametrize("g, n, d", SPACES)
def test_reports_match_the_full_matrix_route(g, n, d):
    x = lambda_top(g, n) if d == g else kappa_class(g, n, 1)
    assert div_membership(x) == pairing_oracle.div_membership(x)
    for k in (1, 2):
        assert subalgebra_span(g, n, d, k) == pairing_oracle.subalgebra_span(g, n, d, k)
    assert pairing_rank(g, n, d) == pairing_oracle.pairing_rank(g, n, d)


@pytest.mark.parametrize("g, n, d", PINNED)
def test_degree_two_spans_match_the_full_matrix_route(g, n, d):
    assert subalgebra_span(g, n, d, 2) == pairing_oracle.subalgebra_span(g, n, d, 2)


@pytest.mark.parametrize("g, n", [(2, 0), (1, 1), (0, 4)])
def test_degree_zero_matches_the_full_matrix_route(g, n):
    [(label, one)] = _degree_monomials(g, n, 0, 1)
    assert label == () and one == generators(g, n, 0)[0]
    assert div_membership(one) == pairing_oracle.div_membership(one)
    assert subalgebra_span(g, n, 0, 1) == pairing_oracle.subalgebra_span(g, n, 0, 1)
    assert pairing_rank(g, n, dim_moduli(g, n)) == 1


def _zero_term(g, n, d):
    """A canonical term of degree d that pushes forward to zero (psi past
    a vertex dimension), so no generator has it; None if (g, n, d) has
    none."""
    for graph in enumerate_stable_graphs(g, n):
        excess = d - graph.n_edges
        dims = vertex_data(graph)[1]
        for v, dim in enumerate(dims):
            if 0 <= dim < excess:
                keys = [(PSI_LEG, m) for m in graph.legs[v]]
                keys += [(PSI_HE, *h) for h in graph.half_edges() if h[0] == v]
                kappa = ((),) * graph.n_vertices
                return canonical_term(graph, Decoration(((keys[0], excess),), kappa))
    return None


@cache
def _planted(g, n, d):
    """(monomials, span rank, ambient rank, a generator outside the span or
    None, a zero term or None), the ranks read off the full matrix route."""
    monomials = [cls for _, cls in _degree_monomials(g, n, d, 1)]
    gens = generators(g, n, d)
    cols = generators(g, n, dim_moduli(g, n) - d)
    matrix = pairing_matrix(monomials + list(gens), cols)
    m = len(monomials)
    span = QMatrix(matrix[:m], n_cols=len(cols))
    rank = span.rank()
    outside = next(
        (b for b, row in zip(gens, matrix[m:]) if span.rank_with(row)[1] > rank), None
    )
    ambient = QMatrix(matrix[m:], n_cols=len(cols)).rank()
    return monomials, rank, ambient, outside, _zero_term(g, n, d)


def test_the_planted_spaces_have_what_they_plant():
    *_, outside, zero = _planted(3, 0, 3)
    assert outside is not None and zero is not None
    assert all(zero not in b.terms for b in generators(3, 0, 3))
    assert _planted(3, 0, 2)[3] is not None
    assert _planted(1, 3, 2)[4] is not None


coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_planted_members_and_non_members(data):
    g, n, d = data.draw(st.sampled_from([(1, 3, 2), (2, 1, 2), (3, 0, 2), (3, 0, 3)]))
    monomials, rank, ambient, outside, zero = _planted(g, n, d)
    picks = data.draw(st.lists(st.sampled_from(range(len(monomials))), max_size=4))
    x = 0 * monomials[0]
    for i in picks:
        x = x + QQ(data.draw(coefficients)) * monomials[i]
    member = outside is None or data.draw(st.booleans())
    if not member:
        x = x + QQ(data.draw(coefficients.filter(bool))) * outside
    if zero is not None and data.draw(st.booleans()):
        x.terms[zero] = QQ(data.draw(coefficients.filter(bool)))
    report = div_membership(x)
    assert report.rank == rank
    assert report.in_span is member
    assert report.rank_with_class == rank + (not member)
    assert report.ambient_rank == ambient


@st.composite
def planted_columns(draw):
    """An integer matrix whose later columns include zero columns and
    multiples of earlier ones, by negative and by rational factors."""
    n_rows = draw(st.integers(0, 6))
    base = draw(st.integers(1, 5))
    columns = [
        [draw(st.integers(-4, 4)) for _ in range(n_rows)] for _ in range(base)
    ]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("zero", "multiple", "rational")))
        k = draw(st.integers(0, len(columns) - 1))
        if kind == "zero":
            columns.append([0] * n_rows)
        elif kind == "multiple":
            a = draw(st.sampled_from((-3, -1, 2)))
            columns.append([a * v for v in columns[k]])
        else:
            # columns k and k' = (a/b) * column k, both integer
            a, b = draw(st.sampled_from(((2, 3), (-1, 2), (5, -4))))
            columns[k] = [b * v for v in columns[k]]
            columns.append([a * v // b for v in columns[k]])
    columns = draw(st.permutations(columns))
    return [list(row) for row in zip(*columns)], len(columns)


@settings(max_examples=100, deadline=None)
@given(planted_columns(), st.lists(st.integers(-2, 2), max_size=6))
def test_term_pivots_keep_the_rank_of_every_row_set(planted, combo):
    rows, n_cols = planted
    rows = rows + [[0] * n_cols] + rows[:2]  # a zero row and repeats
    pivots = _term_pivots(rows)
    full = QMatrix(rows, n_cols=n_cols)
    assert len(pivots) == full.rank()
    # restriction to the pivots is injective on the row space: every
    # subset of rows, and a combination of them, keeps its rank
    for stop in range(len(rows) + 1):
        subset = rows[:stop]
        on_pivots = [[row[c] for c in pivots] for row in subset]
        assert (
            QMatrix(on_pivots, n_cols=len(pivots)).rank()
            == QMatrix(subset, n_cols=n_cols).rank()
        )
    mixed = [sum(c * row[j] for c, row in zip(combo, rows)) for j in range(n_cols)]
    on_pivots = [[row[c] for c in pivots] for row in rows]
    assert (
        QMatrix(on_pivots, n_cols=len(pivots)).rank_with([mixed[c] for c in pivots])
        == full.rank_with(mixed)
    )
