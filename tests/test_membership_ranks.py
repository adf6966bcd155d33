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
    [one] = _degree_monomials(g, n, 0, 1)
    assert one == generators(g, n, 0)[0]
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


def _two_ranks(rows, row, n_cols):
    """(rank of rows, rank of rows with row appended)."""
    return QMatrix(rows, n_cols=n_cols).rank(), QMatrix(rows + [row], n_cols=n_cols).rank()


@cache
def _planted(g, n, d):
    """(monomials, span rank, ambient rank, a generator outside the span or
    None, a zero term or None), the ranks read off the full matrix route."""
    monomials = _degree_monomials(g, n, d, 1)
    gens = generators(g, n, d)
    cols = generators(g, n, dim_moduli(g, n) - d)
    matrix = pairing_matrix(monomials + list(gens), cols)
    m = len(monomials)
    span = matrix[:m]
    rank = QMatrix(span, n_cols=len(cols)).rank()
    outside = next(
        (b for b, row in zip(gens, matrix[m:]) if _two_ranks(span, row, len(cols))[1] > rank),
        None,
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
