"""Pixton's formula: weightings, interpolation in r, and lambda_g."""

import math

import pytest

from tautring.combinatorics import compositions
from tautring.errors import DomainError
from tautring.integration import integrate
from tautring.pixton import (
    dr_cycle,
    lambda_top,
    pixton_class,
    pixton_class_at_r,
    pixton_r_polynomial,
    reference_lambda_expansion,
    weightings_mod_r,
)
from tautring.product import multiply
from tautring.rationals import QQ
from tautring.stable_graphs import (
    StableGraph,
    enumerate_stable_graphs,
    has_separating_edge,
    smooth_graph,
)
from tautring.taut_classes import class_of_graph, fundamental_class, psi_class

THETA = StableGraph((0, 0), ((), ()), (((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 2))))
LOOP = StableGraph((1,), ((),), (((0, 0), (0, 1)),))


def test_weighting_counts_are_r_to_h1():
    assert len(weightings_mod_r(THETA, (), 3)) == 9
    assert len(weightings_mod_r(LOOP, (), 5)) == 5
    for graph in enumerate_stable_graphs(2, 0) + enumerate_stable_graphs(1, 2):
        a = (0,) * graph.n_markings
        for r in (1, 2, 3, 5):
            assert len(weightings_mod_r(graph, a, r)) == r ** graph.h1()


def test_weightings_satisfy_the_congruences():
    for w in weightings_mod_r(THETA, (), 4):
        for (h1, h2) in THETA.edges:
            assert (w[h1] + w[h2]) % 4 == 0
        for v in range(THETA.n_vertices):
            total = sum(w[(v, s)] for s in THETA.edge_ends(v))
            assert total % 4 == 0


def test_weightings_empty_when_weights_do_not_balance():
    assert weightings_mod_r(smooth_graph(1, 1), (1,), 3) == []
    assert len(weightings_mod_r(smooth_graph(1, 1), (3,), 3)) == 1


def test_lambda_expansions_match_reference():
    assert lambda_top(1, 1) == reference_lambda_expansion(1, 1)
    assert lambda_top(2, 0) == reference_lambda_expansion(2, 0)


def test_lambda3_reference_shape():
    ref = reference_lambda_expansion(3, 0)
    assert (ref.g, ref.n, ref.d) == (3, 0, 3)
    assert len(ref.terms) == 7
    coeffs = sorted(ref.terms.values())
    assert coeffs == sorted(
        [
            QQ(1, 2016),
            QQ(1, 2016),
            QQ(-1, 672),
            QQ(1, 5760),
            QQ(-13, 30240),
            QQ(-1, 5760),
            QQ(1, 82944),
        ]
    )


def test_lambda_expansion_avoids_separating_edges():
    for g, n in ((1, 1), (2, 0)):
        for (graph, _dec) in lambda_top(g, n).terms:
            assert not has_separating_edge(graph)


def test_hodge_integral_psi2_lambda2():
    lam2 = lambda_top(2, 1)
    value = integrate(multiply(psi_class(2, 1, 1, 2), lam2))
    assert value == QQ(7, 5760)


def _bernoulli(m):
    """B_m from B_0 = 1 and sum_{k <= j} binom(j + 1, k) B_k = 0 for j >= 1."""
    b = [QQ(1)]
    for j in range(1, m + 1):
        b.append(-sum(math.comb(j + 1, k) * b[k] for k in range(j)) / (j + 1))
    return b[m]


@pytest.mark.parametrize("g, n", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2)])
def test_psi_lambda_g_integrals_match_the_closed_form(g, n):
    """The lambda_g formula, a closed form independent of the code:
    int psi_1^a_1 ... psi_n^a_n lambda_g = binom(2g - 3 + n; a) b_g with
    b_g = (2^(2g-1) - 1) / 2^(2g-1) * |B_2g| / (2g)!, for every a."""
    b_g = QQ(2 ** (2 * g - 1) - 1, 2 ** (2 * g - 1)) * abs(_bernoulli(2 * g))
    b_g /= math.factorial(2 * g)
    lam = lambda_top(g, n)
    top = 2 * g - 3 + n
    for a in compositions(top, (top,) * n):
        product = lam
        for i, e in enumerate(a, 1):
            if e:
                product = multiply(psi_class(g, n, i, e), product)
        multinomial = math.factorial(top) // math.prod(map(math.factorial, a))
        assert integrate(product) == multinomial * b_g


def test_polynomiality_two_windows():
    a = pixton_r_polynomial(2, (), 2, start=4)
    b = pixton_r_polynomial(2, (), 2, start=11)
    assert set(a.coeffs) == set(b.coeffs)
    for key in a.coeffs:
        assert a.coeffs[key] == b.coeffs[key]
    fresh = 23
    assert a.at(fresh) == pixton_class_at_r(2, (), 2, fresh)
    assert a.at(0) == pixton_class(2, (), 2)


def test_dr_cycle_examples():
    assert dr_cycle(0, (2, -1, -1)) == fundamental_class(0, 3)
    assert dr_cycle(0, (5, -2, -2, -1)) == fundamental_class(0, 4)
    assert dr_cycle(1, (0,)) == QQ(-1, 24) * class_of_graph(
        StableGraph((0,), ((1,),), (((0, 0), (0, 1)),))
    )
    assert dr_cycle(1, (0,)) == -1 * reference_lambda_expansion(1, 1)


def test_input_validation():
    with pytest.raises(DomainError):
        dr_cycle(1, (1,))  # weights must sum to zero
    with pytest.raises(DomainError):
        lambda_top(0, 5)
    with pytest.raises(DomainError):
        lambda_top(1, 0)  # unstable
    with pytest.raises(DomainError):
        weightings_mod_r(LOOP, (), 0)
