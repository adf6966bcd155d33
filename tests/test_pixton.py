"""Pixton's formula: weightings, interpolation in r, and lambda_g."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tautring.combinatorics import compositions
from tautring.errors import DomainError
from tautring.integration import integrate, term_integral
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
from tautring.taut_classes import (
    PSI_LEG,
    Decoration,
    class_of_graph,
    fundamental_class,
    psi_class,
)

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


def test_weightings_refuse_leg_values_that_do_not_fit_the_graph():
    with pytest.raises(DomainError):
        weightings_mod_r(smooth_graph(1, 2), (3,), 3)  # too few: sums to 0 mod 3
    with pytest.raises(DomainError):
        weightings_mod_r(smooth_graph(1, 1), (1, 2), 3)  # too many


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


def _bssz(g, a, j):
    """[z^2g] prod_{i != j} S(a_i z) / S(z) with S(z) = sinh(z/2) / (z/2),
    on the coefficients of z^0, z^2, ..., z^2g."""

    def S(x):
        return [QQ(x ** (2 * k), 4**k * math.factorial(2 * k + 1)) for k in range(g + 1)]

    series = [QQ(1)] + [QQ(0)] * g
    for i, x in enumerate(a, 1):
        if i != j:
            s = S(x)
            series = [sum(series[t] * s[k - t] for t in range(k + 1)) for k in range(g + 1)]
    quotient = []  # series / S(1), term by term since S(1) starts with 1
    for k in range(g + 1):
        quotient.append(series[k] - sum(quotient[t] * S(1)[k - t] for t in range(k)))
    return quotient[g]


def _dr_psi_integrals(g, a, j):
    """int_{DR_g(a)} psi_j^(2g-3+n) through multiply and integrate, and term
    by term with the exponent added on leg j at its vertex."""
    dr = dr_cycle(g, a)
    e = 2 * g - 3 + len(a)
    through_multiply = integrate(multiply(dr, psi_class(g, len(a), j, e)))
    by_terms = 0
    for (graph, dec), coeff in dr.terms.items():
        psi = dict(dec.psi)
        if e:
            psi[(PSI_LEG, j)] = psi.get((PSI_LEG, j), 0) + e
        by_terms += coeff * term_integral(graph, Decoration(tuple(sorted(psi.items())), dec.kappa))
    return through_multiply, by_terms


@pytest.mark.parametrize(
    "g, a, j, value",
    [
        (1, (2, -2), 1, QQ(1, 8)),
        (2, (3, -3), 1, QQ(1, 36)),
        (2, (2, -1, -1), 1, QQ(1, 1920)),
        (2, (2, -1, -1), 2, QQ(1, 120)),
        (1, (3, -1, -2), 3, QQ(3, 8)),
        (2, (0, 0), 1, QQ(7, 5760)),
        (2, (4, -1, -3), 1, QQ(27, 640)),
        # a bridge carries weight 6 > max |a_i|: the samples start past it
        (1, (3, 3, -3, -3), 1, QQ(13, 12)),
    ],
)
def test_dr_psi_integrals_of_known_value(g, a, j, value):
    assert _bssz(g, a, j) == value
    assert _dr_psi_integrals(g, a, j) == (value, value)


@st.composite
def _dr_integrands(draw):
    """(g, a, j): g <= 1 with n <= 4 or g = 2 with n <= 3, |a_i| <= 4."""
    g, n = draw(st.sampled_from([(0, 3), (0, 4), (1, 1), (1, 2), (1, 3), (1, 4),
                                 (2, 1), (2, 2), (2, 3)]))
    head = draw(
        st.lists(st.integers(-4, 4), min_size=n - 1, max_size=n - 1)
        .filter(lambda h: abs(sum(h)) <= 4)
    )
    return g, tuple(head) + (-sum(head),), draw(st.integers(1, n))


@settings(max_examples=60, deadline=None)
@given(_dr_integrands())
def test_dr_psi_integrals_match_the_closed_form(case):
    """The BSSZ formula (arXiv 1211.5273), independent of the code: the
    product leaves out the leg j that carries psi."""
    value = _bssz(*case)
    assert _dr_psi_integrals(*case) == (value, value)


def test_start_below_the_sampling_bound_is_a_domain_error():
    """Below max(d, sum of positive a_i) + 2 the interpolation is not
    guaranteed, so such a start is refused before any sample is taken."""
    for g, a, least in ((1, (3, 3, -3, -3), 8), (2, (5, -5), 7)):
        for start in (least - 3, least - 1):
            with pytest.raises(DomainError, match="at least %d" % least):
                dr_cycle(g, a, start=start)


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
