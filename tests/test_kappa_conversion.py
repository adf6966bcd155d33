"""The set-partition kappa route and term integrals against their oracles.

`kappa_to_psi` reads the signed set partitions of each kappa monomial and
each virtual graph from memos, and `term_integral` places psi exponents
through the cached `vertex_data`.  Both must give what the versions in
`tests/integration_oracle.py`, which rebuild everything per term, give:
the same terms in the same dict order with equal `QQ` coefficients, and
the same integrals.  The two kappa routes must also agree with the closed
form of the top kappa class, and the memos must not change an answer.
"""

from math import factorial

import pytest

import integration_oracle as oracle
from test_golden_cli import _cached_functions, _clear_every_memo
from tautring import integration
from tautring.integration import integrate, kappa_to_psi, term_integral
from tautring.rationals import QQ
from tautring.stable_graphs import StableGraph, smooth_graph
from tautring.taut_classes import (
    PSI_LEG,
    Decoration,
    TautClass,
    class_of_graph,
    decoration,
    dim_moduli,
    generators,
    kappa_class,
)


def _assert_same_conversion(cls):
    """kappa_to_psi and the term integrals of `cls` equal the oracle's."""
    got = kappa_to_psi(cls)
    want = oracle.kappa_to_psi(cls)
    assert got.virtual and (got.g, got.n, got.d) == (want.g, want.n, want.d)
    assert list(got.terms.items()) == list(want.terms.items())
    assert all(type(c) is QQ for c in got.terms.values())
    for term in list(cls.terms) + list(got.terms):
        assert term_integral(*term) == oracle.term_integral(*term)
    value = oracle.integrate(want)
    assert integrate(got) == value
    if cls.virtual or cls.d == dim_moduli(cls.g, cls.n):
        assert integrate(cls) == oracle.integrate(cls) == value
    return got


@pytest.mark.parametrize("g, n", [(1, 3), (2, 1), (2, 2), (3, 0), (0, 6)])
def test_top_degree_generators_match_the_oracle(g, n):
    for cls in generators(g, n, dim_moduli(g, n)):
        _assert_same_conversion(cls)


@pytest.mark.parametrize("g, n", [(1, 3), (2, 1), (0, 5)])
def test_generators_of_every_degree_match_the_oracle(g, n):
    for d in range(dim_moduli(g, n) + 1):
        for cls in generators(g, n, d):
            _assert_same_conversion(cls)


def _term(graph, coeff=1, psi=None, kappa=None):
    return class_of_graph(graph, decoration(graph, psi=psi, kappa=kappa), coeff)


def _edge(a, b):
    return ((a, 0), (b, 0))


# two genus-1 vertices joined by a bridge, with no leg and with leg 1 on v1
BRIDGE_20 = StableGraph((1, 1), ((), ()), (_edge(0, 1),))
BRIDGE_21 = StableGraph((1, 1), ((), (1,)), (_edge(0, 1),))
# a genus-1 vertex with a self-loop; a genus-1 tail on a genus-0 vertex
LOOP_20 = StableGraph((1,), ((),), (((0, 0), (0, 1)),))
TAIL_12 = StableGraph((1, 0), ((), (1, 2)), (_edge(0, 1),))
# legs 1, 2, 3 on v0 (dimension 1) and legs 4, 5 on v1 (dimension 0)
SPLIT_05 = StableGraph((0, 0), ((1, 2, 3), (4, 5)), (_edge(0, 1),))


def _hand_built():
    smooth12, smooth21, smooth05 = smooth_graph(1, 2), smooth_graph(2, 1), smooth_graph(0, 5)
    return {
        "kappa on both bridge vertices": _term(BRIDGE_20, kappa={0: (1,), 1: (1,)}),
        "two-vertex monomials with psi": (
            _term(BRIDGE_21, QQ(3, 7), kappa={0: (1,), 1: (1, 1)})
            + _term(BRIDGE_21, -2, kappa={0: (1,), 1: (2,)})
            + _term(BRIDGE_21, QQ(-5, 2), psi={(1, 0): 1}, kappa={0: (1,), 1: (1,)})
        ),
        "two-vertex, below top degree": _term(BRIDGE_21, QQ(1, 3), kappa={0: (1,), 1: (1,)}),
        "kappa_1 kappa_1 kappa_2": _term(smooth21, QQ(-4, 9), kappa={0: (1, 1, 2)}),
        "kappa_1^4 and psi kappa_1 kappa_2": (
            _term(smooth21, QQ(7, 2), kappa={0: (1, 1, 1, 1)})
            + _term(smooth21, -1, psi={1: 1}, kappa={0: (1, 2)})
        ),
        "loop vertex": _term(LOOP_20, QQ(2, 5), kappa={0: (1, 1)}) + _term(LOOP_20, -3, kappa={0: (2,)}),
        "(1,2) tail and smooth": (
            _term(TAIL_12, QQ(-1, 6), kappa={0: (1,)})
            + _term(smooth12, QQ(5, 3), kappa={0: (1, 1)})
            + _term(smooth12, QQ(1, 8), psi={2: 1}, kappa={0: (1,)})
        ),
        # kappa_1^2 + kappa_2: the one-block term of kappa_1^2 (psi^3 on a
        # new leg, sign -1) cancels the term of kappa_2
        "cancelling conversion": _term(smooth05, kappa={0: (1, 1)}) + _term(smooth05, kappa={0: (2,)}),
        "(0,5) boundary": _term(SPLIT_05, QQ(-7, 4), kappa={0: (1,)}) + _term(smooth05, QQ(1, 2), kappa={0: (1, 1)}),
    }


@pytest.mark.parametrize("name", sorted(_hand_built()))
def test_hand_built_classes_match_the_oracle(name):
    _assert_same_conversion(_hand_built()[name])


def test_cancelling_terms_leave_the_conversion():
    """kappa_1^2 + kappa_2 on (0,5) keeps only psi^2 psi^2 on two new legs,
    and both routes give int kappa_1^2 + int kappa_2 = 5 + 1."""
    got = _assert_same_conversion(_hand_built()["cancelling conversion"])
    [(graph, dec)] = got.terms
    assert graph.legs == ((1, 2, 3, 4, 5, 6, 7),)
    assert dec.psi == (((PSI_LEG, 6), 2), ((PSI_LEG, 7), 2))
    assert integrate(got) == 6 == integrate(_hand_built()["cancelling conversion"])


def test_a_sum_converting_to_zero_is_empty():
    cls = _term(smooth_graph(2, 1), kappa={0: (1, 1, 2)})
    assert _assert_same_conversion(cls + (-1) * cls).terms == {}


def test_a_cancelled_key_comes_back_at_the_end():
    """A key that cancels leaves the dict; met again, it is inserted last."""
    graph = smooth_graph(2, 1)
    two_legs = StableGraph((2,), ((1, 2),), ())
    psi3_on_2 = Decoration((((PSI_LEG, 2), 3),), ((),))
    virtual = TautClass(2, 1, 4, virtual=True)
    # psi_2^2 psi_3^2 - psi_2^3, then + psi_2^3: the second key cancels
    virtual.terms[(graph, Decoration((), ((1, 1),)))] = QQ(1)
    virtual.terms[(graph, Decoration((), ((2,),)))] = QQ(1)
    virtual.terms[(two_legs, Decoration((((PSI_LEG, 1), 4),), ((),)))] = QQ(-2)
    virtual.terms[(two_legs, psi3_on_2)] = QQ(5, 3)
    got = _assert_same_conversion(virtual)
    assert list(got.terms.values()) == [1, -2, QQ(5, 3)]
    assert list(got.terms)[-1] == (two_legs, psi3_on_2)


def test_converting_a_virtual_class_again():
    """kappa_to_psi of a virtual class, converted or still holding kappas,
    numbers its new legs after every virtual leg."""
    for cls in _hand_built().values():
        once = kappa_to_psi(cls)
        assert kappa_to_psi(once) == once
        _assert_same_conversion(once)
    # a virtual class with kappas next to earlier virtual legs
    virtual = TautClass(2, 1, 4, virtual=True)
    legs3 = StableGraph((1, 1), ((2,), (1, 3)), (_edge(0, 1),))
    virtual.terms[(legs3, Decoration((((PSI_LEG, 2), 1),), ((1,), (1, 1))))] = QQ(-3, 2)
    virtual.terms[(BRIDGE_21, Decoration((), ((1,), (1, 1))))] = QQ(1, 4)
    got = _assert_same_conversion(virtual)
    assert max(m for graph, _ in got.terms for lv in graph.legs for m in lv) == 6


def _closed_form_cases():
    return [
        (g, n)
        for g in range(5)
        for n in range(5)
        if 2 * g - 2 + n > 0 and dim_moduli(g, n) >= 1
    ]


@pytest.mark.parametrize("g, n", _closed_form_cases())
def test_top_kappa_closed_form_on_both_routes(g, n):
    """int_{Mbar_{g,n}} kappa_{3g-3+n} = <tau_{3g-2+n} tau_0^n>_g
    = <tau_{3g-2}>_g = 1/(24^g g!): kappa_a = pi_*(psi^{a+1}), then the
    string equation n times."""
    cls = kappa_class(g, n, dim_moduli(g, n))
    value = QQ(1, 24**g * factorial(g))
    assert integrate(cls) == value
    assert integrate(kappa_to_psi(cls)) == value


NEW_MEMOS = ("_kappa_partitions", "_virtual_graph")


def test_memos_do_not_change_library_integrals():
    """Both kappa routes over a generator set give equal values cold, warm
    and after every memo is cleared; on the warm run the partition table,
    the virtual graphs and the term integrals all hit."""
    cached = _cached_functions()
    watched = [getattr(integration, name) for name in NEW_MEMOS + ("term_integral",)]
    spaces = [(2, 1), (1, 3), (3, 0)]

    def both_routes():
        out = []
        for g, n in spaces:
            for cls in generators(g, n, dim_moduli(g, n)):
                out.append((integrate(cls), integrate(kappa_to_psi(cls))))
        return out

    _clear_every_memo(cached)
    runs = {}
    for run in ("cold", "warm", "cleared"):
        if run == "cleared":
            _clear_every_memo(cached)
        before = [f.cache_info().hits for f in watched]
        runs[run] = both_routes()
        if run == "warm":
            for f, hits in zip(watched, before):
                assert f.cache_info().hits > hits, f.__name__
    assert all(a == b for a, b in runs["cold"])
    assert runs["cold"] == runs["warm"] == runs["cleared"]


def _integer_sum_cases():
    """Top-degree classes of (2,1) whose integrals `integrate` sums over a
    running common denominator."""
    gens = [cls for cls in generators(2, 1, 4) if integrate(cls)]
    denominators = (3, 7, 2, 5, 9, 1, 24, 35)
    mixed = TautClass(2, 1, 4)
    for i, cls in enumerate(gens):
        mixed = mixed + QQ((-1) ** i * (2 * i + 1), denominators[i % 8]) * cls
    x, y = gens[0], gens[-1]
    cancelling = oracle.integrate(y) * x - oracle.integrate(x) * y
    return {
        "mixed denominators and signs": mixed,
        "negative coefficients": QQ(-5, 6) * x + QQ(-11, 4) * y,
        "cancelling to zero": cancelling,
        "empty": TautClass(2, 1, 4),
        "kappa_to_psi": kappa_to_psi(mixed),
    }


@pytest.mark.parametrize("name", sorted(_integer_sum_cases()))
def test_integer_sums_match_the_oracle(name):
    cls = _integer_sum_cases()[name]
    value = integrate(cls)
    assert type(value) is QQ
    assert value == oracle.integrate(cls)
    if name == "cancelling to zero":
        assert len(cls.terms) == 2 and value == 0
    if name == "mixed denominators and signs":
        assert len({c.denominator for c in cls.terms.values()}) > 4 and value.denominator > 1
