"""One key per decorated stratum: `Decoration(...)` normalizes its input.

The psi items come out sorted and each vertex's kappa indices ascending,
whatever order they were given in, so every builder of a decoration (the
constructor, `decoration()`, the JSON reader, `generators`, `multiply`)
keys one stratum the same way.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tautring.membership import _degree_monomials
from tautring.pixton import lambda_top
from tautring.product import multiply, term_pairing
from tautring.stable_graphs import enumerate_stable_graphs, smooth_graph
from tautring.taut_classes import (
    PSI_HE,
    PSI_LEG,
    Decoration,
    TautClass,
    canonical_term,
    class_of_graph,
    decoration,
    generators,
    kappa_class,
)

GRAPHS = [
    graph
    for g, n in [(1, 2), (2, 1), (0, 5), (3, 0)]
    for graph in enumerate_stable_graphs(g, n)
    if graph.n_edges <= 2
]
SMOOTH_3 = smooth_graph(3, 0)


@st.composite
def shuffled_decorations(draw):
    """A graph, its psi items and kappa lists in a random order, and the
    same decoration built from them sorted by hand."""
    graph = draw(st.sampled_from(GRAPHS))
    keys = [(PSI_LEG, m) for m in graph.markings()]
    keys += [(PSI_HE, v, s) for v, s in graph.half_edges()]
    exps = draw(st.lists(st.integers(0, 2), min_size=len(keys), max_size=len(keys)))
    psi = draw(st.permutations([(key, e) for key, e in zip(keys, exps) if e]))
    kappa = [
        draw(st.lists(st.integers(1, 3), max_size=3)) for _ in range(graph.n_vertices)
    ]
    sorted_by_hand = Decoration(tuple(sorted(psi)), tuple(tuple(sorted(ks)) for ks in kappa))
    return graph, psi, kappa, sorted_by_hand


@settings(max_examples=150, deadline=None)
@given(shuffled_decorations())
def test_every_builder_gives_one_key(case):
    graph, psi, kappa, want = case
    dec = Decoration(psi, kappa)
    assert dec == want and hash(dec) == hash(want)
    assert dec.psi == tuple(sorted(dec.psi))
    assert all(list(ks) == sorted(ks) for ks in dec.kappa)
    by_maps = {key[1] if key[0] == PSI_LEG else key[1:]: e for key, e in psi}
    assert decoration(graph, psi=by_maps, kappa=dict(enumerate(kappa))) == want
    assert canonical_term(graph, dec) == canonical_term(graph, want)
    d = graph.n_edges + want.degree()
    data = {
        "g": graph.genus(),
        "n": graph.n_markings,
        "d": d,
        "terms": [
            {
                "graph": graph.to_json_dict(),
                "psi": [[list(key), e] for key, e in psi],
                "kappa": kappa,
                "coeff": "1",
            }
        ],
    }
    assert TautClass.from_json_dict(data) == class_of_graph(graph, want)


def _kappa_1_kappa_2():
    """The generator of kappa_1 kappa_2 on the smooth graph of (3, 0)."""
    [gen] = [
        cls
        for cls in generators(3, 0, 3)
        if [(graph, sorted(dec.kappa[0]), dec.psi) for graph, dec in cls.terms]
        == [(SMOOTH_3, [1, 2], ())]
    ]
    return gen


def test_a_product_of_kappas_equals_the_generator():
    gen = _kappa_1_kappa_2()
    product = multiply(kappa_class(3, 0, 1), kappa_class(3, 0, 2))
    assert product == gen
    assert (product - gen).is_zero()
    assert gen.coefficient(SMOOTH_3, decoration(SMOOTH_3, kappa={0: (1, 2)})) == 1
    assert gen.coefficient(SMOOTH_3, decoration(SMOOTH_3, kappa={0: (2, 1)})) == 1


def test_the_json_reader_ignores_the_kappa_order():
    def read(kappa):
        term = {"graph": SMOOTH_3.to_json_dict(), "psi": [], "kappa": [kappa], "coeff": "1"}
        return TautClass.from_json_dict({"g": 3, "n": 0, "d": 3, "terms": [term]})

    assert read([2, 1]) == read([1, 2]) == _kappa_1_kappa_2()


def test_the_degree_2_question_on_3_0_3_has_one_row_term_per_generator():
    """Every row term of the monomials of degree <= 2, lambda_3 and the
    degree-3 generators is a generator, so there are exactly 40."""
    gens = generators(3, 0, 3)
    monomials = _degree_monomials(3, 0, 3, 2)
    rows = [*monomials, lambda_top(3, 0), *gens]
    assert len(gens) == 40
    assert len(term_pairing(rows, gens)) == 40
