"""Decorated strata classes and their exact linear combinations."""

import json

import pytest

from tautring.errors import DomainError
from tautring.rationals import QQ
from tautring.stable_graphs import (
    StableGraph,
    automorphisms,
    enumerate_stable_graphs,
    smooth_graph,
)
from tautring.taut_classes import (
    TautClass,
    canonical_term,
    class_of_graph,
    decoration,
    dim_moduli,
    fundamental_class,
    generators,
    kappa_class,
    psi_class,
    term_is_zero_class,
    trivial_decoration,
    vertex_degrees,
)

LOOP_G1 = StableGraph((1,), ((),), (((0, 0), (0, 1)),))


def test_constructors():
    one = fundamental_class(2, 1)
    assert one.d == 0 and not one.is_zero()
    p = psi_class(1, 1, 1)
    assert p.d == 1 and len(p.terms) == 1
    k = kappa_class(2, 0, 1)
    assert (k.g, k.n, k.d) == (2, 0, 1)
    with pytest.raises(DomainError):
        psi_class(1, 1, 2)  # marking 2 does not exist
    with pytest.raises(DomainError):
        kappa_class(0, 2, 1)  # unstable space


def test_degree_overflow_is_the_zero_class():
    assert psi_class(1, 1, 1, 2).is_zero()
    assert dim_moduli(1, 1) == 1
    # the loop vertex has genus 1 and two half-edges, so dimension 2
    assert not term_is_zero_class(LOOP_G1, decoration(LOOP_G1, psi={(0, 0): 2}))
    dec = decoration(LOOP_G1, psi={(0, 0): 3})
    assert term_is_zero_class(LOOP_G1, dec)
    assert class_of_graph(LOOP_G1, dec).is_zero()


def test_vertex_degrees():
    graph = StableGraph((1, 1), ((), ()), (((0, 0), (1, 0)),))
    dec = decoration(graph, psi={(0, 0): 2}, kappa={1: (1, 1)})
    assert vertex_degrees(graph, dec) == [2, 2]
    assert dec.degree() == 4


def test_arithmetic_and_merging():
    a = class_of_graph(LOOP_G1)
    relabeled = StableGraph((1,), ((),), (((0, 1), (0, 0)),))
    b = class_of_graph(relabeled)
    total = a + b
    assert total == 2 * a
    assert (total - a - a).is_zero()
    assert (-a + a).is_zero()
    assert (QQ(1, 3) * a).coefficient(LOOP_G1, trivial_decoration(LOOP_G1)) == QQ(1, 3)
    with pytest.raises(DomainError):
        a + psi_class(1, 1, 1)  # different space
    with pytest.raises(DomainError):
        a + fundamental_class(2, 0)  # different degree


def test_decoration_transport_respects_canonical_term():
    for graph in enumerate_stable_graphs(2, 0):
        if graph.n_edges == 0:
            continue
        he = graph.half_edges()[0]
        dec = decoration(graph, psi={he: 1}, kappa={0: (1,)})
        canon = canonical_term(graph, dec)
        for vmap, hemap in automorphisms(graph):
            moved = dec.transport(vmap, hemap)
            moved.validate(graph)
            assert moved.degree() == dec.degree()
            assert canonical_term(graph, moved) == canon


def test_decoration_validation():
    with pytest.raises(DomainError):
        decoration(LOOP_G1, psi={3: 1})  # no marking 3
    with pytest.raises(DomainError):
        decoration(LOOP_G1, psi={(0, 5): 1})  # no such half-edge
    with pytest.raises(DomainError):
        decoration(LOOP_G1, kappa={0: (0,)})  # kappa_0 excluded
    with pytest.raises(DomainError):
        decoration(smooth_graph(2, 0), kappa={1: (1,)})  # vertex 1 missing


@pytest.mark.parametrize(
    "g, n, d, count",
    [(2, 0, 1, 3), (3, 1, 1, 5), (3, 0, 3, 40), (3, 1, 3, 119), (3, 1, 4, 430)],
)
def test_generator_counts(g, n, d, count):
    gens = generators(g, n, d)
    assert len(gens) == count
    assert gens == generators(g, n, d)  # deterministic
    for cls in gens:
        assert (cls.g, cls.n, cls.d) == (g, n, d)
        assert len(cls.terms) == 1


def test_json_round_trip():
    cls = QQ(7, 240) * class_of_graph(
        LOOP_G1, decoration(LOOP_G1, psi={(0, 0): 1})
    ) - QQ(1, 3) * kappa_class(2, 0, 2)
    again = TautClass.from_json(cls.to_json())
    assert again == cls
    assert '"7/240"' in cls.to_json()
    data = json.loads(cls.to_json())
    data["d"] = 5
    with pytest.raises(DomainError):
        TautClass.from_json_dict(data)


def _edited(data, path, value):
    """A deep copy of JSON data with the entry at path set (or deleted)."""
    data = json.loads(json.dumps(data))
    *inner, last = path
    target = data
    for step in inner:
        target = target[step]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return json.dumps(data)


DELETE = object()
PSI_ON_LOOP = json.loads(
    (QQ(7, 240) * class_of_graph(LOOP_G1, decoration(LOOP_G1, psi={(0, 0): 1}))).to_json()
)
TERM = ("terms", 0)
CLASS_PROBES = {
    "empty object": "{}",
    "array": "[]",
    "null": "null",
    "invalid JSON": '{"g": 2',
    "g a string": (("g",), "2"),
    "g a bool": (("g",), True),
    "g negative": (("g",), -1),
    "d a float": (("d",), 2.0),
    "n missing": (("n",), DELETE),
    "terms an object": (("terms",), {}),
    "term not an object": (TERM, 1),
    "psi missing": (TERM + ("psi",), DELETE),
    "psi exponent 1.5": (TERM + ("psi", 0, 1), 1.5),
    "psi exponent a bool": (TERM + ("psi", 0, 1), True),
    "psi entry a string": (TERM + ("psi", 0), "he"),
    "psi key short": (TERM + ("psi", 0, 0), ["he", 0]),
    "psi key of unknown kind": (TERM + ("psi", 0, 0), [["he"], 0, 0]),
    "psi leg a string": (TERM + ("psi", 0, 0), ["leg", "1"]),
    "psi half-edge a float": (TERM + ("psi", 0, 0), ["he", 0, 0.0]),
    "kappa index 1.5": (TERM + ("kappa",), [[1.5]]),
    "kappa an object": (TERM + ("kappa",), {}),
    "coeff a number": (TERM + ("coeff",), 7),
    "coeff not a rational": (TERM + ("coeff",), "seven"),
    "coeff over zero": (TERM + ("coeff",), "1/0"),
    "graph a list": (TERM + ("graph",), []),
    "vertex genus 1.5": (TERM + ("graph", "vertices", 0, "genus"), 1.5),
}


@pytest.mark.parametrize("probe", sorted(CLASS_PROBES))
def test_malformed_class_json_is_a_domain_error(probe):
    text = CLASS_PROBES[probe]
    if isinstance(text, tuple):
        text = _edited(PSI_ON_LOOP, *text)
    with pytest.raises(DomainError):
        TautClass.from_json(text)


def test_strict_reader_keeps_valid_classes():
    assert TautClass.from_json(json.dumps(PSI_ON_LOOP)).to_json() == json.dumps(
        PSI_ON_LOOP, sort_keys=True
    )
