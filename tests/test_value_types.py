"""The value types: stable graphs, decorations and the membership reports.

`StableGraph` and `Decoration` are slotted classes that refuse assignment,
so `pickle`, `copy` and `deepcopy` work only through their `__reduce__`;
the reports are named tuples.  Every `repr` text below is the one the
earlier dataclass versions printed.
"""

import copy
import pickle

import pytest

from tautring.integration import kappa_to_psi
from tautring.membership import MembershipReport, SpanReport, ThetaReport
from tautring.stable_graphs import StableGraph, smooth_graph
from tautring.taut_classes import (
    PSI_HE,
    PSI_LEG,
    Decoration,
    TautClass,
    canonical_term,
    class_of_graph,
    decoration,
    psi_class,
)

# legs and edges given out of order: the constructor normalizes them
GRAPH = StableGraph((1, 0), ((), (2, 1)), (((1, 0), (0, 0)), ((0, 2), (0, 1))))
GRAPH_REPR = (
    "StableGraph(genera=(1, 0), legs=((), (1, 2)), "
    "edges=(((0, 0), (1, 0)), ((0, 1), (0, 2))))"
)
DEC = Decoration((((PSI_HE, 0, 1), 2), ((PSI_LEG, 1), 1)), ((2,), ()))
DEC_REPR = "Decoration(psi=((('he', 0, 1), 2), (('leg', 1), 1)), kappa=((2,), ()))"

ROUND_TRIPS = {
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "pickle-protocol-0": lambda x: pickle.loads(pickle.dumps(x, protocol=0)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def _fields(value):
    if isinstance(value, StableGraph):
        return value.genera, value.legs, value.edges
    return value.psi, value.kappa


def test_graph_fields_are_normalized():
    assert GRAPH.genera == (1, 0)
    assert GRAPH.legs == ((), (1, 2))
    assert GRAPH.edges == (((0, 0), (1, 0)), ((0, 1), (0, 2)))
    assert GRAPH == StableGraph([1, 0], [[], [1, 2]], [[[0, 1], [0, 2]], [[0, 0], [1, 0]]])


@pytest.mark.parametrize("value", [GRAPH, DEC], ids=["graph", "decoration"])
def test_equality_is_by_fields(value):
    twin = type(value)(*_fields(value))
    assert twin == value and not twin != value and twin is not value
    assert hash(twin) == hash(value) == hash(_fields(value))
    assert value != smooth_graph(2, 0) and value != Decoration((), ((),))
    # other types are left to their own __eq__
    assert value.__eq__(_fields(value)) is NotImplemented
    assert value != _fields(value)
    assert GRAPH != DEC


def test_repr_text():
    assert repr(GRAPH) == GRAPH_REPR
    assert repr(DEC) == DEC_REPR


@pytest.mark.parametrize(
    "value, name, text",
    [(GRAPH, "genera", GRAPH_REPR), (DEC, "psi", DEC_REPR)],
    ids=["graph", "decoration"],
)
def test_assignment_raises(value, name, text):
    with pytest.raises(AttributeError):
        setattr(value, name, ())
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert not hasattr(value, "__dict__")
    assert repr(value) == text


@pytest.mark.parametrize("how", ROUND_TRIPS)
@pytest.mark.parametrize("value", [GRAPH, DEC], ids=["graph", "decoration"])
def test_round_trips_keep_the_value(value, how):
    out = ROUND_TRIPS[how](value)
    assert type(out) is type(value)
    assert _fields(out) == _fields(value)
    assert out == value and hash(out) == hash(value) and repr(out) == repr(value)


@pytest.mark.parametrize("how", ["pickle", "copy", "deepcopy"])
def test_round_trips_keep_a_class(how):
    """Graphs and decorations as the keys of a class's terms."""
    cls = psi_class(1, 2, 1) + psi_class(1, 2, 2)
    out = ROUND_TRIPS[how](cls)
    assert out == cls and list(out.terms) == list(cls.terms)


@pytest.mark.parametrize("protocol", range(6))
@pytest.mark.parametrize("virtual", [False, True], ids=["plain", "virtual"])
def test_a_class_pickles_verbatim_at_every_protocol(virtual, protocol):
    """Every field comes back as it was, the terms in their order; the keys
    of a `kappa_to_psi` class are not canonical and must not be re-keyed."""
    cls = psi_class(1, 2, 1) + psi_class(1, 2, 2)
    if virtual:
        bridge = StableGraph((1, 1), ((), (1,)), (((0, 0), (1, 0)),))
        cls = kappa_to_psi(class_of_graph(bridge, decoration(bridge, kappa={0: (1,)})))
        assert any(canonical_term(*key) != key for key in cls.terms)
    out = pickle.loads(pickle.dumps(cls, protocol=protocol))
    assert type(out) is TautClass
    assert (out.g, out.n, out.d, out.virtual) == (cls.g, cls.n, cls.d, virtual)
    assert list(out.terms.items()) == list(cls.terms.items())


class _NaiveGraph:
    """Slots and a blocking __setattr__, without a __reduce__."""

    __slots__ = ("genera", "legs", "edges", "_hash")

    def __init__(self, genera, legs, edges):
        for name, value in zip(self.__slots__, (genera, legs, edges, hash(edges))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(name)

    def __hash__(self):
        return self._hash


@pytest.mark.parametrize("how", ROUND_TRIPS)
def test_a_naive_slotted_class_fails_the_round_trips(how):
    """What the round trips above guard against."""
    with pytest.raises((AttributeError, TypeError)):
        ROUND_TRIPS[how](_NaiveGraph(*_fields(GRAPH)))


# ---------------------------------------------------------------------------
# reports


def test_membership_report_construction():
    positional = MembershipReport(2, 0, 2, True, True, 2, 2)
    keyword = MembershipReport(
        g=2, n=0, degree=2, in_span=True, certified=True, rank=2, rank_with_class=2
    )
    assert positional == keyword and positional.ambient_rank is None
    assert positional.verdict == "member"
    full = MembershipReport(2, 0, 2, False, True, 2, 3, 14)
    assert full.ambient_rank == 14 and full.verdict == "not a member"
    assert full != positional
    assert full == MembershipReport(2, 0, 2, False, True, 2, 3, ambient_rank=14)
    assert MembershipReport(4, 0, 4, True, False, 5, 5).verdict == (
        "unresolved (pairing-consistent)"
    )
    assert repr(positional) == (
        "MembershipReport(g=2, n=0, degree=2, in_span=True, certified=True, "
        "rank=2, rank_with_class=2, ambient_rank=None)"
    )


def test_span_report_construction():
    positional = SpanReport(2, 0, 2, 1, 3, 4, 5)
    keyword = SpanReport(
        g=2, n=0, degree=2, generator_degree=1, rank=3, ambient_rank=4, monomial_count=5
    )
    assert positional == keyword and positional.rank == 3
    assert positional != SpanReport(2, 0, 2, 1, 3, 4, 6)
    assert repr(positional) == (
        "SpanReport(g=2, n=0, degree=2, generator_degree=1, rank=3, "
        "ambient_rank=4, monomial_count=5)"
    )
    with pytest.raises(TypeError):
        SpanReport(2, 0, 2)


def test_theta_report_construction():
    report = ThetaReport(None, True)
    assert report == ThetaReport(solutions=None, sign_constrained_feasible=True)
    assert report.sign_constrained_feasible is True
    assert repr(report) == "ThetaReport(solutions=None, sign_constrained_feasible=True)"
