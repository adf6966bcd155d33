"""The per-block Pixton power sums against the weighting loop they replaced.

`pixton_oracle` lists every weighting mod r of a graph as a dict and
expands the class again for every sample r.  The library sums t-tuples
per block of the cycle space in integers and expands each graph once.
Every power sum S_M(r), every interpolated coefficient polynomial and
every DR and lambda_g class must agree with the oracle, and a single
wrong power sum at the check sample must raise ConsistencyError (exit 3
from the CLI).
"""

import math

import pytest

import pixton_oracle as oracle
from tautring import cli, pixton
from tautring.errors import ConsistencyError
from tautring.rationals import ONE, QQ
from tautring.stable_graphs import StableGraph, enumerate_stable_graphs
from tautring.taut_classes import dim_moduli

SPACES = [(g, n) for g in range(4) for n in range(7) if 0 < 2 * g - 2 + n <= 4]


def _weight_vectors(n):
    """All zeros, and for n >= 2 two nonzero vectors summing to zero."""
    out = [(0,) * n]
    if n >= 2:
        out.append((1, -1) + (0,) * (n - 2))
        out.append((2, 1, -3) + (0,) * (n - 3) if n >= 3 else (3, -3))
    return out


def _oracle_power_sums(graph, a, d, r):
    """S_M(r) by brute force over the oracle's weighting dicts."""
    weightings = oracle.weightings_mod_r(graph, a, r)
    sums = {}
    for M in oracle._multi_indices(graph.n_edges, d):
        sums[M] = sum(
            math.prod((w[h1] * w[h2]) ** m for (h1, h2), m in zip(graph.edges, M))
            for w in weightings
        )
    return sums


@pytest.mark.parametrize("g, n", SPACES)
def test_power_sums_match_the_weighting_loop(g, n):
    d = min(dim_moduli(g, n), 4)
    graphs = [graph for graph in enumerate_stable_graphs(g, n) if graph.n_edges <= d]
    bridged = 0
    for a in _weight_vectors(n):
        top = max([d] + [abs(x) for x in a]) + 2
        for graph in graphs:
            forms, _ = pixton._edge_forms(graph, a)
            bridged += any(const and not coeffs for const, coeffs in forms)
            for r in (2, 3, top):
                assert pixton._power_sums(graph, a, d, r) == _oracle_power_sums(
                    graph, a, d, r
                ), (graph, a, r)
    if d and n >= 2 and (g, n) != (1, 2):  # no bridge of (1, 2) splits the legs
        assert bridged  # some bridge carries a nonzero weight


def test_blocks_split_the_cycle_space():
    """A banana with a loop on each vertex has three blocks; bridges none."""
    graph = StableGraph(
        (0, 0),
        ((), ()),
        (((0, 0), (0, 1)), ((0, 2), (1, 0)), ((0, 3), (1, 1)), ((1, 2), (1, 3))),
    )
    forms, blocks = pixton._edge_forms(graph, ())
    assert sorted(len(variables) for variables, _ in blocks) == [1, 1, 1]
    assert sorted(len(edges) for _, edges in blocks) == [1, 1, 2]
    assert all(k in (-1, 1) for _, coeffs in forms for _, k in coeffs)


def test_edge_forms_are_solved_once_per_graph():
    """The forms do not depend on r: one solve per graph, not per modulus."""
    pixton._edge_forms.cache_clear()
    pixton.lambda_top(3, 0)
    graphs = pixton._summed_graphs(3, (), 3)
    assert pixton._edge_forms.cache_info().misses == len(graphs) == 17


CLASSES = [
    (1, (0,), 1),
    (1, (1, -1), 1),
    (1, (2, -1, -1), 2),
    (2, (), 2),
    (2, (0,), 2),
    (2, (1, -1), 2),
    (2, (1, 2, -3), 2),
    (3, (), 3),
]


@pytest.mark.parametrize("g, a, d", CLASSES)
@pytest.mark.parametrize("shift", [0, 3])
def test_polynomial_coefficients_match_the_oracle(g, a, d, shift):
    start = max([d] + [abs(x) for x in a]) + 2 + shift
    new = pixton.pixton_r_polynomial(g, a, d, start=start)
    old = oracle.pixton_r_polynomial(g, a, d, start=start)
    assert list(new.coeffs) == list(old.coeffs)  # same keys, same order
    assert new.coeffs == old.coeffs
    for r in (start, start + 2 * d + 5):
        assert pixton.pixton_class_at_r(g, a, d, r) == oracle.pixton_class_at_r(g, a, d, r)


@pytest.mark.parametrize(
    "g, a", [(1, (0,)), (1, (3, -3)), (2, ()), (2, (1, -1)), (2, (2, -1, -1)), (3, ())]
)
@pytest.mark.parametrize("start", [None, 9])
def test_dr_and_lambda_match_the_oracle(g, a, start):
    expected = QQ(1, 2**g) * oracle.pixton_r_polynomial(g, a, g, start=start).at(0)
    assert pixton.dr_cycle(g, a, start=start) == expected
    if not any(a):
        sign = -ONE if g % 2 else ONE
        assert pixton.lambda_top(g, len(a), start=start) == sign * expected


def _perturb(monkeypatch, r_check, graph=None, M=None):
    """Make `_power_sums` wrong at r_check only: every entry, or one (graph, M)."""
    original = pixton._power_sums

    def perturbed(graph_, a, d, r):
        sums = original(graph_, a, d, r)
        if r == r_check:
            for key in sums:
                if graph in (None, graph_) and M in (None, key):
                    sums[key] += 1
        return sums

    monkeypatch.setattr(pixton, "_power_sums", perturbed)


def test_a_wrong_check_sample_exits_3(monkeypatch, capsys):
    g, a = 2, (1, 2, -3)
    start = max([g] + [abs(x) for x in a]) + 2
    _perturb(monkeypatch, start + 2 * g + 2)
    with pytest.raises(ConsistencyError):
        pixton.dr_cycle(g, a)
    assert cli.main(["dr", "2", "--weights=1,2,-3"]) == 3
    assert capsys.readouterr().err.startswith("consistency failure:")


def test_every_power_sum_is_checked(monkeypatch):
    """One wrong S_M of one graph at the check sample is enough to refuse."""
    g, a, d = 2, (1, -1), 2
    r_check = max([d] + [abs(x) for x in a]) + 2 + 2 * d + 2
    pairs = [
        (graph, M)
        for graph in enumerate_stable_graphs(g, len(a))
        if graph.n_edges <= d
        for M in oracle._multi_indices(graph.n_edges, d)
    ]
    assert len(pairs) > 20
    for graph, M in pairs:
        with monkeypatch.context() as patch:
            _perturb(patch, r_check, graph, M)
            with pytest.raises(ConsistencyError):
                pixton.pixton_r_polynomial(g, a, d)


def test_each_graph_is_expanded_once(monkeypatch):
    """The psi splits and leg powers are expanded once per graph, not per r."""
    expanded = []
    original = pixton._expansion

    def counted(graph, a, d):
        expanded.append(graph)
        return original(graph, a, d)

    monkeypatch.setattr(pixton, "_expansion", counted)
    pixton.pixton_r_polynomial(2, (1, -1), 2)
    summed = [graph for graph in enumerate_stable_graphs(2, 2) if graph.n_edges <= 2]
    assert expanded == summed
