"""The JSON readers against arbitrary trees (Hypothesis).

A cone complex file read by `tautring cone FILE pp 1` exits 0 or 2, and
`TautClass.from_json_dict` and `StableGraph.from_json_dict` return or
raise `DomainError`: no input makes a traceback.  The trees are either
arbitrary, with keys biased towards the readers' own, or valid inputs
with one node swapped for an arbitrary tree, which reach the checks
below the top level.
"""

import copy
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tautring import cli
from tautring.errors import DomainError
from tautring.pixton import lambda_top
from tautring.stable_graphs import StableGraph, enumerate_stable_graphs
from tautring.taut_classes import TautClass, generators, psi_class

_KEYS = st.sampled_from([
    "lattice_rank", "cones", "rays", "gluings", "source", "target",
    "g", "n", "d", "terms", "graph", "psi", "kappa", "coeff",
    "vertices", "genus", "legs", "edges",
])
_LEAVES = (
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.text(max_size=3)
)
_TREES = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_KEYS | st.text(max_size=3),
                                                              kids, max_size=4),
    max_leaves=24,
)


def _swap_a_node(draw, data):
    """data, perhaps with one of its nodes swapped for an arbitrary tree."""
    slots, stack = [], [data]
    while stack:
        node = stack.pop()
        for key in range(len(node)) if type(node) is list else node:
            slots.append((node, key))
            if type(node[key]) in (list, dict):
                stack.append(node[key])
    if draw(st.booleans()):
        node, key = draw(st.sampled_from(slots))
        node[key] = draw(_TREES)
    return data


@st.composite
def _complexes(draw):
    """A cone complex of small rays, perhaps with one node swapped."""
    rank = draw(st.integers(1, 3))
    ray = st.lists(st.sampled_from([1, 0, -1]), min_size=rank, max_size=rank)
    rays = st.lists(ray, min_size=1, max_size=3)
    cones = draw(st.lists(rays, min_size=1, max_size=3))
    data = {"lattice_rank": rank, "cones": [{"rays": r} for r in cones]}
    if draw(st.booleans()):
        pairs = draw(st.lists(st.tuples(rays, rays), max_size=2))
        data["gluings"] = [{"source": s, "target": t} for s, t in pairs]
    return _swap_a_node(draw, data)


def _valid_inputs():
    classes = (psi_class(1, 2, 1, 2), *generators(1, 2, 1), lambda_top(2))
    graphs = enumerate_stable_graphs(1, 2)
    return st.sampled_from([x.to_json_dict() for x in classes + graphs])


_VALID = st.deferred(_valid_inputs)  # built at the first draw, not on import


@st.composite
def _swapped(draw):
    """A valid class or graph, perhaps with one node swapped."""
    return _swap_a_node(draw, copy.deepcopy(draw(_VALID)))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tree=_TREES | _complexes())
def test_cone_files_exit_0_or_2(capsys, tmp_path, tree):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(tree))
    code = cli.main(["cone", str(path), "pp", "1"])
    out, err = capsys.readouterr()
    assert code == 0 and json.loads(out) or code == 2 and err.startswith("error:")


@settings(max_examples=200, deadline=None)
@given(tree=_TREES | _swapped())
def test_class_and_graph_readers_raise_only_domain_errors(tree):
    for read in (TautClass.from_json_dict, StableGraph.from_json_dict):
        try:
            read(tree)
        except DomainError:
            pass
