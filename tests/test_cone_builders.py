"""The subdivisions' trusted complex builder against the solve path.

`barycentric` and `star_subdivision` build their fine complexes through
`ConeComplex._unchecked`, with ray maps and a `SubdivisionMap` whose
coordinates are read through one chart per cone.  `tests/pp_oracle.py`
keeps the subdivisions as they were: the public `ConeComplex(...)` checks
the fine cones, `subdivision_map` solves every coordinate by `in_span`,
and `ray_maps` solves every ray map by the dense elimination.  Each
subdivision must give the oracle's complex (cones, gluings, and each ray
map key for key, in order) and the oracle's map (targets, coordinates
with their types, forms and scales), or the oracle's error.
"""

import ast
import pathlib
import random

import pytest

import pp_oracle
from test_pp_oracle import FIXTURES, NON_UNIMODULAR, ORBIT_CASES, _glued_orthant
from tautring import cone_complex
from tautring.cone_complex import ConeComplex, barycentric, star_subdivision
from tautring.errors import DomainError

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "tautring"


def _outcome(function, *args):
    try:
        return function(*args)
    except DomainError as exc:
        return "DomainError: %s" % exc


def _assert_same_subdivision(got, want):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    (fine, sub_map), (fine_want, sub_want) = got, want
    assert (fine.lattice_rank, fine.cones, fine.gluings) == (
        fine_want.lattice_rank,
        fine_want.cones,
        fine_want.gluings,
    )
    assert hash(fine) == hash(fine_want)
    assert type(fine._ray_maps) is tuple
    assert [list(m.items()) for m in fine._ray_maps] == [
        list(m.items()) for m in pp_oracle.ray_maps(fine_want)
    ]
    assert sub_map.source is fine
    assert sub_map.cone_targets == sub_want.cone_targets
    assert sub_map.ray_coords == sub_want.ray_coords
    for coords, coords_want in zip(sub_map.ray_coords, sub_want.ray_coords):
        for ray, ray_want in zip(coords, coords_want):
            assert type(ray) is type(ray_want)
            assert list(map(type, ray)) == list(map(type, ray_want))
    assert (sub_map.forms, sub_map.scales) == (sub_want.forms, sub_want.scales)


def _assert_barycentric_matches(coarse):
    _assert_same_subdivision(
        _outcome(barycentric, coarse), _outcome(pp_oracle.barycentric, coarse)
    )


def _assert_stars_match(coarse, faces):
    accepted = 0
    for face in faces:
        got = _outcome(star_subdivision, coarse, face)
        _assert_same_subdivision(got, _outcome(pp_oracle.star_subdivision, coarse, face))
        accepted += not isinstance(got, str)
    return accepted


def _overlapping_cones():
    """Two overlapping plane cones, (0,1),(1,1) and (1,0),(1,3), and the
    second glued to itself by the identity.  The barycenter (1, 2) of the
    first lies inside the second cone, so its image is found by a solve;
    the flag cone (1,3),(2,3) of the second lies inside the first, which
    comes first, so the scan of earlier cones gives its target."""
    a = ((1, 0), (1, 3))
    return ConeComplex(2, [((0, 1), (1, 1)), a], [(a, a)])


def _glued_inner_ray():
    """The orthant of rank 3 with the ray (1,1,0) of its inside glued to
    the ray (0,1,1): no coarse ray lies on either, so every image under
    the gluing is found by a solve."""
    return ConeComplex(3, [((1, 0, 0), (0, 1, 0), (0, 0, 1))], [(((1, 1, 0),), ((0, 1, 1),))])


def _reflected_wide():
    """The non-unimodular cone (1,-1),(1,1) glued to itself by the
    reflection in the x-axis: its barycenter (1, 0) is half the sum."""
    x, y = (1, -1), (1, 1)
    return ConeComplex(2, [(x, y)], [((x, y), (y, x))])


EDGE_CASES = {
    "overlapping-cones": _overlapping_cones,
    "glued-inner-ray": _glued_inner_ray,
    "reflected-wide": _reflected_wide,
}

CASES = {**FIXTURES, **NON_UNIMODULAR, **ORBIT_CASES, **EDGE_CASES}
# barycentric(barycentric-cycle5) has 14,400 cones, and the oracle solves
# each star of its 120 cones against every earlier cone (over 0.1 s a
# star): three of its stars, at a ray, a 3-face and a 5-face
LARGE = {"barycentric-cycle5"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_subdivisions_match_the_solve_path(name):
    coarse = CASES[name]()
    faces = coarse.all_faces()
    if name in LARGE:
        faces = faces[::540]
    else:
        _assert_barycentric_matches(coarse)
    assert _assert_stars_match(coarse, faces) > 0


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_cycle_glued_orthants_match_the_solve_path(rank):
    rng = random.Random(rank)
    for _ in range(3):
        sigma = list(range(rank))
        rng.shuffle(sigma)
        coarse = _glued_orthant(tuple(sigma))
        _assert_barycentric_matches(coarse)
        faces = coarse.all_faces()
        _assert_stars_match(coarse, faces if rank <= 3 else rng.sample(faces, 4))


def _counted_solves(monkeypatch):
    calls = []
    solve = cone_complex._cone_coords

    def counted(rays, vector):
        calls.append(vector)
        return solve(rays, vector)

    monkeypatch.setattr(cone_complex, "_cone_coords", counted)
    return calls


def test_the_edge_cases_take_the_solve_paths(monkeypatch):
    """The image of (1, 2) and the target of the flag cone (1,3),(2,3)
    of the overlapping cones, and the images under the inner-ray gluing,
    are read through charts; they match the oracle above."""
    fine, sub_map = barycentric(_overlapping_cones())
    assert fine._ray_maps[0][(1, 2)] == (1, 2)
    assert sub_map.cone_targets[fine.cones.index(((1, 3), (2, 3)))] == 0
    fine, _ = barycentric(_glued_inner_ray())
    assert list(fine._ray_maps[0].items()) == [((1, 1, 0), (0, 1, 1))]
    calls = _counted_solves(monkeypatch)
    barycentric(_overlapping_cones())
    assert (1, 2) in calls
    calls.clear()
    barycentric(_glued_inner_ray())
    assert (1, 1, 0) in calls


def _chart_builds(run):
    """The charts that run builds from an empty chart cache, each one
    exact elimination; a chart is keyed by its ray tuple, in order."""
    cone_complex._chart.cache_clear()
    run()
    return cone_complex._chart.cache_info().misses


def test_subdivisions_of_one_glued_cone_build_one_chart_per_cone():
    """A subdivision of one glued cone reads coordinates in two ray
    tuples: the gluing's source, as given, and the sorted coarse cone.
    The cycle-glued orthants of rank 5, 3 and 1 build 2, 2 and 1 charts;
    simplex5 reuses the sorted 5-orthant's."""
    coarse = [_glued_orthant(sigma) for sigma in [(2, 4, 1, 0, 3), (1, 0, 2), (0,)]]
    coarse.append(FIXTURES["simplex5"]())
    assert _chart_builds(lambda: [barycentric(complex) for complex in coarse]) == 5
    triangle = FIXTURES["triangle-z3"]()
    stars = [_outcome(star_subdivision, triangle, face) for face in triangle.all_faces()]
    assert sum(isinstance(star, str) for star in stars) == 3
    assert _chart_builds(
        lambda: [_outcome(star_subdivision, triangle, face) for face in triangle.all_faces()]
    ) == 2


def test_stars_of_the_barycentric_triangle_build_one_chart_per_cone():
    """The 25 stars of barycentric(triangle-z3) read coordinates in its 6
    cones and in the rotation's source: 7 charts, where solving each
    coordinate made 339 exact solves (1,087 before the subdivisions
    derived their ray maps)."""
    coarse = FIXTURES["barycentric-triangle-z3"]()
    faces = coarse.all_faces()
    assert len(faces) == 25
    assert _chart_builds(lambda: [_outcome(star_subdivision, coarse, f) for f in faces]) == 7


def _callers(attribute, owner):
    """(module, function) of every use of owner.attribute in the package."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr == attribute
                    and isinstance(node.value, ast.Name)
                    and node.value.id == owner
                ):
                    found.add((path.stem, function.name))
    return found


def test_only_the_subdivisions_call_the_trusted_builder():
    assert _callers("_unchecked", "ConeComplex") == {
        ("cone_complex", "barycentric"),
        ("cone_complex", "star_subdivision"),
    }
    # the same scan finds the trusted function builder's callers
    assert ("cone_complex", "pp_space") in _callers("_unchecked", "PPFunction")
