"""Cone complexes, subdivisions, and piecewise polynomial functions."""

import itertools
import json
import random
from fractions import Fraction
from math import comb, factorial

import pytest

from tautring import cli
from tautring.cone_complex import (
    ConeComplex,
    PPFunction,
    barycentric,
    explosion_chern_identity,
    generated_by_degree_one,
    pp_space,
    pullback_pp,
    simplex_cone_complex,
    star_subdivision,
    triangle_z3_complex,
)
from tautring.errors import DomainError
from tautring.rationals import QQ


def _sample_points(complex):
    """One interior lattice point per maximal cone (the unscaled barycenter)."""
    out = []
    for cone in complex.cones:
        point = [sum(r[j] for r in cone) for j in range(complex.lattice_rank)]
        out.append(tuple(point))
    return out


def test_simplex_fixture():
    s3 = simplex_cone_complex(3)
    assert s3.lattice_rank == 3
    assert len(s3.cones) == 1
    assert len(s3.rays()) == 3
    assert len(s3.all_faces()) == 7
    assert s3.contains((1, 2, 3))
    assert s3.find_cone((1, 2, 3)) is not None
    assert not s3.contains((-1, 0, 0))


def test_triangle_fixture():
    tz = triangle_z3_complex()
    assert len(tz.cones) == 1
    assert len(tz.gluings) == 1
    tz.validate()


def test_validation_rejects_bad_input():
    with pytest.raises(DomainError):
        ConeComplex(2, {((1, 0), (2, 0)),}, ())  # dependent rays
    # r and -r have one primitive row up to sign, and are still dependent
    with pytest.raises(DomainError, match="cone rays are linearly dependent"):
        ConeComplex(2, {((1, 0), (-1, 0))})
    with pytest.raises(DomainError, match="gluing face rays are dependent"):
        ConeComplex(
            2,
            {((1, 0), (0, 1)), ((-1, 0), (0, 1))},
            ((((1, 0), (-1, 0)), ((0, 1), (1, 0))),),
        )
    with pytest.raises(DomainError, match="rays must be integer vectors"):
        ConeComplex(2, {((1, 0), (0, 1))}, ((((1.0, 0),), ((0, 1),)),))
    with pytest.raises(DomainError):
        ConeComplex(2, {((2, 0),)}, ())  # non-primitive ray
    with pytest.raises(DomainError):
        ConeComplex(2, {((1, 0, 0),)}, ())  # wrong lattice rank
    with pytest.raises(DomainError):
        ConeComplex(2, set(), ())  # no cones
    with pytest.raises(DomainError):
        # gluing that maps a ray outside the support
        ConeComplex(2, {((1, 0), (0, 1))}, ((((1, 0),), ((-1, 0),)),))
    with pytest.raises(DomainError):
        # gluing between faces of different dimension
        ConeComplex(2, {((1, 0), (0, 1))}, ((((1, 0), (0, 1)), ((1, 0),)),))
    with pytest.raises(DomainError, match=r"gluing misses the ray \(1, 1\)"):
        # the rays (-1, 0), (0, -1) go onto (1, 0), (0, 1), faces onto faces,
        # but no ray goes onto (1, 1), which lies between the targets
        ConeComplex(
            2,
            [((1, 0),), ((0, 1),), ((1, 1),), ((-1, 0),), ((0, -1),)],
            [(((-1, 0), (0, -1)), ((1, 0), (0, 1)))],
        )
    # JSON input: integers only, never a float, bool or string
    for rank, ray in [(2.0, [0, 1]), ("2", [0, 1]), (True, [1]), (2, [0, 1.0]),
                      (2, [0, True]), (2, ["0", 1]), (1, [False])]:
        with pytest.raises(DomainError):
            ConeComplex.from_json_dict({"lattice_rank": rank, "cones": [{"rays": [ray]}]})
    with pytest.raises(DomainError):
        ConeComplex.from_json_dict(
            {"lattice_rank": 1, "cones": [{"rays": [[1]]}],
             "gluings": [{"source": [[1.0]], "target": [[1]]}]}
        )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_barycentric_counts(n):
    fine, mapping = barycentric(simplex_cone_complex(n))
    assert len(fine.cones) == factorial(n)
    assert mapping.source is fine
    assert len(mapping.cone_targets) == len(fine.cones)


def test_barycentric_equals_staged_stars():
    for n in (2, 3):
        coarse = simplex_cone_complex(n)
        full = coarse.cones[0]
        staged, _ = star_subdivision(coarse, full)
        for size in range(n - 1, 1, -1):
            for face in itertools.combinations(full, size):
                staged, _ = star_subdivision(staged, face)
        fine, _ = barycentric(coarse)
        assert staged == fine


def test_star_subdivision():
    s2 = simplex_cone_complex(2)
    fine, _ = star_subdivision(s2, s2.cones[0])
    assert len(fine.cones) == 2
    assert (1, 1) in fine.rays()
    # a star at a single ray changes nothing
    same, _ = star_subdivision(s2, (s2.cones[0][0],))
    assert same == s2
    with pytest.raises(DomainError):
        star_subdivision(s2, ((1, 1),))  # not a face


def test_star_respects_gluings():
    """The rotation of triangle-z3 identifies its three edges, and any two of
    them share a ray inside the one cone: subdividing them one after another
    gives a complex its own gluing does not preserve, so that star is
    refused.  The whole cone is its own orbit and is subdivided."""
    tz = triangle_z3_complex()
    with pytest.raises(DomainError, match="star refused"):
        star_subdivision(tz, tz.cones[0][:2])
    fine, _ = star_subdivision(tz, tz.cones[0])
    assert len(fine.cones) == 3
    fine.validate()


def test_star_subdivides_identified_faces_in_different_cones():
    """Two quadrants glued one onto the other share the ray (0, 1) but no
    cone, so a star at either one subdivides both: the gluing acts in both
    directions."""
    x, y, w = (1, 0), (0, 1), (-1, 0)
    quadrants = ConeComplex(2, [(x, y), (w, y)], [((x, y), (y, w))])
    for face in ((x, y), (w, y)):
        fine, _ = star_subdivision(quadrants, sorted(face))
        assert len(fine.cones) == 4
        for f in pp_space(fine, 1):
            f.validate()


def test_validate_checks_shared_and_glued_faces():
    tz = triangle_z3_complex()
    total = {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
    assert PPFunction.from_global(tz, total, 1).is_compatible()
    with pytest.raises(DomainError, match="cones 0, 0 disagree"):
        PPFunction(tz, 1, [{(1, 0, 0): 1}]).validate()  # the rotation moves e1 to e2
    halves, _ = barycentric(simplex_cone_complex(2))
    assert halves.cones == (((0, 1), (1, 1)), ((1, 0), (1, 1)))
    with pytest.raises(DomainError, match="cones 0, 1 disagree"):
        PPFunction(halves, 1, [{(0, 1): 1}, {}]).validate()  # on the ray (1, 1)
    # the gluing carries the face of e1, e2 onto rays that share no cone
    e1, e2, e3, diagonal = (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)
    with pytest.raises(DomainError, match="gluing does not map faces onto faces"):
        ConeComplex(3, [(e1, e2), (e3,), (diagonal,)], [((e1, e2), (e3, diagonal))])


@pytest.mark.parametrize("point", [(1,), (1, 2, 3)])
def test_a_point_of_the_wrong_length_is_refused(point):
    complex = simplex_cone_complex(2)
    f = PPFunction.constant(complex, 1)
    for ask in (complex.find_cone, complex.contains, f.evaluate):
        with pytest.raises(DomainError, match="^vector length does not match row count$"):
            ask(point)


def test_evaluate_reads_point_entries_as_rationals():
    """Floats, strings and fractions, on a cone that is not unimodular:
    (x, y) has the coordinates ((x - y) / 2, (x + y) / 2)."""
    f = PPFunction(ConeComplex(2, [((1, -1), (1, 1))]), 2, [{(2, 0): 1}])
    for point, value in [
        ((0.5, 0.25), Fraction(1, 64)),
        (("1", "0"), Fraction(1, 4)),
        ((Fraction(1, 2), Fraction(1, 3)), Fraction(1, 144)),
    ]:
        got = f.evaluate(point)
        assert (got, type(got)) == (value, Fraction)


@pytest.mark.parametrize(
    "cones, gluings, message",
    [
        # (1, 1) is half of (1, 0) + (1, 2), so its image is (1/2, 1/2)
        (
            [((1, 0), (1, 1)), ((1, 1), (1, 2)), ((0, 1), (1, 2))],
            [(((1, 0), (1, 2)), ((1, 0), (0, 1)))],
            "gluing does not preserve the lattice",
        ),
        (
            [((1, 0), (0, 1))],
            [(((1, 0), (0, 1)), ((1, 0), (1, 1)))],
            "gluing maps ray (0, 1) outside the complex",
        ),
    ],
)
def test_gluing_errors_in_the_library_and_the_cli(capsys, tmp_path, cones, gluings, message):
    with pytest.raises(DomainError) as error:
        ConeComplex(2, cones, gluings)
    assert str(error.value) == message
    path = tmp_path / "complex.json"
    path.write_text(
        json.dumps(
            {
                "lattice_rank": 2,
                "cones": [{"rays": cone} for cone in cones],
                "gluings": [{"source": src, "target": dst} for src, dst in gluings],
            }
        )
    )
    assert cli.main(["cone", str(path), "faces"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: %s\n" % message)


def test_bool_ray_entries_are_refused():
    """A bool equals 0 or 1 but is written as false or true, which the
    JSON reader refuses, so the constructor refuses it too."""
    with pytest.raises(DomainError, match="^rays must be integer vectors$"):
        ConeComplex(2, [((True, False), (0, 1))])
    with pytest.raises(DomainError, match="^rays must be integer vectors$"):
        ConeComplex(2, [((1, 0), (0, 1))], [(((True, 0),), ((0, 1),))])
    with pytest.raises(DomainError):
        ConeComplex.from_json('{"lattice_rank": 2, "cones": [{"rays": [[true, false]]}]}')


def test_json_round_trip():
    for complex in (
        simplex_cone_complex(3),
        triangle_z3_complex(),
        barycentric(triangle_z3_complex())[0],
    ):
        again = ConeComplex.from_json(complex.to_json())
        assert again == complex
        assert complex.to_json() == complex.to_json()
    data = json.loads(simplex_cone_complex(2).to_json())
    assert "cones" in data and "gluings" in data
    assert all("faces" in cone for cone in data["cones"])


@pytest.mark.parametrize(
    "n, d",
    [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 2)],
)
def test_pp_dimensions_on_a_single_cone(n, d):
    """On one simplicial cone every piecewise polynomial is global."""
    assert len(pp_space(simplex_cone_complex(n), d)) == comb(n + d - 1, d)


def test_pp_degree_zero_counts_components():
    assert len(pp_space(simplex_cone_complex(3), 0)) == 1
    assert len(pp_space(triangle_z3_complex(), 0)) == 1
    disjoint = ConeComplex(2, {((1, 0),), ((0, 1),)}, ())
    assert len(pp_space(disjoint, 0)) == 2
    assert len(pp_space(disjoint, 1)) == 2


def test_pp_dimensions_on_the_glued_triangle():
    tz = triangle_z3_complex()
    assert len(pp_space(tz, 1)) == 1
    assert len(pp_space(tz, 2)) == 2
    one, _ = barycentric(tz)
    # one ray orbit per original face dimension
    assert len(pp_space(one, 1)) == 3


def test_pp_functions_form_a_ring():
    tz2, _ = barycentric(barycentric(triangle_z3_complex())[0])
    basis = pp_space(tz2, 1)
    points = _sample_points(tz2)
    for f in basis:
        f.validate()
    f, g = basis[0], basis[1]
    total = f + g
    prod = f * g
    prod.validate()
    assert total.degree == 1 and prod.degree == 2
    for p in points:
        assert total.evaluate(p) == f.evaluate(p) + g.evaluate(p)
        assert prod.evaluate(p) == f.evaluate(p) * g.evaluate(p)
    assert (QQ(3) * f).evaluate(points[0]) == 3 * f.evaluate(points[0])
    assert (f - f).is_zero()


def test_from_global_restricts_a_polynomial():
    s2 = simplex_cone_complex(2)
    # x0 + 2*x1 as a function of the cone coordinates
    f = PPFunction.from_global(s2, {(1, 0): QQ(1), (0, 1): QQ(2)}, 1)
    assert f.evaluate((1, 0)) == 1
    assert f.evaluate((0, 1)) == 2
    assert f.evaluate((3, 4)) == 11
    g = PPFunction.constant(s2, QQ(5))
    assert g.evaluate((2, 9)) == 5


@pytest.mark.parametrize(
    "exps", [(-1, 2), (2, -1), (QQ(1, 2), QQ(1, 2)), (0.5, 0.5), (1.0, 0), ("1", 0), (None, 1)]
)
def test_pp_function_rejects_negative_and_non_integer_exponents(exps):
    """Every number sum is 1, so only the entries themselves are wrong."""
    with pytest.raises(DomainError, match="nonnegative integers"):
        PPFunction(simplex_cone_complex(2), 1, [{exps: 1}])
    with pytest.raises(DomainError, match="nonnegative integers"):
        PPFunction.from_global(simplex_cone_complex(2), {exps: 1}, 1)


@pytest.mark.parametrize("count", [0, 2, 3])
def test_pp_function_needs_one_polynomial_per_maximal_cone(count):
    """A second polynomial on the one cone of simplex1 is refused, not dropped."""
    polys = [{(0,): k + 1} for k in range(count)]
    with pytest.raises(DomainError, match="one polynomial per maximal cone"):
        PPFunction(simplex_cone_complex(1), 0, polys)


@pytest.mark.parametrize("exps", [(1,), (1, 0, 0), (0, 0, 1)])
def test_from_global_rejects_exponent_tuples_of_another_length(exps):
    with pytest.raises(DomainError, match="does not have 2 entries"):
        PPFunction.from_global(simplex_cone_complex(2), {exps: 1}, 1)


def test_from_global_reads_coefficients_like_pp_function():
    s2 = simplex_cone_complex(2)
    f = PPFunction.from_global(s2, {(1, 0): "1/2", (0, 1): 3}, 1)
    # the cone's rays are sorted, (0, 1) first
    assert f == PPFunction(s2, 1, [{(0, 1): "1/2", (1, 0): 3}])
    assert f.evaluate((2, 4)) == 13


def test_pullback_along_barycentric():
    tz = triangle_z3_complex()
    fine, mapping = barycentric(tz)
    for f in pp_space(tz, 1) + pp_space(tz, 2):
        pulled = pullback_pp(mapping, f)
        pulled.validate()
        assert pulled.degree == f.degree
        for p in _sample_points(fine):
            assert pulled.evaluate(p) == f.evaluate(p)
    # pullback is a ring map
    (f,) = pp_space(tz, 1)
    assert pullback_pp(mapping, f * f) == pullback_pp(mapping, f) * pullback_pp(mapping, f)
    # and injective on the degree-one space
    assert not pullback_pp(mapping, f).is_zero()


def _subdivisions(coarse, refused):
    """Barycentric and every star subdivision; the star at a face with
    `refused` rays must be refused."""
    yield barycentric(coarse)[1]
    for face in coarse.all_faces():
        if len(face) == refused:
            with pytest.raises(DomainError, match="star refused"):
                star_subdivision(coarse, face)
        else:
            yield star_subdivision(coarse, face)[1]


@pytest.mark.parametrize(
    "fixture, refused",
    [
        (lambda: simplex_cone_complex(1), None),
        (lambda: simplex_cone_complex(2), None),
        (lambda: simplex_cone_complex(3), None),
        # the edges of triangle-z3 (see test_star_respects_gluings)
        (triangle_z3_complex, 2),
    ],
    ids=["simplex1", "simplex2", "simplex3", "triangle-z3"],
)
def test_pullback_agrees_at_random_lattice_points(fixture, refused, monkeypatch):
    """pullback_pp(m, f)(p) == f(p) for random f and random lattice points p
    of the support, along barycentric and every star subdivision; the
    pullback itself solves for no coordinates."""
    import tautring.cone_complex as cc

    rng = random.Random(11)
    coarse = fixture()
    for sub_map in _subdivisions(coarse, refused):
        for d in (1, 2):
            basis = pp_space(coarse, d)
            f = PPFunction(coarse, d, [{} for _ in coarse.cones])
            for g in basis:
                f = f + rng.randint(-3, 3) * g
            with monkeypatch.context() as patch:
                patch.setattr(cc, "_cone_coords", None)
                pulled = pullback_pp(sub_map, f)
            for _ in range(8):
                cone = rng.choice(coarse.cones)
                weights = [rng.randint(0, 5) for _ in cone]
                p = tuple(
                    sum(w * r[j] for w, r in zip(weights, cone))
                    for j in range(coarse.lattice_rank)
                )
                assert pulled.evaluate(p) == f.evaluate(p)


def test_generated_by_degree_one_progression():
    tz = triangle_z3_complex()
    assert generated_by_degree_one(tz, 2) is False
    once, _ = barycentric(tz)
    assert generated_by_degree_one(once, 2) is False
    twice, _ = barycentric(once)
    assert generated_by_degree_one(twice, 2) is True
    assert generated_by_degree_one(twice, 3) is True
    # a single cone carries the full polynomial ring already
    assert generated_by_degree_one(simplex_cone_complex(3), 2) is True
    bary2, _ = barycentric(simplex_cone_complex(2))
    assert generated_by_degree_one(bary2, 2) is True
    with pytest.raises(DomainError):
        generated_by_degree_one(tz, 1)


def test_explosion_chern_identity():
    for s in range(1, 5):
        for k in range(1, s + 1):
            assert explosion_chern_identity(s, k) is True
    with pytest.raises(DomainError):
        explosion_chern_identity(3, 4)
    with pytest.raises(DomainError):
        explosion_chern_identity(6, 1)


def _cycle_glued_orthant(sigma):
    """R^r_{>=0} glued to itself by e_i -> e_sigma(i)."""
    r = len(sigma)
    basis = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    image = [basis[sigma[i]] for i in range(r)]
    return ConeComplex(r, [tuple(basis)], [(tuple(basis), tuple(image))])


@pytest.mark.parametrize("d, dim", [(1, 7), (2, 43)])
def test_pp_space_of_cycle_glued_barycentric_orthant_is_orbit_indicators(d, dim):
    # Burnside for the 5-cycle: 31 rays give (31 + 4 * 1) / 5 = 7 orbits,
    # 211 chains A <= B of nonempty subsets give (211 + 4 * 1) / 5 = 43.
    sigma = (2, 4, 1, 0, 3)  # the 5-cycle 0 -> 2 -> 1 -> 4 -> 3 -> 0
    fine, _ = barycentric(_cycle_glued_orthant(sigma))
    # The rays of the subdivision are the nonzero 0/1 vectors, and rays
    # share a cone exactly when their supports form a chain.
    rays = sorted(bits for bits in itertools.product((0, 1), repeat=5) if any(bits))
    assert rays == sorted(fine.rays())

    def below(a, b):
        return all(x <= y for x, y in zip(a, b))

    multisets = [
        ms
        for ms in itertools.combinations_with_replacement(rays, d)
        if all(below(a, b) or below(b, a) for a, b in itertools.combinations(ms, 2))
    ]

    def glue(ray):
        image = [0] * 5
        for i, x in enumerate(ray):
            image[sigma[i]] = x
        return tuple(image)

    parent = {ms: ms for ms in multisets}

    def find(ms):
        while parent[ms] != ms:
            parent[ms] = parent[parent[ms]]
            ms = parent[ms]
        return ms

    for ms in multisets:
        parent[find(ms)] = find(tuple(sorted(glue(ray) for ray in ms)))
    components = {}
    for ms in multisets:
        components.setdefault(find(ms), set()).add(ms)
    assert len(components) == dim

    def value(f, ms):
        for poly, cone in zip(f.polys, f.complex.cones):
            if set(ms) <= set(cone):
                exps = [0] * len(cone)
                for ray in ms:
                    exps[cone.index(ray)] += 1
                return poly.get(tuple(exps), 0)
        raise AssertionError("multiset %r lies in no cone" % (ms,))

    basis = pp_space(fine, d)
    assert len(basis) == dim
    supports = []
    for f in basis:
        values = {ms: value(f, ms) for ms in multisets}
        assert set(values.values()) <= {0, 1}
        supports.append(frozenset(ms for ms, v in values.items() if v == 1))
    assert sorted(map(sorted, supports)) == sorted(map(sorted, components.values()))
