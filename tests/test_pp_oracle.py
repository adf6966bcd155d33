"""`pp_space`, `pullback_pp` and `PPFunction.from_global` against the oracle.

`tests/pp_oracle.py` keeps the nullspace `pp_space` and the rational
substitution that the union-find basis and the integer substitution
replace.  The library must give the same functions in the same order, and
the same pullbacks and restrictions, coefficient for coefficient.  It also
keeps the integer kernel on exponent tuples that the packed-exponent
kernel replaced, which must give the same polynomials with the same
coefficients in the same key order.
"""

import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pp_oracle
from tautring.cone_complex import (
    ConeComplex,
    _ZERO_POLY,
    PPFunction,
    _gluing_classes,
    _multiset_coefficients,
    _multiset_vector,
    _poly_mul,
    _ray_multisets,
    _substitute,
    barycentric,
    pp_space,
    pullback_pp,
    simplex_cone_complex,
    star_subdivision,
    triangle_z3_complex,
)
from tautring.errors import DomainError
from tautring.rationals import QQ


def _glued_orthant(sigma):
    """R^r_{>=0} glued to itself by e_i -> e_sigma(i)."""
    r = len(sigma)
    basis = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    image = [basis[sigma[i]] for i in range(r)]
    return ConeComplex(r, [tuple(basis)], [(tuple(basis), tuple(image))])


def _three_parts():
    """Four connected pieces, two of them joined by a gluing (4 onto 1)."""
    cones = [
        ((0, 0, 0, 1), (0, 0, 1, 1)),
        ((0, 0, 1, 0),),
        ((0, 0, 1, 1), (1, 1, 0, 0)),
        ((0, 1, 0, 0),),
        ((1, 0, 0, 0),),
    ]
    return ConeComplex(4, cones, [(((1, 0, 0, 0),), ((0, 0, 1, 0),))])


def _face_onto_face():
    """A proper face of the orthant glued onto another: (e1, e2) -> (e2, e3)."""
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    return ConeComplex(3, [(e1, e2, e3)], [((e1, e2), (e2, e3))])


FIXTURES = {
    "simplex1": lambda: simplex_cone_complex(1),
    "simplex2": lambda: simplex_cone_complex(2),
    "simplex3": lambda: simplex_cone_complex(3),
    "simplex4": lambda: simplex_cone_complex(4),
    "simplex5": lambda: simplex_cone_complex(5),
    "triangle-z3": triangle_z3_complex,
    "face-onto-face": _face_onto_face,
    "cycle4": lambda: _glued_orthant((1, 2, 3, 0)),
    "cycle5": lambda: _glued_orthant((2, 4, 1, 0, 3)),
    "transposition4": lambda: _glued_orthant((1, 0, 2, 3)),
    "three-parts": _three_parts,
    # glued complexes whose glued faces are already subdivided
    "barycentric-triangle-z3": lambda: barycentric(triangle_z3_complex())[0],
    "barycentric-face-onto-face": lambda: barycentric(_face_onto_face())[0],
}

# Non-unimodular cones: the barycenter (1, 0) of (1, -1), (1, 1) has
# coordinates 1/2, 1/2, and (3, 3, 3) / 3 in the second cone gives 1/3.
NON_UNIMODULAR = {
    "wide2": lambda: ConeComplex(2, [((1, -1), (1, 1))]),
    "wide3": lambda: ConeComplex(3, [((1, 0, 0), (0, 1, 0), (2, 2, 3))]),
}


def _subdivisions(coarse):
    yield barycentric(coarse)
    for face in coarse.all_faces():
        try:
            yield star_subdivision(coarse, face)
        except DomainError:  # orbit faces share a ray in one cone
            pass


@functools.cache
def _subdivided(name):
    """The fine complexes of a fixture's subdivisions, made once per run."""
    return [fine for fine, _ in _subdivisions(FIXTURES[name]())]


def _outcome(function, *args):
    """The result, or the message of the DomainError raised instead."""
    try:
        return function(*args)
    except DomainError as exc:
        return "DomainError: %s" % exc


def _assert_same_space(complex, d):
    want = _outcome(pp_oracle.pp_space, complex, d)
    got = _outcome(pp_space, complex, d)
    assert got == want
    return want


def test_no_two_fixtures_are_equal():
    complexes = [build() for build in FIXTURES.values()]
    assert all(a != b for a, b in itertools.combinations(complexes, 2))


@pytest.mark.parametrize("d", [0, 1, 2, 3])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_pp_space_matches_the_oracle(name, d):
    """Every fixture and every subdivision of it has a space in each degree:
    a DomainError from both sides would match, so it is refused here."""
    for complex in [FIXTURES[name]()] + _subdivided(name):
        assert not isinstance(_assert_same_space(complex, d), str)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_product_vectors_match_the_checked_coefficients(name, d):
    """`generated_by_degree_one` reads each product of degree-1 functions
    from its nonzero monomials without checking it; the checked reading of
    every monomial of every cone must give the same vector."""
    complex = FIXTURES[name]()
    multisets = _ray_multisets(complex, d)
    for combo in itertools.combinations_with_replacement(pp_space(complex, 1), d):
        product = math.prod(combo[1:], start=combo[0])
        values = _multiset_coefficients(product)
        assert sorted(values) == multisets
        assert _multiset_vector(product, multisets) == [values[m] for m in multisets]


def _glued_quadrants():
    """Two quadrants sharing the ray (0, 1), the first glued onto the second."""
    x, y, w = (1, 0), (0, 1), (-1, 0)
    return ConeComplex(2, [(x, y), (w, y)], [((x, y), (y, w))])


ORBIT_CASES = {
    "triangle-z3": triangle_z3_complex,
    "barycentric-triangle-z3": FIXTURES["barycentric-triangle-z3"],
    "glued-quadrants": _glued_quadrants,
    "cycle5": FIXTURES["cycle5"],
    "barycentric-cycle5": lambda: barycentric(FIXTURES["cycle5"]())[0],
}


@pytest.mark.parametrize("name", sorted(ORBIT_CASES))
def test_star_orbits_and_ray_maps_match_the_oracle(name):
    """The stored ray maps equal maps solved by dense elimination, and on
    every face the one-way union-find class equals the two-way search of
    the oracle.  A star either adds the barycenter of every orbit member
    with two or more rays, or is refused because two members share a ray
    inside one cone; its complex again stores the oracle's maps."""
    complex = ORBIT_CASES[name]()
    assert list(complex._ray_maps) == pp_oracle.ray_maps(complex)
    faces = complex.all_faces()
    labels = _gluing_classes(complex, faces)
    maps = pp_oracle.two_way_maps(complex)
    for face in faces:
        orbit = pp_oracle.gluing_orbit(maps, face)
        assert sorted(f for f in faces if labels[f] == labels[face]) == orbit
        if len(complex.cones) > 6:
            continue  # every star of the 120 flag cones would take seconds
        try:
            fine, _ = star_subdivision(complex, face)
        except DomainError as exc:
            assert "star refused" in str(exc)
            assert any(
                set(a) & set(b) and any(set(a + b) <= set(c) for c in complex.cones)
                for a, b in itertools.combinations(orbit, 2)
            )
            continue
        sums = [tuple(map(sum, zip(*member))) for member in orbit if len(member) > 1]
        barycenters = {tuple(x // math.gcd(*v) for x in v) for v in sums}
        assert set(fine.rays()) - set(complex.rays()) == barycenters
        assert list(fine._ray_maps) == pp_oracle.ray_maps(fine)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_accepted_star_subdivisions_keep_their_gluings(name):
    """Every star subdivision that is not refused is preserved by its own
    gluing, so its degree-one functions are well defined."""
    for fine in _subdivided(name):
        for f in pp_space(fine, 1):
            f.validate()


def _random_rational(rng):
    return QQ(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))


def _random_function(rng, complex, d):
    """Any per-cone polynomials: pullback does not need compatibility."""
    polys = []
    for cone in complex.cones:
        monomials = itertools.combinations_with_replacement(range(len(cone)), d)
        polys.append(
            {
                tuple(combo.count(t) for t in range(len(cone))): _random_rational(rng)
                for combo in monomials
                if rng.random() < 0.7
            }
        )
    return PPFunction(complex, d, polys)


def _random_global(rng, rank, d):
    return {
        tuple(combo.count(t) for t in range(rank)): _random_rational(rng)
        for combo in itertools.combinations_with_replacement(range(rank), d)
        if rng.random() < 0.7
    }


PULLBACK_CASES = dict(NON_UNIMODULAR)
for _name in ("simplex1", "simplex2", "simplex3", "triangle-z3", "face-onto-face"):
    PULLBACK_CASES[_name] = FIXTURES[_name]


@pytest.mark.parametrize("name", sorted(PULLBACK_CASES))
def test_pullback_and_from_global_match_the_oracle(name):
    rng = random.Random(name)
    coarse = PULLBACK_CASES[name]()
    for fine, sub_map in _subdivisions(coarse):
        for d in range(4):
            f = _random_function(rng, coarse, d)
            assert pullback_pp(sub_map, f) == pp_oracle.pullback_pp(sub_map, f)
            for g in pp_oracle.pp_space(coarse, d):
                assert pullback_pp(sub_map, g) == pp_oracle.pullback_pp(sub_map, g)
            poly = _random_global(rng, coarse.lattice_rank, d)
            for complex in (coarse, fine):
                assert PPFunction.from_global(complex, poly, d) == pp_oracle.from_global(
                    complex, poly, d
                )


# (complex, global polynomial, degree, the error it raises or None),
# each outcome captured before `from_global` built its result unchecked
FROM_GLOBAL_CASES = [
    ("simplex2", {(1, 0): 0, (1, 1): 1}, 2, None),  # the zero term is dropped
    ("simplex2", {(1, 0): 1}, 2, "polynomial is not homogeneous"),
    ("simplex2", {(2, 0): 1, (0, 1): 1}, 2, "polynomial is not homogeneous"),
    ("simplex2", {}, 2, None),
    ("simplex2", {(1, 1): 0}, 5, None),
    ("simplex2", {(2, 0, 0): 1}, 2, "exponent tuple (2, 0, 0) does not have 2 entries"),
    ("simplex2", {(1.0, 1): 1}, 2, "exponents must be nonnegative integers"),
    # x2 vanishes on the one cone of "flat", so its terms of any degree do
    ("flat", {(0, 0, 2): 1, (1, 1, 0): 1}, 2, None),
    ("flat", {(0, 0, 1): 1}, 2, None),
    ("flat", {(0, 0, 1): 1, (1, 1, 0): 1}, 2, None),
    ("flat", {(0, 0, 1): 1, (1, 0, 0): 1}, 2, "polynomial is not homogeneous"),
    ("wide2", {(1, 1): QQ(1, 3)}, 2, None),
    ("triangle-z3", {(1, 1, 1): 1, (3, 0, 0): 2}, 3, None),
    ("triangle-z3", {(1, 1, 1): 1, (1, 0, 0): 2}, 3, "polynomial is not homogeneous"),
]


@pytest.mark.parametrize("name, poly, degree, error", FROM_GLOBAL_CASES)
def test_from_global_accepts_and_refuses_what_it_did(name, poly, degree, error):
    """An accepted polynomial restricts as the oracle's does, with
    `_ZERO_POLY` on every cone where it vanishes; a refused one names the
    same fault as before."""
    builds = {**FIXTURES, **NON_UNIMODULAR, "flat": lambda: ConeComplex(3, [((1, 0, 0), (0, 1, 0))])}
    complex = builds[name]()
    if error is not None:
        with pytest.raises(DomainError) as exc:
            PPFunction.from_global(complex, poly, degree)
        assert str(exc.value) == error
        return
    f = PPFunction.from_global(complex, poly, degree)
    assert f == pp_oracle.from_global(complex, poly, degree)
    assert all(p is _ZERO_POLY or p for p in f.polys)


def test_fractional_ray_coordinates_are_pulled_back_exactly():
    coarse = NON_UNIMODULAR["wide2"]()
    fine, sub_map = barycentric(coarse)
    assert (1, 0) in fine.rays()
    assert [QQ(1, 2), QQ(1, 2)] in [list(c) for coords in sub_map.ray_coords for c in coords]
    # x * y on the coarse cone, in its ray coordinates
    f = PPFunction(coarse, 2, [{(1, 1): QQ(1)}])
    pulled = pullback_pp(sub_map, f)
    assert pulled == pp_oracle.pullback_pp(sub_map, f)
    assert any(c.denominator == 4 for poly in pulled.polys for c in poly.values())
    for point in ((1, 0), (3, 1), (2, -1), (5, 5)):
        assert pulled.evaluate(point) == f.evaluate(point)


@st.composite
def _permutation_gluings(draw):
    """A simplex of rank <= 4 with one or two gluings of faces by bijections."""
    rank = draw(st.integers(1, 4))
    basis = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    gluings = []
    for _ in range(draw(st.integers(1, 2))):
        size = draw(st.integers(1, rank))
        src = draw(st.permutations(range(rank)))[:size]
        dst = draw(st.permutations(range(rank)))[:size]
        gluings.append(
            (tuple(basis[i] for i in src), tuple(basis[i] for i in dst))
        )
    coarse = ConeComplex(rank, [tuple(basis)], gluings)
    return coarse, draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(_permutation_gluings(), st.randoms(use_true_random=False))
def test_pp_space_matches_the_oracle_on_random_gluings(case, rng):
    coarse, subdivide = case
    complex, sub_map = barycentric(coarse) if subdivide else (coarse, None)
    for d in range(4):
        basis = _assert_same_space(complex, d)
        if sub_map is not None and not isinstance(basis, str):
            coarse_basis = pp_oracle.pp_space(coarse, d)
            f = PPFunction(coarse, d, [{} for _ in coarse.cones])
            for g in coarse_basis:
                f = f + _random_rational(rng) * g
            assert pullback_pp(sub_map, f) == pp_oracle.pullback_pp(sub_map, f)


# ---------------------------------------------------------------------------
# the packed-exponent kernel against the kernel on exponent tuples


def _assert_same_poly(got, want):
    assert list(got.items()) == list(want.items())
    assert all(type(c) is QQ for c in got.values())


def _assert_same_function(got, want):
    assert got == want
    for p, q in zip(got.polys, want.polys):
        _assert_same_poly(p, q)


def test_packed_kernel_matches_the_tuple_kernel_on_random_polynomials():
    """Integer forms over a scale, with zero and negative entries, against
    the same forms as rationals."""
    rng = random.Random(5)
    for _ in range(300):
        n_old, n_new, d = rng.randint(1, 4), rng.randint(1, 5), rng.randint(0, 5)
        scale = rng.choice((1, 1, 2, 6, 35))
        forms = [tuple(rng.randint(-4, 4) for _ in range(n_new)) for _ in range(n_old)]
        poly = _random_global(rng, n_old, d)
        rational = [[QQ(a, scale) for a in form] for form in forms]
        _assert_same_poly(
            _substitute(poly, forms, scale), pp_oracle.integer_substitute(poly, rational)
        )


def _random_poly(rng, rank, units):
    """A sum of random homogeneous parts of degrees 0..3, each kept with
    probability 1/2; with units, every coefficient is -1 or 1, so that
    the terms of a product cancel and come back."""
    poly = {}
    for d in range(4):
        if rng.random() < 0.5:
            poly.update(_random_global(rng, rank, d))
    if units:
        poly = {exps: QQ(rng.choice((-1, 1))) for exps in poly}
    return poly


def test_poly_mul_matches_the_tuple_kernel_order_included():
    """PPFunction products multiply integer numerators with packed keys;
    the oracle multiplies rationals on exponent tuples."""
    rng = random.Random(11)
    for trial in range(600):
        rank = rng.randint(0, 5)
        p, q = (_random_poly(rng, rank, trial % 2) for _ in range(2))
        _assert_same_poly(_poly_mul(p, q), pp_oracle._poly_mul(p, q))


@pytest.mark.parametrize("d", range(6))
def test_packed_kernel_when_one_variable_carries_the_whole_degree(d):
    """Each variable of the form's power alone reaches exponent d, the
    largest digit in base d + 1."""
    forms = [(1, -2, 0), (0, 3, 5), (-1, 0, 1)]
    for k in range(3):
        exps = tuple(d if t == k else 0 for t in range(3))
        for poly in ({exps: QQ(-7, 3)}, {exps: QQ(1)}):
            _assert_same_poly(
                _substitute(poly, forms, 1), pp_oracle.integer_substitute(poly, forms)
            )
            _assert_same_poly(
                _substitute(poly, forms, 4),
                pp_oracle.integer_substitute(poly, [[QQ(a, 4) for a in f] for f in forms]),
            )


def test_packed_kernel_in_degree_zero():
    forms = [(2, -1), (0, 3)]
    for poly in ({}, {(0, 0): QQ(5, 2)}, {(0, 0): QQ(-3)}):
        _assert_same_poly(_substitute(poly, forms, 1), pp_oracle.integer_substitute(poly, forms))
        _assert_same_poly(
            _substitute(poly, forms, 3),
            pp_oracle.integer_substitute(poly, [[QQ(a, 3) for a in f] for f in forms]),
        )


@pytest.mark.parametrize("name", sorted(NON_UNIMODULAR))
def test_packed_kernel_on_fractional_ray_coordinates(name):
    rng = random.Random(name)
    coarse = NON_UNIMODULAR[name]()
    maps = [sub_map for _, sub_map in _subdivisions(coarse)]
    assert max(scale for sub_map in maps for scale in sub_map.scales) > 1
    for sub_map in maps:
        for d in range(5):
            f = _random_function(rng, coarse, d)
            _assert_same_function(pullback_pp(sub_map, f), pp_oracle.integer_pullback(sub_map, f))


@pytest.mark.parametrize("name", sorted(NON_UNIMODULAR))
def test_from_global_matches_the_tuple_kernel_on_negative_ray_entries(name):
    """The rays of these complexes have negative entries (wide2) or
    entries above one (wide3); so do the forms of from_global."""
    rng = random.Random(name)
    coarse = NON_UNIMODULAR[name]()
    for complex in [coarse] + [fine for fine, _ in _subdivisions(coarse)]:
        for d in range(5):
            # from_global drops zero terms first
            poly = {e: c for e, c in _random_global(rng, complex.lattice_rank, d).items() if c}
            got = PPFunction.from_global(complex, poly, d)
            for cone, p in zip(complex.cones, got.polys):
                _assert_same_poly(p, pp_oracle.integer_substitute(poly, list(zip(*cone))))


def test_pullbacks_of_the_benchmark_shape_match_the_oracles():
    """The barycentric subdivision of the glued 5-orthant: every coarse
    basis function in degree 3 against the rational oracle, in degree 4
    against the kernel on exponent tuples."""
    coarse = FIXTURES["cycle5"]()
    fine, sub_map = barycentric(coarse)
    assert len(fine.cones) == 120
    for g in pp_space(coarse, 3):
        _assert_same_function(pullback_pp(sub_map, g), pp_oracle.pullback_pp(sub_map, g))
    for g in pp_space(coarse, 4):
        _assert_same_function(pullback_pp(sub_map, g), pp_oracle.integer_pullback(sub_map, g))
