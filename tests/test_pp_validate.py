"""`PPFunction.validate` against the pairwise scan it replaced.

In degree >= 1 the library checks compatibility in one pass over ray
multisets; `pp_oracle.validate` compares the restrictions of every pair of
matched faces.  On every fixture of `tests/test_pp_oracle.py` the two
must give the same verdict, and on a failure the same message, which
names the first disagreeing pair of cones.  The functions are the
`pp_space` members of degree 0 to 3, each member with one coefficient
changed, each member with one monomial moved across a gluing, and
products of members.
"""

import itertools

import pytest

import pp_oracle
from test_pp_oracle import FIXTURES
from tautring.cone_complex import PPFunction, pp_space
from tautring.errors import DomainError


def _verdict(check, f):
    try:
        check(f)
    except DomainError as exc:
        return str(exc)
    return None


def _assert_same_verdict(f):
    want = _verdict(pp_oracle.validate, f)
    assert _verdict(PPFunction.validate, f) == want
    return want


def _changed(f, i, exps, delta):
    polys = [dict(p) for p in f.polys]
    c = polys[i].get(exps, 0) + delta
    polys[i][exps] = c
    if not c:
        del polys[i][exps]
    return PPFunction(f.complex, f.degree, polys)


def _one_coefficient_changed(f):
    """f with one more in the first monomial of each cone (x_1^d when the
    cone has none), one cone at a time."""
    for i, cone in enumerate(f.complex.cones):
        exps = next(iter(f.polys[i]), (f.degree,) + (0,) * (len(cone) - 1))
        yield _changed(f, i, exps, 1)


def _moved_across_a_gluing(f):
    """f with one monomial of a cone taken off and put, with its coefficient,
    on the image monomial in the first cone that holds the image."""
    complex = f.complex
    cones = complex.cones
    for ray_map in pp_oracle.ray_maps(complex):
        for i, cone in enumerate(cones):
            for exps, c in f.polys[i].items():
                rays = [r for r, e in zip(cone, exps) for _ in range(e)]
                if not rays or not all(r in ray_map for r in rays):
                    continue
                image = [ray_map[r] for r in rays]
                j = next(j for j, other in enumerate(cones) if set(image) <= set(other))
                moved = _changed(f, i, exps, -c)
                image_exps = tuple(image.count(r) for r in cones[j])
                yield _changed(moved, j, image_exps, c)
                break


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_validate_gives_the_verdicts_and_messages_of_the_pairwise_scan(name):
    complex = FIXTURES[name]()
    members = {d: pp_space(complex, d) for d in range(4)}
    failures = 0
    for d, basis in members.items():
        for f in basis:
            assert _assert_same_verdict(f) is None
            for g in itertools.chain(_one_coefficient_changed(f), _moved_across_a_gluing(f)):
                failures += _assert_same_verdict(g) is not None
    for a, b in itertools.combinations_with_replacement(members[1], 2):
        assert _assert_same_verdict(a * b) is None
    for a, b in itertools.product(members[1], members[2]):
        assert _assert_same_verdict(a * b) is None
    # a single cone without gluings makes every function compatible
    assert failures > 0 or (len(complex.cones) == 1 and not complex.gluings)
