"""One zero per cone: a piecewise polynomial vanishing on a cone holds there
the shared read-only mapping `_ZERO_POLY`, never an empty dict of its own.

Every producer of cone polynomials keeps this form: `pp_space`, the
constructor, `from_global`, `pullback_pp`, and `+`, `-`, scalar `*` and
`*`.  The counts below were taken before the form was introduced, on
barycentric(barycentric(R^4_{>=0} glued by a 4-cycle)), whose 576 cones
hold the functions of each `pp_space` basis mostly as zeros.
"""

import functools
import itertools

import pytest

from test_pp_shared_work import _cycle_orthant
from tautring.cone_complex import (
    _ZERO_POLY,
    PPFunction,
    barycentric,
    pp_space,
    pullback_pp,
)
from tautring.rationals import ONE, QQ


@functools.cache
def _coarse():
    """barycentric(cycle-glued R^4_{>=0}) (24 cones) and the subdivision
    map of its barycentric subdivision (576 cones)."""
    coarse, _ = barycentric(_cycle_orthant(4))
    return coarse, barycentric(coarse)[1]


def _fine():
    return _coarse()[1].source


def _assert_normal(f):
    """Every cone poly is nonempty or is _ZERO_POLY."""
    for poly in f.polys:
        assert poly or poly is _ZERO_POLY


def _zero_cones(f):
    return {i for i, poly in enumerate(f.polys) if poly is _ZERO_POLY}


@pytest.mark.parametrize("d, size, nonempty", [(1, 39, 2304), (2, 239, 5760), (3, 745, 11520)])
def test_pp_space_holds_one_dict_per_nonzero_cone(d, size, nonempty):
    fine = _fine()
    assert len(fine.cones) == 576
    basis = pp_space(fine, d)
    assert len(basis) == size
    assert sum(1 for f in basis for poly in f.polys if poly) == nonempty
    # so every empty cone poly is the shared zero
    assert sum(len(_zero_cones(f)) for f in basis) == size * 576 - nonempty


def test_a_zero_cone_refuses_writes():
    f = pp_space(_fine(), 1)[0]
    i = min(_zero_cones(f))
    with pytest.raises(TypeError):
        f.polys[i][(1, 0, 0, 0)] = ONE
    assert not _ZERO_POLY


def test_explicit_empty_cones_are_the_shared_zero():
    for f in pp_space(_fine(), 2)[:20]:
        built = PPFunction(f.complex, f.degree, [dict(poly) for poly in f.polys])
        assert built == f and hash(built) == hash(f)
        assert _zero_cones(built) == _zero_cones(f)
    # a polynomial whose coefficients are all zero is the zero too
    zero_terms = [{(f.degree,) + (0,) * (len(cone) - 1): 0} for cone in f.complex.cones]
    assert _zero_cones(PPFunction(f.complex, f.degree, zero_terms)) == set(range(576))


def test_pullback_of_a_zero_cone_is_the_zero():
    coarse, sub_map = _coarse()
    basis = pp_space(coarse, 2)
    assert sum(1 for f in basis if _zero_cones(f)) == 13
    for f in basis:
        pulled = pullback_pp(sub_map, f)
        _assert_normal(pulled)
        vanishing = _zero_cones(f)
        assert _zero_cones(pulled) == {
            i for i, j in enumerate(sub_map.cone_targets) if j in vanishing
        }


def test_global_zero_and_cancellations_give_the_zero():
    fine = _fine()
    everywhere = set(range(len(fine.cones)))
    assert _zero_cones(PPFunction.from_global(fine, {}, 2)) == everywhere
    assert _zero_cones(PPFunction.from_global(fine, {(1, 1, 0, 0): 0}, 2)) == everywhere
    f, g = pp_space(fine, 1)[:2]
    assert _zero_cones(f - f) == everywhere
    assert _zero_cones(0 * f) == everywhere
    assert _zero_cones(QQ(0) * f) == everywhere
    assert _zero_cones((f - f) * g) == everywhere
    assert _zero_cones(f * (g - g)) == everywhere


def test_sums_and_products_keep_the_zeros_of_their_factors():
    basis = pp_space(_fine(), 1)
    for f, g in itertools.combinations(basis[:8], 2):
        total, product = f + g, f * g
        _assert_normal(total)
        _assert_normal(product)
        assert _zero_cones(total) == _zero_cones(f) & _zero_cones(g)
        assert _zero_cones(product) == _zero_cones(f) | _zero_cones(g)
        assert _zero_cones(2 * f) == _zero_cones(f)
