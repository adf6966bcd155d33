"""Pullbacks whose cones share their expansions, against the oracles.

`pullback_pp` and `PPFunction.from_global` hand one memo to the
substitution of every cone of the call: the powers of the linear forms,
their products, the unpacked exponent keys and the output rationals are
made once per call.  The results must be the polynomials of the
kernels that expand every cone on its own (`tests/pp_oracle.py`): the
same terms in the same key order, every coefficient a `QQ`.  The cases
are the benchmark's shape at smaller rank (a barycentric subdivision of
an orthant glued by a cycle, whose flag cones use a few linear forms in
permuted roles), global polynomials on barycentric(R^4_{>=0}), and
pullbacks along two subdivision maps in turn, which a memo that outlived
its call would mix up.
"""

import itertools
import random

import pytest

import pp_oracle
from test_pp_oracle import _assert_same_function, _assert_same_poly
from tautring.cone_complex import (
    ConeComplex,
    PPFunction,
    barycentric,
    pp_space,
    pullback_pp,
    simplex_cone_complex,
    star_subdivision,
)
from tautring.rationals import QQ


def _cycle_orthant(r):
    """R^r_{>=0} glued to itself by e_i -> e_{i+1 mod r}."""
    basis = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    return ConeComplex(r, [tuple(basis)], [(tuple(basis), tuple(basis[1:] + basis[:1]))])


def _random_combination(rng, basis):
    f = PPFunction(basis[0].complex, basis[0].degree, [{} for _ in basis[0].polys])
    for g in basis:
        f = f + QQ(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))) * g
    return f


def _assert_pullback(sub_map, f):
    got = pullback_pp(sub_map, f)
    _assert_same_function(got, pp_oracle.integer_pullback(sub_map, f))
    _assert_same_function(got, pp_oracle.packed_pullback(sub_map, f))
    return got


@pytest.mark.parametrize("r", [3, 4])
def test_pullbacks_of_a_cycle_glued_orthant_match_the_oracles(r):
    rng = random.Random(r)
    coarse = _cycle_orthant(r)
    _, sub_map = barycentric(coarse)
    for d in (1, 2, 3):
        basis = pp_space(coarse, d)
        for g in basis:
            _assert_pullback(sub_map, g)
        _assert_pullback(sub_map, _random_combination(rng, basis))


def test_from_global_on_a_barycentric_orthant_matches_the_oracle():
    rng = random.Random(4)
    fine, _ = barycentric(simplex_cone_complex(4))
    assert len(fine.cones) == 24
    for d in range(5):
        monomials = itertools.combinations_with_replacement(range(4), d)
        poly = {
            tuple(combo.count(t) for t in range(4)): QQ(rng.randint(1, 9), rng.choice((1, 2, 5)))
            for combo in monomials
            if rng.random() < 0.7
        }
        got = PPFunction.from_global(fine, poly, d)
        for cone, p in zip(fine.cones, got.polys):
            _assert_same_poly(p, pp_oracle.integer_substitute(poly, list(zip(*cone))))
            _assert_same_poly(p, pp_oracle.packed_substitute(poly, tuple(zip(*cone)), 1))


def test_pullbacks_along_two_maps_in_turn_match_the_oracles():
    """Along the barycentric map of the glued 3-orthant, then the barycentric
    map of that fine complex, and the star map of the coarse cone in between:
    every call in every degree, one after another."""
    rng = random.Random(2)
    coarse = _cycle_orthant(3)
    fine, first = barycentric(coarse)
    _, second = barycentric(fine)
    _, star = star_subdivision(coarse, coarse.cones[0])
    for d in (3, 1, 2):
        f = _random_combination(rng, pp_space(coarse, d))
        pulled = _assert_pullback(first, f)
        _assert_pullback(star, f)
        _assert_pullback(second, pulled)
        _assert_pullback(first, f)
