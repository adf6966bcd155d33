"""The pairing kernel against the per-pair integral and the block kernel.

`product_oracle.product_integral` integrates the `Decoration` terms of the
former library product kernel one pair of strata at a time in `Fraction`s.
`pairing_oracle.pairing_row` is the block kernel that walked the common
degenerations of one (row term, column graph) block at a time.
`product.pairing_matrix` pairs all row terms with all column terms in one
walk over the degeneration graphs, in integers.  Every value must agree,
in both argument orders: on every complementary generator pair of a few
small spaces, on a seeded sample of (3,1) and (4,0) pairs, on the full
self-dual degree of (3,0), and row by row with the block kernel on the
matrices `div_membership` builds.
"""

import itertools
import random

import pytest

import pairing_oracle
from product_oracle import product_integral
from test_golden_cli import _cached_functions, _clear_every_memo
from tautring import integration, product, stable_graphs
from tautring.errors import DomainError
from tautring.membership import (
    _degree_monomials,
    div_membership,
    pair_integral,
    pairing_rank,
    pairing_vector,
    theta_solve,
)
from tautring.pixton import lambda_top
from tautring.product import pairing_matrix
from tautring.rationals import QQ
from tautring.taut_classes import TautClass, dim_moduli, generators

SPACES = [(0, 5), (1, 2), (1, 3), (2, 0), (2, 1)]


def _term(cls):
    [(term, coeff)] = cls.terms.items()
    assert coeff == 1
    return term


def _check_rows(rows, cols):
    """One pairing_matrix over a shared basis equals the oracle, pair by
    pair."""
    col_terms = [_term(b) for b in cols]
    matrix = pairing_matrix(rows, cols)
    assert len(matrix) == len(rows)
    for a, row in zip(rows, matrix):
        ta = _term(a)
        assert row == [product_integral(ta, tb) for tb in col_terms]


@pytest.mark.parametrize("g, n", SPACES)
def test_every_generator_pair_matches_the_oracle(g, n):
    top = dim_moduli(g, n)
    for d in range(top + 1):
        rows, cols = generators(g, n, d), generators(g, n, top - d)
        _check_rows(rows, cols)
        _check_rows(cols, rows)


def test_seeded_pairs_of_genus_3_and_4_match_the_oracle():
    rng = random.Random(20240607)
    samples = [((3, 1), 2, 12), ((3, 1), 3, 12), ((4, 0), 4, 4), ((4, 0), 3, 4)]
    for (g, n), d, k in samples:
        top = dim_moduli(g, n)
        rows = tuple(rng.sample(generators(g, n, d), k))
        cols = tuple(rng.sample(generators(g, n, top - d), 3 * k))
        _check_rows(rows, cols)
        _check_rows(cols, rows)
        for a, b in zip(rows, cols):
            assert pair_integral(a, b) == pair_integral(b, a)
            assert pair_integral(a, b) == product_integral(_term(a), _term(b))


def test_self_dual_degree_of_genus_3_matches_the_oracle():
    gens = generators(3, 0, 3)
    terms = [_term(b) for b in gens]
    matrix = [pairing_vector(a, gens) for a in gens]
    for i, j in itertools.product(range(len(gens)), repeat=2):
        assert matrix[i][j] == product_integral(terms[i], terms[j])


def test_multi_term_classes_and_coefficients():
    """Rows and columns with several terms and non-unit coefficients."""
    rows, cols = generators(2, 1, 2), generators(2, 1, 2)
    x = QQ(2, 3) * rows[1] - QQ(5, 7) * rows[4] + 3 * rows[9]
    basis = [cols[0], QQ(3, 2) * cols[2] + cols[5], cols[9] - QQ(1, 11) * cols[1]]
    expected = [
        sum(
            ca * cb * product_integral(ta, tb)
            for ta, ca in x.terms.items()
            for tb, cb in b.terms.items()
        )
        for b in basis
    ]
    assert pairing_vector(x, basis) == expected
    assert pairing_vector(x, iter(basis)) == expected
    # a basis of the same length but other classes is not served stale values
    other = [cols[3], cols[4], cols[6]]
    assert pairing_vector(x, other) == [pair_integral(x, b) for b in other]
    assert pairing_vector(x, basis) == expected


def test_mixed_bases_are_rejected():
    x = generators(2, 1, 2)[0]
    with pytest.raises(DomainError):
        pairing_vector(x, [generators(2, 1, 2)[0], generators(2, 1, 1)[0]])
    with pytest.raises(DomainError):
        pairing_vector(generators(2, 1, 1)[0], generators(2, 1, 2))
    assert pairing_vector(x, []) == []


def _check_matrix(rows, cols):
    """pairing_matrix equals the block kernel, row by row."""
    matrix = pairing_matrix(rows, cols)
    assert len(matrix) == len(rows)
    for x, row in zip(rows, matrix):
        assert row == pairing_oracle.pairing_row(x, cols)


@pytest.mark.parametrize("g, n, d", [(2, 2, 2), (1, 4, 1), (3, 0, 3)])
def test_membership_rows_match_the_block_kernel(g, n, d):
    """The multi-term divisor monomials and lambda_g, as div_membership
    pairs them, against the complementary generators; in degree 1 every
    monomial is a single generator."""
    rows = _degree_monomials(g, n, d, 1) + [lambda_top(g, n)]
    assert d == 1 or any(len(x.terms) > 1 for x in rows)
    _check_matrix(rows, generators(g, n, dim_moduli(g, n) - d))


def test_self_dual_generator_matrix_matches_the_block_kernel():
    gens = generators(3, 0, 3)
    _check_matrix(gens, gens)


@pytest.mark.parametrize("g, n, d", [(2, 2, 2), (1, 4, 1), (3, 0, 3)])
def test_ambient_rank_is_the_pairing_rank(g, n, d):
    assert div_membership(lambda_top(g, n)).ambient_rank == pairing_rank(g, n, d)


def test_a_zero_row_builds_no_contraction_index():
    """Rows without terms pair to zero without walking a degeneration."""
    stable_graphs._degeneration_index.cache_clear()
    cols = generators(3, 0, 3)
    assert pairing_matrix([TautClass(3, 0, 3)] * 2, cols) == [[0] * len(cols)] * 2
    assert stable_graphs._degeneration_index.cache_info().misses == 0


@pytest.mark.parametrize(
    "question, term_values, vertex_integrals",
    [
        (lambda: div_membership(lambda_top(2, 2)), 693, 172),
        (lambda: div_membership(lambda_top(1, 4)), 334, 7),
        (lambda: div_membership(lambda_top(3, 0)), 763, 215),
        (theta_solve, 14, 10),
    ],
    ids=["div-membership 2 2 2", "div-membership 1 4 1", "div-membership 3 0 3", "theta-genus2"],
)
def test_pairing_integrates_each_term_once(question, term_values, vertex_integrals):
    """From cleared memos, the library calls behind four pairing commands
    integrate each distinct pulled-back term once and each sorted vertex
    argument once: as many `_term_value` and `_vertex_integral` misses as
    when the term values were memoized per graph in its layout and each
    vertex went through the public `vertex_integral`."""
    _clear_every_memo(_cached_functions())
    question()
    assert product._term_value.cache_info().misses == term_values
    assert integration._vertex_integral.cache_info().misses == vertex_integrals
