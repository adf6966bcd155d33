"""Top-pairing analysis: ranks, span membership, and the genus-2 system."""

import pytest

from tautring.errors import DomainError
from tautring.integration import integrate, kappa_to_psi
from tautring.membership import (
    MembershipReport,
    div_membership,
    pair_integral,
    pairing_rank,
    pairing_vector,
    subalgebra_span,
    theta_solve,
)
from tautring.pixton import reference_lambda_expansion
from tautring.product import multiply
from tautring.rationals import QQ
from tautring.taut_classes import fundamental_class, generators, kappa_class, psi_class


def test_pair_integral_matches_direct_product():
    a = kappa_class(1, 2, 1)
    b = psi_class(1, 2, 1)
    assert pair_integral(a, b) == integrate(multiply(a, b))
    assert pair_integral(a, b) == pair_integral(b, a)
    with pytest.raises(DomainError):
        pair_integral(a, psi_class(1, 1, 1))  # different space
    with pytest.raises(DomainError):
        pair_integral(a, kappa_class(1, 2, 2))  # degrees do not pair
    with pytest.raises(DomainError):
        pair_integral(kappa_to_psi(a), b)  # virtual classes only integrate
    with pytest.raises(DomainError):
        pair_integral(b, kappa_to_psi(a))


def test_pairing_vector_default_basis():
    a = kappa_class(2, 0, 1)
    vec = pairing_vector(a)
    basis = generators(2, 0, 2)
    assert len(vec) == len(basis)
    assert vec == [pair_integral(a, b) for b in basis]


@pytest.mark.parametrize("d, rank", [(1, 2), (2, 2), (3, 1)])
def test_genus2_pairing_ranks(d, rank):
    assert pairing_rank(2, 0, d) == rank


def test_divisor_products_span_genus2_degree2():
    rep = subalgebra_span(2, 0, 2, 1)
    assert rep.rank == rep.ambient_rank == 2
    assert rep.monomial_count == 6


def test_degree_zero_is_the_empty_product():
    rep = subalgebra_span(2, 0, 0, 1)
    assert (rep.rank, rep.ambient_rank, rep.monomial_count) == (1, 1, 1)
    rep = div_membership(fundamental_class(2, 0))
    assert (rep.rank, rep.rank_with_class, rep.ambient_rank) == (1, 1, 1)
    assert rep.verdict == "member"


def test_lambda2_is_a_divisor_polynomial():
    rep = div_membership(reference_lambda_expansion(2, 0))
    assert rep.in_span and rep.certified
    assert rep.rank == rep.rank_with_class == 2
    assert rep.verdict == "member"


def test_kappa1_is_trivially_in_its_own_span():
    rep = div_membership(kappa_class(2, 0, 1))
    assert rep.in_span and rep.verdict == "member"


def test_high_genus_needs_the_extended_flag():
    with pytest.raises(DomainError):
        div_membership(kappa_class(4, 0, 1))


def test_report_verdicts():
    member = MembershipReport(2, 0, 2, True, True, 2, 2)
    assert member.verdict == "member"
    uncertified = MembershipReport(4, 0, 4, True, False, 5, 5)
    assert uncertified.verdict == "unresolved (pairing-consistent)"
    refuted = MembershipReport(4, 0, 4, False, False, 5, 6)
    assert refuted.verdict == "not a member"


def test_theta_system_solution_line():
    report = theta_solve()
    sols = report.solutions
    assert sols.dim == 1
    for t in (QQ(0), QQ(1), QQ(-3, 7)):
        x, y, z = sols.point([t])
        assert x == z - QQ(1, 120)
        assert y == QQ(-5, 24) * z + QQ(11, 2880)
    assert report.sign_constrained_feasible is False
