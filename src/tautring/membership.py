"""Membership analysis in the tautological ring via the top pairing.

Classes of complementary degree pair to a rational number, the integral
of their product, computed without building the product by
`product.pairing_matrix`, which pairs all rows of a question with the
full decorated-stratum generating set in one walk over the common
degenerations.  That turns span and membership questions into exact
linear algebra.  For genus up to 3 the pairing between
complementary degrees of these rings is perfect, so answers both ways are
certified; beyond that only refutations are certain and span ranks are
lower bounds, which callers must request explicitly.
"""

import itertools
from collections import namedtuple

from .combinatorics import partitions
from .errors import DomainError
from .exact_linalg import QMatrix, feasible, solve_affine
from .product import multiply, pairing_matrix
from .rationals import QQ
from .stable_graphs import StableGraph
from .taut_classes import (
    TautClass,
    class_of_graph,
    dim_moduli,
    generators,
)
from .pixton import lambda_top


def pair_integral(a: TautClass, b: TautClass):
    """Integral of a*b over the moduli space (degrees must be complementary)."""
    return pairing_matrix((a,), (b,))[0][0]


def pairing_vector(x: TautClass, basis=None):
    """Pairing numbers of x against basis, by default the complementary
    generating set."""
    if basis is None:
        basis = generators(x.g, x.n, dim_moduli(x.g, x.n) - x.d)
    return pairing_matrix((x,), basis)[0]


def pairing_rank(g: int, n: int, d: int) -> int:
    """Rank of the pairing between degrees d and top-d.

    Equals dim R^d whenever the pairing is perfect; in any case it is a
    lower bound.
    """
    cols = generators(g, n, dim_moduli(g, n) - d)
    return QMatrix(pairing_matrix(generators(g, n, d), cols), n_cols=len(cols)).rank()


def _degree_monomials(g: int, n: int, d: int, k: int):
    """Products of generators of degree <= k filling total degree d."""
    if k < 1:
        raise DomainError("generator degree bound must be positive")
    out = []
    for partition in partitions(d, k):
        choices = []
        for part in sorted(set(partition)):
            gens = generators(g, n, part)
            mult = partition.count(part)
            choices.append(
                [
                    (part, combo)
                    for combo in itertools.combinations_with_replacement(
                        range(len(gens)), mult
                    )
                ]
            )
        for picks in itertools.product(*choices):
            label = tuple(picks)
            cls = None
            for part, combo in picks:
                gens = generators(g, n, part)
                for i in combo:
                    cls = gens[i] if cls is None else multiply(cls, gens[i])
            out.append((label, cls))
    return out


class SpanReport(
    namedtuple(
        "SpanReport", "g n degree generator_degree rank ambient_rank monomial_count"
    )
):
    __slots__ = ()


def subalgebra_span(g: int, n: int, d: int, k: int = 1) -> SpanReport:
    """Rank in degree d of the subring generated in degrees up to k.

    Ranks are computed in pairing coordinates against the full degree
    top-d generating set, alongside the ambient pairing rank of degree d
    itself; the monomials and the generators are paired in one matrix.
    """
    cols = generators(g, n, dim_moduli(g, n) - d)
    monomials = [cls for _, cls in _degree_monomials(g, n, d, k)]
    matrix = pairing_matrix(monomials + list(generators(g, n, d)), cols)
    m = len(monomials)
    return SpanReport(
        g=g,
        n=n,
        degree=d,
        generator_degree=k,
        rank=QMatrix(matrix[:m], n_cols=len(cols)).rank(),
        ambient_rank=QMatrix(matrix[m:], n_cols=len(cols)).rank(),
        monomial_count=m,
    )


class MembershipReport(
    namedtuple(
        "MembershipReport",
        "g n degree in_span certified rank rank_with_class ambient_rank",
        defaults=(None,),
    )
):
    __slots__ = ()

    @property
    def verdict(self) -> str:
        if self.in_span:
            return "member" if self.certified else "unresolved (pairing-consistent)"
        return "not a member"


def div_membership(
    x: TautClass, max_gen_degree: int = 1, unverified_extended: bool = False
) -> MembershipReport:
    """Does x lie in the subring generated in low degrees?

    By default the subring is the one generated by divisor classes.
    Decided in pairing coordinates.  For g <= 3 the top pairing of these
    rings is perfect and both answers are certified.  For larger genus a
    negative answer is still a proof, but a positive one only says the
    pairing cannot tell the class apart from the subring; that weaker
    mode must be requested with unverified_extended.  The report also
    carries the ambient pairing rank of degree d: the monomials, x and the
    degree-d generators are paired in one matrix.
    """
    g, n, d = x.g, x.n, x.d
    certified = g <= 3
    if not certified and not unverified_extended:
        raise DomainError(
            "perfect pairing is only known here for g <= 3; "
            "pass unverified_extended=True for lower-bound analysis"
        )
    cols = generators(g, n, dim_moduli(g, n) - d)
    monomials = [cls for _, cls in _degree_monomials(g, n, d, max_gen_degree)]
    matrix = pairing_matrix([*monomials, x, *generators(g, n, d)], cols)
    m = len(monomials)
    rank, rank_with = QMatrix(matrix[:m], n_cols=len(cols)).rank_with(matrix[m])
    return MembershipReport(
        g=g,
        n=n,
        degree=d,
        in_span=rank_with == rank,
        certified=certified,
        rank=rank,
        rank_with_class=rank_with,
        ambient_rank=QMatrix(matrix[m + 1:], n_cols=len(cols)).rank(),
    )


# ---------------------------------------------------------------------------
# the genus-2 boundary expression of 2*lambda_2


def _genus2_graphs():
    L = StableGraph((1,), ((),), (((0, 0), (0, 1)),))
    B = StableGraph((0,), ((),), (((0, 0), (0, 1)), ((0, 2), (0, 3))))
    C = StableGraph((0, 1), ((), ()), (((0, 0), (0, 1)), ((0, 2), (1, 0))))
    return L, B, C


class ThetaReport(namedtuple("ThetaReport", "solutions sign_constrained_feasible")):
    """solutions is an `exact_linalg.AffineSolutionSet`."""

    __slots__ = ()


def theta_solve() -> ThetaReport:
    """Solve 2*lambda_2 = x*D0^2 + y*B + z*C on the genus-2 space.

    D0 is half the pushforward of the irreducible boundary graph, B and C
    are plain pushforwards of the two-loop and loop-plus-edge graphs.  The
    system is solved in pairing coordinates against the degree-1
    generating set; the report also answers whether any solution has
    x >= 0 and z <= 0 (it does not).
    """
    L, B_graph, C_graph = _genus2_graphs()
    d0 = class_of_graph(L, coeff=QQ(1, 2))
    d0_sq = multiply(d0, d0)
    b_cls = class_of_graph(B_graph)
    c_cls = class_of_graph(C_graph)
    target = 2 * lambda_top(2, 0)

    cols = generators(2, 0, 1)
    *vectors, rhs = pairing_matrix((d0_sq, b_cls, c_cls, target), cols)
    matrix = QMatrix(vectors, n_cols=len(cols)).transpose()
    solutions = solve_affine(matrix, rhs)
    if solutions is None:
        raise DomainError("the genus-2 system is inconsistent")

    # Feasibility of x >= 0 and z <= 0 over the solution set, expressed in
    # the free parameters: coeffs . t  rel  -particular.
    constraints = [
        ([vec[index] for vec in solutions.basis], rel, -solutions.particular[index])
        for index, rel in ((0, ">="), (2, "<="))
    ]
    ok = feasible(constraints, len(solutions.basis))
    return ThetaReport(solutions=solutions, sign_constrained_feasible=ok)
