"""Membership analysis in the tautological ring via the top pairing.

Classes of complementary degree pair to a rational number, the integral
of their product, computed without building the product by
`product.term_pairing`, which pairs every distinct term of a question
with the full decorated-stratum generating set in one walk over the
common degenerations.  That turns span and membership questions into
exact linear algebra.  For genus up to 3 the pairing between
complementary degrees of these rings is perfect, so answers both ways are
certified; beyond that only refutations are certain and span ranks are
lower bounds, which callers must request explicitly.

The ranks of `pairing_rank`, `subalgebra_span` and `div_membership` are
found on small integer matrices, never on a full-width rational one.
Let T be the integer matrix of the distinct row terms of all classes of
a question against the basis columns.  Every class row is a rational
combination of rows of T, so it lies in rowspace(T).

- Zero and repeated primitive rows of T, and zero columns and columns
  that are multiples of earlier ones, are dropped before elimination;
  `exact_linalg.pivot_columns` does this for every rank, and its pivot
  columns P are those of T itself.
- The restriction v -> v[P] is injective on rowspace(T): the rows of the
  reduced form restrict to the unit vectors on P, so v is their
  combination with the coefficients v[P].

So the rank of each block of classes (the monomials; the monomials and
x; the generators) is the rank of its rows restricted to P, which has as
many columns as the ambient rank: 14, 12 and 10 for (2,2,2), (1,4,1) and
(3,0,3), against 161, 551 and 40 basis columns.
"""

import itertools
from collections import namedtuple

from .combinatorics import partitions
from .errors import DomainError
from .exact_linalg import QMatrix, feasible, pivot_columns, solve_affine
from .product import multiply, pairing_matrix, summed_row, term_pairing
from .rationals import QQ
from .stable_graphs import StableGraph
from .taut_classes import (
    TautClass,
    class_of_graph,
    dim_moduli,
    fundamental_class,
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


def _ranks(g, n, d, classes, blocks):
    """The pairing rank of each block, a slice of classes of degree d,
    against the degree top-d generating set.

    One integer matrix T holds the pairing rows of the distinct terms of
    all classes; its pivot columns P are found once, and each block is
    ranked on its rows restricted to P (see the module docstring).
    """
    cols = generators(g, n, dim_moduli(g, n) - d)
    pairs = term_pairing(classes, cols)
    pivots = pivot_columns([nums for _, nums in pairs.values()])
    rows = [summed_row(x, pairs, pivots)[1] for x in classes]
    return [len(pivot_columns(rows[block])) for block in blocks]


def pairing_rank(g: int, n: int, d: int) -> int:
    """Rank of the pairing between degrees d and top-d.

    Equals dim R^d whenever the pairing is perfect; in any case it is a
    lower bound.
    """
    [rank] = _ranks(g, n, d, generators(g, n, d), [slice(None)])
    return rank


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
            cls = None
            for part, combo in picks:
                gens = generators(g, n, part)
                for i in combo:
                    cls = gens[i] if cls is None else multiply(cls, gens[i])
            out.append(fundamental_class(g, n) if cls is None else cls)
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
    itself; the monomials and the generators are paired in one walk.
    """
    monomials = _degree_monomials(g, n, d, k)
    m = len(monomials)
    rank, ambient = _ranks(
        g, n, d, monomials + list(generators(g, n, d)), [slice(m), slice(m, None)]
    )
    return SpanReport(
        g=g,
        n=n,
        degree=d,
        generator_degree=k,
        rank=rank,
        ambient_rank=ambient,
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
    degree-d generators are paired in one walk.
    """
    g, n, d = x.g, x.n, x.d
    certified = g <= 3
    if not certified and not unverified_extended:
        raise DomainError(
            "perfect pairing is only known here for g <= 3; "
            "pass unverified_extended=True for lower-bound analysis"
        )
    monomials = _degree_monomials(g, n, d, max_gen_degree)
    m = len(monomials)
    rank, rank_with, ambient = _ranks(
        g,
        n,
        d,
        [*monomials, x, *generators(g, n, d)],
        [slice(m), slice(m + 1), slice(m + 1, None)],
    )
    return MembershipReport(
        g=g,
        n=n,
        degree=d,
        in_span=rank_with == rank,
        certified=certified,
        rank=rank,
        rank_with_class=rank_with,
        ambient_rank=ambient,
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
