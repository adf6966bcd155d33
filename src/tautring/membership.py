"""Membership analysis in the tautological ring via the top pairing.

Classes of complementary degree pair to a rational number by multiplying
and integrating.  Taking pairing vectors against the full decorated-
stratum generating set turns span and membership questions into exact
linear algebra.  For genus up to 3 the pairing between complementary
degrees of these rings is perfect, so answers both ways are certified;
beyond that only refutations are certain and span ranks are lower
bounds, which callers must request explicitly.
"""

import itertools
from dataclasses import dataclass

from .errors import DomainError
from .exact_linalg import AffineSolutionSet, QMatrix, feasible, solve_affine
from .product import multiply, product_integral
from .rationals import QQ, ZERO
from .stable_graphs import StableGraph
from .taut_classes import (
    TautClass,
    _partitions,
    class_of_graph,
    dim_moduli,
    generators,
)
from .pixton import lambda_top

_PAIR_CACHE: dict = {}


def pair_integral(a: TautClass, b: TautClass):
    """Integral of a*b over the moduli space (degrees must be complementary).

    Each pair of decorated strata is integrated by the excess-intersection
    kernel without building the product class, and cached, so repeated
    pairings against a generating set stay cheap.
    """
    if a.virtual or b.virtual:
        raise DomainError("virtual psi classes only support integration")
    if (a.g, a.n) != (b.g, b.n):
        raise DomainError("classes live on different moduli spaces")
    if a.d + b.d != dim_moduli(a.g, a.n):
        raise DomainError("degrees do not pair to the top")
    total = ZERO
    for term_a, ca in a.terms.items():
        for term_b, cb in b.terms.items():
            key = term_a + term_b
            value = _PAIR_CACHE.get(key)
            if value is None:
                value = product_integral(term_a, term_b)
                _PAIR_CACHE[key] = value
                _PAIR_CACHE[term_b + term_a] = value
            total += ca * cb * value
    return total


def pairing_vector(x: TautClass, basis=None):
    """Pairing numbers of x against the complementary generating set."""
    if basis is None:
        basis = generators(x.g, x.n, dim_moduli(x.g, x.n) - x.d)
    return [pair_integral(x, b) for b in basis]


def pairing_rank(g: int, n: int, d: int) -> int:
    """Rank of the pairing between degrees d and top-d.

    Equals dim R^d whenever the pairing is perfect; in any case it is a
    lower bound.
    """
    rows = generators(g, n, d)
    cols = generators(g, n, dim_moduli(g, n) - d)
    matrix = [pairing_vector(r, cols) for r in rows]
    return QMatrix(matrix, n_cols=len(cols)).rank()


def _degree_monomials(g: int, n: int, d: int, k: int):
    """Products of generators of degree <= k filling total degree d."""
    if k < 1:
        raise DomainError("generator degree bound must be positive")
    out = []
    for partition in _partitions(d, k):
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


@dataclass
class SpanReport:
    g: int
    n: int
    degree: int
    generator_degree: int
    rank: int
    ambient_rank: int
    monomial_count: int


def subalgebra_span(g: int, n: int, d: int, k: int = 1) -> SpanReport:
    """Rank in degree d of the subring generated in degrees up to k.

    Ranks are computed in pairing coordinates against the full degree
    top-d generating set, alongside the ambient pairing rank of degree d
    itself.
    """
    cols = generators(g, n, dim_moduli(g, n) - d)
    monomials = _degree_monomials(g, n, d, k)
    vectors = [pairing_vector(cls, cols) for _, cls in monomials]
    rank = QMatrix(vectors, n_cols=len(cols)).rank()
    return SpanReport(
        g=g,
        n=n,
        degree=d,
        generator_degree=k,
        rank=rank,
        ambient_rank=pairing_rank(g, n, d),
        monomial_count=len(monomials),
    )


@dataclass
class MembershipReport:
    g: int
    n: int
    degree: int
    in_span: bool
    certified: bool
    rank: int
    rank_with_class: int

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
    mode must be requested with unverified_extended.
    """
    g, n, d = x.g, x.n, x.d
    certified = g <= 3
    if not certified and not unverified_extended:
        raise DomainError(
            "perfect pairing is only known here for g <= 3; "
            "pass unverified_extended=True for lower-bound analysis"
        )
    cols = generators(g, n, dim_moduli(g, n) - d)
    vectors = [
        pairing_vector(cls, cols)
        for _, cls in _degree_monomials(g, n, d, max_gen_degree)
    ]
    base = QMatrix(vectors, n_cols=len(cols))
    rank = base.rank()
    vx = pairing_vector(x, cols)
    rank_with = QMatrix(vectors + [vx], n_cols=len(cols)).rank()
    return MembershipReport(
        g=g,
        n=n,
        degree=d,
        in_span=rank_with == rank,
        certified=certified,
        rank=rank,
        rank_with_class=rank_with,
    )


# ---------------------------------------------------------------------------
# the genus-2 boundary expression of 2*lambda_2


def _genus2_graphs():
    L = StableGraph((1,), ((),), (((0, 0), (0, 1)),))
    B = StableGraph((0,), ((),), (((0, 0), (0, 1)), ((0, 2), (0, 3))))
    C = StableGraph((0, 1), ((), ()), (((0, 0), (0, 1)), ((0, 2), (1, 0))))
    return L, B, C


@dataclass
class ThetaReport:
    solutions: AffineSolutionSet
    sign_constrained_feasible: bool


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
    matrix = QMatrix(
        [pairing_vector(cls, cols) for cls in (d0_sq, b_cls, c_cls)],
        n_cols=len(cols),
    ).transpose()
    rhs = pairing_vector(target, cols)
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
