"""Reference block pairing kernel and membership ranks (tests only).

This is the top pairing that `product.pairing_matrix` replaced: it walks
the common degenerations of one (row term, column graph) block at a
time, pulls every column orbit back again for each row term with the
same row graph, keeps the last basis in one slot with the blocks of
every row term paired against it, and in the self-dual degree reuses the
values of (b, a) for (a, b).  Each row is checked against it.  `_excess`,
`_products` and `_pull` are the helpers it was written against, kept
here as they were.  Its degeneration records come from the scan of
`product_oracle`, not from the library walk it checks.

`pairing_rank`, `subalgebra_span` and `div_membership` are the
membership ranks as `tautring.membership` computed them before they
moved onto the integer term pairing: the full `pairing_matrix` of every
class, ranked by `QMatrix.rank` and `QMatrix.rank_with` over all its
columns.
"""

import itertools
from math import gcd, lcm
from operator import add, le, sub

from product_oracle import oracle_degeneration_base_pairs
from tautring.exact_linalg import QMatrix
from tautring.membership import MembershipReport, SpanReport, _degree_monomials
from tautring.product import (
    _aut_orbit_sum,
    _check_product,
    _ends,
    _layout,
    _term_value,
    pairing_matrix,
)
from tautring.rationals import QQ
from tautring.taut_classes import (
    PSI_HE,
    PSI_LEG,
    TautClass,
    dim_moduli,
    generators,
    vertex_degrees,
)


def _pull(layout, vmap, he_inv, orbit):
    """Pull (decoration, multiplicity) pairs back along a contraction.

    `vmap` and `he_inv` are those of a degeneration record: where each
    vertex of the degeneration lands, and which of its half-edges sits
    over each half-edge of the term's graph.
    Returns {degrees: {(psi, kappa): multiplicity}}, kappa None or
    per-vertex sorted tuples.  A kappa class pulls back to the sum over
    the preimages; a choice is dropped if a vertex exceeds its dimension.
    """
    slot, owner, dims, _ = layout
    preimages: dict = {}
    for v, w in enumerate(vmap):
        preimages.setdefault(w, []).append(v)
    out: dict = {}
    for dec, mult in orbit:
        psi = [0] * len(owner)
        degrees = [0] * len(dims)
        for key, e in dec.psi:
            i = slot[key if key[0] == PSI_LEG else (PSI_HE, *he_inv[key[1:]])]
            psi[i] += e
            degrees[owner[i]] += e
        psi = tuple(psi)
        factors = [(a, preimages[w]) for w, ks in enumerate(dec.kappa) for a in ks]
        for choice in itertools.product(*(vertices for _, vertices in factors)):
            kappa = [[] for _ in dims] if factors else None
            at = degrees[:]
            for (a, _), v in zip(factors, choice):
                at[v] += a
                kappa[v].append(a)
            if all(map(le, at, dims)):
                key = (psi, kappa and tuple(map(tuple, map(sorted, kappa))))
                monos = out.setdefault(tuple(at), {})
                monos[key] = monos.get(key, 0) + mult
    return out


def _excess(ends, budget):
    """(budget left, positions) of each way to place one psi per shared edge,
    edge by edge where the vertex budget has room; ends holds each edge's
    (position, vertex) ends.  These are the terms of prod (-psi_h - psi_h')
    up to sign."""
    out, picked = [], []

    def walk(i):
        if i == len(ends):
            out.append((tuple(budget), tuple(picked)))
            return
        for pos, v in ends[i]:
            if budget[v] > 0:
                budget[v] -= 1
                picked.append(pos)
                walk(i + 1)
                picked.pop()
                budget[v] += 1

    walk(0)
    return out


def _products(dims, ends, pulled_a, pulled_b, fits):
    """(psi, kappa, count) of the terms of pulled_a * pulled_b * excess.

    No term exceeds a vertex dimension; fits memoizes the excess
    placements by vertex budget for one degeneration record.
    """
    sign = -1 if len(ends) % 2 else 1
    for deg_a, monos_a in pulled_a.items():
        for deg_b, monos_b in pulled_b.items():
            budget = tuple(map(sub, dims, map(add, deg_a, deg_b)))
            picks = fits.get(budget)
            if picks is None:
                fits[budget] = picks = min(budget) >= 0 and _excess(ends, list(budget))
            for (psi_a, kappa_a), ka in monos_a.items() if picks else ():
                ka *= sign
                for (psi_b, kappa_b), kb in monos_b.items():
                    psi_ab = list(map(add, psi_a, psi_b))
                    if kappa_a is None or kappa_b is None:
                        kappa = kappa_b if kappa_a is None else kappa_a
                    else:
                        pairs = zip(kappa_a, kappa_b)
                        kappa = tuple(tuple(sorted(x + y)) for x, y in pairs)
                    for _, pick in picks:
                        psi = psi_ab[:]
                        for i in pick:
                            psi[i] += 1
                        yield tuple(psi), kappa, ka * kb


def _block(orbit_a, graph_a, graph_b, orbits, known):
    """(denominator, numerators) of a row orbit on graph_a paired with the
    orbits of decorations on graph_b, (decoration, multiplicity, vertex
    degrees) each, except where the value is known.

    A record pulls the row orbit back once, and a column transport only if
    its degree at each vertex of graph_b is what a row monomial and an
    excess placement leave.  Sums are integers over a running lcm.
    """
    total, acc = 1, [0] * len(orbits)
    for graph, va, ia, vb, ib, shared in oracle_degeneration_base_pairs(graph_a, graph_b):
        _, owner, dims, values = layout = _layout(graph)
        pulled_a = _pull(layout, va, ia, orbit_a)
        ends = _ends(layout, graph, shared)
        fibers = [[] for _ in graph_b.genera]
        for v, w in enumerate(vb):
            fibers[w].append(v)
        wanted = {
            tuple(sum(left[v] for v in fiber) for fiber in fibers)
            for degrees in pulled_a
            for left, _ in _excess(ends, list(map(sub, dims, degrees)))
        }
        fits: dict = {}
        for c, orbit in enumerate(orbits):
            if known[c] is not None:
                continue
            orbit = [(t, m) for t, m, deg in orbit if deg in wanted]
            if not orbit:
                continue
            pulled_b = _pull(layout, vb, ib, orbit)
            for psi, kappa, count in _products(dims, ends, pulled_a, pulled_b, fits):
                value = values.get((psi, kappa))
                if value is None:
                    value = values[psi, kappa] = _term_value(graph, owner, psi, kappa)
                num, den = value
                if num and total % den:
                    scale = den // gcd(total, den)
                    total *= scale
                    acc = [x * scale for x in acc]
                acc[c] += count * num * (total // den)
    return total, acc


class _Columns:
    """A basis grouped by stratum graph, with the blocks of the row terms.

    groups holds (graph, decorations, graded orbits, uses) per column
    graph, uses[c] the (column, coefficient * scale) of decoration c.  In
    the self-dual degree a row term that is also a column term, at
    where[term], reuses the values its column terms paired with it as rows.
    """

    def __init__(self, basis, x):
        self.basis = basis
        terms: dict = {}
        for j, cls in enumerate(self.basis):
            _check_product(x, cls, top=True)
            for term, coeff in cls.terms.items():
                terms.setdefault(term, []).append((j, coeff))
        self.scale = lcm(*(c.denominator for use in terms.values() for _, c in use))
        self.symmetric = 2 * x.d == dim_moduli(x.g, x.n)
        self.groups, self.where, self.rows, index = [], {}, {}, {}
        for (graph, dec), use in terms.items():
            if graph not in index:
                index[graph] = len(self.groups)
                self.groups.append((graph, [], [], []))
            _, decs, orbits, uses = self.groups[index[graph]]
            self.where[(graph, dec)] = (index[graph], len(decs))
            decs.append(dec)
            orbit = _aut_orbit_sum(graph, dec).items()
            orbits.append([(t, m, tuple(vertex_degrees(graph, t))) for t, m in orbit])
            uses.append([(j, int(c * self.scale)) for j, c in use])

    def blocks(self, term):
        """Per group, None or (denominator, numerators) of term's integrals."""
        orbit_a = _aut_orbit_sum(*term).items()
        home = self.where.get(term) if self.symmetric else None
        out = []
        for graph_b, decs, orbits, _ in self.groups:
            known = [None] * len(decs)
            for c, dec in enumerate(decs if home else ()):
                other = self.rows.get((graph_b, dec))
                if other is not None:
                    block = other[home[0]]
                    known[c] = (block[1][home[1]], block[0]) if block else (0, 1)
            if None in known:
                total, acc = _block(orbit_a, term[0], graph_b, orbits, known)
                known = [k or (num, total) for k, num in zip(known, acc)]
            total = lcm(*(den for num, den in known if num))
            nums = [num * (total // den) for num, den in known]
            out.append((total, nums) if any(nums) else None)
        return out


# One slot of state, not a memo: the last basis and its row blocks.
_LAST_COLUMNS: list = [None]


def pairing_row(x: TautClass, basis) -> list:
    """Integrals of x times each class of basis (complementary degrees).

    The last basis stays grouped with the blocks of every row term seen
    against it, so a matrix built row by row computes each (row term,
    column graph) block once.  Each row is summed in integers over one
    denominator.
    """
    basis = tuple(basis)
    if not basis:
        return []
    cols = _LAST_COLUMNS[0]
    if cols is None or cols.basis != basis:
        cols = _LAST_COLUMNS[0] = _Columns(basis, x)
    _check_product(x, basis[0], top=True)
    total, out = 1, [0] * len(basis)
    for term, coeff in x.terms.items():
        blocks = cols.rows.get(term)
        if blocks is None:
            blocks = cols.rows[term] = cols.blocks(term)
        for block, group in zip(blocks, cols.groups):
            if block is None:
                continue
            den = coeff.denominator * block[0]
            if total % den:
                scale = den // gcd(total, den)
                total *= scale
                out = [v * scale for v in out]
            factor = coeff.numerator * (total // den)
            for num, use in zip(block[1], group[3]):
                if num:
                    num *= factor
                    for j, c in use:
                        out[j] += num if c == 1 else num * c
    total *= cols.scale
    return [QQ(v, total) for v in out]


# ---------------------------------------------------------------------------
# membership ranks on the full pairing matrix


def pairing_rank(g, n, d):
    cols = generators(g, n, dim_moduli(g, n) - d)
    return QMatrix(pairing_matrix(generators(g, n, d), cols), n_cols=len(cols)).rank()


def subalgebra_span(g, n, d, k=1):
    cols = generators(g, n, dim_moduli(g, n) - d)
    monomials = _degree_monomials(g, n, d, k)
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


def div_membership(x, max_gen_degree=1):
    """The report of `tautring.membership.div_membership`, any genus."""
    g, n, d = x.g, x.n, x.d
    cols = generators(g, n, dim_moduli(g, n) - d)
    monomials = _degree_monomials(g, n, d, max_gen_degree)
    matrix = pairing_matrix([*monomials, x, *generators(g, n, d)], cols)
    m = len(monomials)
    rank, rank_with = QMatrix(matrix[:m], n_cols=len(cols)).rank_with(matrix[m])
    return MembershipReport(
        g=g,
        n=n,
        degree=d,
        in_span=rank_with == rank,
        certified=g <= 3,
        rank=rank,
        rank_with_class=rank_with,
        ambient_rank=QMatrix(matrix[m + 1:], n_cols=len(cols)).rank(),
    )
