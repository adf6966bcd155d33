"""Exact linear algebra over the rationals.

Everything here works with exact rational arithmetic (no floats, no
tolerances): reduced row echelon form, rank, span membership, affine
solution sets for linear systems, feasibility of linear inequality
systems, and Lagrange interpolation.

Every result goes through one elimination loop, `_reduce`: forward
elimination on sparse ``{column: int}`` rows, fraction-free, with
``r <- a*r - b*p`` for coprime ``a, b`` followed by division of the row
by its content.  The pivot of each column is the first remaining row, in
swapped order, that is nonzero there (the Gauss-Jordan rule).
`_echelon` clears the denominators of each matrix row, runs `_reduce`
and back-substitutes; it serves rref, nullspace, the affine solves and
the infeasibility certificate.  `pivot_columns` serves every rank: it
keeps the distinct primitive rows and one column of each class of
proportional columns, then runs `_reduce` on what is left.  A rational
appears again only when a result is written out, as an entry divided by
its row's pivot.  The reduced row echelon form is unique, so every
result equals the one of a dense rational Gauss-Jordan reduction.
"""

from math import gcd, lcm, prod

from .errors import DomainError
from .rationals import QQ, ONE, ZERO, rat


def _integer_row(row, extra=None):
    """A sparse ``{column: int}`` row, a positive multiple of row.

    extra is an optional ``(column, value)`` entry appended to the row
    before clearing denominators (the identity column of a transform).
    """
    items = [(c, x) for c, x in enumerate(row) if x]
    if extra is not None:
        items.append(extra)
    if not items:
        return {}
    scale = lcm(*(int(x.denominator) for _, x in items))
    out = {c: int(x.numerator) * (scale // int(x.denominator)) for c, x in items}
    return _divide_content(out)


def _divide_content(row):
    g = gcd(*row.values())
    if g > 1:
        for c in row:
            row[c] //= g
    return row


def _eliminate(row, pivot_row, column):
    """Clear row[column] with pivot_row, fraction-free and in place."""
    p, x = pivot_row[column], row[column]
    g = gcd(p, x)
    a, b = p // g, x // g
    if a != 1:
        for c in row:
            row[c] *= a
    for c, v in pivot_row.items():
        w = row.get(c, 0) - b * v
        if w:
            row[c] = w
        else:
            del row[c]
    _divide_content(row)


def _echelon(matrix, record=False):
    """``(rows, pivots, origin)`` for a QMatrix: `_reduce`, then back
    substitution.

    rows are sparse integer rows, each a multiple of the matching row of
    the reduced row echelon form; row i started as row origin[i] of the
    matrix.  With record, column ``n_cols + j`` of every row holds the
    multiple of matrix row j that went into it; pivots are chosen among
    the matrix's own columns only.
    """
    if record:
        rows = [
            _integer_row(row, (matrix.n_cols + i, ONE)) for i, row in enumerate(matrix.rows)
        ]
    else:
        rows = [_integer_row(row) for row in matrix.rows]
    rows, pivots, origin = _reduce(rows, matrix.n_cols)
    for k in range(len(pivots) - 1, 0, -1):
        c = pivots[k]
        for i in range(k):
            if c in rows[i]:
                _eliminate(rows[i], rows[k], c)
    return rows, pivots, origin


def _reduce(rows, n_cols):
    """Forward elimination of sparse integer rows, in place: a row echelon
    form with the Gauss-Jordan pivot rows, pivots chosen among columns
    below n_cols."""
    n = len(rows)
    origin = list(range(n))
    pivots = []
    r = 0
    for c in range(n_cols):
        if r == n:
            break
        pivot = next((i for i in range(r, n) if c in rows[i]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        origin[r], origin[pivot] = origin[pivot], origin[r]
        for i in range(r + 1, n):
            if c in rows[i]:
                _eliminate(rows[i], rows[r], c)
        pivots.append(c)
        r += 1
    return rows, pivots, origin


def _kernel_basis(rows, pivots, n_cols):
    """Nullspace basis read off reduced rows, one vector per free column."""
    pivot_set = set(pivots)
    basis = {}
    for f in range(n_cols):
        if f not in pivot_set:
            vec = [ZERO] * n_cols
            vec[f] = ONE
            basis[f] = vec
    for row, p in zip(rows, pivots):
        lead = row[p]
        for c, v in row.items():
            if c in basis:
                basis[c][p] = QQ(-v, lead)
    return list(basis.values())


class QMatrix:
    """Dense matrix with exact rational entries.

    Rows are stored as lists of rationals.  Instances are mutable; the
    reduction routines return new matrices and leave the original alone.
    """

    __slots__ = ("rows", "n_rows", "n_cols")

    def __init__(self, rows, n_cols=None):
        data = [[rat(x) for x in row] for row in rows]
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise DomainError("rows of a matrix must all have the same length")
            if n_cols is not None and n_cols != width:
                raise DomainError("n_cols does not match the given rows")
            n_cols = width
        elif n_cols is None:
            n_cols = 0
        self.rows = data
        self.n_rows = len(data)
        self.n_cols = n_cols

    @classmethod
    def zeros(cls, m, n):
        return cls([[ZERO] * n for _ in range(m)], n_cols=n)

    @classmethod
    def identity(cls, n):
        mat = cls.zeros(n, n)
        for i in range(n):
            mat.rows[i][i] = ONE
        return mat

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    def transpose(self):
        return QMatrix(
            [[self.rows[i][j] for i in range(self.n_rows)] for j in range(self.n_cols)],
            n_cols=self.n_rows,
        )

    def augment(self, other):
        """Horizontal concatenation with a matrix or a column vector."""
        if isinstance(other, QMatrix):
            if other.n_rows != self.n_rows:
                raise DomainError("row counts differ")
            cols = [list(a) + list(b) for a, b in zip(self.rows, other.rows)]
            return QMatrix(cols, n_cols=self.n_cols + other.n_cols)
        if len(other) != self.n_rows:
            raise DomainError("vector length does not match row count")
        cols = [list(row) + [x] for row, x in zip(self.rows, other)]
        return QMatrix(cols, n_cols=self.n_cols + 1)

    def apply(self, vector):
        """Matrix-vector product."""
        if len(vector) != self.n_cols:
            raise DomainError("vector length does not match column count")
        vec = [rat(x) for x in vector]
        return [sum((a * x for a, x in zip(row, vec)), ZERO) for row in self.rows]

    def __eq__(self, other):
        return (
            isinstance(other, QMatrix)
            and self.n_cols == other.n_cols
            and self.rows == other.rows
        )

    def __repr__(self):
        return "QMatrix(%r)" % (self.rows,)

    def rref(self, record=False):
        """Reduced row echelon form.

        Returns ``(reduced, pivots)``, or ``(reduced, pivots, transform)``
        when ``record`` is set, where ``transform`` is an invertible matrix
        with ``transform * self == reduced``.
        """
        rows, pivots, origin = _echelon(self, record)
        width = self.n_cols + self.n_rows if record else self.n_cols
        dense = []
        for i, row in enumerate(rows):
            # Pivot rows are scaled to a leading 1; a zero row of the
            # reduced matrix keeps coefficient 1 on its own original row
            # in the transform.
            if i < len(pivots):
                lead = row[pivots[i]]
            elif record:
                lead = row[self.n_cols + origin[i]]
            out = [ZERO] * width
            for c, v in row.items():
                out[c] = QQ(v, lead)
            dense.append(out)
        reduced = QMatrix([out[: self.n_cols] for out in dense], n_cols=self.n_cols)
        if record:
            trans = QMatrix([out[self.n_cols :] for out in dense], n_cols=self.n_rows)
            return reduced, pivots, trans
        return reduced, pivots

    def rank(self):
        rows = []
        for row in self.rows:
            scale = lcm(*(x.denominator for x in row))
            rows.append([x.numerator * (scale // x.denominator) for x in row])
        return len(pivot_columns(rows))

    def nullspace(self):
        """Basis of the right kernel, one vector per free column."""
        rows, pivots, _ = _echelon(self)
        return _kernel_basis(rows, pivots, self.n_cols)

    def solve(self, b):
        """One solution of ``self * x = b``, or None if inconsistent."""
        sol = solve_affine(self, b)
        return None if sol is None else sol.particular


class AffineSolutionSet:
    """Solution set of a consistent linear system: particular + span(basis)."""

    __slots__ = ("particular", "basis")

    def __init__(self, particular, basis):
        self.particular = [rat(x) for x in particular]
        self.basis = [[rat(x) for x in vec] for vec in basis]

    @property
    def dim(self):
        return len(self.basis)

    def point(self, params):
        """The solution at the given values of the free parameters."""
        if len(params) != len(self.basis):
            raise DomainError("expected %d parameters" % len(self.basis))
        out = self.particular[:]
        for t, vec in zip(params, self.basis):
            t = rat(t)
            out = [x + t * y for x, y in zip(out, vec)]
        return out

    def __repr__(self):
        return "AffineSolutionSet(dim=%d, particular=%r)" % (self.dim, self.particular)


def solve_affine(matrix, b):
    """Full solution set of ``matrix * x = b``, or None if inconsistent.

    One reduction of the augmented matrix gives both the particular
    solution and the kernel of matrix.
    """
    n = matrix.n_cols
    rows, pivots, _ = _echelon(matrix.augment(b))
    if n in pivots:
        return None
    particular = [ZERO] * n
    for row, p in zip(rows, pivots):
        if n in row:
            particular[p] = QQ(row[n], row[p])
    return AffineSolutionSet(particular, _kernel_basis(rows, pivots, n))


def infeasibility_certificate(matrix, b):
    """A row combination proving ``matrix * x = b`` has no solution.

    Returns y with y^T * matrix = 0 and y^T * b != 0, or None when the
    system is consistent.  y is the transform row of the reduced row
    with its pivot in the b column; that pivot is the last one, so back
    substitution leaves its row as forward elimination made it.
    """
    n = matrix.n_cols
    aug = matrix.augment(b)
    rows, pivots, _ = _echelon(aug, record=True)
    if n not in pivots:
        return None
    row = rows[pivots.index(n)]
    return [QQ(row.get(n + 1 + j, 0), row[n]) for j in range(matrix.n_rows)]


def _primitive(vector):
    """vector divided by its content, the first nonzero entry positive;
    None for a zero vector."""
    content = gcd(*vector)
    if not content:
        return None
    if next(v for v in vector if v) < 0:
        content = -content
    return tuple(v // content for v in vector)


def pivot_columns(rows):
    """Pivot columns of a row echelon form of integer rows, lists of one
    length; the rank of the rows is the length of the result.

    Only the distinct primitive nonzero rows and the first column of each
    class of proportional nonzero columns are eliminated, and the pivots
    are exactly those of the full matrix: a zero column, or a multiple of
    an earlier one, lies in the span of the columns before it, so it is
    never a pivot; dropping zero or repeated rows changes no column
    relation.
    """
    rows = list(dict.fromkeys(filter(None, map(_primitive, rows))))
    kept = {}
    for c, column in enumerate(zip(*rows)):
        key = _primitive(column)
        if key is not None:
            kept.setdefault(key, c)
    cols = list(kept.values())
    rows = [_divide_content({k: row[c] for k, c in enumerate(cols) if row[c]}) for row in rows]
    return [cols[k] for k in _reduce(rows, len(cols))[1]]


def rank_of_rows(vectors, n_cols=None):
    if not vectors and n_cols is None:
        return 0
    return QMatrix(vectors, n_cols=n_cols).rank()


def in_span(vectors, target):
    """Coefficients expressing target in the span of vectors, or None.

    The vectors and the target live in the same coordinate space; the
    returned list c satisfies sum(c[i] * vectors[i]) == target.
    """
    vectors = list(vectors)
    if not vectors:
        return [] if all(rat(x) == 0 for x in target) else None
    mat = QMatrix(vectors).transpose()
    sol = mat.solve(target)
    return sol


def feasible(constraints, n_vars):
    """Exact feasibility of a system of linear constraints.

    Each constraint is a triple ``(coeffs, rel, rhs)`` asserting
    ``coeffs . x  rel  rhs`` with rel one of "<=", "<", ">=", ">", "==".
    Decided by Fourier-Motzkin elimination, so intended for small systems.
    """
    # Normal form: (coeffs, rhs, strict) meaning coeffs.x <= rhs
    # (strict: coeffs.x < rhs).
    rows = []
    for coeffs, rel, rhs in constraints:
        coeffs = [rat(x) for x in coeffs]
        if len(coeffs) != n_vars:
            raise DomainError("constraint has %d coefficients, expected %d" % (len(coeffs), n_vars))
        rhs = rat(rhs)
        if rel == "<=":
            rows.append((coeffs, rhs, False))
        elif rel == "<":
            rows.append((coeffs, rhs, True))
        elif rel == ">=":
            rows.append(([-x for x in coeffs], -rhs, False))
        elif rel == ">":
            rows.append(([-x for x in coeffs], -rhs, True))
        elif rel == "==":
            rows.append((coeffs, rhs, False))
            rows.append(([-x for x in coeffs], -rhs, False))
        else:
            raise DomainError("unknown relation %r" % (rel,))

    for var in range(n_vars - 1, -1, -1):
        lower, upper, rest = [], [], []
        for coeffs, rhs, strict in rows:
            a = coeffs[var]
            if a > 0:
                upper.append((coeffs, rhs, strict))
            elif a < 0:
                lower.append((coeffs, rhs, strict))
            else:
                rest.append((coeffs[:var], rhs, strict))
        # Combine every lower bound with every upper bound.
        for lc, lr, ls in lower:
            for uc, ur, us in upper:
                a, b = -lc[var], uc[var]
                coeffs = [a * uc[j] + b * lc[j] for j in range(var)]
                rest.append((coeffs, a * ur + b * lr, ls or us))
        rows = rest

    for _, rhs, strict in rows:
        if rhs < 0 or (strict and rhs == 0):
            return False
    return True


class QPolynomial:
    """Univariate polynomial with rational coefficients.

    Coefficients are stored lowest degree first; trailing zeros are
    trimmed so equal polynomials compare equal.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [rat(x) for x in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, x):
        x = rat(x)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        return isinstance(other, QPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return QPolynomial(out)

    def __sub__(self, other):
        return self + QPolynomial([-c for c in other.coeffs])

    def scaled(self, factor):
        factor = rat(factor)
        return QPolynomial([factor * c for c in self.coeffs])

    def __repr__(self):
        return "QPolynomial(%r)" % (list(self.coeffs),)


def lagrange_interpolate(points):
    """The unique polynomial of degree < len(points) through the points.

    Takes exact rational (x, y) pairs with distinct x values.  The nodes
    are scaled to integers X_i = s * x_i, and the Lagrange form
    sum_i y_i prod_{j != i} (X - X_j) / (X_i - X_j) is summed in integers
    over one common denominator; the coefficient of x^k is then that of
    X^k times s^k.
    """
    xs = [rat(x) for x, _ in points]
    ys = [rat(y) for _, y in points]
    if len(set(xs)) != len(xs):
        raise DomainError("interpolation nodes must be distinct")
    scale = lcm(*(x.denominator for x in xs))
    nodes = [x.numerator * (scale // x.denominator) for x in xs]
    # prod_j (X - X_j), lowest degree first
    full = [1]
    for node in nodes:
        full = [a - node * b for a, b in zip([0] + full, full + [0])]
    terms = []
    for i, (node, y) in enumerate(zip(nodes, ys)):
        if y:
            weight = prod(node - other for j, other in enumerate(nodes) if j != i)
            terms.append((node, y.numerator, y.denominator * weight))
    denom = lcm(*(abs(d) for _, _, d in terms))
    numer = [0] * len(nodes)
    for node, y, d in terms:
        # (prod_j (X - X_j)) / (X - node) by synthetic division
        factor = y * (denom // d)
        carry = 0
        for k in range(len(nodes), 0, -1):
            carry = full[k] + node * carry
            numer[k - 1] += factor * carry
    return QPolynomial([QQ(c * scale**k, denom) for k, c in enumerate(numer)])
