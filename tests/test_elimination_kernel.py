"""The fraction-free elimination kernel against the dense rational oracle.

The reduced row echelon form is unique and the kernel keeps the
Gauss-Jordan pivot-row rule, so every result must be identical to the
dense reduction's, transform and certificate included.  Every rank goes
through `pivot_columns`, which drops zero and repeated rows and
proportional columns first; its pivots must still be the dense ones.
"""

from math import lcm

from hypothesis import given, settings, strategies as st

from dense_rref import (
    dense_infeasibility_certificate,
    dense_nullspace,
    dense_rref,
    dense_solve_affine,
)
from tautring.exact_linalg import (
    QMatrix,
    infeasibility_certificate,
    pivot_columns,
    solve_affine,
)
from tautring.rationals import QQ

entries = st.one_of(
    st.just(QQ(0)),
    st.builds(QQ, st.integers(min_value=-3, max_value=3)),
    st.builds(
        QQ,
        st.integers(min_value=-(10**6), max_value=10**6),
        st.integers(min_value=1, max_value=10**6),
    ),
)


@st.composite
def general_rows(draw, n_rows, n_cols):
    """Arbitrary entries, with some rows and columns forced to zero."""
    rows = [[draw(entries) for _ in range(n_cols)] for _ in range(n_rows)]
    for i in draw(st.sets(st.integers(0, max(n_rows - 1, 0)), max_size=2)):
        if i < n_rows:
            rows[i] = [QQ(0)] * n_cols
    for j in draw(st.sets(st.integers(0, max(n_cols - 1, 0)), max_size=2)):
        for row in rows:
            if j < n_cols:
                row[j] = QQ(0)
    return rows


@st.composite
def dependent_rows(draw, n_rows, n_cols):
    """Small integer combinations of a few base rows: rank below the size."""
    base = [[draw(entries) for _ in range(n_cols)] for _ in range(draw(st.integers(1, 3)))]
    rows = []
    for _ in range(n_rows):
        coeffs = [draw(st.integers(-2, 2)) for _ in base]
        rows.append([sum((c * v[j] for c, v in zip(coeffs, base)), QQ(0)) for j in range(n_cols)])
    return rows


@st.composite
def incidence_rows(draw, n_rows, n_cols):
    """Rows with a +-1 in each of two distinct columns, as gluing relations."""
    if n_cols < 2:
        return [[QQ(0)] * n_cols for _ in range(n_rows)]
    rows = []
    for _ in range(n_rows):
        a, b = draw(st.lists(st.integers(0, n_cols - 1), min_size=2, max_size=2, unique=True))
        row = [QQ(0)] * n_cols
        row[a] = QQ(draw(st.sampled_from((1, -1))))
        row[b] = QQ(draw(st.sampled_from((1, -1))))
        rows.append(row)
    return rows


@st.composite
def matrices(draw, max_rows=6, max_cols=7):
    n_rows = draw(st.integers(0, max_rows))
    n_cols = draw(st.integers(0, max_cols))
    kind = draw(st.sampled_from((general_rows, dependent_rows, incidence_rows)))
    return QMatrix(draw(kind(n_rows, n_cols)), n_cols=n_cols)


def vectors(length):
    return st.lists(entries, min_size=length, max_size=length)


@given(matrices())
@settings(max_examples=300, deadline=None)
def test_rref_rank_nullspace_match_oracle(mat):
    reduced, pivots = mat.rref()
    assert (reduced, pivots) == dense_rref(mat)
    assert mat.rank() == len(pivots)
    assert mat.nullspace() == dense_nullspace(mat)


@given(matrices())
@settings(max_examples=300, deadline=None)
def test_recorded_transform_matches_oracle(mat):
    reduced, pivots, trans = mat.rref(record=True)
    _, oracle_pivots, oracle_trans = dense_rref(mat, record=True)
    assert pivots == oracle_pivots
    # trans * mat == reduced, column by column
    for j in range(mat.n_cols):
        column = [row[j] for row in mat.rows]
        assert trans.apply(column) == [row[j] for row in reduced.rows]
    assert trans.rows[: len(pivots)] == oracle_trans.rows[: len(pivots)]
    assert trans == oracle_trans


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_solve_affine_and_certificate_match_oracle(data):
    mat = data.draw(matrices())
    if data.draw(st.booleans()):
        b = mat.apply(data.draw(vectors(mat.n_cols)))
    else:
        b = data.draw(vectors(mat.n_rows))
    sol = solve_affine(mat, b)
    oracle = dense_solve_affine(mat, b)
    if oracle is None:
        assert sol is None
    else:
        assert (sol.particular, sol.basis) == oracle
    assert infeasibility_certificate(mat, b) == dense_infeasibility_certificate(mat, b)


def dense_rank(rows, n_cols):
    return len(dense_rref(QMatrix(rows, n_cols=n_cols))[1])


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_rank_with_matches_two_ranks(data):
    """The rank, and the rank with a row appended, in or out of the span,
    are the dense oracle's."""
    mat = data.draw(matrices())
    if data.draw(st.booleans()):
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=mat.n_rows, max_size=mat.n_rows))
        row = [sum((c * r[j] for c, r in zip(coeffs, mat.rows)), QQ(0)) for j in range(mat.n_cols)]
    else:
        row = data.draw(vectors(mat.n_cols))
    expected = (dense_rank(mat.rows, mat.n_cols), dense_rank(mat.rows + [row], mat.n_cols))
    assert (mat.rank(), QMatrix(mat.rows + [row], n_cols=mat.n_cols).rank()) == expected


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_pivot_columns_of_integer_rows_match_the_oracle(mat):
    """The kernel's loop started from integer rows, each row a multiple of
    the matrix row, not divided by its content."""
    rows = [[int(x * 6 * lcm(*(y.denominator for y in row))) for x in row] for row in mat.rows]
    copies = [row[:] for row in rows]
    assert pivot_columns(rows) == dense_rref(mat)[1]
    assert rows == copies


def test_empty_shapes():
    for rows, n_cols in (([], 0), ([], 3), ([[], []], 0)):
        mat = QMatrix(rows, n_cols=n_cols)
        assert mat.rref() == dense_rref(mat)
        assert mat.rref(record=True) == dense_rref(mat, record=True)
        assert mat.rank() == 0
        with_row = QMatrix(mat.rows + [[QQ(1)] * n_cols], n_cols=n_cols)
        assert (mat.rank(), with_row.rank()) == (0, int(n_cols > 0))
        assert mat.nullspace() == dense_nullspace(mat)
        assert pivot_columns([[0] * n_cols for _ in rows]) == []


@st.composite
def planted_columns(draw):
    """An integer matrix whose later columns include zero columns and
    multiples of earlier ones, by negative and by rational factors."""
    n_rows = draw(st.integers(0, 6))
    base = draw(st.integers(1, 5))
    columns = [
        [draw(st.integers(-4, 4)) for _ in range(n_rows)] for _ in range(base)
    ]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("zero", "multiple", "rational")))
        k = draw(st.integers(0, len(columns) - 1))
        if kind == "zero":
            columns.append([0] * n_rows)
        elif kind == "multiple":
            a = draw(st.sampled_from((-3, -1, 2)))
            columns.append([a * v for v in columns[k]])
        else:
            # columns k and k' = (a/b) * column k, both integer
            a, b = draw(st.sampled_from(((2, 3), (-1, 2), (5, -4))))
            columns[k] = [b * v for v in columns[k]]
            columns.append([a * v // b for v in columns[k]])
    columns = draw(st.permutations(columns))
    rows = [list(row) for row in zip(*columns)]
    # a zero row, repeats, and a negated and a scaled repeat
    rows += [[0] * len(columns)] + rows[:2] + [[-3 * v for v in row] for row in rows[:1]]
    return draw(st.permutations(rows)), len(columns)


@settings(max_examples=200, deadline=None)
@given(planted_columns(), st.lists(st.integers(-2, 2), max_size=6))
def test_planted_pivots_and_ranks_match_the_oracle(planted, combo):
    """Dropping rows and columns before elimination leaves the pivots of
    the full matrix, and the ranks with and without a row appended are
    the dense ranks."""
    rows, n_cols = planted
    mat = QMatrix(rows, n_cols=n_cols)
    assert pivot_columns(rows) == dense_rref(mat)[1]
    assert mat.rank() == dense_rank(rows, n_cols)
    mixed = [sum(c * row[j] for c, row in zip(combo, rows)) for j in range(n_cols)]
    outside = [v + (j == 0) for j, v in enumerate(mixed)]
    for row in (mixed, outside):
        expected = (dense_rank(rows, n_cols), dense_rank(rows + [row], n_cols))
        assert (mat.rank(), QMatrix(rows + [row], n_cols=n_cols).rank()) == expected


@settings(max_examples=100, deadline=None)
@given(planted_columns(), st.lists(st.integers(-2, 2), max_size=6))
def test_pivot_columns_keep_the_rank_of_every_row_set(planted, combo):
    rows, n_cols = planted
    pivots = pivot_columns(rows)
    assert len(pivots) == dense_rank(rows, n_cols)
    # restriction to the pivots is injective on the row space: every
    # subset of rows, and a combination of them, keeps its rank
    for stop in range(len(rows) + 1):
        subset = rows[:stop]
        on_pivots = [[row[c] for c in pivots] for row in subset]
        assert dense_rank(on_pivots, len(pivots)) == dense_rank(subset, n_cols)
    mixed = [sum(c * row[j] for c, row in zip(combo, rows)) for j in range(n_cols)]
    on_pivots = [[row[c] for c in pivots] for row in rows]
    assert dense_rank(on_pivots + [[mixed[c] for c in pivots]], len(pivots)) == dense_rank(
        rows + [mixed], n_cols
    )
