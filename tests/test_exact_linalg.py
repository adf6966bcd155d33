"""Exact rational linear algebra: rref, spans, feasibility, interpolation."""

import pytest
from hypothesis import given, settings, strategies as st

from tautring.errors import DomainError
from tautring.exact_linalg import (
    QMatrix,
    QPolynomial,
    feasible,
    in_span,
    infeasibility_certificate,
    lagrange_interpolate,
    rank_of_rows,
    solve_affine,
)
from tautring.rationals import QQ

rationals = st.builds(
    QQ,
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=1, max_value=8),
)


def matrices(max_rows=4, max_cols=4):
    return st.integers(min_value=1, max_value=max_cols).flatmap(
        lambda cols: st.lists(
            st.lists(rationals, min_size=cols, max_size=cols),
            min_size=1,
            max_size=max_rows,
        )
    )


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_rref_properties(rows):
    mat = QMatrix(rows)
    reduced, pivots, trans = mat.rref(record=True)
    # the recorded transform really produces the reduced matrix
    product = QMatrix([trans.apply(col) for col in mat.transpose().rows]).transpose()
    assert product == reduced
    # pivot columns carry identity blocks
    for i, c in enumerate(pivots):
        assert reduced.rows[i][c] == 1
        assert all(reduced.rows[j][c] == 0 for j in range(mat.n_rows) if j != i)
    # reducing twice changes nothing
    again, again_pivots = reduced.rref()
    assert again == reduced and again_pivots == pivots
    assert mat.rank() == len(pivots) == mat.transpose().rank()


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_nullspace(rows):
    mat = QMatrix(rows)
    basis = mat.nullspace()
    assert len(basis) == mat.n_cols - mat.rank()
    zero = [QQ(0)] * mat.n_rows
    for vec in basis:
        assert mat.apply(vec) == zero
    assert rank_of_rows(basis, mat.n_cols) == len(basis)


@given(matrices(), st.lists(rationals, min_size=4, max_size=4))
@settings(max_examples=80, deadline=None)
def test_solve_round_trip(rows, x):
    mat = QMatrix(rows)
    b = mat.apply(x[: mat.n_cols])
    sol = mat.solve(b)
    assert sol is not None
    assert mat.apply(sol) == b


@given(matrices(), st.lists(rationals, min_size=4, max_size=4))
@settings(max_examples=80, deadline=None)
def test_solve_or_certificate(rows, b):
    mat = QMatrix(rows)
    b = b[: mat.n_rows]
    sol = mat.solve(b)
    cert = infeasibility_certificate(mat, b)
    if sol is not None:
        assert cert is None
        assert mat.apply(sol) == b
    else:
        assert cert is not None
        combo = [
            sum((cert[i] * mat.rows[i][j] for i in range(mat.n_rows)), QQ(0))
            for j in range(mat.n_cols)
        ]
        assert all(c == 0 for c in combo)
        assert sum((y * v for y, v in zip(cert, b)), QQ(0)) != 0


def test_solve_affine_parametrizes_all_solutions():
    mat = QMatrix([[1, 1, 0], [0, 0, 1]])
    sols = solve_affine(mat, [3, 5])
    assert sols is not None and sols.dim == 1
    for params in ([QQ(0)], [QQ(7, 3)], [QQ(-2)]):
        assert mat.apply(sols.point(params)) == [QQ(3), QQ(5)]
    assert solve_affine(QMatrix([[1], [1]]), [0, 1]) is None


def test_in_span():
    vecs = [[1, 0, 1], [0, 1, 1]]
    coeffs = in_span(vecs, [2, 3, 5])
    assert coeffs == [QQ(2), QQ(3)]
    assert in_span(vecs, [0, 0, 1]) is None
    assert in_span([], [0, 0]) == []
    assert in_span([], [1]) is None


@pytest.mark.parametrize(
    "constraints, n, expect",
    [
        ([([1], ">=", 0), ([1], "<=", -1)], 1, False),
        ([([1], ">=", 0), ([1], "<=", 1)], 1, True),
        ([([1], ">", 0), ([1], "<", 0)], 1, False),
        ([([1, 1], ">=", 1), ([1, 0], "<=", 0), ([0, 1], "<=", 0)], 2, False),
        ([([1, -1], "==", 0), ([1, 0], ">=", 3)], 2, True),
        ([([1], ">", 0)], 1, True),
        ([([0], ">", 0)], 1, False),
    ],
)
def test_feasible(constraints, n, expect):
    assert feasible(constraints, n) is expect


def test_feasible_rejects_bad_relation():
    with pytest.raises(DomainError):
        feasible([([1], "!=", 0)], 1)


def test_qpolynomial_basics():
    p = QPolynomial([1, 0, QQ(1, 2)])  # 1 + x^2/2
    q = QPolynomial([0, 1])
    assert p.degree == 2 and q.degree == 1
    assert p(4) == 9
    assert (p + q)(2) == p(2) + q(2)
    assert (p - p).coeffs == ()
    assert p.scaled(2).coeffs == (2, 0, 1)
    assert QPolynomial([1, 0, 0]) == QPolynomial([1])


@given(st.lists(rationals, min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_lagrange_round_trip(coeffs):
    poly = QPolynomial(coeffs)
    points = [(x, poly(x)) for x in range(len(coeffs))]
    assert lagrange_interpolate(points) == poly


@given(st.lists(st.tuples(rationals, rationals), max_size=7, unique_by=lambda p: p[0]))
@settings(max_examples=200, deadline=None)
def test_lagrange_passes_through_rational_nodes(points):
    poly = lagrange_interpolate(points)
    assert poly.degree < len(points)
    assert all(poly(x) == y for x, y in points)


def test_lagrange_rejects_repeated_nodes():
    with pytest.raises(DomainError):
        lagrange_interpolate([(1, 1), (1, 2)])
