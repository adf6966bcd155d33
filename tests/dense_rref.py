"""Reference dense Gauss-Jordan elimination over the rationals (tests only).

This is the plain rational reduction that the library's fraction-free
kernel replaces: every row operation runs over whole rows of rationals.
It is slow but obviously right, so the kernel is checked against it.
"""

from tautring.exact_linalg import QMatrix
from tautring.rationals import ONE, ZERO


def dense_rref(matrix, record=False):
    """``(reduced, pivots)`` or ``(reduced, pivots, transform)`` of a QMatrix."""
    n_rows, n_cols = matrix.shape
    work = [row[:] for row in matrix.rows]
    trans = QMatrix.identity(n_rows).rows if record else None
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        if record:
            trans[r], trans[pivot] = trans[pivot], trans[r]
        inv = ONE / work[r][c]
        work[r] = [x * inv for x in work[r]]
        if record:
            trans[r] = [x * inv for x in trans[r]]
        for i in range(n_rows):
            if i != r and work[i][c] != 0:
                factor = work[i][c]
                work[i] = [x - factor * y for x, y in zip(work[i], work[r])]
                if record:
                    trans[i] = [x - factor * y for x, y in zip(trans[i], trans[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    reduced = QMatrix(work, n_cols=n_cols)
    if record:
        return reduced, pivots, QMatrix(trans, n_cols=n_rows)
    return reduced, pivots


def dense_nullspace(matrix):
    reduced, pivots = dense_rref(matrix)
    pivot_set = set(pivots)
    basis = []
    for f in range(matrix.n_cols):
        if f in pivot_set:
            continue
        vec = [ZERO] * matrix.n_cols
        vec[f] = ONE
        for i, p in enumerate(pivots):
            vec[p] = -reduced.rows[i][f]
        basis.append(vec)
    return basis


def dense_solve_affine(matrix, b):
    """``(particular, basis)`` of ``matrix * x = b``, or None if inconsistent."""
    reduced, pivots = dense_rref(matrix.augment(b))
    if matrix.n_cols in pivots:
        return None
    particular = [ZERO] * matrix.n_cols
    for i, p in enumerate(pivots):
        particular[p] = reduced.rows[i][matrix.n_cols]
    return particular, dense_nullspace(matrix)


def dense_infeasibility_certificate(matrix, b):
    _, pivots, trans = dense_rref(matrix.augment(b), record=True)
    if matrix.n_cols not in pivots:
        return None
    return trans.rows[pivots.index(matrix.n_cols)]
