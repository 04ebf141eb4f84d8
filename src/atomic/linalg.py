"""Small exact linear algebra.

Everything here operates on tuples of tuples (rows) and stays exact; the
matrices involved are small, so no attempt is made to be clever.  These
routines serve set-up work done once per root system: the
integer determinant and adjugate of the Cartan matrix, from which `rootdata`
scales its inverse to integers, and the coordinates of classical roots.
The group and affine hot paths run on the scaled integer forms of
`rootdata` instead; a Weyl element's inverse comes from the invariant form
(`weyl`).
"""

from fractions import Fraction


def mat_vec(rows, v):
    """Rows-times-vector product."""
    return tuple(sum(r[j] * v[j] for j in range(len(v))) for r in rows)


def adjugate(rows) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(det A, adj A) of an integer matrix, by fraction-free Gauss-Jordan
    elimination (Bareiss, Math. Comp. 22, 1968) on [A | I].

    Step k replaces every other row r by (p r - a_rk row_k) / p', p the
    pivot a_kk and p' the previous pivot; the division is exact, and the
    pivot of step k is the k-th leading principal minor.  At the end the
    left block is det A times I and the right block adj A.  There is no
    pivoting: a zero leading minor raises ZeroDivisionError.  Every leading
    minor of a Cartan matrix is the determinant of a Cartan matrix, hence
    positive.
    """
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    prev = 1
    for k in range(n):
        pivot_row = aug[k]
        p = pivot_row[k]
        if p == 0:
            raise ZeroDivisionError(f"leading minor {k + 1} vanishes")
        for r, row in enumerate(aug):
            if r != k:
                f = row[k]
                aug[r] = [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = p
    return prev, tuple(tuple(row[n:]) for row in aug)


def solve_columns(columns, target):
    """Solve sum_i x_i * columns[i] = target exactly.

    The columns may live in a higher-dimensional ambient space; the system
    must be consistent with a unique solution (full column rank).
    """
    m, k = len(target), len(columns)
    aug = [[Fraction(columns[j][i]) for j in range(k)] + [Fraction(target[i])]
           for i in range(m)]
    row = 0
    pivots = []
    for col in range(k):
        pivot = next((r for r in range(row, m) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("columns are linearly dependent")
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv_p = Fraction(1) / aug[row][col]
        aug[row] = [x * inv_p for x in aug[row]]
        for r in range(m):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    for r in range(row, m):
        if aug[r][k] != 0:
            raise ValueError("inconsistent system")
    return tuple(aug[i][k] for i in range(k))

