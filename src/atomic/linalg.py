"""Small exact linear algebra over Fractions.

Everything here operates on tuples of tuples (rows) and stays exact; the
matrices involved never exceed rank 8, so no attempt is made to be clever.
These routines serve set-up work done once per root system (the inverse
Cartan matrix, coordinates of classical roots).  The group and affine hot
paths run on the scaled integer forms of `rootdata` instead; a Weyl
element's inverse comes from the invariant form (`weyl`).
"""

from fractions import Fraction

Matrix = tuple[tuple[Fraction, ...], ...]


def mat_vec(rows, v):
    """Rows-times-vector product."""
    return tuple(sum(r[j] * v[j] for j in range(len(v))) for r in rows)


def mat_inv(rows) -> Matrix:
    """Inverse by Gauss-Jordan elimination; raises on singular input."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = Fraction(1) / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


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

