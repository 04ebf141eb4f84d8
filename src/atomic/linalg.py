"""Small exact integer arithmetic on tuples of tuples (rows).

`eliminate` is the package's one elimination, set-up work done once per
root system: from the Cartan matrix it gives the determinant and adjugate
that `rootdata` scales to the integer S A^{-1} through which weights, Weyl
inverses and classical root labels are read, and from the translation
lattice's Gram matrix the fraction-free LDL^T on which `affine` enumerates
lattice balls.  `exact_div` is every division that the theory says is
exact; a remainder is a defect, not bad input, and raises
InvariantViolation, which `python -O` does not strip.
"""

from .errors import InvariantViolation


def mat_vec(rows, v):
    """Rows-times-vector product."""
    return tuple(sum(r[j] * v[j] for j in range(len(v))) for r in rows)


def eliminate(rows):
    """(det A, adj A, pivot rows) of an integer matrix, by fraction-free
    Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968) on [A | I].

    Step k replaces every other row r by (p r - a_rk row_k) / p', p the
    pivot a_kk and p' the previous pivot; the division is exact, and the
    pivot p_k of step k is the (k+1)-th leading principal minor.  At the end
    the left block is det A times I and the right block adj A.  The pivot
    rows R_k are the left block's row k as step k begins: zero before
    column k, p_k at column k.  For a symmetric A they are its fraction-free
    LDL^T, x^T A x = sum_k (R_k . x)^2 / (p_{k-1} p_k) with p_{-1} = 1.
    There is no pivoting: a zero leading minor raises ZeroDivisionError.
    Every leading minor of a Cartan matrix, or of a positive definite Gram
    matrix, is positive.
    """
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    pivot_rows = []
    prev = 1
    for k in range(n):
        pivot_row = aug[k]
        p = pivot_row[k]
        if p == 0:
            raise ZeroDivisionError(f"leading minor {k + 1} vanishes")
        pivot_rows.append(tuple(pivot_row[:n]))
        for r, row in enumerate(aug):
            if r != k:
                f = row[k]
                aug[r] = [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
        prev = p
    return prev, tuple(tuple(row[n:]) for row in aug), tuple(pivot_rows)


def exact_div(value: int, unit: int, what: str) -> int:
    """value / unit, which the theory says is an integer; a remainder raises
    InvariantViolation naming `what`."""
    q, r = divmod(value, unit)
    if r:
        raise InvariantViolation(f"{what}: {value}/{unit} is not an integer")
    return q
