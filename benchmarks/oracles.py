"""Expected values computed apart from the `atomic` package.

Nothing here imports `atomic`.  Each oracle rests on a classical fact that
the program does not use for its own computation:

- |W| is the product of the degrees of the basic invariants, and the
  atomic length of w0 (the top value for rho) is sum C(d_i, 2), because
  the number of positive roots of height k equals the number of exponents
  d_i - 1 that are at least k.
- Roots, heights and reflections are rebuilt from the epsilon-coordinates of
  the Bourbaki planches.
- The level-one affine values of type A_n~ are the sizes of (n+1)-cores,
  whose generating function is prod_k (1 - q^{tk})^t / (1 - q^k)
  (Garvan-Kim-Stanton, "Cranks and t-cores", 1990).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, isqrt, prod


class CheckFailed(Exception):
    """An output of the program disagrees with its oracle."""


def expect(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


# -- Weyl group invariants ---------------------------------------------------

_DEGREES = {
    "E": {6: (2, 5, 6, 8, 9, 12), 7: (2, 6, 8, 10, 12, 14, 18),
          8: (2, 8, 12, 14, 18, 20, 24, 30)},
    "F": {4: (2, 6, 8, 12)},
}


def degrees(family: str, n: int) -> tuple[int, ...]:
    if family == "A":
        return tuple(range(2, n + 2))
    if family in "BC":
        return tuple(range(2, 2 * n + 1, 2))
    if family == "D":
        return tuple(range(2, 2 * n - 1, 2)) + (n,)
    return _DEGREES[family][n]


def group_order(family: str, n: int) -> int:
    return prod(degrees(family, n))


def rho_top(family: str, n: int) -> int:
    """2<rho, rho^vee> = sum over positive roots of their heights."""
    return sum(comb(d, 2) for d in degrees(family, n))


def minuscule_table(family: str, n: int) -> dict[int, tuple[int, int]]:
    """node -> (dimension of the minuscule representation, 2<omega, rho^vee>)."""
    if family == "A":
        return {k: (comb(n + 1, k), k * (n + 1 - k)) for k in range(1, n + 1)}
    if family == "B":
        return {n: (2**n, n * (n + 1) // 2)}
    if family == "C":
        return {1: (2 * n, 2 * n - 1)}
    if family == "D":
        half = (2 ** (n - 1), n * (n - 1) // 2)
        return {1: (2 * n, 2 * n - 2), n - 1: half, n: half}
    return {("E", 6): {1: (27, 16), 6: (27, 16)}, ("E", 7): {7: (56, 27)}}.get(
        (family, n), {}
    )


def check_rho_histogram(hist: dict, orbit_size: int, top: int):
    """Properties of the value histogram of rho in rank >= 3."""
    expect(sum(hist.values()) == orbit_size, "histogram total != orbit size")
    expect(max(hist) == top, f"max {max(hist)} != 2<lambda, rho^vee> = {top}")
    expect(min(hist) == 0, "value 0 (the identity) missing")
    expect(all(hist.get(top - d) == c for d, c in hist.items()),
           "histogram not symmetric under d -> max - d")
    expect(len(hist) == top + 1, "values do not fill [0, max]")


# -- epsilon-coordinate root systems ------------------------------------------


def classical_roots(family: str, n: int):
    """Positive roots of A_n, B_n or D_n in epsilon coordinates, with
    rho^vee doubled: ht(a) = (a . rho2) / 2."""
    dim = n + 1 if family == "A" else n
    units = [tuple(int(k == i) for k in range(dim)) for i in range(dim)]

    def add(u, v, s=1):
        return tuple(a + s * b for a, b in zip(u, v))

    roots = [add(units[i], units[j], -1) for i, j in combinations(range(dim), 2)]
    if family != "A":
        roots += [add(units[i], units[j]) for i, j in combinations(range(dim), 2)]
    if family == "B":
        roots += units
    # doubled rho^vee pairs to 2 with every simple root
    if family == "B":
        rho2 = tuple(2 * (n - i) for i in range(n))
    else:
        rho2 = tuple(2 * (dim - 1 - i) for i in range(dim))
    return roots, rho2


def e8_positive_roots():
    """Positive E8 roots, doubled coordinates, with rho = (0,1,...,6,23)."""
    rho = (0, 1, 2, 3, 4, 5, 6, 23)
    roots = []
    for i, j in combinations(range(8), 2):
        for si, sj in product((2, -2), repeat=2):
            v = [0] * 8
            v[i], v[j] = si, sj
            roots.append(tuple(v))
    for signs in product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            roots.append(signs)
    positive = [r for r in roots if sum(a * b for a, b in zip(r, rho)) > 0]
    expect(len(roots) == 240 and len(positive) == 120, "E8 root count")
    return positive, rho


def w0_value_from_roots(family: str, n: int) -> int:
    """sum of ht(alpha) over alpha > 0, from epsilon coordinates."""
    if family == "E" and n == 8:
        positive, rho = e8_positive_roots()
        return sum(sum(a * b for a, b in zip(r, rho)) for r in positive) // 2
    roots, rho2 = classical_roots(family, n)
    return sum(sum(a * b for a, b in zip(r, rho2)) for r in roots) // 2


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _reflect(r, a):
    k = Fraction(2 * _dot(r, a), _dot(a, a))
    return tuple(x - k * y for x, y in zip(r, a))


def _simple_roots_ab(family: str, n: int):
    dim = n + 1 if family == "A" else n
    out = [tuple(int(k == i) - int(k == i + 1) for k in range(dim)) for i in range(n)]
    if family == "B":
        out[-1] = tuple(int(k == n - 1) for k in range(dim))
    return out


def _to_simple(v, n):
    """Simple-root coordinates of an A_n or B_n vector: partial sums."""
    return tuple(sum(v[: k + 1]) for k in range(n))


def susanfe_rows(family: str, n: int):
    """root -> (L(t), L(t, I), matrix columns, length) over the Susanfe
    reflections t of A_n or B_n, with I = {2..n}; roots and columns in
    simple-root coordinates."""
    roots, rho2 = classical_roots(family, n)
    positive = set(roots)
    simple = _simple_roots_ab(family, n)
    rows = {}
    for a in roots:
        fixed = {b for b in roots if _dot(a, b) == 0}
        inversions = {b for b in roots if _reflect(b, a) not in positive}
        if inversions == positive - fixed:
            heights = {b: _dot(b, rho2) // 2 for b in inversions}
            rows[_to_simple(a, n)] = (
                sum(heights.values()),
                sum(h for b, h in heights.items() if b[0] != 0),
                [list(_to_simple(_reflect(s, a), n)) for s in simple],
                len(inversions),
            )
    return rows


def word_columns(family: str, n: int, word):
    """Matrix columns of s_{i1} ... s_{ik} (rightmost letter acting first)."""
    simple = _simple_roots_ab(family, n)
    expect(all(1 <= i <= n for i in word), "letter outside 1..n")
    cols = []
    for x in simple:
        for i in reversed(word):
            x = _reflect(x, simple[i - 1])
        cols.append(list(_to_simple(x, n)))
    return cols


def shi_pyramid_of_reflection(n: int, i: int, j: int):
    """Pyramid rows of the Shi vector of the finite transposition (i j) in
    A_n: the coefficient of e_a - e_b is -1 when the root is an inversion
    (a or b in {i, j} and the pair is inverted), else 0."""
    w = list(range(1, n + 2))
    w[i - 1], w[j - 1] = w[j - 1], w[i - 1]
    rows = []
    for h in range(1, n + 1):
        rows.append([-1 if w[a - 1] > w[a + h - 1] else 0
                     for a in range(1, n + 2 - h)])
    return rows


# -- C3 values by signed permutations ------------------------------------------


def c3_values(fund) -> set[int]:
    """Values <lambda - w lambda, rho^vee> over W(C3) acting on epsilon
    coordinates by signed permutations."""
    a, b, c = fund
    lam = (a + b + c, b + c, c)
    rho2 = (5, 3, 1)
    out = set()
    for perm in permutations(range(3)):
        for signs in product((1, -1), repeat=3):
            mu = tuple(signs[k] * lam[perm[k]] for k in range(3))
            v2 = sum((x - y) * r for x, y, r in zip(lam, mu, rho2))
            expect(v2 % 2 == 0, "C3 oracle value not integral")
            out.add(v2 // 2)
    return out


# -- permutations ---------------------------------------------------------------


def check_entropy_csv(text: str, n: int):
    lines = text.strip().splitlines()
    expect(lines[0] == "one_line,length,invsum,ninvsum,entropy,cosine", "CSV header")
    rows = lines[1:]
    expect(len(rows) == prod(range(1, n + 1)), "CSV row count != n!")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen = set()
    for line in rows:
        word, *stats = line.split(",")
        w = tuple(int(ch) for ch in word)
        seen.add(w)
        inv = [(i, j) for i, j in pairs if w[i] > w[j]]
        want = (
            len(inv),
            sum(j - i for i, j in inv),
            sum(j - i for i, j in pairs) - sum(j - i for i, j in inv),
            sum((i + 1 - x) ** 2 for i, x in enumerate(w)),
            sum((i + 1) * x for i, x in enumerate(w)),
        )
        expect(tuple(int(s) for s in stats) == want, f"CSV row {line}")
    expect(len(seen) == len(rows) and all(sorted(w) == list(range(1, n + 1))
                                          for w in seen), "CSV rows not S_n")


# -- affine level one and cores ----------------------------------------------

# Gram matrices of the translation lattices in simple-root coordinates, long
# roots of squared length 2, with the dual Coxeter numbers.
AFFINE_GRAM = {
    "A2~": (((2, -1), (-1, 2)), 3),
    "C2~": (((1, -1), (-1, 2)), 3),
    "A3~": (((2, -1, 0), (-1, 2, -1), (0, -1, 2)), 4),
}


def quad(gram, beta) -> int:
    return sum(gram[i][j] * beta[i] * beta[j]
               for i in range(len(beta)) for j in range(len(beta)))


def level_one_value(label: str, beta) -> int:
    """(h^vee / 2)|beta|^2 - ht(beta)."""
    gram, hvee = AFFINE_GRAM[label]
    twice = hvee * quad(gram, beta) - 2 * sum(beta)
    expect(twice % 2 == 0, "level-one value not integral")
    return twice // 2


def ball_size(label: str, radius: int) -> int:
    """Number of root-lattice points with |beta|^2 <= radius (type A: the
    translation lattice is the root lattice; the A3 Gram has least
    eigenvalue 2 - sqrt 2 > 1/2, so |beta_i|^2 <= 2 radius)."""
    gram, _ = AFFINE_GRAM[label]
    r = isqrt(2 * radius) + 1
    n = len(gram)
    return sum(1 for beta in product(range(-r, r + 1), repeat=n)
               if quad(gram, beta) <= radius)


def core_counts(t: int, size: int) -> list[int]:
    """Coefficients of prod_k (1 - q^{tk})^t / (1 - q^k) up to q^size."""
    series = [1] + [0] * size
    for k in range(1, size + 1):  # divide by (1 - q^k)
        for m in range(k, size + 1):
            series[m] += series[m - k]
    for k in range(1, size // t + 1):  # multiply by (1 - q^{tk})^t
        step = t * k
        for _ in range(t):
            for m in range(size, step - 1, -1):
                series[m] -= series[m - step]
    return series


def nonzero(counts) -> dict[int, int]:
    return {k: c for k, c in enumerate(counts) if c}


def check_level_one_probe(top, attained, missing, counts):
    """Attained and missing values of a level-one probe against core counts."""
    expect(top >= 1, "certified range is trivial")
    expect(len(counts) > top, "oracle series too short for the certified range")
    expect(list(attained) == [k for k in range(top + 1) if counts[k]],
           "attained values != sizes with a core")
    expect(list(missing) == [k for k in range(top + 1) if not counts[k]],
           "missing values != sizes without a core")
