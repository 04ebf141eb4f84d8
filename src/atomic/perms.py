"""Symmetric-group statistics: cosine, entropy, inversion sums.

Permutations are tuples in one-line notation with values 1..n.  The bridge
to the reflection-group picture sends a permutation w to the linear map
e_k -> e_{w^{-1}(k)}, under which the pair inversion (i, j) corresponds to
the root e_i - e_j, and invsum becomes the atomic length.
"""

from __future__ import annotations

from itertools import permutations
from operator import mul

from .errors import NotAdequate
from .rootdata import root_system
from .weyl import WeylElement

OneLine = tuple[int, ...]


def check_permutation(w) -> OneLine:
    """w as a tuple; refuses entries whose type is not int (bools included)
    or that do not permute 1..n."""
    p = tuple(w)
    if set(map(type, p)) - {int}:
        raise ValueError(f"{w} has an entry that is not an int")
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError(f"{w} is not a permutation of 1..{len(p)}")
    return p


def statistics(w) -> tuple[int, int, int, int, int]:
    """(length, invsum, ninvsum, entropy, cosine) of w, validated once and
    read from one pass over its pairs, each by its own definition; the
    reference for `statistics_table`."""
    w = check_permutation(w)
    n = len(w)
    length = inv = ninv = 0
    for i in range(n):
        wi = w[i]
        for j in range(i + 1, n):
            if wi > w[j]:
                length += 1
                inv += j - i
            else:
                ninv += j - i
    positions = range(1, n + 1)
    return (
        length,
        inv,
        ninv,
        sum((k - v) ** 2 for k, v in zip(positions, w)),
        sum(map(mul, positions, w)),
    )


def statistics_table(n: int):
    """Yield (w, statistics(w)) for every permutation w of 1..n, in
    lexicographic order, built prefix by prefix from 1..n, so none is
    validated again.

    A depth-first walk over prefixes: placing v at position k adds its
    pairs with the prefix to length, invsum (k - p for each earlier
    w_p > v) and ninvsum (k - p for each w_p < v), and its own terms
    (k - v)^2 and k v to entropy and cosine, each by its own definition.
    The stack holds one entry per unexpanded prefix, at most n^2 / 2, and
    no row is built before it is asked for.
    """
    if n == 0:
        yield (), (0, 0, 0, 0, 0)
        return
    stack = [((), tuple(range(1, n + 1)), 0, 0, 0, 0, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        prefix, remaining, length, inv, ninv, ent, cos = pop()
        k = len(prefix) + 1
        # pushed largest first, so the stack hands back the smallest
        for idx in range(len(remaining) - 1, -1, -1):
            v = remaining[idx]
            l, a, b = length, inv, ninv
            for p, u in enumerate(prefix, 1):
                if u > v:
                    l += 1
                    a += k - p
                else:
                    b += k - p
            if k == n:  # the one value left completes the permutation
                yield prefix + (v,), (l, a, b, ent + (k - v) ** 2, cos + k * v)
            else:
                push((prefix + (v,), remaining[:idx] + remaining[idx + 1:],
                      l, a, b, ent + (k - v) ** 2, cos + k * v))


def cosine(w) -> int:
    w = check_permutation(w)
    return sum(k * w[k - 1] for k in range(1, len(w) + 1))


def entropy(w) -> int:
    w = check_permutation(w)
    return sum((i - w[i - 1]) ** 2 for i in range(1, len(w) + 1))


def inversions(w):
    """Pairs (i, j), i < j, with w_i > w_j (1-based positions)."""
    w = check_permutation(w)
    n = len(w)
    return tuple(
        (i, j)
        for i in range(1, n)
        for j in range(i + 1, n + 1)
        if w[i - 1] > w[j - 1]
    )


def non_inversions(w):
    w = check_permutation(w)
    n = len(w)
    return tuple(
        (i, j)
        for i in range(1, n)
        for j in range(i + 1, n + 1)
        if w[i - 1] < w[j - 1]
    )


def invsum(w) -> int:
    return sum(j - i for i, j in inversions(w))


def ninvsum(w) -> int:
    return sum(j - i for i, j in non_inversions(w))


def longest_permutation(n: int) -> OneLine:
    return tuple(range(n, 0, -1))


def to_weyl(w) -> WeylElement:
    """The type A_{n-1} element whose inversion set matches the pair
    inversions of w under e_i - e_j <-> (i, j)."""
    w = check_permutation(w)
    n = len(w)
    if n < 2:
        raise ValueError("need n >= 2 for a nontrivial root system")
    system = root_system(f"A{n - 1}")
    inv = {v: k for k, v in enumerate(w, start=1)}  # w^{-1}

    def e_diff(a, b):
        # e_a - e_b in simple-root coordinates
        coords = [0] * (n - 1)
        lo, hi, sign = (a, b, 1) if a < b else (b, a, -1)
        for k in range(lo, hi):
            coords[k - 1] = sign
        return coords

    cols = []
    for i in range(1, n):
        # image of alpha_i = e_i - e_{i+1}
        cols.append(tuple(e_diff(inv[i], inv[i + 1])))
    return WeylElement(system, cols)


def permutohedron_distance_sq(w, x) -> int:
    """|w(x) - x|^2 for an adequate point x, permuting the coordinate values.

    Adequate means: integer coordinates in [1, n], pairwise distinct, which
    keeps the point off every reflection hyperplane.
    """
    w = check_permutation(w)
    n = len(w)
    x = tuple(x)
    if (
        len(x) != n
        or any(not isinstance(c, int) or not 1 <= c <= n for c in x)
        or len(set(x)) != n
    ):
        raise NotAdequate(f"{x} is not an adequate point for n={n}")
    return sum((w[c - 1] - c) ** 2 for c in x)


def cosine_range_probe(max_n: int = 8, bound: int = 30):
    """Values <= bound attained by the cosine over all S_n with n <= max_n.

    Reports only what the finite search certifies; no extrapolation to
    larger symmetric groups is made.
    """
    attained = set()
    for n in range(1, max_n + 1):
        base = cosine(longest_permutation(n))
        if base > bound:
            break
        for w in permutations(range(1, n + 1)):
            c = sum(k * w[k - 1] for k in range(1, n + 1))
            if c <= bound:
                attained.add(c)
    missing = tuple(v for v in range(bound + 1) if v not in attained)
    return {
        "max_n": max_n,
        "bound": bound,
        "attained": tuple(sorted(attained)),
        "missing": missing,
    }
