"""Core partitions and the residue-box reflection action.

Partitions are weakly decreasing tuples of positive integers.  A partition
is an m-core when no hook length is divisible by m; the fast check goes
through first-column hook lengths (beta numbers): p is an m-core iff every
beta number b >= m has b - m among the beta numbers.

The reflection s_i acts on an m-core by adding every addable box of residue
i (residue of box (r, c) is (c - r) mod m, rows and columns 0-based) or,
failing that, removing every removable box of residue i.  `residue_reflect`
does this on the partition itself.

The (n+1)-cores are the orbit of Lambda_0 in type A_n~, and a core's size
is its weight's depth and the level-one value of a translation in the root
lattice (Garvan-Kim-Stanton).  Their count by size has three routes:
`core_sizes` reads it off the t-core product E(q^t)^t / E(q), t = n + 1, by
Euler's pentagonal series E(q) = prod_k (1 - q^k), with no lattice at all;
`lattice_value_histogram` counts lattice points by level-one value, over the
Fincke-Pohst ball centred at rho/h of `affine.level_one_histogram`; and
`orbit_cores` lists the cores by the tree walk of `weyl.orbit_weights` on the
affine Cartan matrix, which `core_count_vs_lattice` sets against the lattice.

A weight with affine coordinates (m_0, ..., m_n) is the core with runner
charges c_0..c_n on the (n+1)-abacus (James-Kerber; runner j holds beads at
j + (n+1) L for every L < c_j) given by m_i = c_{i-1} - c_i for i >= 1 and
charges summing to 0: s_i (i >= 1) swaps runners i-1 and i, s_0 swaps the
last runner and the first across one level, and each adds m_i boxes of
residue i when m_i > 0.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import add, sub

from .affine import affine_cartan, level_one_histogram
from .errors import (
    InvalidModulus,
    InvariantViolation,
    NegativeBound,
    NotACore,
    SizeTooLarge,
)
from .linalg import exact_div
from .rootdata import root_system
from .weyl import orbit_depths, orbit_weights

Partition = tuple[int, ...]

# Largest size bound `core_sizes` accepts, read at call time.  Its series
# takes O(N^1.5) integer steps, about 3 s at the cap on a 2-CPU Xeon VM,
# for every n but 1, whose closed form lists the triangular numbers;
# `orbit_cores` refuses a larger bound as well, through `_check_size`.
CORE_SIZE_CAP = 100_000


def check_partition(parts) -> Partition:
    p = tuple(parts)
    if any(x < 1 for x in p) or any(a < b for a, b in zip(p, p[1:])):
        raise ValueError(f"{parts} is not a partition")
    return p


def beta_numbers(p: Partition) -> tuple[int, ...]:
    """First-column hook lengths parts[i] + (k - 1 - i), largest first."""
    k = len(p)
    return tuple(p[i] + k - 1 - i for i in range(k))


def is_core(p, m: int) -> bool:
    """No hook length divisible by m, via the beta-number criterion."""
    if m < 2:
        raise InvalidModulus(f"modulus {m} must be at least 2")
    p = check_partition(p)
    betas = set(beta_numbers(p))
    return all(b < m or b - m in betas for b in betas)


def residues_of_boundary(p: Partition, m: int):
    """(addable, removable) cell lists per residue class."""
    addable: dict[int, list] = {i: [] for i in range(m)}
    removable: dict[int, list] = {i: [] for i in range(m)}
    k = len(p)
    for r in range(k + 1):
        row_len = p[r] if r < k else 0
        prev = p[r - 1] if r > 0 else None
        if r == 0 or (prev is not None and prev > row_len):
            addable[(row_len - r) % m].append((r, row_len))
        if r < k and (r == k - 1 or p[r] > p[r + 1]):
            removable[(p[r] - 1 - r) % m].append((r, p[r] - 1))
    return addable, removable


def residue_reflect(p, i: int, m: int) -> Partition:
    """Apply s_i to an m-core: add all addable i-boxes, else remove all.

    An m-core never carries addable and removable boxes of the same residue
    at once, which is what makes the operation an involution.  A box is
    addable where the row above is longer and removable where the row below
    is shorter, so the rows stay weakly decreasing: no check of the result.
    """
    p = tuple(p)
    if not is_core(p, m):  # checks the modulus, then the partition
        raise NotACore(f"{p} is not a {m}-core")
    addable, removable = residues_of_boundary(p, m)
    rows = list(p)
    if addable[i % m]:
        for r, _ in addable[i % m]:
            if r == len(rows):
                rows.append(1)
            else:
                rows[r] += 1
    elif removable[i % m]:
        for r, _ in removable[i % m]:
            rows[r] -= 1
    return tuple(x for x in rows if x > 0)


def _charges(coords):
    """Runner charges of the core at affine coordinates (m_0, ..., m_n):
    c_0 - c_i = m_1 + ... + m_i, and the charges sum to 0."""
    drops = tuple(accumulate(coords[1:], initial=0))
    c0 = exact_div(sum(drops), len(coords), "runner charge c_0")
    return tuple(c0 - d for d in drops)


def _partition(charges) -> Partition:
    """The core with these runner charges, by one merge of the runners.

    Positions j + m L (runner j, level L) are read in increasing order from
    m * min(charges), below which every position holds a bead; a position
    holds a bead when L < c_j, and a bead's part is the number of empty
    positions below it.  The parts come out smallest first.
    """
    parts = []
    gaps = 0
    for level in range(min(charges), max(charges)):
        for c in charges:
            if c <= level:
                gaps += 1
            elif gaps:
                parts.append(gaps)
    return tuple(reversed(parts))


def _check_bound(n: int, max_size: int):
    if n < 1:
        raise InvalidModulus(f"modulus n + 1 = {n + 1} must be at least 2")
    if max_size < 0:
        raise NegativeBound(f"size bound {max_size} must be nonnegative")


def _check_size(n: int, max_size: int):
    """`_check_bound` and `CORE_SIZE_CAP`, the cap of the series and the walk."""
    _check_bound(n, max_size)
    if max_size > CORE_SIZE_CAP:
        raise SizeTooLarge(f"size bound {max_size} is above the cap {CORE_SIZE_CAP}")


def _basic_orbit(n: int, max_size: int):
    """The affine Cartan matrix of A_n~ and the coordinates of Lambda_0."""
    _check_size(n, max_size)
    return affine_cartan(root_system(f"A{n}~")), (1,) + (0,) * n


def orbit_cores(n: int, max_size: int):
    """All (n+1)-cores of size <= max_size, grouped by size."""
    by_size: dict[int, list] = {}
    for size, coords in orbit_weights(*_basic_orbit(n, max_size), max_size):
        by_size.setdefault(size, []).append(_partition(_charges(coords)))
    return {size: sorted(lst) for size, lst in sorted(by_size.items())}


def _pentagonal(bound: int):
    """The exponents g <= bound of Euler's pentagonal theorem,
    E(q) = prod_{k>=1} (1 - q^k) = sum_j (-1)^j q^{j(3j-1)/2} over all
    integers j, as (those with j odd, those with j even and nonzero), each
    list increasing: (1, 2, 12, 15, ...) and (5, 7, 22, 26, ...)."""
    odd, even = [], []
    j = 1
    while j * (3 * j - 1) // 2 <= bound:
        terms = odd if j % 2 else even
        terms += [g for g in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2) if g <= bound]
        j += 1
    return odd, even


def core_sizes(n: int, max_size: int):
    """Map size -> number of (n+1)-cores of that size, for sizes <= max_size,
    in increasing size and leaving out the sizes no core has.

    The counts are the coefficients of the t-core product
    E(q^t)^t / E(q) = prod_k (1 - q^{tk})^t / (1 - q^k), t = n + 1
    (Garvan-Kim-Stanton; Granville-Ono).  E^t is built up to q^{N/t} by t
    passes over the pentagonal terms, spread onto the multiples of t, and
    divided once by E(q) through f_m = g_m - sum_{j != 0} (-1)^j f_{m - g_j}:
    O(N^1.5) integer steps, with no lattice and no root system.  The lattice
    count of `lattice_value_histogram` and the orbit walk of `orbit_cores`
    are the other two routes.  For t = 2 the product is Gauss's
    sum_k q^{k(k+1)/2}, one staircase core per triangular number, and that
    is returned directly.  n < 1 raises InvalidModulus, max_size < 0
    NegativeBound and max_size above `CORE_SIZE_CAP` SizeTooLarge; f_0 != 1
    or a negative count raises InvariantViolation.
    """
    _check_size(n, max_size)
    if n == 1:
        # k(k+1)/2 <= N  iff  2k + 1 <= isqrt(8N + 1)
        top = (math.isqrt(8 * max_size + 1) - 1) // 2
        return {k * (k + 1) // 2: 1 for k in range(top + 1)}
    t = n + 1
    top = max_size // t
    odd, even = _pentagonal(max_size)
    power = [1] + [0] * top
    for _ in range(t):
        prev = power[:]
        for terms, op in ((odd, sub), (even, add)):
            for g in terms:
                if g > top:
                    break
                power[g:] = map(op, power[g:], prev[: top + 1 - g])
    f = [0] * (max_size + 1)
    f[::t] = power
    for m in range(1, max_size + 1):
        value = f[m]
        for g in odd:
            if g > m:
                break
            value += f[m - g]
        for g in even:
            if g > m:
                break
            value -= f[m - g]
        f[m] = value
    if f[0] != 1:
        raise InvariantViolation(f"t-core series for t = {t} has constant term {f[0]}")
    if min(f) < 0:
        raise InvariantViolation(f"t-core series for t = {t} has a count {min(f)} < 0")
    return {size: count for size, count in enumerate(f) if count}


def lattice_value_histogram(n: int, max_value: int):
    """Map value -> number of A_n root-lattice points beta of level-one value
    ((n+1)/2)|beta|^2 - ht(beta), for values <= max_value, in increasing
    value: the Fincke-Pohst ball centred at rho/h of
    `affine.level_one_histogram` on A_n~, capped by `affine.PROBE_CAP`
    points tried (RadiusTooLarge).  A core of size N is such a point of
    value N, so this is the lattice route to `core_sizes`.  n < 1 raises
    InvalidModulus and max_value < 0 NegativeBound."""
    _check_bound(n, max_value)
    return level_one_histogram(root_system(f"A{n}~"), max_value)[0]


def count_lattice_points(n: int, target: int):
    """#{beta in the A_n root lattice with ((n+1)/2)|beta|^2 - ht(beta) = target}.

    Direct quadratic-form enumeration, independent of any partition
    combinatorics: one bucket of `lattice_value_histogram`.
    """
    return lattice_value_histogram(n, target).get(target, 0)


def core_count_vs_lattice(n: int, target: int):
    """Count (n+1)-cores of size `target` by the orbit walk, and the matching
    lattice count by the centred ball: two independent routes."""
    cores = orbit_depths(*_basic_orbit(n, target), target).get(target, 0)
    return cores, count_lattice_points(n, target)
