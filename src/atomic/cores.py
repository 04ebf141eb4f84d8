"""Core partitions and the residue-box reflection action.

Partitions are weakly decreasing tuples of positive integers.  A partition
is an m-core when no hook length is divisible by m; the fast check goes
through first-column hook lengths (beta numbers): p is an m-core iff every
beta number b >= m has b - m among the beta numbers.

The reflection s_i acts on an m-core by adding every addable box of residue
i (residue of box (r, c) is (c - r) mod m, rows and columns 0-based) or,
failing that, removing every removable box of residue i.  Walking this
action from the empty partition enumerates exactly the m-cores, and the
size of a core is the depth at which the walk first reaches it.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from .errors import InvalidModulus, NegativeBound, NotACore, SizeTooLarge
from .rootdata import root_system

ORBIT_SIZE_CAP = 10**7

Partition = tuple[int, ...]


def check_partition(parts) -> Partition:
    p = tuple(parts)
    if any(x < 1 for x in p) or any(a < b for a, b in zip(p, p[1:])):
        raise ValueError(f"{parts} is not a partition")
    return p


def beta_numbers(p: Partition) -> tuple[int, ...]:
    """First-column hook lengths parts[i] + (k - 1 - i), largest first."""
    k = len(p)
    return tuple(p[i] + k - 1 - i for i in range(k))


def hook_lengths(p: Partition):
    """The full hook-length multiset, row by row."""
    k = len(p)
    conj = conjugate(p)
    out = []
    for r in range(k):
        for c in range(p[r]):
            out.append(p[r] - c + conj[c] - r - 1)
    return tuple(out)


def conjugate(p: Partition) -> Partition:
    if not p:
        return ()
    return tuple(sum(1 for x in p if x > c) for c in range(p[0]))


def is_core(p, m: int) -> bool:
    """No hook length divisible by m, via the beta-number criterion."""
    if m < 2:
        raise InvalidModulus(f"modulus {m} must be at least 2")
    p = check_partition(p)
    betas = set(beta_numbers(p))
    return all(b < m or b - m in betas for b in betas)


def remove_rim_hook(p: Partition, r: int, c: int, m: int):
    """Remove the rim m-hook with head in cell (r, c); None when impossible.

    Literal rim walk: start at the rim cell at the end of row r past column
    c, walk down-left along the rim for m steps, and strip the walked cells.
    This is deliberately independent of the hook-length criterion so the two
    can be tested against each other.
    """
    rows = list(p)
    conj = conjugate(p)
    # cells of the rim hook for the hook of cell (r, c): all rim cells
    # between (r, p[r]-1) and (conj[c]-1, c)
    cells = []
    rr, cc = r, rows[r] - 1
    last_row = conj[c] - 1
    while True:
        cells.append((rr, cc))
        if rr == last_row and cc == c:
            break
        if rr + 1 <= last_row and rr + 1 < len(rows) and rows[rr + 1] > cc:
            rr += 1
        else:
            cc -= 1
        if cc < c or rr > last_row:
            return None
    if len(cells) != m:
        return None
    for rr, cc in cells:
        rows[rr] -= 1
        if rows[rr] != cc:
            return None  # not a rim strip
    out = tuple(x for x in rows if x > 0)
    return out if all(a >= b for a, b in zip(out, out[1:])) else None


def has_removable_rim_hook(p: Partition, m: int) -> bool:
    """Brute-force search over all cells for a removable rim m-hook."""
    p = check_partition(p)
    for r in range(len(p)):
        for c in range(p[r]):
            if remove_rim_hook(p, r, c, m) is not None:
                return True
    return False


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
    at once, which is what makes the operation an involution.
    """
    if m < 2:
        raise InvalidModulus(f"modulus {m} must be at least 2")
    p = check_partition(p)
    if not is_core(p, m):
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
    out = tuple(x for x in rows if x > 0)
    return check_partition(out)


def orbit_cores(n: int, max_size: int, cap=ORBIT_SIZE_CAP):
    """All (n+1)-cores of size <= max_size, grouped by size.

    Breadth-first walk of the residue reflections from the empty partition;
    every core is reachable through cores of strictly smaller size, so
    pruning at max_size loses nothing.
    """
    m = n + 1
    if m < 2:
        raise InvalidModulus(f"modulus n + 1 = {m} must be at least 2")
    if max_size < 0:
        raise NegativeBound(f"size bound {max_size} must be nonnegative")
    seen = {()}
    queue = deque([()])
    by_size: dict[int, list] = {}
    count = 0
    while queue:
        p = queue.popleft()
        by_size.setdefault(sum(p), []).append(p)
        count += 1
        if count > cap:
            raise SizeTooLarge(f"more than {cap} cores below size {max_size}")
        addable, removable = residues_of_boundary(p, m)
        rows = list(p)
        for i in range(m):
            if addable[i]:
                nxt = list(rows)
                for r, _ in addable[i]:
                    if r == len(nxt):
                        nxt.append(1)
                    else:
                        nxt[r] += 1
            elif removable[i]:
                nxt = list(rows)
                for r, _ in removable[i]:
                    nxt[r] -= 1
                while nxt and nxt[-1] == 0:
                    nxt.pop()
            else:
                continue
            q = tuple(nxt)
            if sum(q) <= max_size and q not in seen:
                seen.add(q)
                queue.append(q)
    return {size: sorted(lst) for size, lst in sorted(by_size.items())}


def core_sizes(n: int, max_size: int, cap=ORBIT_SIZE_CAP):
    """Map size -> number of (n+1)-cores of that size, for sizes <= max_size."""
    return {size: len(lst) for size, lst in orbit_cores(n, max_size, cap).items()}


def count_lattice_points(n: int, target: int):
    """#{beta in the A_n root lattice with ((n+1)/2)|beta|^2 - ht(beta) = target}.

    Direct quadratic-form enumeration, independent of any partition
    combinatorics.
    """
    from .affine import (
        _certified_max,
        _lattice_ball,
        basic_weight,
        level_one_atomic_length,
        translation_lattice_basis,
    )

    system = root_system(f"A{n}~")
    basis = translation_lattice_basis(system)
    # value = (hvee/2)|b|^2 - ht(b) >= (hvee/2)|b|^2 - c0 |b| with c0 = |h x0|;
    # bound the ball by solving the quadratic in |b| with padded constants.
    norm = Fraction(2 * target, n + 1) + 2
    while _certified_max(system, basic_weight(system), norm) < target:
        norm += max(1, norm // 2)
    count = 0
    for beta in _lattice_ball(system, basis, norm, cap=10**8):
        if level_one_atomic_length(system, beta) == target:
            count += 1
    return count


def lattice_value_histogram(n: int, max_target: int):
    """value -> lattice-point count for all values <= max_target, one sweep."""
    from .affine import (
        _certified_max,
        _lattice_ball,
        basic_weight,
        level_one_atomic_length,
        translation_lattice_basis,
    )

    system = root_system(f"A{n}~")
    basis = translation_lattice_basis(system)
    norm = Fraction(2 * max_target, n + 1) + 2
    while _certified_max(system, basic_weight(system), norm) < max_target:
        norm += max(1, norm // 2)
    histogram: dict[int, int] = {}
    for beta in _lattice_ball(system, basis, norm, cap=10**8):
        value = level_one_atomic_length(system, beta)
        if value <= max_target:
            histogram[value] = histogram.get(value, 0) + 1
    return histogram


def core_count_vs_lattice(n: int, target: int):
    """Count (n+1)-cores of size `target` and the matching lattice count."""
    cores = core_sizes(n, target).get(target, 0)
    lattice = count_lattice_points(n, target)
    return cores, lattice
