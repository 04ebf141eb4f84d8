import time

import pytest

from atomic import affine, cores, weyl
from atomic.affine import basic_weight, level_one_histogram, orbit_depth_histogram
from atomic.errors import (
    InvalidModulus,
    NegativeBound,
    NotACore,
    OrbitTooLarge,
    RadiusTooLarge,
    SizeTooLarge,
)
from atomic.fixtures import THREE_CORE_SIZES
from atomic.cores import (
    beta_numbers,
    core_count_vs_lattice,
    core_sizes,
    count_lattice_points,
    is_core,
    lattice_value_histogram,
    orbit_cores,
    residue_reflect,
)
from atomic.rootdata import root_system


# Hook lengths and a literal rim walk: two oracles for the beta-number test
# of `is_core`, each independent of it.


def hook_lengths(p):
    """The full hook-length multiset, row by row."""
    k = len(p)
    conj = conjugate(p)
    out = []
    for r in range(k):
        for c in range(p[r]):
            out.append(p[r] - c + conj[c] - r - 1)
    return tuple(out)


def conjugate(p):
    if not p:
        return ()
    return tuple(sum(1 for x in p if x > c) for c in range(p[0]))


def remove_rim_hook(p, r: int, c: int, m: int):
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


def has_removable_rim_hook(p, m: int) -> bool:
    """Brute-force search over all cells for a removable rim m-hook."""
    for r in range(len(p)):
        for c in range(p[r]):
            if remove_rim_hook(p, r, c, m) is not None:
                return True
    return False


def partitions_of(n):
    def rec(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(n, n)


def test_hook_lengths_small():
    assert sorted(hook_lengths((3, 1, 1))) == [1, 1, 2, 2, 5]
    assert sorted(hook_lengths((2, 1))) == [1, 1, 3]
    assert hook_lengths(()) == ()
    assert conjugate((3, 1, 1)) == (3, 1, 1)
    assert beta_numbers((3, 1, 1)) == (5, 2, 1)


def test_is_core_examples():
    assert is_core((), 2) and is_core((), 5)
    assert is_core((3, 1, 1), 3)
    assert not is_core((2, 1), 3)
    with pytest.raises(InvalidModulus):
        is_core((1,), 1)


def test_core_criteria_agree():
    # beta-number check == no hook divisible by m == no removable rim m-hook
    for n in range(0, 13):
        for p in partitions_of(n):
            for m in range(2, 6):
                by_beta = is_core(p, m)
                by_hooks = not any(h % m == 0 for h in hook_lengths(p))
                by_rim = not has_removable_rim_hook(p, m)
                assert by_beta == by_hooks == by_rim, (p, m)


def test_residue_reflect_crystal_edges():
    assert residue_reflect((), 0, 3) == (1,)
    assert residue_reflect((1,), 1, 3) == (2,)
    assert residue_reflect((1,), 2, 3) == (1, 1)
    # s_2 on (2) adds both addable 2-cells at once, landing on (3, 1)
    assert residue_reflect((2,), 2, 3) == (3, 1)
    assert residue_reflect((1, 1), 1, 3) == (2, 1, 1)


def test_residue_reflect_involution_and_core_preservation():
    for n in (1, 2, 3):
        m = n + 1
        for size, group in orbit_cores(n, 10).items():
            for p in group:
                for i in range(m):
                    q = residue_reflect(p, i, m)
                    assert is_core(q, m)
                    assert residue_reflect(q, i, m) == p


def test_residue_reflect_rejects_non_core():
    with pytest.raises(NotACore):
        residue_reflect((2, 1), 0, 3)
    # the modulus is checked first, then the partition, then the core
    with pytest.raises(InvalidModulus):
        residue_reflect((1, 2), 0, 1)
    with pytest.raises(ValueError, match="not a partition"):
        residue_reflect((1, 2), 0, 3)


def test_no_simultaneous_addable_removable_residue():
    from atomic.cores import residues_of_boundary

    for size, group in orbit_cores(2, 20).items():
        for p in group:
            addable, removable = residues_of_boundary(p, 3)
            for i in range(3):
                assert not (addable[i] and removable[i]), (p, i)


def test_orbit_cores_against_direct_enumeration():
    for n in (1, 2, 3):
        m = n + 1
        from_orbit = orbit_cores(n, 12)
        for size in range(13):
            direct = sorted(p for p in partitions_of(size) if is_core(p, m))
            assert from_orbit.get(size, []) == direct, (n, size)


def test_three_core_sizes():
    sizes = core_sizes(2, 5)
    assert set(sizes) == set(THREE_CORE_SIZES)
    assert sizes[0] == 1 and sizes[1] == 1


def test_two_core_staircases():
    sizes = core_sizes(1, 6)
    assert set(sizes) == {0, 1, 3, 6}
    assert all(count == 1 for count in sizes.values())
    listing = orbit_cores(1, 10)
    assert listing[6] == [(3, 2, 1)]


def test_four_core_full_range():
    sizes = core_sizes(3, 30)
    assert set(sizes) == set(range(31))


def test_orbit_cap(monkeypatch):
    monkeypatch.setattr(weyl, "ORBIT_WALK_CAP", 10)
    with pytest.raises(OrbitTooLarge):
        orbit_cores(2, 100)
    # a bound above CORE_SIZE_CAP is refused before the walk (test_core_size_cap)
    monkeypatch.setattr(weyl, "ORBIT_WALK_CAP", 1000)
    with pytest.raises(OrbitTooLarge):
        orbit_cores(3, cores.CORE_SIZE_CAP)
    # the walk's cap counts the cores visited: seven 3-cores have size <= 5
    monkeypatch.setattr(weyl, "ORBIT_WALK_CAP", 7)
    assert sum(map(len, orbit_cores(2, 5).values())) == 7
    monkeypatch.setattr(weyl, "ORBIT_WALK_CAP", 6)
    with pytest.raises(OrbitTooLarge):
        orbit_cores(2, 5)
    # lattice_value_histogram counts the lattice points tried, at every level
    tried = sum(level_one_histogram(root_system("A2~"), 5)[1])
    monkeypatch.setattr(affine, "PROBE_CAP", tried)
    assert sum(lattice_value_histogram(2, 5).values()) == 7
    monkeypatch.setattr(affine, "PROBE_CAP", tried - 1)
    with pytest.raises(RadiusTooLarge, match=f"more than {tried - 1} lattice points tried"):
        lattice_value_histogram(2, 5)
    monkeypatch.undo()
    start = time.perf_counter()
    with pytest.raises(RadiusTooLarge):
        lattice_value_histogram(3, 10**18)
    # the series refuses a size above CORE_SIZE_CAP before it allocates
    with pytest.raises(SizeTooLarge, match=f"size bound {10**18} is above the cap"):
        core_sizes(3, 10**18)
    assert time.perf_counter() - start < 1
    with pytest.raises(InvalidModulus):
        orbit_cores(0, 5)
    with pytest.raises(InvalidModulus):
        core_sizes(0, 5)
    with pytest.raises(NegativeBound, match="size bound -1"):
        orbit_cores(2, -1)
    with pytest.raises(NegativeBound, match="size bound -1"):
        core_sizes(2, -1)


@pytest.mark.parametrize(
    "entry", [core_sizes, lattice_value_histogram, count_lattice_points],
    ids=["core_sizes", "lattice_value_histogram", "count_lattice_points"],
)
@pytest.mark.parametrize(
    "args, error, message",
    [
        ((2, -1), NegativeBound, "size bound -1"),
        ((0, 5), InvalidModulus, "n \\+ 1 = 1"),
        ((-1, 5), InvalidModulus, "n \\+ 1 = 0"),
    ],
    ids=["max-1", "n0", "n-1"],
)
def test_level_one_counts_validate_once(entry, args, error, message):
    # every entry point of the level-one count refuses what core_sizes refuses
    with pytest.raises(error, match=message):
        entry(*args)


def test_lattice_counts_match_small():
    for n in (1, 2, 3):
        for target in range(13):
            c, l = core_count_vs_lattice(n, target)
            assert c == l, (n, target)


def test_lattice_count_values():
    assert count_lattice_points(2, 0) == 1
    assert count_lattice_points(2, 3) == 0
    c, l = core_count_vs_lattice(3, 5)
    assert c == l > 0


def test_core_sizes_match_affine_orbit_depths():
    # the multiset of core sizes equals the multiset of orbit depths of the
    # basic weight in the matching untwisted affine type A
    from atomic.affine import basic_weight, orbit_depth_histogram
    from atomic.rootdata import root_system

    for n in (2, 3):
        system = root_system(f"A{n}~")
        depths = orbit_depth_histogram(system, basic_weight(system), 14)
        sizes = core_sizes(n, 14)
        assert depths == sizes


def test_core_sizes_match_lattice_counts():
    # cores counted by the orbit walk, against the lattice ball bucket by
    # bucket
    for n in (2, 3):
        system = root_system(f"A{n}~")
        sizes = orbit_depth_histogram(system, basic_weight(system), 20)
        # the bijection sends a core of size N to a translation whose
        # level-one length is N
        for target in range(21):
            assert sizes.get(target, 0) == count_lattice_points(n, target)


def _reflect_charges(c, i):
    """s_i on the m-abacus: (charges, boxes added), by the runner-swap rule."""
    m = len(c)
    if i == 0:
        return (c[m - 1] + 1,) + c[1 : m - 1] + (c[0] - 1,), c[m - 1] - c[0] + 1
    return c[: i - 1] + (c[i], c[i - 1]) + c[i + 1 :], c[i - 1] - c[i]


def test_abacus_walk_matches_residue_reflect():
    from atomic.affine import affine_cartan
    from atomic.cores import _charges, _partition
    from atomic.rootdata import root_system

    for m in range(2, 7):
        cartan = affine_cartan(root_system(f"A{m - 1}~"))
        seen = set()
        for size, coords in weyl.orbit_weights(cartan, (1,) + (0,) * (m - 1), 20):
            c = _charges(coords)
            assert c not in seen and sum(c) == 0, (m, c)
            seen.add(c)
            p = _partition(c)
            assert sum(p) == size and is_core(p, m), (m, c)
            for i in range(m):
                child, d = _reflect_charges(c, i)
                assert d == coords[i], (m, c, i)
                q = _partition(child)
                assert q == residue_reflect(p, i, m), (m, c, i)
                assert sum(q) == size + d, (m, c, i)
        listing = orbit_cores(m - 1, 20)
        assert core_sizes(m - 1, 20) == {k: len(v) for k, v in listing.items()}
        flat = [p for group in listing.values() for p in group]
        assert len(flat) == len(set(flat)) == len(seen), m


def _nonzero(series):
    return {k: v for k, v in enumerate(series) if v}


def _t_core_series(t, bound):
    """Coefficients of prod_k (1 - q^{tk})^t / (1 - q^k) up to q^bound."""
    coeffs = [1] + [0] * bound
    for k in range(1, bound + 1):
        for j in range(k, bound + 1):
            coeffs[j] += coeffs[j - k]
    for k in range(t, bound + 1, t):
        for _ in range(t):
            for j in range(bound, k - 1, -1):
                coeffs[j] -= coeffs[j - k]
    return coeffs


@pytest.mark.parametrize("t", range(2, 10))
def test_core_sizes_match_generating_function(t):
    # the product, expanded factor by factor, checks the lattice ball; the
    # pentagonal series of core_sizes is checked against the ball, not
    # against a second copy of the product
    bound = 120 if t <= 7 else 80
    series = _t_core_series(t, bound)
    ball = lattice_value_histogram(t - 1, bound)
    assert ball == _nonzero(series)
    sizes = core_sizes(t - 1, bound)
    assert sizes == ball and list(sizes) == sorted(sizes)
    # Granville-Ono: every size has a t-core once t >= 4; not so for t = 2, 3
    assert (len(sizes) == bound + 1) == (t >= 4)


def test_two_cores_in_closed_form_match_the_series():
    # t = 2 is answered by Gauss's sum of q^{k(k+1)/2}, not by the division
    # loop; the product, expanded factor by factor, checks it at each bound
    series = _t_core_series(2, 5000)
    for bound in (0, 1, 2, 3, 5, 6, 7, 4949, 4950, 4951, 5000):
        assert core_sizes(1, bound) == _nonzero(series[: bound + 1]), bound
    # at the cap: one staircase (k, k-1, ..., 1) for each k <= 446
    sizes = core_sizes(1, cores.CORE_SIZE_CAP)
    assert len(sizes) == 447 and max(sizes) == 446 * 447 // 2


@pytest.mark.parametrize(
    "n, bound", [(1, 60), (2, 60), (3, 60), (4, 50), (5, 40), (6, 35), (7, 30), (8, 30)]
)
def test_three_routes_count_the_same_cores(n, bound):
    # the pentagonal series, the centred lattice ball and the orbit walk
    system = root_system(f"A{n}~")
    walk = orbit_depth_histogram(system, basic_weight(system), bound)
    assert core_sizes(n, bound) == lattice_value_histogram(n, bound) == walk


def test_core_size_cap(monkeypatch):
    # read at call time; the cap itself is accepted, one above it refused
    monkeypatch.setattr(cores, "CORE_SIZE_CAP", 50)
    assert core_sizes(2, 50) == lattice_value_histogram(2, 50)
    # the walk refuses through the same check, before it visits a core
    for entry in (core_sizes, orbit_cores):
        with pytest.raises(SizeTooLarge, match="size bound 51 is above the cap 50"):
            entry(2, 51)
    # the ball keeps its own cap, PROBE_CAP
    assert lattice_value_histogram(2, 51) == _nonzero(_t_core_series(3, 51))
    monkeypatch.undo()
    assert cores.CORE_SIZE_CAP == 100_000
    with pytest.raises(SizeTooLarge, match="size bound 100001 is above the cap 100000"):
        core_sizes(1, 100_001)
    start = time.perf_counter()
    with pytest.raises(SizeTooLarge, match="size bound 100001 is above the cap 100000"):
        orbit_cores(2, cores.CORE_SIZE_CAP + 1)
    assert time.perf_counter() - start < 1
