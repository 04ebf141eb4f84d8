import pytest

from atomic.errors import InvalidModulus, NegativeBound, NotACore, SizeTooLarge
from atomic.fixtures import THREE_CORE_SIZES
from atomic.cores import (
    beta_numbers,
    conjugate,
    core_count_vs_lattice,
    core_sizes,
    count_lattice_points,
    has_removable_rim_hook,
    hook_lengths,
    is_core,
    orbit_cores,
    residue_reflect,
)


def partitions_of(n, cap=None):
    def rec(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(n, cap or n)


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


def test_orbit_cap():
    with pytest.raises(SizeTooLarge):
        orbit_cores(2, 100, cap=10)
    with pytest.raises(SizeTooLarge):
        core_sizes(3, 10**18, cap=1000)
    # cap counts the cores visited: seven 3-cores have size <= 5
    assert sum(core_sizes(2, 5, cap=7).values()) == 7
    with pytest.raises(SizeTooLarge):
        core_sizes(2, 5, cap=6)
    with pytest.raises(InvalidModulus):
        orbit_cores(0, 5)
    with pytest.raises(NegativeBound):
        orbit_cores(2, -1)


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
    for n in (2, 3):
        sizes = core_sizes(n, 20)
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
    from atomic.cores import _abacus_walk, _partition

    for m in range(2, 7):
        seen = set()
        for c, size in _abacus_walk(m, 20, 10**6):
            assert c not in seen and sum(c) == 0, (m, c)
            seen.add(c)
            p = _partition(c)
            assert sum(p) == size and is_core(p, m), (m, c)
            for i in range(m):
                child, d = _reflect_charges(c, i)
                q = _partition(child)
                assert q == residue_reflect(p, i, m), (m, c, i)
                assert sum(q) == size + d, (m, c, i)
        listing = orbit_cores(m - 1, 20)
        assert core_sizes(m - 1, 20) == {k: len(v) for k, v in listing.items()}
        flat = [p for group in listing.values() for p in group]
        assert len(flat) == len(set(flat)) == len(seen), m


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
    bound = 120 if t <= 7 else 80
    series = _t_core_series(t, bound)
    sizes = core_sizes(t - 1, bound)
    assert sizes == {k: v for k, v in enumerate(series) if v}
    # Granville-Ono: every size has a t-core once t >= 4; not so for t = 2, 3
    assert (len(sizes) == bound + 1) == (t >= 4)
