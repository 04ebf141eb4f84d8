import random
import tracemalloc
from itertools import permutations

import pytest

from atomic.errors import NotAdequate
from atomic.atomiclen import atomic_length
from atomic.perms import (
    check_permutation,
    cosine,
    cosine_range_probe,
    entropy,
    inversions,
    invsum,
    longest_permutation,
    ninvsum,
    non_inversions,
    permutohedron_distance_sq,
    statistics,
    statistics_table,
    to_weyl,
)
from atomic.rootdata import root_system
from atomic.weyl import evaluate


def word_from_one_line(w):
    """Reduced word via bubble sort, stripping the smallest left descent.

    Swapping positions i, i+1 of the one-line form realises left
    multiplication by s_i on the corresponding group element, so the letters
    come out in composition order.
    """
    w = list(check_permutation(w))
    word = []
    changed = True
    while changed:
        changed = False
        for i in range(len(w) - 1):
            if w[i] > w[i + 1]:
                w[i], w[i + 1] = w[i + 1], w[i]
                word.append(i + 1)
                changed = True
                break
    return tuple(word)


def binom3(n):
    return (n + 1) * n * (n - 1) // 6


def test_identity_statistics():
    w = (1, 2, 3, 4)
    assert entropy(w) == 0
    assert invsum(w) == 0
    assert cosine(w) == 30
    assert inversions(w) == ()


def test_longest_element_statistics():
    w0 = longest_permutation(4)
    assert invsum(w0) == 10  # binom(5, 3)
    assert ninvsum(w0) == 0
    assert entropy(w0) == 20


def test_statistic_identities_exhaustive():
    for n in range(1, 7):
        w0 = longest_permutation(n)
        c0 = cosine(w0)
        total = binom3(n)
        cosines = []
        for w in permutations(range(1, n + 1)):
            assert invsum(w) + ninvsum(w) == total
            assert cosine(w) == c0 + ninvsum(w)
            assert entropy(w) == 2 * invsum(w)
            cosines.append(cosine(w))
        # homomesy: the average of the cosine is n(n+1)^2/4
        assert sum(cosines) * 4 == n * (n + 1) ** 2 * len(cosines)


def test_rejects_non_permutation():
    with pytest.raises(ValueError):
        invsum((1, 1, 2))
    with pytest.raises(ValueError):
        cosine((0, 1, 2))
    # statistics_table skips the check; statistics keeps it for its callers
    for w in ((1, 1, 2), (0, 1), (1, 3), (2, 3, 1, 5)):
        with pytest.raises(ValueError, match="not a permutation"):
            statistics(w)


def test_rejects_entries_that_are_not_ints():
    for w in ((2.0, 1.0), (2, 1.0), (True,), (2, True), ("1",)):
        for check in (check_permutation, statistics):
            with pytest.raises(ValueError, match="not an int"):
                check(w)
    with pytest.raises(ValueError):
        entropy((2.0, 1.0))
    assert check_permutation([2, 1]) == (2, 1)


def test_statistics_table_lists_every_permutation_once():
    for n in range(8):
        table = list(statistics_table(n))
        assert [w for w, _ in table] == list(permutations(range(1, n + 1)))
        assert all(row == statistics(w) for w, row in table)


def test_statistics_table_is_lazy():
    # the first of 10! rows comes from the first prefix walked down, not
    # from a table: the walk holds a few dozen prefixes at that point
    tracemalloc.start()
    try:
        first = next(statistics_table(10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    identity = tuple(range(1, 11))
    assert first == (identity, statistics(identity))
    assert peak < 1_000_000, peak


def test_statistics_match_the_single_statistics():
    for n in range(1, 8):
        for w in permutations(range(1, n + 1)):
            assert statistics(w) == (
                len(inversions(w)), invsum(w), ninvsum(w), entropy(w), cosine(w)
            )
            assert len(inversions(w)) + len(non_inversions(w)) == n * (n - 1) // 2


def test_to_weyl_examples():
    assert to_weyl((1, 3, 2)) == evaluate(root_system("A2"), (2,))
    assert atomic_length(to_weyl((2, 3, 1))) == 3 == invsum((2, 3, 1))
    with pytest.raises(ValueError):
        to_weyl((1,))


def test_to_weyl_inversion_bijection():
    from atomic.rootdata import classical_root

    a3 = root_system("A3")
    for w in permutations(range(1, 5)):
        element = to_weyl(w)
        roots = {classical_root(a3, "diff", i, j) for i, j in inversions(w)}
        assert set(element.inversion_set()) == roots
        assert invsum(w) == atomic_length(element)


def test_to_weyl_words_match():
    for w in permutations(range(1, 5)):
        assert word_from_one_line(w) == to_weyl(w).reduced_word()


def test_permutohedron_distance():
    assert permutohedron_distance_sq((1, 2, 3), (1, 2, 3)) == 0
    assert permutohedron_distance_sq((4, 3, 2, 1), (1, 2, 3, 4)) == 20
    with pytest.raises(NotAdequate):
        permutohedron_distance_sq((2, 1), (1, 1))
    with pytest.raises(NotAdequate):
        permutohedron_distance_sq((2, 1), (0, 1))


def test_permutohedron_distance_equals_entropy_random():
    rng = random.Random(123)
    points = list(permutations(range(1, 7)))
    for _ in range(1000):
        w = rng.choice(points)
        x = rng.choice(points)
        assert permutohedron_distance_sq(w, x) == entropy(w)


def test_cosine_probe():
    probe = cosine_range_probe(8, 30)
    assert 16 in probe["missing"]
    assert 1 in probe["attained"]
    # the probe reports exactly what the finite search finds
    brute = set()
    for n in range(1, 9):
        if cosine(longest_permutation(n)) > 30:
            break
        for w in permutations(range(1, n + 1)):
            c = cosine(w)
            if c <= 30:
                brute.add(c)
    assert set(probe["attained"]) == brute
    small = cosine_range_probe(2, 1)
    assert small["attained"] == (1,)
