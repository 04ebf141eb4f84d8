"""Acceptance suite: one test per criterion, exact comparisons throughout.

Each test finishes by printing a single PASS line (visible with `pytest -s`
or in the captured section of a failing run).  Stated wall-clock budgets are
asserted where the criteria give one.  The pinned tables live in
`atomic.fixtures`; a criterion that asserts exactly what one fixture group of
`atomic verify` checks runs that group.
"""

import random
import time
from itertools import permutations

from atomic.rootdata import root_system
from atomic import affine, atomiclen, cores, fixtures, perms, susanfe, weyl


def _announce(number, message):
    print(f"criterion {number:02d}: PASS - {message}")


def assert_fixture_group(check):
    """Run one fixture group of `atomic verify`; fail naming every failed label."""
    results = check()
    failed = [label for label, ok, _ in results if not ok]
    assert not failed, f"fixture checks failed: {', '.join(failed)}"
    return results


def test_criterion_01_rank2_images():
    start = time.time()
    assert_fixture_group(fixtures.check_rank2_image_sets)
    elapsed = time.time() - start
    assert elapsed < 1.0
    _announce(1, f"rank-2 image sets exact ({elapsed:.2f}s)")


def test_criterion_02_w0_closed_forms():
    start = time.time()
    checked = len(assert_fixture_group(fixtures.check_longest_element_values))
    elapsed = time.time() - start
    assert elapsed < 1.0
    _announce(2, f"{checked} longest-element values, both routes ({elapsed:.2f}s)")


def test_criterion_03_surjectivity_exhaustive():
    quick = ["A3", "A4", "A5", "A6", "B3", "B4", "B5", "C3", "C4", "C5",
             "D4", "D5", "D6", "F4", "E6"]
    for label in quick:
        system = root_system(label)
        report = atomiclen.image_set(system, system.rho)
        assert report.missing == (), label
    start = time.time()
    e7 = root_system("E7")
    report = atomiclen.image_set(e7, e7.rho)
    elapsed = time.time() - start
    assert report.missing == () and report.max_value == fixtures.W0_EXCEPTIONAL["E7"]
    assert report.orbit_size == 2903040
    assert elapsed < 600.0
    # E8 answers too: the recursion is bounded by its memo, not by the orbit
    e8 = root_system("E8")
    report = atomiclen.image_set(e8, e8.rho)
    assert report.missing == () and report.max_value == fixtures.W0_EXCEPTIONAL["E8"]
    _announce(3, f"full intervals through E8 (E7 walk {elapsed:.0f}s)")


def test_criterion_04_induction_agrees():
    labels = ["A3", "A4", "A5", "B3", "B4", "C3", "C4", "D4", "D5"]
    for label in labels:
        system = root_system(label)
        sp = susanfe.special_reflection(system)
        assert sp.constant == fixtures.STEP_CONSTANTS[label[0]](system.rank)
        rec = susanfe.surjectivity_susanfe_induction(system)
        direct = atomiclen.image_set(system, system.rho)
        assert rec.values == direct.values
    _announce(4, f"induction reconstruction matches direct images on {len(labels)} types")


def test_criterion_05_susanfe_fixtures():
    start = time.time()
    assert_fixture_group(fixtures.check_shi_patterns)
    for label in ("A3", "B3"):
        system = root_system(label)
        t = susanfe.special_reflection(system).element
        sub = weyl.standard_parabolic(system, range(2, system.rank + 1))
        conj = weyl.ReflectionSubgroup(
            system, [t * s * t for s in sub.simple_reflections]
        )
        for w in conj.elements():
            assert susanfe.susanfe_decomposition_check(t, w, sub)
    elapsed = time.time() - start
    assert elapsed < 10.0
    _announce(5, f"Shi patterns entrywise + decomposition identity ({elapsed:.2f}s)")


def test_criterion_06_scaled_inversion_sets():
    assert_fixture_group(fixtures.check_scaled_inversion_sets)
    a4 = root_system("A4")
    lam = a4.weight(*fixtures.SCALED_INVERSION_WEIGHT)
    words = 0
    for w in weyl.enumerate_group(a4):
        target = tuple((lam - w.act_weight(lam)).root)
        for word in weyl.reduced_words(w):
            inv = atomiclen.lambda_inversion_set(a4, word, lam)
            assert inv.total() == target
            words += 1
    _announce(6, f"scaled inversion sets over {words} reduced words")


def test_criterion_07_property_suites():
    for label in ("A4", "D4"):
        system = root_system(label)
        for w in weyl.enumerate_group(system):
            assert atomiclen.atomic_length(w) == atomiclen.atomic_length(w.inverse())
    g2 = root_system("G2")
    w = weyl.evaluate(g2, (2, 1))
    assert atomiclen.atomic_length(w) == 3
    assert atomiclen.atomic_length(w.inverse()) == 5

    for label in ("A3", "B2"):
        system = root_system(label)
        w0 = weyl.longest_element(system)
        for lam in (system.rho, system.fundamental_weight(1)):
            top = atomiclen.lambda_atomic_length(w0, lam)
            for w in weyl.enumerate_group(system):
                value = atomiclen.lambda_atomic_length(w, lam)
                assert atomiclen.lambda_atomic_length(w0 * w, lam) == top - value
                assert value <= top

    a3 = root_system("A3")
    for w in weyl.enumerate_group(a3):
        for i in (1, 2, 3):
            ws = w * weyl.simple_reflection(a3, i)
            if ws.length() > w.length():
                for lam in (a3.rho, a3.weight(2, 0, 1)):
                    assert atomiclen.lambda_atomic_length(
                        w, lam
                    ) <= atomiclen.lambda_atomic_length(ws, lam)

    for label in ("A3", "B3"):
        system = root_system(label)
        for indices in ([1, 2], [2, 3], [1, 3], [1], [3]):
            sub = weyl.standard_parabolic(system, indices)
            for w in sub.elements():
                assert atomiclen.atomic_length(w) == sub.atomic_length_in_subgroup(w)
    _announce(7, "symmetry, antisymmetry, monotonicity and restriction suites")


def test_criterion_08_ideal_weights():
    start = time.time()
    assert_fixture_group(fixtures.check_ideal_weights)
    count = 0
    for label in ("A3", "B3", "C3", "D4", "D5"):
        system = root_system(label)
        for wt in atomiclen.minuscule_weights(system):
            assert atomiclen.is_ideal(system, wt).ideal
            count += 1
    elapsed = time.time() - start
    assert elapsed < 30.0
    _announce(8, f"C3 ideals exact, {count} minuscule weights ideal ({elapsed:.2f}s)")


def test_criterion_09_affine_table_and_dual_path():
    start = time.time()
    rows = assert_fixture_group(fixtures.check_affine_level_one_table)
    assert len(rows) == 12
    a2 = root_system("A2~")
    lam = affine.basic_weight(a2)

    # dual-path agreement on every word of length <= 10 (the closed form is
    # asserted against the direct action inside affine_atomic_length);
    # elements are extended one letter at a time down the word tree
    generators = [affine.affine_generator(a2, i) for i in range(3)]
    words = 0

    def walk(element, depth):
        nonlocal words
        affine.affine_atomic_length(element, lam)
        words += 1
        if depth == 10:
            return
        for gen in generators:
            walk(element * gen, depth + 1)

    walk(affine.affine_identity(a2), 0)
    elapsed = time.time() - start
    assert elapsed < 30.0
    _announce(9, f"12-row table exact, dual paths on {words} words ({elapsed:.1f}s)")


def test_criterion_10_cores_slice():
    start = time.time()
    sizes = cores.core_sizes(2, 5)
    assert set(sizes) == set(fixtures.THREE_CORE_SIZES)
    shaded = cores.orbit_cores(2, 5)
    assert shaded == {
        0: [()], 1: [(1,)], 2: [(1, 1), (2,)],
        4: [(2, 1, 1), (3, 1)], 5: [(3, 1, 1)],
    }
    for n in (3, 4, 5, 6):
        attained = cores.core_sizes(n, 200)
        assert set(attained) == set(range(201)), n
    # cores counted by the orbit walk, against the lattice ball
    for n in (1, 2, 3, 4):
        histogram = cores.lattice_value_histogram(n, 60)
        system = root_system(f"A{n}~")
        counted = affine.orbit_depth_histogram(system, affine.basic_weight(system), 60)
        for target in range(61):
            assert counted.get(target, 0) == histogram.get(target, 0), (n, target)
    elapsed = time.time() - start
    assert elapsed < 120.0
    _announce(10, f"core slices and lattice counts agree ({elapsed:.0f}s)")


def test_criterion_11_permutation_statistics():
    for n in range(1, 7):
        w0 = perms.longest_permutation(n)
        c0 = perms.cosine(w0)
        total = (n + 1) * n * (n - 1) // 6
        for w in permutations(range(1, n + 1)):
            iv = perms.invsum(w)
            assert perms.entropy(w) == 2 * iv
            assert perms.cosine(w) == c0 + perms.ninvsum(w)
            assert iv + perms.ninvsum(w) == total
            if n >= 2:
                assert iv == atomiclen.atomic_length(perms.to_weyl(w))
    rng = random.Random(2024)
    points = list(permutations(range(1, 7)))
    for _ in range(1000):
        w, x = rng.choice(points), rng.choice(points)
        assert perms.permutohedron_distance_sq(w, x) == perms.entropy(w)
    _announce(11, "entropy bridges exhaustive to n=6, 1000 permutohedron pairs")


def test_criterion_12_shi_admissibility_and_recursion():
    rng = random.Random(99)
    per_type = 3334
    checked = 0
    for label in ("A2~", "B2~", "C2~"):
        system = root_system(label)
        n = system.rank
        for _ in range(per_type):
            word = tuple(rng.randrange(0, n + 1) for _ in range(rng.randrange(0, 12)))
            w = affine.affine_from_word(system, word)
            conj = tuple(rng.randrange(0, n + 1) for _ in range(rng.randrange(0, 5)))
            t = (
                affine.affine_from_word(system, conj)
                * affine.affine_generator(system, rng.randrange(0, n + 1))
                * affine.affine_from_word(system, tuple(reversed(conj)))
            )
            k_w = affine.shi_vector(w)
            k_t = affine.shi_vector(t)
            k_tw = affine.shi_vector(t * w)
            assert k_w.is_admissible() and k_tw.is_admissible()
            for alpha in system.positive_roots:
                assert k_tw[alpha] == k_w[t.fbar.act_root(alpha)] + k_t[alpha]
            checked += 1
    assert checked >= 10000
    _announce(12, f"admissibility and reflection recursion on {checked} elements")
