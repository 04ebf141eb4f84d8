import random

import pytest

from atomic.errors import NotAReflection, NotReduced, SystemMismatch
from atomic.linalg import solve_columns
from atomic.rootdata import classical_root, root_system
from atomic import weyl
from atomic.weyl import (
    ReflectionSubgroup,
    a_decomposition,
    enumerate_group,
    evaluate,
    identity_element,
    inversion_set_from_word,
    longest_element,
    reduced_words,
    root_reflection,
    simple_reflection,
    standard_parabolic,
    utopic_check,
)


def test_evaluate_identity_and_involution():
    a2 = root_system("A2")
    assert evaluate(a2, ()).is_identity()
    s1 = simple_reflection(a2, 1)
    assert (s1 * s1).is_identity()


def test_act_simple_reflection():
    a2 = root_system("A2")
    s1 = simple_reflection(a2, 1)
    assert s1.act_root(a2.simple_root(2)) == (1, 1)


def test_system_mismatch():
    a2, a3 = root_system("A2"), root_system("A3")
    with pytest.raises(SystemMismatch):
        simple_reflection(a2, 1) * simple_reflection(a3, 1)


def test_inversion_sets_small():
    a2 = root_system("A2")
    assert identity_element(a2).inversion_set() == ()
    # the two elements of length two carry {alpha_1, theta} and {alpha_2, theta}
    got = {
        evaluate(a2, (1, 2)).inversion_set(),
        evaluate(a2, (2, 1)).inversion_set(),
    }
    assert got == {((1, 0), (1, 1)), ((0, 1), (1, 1))}


def test_inversion_set_a3_example():
    a3 = root_system("A3")
    e = lambda i, j: classical_root(a3, "diff", i, j)
    w = evaluate(a3, (1, 2, 1, 3))
    assert set(w.inversion_set()) == {e(1, 2), e(1, 3), e(2, 3), e(1, 4)}


def test_inversion_set_from_word():
    a2 = root_system("A2")
    assert inversion_set_from_word(a2, (1,)) == ((1, 0),)
    assert inversion_set_from_word(a2, (1, 2)) == ((1, 0), (1, 1))
    a4 = root_system("A4")
    e = lambda i, j: classical_root(a4, "diff", i, j)
    got = inversion_set_from_word(a4, (1, 2, 1, 3, 4, 3))
    # entries in word-position order; as a set {e12, e23, e13, e14, e45, e15}
    assert got == (e(1, 2), e(1, 3), e(2, 3), e(1, 4), e(1, 5), e(4, 5))
    assert set(got) == {e(1, 2), e(2, 3), e(1, 3), e(1, 4), e(4, 5), e(1, 5)}
    with pytest.raises(NotReduced):
        inversion_set_from_word(a2, (1, 1))
    with pytest.raises(NotReduced):
        inversion_set_from_word(a2, (1, 2, 1, 2))


def test_word_inversions_match_element_inversions():
    for label in ("A3", "B3"):
        system = root_system(label)
        for w in enumerate_group(system):
            word = w.reduced_word()
            assert set(inversion_set_from_word(system, word)) == set(w.inversion_set())


def test_length_and_reduced_word():
    a2 = root_system("A2")
    e = identity_element(a2)
    assert e.length() == 0 and e.reduced_word() == ()
    w0 = longest_element(a2)
    assert w0.length() == 3
    b2 = root_system("B2")
    assert longest_element(b2).length() == 4
    for label in ("A3", "B3", "G2"):
        system = root_system(label)
        for w in enumerate_group(system):
            word = w.reduced_word()
            assert len(word) == w.length()
            assert evaluate(system, word) == w


def test_longest_element_properties():
    for label in ("A1", "A3", "B3", "C3", "D4", "G2", "F4"):
        system = root_system(label)
        w0 = longest_element(system)
        assert set(w0.inversion_set()) == set(system.positive_roots)
        assert (w0 * w0).is_identity()
        # -w0 permutes the simple roots
        for i in range(1, system.rank + 1):
            img = tuple(-c for c in w0.act_root(system.simple_root(i)))
            assert img in {system.simple_root(j) for j in range(1, system.rank + 1)}


def test_longest_element_one_line_form():
    from atomic import perms

    w0 = longest_element(root_system("A3"))
    assert perms.to_weyl((4, 3, 2, 1)) == w0


def test_inversion_determines_element():
    for label in ("A3", "B3"):
        system = root_system(label)
        seen = {}
        for w in enumerate_group(system):
            key = w.inversion_set()
            assert key not in seen
            seen[key] = w


def test_weak_order_prefix_monotone():
    a3 = root_system("A3")
    for w in enumerate_group(a3):
        for word in reduced_words(w):
            inv = set()
            prefix_sets = []
            for k in range(len(word) + 1):
                prefix_sets.append(set(inversion_set_from_word(a3, word[:k])))
            for small, big in zip(prefix_sets, prefix_sets[1:]):
                assert small <= big


def test_decomposition_identity_random_factorisations():
    rng = random.Random(7)
    for label in ("A3", "B3"):
        system = root_system(label)
        elements = sorted(enumerate_group(system), key=lambda w: (w.length(), w.cols))
        for _ in range(150):
            u, v = rng.choice(elements), rng.choice(elements)
            w = u * v
            if w.length() == u.length() + v.length():
                expected = set(u.inversion_set()) | {
                    tuple(u.act_root(b)) for b in v.inversion_set()
                }
                assert set(w.inversion_set()) == expected


def test_reflection_subgroup_example():
    a3 = root_system("A3")
    e = lambda i, j: classical_root(a3, "diff", i, j)
    sub = ReflectionSubgroup(a3, [evaluate(a3, (1, 2, 1)), evaluate(a3, (3,))])
    assert set(sub.delta) == {e(1, 3), e(3, 4)}
    assert set(sub.phi_plus) == {e(1, 3), e(3, 4), e(1, 4)}
    assert sub.cartan == ((2, -1), (-1, 2))  # type A2
    assert len(sub.elements()) == 6


def test_reflection_subgroup_single_and_full():
    a3 = root_system("A3")
    sub = ReflectionSubgroup(a3, [simple_reflection(a3, 1)])
    assert sub.phi_plus == (a3.simple_root(1),)
    full = standard_parabolic(a3, [1, 2, 3])
    assert set(full.phi_plus) == set(a3.positive_roots)


def test_reflection_subgroup_rejects_non_reflection():
    a3 = root_system("A3")
    with pytest.raises(NotAReflection):
        ReflectionSubgroup(a3, [evaluate(a3, (1, 2))])


def test_dyer_delta_characterisation():
    # Delta_A really is { a in Phi_A+ : N(s_a) cap Phi_A = {a} }
    b3 = root_system("B3")
    sub = ReflectionSubgroup(
        b3, [root_reflection(b3, b3.highest_root), simple_reflection(b3, 3)]
    )
    phi = set(sub.phi_plus)
    for a in sub.phi_plus:
        meets = set(root_reflection(b3, a).inversion_set()) & phi
        assert (meets == {a}) == (a in sub.delta)


def test_subgroup_root_coordinates_nonnegative():
    a3 = root_system("A3")
    sub = ReflectionSubgroup(a3, [evaluate(a3, (1, 2, 1)), evaluate(a3, (3,))])
    for a in sub.phi_plus:
        coords = solve_columns(sub.delta, a)
        assert all(c >= 0 and c.denominator == 1 for c in coords)


def test_a_decomposition_basic():
    a3 = root_system("A3")
    sub = standard_parabolic(a3, [1, 2])
    for w in enumerate_group(a3):
        w_a, rest = a_decomposition(w, sub)
        assert w_a * rest == w
        assert w_a in sub.elements()
        assert not any(sub.contains_root(r) for r in rest.inversion_set())
        # parabolic case: lengths add
        assert w.length() == w_a.length() + rest.length()


def test_a_decomposition_inside_subgroup():
    a3 = root_system("A3")
    sub = standard_parabolic(a3, [1, 2])
    for t in sub.elements():
        w_a, rest = a_decomposition(t, sub)
        assert w_a == t and rest.is_identity()


def test_a_decomposition_examples_from_lemmas():
    a4 = root_system("A4")
    t = evaluate(a4, (1, 2, 3, 4, 3, 2, 1))
    sub = standard_parabolic(a4, [2, 3, 4])
    w_a, rest = a_decomposition(t, sub)
    assert w_a == evaluate(a4, (4, 3, 2))
    assert rest == evaluate(a4, (1, 2, 3, 4))

    c4 = root_system("C4")
    t = evaluate(c4, (1, 2, 3, 4, 3, 2, 1))
    sub = standard_parabolic(c4, [2, 3, 4])
    w_a, rest = a_decomposition(t, sub)
    assert w_a.is_identity() and rest == t


def test_proposition_restricting_inversions():
    # N(w) cap Phi_A = N_A(w_A) for random w and reflection subgroups
    rng = random.Random(11)
    for label in ("A3", "B3"):
        system = root_system(label)
        elements = sorted(enumerate_group(system), key=lambda w: (w.length(), w.cols))
        reflections = [root_reflection(system, a) for a in system.positive_roots]
        for _ in range(25):
            gens = rng.sample(reflections, k=rng.randint(1, 2))
            sub = ReflectionSubgroup(system, gens)
            for _ in range(20):
                w = rng.choice(elements)
                w_a, _ = a_decomposition(w, sub)
                lhs = {r for r in w.inversion_set() if sub.contains_root(r)}
                assert lhs == set(sub.inversion_set_in_subgroup(w_a))


def test_utopic_reflections_and_identity():
    a3 = root_system("A3")
    for idx in ([1], [1, 2], [2, 3], [1, 3], [1, 2, 3]):
        sub = standard_parabolic(a3, idx)
        assert utopic_check(identity_element(a3), sub)
        for alpha in a3.positive_roots:
            assert utopic_check(root_reflection(a3, alpha), sub)


def test_utopic_reflections_b3_c3():
    for label in ("B3", "C3"):
        system = root_system(label)
        sub = standard_parabolic(system, [2, 3])
        for alpha in system.positive_roots:
            t = root_reflection(system, alpha)
            assert utopic_check(t, sub)
            # the image set is exactly W_I
            w_inv = t.inverse()
            images = {a_decomposition(t * (t * x * w_inv), sub)[0] for x in sub.elements()}
            assert images == sub.elements()


def _utopic_count(label):
    system = root_system(label)
    sub = standard_parabolic(system, range(2, system.rank + 1))
    cache = {}

    def parabolic_part(x):
        if x not in cache:
            cache[x] = a_decomposition(x, sub)[0]
        return cache[x]

    sub_elements = sorted(sub.elements(), key=lambda w: (w.length(), w.cols))
    count = 0
    for w in enumerate_group(system):
        w_inv = w.inverse()
        images = set()
        for t in sub_elements:
            img = parabolic_part(w * (w * t * w_inv))
            if img in images:
                break
            images.add(img)
        else:
            count += 1
    return count


def test_group_orders():
    from atomic.weyl import dominant_orbit_size, group_order, parabolic_order

    expected = {
        "A1": 2, "A4": 120, "B2": 8, "B4": 384, "C3": 48, "D4": 192,
        "D5": 1920, "E6": 51840, "E7": 2903040, "E8": 696729600,
        "F4": 1152, "G2": 12,
    }
    for label, order in expected.items():
        system = root_system(label)
        assert group_order(system) == order
        if order <= 500:
            assert len(enumerate_group(system)) == order

    e8 = root_system("E8")
    assert parabolic_order(e8, []) == 1
    assert parabolic_order(e8, [1, 3, 4, 5, 6, 7, 8]) == 40320  # A7 chain
    assert parabolic_order(e8, [2, 3, 4, 5]) == 192  # D4 star at node 4
    assert parabolic_order(e8, [1, 2]) == 4  # A1 x A1
    assert parabolic_order(root_system("B4"), [2, 3, 4]) == 48  # B3
    assert parabolic_order(root_system("F4"), [2, 3]) == 8  # B2

    a2 = root_system("A2")
    assert dominant_orbit_size(a2, (1, 1)) == 6
    assert dominant_orbit_size(a2, (1, 0)) == 3
    assert dominant_orbit_size(a2, (0, 0)) == 1


def test_utopic_counts_type_b():
    # Exploratory census; the counts are regression-frozen from this
    # implementation (they exceed the reflection count, as they must).
    frozen = {"B2": 8, "B3": 32, "B4": 192}
    for label, expected in frozen.items():
        assert _utopic_count(label) == expected
