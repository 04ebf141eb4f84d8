import gc
import random
import weakref
from collections import deque
from itertools import combinations
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from atomic import weyl
from atomic.errors import (
    IndexOutOfRange,
    InvariantViolation,
    NotAReflection,
    NotReduced,
    SubgroupTooLarge,
    SystemMismatch,
)
from atomic.rootdata import RootSystem, classical_root, parse_type, root_system
from atomic.weyl import (
    ReflectionSubgroup,
    a_decomposition,
    dominant_orbit_size,
    enumerate_group,
    evaluate,
    group_order,
    identity_element,
    inversion_set_from_word,
    longest_element,
    parabolic_order,
    reduced_words,
    root_reflection,
    simple_reflection,
    standard_parabolic,
    utopic_check,
)
from atomic.atomiclen import image_set
from atomic.susanfe import special_reflection
from test_parabolic import ALL_TYPES_TO_RANK_8


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


def test_reflections_live_and_die_with_their_system():
    # reflections are kept on the system that built them: a fresh system of
    # a type seen before gets its own, and drops them when it is dropped
    simple_reflection(root_system("D5"), 1)
    fresh = RootSystem(parse_type("D5"))
    assert simple_reflection(fresh, 1).system is fresh
    assert root_reflection(fresh, fresh.highest_root).system is fresh
    e6 = RootSystem(parse_type("E6"))
    for i in range(1, 7):
        simple_reflection(e6, i)
    assert len(enumerate_group(e6, [root_reflection(e6, e6.highest_root)])) == 2
    alive = weakref.ref(e6)
    del e6
    gc.collect()
    assert alive() is None


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


def mutual_closure(system, gen_roots):
    """Reference closure: every root found is reflected in every other, in
    both orders, until nothing new appears (quadratic in |Phi_A^+|)."""
    closure = set()
    pending = deque(gen_roots)
    while pending:
        c = pending.popleft()
        if c in closure:
            continue
        rc = root_reflection(system, c)
        for x in list(closure):
            for img in (rc.act_root(x), root_reflection(system, x).act_root(c)):
                pos = img if any(v > 0 for v in img) else tuple(-v for v in img)
                if pos not in closure:
                    pending.append(pos)
        closure.add(c)
    return closure


def reference_subgroup(system, generators):
    """(phi_plus, delta, cartan) from the mutual closure, Dyer's definition
    of Delta_A and the form."""
    gen_roots = [weyl.reflection_root(system, t) for t in generators]
    phi = tuple(sorted(mutual_closure(system, gen_roots), key=system.root_index.get))
    delta = tuple(
        a for a in phi if set(root_reflection(system, a).inversion_set()) & set(phi) == {a}
    )
    g = system.scaled_inner_product
    cartan = []
    for a in delta:
        row = [divmod(2 * g(b, a), g(a, a)) for b in delta]
        assert all(r == 0 for _, r in row)
        cartan.append(tuple(q for q, _ in row))
    return phi, delta, tuple(cartan)


def subgroup_data(sub):
    return sub.phi_plus, sub.delta, sub.cartan


@pytest.mark.parametrize("label", ["A3", "B3", "C3", "D4", "G2", "F4"])
def test_root_closure_matches_mutual_reflection(label):
    system = root_system(label)
    for a, b in combinations(system.positive_roots, 2):
        gens = [root_reflection(system, a), root_reflection(system, b)]
        assert subgroup_data(ReflectionSubgroup(system, gens)) == reference_subgroup(
            system, gens
        )


@pytest.mark.parametrize("label", ["A3", "A4", "B3", "B4", "C3", "C4", "D4", "D5"])
def test_root_closure_matches_mutual_reflection_on_susanfe_conjugates(label):
    system = root_system(label)
    t = special_reflection(system).element
    sub = standard_parabolic(system, range(2, system.rank + 1))
    assert subgroup_data(sub) == reference_subgroup(system, sub.generators)
    gens = [t * s * t for s in sub.simple_reflections]
    assert subgroup_data(ReflectionSubgroup(system, gens)) == reference_subgroup(
        system, gens
    )


def test_root_closure_reflects_each_root_once_per_generator(monkeypatch):
    # the A10 parabolic on nodes 2..10: 45 positive roots, 9 generators; the
    # mutual closure applies about 2 * 45 * 44 / 2 reflections
    a10 = root_system("A10")
    gens = [simple_reflection(a10, i) for i in range(2, 11)]
    calls = []
    real_reflect, real_closure = weyl._reflect, weyl._root_closure

    def counting_reflect(refl, x):
        calls.append(1)
        return real_reflect(refl, x)

    def counted_closure(refls):
        monkeypatch.setattr(weyl, "_reflect", counting_reflect)
        try:
            return real_closure(refls)
        finally:
            monkeypatch.setattr(weyl, "_reflect", real_reflect)

    monkeypatch.setattr(weyl, "_root_closure", counted_closure)
    sub = ReflectionSubgroup(a10, gens)
    assert len(sub.phi_plus) == 45 and len(sub.delta) == 9
    assert 0 < len(calls) <= 45 * 9


def test_subgroup_root_coordinates_nonnegative():
    a3 = root_system("A3")
    sub = ReflectionSubgroup(a3, [evaluate(a3, (1, 2, 1)), evaluate(a3, (3,))])
    columns = sympy.Matrix(sub.delta).T
    for a in sub.phi_plus:
        coords, free = columns.gauss_jordan_solve(sympy.Matrix(a))
        assert free.shape[0] == 0
        assert all(c >= 0 and c.is_integer for c in coords)


def test_a_decomposition_basic():
    a3, b3 = root_system("A3"), root_system("B3")
    # the long roots of B3 (D3 = A3, through alpha_1, alpha_2 and theta)
    # are a reflection subgroup that no parabolic subgroup is conjugate to
    long_roots = ReflectionSubgroup(
        b3, [root_reflection(b3, beta) for beta in ((1, 0, 0), (0, 1, 0), (1, 2, 2))]
    )
    assert len(long_roots.phi_plus) == 6
    for sub in (standard_parabolic(a3, [1, 2]), long_roots):
        parabolic = sub.system is a3
        for w in enumerate_group(sub.system):
            w_a, rest = a_decomposition(w, sub)
            assert w_a * rest == w
            assert w_a in sub.elements()
            assert not any(sub.contains_root(r) for r in rest.inversion_set())
            if parabolic:  # lengths add
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


def test_group_enumeration_cap_boundary(monkeypatch):
    a3 = root_system("A3")
    monkeypatch.setattr(weyl, "GROUP_ENUMERATION_CAP", 24)
    assert len(enumerate_group(a3)) == 24
    # the cap is read at call time, also through a reflection subgroup
    assert len(standard_parabolic(a3, [1, 2, 3]).elements()) == 24
    monkeypatch.setattr(weyl, "GROUP_ENUMERATION_CAP", 23)
    with pytest.raises(SubgroupTooLarge, match="more than 23 elements"):
        enumerate_group(a3)
    with pytest.raises(SubgroupTooLarge):
        standard_parabolic(a3, [1, 2, 3]).elements()


SMALL_RANK_TYPES = (
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "F4", "G2",
)
# sympy refuses C2 (its type C starts at rank 3)
SYMPY_TYPES = tuple(spec for spec in ALL_TYPES_TO_RANK_8 if spec != "C2")


@pytest.mark.parametrize("spec", SMALL_RANK_TYPES)
def test_parabolic_orders_match_enumeration(spec):
    system = root_system(spec)
    nodes = range(1, system.rank + 1)
    for size in range(system.rank + 1):
        for subset in combinations(nodes, size):
            gens = [simple_reflection(system, i) for i in subset]
            assert parabolic_order(system, subset) == len(enumerate_group(system, gens))


@pytest.mark.parametrize("spec", SYMPY_TYPES)
def test_group_order_and_cartan_match_sympy(spec):
    weyl_group = pytest.importorskip("sympy.liealgebras.weyl_group")
    cartan_module = pytest.importorskip("sympy.liealgebras.cartan_matrix")
    system = root_system(spec)
    assert group_order(system) == int(weyl_group.WeylGroup(spec).group_order())
    if spec == "A1":
        return  # sympy cannot build the 1 x 1 Cartan matrix
    theirs = cartan_module.CartanMatrix(spec).tolist()
    if system.label.family in "BCFG":
        theirs = [list(col) for col in zip(*theirs)]  # sympy's a_ij is our a_ji
    assert [list(row) for row in system.cartan] == theirs


@pytest.mark.parametrize("index", [0, -1, 3])
def test_parabolic_order_rejects_bad_index(index):
    with pytest.raises(IndexOutOfRange):
        parabolic_order(root_system("A2"), [1, index])


def fake_system(root_supports):
    # with a table of its own, as the products are kept on the system
    return SimpleNamespace(rank=1, root_supports=root_supports, _derived={})


def test_parabolic_order_rejects_a_fractional_product():
    fake = fake_system(((0b1, 1), (0b1, 2)))  # 2 * 3/2 = 3
    assert parabolic_order(fake, [1]) == 3
    fake = fake_system(((0b1, 2),))
    with pytest.raises(InvariantViolation, match="3/2"):
        parabolic_order(fake, [1])


def test_utopic_counts_type_b():
    # Exploratory census; the counts are regression-frozen from this
    # implementation (they exceed the reflection count, as they must).
    frozen = {"B2": 8, "B3": 32, "B4": 192}
    for label, expected in frozen.items():
        assert _utopic_count(label) == expected


# -- the descent-tree enumeration against a breadth-first reference -------------


def bfs_group(system, generators):
    """Reference: breadth-first search of the Cayley graph, keeping each
    product by a generator that has not been seen yet."""
    e = identity_element(system)
    seen = {e}
    queue = deque([e])
    while queue:
        w = queue.popleft()
        for g in generators:
            x = w * g
            if x not in seen:
                seen.add(x)
                queue.append(x)
    return seen


@pytest.mark.parametrize("spec", SMALL_RANK_TYPES)
def test_enumerate_group_matches_bfs_on_every_parabolic(spec):
    system = root_system(spec)
    nodes = range(1, system.rank + 1)
    for size in range(system.rank + 1):
        for subset in combinations(nodes, size):
            gens = [simple_reflection(system, i) for i in subset]
            want = bfs_group(system, gens)
            assert enumerate_group(system, gens) == want
            assert standard_parabolic(system, subset).elements() == want


def test_enumerate_group_matches_bfs_on_e6():
    e6 = root_system("E6")
    gens = [simple_reflection(e6, i) for i in range(1, 7)]
    got = enumerate_group(e6)
    assert len(got) == 51840
    assert got == bfs_group(e6, gens)


def reflection_subgroups():
    """Subgroups given by reflections that are not simple: the A3 example
    (1,2,1), (3); the conjugates t W_I t of the Susanfe checks in A3, B3 and
    B4 (t the special reflection, I = 2..n); <s_theta, s_3> in B3; and the
    long-root subgroups of B4 (type D4) and G2 (type A2)."""
    a3, b3 = root_system("A3"), root_system("B3")
    yield ReflectionSubgroup(a3, [evaluate(a3, (1, 2, 1)), evaluate(a3, (3,))])
    for label in ("A3", "B3", "B4"):
        system = root_system(label)
        t = special_reflection(system).element
        sub = standard_parabolic(system, range(2, system.rank + 1))
        yield ReflectionSubgroup(system, [t * s * t for s in sub.simple_reflections])
    yield ReflectionSubgroup(
        b3, [root_reflection(b3, b3.highest_root), simple_reflection(b3, 3)]
    )
    for label in ("B4", "G2"):
        system = root_system(label)
        norm = system.scaled_inner_product
        yield ReflectionSubgroup(system, [
            root_reflection(system, r) for r in system.positive_roots
            if norm(r, r) == 2 * system.gram_scale
        ])


def test_enumerate_group_matches_bfs_on_canonical_generators():
    orders = []
    for sub in reflection_subgroups():
        simple = {sub.system.simple_root(i) for i in range(1, sub.system.rank + 1)}
        if not set(sub.delta) <= simple:
            orders.append(len(sub.elements()))
        assert sub.elements() == bfs_group(sub.system, sub.generators)
    assert orders == [6, 4, 192, 6]  # the subgroups that are not parabolic


def test_enumerate_group_builds_each_element_once(monkeypatch):
    for label, order in (("D5", 1920), ("F4", 1152)):
        system = root_system(label)
        for i in range(1, system.rank + 1):
            simple_reflection(system, i)  # cached before counting
        built = []
        real = weyl._element

        def counting(*args, **kwargs):
            built.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(weyl, "_element", counting)
        assert len(enumerate_group(system)) == order
        monkeypatch.setattr(weyl, "_element", real)
        assert len(built) == order


@pytest.mark.parametrize("spec", ["B4", "C4", "D5", "F4", "G2"])
def test_descent_tree_depth_is_the_atomic_length(spec):
    # enumerate_group walks the heights ht(w(a_j)) on the transposed pairs
    # <a_j, a_i^vee>; each node's depth must then be L(w), by L(w s_i) =
    # L(w) + ht(w(alpha_i)), checked per node against the inversion set of
    # the element built along the same tree.  The untransposed matrix gives
    # the same tree with depth L(w^-1), so the same histogram (w -> w^-1 is
    # a bijection) but wrong depths outside the simply-laced types.
    system = root_system(spec)
    simple = [system.simple_root(i) for i in range(1, system.rank + 1)]
    g = system.scaled_inner_product
    pairs = [[2 * g(a_j, a_i) // g(a_i, a_i) for a_j in simple] for a_i in simple]
    bound = sum(system.height(r) for r in system.positive_roots)
    order = group_order(system)

    def walk(matrix):
        overflow = AssertionError(f"more than {order} nodes")
        return list(weyl._descent_tree(matrix, [1] * system.rank, bound, order, overflow))

    tree, untransposed = walk(list(zip(*pairs))), walk(pairs)
    assert [node[:2] for node in tree] == [node[:2] for node in untransposed]
    elements, hist, wrong = [], {}, 0
    for (parent, i, depth, _), (_, _, other, _) in zip(tree, untransposed):
        w = identity_element(system)
        if parent is not None:
            w = elements[parent] * simple_reflection(system, i + 1)
        elements.append(w)
        value = sum(system.height(r) for r in w.inversion_set())
        assert depth == value
        wrong += other != value
        hist[depth] = hist.get(depth, 0) + 1
    assert len(set(elements)) == len(tree) == order
    assert hist == image_set(system, system.rho, histogram=True).histogram
    assert (wrong > 0) == (spec != "D5")


def test_enumerate_group_refuses_a_non_simple_system():
    a2, a3, b3, c3 = (root_system(label) for label in ("A2", "A3", "B3", "C3"))
    with pytest.raises(NotAReflection):
        enumerate_group(a3, [evaluate(a3, (1, 2))])
    with pytest.raises(SystemMismatch):
        enumerate_group(a3, [simple_reflection(a2, 1)])
    with pytest.raises(SystemMismatch):
        enumerate_group(b3, [simple_reflection(c3, 1)])
    # <alpha_1, (alpha_1 + alpha_2)^vee> = 1, and a repeated root pairs to 2
    for gens in (
        [simple_reflection(a3, 1), evaluate(a3, (1, 2, 1))],
        [simple_reflection(a3, 2), simple_reflection(a3, 2)],
    ):
        with pytest.raises(ValueError, match="not a simple system"):
            enumerate_group(a3, gens)


# -- inversion sets and reflections against the flat matrix ---------------------


def image(w, x):
    """w(x) = sum_j x_j w(alpha_j), from the columns of the matrix."""
    return tuple(sum(c * col[k] for c, col in zip(x, w.cols)) for k in range(len(x)))


@pytest.mark.parametrize("spec", ["G2", "B4", "D4", "F4"])
def test_inversion_set_matches_negated_images(spec):
    system = root_system(spec)
    for w in enumerate_group(system):
        want = [tuple(-c for c in image(w, b)) for b in system.positive_roots]
        want = [r for r in want if r in system.root_index]
        assert w.inversion_set() == tuple(sorted(want, key=system.root_index.get))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    label=st.sampled_from(["A4", "B3", "C4", "D5", "E6", "F4", "G2"]),
    data=st.data(),
)
def test_reflection_acts_as_its_matrix(label, data):
    system = root_system(label)
    x = data.draw(st.lists(st.integers(-9, 9), min_size=system.rank, max_size=system.rank))
    for beta in system.positive_roots:
        t = root_reflection(system, beta)
        assert t.act_root(x) == image(t, x)
        assert t.act_root(tuple(x)) == image(t, x)
