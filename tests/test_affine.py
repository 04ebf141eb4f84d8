import random
from fractions import Fraction
from itertools import product

import pytest

from atomic.errors import IndexOutOfRange, InvalidType, NegativeBound, NotDominant
from atomic.fixtures import AFFINE_A2_TABLE, shi_minus_ones, shi_pattern
from atomic.rootdata import root_system
from atomic.affine import (
    AffineWeight,
    affine_atomic_length,
    affine_decomposition_check,
    affine_from_word,
    affine_generator,
    affine_identity,
    affine_image_probe,
    affine_length,
    affine_weight,
    act_element_on_weight,
    act_word_on_weight,
    alcove_point,
    basic_weight,
    embed_finite,
    level_one_atomic_length,
    shi_vector,
    translation_lattice_basis,
    weight_reflect,
)
from atomic.weyl import enumerate_group, evaluate


def all_words(alphabet, max_len):
    for length in range(max_len + 1):
        yield from product(alphabet, repeat=length)


def test_requires_affine_label():
    with pytest.raises(InvalidType):
        affine_identity(root_system("A2"))
    with pytest.raises(IndexOutOfRange):
        affine_generator(root_system("A2~"), 3)


def test_from_word_basic_rows():
    a2 = root_system("A2~")
    w = affine_from_word(a2, (0,))
    assert w.beta == (1, 1)
    assert w.fbar == evaluate(a2, (2, 1, 2))
    assert affine_from_word(a2, ()).is_identity()
    w = affine_from_word(a2, (2, 1, 0))
    assert w.beta == (0, -1) and w.fbar == evaluate(a2, (1,))


def test_word_action_matches_geometric_action():
    rng = random.Random(3)
    a2 = root_system("A2~")
    sample = (Fraction(5, 7), Fraction(-2, 9))
    for _ in range(100):
        word = tuple(rng.randrange(0, 3) for _ in range(rng.randrange(0, 9)))
        element = affine_from_word(a2, word)
        # fold the generators' affine maps directly on a sample point
        point = sample
        for i in reversed(word):
            gen = affine_generator(a2, i)
            point = gen.apply_point(point)
        assert element.apply_point(sample) == point


def test_shi_identity_and_finite_restriction():
    for label in ("A2~", "B2~", "C3~"):
        system = root_system(label)
        assert shi_vector(affine_identity(system)).coefficients == (0,) * len(
            system.positive_roots
        )
        for wbar in enumerate_group(system):
            vec = shi_vector(embed_finite(system, wbar))
            inversions = set(wbar.inversion_set())
            for root, k in vec.as_dict().items():
                assert k in (0, -1)
                assert (k == -1) == (root in inversions)


def test_shi_alcove_point_is_interior():
    for label in ("A2~", "B3~", "G2~"):
        system = root_system(label)
        x0 = alcove_point(system)
        h = system.coxeter_number
        for beta in system.positive_roots:
            value = system.inner_product(beta, x0)
            assert value == Fraction(sum(beta), h)
            assert 0 < value < 1


def test_shi_fixture_a4():
    vec, want = shi_pattern("a4-highest-reflection")
    assert shi_minus_ones(vec) == want
    assert set(vec.coefficients) <= {0, -1}
    assert vec.pyramid_rows() == [[-1, 0, 0, -1], [-1, 0, -1], [-1, -1], [-1]]


def test_shi_fixture_b4_both_reflections():
    for name in ("b4-highest-reflection", "b4-short-reflection"):
        vec, want = shi_pattern(name)
        assert shi_minus_ones(vec) == want, name


def test_shi_fixture_c4():
    vec, want = shi_pattern("c4-highest-reflection")
    assert shi_minus_ones(vec) == want


def test_shi_admissibility_random_words():
    rng = random.Random(5)
    for label in ("A2~", "B2~", "C2~"):
        system = root_system(label)
        n = system.rank
        for _ in range(300):
            word = tuple(rng.randrange(0, n + 1) for _ in range(rng.randrange(0, 14)))
            vec = shi_vector(affine_from_word(system, word))
            assert vec.is_admissible()


def test_shi_reflection_recursion():
    # k(tw, a) = k(w, t(a)) + k(t, a), with k(w, -a) = -k(w, a) on negatives
    rng = random.Random(6)
    for label in ("A2~", "B2~", "C2~"):
        system = root_system(label)
        n = system.rank
        for _ in range(250):
            w = affine_from_word(
                system, tuple(rng.randrange(0, n + 1) for _ in range(rng.randrange(0, 10)))
            )
            conj = tuple(rng.randrange(0, n + 1) for _ in range(rng.randrange(0, 5)))
            t = (
                affine_from_word(system, conj)
                * affine_generator(system, rng.randrange(0, n + 1))
                * affine_from_word(system, tuple(reversed(conj)))
            )
            k_t, k_w, k_tw = shi_vector(t), shi_vector(w), shi_vector(t * w)
            for alpha in system.positive_roots:
                assert k_tw[alpha] == k_w[t.fbar.act_root(alpha)] + k_t[alpha]


def test_affine_length_matches_word_length_on_table():
    a2 = root_system("A2~")
    for word in [(), (0,), (1, 0), (2, 1, 0), (0, 2, 1, 0), (0, 2, 1, 2, 0)]:
        assert affine_length(affine_from_word(a2, word)) == len(word)


def test_weight_reflect_zero_node():
    a2 = root_system("A2~")
    lam = basic_weight(a2)
    image = weight_reflect(lam, 0)
    # s_0(L0) = L0 - alpha_0: finite part +theta, delta coefficient -1
    assert image.finite == (1, 1)
    assert image.level == 1
    assert image.delta_coeff == -1
    assert weight_reflect(image, 0) == lam


def test_weight_action_dual_paths():
    for label, max_len in (("A2~", 8), ("C2~", 6)):
        system = root_system(label)
        n = system.rank
        lam = basic_weight(system)
        for word in all_words(range(n + 1), max_len):
            element = affine_from_word(system, word)
            assert act_word_on_weight(system, word, lam) == act_element_on_weight(
                element, lam
            )


def test_finite_action_embeds():
    a2 = root_system("A2~")
    lam = AffineWeight(a2, a2.root_coords((1, 2)), 0, Fraction(0))
    for wbar in enumerate_group(a2):
        image = act_element_on_weight(embed_finite(a2, wbar), lam)
        assert image.level == 0 and image.delta_coeff == 0
        assert image.finite == wbar.act_root(lam.finite)


def test_affine_atomic_length_table():
    a2 = root_system("A2~")
    lam = basic_weight(a2)
    for word, *_, value in AFFINE_A2_TABLE:
        element = affine_from_word(a2, word)
        assert affine_atomic_length(element, lam) == value
        assert level_one_atomic_length(a2, element.beta) == value


def test_affine_atomic_length_requires_dominant():
    a2 = root_system("A2~")
    bad = AffineWeight(a2, a2.root_coords((-1, 0)), 1, Fraction(0))
    with pytest.raises(NotDominant):
        affine_atomic_length(affine_identity(a2), bad)
    # level too small for the finite part: m_0 < 0
    bad = AffineWeight(a2, a2.root_coords((1, 1)), 1, Fraction(0))
    with pytest.raises(NotDominant):
        affine_atomic_length(affine_identity(a2), bad)


def test_dual_path_lengths_many_words():
    # the two computation paths inside affine_atomic_length assert equality;
    # drive them over full word balls, extending elements letter by letter
    for label, max_len in (("A3~", 8), ("C2~", 8)):
        system = root_system(label)
        n = system.rank
        lam = basic_weight(system)
        generators = [affine_generator(system, i) for i in range(n + 1)]

        def walk(element, depth):
            assert affine_atomic_length(element, lam) >= 0
            if depth < max_len:
                for gen in generators:
                    walk(element * gen, depth + 1)

        walk(affine_identity(system), 0)


def test_dual_path_higher_level_weights():
    for label in ("A2~", "C2~"):
        system = root_system(label)
        n = system.rank
        weights = [
            affine_weight(system, (1, 1) + (0,) * (n - 1)),
            affine_weight(system, (0,) * n + (1,)),
        ]
        for word in all_words(range(n + 1), 5):
            element = affine_from_word(system, word)
            for lam in weights:
                assert affine_atomic_length(element, lam) >= 0


def test_level_one_values():
    a2 = root_system("A2~")
    assert level_one_atomic_length(a2, (0, 0)) == 0
    assert level_one_atomic_length(a2, (1, 1)) == 1
    assert level_one_atomic_length(a2, (1, -1)) == 9


def test_level_one_independent_of_finite_part():
    rng = random.Random(9)
    a2 = root_system("A2~")
    lam = basic_weight(a2)
    finite_elements = sorted(enumerate_group(a2), key=lambda w: (w.length(), w.cols))
    for _ in range(20):
        beta_word = tuple(rng.randrange(0, 3) for _ in range(rng.randrange(0, 8)))
        beta = affine_from_word(a2, beta_word).beta
        values = set()
        for wbar in finite_elements:
            from atomic.affine import AffineElement

            element = AffineElement(a2, beta, wbar)
            values.add(affine_atomic_length(element, lam))
        assert values == {level_one_atomic_length(a2, beta)}


def test_decomposition_identity():
    rng = random.Random(10)
    a2 = root_system("A2~")
    weights = [
        basic_weight(a2),
        affine_weight(a2, (1, 1, 0)),
        affine_weight(a2, (0, 1, 0)),
        affine_weight(a2, (2, 0, 1)),
    ]
    for _ in range(150):
        word = tuple(rng.randrange(0, 3) for _ in range(rng.randrange(0, 9)))
        element = affine_from_word(a2, word)
        for lam in weights:
            assert affine_decomposition_check(element, lam)


def test_affine_weight_constructor():
    a2 = root_system("A2~")
    lam = affine_weight(a2, (1, 0, 0))
    assert lam == basic_weight(a2)
    lam = affine_weight(a2, (0, 1, 0))
    assert lam.level == 1 and lam.m0 == 0
    with pytest.raises(IndexOutOfRange):
        affine_weight(a2, (1, 0))


def test_translation_lattice():
    a2 = root_system("A2~")
    assert translation_lattice_basis(a2) == ((1, 0), (0, 1))  # root lattice
    b2 = root_system("B2~")
    basis = translation_lattice_basis(b2)
    assert basis == ((1, 0), (0, 2))  # alpha_1 long, alpha_2 short doubled
    # beta of every word lies in the lattice
    rng = random.Random(11)
    for _ in range(100):
        word = tuple(rng.randrange(0, 3) for _ in range(rng.randrange(0, 9)))
        beta = affine_from_word(b2, word).beta
        assert beta[1] % 2 == 0


def test_image_probe_a2():
    a2 = root_system("A2~")
    report = affine_image_probe(a2, basic_weight(a2), radius=24)
    assert report.certified_max >= 20
    assert report.missing[:2] == (3, 7)
    assert 0 in report.attained and 1 in report.attained


def test_image_probe_a3_interval():
    a3 = root_system("A3~")
    report = affine_image_probe(a3, basic_weight(a3), radius=24)
    assert report.certified_max >= 30
    assert not [m for m in report.missing if m <= 30]


def test_image_probe_radius_zero():
    a2 = root_system("A2~")
    report = affine_image_probe(a2, basic_weight(a2), radius=0)
    assert report.attained == (0,) and report.certified_max == 0
    with pytest.raises(NegativeBound):
        affine_image_probe(a2, basic_weight(a2), radius=-1)


def test_image_probe_higher_level_weight():
    a2 = root_system("A2~")
    lam = affine_weight(a2, (1, 1, 0))
    report = affine_image_probe(a2, lam, radius=12)
    assert 0 in report.attained
    assert report.certified_max >= 4


def test_non_dominant_value_regression():
    # level-zero weight omega_2 in B2~ takes the value -1 on some elements,
    # which is why the public operation insists on dominance
    b2 = root_system("B2~")
    lam = AffineWeight(b2, b2.root_coords((0, 1)), 0, Fraction(0))

    def raw_value(word):
        mu = act_word_on_weight(b2, word, lam)
        return sum(a - b for a, b in zip(lam.finite, mu.finite)) + (
            b2.dual_coxeter_number * (lam.delta_coeff - mu.delta_coeff)
        )

    assert raw_value((2, 0)) == -1
    assert raw_value((1, 0, 1, 2, 1, 0, 2)) == 3  # frozen under this word order
    with pytest.raises(NotDominant):
        affine_atomic_length(affine_from_word(b2, (2, 0)), lam)
