from fractions import Fraction

import pytest

from atomic.errors import InvalidType, NotDominant, NotReduced, OrbitTooLarge
from atomic.fixtures import (
    C3_IDEAL_VALUES,
    MINUSCULE_NODES,
    RANK2_IMAGES,
    W0_CLASSICAL,
    W0_CLOSED_FORMS,
    W0_EXCEPTIONAL,
)
from atomic.rootdata import classical_root, root_system
from atomic.atomiclen import (
    atomic_length,
    atomic_length_w0,
    image_set,
    is_ideal,
    lambda_atomic_length,
    lambda_inversion_set,
    minuscule_weights,
)
from atomic.weyl import (
    enumerate_group,
    evaluate,
    identity_element,
    longest_element,
    reduced_words,
    simple_reflection,
    standard_parabolic,
)


def brute_force_image(system, lam):
    """Oracle: evaluate the statistic element by element over the whole group."""
    return sorted({lambda_atomic_length(w, lam) for w in enumerate_group(system)})


def test_atomic_length_small_values():
    a2 = root_system("A2")
    assert atomic_length(identity_element(a2)) == 0
    assert atomic_length(evaluate(a2, (1, 2))) == 3
    assert atomic_length(evaluate(a2, (2, 1))) == 3
    assert atomic_length(longest_element(a2)) == 4
    a3 = root_system("A3")
    assert atomic_length(longest_element(a3)) == 10


def test_lambda_length_at_rho_and_zero():
    for label in ("A2", "B2"):
        system = root_system(label)
        rho = system.rho
        zero = system.weight(*[0] * system.rank)
        for w in enumerate_group(system):
            assert lambda_atomic_length(w, rho) == atomic_length(w)
            assert lambda_atomic_length(w, zero) == 0


def test_lambda_length_c3_example():
    c3 = root_system("C3")
    lam = c3.weight(2, 1, 1)
    assert lambda_atomic_length(longest_element(c3), lam) == 27


def test_lambda_length_rejects_non_dominant():
    a2 = root_system("A2")
    w = evaluate(a2, (1,))
    with pytest.raises(NotDominant):
        lambda_atomic_length(w, a2.weight(-1, 0))
    with pytest.raises(NotDominant):
        lambda_atomic_length(w, a2.weight(Fraction(1, 2), 0))


def test_lambda_inversion_set_two_words():
    a4 = root_system("A4")
    m = (1, 2, 3, 4)
    lam = a4.weight(*m)
    e = lambda i, j: classical_root(a4, "diff", i, j)
    scale = lambda k, r: tuple(m[k - 1] * c for c in r)

    first = lambda_inversion_set(a4, (1, 2, 1, 3, 4, 3), lam)
    assert sorted(first.vectors()) == sorted(
        [scale(1, e(1, 2)), scale(1, e(2, 3)), scale(2, e(1, 3)),
         scale(3, e(1, 4)), scale(3, e(4, 5)), scale(4, e(1, 5))]
    )
    second = lambda_inversion_set(a4, (2, 1, 4, 2, 3, 4), lam)
    assert sorted(second.vectors()) == sorted(
        [scale(1, e(1, 3)), scale(2, e(2, 3)), scale(2, e(1, 2)),
         scale(3, e(1, 5)), scale(4, e(1, 4)), scale(4, e(4, 5))]
    )
    # both words evaluate to the same element and sum to lambda - w(lambda)
    w = evaluate(a4, (1, 2, 1, 3, 4, 3))
    assert evaluate(a4, (2, 1, 4, 2, 3, 4)) == w
    diff = lam - w.act_weight(lam)
    assert first.total() == second.total() == tuple(diff.root)
    assert first.height_sum() == lambda_atomic_length(w, lam)


def test_lambda_inversion_set_tags_and_rho_case():
    a2 = root_system("A2")
    inv = lambda_inversion_set(a2, (1, 2), a2.rho)
    assert set(inv.vectors()) == set(evaluate(a2, (1, 2)).inversion_set())
    assert [(entry.j, entry.k) for entry in inv.entries] == [(1, 1), (2, 1)]
    with pytest.raises(NotReduced):
        lambda_inversion_set(a2, (1, 1), a2.rho)


def test_lambda_inversion_sum_identity_all_words_a4():
    a4 = root_system("A4")
    lam = a4.weight(1, 0, 2, 1)
    for w in enumerate_group(a4):
        target = tuple((lam - w.act_weight(lam)).root)
        for word in reduced_words(w):
            inv = lambda_inversion_set(a4, word, lam)
            assert inv.total() == target
            assert inv.height_sum() == lambda_atomic_length(w, lam)


def test_image_rank2_tables():
    for label, values in RANK2_IMAGES.items():
        system = root_system(label)
        report = image_set(system, system.rho)
        assert report.values == values
        assert report.max_value == values[-1]
        assert report.values[0] == 0


def test_image_matches_brute_force():
    for label in ("A3", "B3"):
        system = root_system(label)
        for lam in (system.rho, system.weight(1, 0, 2), system.weight(0, 1, 0)):
            report = image_set(system, lam)
            assert list(report.values) == brute_force_image(system, lam)


def test_image_histogram_and_orbit_size():
    a2 = root_system("A2")
    report = image_set(a2, a2.rho, histogram=True)
    assert report.orbit_size == 6
    assert report.histogram == {0: 1, 1: 2, 3: 2, 4: 1}
    # stabiliser shrinks the orbit: omega_1 has a 2-element stabiliser
    report = image_set(a2, a2.weight(1, 0))
    assert report.orbit_size == 3


def test_image_c3_missing_values():
    c3 = root_system("C3")
    report = image_set(c3, c3.weight(1, 2, 1))
    assert report.missing == (3, 12, 18, 27)
    assert report.max_value == 30


def test_image_orbit_cap():
    b3 = root_system("B3")
    with pytest.raises(OrbitTooLarge):
        image_set(b3, b3.rho, cap=10)


def test_image_refuses_affine_label():
    a2 = root_system("A2~")
    with pytest.raises(InvalidType):
        image_set(a2, a2.rho)


def test_w0_closed_forms():
    for label in W0_CLASSICAL:
        system = root_system(label)
        want = W0_CLOSED_FORMS[system.label.family](system.rank)
        assert atomic_length_w0(system, system.rho) == want
    cases = {**W0_EXCEPTIONAL, "A3": W0_CLOSED_FORMS["A"](3)}
    for label, value in cases.items():
        system = root_system(label)
        assert atomic_length_w0(system, system.rho) == value
        zero = system.weight(*[0] * system.rank)
        assert atomic_length_w0(system, zero) == 0


def test_is_ideal_c3_examples():
    c3 = root_system("C3")
    for coords, values in C3_IDEAL_VALUES.items():
        rep = is_ideal(c3, c3.weight(*coords))
        assert rep.ideal == (values == tuple(range(len(values)))), coords
        assert rep.image.values == values
        assert rep.image.max_value == values[-1]


def test_is_ideal_fast_reject():
    for label in ("A3", "B3", "G2"):
        system = root_system(label)
        two_rho = system.weight(*[2] * system.rank)
        rep = is_ideal(system, two_rho)
        assert not rep.ideal and rep.image is None


def test_minuscule_classification():
    for label, nodes in MINUSCULE_NODES.items():
        system = root_system(label)
        got = {
            next(i + 1 for i, c in enumerate(wt.fund) if c)
            for wt in minuscule_weights(system)
        }
        assert got == set(nodes), label


def test_minuscule_weights_are_ideal():
    for label in ("A3", "B3", "C3", "D4", "D5"):
        system = root_system(label)
        for wt in minuscule_weights(system):
            assert is_ideal(system, wt).ideal, (label, wt)


# -- invariant properties ----------------------------------------------------


def test_simply_laced_symmetry():
    for label in ("A2", "A3", "A4", "A5", "D4", "D5"):
        system = root_system(label)
        for w in enumerate_group(system):
            assert atomic_length(w) == atomic_length(w.inverse())


def test_g2_symmetry_counterexample():
    g2 = root_system("G2")
    w = evaluate(g2, (2, 1))
    assert atomic_length(w) == 3
    assert atomic_length(w.inverse()) == 5
    assert w.inverse() == evaluate(g2, (1, 2))


def test_w0_antisymmetry():
    for label in ("A2", "B2", "A3", "C3"):
        system = root_system(label)
        w0 = longest_element(system)
        weights = [system.rho, system.fundamental_weight(1),
                   system.weight(*([1] + [0] * (system.rank - 2) + [2]))]
        for lam in weights:
            top = lambda_atomic_length(w0, lam)
            for w in enumerate_group(system):
                assert (
                    lambda_atomic_length(w0 * w, lam)
                    == top - lambda_atomic_length(w, lam)
                )


def test_w0_maximality():
    for label in ("A3", "B3", "G2"):
        system = root_system(label)
        w0 = longest_element(system)
        for lam in (system.rho, system.fundamental_weight(system.rank)):
            top = lambda_atomic_length(w0, lam)
            assert all(
                lambda_atomic_length(w, lam) <= top for w in enumerate_group(system)
            )


def test_weak_order_monotone():
    # covers of the right weak order; monotone on covers implies monotone
    a3 = root_system("A3")
    weights = [a3.rho, a3.weight(1, 0, 2), a3.weight(0, 2, 0)]
    for w in enumerate_group(a3):
        for i in range(1, 4):
            ws = w * simple_reflection(a3, i)
            if ws.length() > w.length():
                for lam in weights:
                    assert lambda_atomic_length(w, lam) <= lambda_atomic_length(ws, lam)


def test_parabolic_restriction():
    for label in ("A3", "B3"):
        system = root_system(label)
        for indices in ([1], [2], [1, 2], [2, 3], [1, 3]):
            sub = standard_parabolic(system, indices)
            for w in sub.elements():
                assert atomic_length(w) == sub.atomic_length_in_subgroup(w)


def test_rho_difference_equals_inversion_sum():
    for label in ("A3", "B3", "G2"):
        system = root_system(label)
        rho = system.rho
        for w in enumerate_group(system):
            diff = tuple((rho - w.act_weight(rho)).root)
            acc = tuple(
                sum(col) for col in zip(*(w.inversion_set() or [(0,) * system.rank]))
            )
            assert diff == acc
