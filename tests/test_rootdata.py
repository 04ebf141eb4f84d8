from fractions import Fraction

import pytest

from atomic.errors import DimensionMismatch, IndexOutOfRange, InvalidType
from atomic.fixtures import W0_CLASSICAL, W0_CLOSED_FORMS, W0_EXCEPTIONAL
from atomic.rootdata import (
    TypeLabel,
    classical_root,
    expected_positive_root_count,
    parse_type,
    root_system,
)

ALL_TYPES = [
    "A1", "A2", "A3", "A4", "A5", "A6",
    "B2", "B3", "B4", "B5",
    "C2", "C3", "C4", "C5",
    "D4", "D5", "D6",
    "E6", "E7", "E8", "F4", "G2",
]


def test_parse_type_variants():
    assert parse_type("A5") == TypeLabel("A", 5)
    assert parse_type("B4") == TypeLabel("B", 4)
    assert parse_type("A2~") == TypeLabel("A", 2, affine=True)
    assert parse_type("A2^(1)") == TypeLabel("A", 2, affine=True)
    assert str(parse_type("D6")) == "D6"


@pytest.mark.parametrize("bad", ["H3", "A0", "B1", "D3", "E9", "F5", "G3", "xyz", "E5"])
def test_invalid_types_rejected(bad):
    with pytest.raises(InvalidType):
        parse_type(bad)


@pytest.mark.parametrize("label", ALL_TYPES)
def test_positive_root_counts(label):
    system = root_system(label)
    assert len(system.positive_roots) == expected_positive_root_count(system.label)


@pytest.mark.parametrize("label", ALL_TYPES)
def test_root_ordering_and_sign_structure(label):
    system = root_system(label)
    heights = [sum(r) for r in system.positive_roots]
    assert heights == sorted(heights)
    for r in system.positive_roots:
        assert all(c >= 0 for c in r)
    # the highest root dominates every positive root coordinatewise
    theta = system.highest_root
    for r in system.positive_roots:
        assert all(t - c >= 0 for t, c in zip(theta, r))


@pytest.mark.parametrize("label", ALL_TYPES)
def test_bilinear_form_normalisation(label):
    system = root_system(label)
    theta = system.highest_root
    assert system.inner_product(theta, theta) == 2
    # symmetry and positivity on the simple roots
    n = system.rank
    for i in range(n):
        a = system.simple_root(i + 1)
        assert system.inner_product(a, a) > 0
        for j in range(n):
            b = system.simple_root(j + 1)
            assert system.inner_product(a, b) == system.inner_product(b, a)


@pytest.mark.parametrize("label", ALL_TYPES)
def test_height_equals_rho_check_pairing(label):
    system = root_system(label)
    # <beta, rho^vee> is the coordinate sum by construction; confirm it also
    # matches the bilinear pairing with the rho^vee vector h*x0 of the form.
    for beta in system.positive_roots:
        assert system.height(beta) == sum(beta)
        fund = system.fund_coords(beta)
        assert sum(Fraction(c) for c in system.root_coords(fund)) == sum(beta)


def test_heights_type_a_and_b():
    a5 = root_system("A5")
    for i in range(1, 6):
        for j in range(i + 1, 7):
            assert sum(classical_root(a5, "diff", i, j)) == j - i
    b4 = root_system("B4")
    assert sum(b4.highest_root) == 2 * (4 + 1) - (1 + 2)
    for i in range(1, 5):
        for j in range(i + 1, 5):
            assert sum(classical_root(b4, "sum", i, j)) == 2 * (4 + 1) - (i + j)
        assert sum(classical_root(b4, "short", i)) == 4 - i + 1


def test_height_zero_vector():
    a2 = root_system("A2")
    assert a2.height((0, 0)) == 0


def test_pairing_values():
    a2 = root_system("A2")
    assert a2.pairing(a2.simple_root(1), 1) == 2
    assert a2.pairing(a2.simple_root(2), 1) == -1
    for label in ("A3", "B3", "G2"):
        system = root_system(label)
        omega1 = system.fundamental_weight(1)
        assert system.pairing(omega1.root, 2) == 0
        assert system.pairing(omega1.root, 1) == 1
    with pytest.raises(IndexOutOfRange):
        a2.pairing((1, 0), 3)


def test_inner_product_values():
    a2 = root_system("A2")
    theta = a2.highest_root
    assert a2.inner_product(theta, theta) == 2
    a3 = root_system("A3")
    assert 2 * sum(a3.rho_coords) == W0_CLOSED_FORMS["A"](3)
    with pytest.raises(DimensionMismatch):
        a2.inner_product((1, 0), (1, 0, 0))


def test_simple_reflection_permutes_roots():
    for label in ("A3", "B3", "C3", "G2", "F4"):
        system = root_system(label)
        n = system.rank
        for i in range(1, n + 1):
            alpha = system.simple_root(i)
            images = set()
            for beta in system.positive_roots:
                pair = system.pairing(beta, i)
                img = tuple(b - pair * a for b, a in zip(beta, alpha))
                assert system.is_root(img)
                images.add(img)
            # s_i permutes Phi+ \ {alpha_i} and negates alpha_i
            assert tuple(-c for c in alpha) in images
            assert images - {tuple(-c for c in alpha)} <= set(system.positive_roots)


def test_rho_data_and_affine_labels():
    for label in W0_CLASSICAL:
        system = root_system(label)
        want = W0_CLOSED_FORMS[system.label.family](system.rank)
        assert 2 * sum(system.rho_coords) == want
    for label, val in W0_EXCEPTIONAL.items():
        system = root_system(label)
        assert 2 * sum(system.rho_coords) == val
    for label in ALL_TYPES:
        system = root_system(label)
        assert system.comarks[0] == 1
        assert system.coxeter_number == 1 + sum(system.highest_root)


def test_g2_conventions():
    g2 = root_system("G2")
    assert g2.highest_root == (3, 2)
    assert sorted(sum(r) for r in g2.positive_roots) == [1, 1, 2, 3, 4, 5]
    # alpha_1 short, alpha_2 long under the Bourbaki convention
    assert g2.inner_product(g2.simple_root(1), g2.simple_root(1)) == Fraction(2, 3)
    assert g2.inner_product(g2.simple_root(2), g2.simple_root(2)) == 2


def test_coxeter_numbers():
    values = {
        "A3": (4, 4), "B4": (8, 7), "C4": (8, 5), "D5": (8, 8),
        "E6": (12, 12), "E7": (18, 18), "E8": (30, 30),
        "F4": (12, 9), "G2": (6, 4),
    }
    for label, (h, hv) in values.items():
        system = root_system(label)
        assert (system.coxeter_number, system.dual_coxeter_number) == (h, hv)


def test_weight_coordinates_roundtrip():
    for label in ("A3", "B3", "F4"):
        system = root_system(label)
        wt = system.weight(*range(1, system.rank + 1))
        back = system.fund_coords(wt.root)
        assert tuple(back) == wt.fund
        assert wt.is_dominant() and wt.is_integral()
        assert not system.weight(-1, *[0] * (system.rank - 1)).is_dominant()


def test_systems_are_cached():
    assert root_system("B3") is root_system("B3")
    assert root_system("B3") is not root_system("B3~")
