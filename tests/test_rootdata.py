import math
from fractions import Fraction

import pytest
import sympy

from atomic.errors import DimensionMismatch, IndexOutOfRange, InvalidType, NotDominant
from atomic.fixtures import W0_CLASSICAL, W0_CLOSED_FORMS, W0_EXCEPTIONAL
from atomic.rootdata import (
    TypeLabel,
    classical_root,
    parse_type,
    root_system,
)
from test_parabolic import ALL_TYPES_TO_RANK_8

ALL_TYPES = [
    "A1", "A2", "A3", "A4", "A5", "A6",
    "B2", "B3", "B4", "B5",
    "C2", "C3", "C4", "C5",
    "D4", "D5", "D6",
    "E6", "E7", "E8", "F4", "G2",
]

# |Phi^+| per family, as a function of the rank (Bourbaki, planches I-IX)
POSITIVE_ROOT_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


def expected_positive_root_count(label: TypeLabel) -> int:
    return POSITIVE_ROOT_COUNT[label.family](label.rank)


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


CLASSICAL_TYPES = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)]
)


def bourbaki_labels(family, n):
    """(kind, i, j, ambient vector) for every positive root label, and the
    ambient simple roots, as in the Bourbaki planches."""
    dim = n + 1 if family == "A" else n

    def e(*pairs):
        v = [0] * dim
        for k, c in pairs:
            v[k - 1] += c
        return v

    simple = [e((i, 1), (i + 1, -1)) for i in range(1, dim)]
    simple += {"A": [], "B": [e((n, 1))], "C": [e((n, 2))], "D": [e((n - 1, 1), (n, 1))]}[family]
    pairs = [(i, j) for i in range(1, dim) for j in range(i + 1, dim + 1)]
    labels = [("diff", i, j, e((i, 1), (j, -1))) for i, j in pairs]
    if family != "A":
        labels += [("sum", i, j, e((i, 1), (j, 1))) for i, j in pairs]
    if family in "BC":
        kind, c = ("short", 1) if family == "B" else ("long", 2)
        labels += [(kind, i, None, e((i, c))) for i in range(1, n + 1)]
    return labels, simple


@pytest.mark.parametrize("label", CLASSICAL_TYPES)
def test_classical_labels_are_the_positive_roots(label):
    system = root_system(label)
    labels, simple = bourbaki_labels(system.label.family, system.rank)
    dot = lambda u, v: sum(a * b for a, b in zip(u, v))
    roots = [classical_root(system, kind, i, j) for kind, i, j, _ in labels]
    assert sorted(roots) == sorted(system.positive_roots)
    for root, (_, _, _, v) in zip(roots, labels):
        pairings = tuple(Fraction(2 * dot(v, a), dot(a, a)) for a in simple)
        assert system.fund_coords(root) == pairings


@pytest.mark.parametrize("label, kind, i, j", [
    ("B3", "long", 1, None),  # 2 e_1 is twice a short root
    ("A3", "sum", 1, 2),  # e_1 + e_2 is not in the span of the roots
    ("C3", "short", 1, None),  # e_1 is a weight, not in the root lattice
    ("D4", "short", 1, None),
])
def test_classical_non_root_labels_are_refused(label, kind, i, j):
    with pytest.raises(ValueError, match="is not a root"):
        classical_root(root_system(label), kind, i, j)


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
        assert wt.dominant
        assert not system.weight(-1, *[0] * (system.rank - 1)).dominant


def test_weight_coordinates_are_checked_integers():
    a2 = root_system("A2")
    for wt in (a2.weight(Fraction(4, 2), 1), a2.rho, a2.fundamental_weight(2)):
        assert all(type(c) is int for c in wt.fund)
    assert a2.weight(Fraction(4, 2), -1).fund == (2, -1)
    assert (Fraction(3) * a2.rho - a2.fundamental_weight(1)).fund == (2, 3)
    with pytest.raises(NotDominant, match=r"weight \(Fraction\(1, 2\), 0\)"):
        a2.weight(Fraction(1, 2), 0)
    with pytest.raises(NotDominant):
        Fraction(1, 2) * a2.rho


def test_systems_are_cached():
    assert root_system("B3") is root_system("B3")
    assert root_system("B3") is not root_system("B3~")


@pytest.mark.parametrize("spec", ALL_TYPES_TO_RANK_8 + ("A16", "D16"))
def test_scaled_cartan_inverse_against_sympy(spec):
    system = root_system(spec)
    n, scale, scaled = system.rank, system.weight_scale, system._scaled_cartan_inv
    # A (S A^{-1}) = S I, in integers
    for i, row in enumerate(system.cartan):
        for j in range(n):
            assert sum(a * scaled[k][j] for k, a in enumerate(row)) == scale * (i == j)
    inverse = sympy.Matrix(system.cartan).inv()
    assert sympy.Matrix(scaled) == scale * inverse
    # S is the least common denominator of A^{-1}
    assert scale == math.lcm(*(int(sympy.fraction(c)[1]) for c in inverse))
    assert system.rho_coords == tuple(sum(row, Fraction(0)) for row in inverse.tolist())
