import pytest

from atomic.errors import PreconditionViolation, UnsupportedType
from atomic.fixtures import W0_CLOSED_FORMS
from atomic.rootdata import classical_root, root_system
from atomic.atomiclen import atomic_length, image_set
from atomic.susanfe import (
    list_susanfe_reflections,
    restricted_atomic_length,
    special_reflection,
    surjectivity_susanfe_induction,
    susanfe_check,
    susanfe_decomposition_check,
)
from atomic.weyl import (
    ReflectionSubgroup,
    evaluate,
    identity_element,
    inversion_set_from_word,
    root_reflection,
    standard_parabolic,
)


def test_highest_root_reflection_is_susanfe():
    for label in ("A3", "B3", "C3", "D4", "F4", "G2", "E6"):
        system = root_system(label)
        t = root_reflection(system, system.highest_root)
        report = susanfe_check(t)
        assert report.is_susanfe
        assert set(report.inversion_set) | set(report.fixed_roots) == set(
            system.positive_roots
        )


def test_identity_susanfe_vacuously():
    # fix_e is all of Phi+ and N(e) is empty, so the defining equation
    # N(w) = Phi+ \ fix_w holds with both sides empty.
    a2 = root_system("A2")
    report = susanfe_check(identity_element(a2))
    assert report.fixed_roots == a2.positive_roots
    assert report.inversion_set == ()
    assert report.is_susanfe


def test_simple_reflection_usually_not_susanfe():
    a3 = root_system("A3")
    report = susanfe_check(evaluate(a3, (1,)))
    assert not report.is_susanfe  # e24 is neither fixed nor inverted


def test_b4_short_reflection_susanfe_with_parabolic_fix():
    b4 = root_system("B4")
    t_prime = evaluate(b4, (1, 2, 3, 4, 3, 2, 1))
    report = susanfe_check(t_prime)
    assert report.is_susanfe
    sub = standard_parabolic(b4, [2, 3, 4])
    assert set(report.fixed_roots) == set(sub.phi_plus)
    # every inversion of t' avoids the parabolic
    assert not any(sub.contains_root(r) for r in report.inversion_set)


def test_restricted_atomic_length_degenerate():
    a3 = root_system("A3")
    full = standard_parabolic(a3, [1, 2, 3])
    t = root_reflection(a3, a3.highest_root)
    assert restricted_atomic_length(t, full) == 0


@pytest.mark.parametrize(
    "label,expected",
    [
        ("A2", 3), ("A3", 6), ("A4", 10), ("A5", 15),      # binom(n+1, 2)
        ("B3", 15), ("B4", 28), ("B5", 45),                # 2n^2 - n
        ("C3", 15), ("C4", 28), ("C5", 45),
        ("D4", 17), ("D5", 31), ("D6", 49),                # 2n^2 - 4n + 1
    ],
)
def test_special_reflection_constants(label, expected):
    system = root_system(label)
    sp = special_reflection(system)
    assert sp.constant == expected
    assert susanfe_check(sp.element).is_susanfe
    assert sp.parabolic_indices == tuple(range(2, system.rank + 1))
    # the stated word is reduced and evaluates to a reflection
    assert len(inversion_set_from_word(system, sp.word)) == sp.element.length()


def test_special_reflection_words():
    a4 = root_system("A4")
    sp = special_reflection(a4)
    assert sp.word == (1, 2, 3, 4, 3, 2, 1)
    e = lambda i, j: classical_root(a4, "diff", i, j)
    sub = standard_parabolic(a4, sp.parabolic_indices)
    from atomic.weyl import a_decomposition

    _, rest = a_decomposition(sp.element, sub)
    assert set(rest.inversion_set()) == {e(1, j) for j in range(2, 6)}

    c4 = root_system("C4")
    spc = special_reflection(c4)
    _, rest = a_decomposition(spc.element, standard_parabolic(c4, spc.parabolic_indices))
    assert rest == spc.element  # t_I = e


def test_special_reflection_unsupported():
    with pytest.raises(UnsupportedType):
        special_reflection(root_system("F4"))
    with pytest.raises(UnsupportedType):
        special_reflection(root_system("A3"), kind="B")


def test_type_a_restricted_length_values():
    # L(t, I) = L(rest-of-parabolic-split) = binom(n+1, 2) in type A
    for n in (3, 4, 5):
        system = root_system(f"A{n}")
        t = root_reflection(system, system.highest_root)
        sub = standard_parabolic(system, range(2, n + 1))
        assert restricted_atomic_length(t, sub) == n * (n + 1) // 2


def test_type_d_restricted_length_values():
    for n in (4, 5, 6):
        system = root_system(f"D{n}")
        t = root_reflection(system, system.highest_root)
        sub = standard_parabolic(system, range(2, n + 1))
        assert restricted_atomic_length(t, sub) == 2 * n * n - 4 * n + 1


def test_decomposition_check_identity_case():
    a3 = root_system("A3")
    t = root_reflection(a3, a3.highest_root)
    sub = standard_parabolic(a3, [2, 3])
    assert susanfe_decomposition_check(t, identity_element(a3), sub)


@pytest.mark.parametrize("label", ["A3", "B3"])
def test_decomposition_check_exhaustive(label):
    system = root_system(label)
    t = special_reflection(system).element
    sub = standard_parabolic(system, range(2, system.rank + 1))
    conj = ReflectionSubgroup(system, [t * s * t for s in sub.simple_reflections])
    for w in conj.elements():
        assert susanfe_decomposition_check(t, w, sub)


def test_decomposition_check_preconditions():
    a3 = root_system("A3")
    sub = standard_parabolic(a3, [2, 3])
    with pytest.raises(PreconditionViolation):
        susanfe_decomposition_check(evaluate(a3, (1, 2)), identity_element(a3), sub)
    t = root_reflection(a3, a3.highest_root)
    outside = evaluate(a3, (3,))  # W_B = t W_I t permutes only {1, 2, 3}
    with pytest.raises(PreconditionViolation):
        susanfe_decomposition_check(t, outside, sub)


@pytest.mark.parametrize(
    "label", ["A3", "A4", "A5", "B3", "B4", "B5", "C3", "C4", "C5", "D4", "D5", "D6"]
)
def test_induction_matches_direct_image(label):
    system = root_system(label)
    rec = surjectivity_susanfe_induction(system)
    direct = image_set(system, system.rho)
    assert rec.values == direct.values
    assert rec.max_value == direct.max_value


def test_induction_step_arithmetic():
    # b_n + K_{n+1} reproduces b_{n+1} (off by one in type D)
    closed = W0_CLOSED_FORMS
    for fam, ranks in (("A", (4, 5, 6)), ("B", (5, 6)), ("C", (5, 6)), ("D", (6, 7))):
        for n in ranks:
            system = root_system(f"{fam}{n}")
            k = special_reflection(system).constant
            b_prev, b_here = closed[fam](n - 1), closed[fam](n)
            if fam == "D":
                assert b_prev + k == b_here - 1
            else:
                assert b_prev + k == b_here
            assert k <= b_prev  # the two intervals overlap


def test_unsupported_induction():
    with pytest.raises(UnsupportedType):
        surjectivity_susanfe_induction(root_system("F4"))


def test_list_susanfe_reflections_b4():
    b4 = root_system("B4")
    rows = list_susanfe_reflections(b4)
    roots = {r for r, _, _, _ in rows}
    assert b4.highest_root in roots
    # the short reflection from the palindromic word shows up with L = 28
    t_prime = evaluate(b4, (1, 2, 3, 4, 3, 2, 1))
    found = [row for row in rows if row[1] == t_prime]
    assert found and found[0][2] == 28 and found[0][3] == 28
