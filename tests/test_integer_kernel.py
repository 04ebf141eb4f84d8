"""The integer kernel against a Fraction reference kept in this file.

The reference rebuilds what the kernel computes from the Cartan matrix and
the highest root alone, in exact rationals: the symmetrizer d normalised so
that (theta|theta) = 2, the bilinear form (x|y) = sum_i d_i x_i (A y)_i,
Gauss-Jordan inverses, the alcove point, reflections
x -> x - <x, beta^vee> beta, and affine words folded as (matrix,
translation) pairs.  The reference reads none of the kernel's integer Gram matrix,
form-based inverses or scaled weights; the tests compare against them.
`linalg.eliminate`, which builds them, is checked against its own
identities.
"""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import atomic
from atomic import affine, weyl
from atomic.atomiclen import lambda_atomic_length
from atomic.errors import InvariantViolation
from atomic.linalg import eliminate
from atomic.perms import to_weyl
from atomic.rootdata import root_system
from atomic.weyl import (
    WeylElement,
    enumerate_group,
    evaluate,
    root_reflection,
    simple_reflection,
)
from test_parabolic import ALL_TYPES_TO_RANK_8

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


# -- Fraction reference --------------------------------------------------------


@lru_cache(maxsize=None)
def ref_symmetrizer(system):
    """d_i a_ij = d_j a_ji propagated over the Dynkin graph, then scaled so
    that (theta|theta) = 2."""
    a, n = system.cartan, system.rank
    d = [None] * n
    d[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if j != i and a[i][j] != 0 and d[j] is None:
                d[j] = d[i] * a[i][j] / a[j][i]
                stack.append(j)
    theta = system.highest_root
    norm = sum(d[i] * a[i][j] * theta[i] * theta[j] for i in range(n) for j in range(n))
    return tuple(di * 2 / norm for di in d)


def ref_form(system, x, y):
    a, d = system.cartan, ref_symmetrizer(system)
    n = system.rank
    return sum(
        d[i] * Fraction(x[i]) * sum(a[i][j] * Fraction(y[j]) for j in range(n))
        for i in range(n)
    )


def ref_inverse(rows):
    """Gauss-Jordan over Fractions, rows in and rows out."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def rows_of(cols):
    return [list(r) for r in zip(*cols)]


def ref_apply(rows, x):
    return [sum(Fraction(r[j]) * x[j] for j in range(len(x))) for r in rows]


def ref_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def ref_reflection(system, root):
    """Rows of s_beta: column j is alpha_j - <alpha_j, beta^vee> beta."""
    n = system.rank
    norm = ref_form(system, root, root)
    cols = []
    for j in range(n):
        e = [int(k == j) for k in range(n)]
        pair = 2 * ref_form(system, e, root) / norm
        cols.append([Fraction(e[k]) - pair * root[k] for k in range(n)])
    return rows_of(cols)


def ref_affine_word(system, word):
    """Fold a word over {0..n} as x -> M x + beta, rightmost letter first."""
    n = system.rank
    matrix = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    beta = [Fraction(0)] * n
    theta = system.highest_root
    for i in word:
        if i == 0:
            g_rows, g_shift = ref_reflection(system, theta), [Fraction(t) for t in theta]
        else:
            g_rows, g_shift = ref_reflection(system, system.simple_root(i)), [Fraction(0)] * n
        # (M, b) o (G, g) = (M G, M g + b)
        beta = [x + y for x, y in zip(ref_apply(matrix, g_shift), beta)]
        matrix = ref_mul(matrix, g_rows)
    return matrix, beta


# -- the one elimination -----------------------------------------------------------


def check_elimination(rows):
    """A adj A = det A I; pivot rows zero before their pivot; det A the last
    pivot; and for a symmetric A the LDL^T identity
    A = sum_k R_k^T R_k / (p_{k-1} p_k), entry by entry in Fractions.  With
    the rows triangular, the identity makes each pivot a leading minor."""
    n = len(rows)
    det, adj, pivot_rows = eliminate(rows)
    assert [[sum(a * adj[k][j] for k, a in enumerate(row)) for j in range(n)]
            for row in rows] == [[det * (i == j) for j in range(n)] for i in range(n)]
    pivots = [r[k] for k, r in enumerate(pivot_rows)]
    assert all(r[:k] == (0,) * k for k, r in enumerate(pivot_rows))
    assert pivots[-1] == det
    if all(rows[i][j] == rows[j][i] for i in range(n) for j in range(n)):
        weights = [Fraction(1, p * q) for p, q in zip([1] + pivots, pivots)]
        ldl = [[sum(w * r[i] * r[j] for w, r in zip(weights, pivot_rows)) for j in range(n)]
               for i in range(n)]
        assert ldl == [list(row) for row in rows]


@PROPERTY
@given(data=st.data())
def test_eliminate_on_positive_definite_matrices(data):
    # M^T M + I is symmetric positive definite, so no leading minor vanishes
    n = data.draw(st.integers(1, 6))
    m = data.draw(st.lists(
        st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n
    ))
    check_elimination(tuple(
        tuple(sum(row[i] * row[j] for row in m) + (i == j) for j in range(n))
        for i in range(n)
    ))


@pytest.mark.parametrize("label", ALL_TYPES_TO_RANK_8)
def test_eliminate_on_cartan_and_gram_matrices(label):
    system = root_system(label)
    check_elimination(system.cartan)
    check_elimination(system.gram)


@pytest.mark.parametrize(
    "rows",
    [((0, 1), (1, 0)), ((1, 1), (1, 1)), ((1, 2, 3), (2, 4, 5), (3, 5, 6))],
    ids=["first", "singular", "invertible"],
)
def test_eliminate_refuses_a_vanishing_leading_minor(rows):
    # no pivoting: even an invertible matrix is refused at its zero minor
    with pytest.raises(ZeroDivisionError, match="leading minor"):
        eliminate(rows)


# -- inverses from the invariant form -------------------------------------------


@pytest.mark.parametrize("label", ["A4", "B3", "D4", "G2", "F4"])
def test_carried_inverse_matches_gauss_jordan(label):
    # inverse() follows the descent tree, act_inverse_root reads the form
    system = root_system(label)
    for w in enumerate_group(system):
        expected = ref_inverse(rows_of(w.cols))
        assert rows_of(w.inverse().cols) == expected
        beta = system.highest_root
        assert list(w.act_inverse_root(beta)) == ref_apply(expected, beta)


def test_inverse_on_a_reflection_subgroup_tree():
    # the long roots of B4 span a D4 whose canonical simple system holds
    # e_3 + e_4, which is not simple in B4; its tree steps are those roots
    b4 = root_system("B4")
    norm = b4.scaled_inner_product
    top = norm(b4.highest_root, b4.highest_root)
    sub = weyl.ReflectionSubgroup(b4, [
        root_reflection(b4, r) for r in b4.positive_roots if norm(r, r) == top
    ])
    simple = {b4.simple_root(i) for i in range(1, 5)}
    assert not set(sub.delta) <= simple
    elements = sub.elements()
    assert len(elements) == 192
    for w in elements:
        assert rows_of(w.inverse().cols) == ref_inverse(rows_of(w.cols))


def test_tree_elements_invert_by_left_products(monkeypatch):
    # only the identity at the root of the tree reads the form
    d4 = root_system("D4")
    elements = enumerate_group(d4)
    calls = []
    real = WeylElement.act_inverse_root

    def counting(self, coords):
        calls.append(1)
        return real(self, coords)

    monkeypatch.setattr(WeylElement, "act_inverse_root", counting)
    assert all((w * w.inverse()).is_identity() for w in elements)
    assert len(calls) == d4.rank


def test_inverse_of_explicit_columns():
    # elements built from explicit columns invert through the form like any
    # other; in type A the inverse permutation gives it independently
    for w in permutations(range(1, 5)):
        inverse = tuple(w.index(v) + 1 for v in range(1, 5))
        element = to_weyl(w)
        assert element.inverse() == to_weyl(inverse)
        assert rows_of(element.inverse().cols) == ref_inverse(rows_of(element.cols))


@PROPERTY
@given(
    label=st.sampled_from(["A3", "B3", "C3", "D4", "G2", "F4"]),
    data=st.data(),
)
def test_carried_inverse_through_mixed_products(label, data):
    # left and right factors, simple and non-simple reflections, and products
    # of products: whatever route __mul__ takes, the form gives the inverse
    system = root_system(label)
    roots = system.positive_roots
    pick = st.one_of(
        st.integers(1, system.rank).map(lambda i: simple_reflection(system, i)),
        st.sampled_from(roots).map(lambda r: root_reflection(system, r)),
    )
    factors = data.draw(st.lists(pick, max_size=8))
    sides = data.draw(st.lists(st.booleans(), min_size=len(factors), max_size=len(factors)))
    w = simple_reflection(system, 1) * simple_reflection(system, 1)
    for g, on_left in zip(factors, sides):
        w = g * w if on_left else w * g
    w = w * w.inverse() * w
    assert rows_of(w.inverse().cols) == ref_inverse(rows_of(w.cols))
    assert (w * w.inverse()).is_identity() and (w.inverse() * w).is_identity()


def test_columns_that_break_the_form_are_refused():
    # the A2 shear alpha_2 -> alpha_1 + alpha_2 is unimodular but no isometry
    with pytest.raises(ValueError, match="do not preserve the A2 form"):
        WeylElement(root_system("A2"), ((1, 0), (1, 1)))
    with pytest.raises(ValueError, match="do not preserve the A2 form"):
        WeylElement(root_system("A2"), ((1, 0, 0), (0, 1, 0)))
    elements = {to_weyl(w) for w in permutations(range(1, 6))}
    assert elements == enumerate_group(root_system("A4"))


def test_inverse_of_a_non_isometry_raises():
    # past the constructor's check, the form's divisions expose the shear
    shear = weyl._element(root_system("A2"), (1, 0, 1, 1))
    with pytest.raises(InvariantViolation, match="w\\^-1 x"):
        shear.act_inverse_root((1, 0))


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_weight_image_of_a_non_isometry_raises(flags):
    # S omega_1 = (2, 1) goes to (3, 1), whose fundamental coordinates (5, -1)
    # are not multiples of S = 3; a floor division would hide the shear
    script = textwrap.dedent(
        """
        from atomic import weyl
        from atomic.errors import InvariantViolation
        from atomic.rootdata import root_system

        a2 = root_system("A2")
        shear = weyl._element(a2, (1, 0, 1, 1))
        try:
            print("not raised:", shear.act_weight(a2.fundamental_weight(1)).fund)
        except InvariantViolation as exc:
            print("raised:", exc)
        """
    )
    src = str(Path(atomic.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run(
        [sys.executable, *flags, "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("raised: <w lambda, alpha_j^vee>: 5/3"), result.stdout


@pytest.mark.parametrize("label", ALL_TYPES_TO_RANK_8)
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_inverse_is_the_reversed_word(label, data):
    # an oracle of forward products only: (s_i1 ... s_ir)^{-1} = s_ir ... s_i1
    system = root_system(label)
    word = data.draw(st.lists(st.integers(1, system.rank), max_size=3 * system.rank))
    w = evaluate(system, word)
    assert w.inverse() == evaluate(system, reversed(word))
    assert (w * w.inverse()).is_identity()


# -- integer Gram form -------------------------------------------------------------


@PROPERTY
@given(
    label=st.sampled_from(["A4", "B3", "C4", "D5", "E6", "F4", "G2"]),
    data=st.data(),
)
def test_integer_gram_form_matches_fractions(label, data):
    system = root_system(label)
    vec = st.lists(st.integers(-6, 6), min_size=system.rank, max_size=system.rank)
    x, y = data.draw(vec), data.draw(vec)
    assert system.inner_product(x, y) == ref_form(system, x, y)
    assert system.scaled_inner_product(x, y) == system.gram_scale * ref_form(system, x, y)
    beta = data.draw(st.sampled_from(system.positive_roots))
    assert system.coroot_pairing(x, beta) == 2 * ref_form(system, x, beta) / ref_form(
        system, beta, beta
    )


@lru_cache(maxsize=None)
def sorted_group(label):
    return sorted(enumerate_group(root_system(label)), key=lambda w: (w.length(), w.cols))


@PROPERTY
@given(label=st.sampled_from(["A3", "B3", "C3", "G2", "F4"]), data=st.data())
def test_lambda_atomic_length_matches_fractions(label, data):
    system = root_system(label)
    w = data.draw(st.sampled_from(sorted_group(label)))
    fund = data.draw(st.lists(st.integers(0, 3), min_size=system.rank, max_size=system.rank))
    lam = system.weight(*fund)
    lbar = system.root_coords(lam.fund)
    image = ref_apply(rows_of(w.cols), lbar)
    assert lambda_atomic_length(w, lam) == sum(lbar) - sum(image)


# -- affine kernel ----------------------------------------------------------------


def dominant_weights(system, levels):
    """Affine coordinates (m_0, ..., m_n) >= 0 with sum comark_i m_i in levels."""
    out = []

    def rec(i, acc, level):
        if i > system.rank:
            if level in levels:
                out.append(tuple(acc))
            return
        c = system.comarks[i]
        for m in range((max(levels) - level) // c + 1):
            rec(i + 1, acc + [m], level + c * m)

    rec(0, [], 0)
    return out


AFFINE_TYPES = ["A2~", "C2~", "G2~", "B3~"]


@PROPERTY
@given(label=st.sampled_from(AFFINE_TYPES), data=st.data())
def test_decomposition_identity_against_fractions(label, data):
    # L_lam(w) = L_lbar(wbar) + level L_Lambda0(beta) + h^vee (lbar | gamma),
    # right side from the Fraction reference alone
    system = root_system(label)
    n = system.rank
    coords = data.draw(st.sampled_from(dominant_weights(system, (1, 2, 3))))
    word = data.draw(st.lists(st.integers(0, n), max_size=12))
    lam = affine.affine_weight(system, coords)
    element = affine.affine_from_word(system, word)

    matrix, beta = ref_affine_word(system, word)
    assert rows_of(element.fbar.cols) == matrix and list(element.beta) == beta
    gamma = ref_apply(ref_inverse(matrix), beta)
    lbar = lam.finite
    finite_term = sum(lbar) - sum(ref_apply(matrix, lbar))
    hvee = system.dual_coxeter_number
    level_one = Fraction(hvee, 2) * ref_form(system, beta, beta) - sum(beta)
    rhs = finite_term + lam.level * level_one + hvee * ref_form(system, lbar, gamma)
    assert affine.affine_atomic_length(element, lam) == rhs


@PROPERTY
@given(label=st.sampled_from(["A2~", "B2~", "C3~", "G2~"]), data=st.data())
def test_shi_vector_matches_fraction_geometry(label, data):
    system = root_system(label)
    word = data.draw(st.lists(st.integers(0, system.rank), max_size=12))
    element = affine.affine_from_word(system, word)
    matrix, beta = ref_affine_word(system, word)
    # (alpha_i | x0) = 1/h, that is (A x0)_i = 1/(h d_i)
    h, d = system.coxeter_number, ref_symmetrizer(system)
    x0 = ref_apply(ref_inverse(system.cartan), [1 / (h * di) for di in d])
    assert list(affine.alcove_point(system)) == x0
    point = [a + b for a, b in zip(ref_apply(matrix, x0), beta)]
    expected = tuple(
        (ref_form(system, alpha, point)).__floor__() for alpha in system.positive_roots
    )
    assert affine.shi_vector(element).coefficients == expected


# -- the dual-path check survives python -O ----------------------------------------


def _break_direct_path(monkeypatch):
    act = affine._act_scaled

    def off_by_one(w, mu):
        finite, drop = act(w, mu)
        return finite, drop + 1

    monkeypatch.setattr(affine, "_act_scaled", off_by_one)


def test_dual_path_disagreement_raises(monkeypatch):
    a2 = root_system("A2~")
    element = affine.affine_from_word(a2, (2, 1, 0))
    lam = affine.basic_weight(a2)
    assert affine.affine_atomic_length(element, lam) == 4
    _break_direct_path(monkeypatch)
    with pytest.raises(InvariantViolation, match="dual paths disagree"):
        affine.affine_atomic_length(element, lam)


def test_dual_path_check_survives_optimized_mode():
    script = textwrap.dedent(
        """
        from atomic import affine
        from atomic.errors import InvariantViolation
        from atomic.rootdata import root_system

        assert False, "asserts are stripped under -O, so this line is inert"
        act = affine._act_scaled
        affine._act_scaled = lambda w, mu: (act(w, mu)[0], act(w, mu)[1] + 1)
        a2 = root_system("A2~")
        try:
            affine.affine_atomic_length(affine.affine_from_word(a2, (0,)), affine.basic_weight(a2))
        except InvariantViolation as exc:
            print("raised:", exc)
        else:
            print("not raised")
        """
    )
    src = str(Path(atomic.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("raised: dual paths disagree"), result.stdout


# -- the check also catches a broken closed path ------------------------------
#
# The two tests above break the direct path at Lambda_0, where the closed
# path skips its cross term.  At B3~ (0, 1, 0, 1) the finite part lbar is
# not 0, so the closed path reads gamma = wbar^{-1} beta; shifting gamma by
# alpha_1 moves the cross term by 2 h^vee (lbar | alpha_1) != 0.

def test_closed_path_disagreement_raises(monkeypatch):
    b3 = root_system("B3~")
    element = affine.affine_from_word(b3, (0, 1, 2))
    lam = affine.affine_weight(b3, (0, 1, 0, 1))
    assert any(lam.num) and affine.affine_atomic_length(element, lam) == 1
    gamma = affine.AffineElement.gamma
    monkeypatch.setattr(
        affine.AffineElement, "gamma", lambda self: (gamma(self)[0] + 1,) + gamma(self)[1:]
    )
    with pytest.raises(InvariantViolation, match="dual paths disagree"):
        affine.affine_atomic_length(element, lam)


def test_closed_path_check_survives_optimized_mode():
    script = textwrap.dedent(
        """
        from atomic import affine
        from atomic.errors import InvariantViolation
        from atomic.rootdata import root_system

        assert False, "asserts are stripped under -O, so this line is inert"
        gamma = affine.AffineElement.gamma
        affine.AffineElement.gamma = lambda self: (gamma(self)[0] + 1,) + gamma(self)[1:]
        b3 = root_system("B3~")
        element = affine.affine_from_word(b3, (0, 1, 2))
        try:
            affine.affine_atomic_length(element, affine.affine_weight(b3, (0, 1, 0, 1)))
        except InvariantViolation as exc:
            print("raised:", exc)
        else:
            print("not raised")
        """
    )
    src = str(Path(atomic.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("raised: dual paths disagree"), result.stdout
