"""The Fincke-Pohst enumerator `affine.lattice_ball` against box-filtered balls.

The oracle enumerates a coordinate box of the translation lattice and keeps
the points whose norm is within the bound.  The box half-width is justified
by the Gram inverse computed in `sympy`: |x_i|^2 <= r (Q^{-1})_ii for every
point of the ball, so a half-width R with R^2 >= BOX_RADIUS (Q^{-1})_ii
holds the whole ball of radius BOX_RADIUS.
"""

import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from atomic import affine
from atomic.errors import RadiusTooLarge, UnsupportedType
from atomic.rootdata import root_system

# every untwisted affine type of rank <= 4
AFFINE_TYPES_TO_RANK_4 = (
    "A1~", "A2~", "A3~", "A4~", "B2~", "B3~", "B4~",
    "C2~", "C3~", "C4~", "D4~", "F4~", "G2~",
)
BOX_RADIUS = 6
RADII = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def drain(ball):
    """The points a lattice_ball generator yields and the count it returns."""
    points = []
    while True:
        try:
            points.append(next(ball))
        except StopIteration as stop:
            return points, stop.value


@lru_cache(maxsize=None)
def box_points(label):
    """(beta, |beta|^2) over a box of basis coordinates that holds the ball of
    radius BOX_RADIUS."""
    system = root_system(label)
    basis = affine.translation_lattice_basis(system)
    gram = sympy.Matrix(
        [[system.inner_product(a, b) for b in basis] for a in basis]
    ).inv()
    half = max(
        int(sympy.floor(sympy.sqrt(BOX_RADIUS * gram[i, i]))) for i in range(system.rank)
    )
    out = []
    for c in product(range(-half, half + 1), repeat=system.rank):
        beta = tuple(sum(k * b[i] for k, b in zip(c, basis)) for i in range(system.rank))
        out.append((beta, system.inner_product(beta, beta)))
    return out


def box_ball(label, radius):
    return sorted(beta for beta, norm in box_points(label) if norm <= radius)


@pytest.mark.parametrize("label", AFFINE_TYPES_TO_RANK_4)
@pytest.mark.parametrize("radius", [0, 1, Fraction(9, 2), BOX_RADIUS])
def test_ball_matches_box_filter(label, radius):
    system = root_system(label)
    points, tried = drain(affine.lattice_ball(system, radius))
    betas = [beta for beta, _ in points]
    assert sorted(betas) == box_ball(label, radius)
    assert len(set(betas)) == len(betas) <= tried


@RADII
@given(
    label=st.sampled_from(AFFINE_TYPES_TO_RANK_4),
    radius=st.fractions(min_value=0, max_value=BOX_RADIUS),
)
def test_ball_matches_box_filter_at_any_radius(label, radius):
    points, _ = drain(affine.lattice_ball(root_system(label), radius))
    assert sorted(beta for beta, _ in points) == box_ball(label, radius)


@RADII
@given(
    label=st.sampled_from(AFFINE_TYPES_TO_RANK_4 + ("D5~", "E6~")),
    radius=st.integers(min_value=0, max_value=24),
)
def test_ball_norms_and_no_duplicates(label, radius):
    system = root_system(label)
    if system.rank > 4:
        radius = min(radius, 6)
    points, tried = drain(affine.lattice_ball(system, radius))
    betas = [beta for beta, _ in points]
    assert len(set(betas)) == len(betas) <= tried
    bound = radius * system.gram_scale
    for beta, norm in points:
        assert norm == system.scaled_inner_product(beta, beta) <= bound
    assert (0,) * system.rank in betas


def test_cap_counts_points_tried(monkeypatch):
    a3 = root_system("A3~")
    points, tried = drain(affine.lattice_ball(a3, 12))
    assert len(points) <= tried
    lam = affine.basic_weight(a3)
    monkeypatch.setattr(affine, "PROBE_CAP", tried)
    assert drain(affine.lattice_ball(a3, 12)) == (points, tried)
    assert affine.affine_image_probe(a3, lam, 12).searched == len(points)
    monkeypatch.setattr(affine, "PROBE_CAP", tried - 1)
    with pytest.raises(RadiusTooLarge, match=f"more than {tried - 1} lattice points tried"):
        drain(affine.lattice_ball(a3, 12))
    with pytest.raises(RadiusTooLarge):
        affine.affine_image_probe(a3, lam, 12)


def test_negative_bound_is_an_empty_ball():
    assert drain(affine.lattice_ball(root_system("A2~"), -1)) == ([], 0)


def test_e6_basic_weight_probe():
    # the coordinate box of this ball has 2,094,417 points; the ball has 6,373
    e6 = root_system("E6~")
    start = time.perf_counter()
    report = affine.affine_image_probe(e6, affine.basic_weight(e6), 12)
    elapsed = time.perf_counter() - start
    assert report.searched == 6373
    assert report.certified_max == 41 and report.missing == ()
    assert elapsed < 5, f"E6~ Lambda_0 probe at radius 12 took {elapsed:.1f} s"


# -- the ball centred at rho/h: level-one values against the orbit walk --------


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(min_value=1, max_value=6), bound=st.integers(min_value=0, max_value=60))
def test_level_one_histogram_matches_orbit_walk(n, bound):
    system = root_system(f"A{n}~")
    counts, tried = affine.level_one_histogram(system, bound)
    walk = affine.orbit_depth_histogram(system, affine.basic_weight(system), bound)
    assert counts == walk
    assert list(counts) == sorted(counts)
    # the centred ball tries no innermost point that it does not keep
    assert tried[0] == sum(counts.values())


@pytest.mark.parametrize("label", ["D4~", "D5~", "E6~"])
def test_level_one_histogram_beyond_type_a(label):
    system = root_system(label)
    counts, tried = affine.level_one_histogram(system, 14)
    assert counts == affine.orbit_depth_histogram(system, affine.basic_weight(system), 14)
    assert tried[0] == sum(counts.values())


@pytest.mark.parametrize("n, kept", [(3, 356), (4, 1349)])
def test_centred_ball_tries_only_kept_points(n, kept):
    # the ball centred at 0 tried 683 and 3,401 points for these
    counts, tried = affine.level_one_histogram(root_system(f"A{n}~"), 60)
    assert tried[0] == sum(counts.values()) == kept


def test_level_one_histogram_edges():
    a2 = root_system("A2~")
    assert affine.level_one_histogram(a2, -1) == ({}, (0, 0))
    assert affine.level_one_histogram(a2, 0) == ({0: 1}, (1, 1))
    with pytest.raises(UnsupportedType):
        affine.level_one_histogram(root_system("B2~"), 5)


# -- the simply-laced level-one product: an oracle for the ball beyond type A --


def exponent_multiplicities(system):
    """{e: multiplicity} of the exponents, from the root heights alone: the
    number of positive roots of height k is the number of exponents >= k
    (Kostant's dual partition)."""
    by_height = Counter(height for _, height in system.root_supports)
    mult = {k: c - by_height[k + 1] for k, c in by_height.items() if c > by_height[k + 1]}
    assert sum(mult.values()) == system.rank
    return mult


def level_one_product(system, bound):
    """Coefficients up to q^bound of
    prod_{k >= 1, k mod h in exponents} (1 - q^k)^{-1} * prod_{k >= 1} (1 - q^{hk})^n,
    exponents with multiplicity, expanded factor by factor (Kac, ch. 12-14).
    For A_{t-1} it is the t-core product."""
    h, n = system.coxeter_number, system.rank
    mult = exponent_multiplicities(system)
    coeffs = [1] + [0] * bound
    for k in range(1, bound + 1):
        for _ in range(mult.get(k % h, 0)):
            for j in range(k, bound + 1):
                coeffs[j] += coeffs[j - k]
    for k in range(h, bound + 1, h):
        for _ in range(n):
            for j in range(bound, k - 1, -1):
                coeffs[j] -= coeffs[j - k]
    return coeffs


def test_exponents_from_root_heights():
    assert exponent_multiplicities(root_system("A4~")) == {1: 1, 2: 1, 3: 1, 4: 1}
    assert exponent_multiplicities(root_system("D4~")) == {1: 1, 3: 2, 5: 1}
    assert exponent_multiplicities(root_system("E8~")) == {
        e: 1 for e in (1, 7, 11, 13, 17, 19, 23, 29)
    }


SIMPLY_LACED_BOUNDS = [
    ("A1~", 400), ("A2~", 300), ("A3~", 200), ("A4~", 120), ("A5~", 90),
    ("A6~", 70), ("A7~", 50), ("A8~", 45),
    ("D4~", 120), ("D5~", 90), ("D6~", 70), ("D7~", 60), ("D8~", 50),
    ("E6~", 60), ("E7~", 50), ("E8~", 45),
]


@pytest.mark.parametrize("label, bound", SIMPLY_LACED_BOUNDS)
def test_level_one_histogram_matches_product(label, bound):
    system = root_system(label)
    counts, _ = affine.level_one_histogram(system, bound)
    product = level_one_product(system, bound)
    assert counts == {k: c for k, c in enumerate(product) if c}
    # A finding checked to these bounds, not a theorem: every value up to the
    # bound is attained in A_n~ (n >= 3), D~ and E~ (Granville-Ono for
    # t-cores, t >= 4); A1~ and A2~ miss values (2, 4, 5, ... and 3, 7, ...)
    assert (len(counts) == bound + 1) == (label not in ("A1~", "A2~"))
