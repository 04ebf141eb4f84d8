"""The graded orbit walk `weyl.orbit_depths` on affine Cartan matrices.

`affine.orbit_depth_histogram` runs the walk on packed coordinates
(m_0, m_1, ..., m_n).  The reference below walks `AffineWeight` values
through `affine.weight_reflect` instead, keyed by finite part and delta
coefficient, with a set of every weight seen.  Both read the affine Cartan
matrix, so `weight_reflect` is checked first against the action of the
generator s_i as an affine transformation (beta, wbar), which does not.
The finite walk is compared with the parabolic recursion in
`test_parabolic.py`; here its weights are counted against the orbit size
|W| / |W_I|.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomic import weyl
from atomic.affine import (
    AffineWeight,
    act_element_on_weight,
    affine_cartan,
    affine_generator,
    affine_weight,
    orbit_depth_histogram,
    weight_reflect,
)
from atomic.errors import NegativeBound, OrbitTooLarge
from atomic.rootdata import root_system
from atomic.weyl import dominant_orbit_size, orbit_depths, orbit_weights
from test_parabolic import ALL_TYPES_TO_RANK_8, top_value


def reference_depths(lam, max_depth):
    seen = {(lam.finite, lam.delta_coeff)}
    stack = [(lam, 0)]
    histogram = {}
    while stack:
        mu, depth = stack.pop()
        histogram[depth] = histogram.get(depth, 0) + 1
        for i, p in enumerate((mu.m0,) + mu.fund):
            if 0 < p <= max_depth - depth:
                nxt = weight_reflect(mu, i)
                key = (nxt.finite, nxt.delta_coeff)
                if key not in seen:
                    seen.add(key)
                    stack.append((nxt, depth + int(p)))
    return histogram


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(label=st.sampled_from([f"{spec}~" for spec in ALL_TYPES_TO_RANK_8]), data=st.data())
def test_weight_reflect_matches_generator_action(label, data):
    system = root_system(label)
    n = system.rank
    coords = data.draw(st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1))
    mu = AffineWeight(system, tuple(coords), data.draw(st.integers(-3, 3)))
    for i in range(n + 1):
        assert weight_reflect(mu, i) == act_element_on_weight(affine_generator(system, i), mu)


# (type, max depth): Lambda_0, Lambda_1 and Lambda_0 + Lambda_1 are walked
# on each, to a depth that keeps the reference walk under 2,000 weights.
AFFINE_CASES = (
    ("A1~", 400), ("A2~", 120), ("A3~", 60), ("C2~", 120), ("G2~", 120),
    ("B3~", 50), ("D4~", 40), ("F4~", 40), ("E6~", 30),
)


@pytest.mark.parametrize("label, max_depth", AFFINE_CASES)
def test_affine_walk_matches_reference(label, max_depth):
    system = root_system(label)
    n = system.rank
    for head in ((1, 0), (0, 1), (1, 1)):
        lam = affine_weight(system, head + (0,) * (n - 1))
        hist = orbit_depth_histogram(system, lam, max_depth)
        assert hist == reference_depths(lam, max_depth), (label, head)
        assert max(hist) <= max_depth
        # orbit_weights yields each weight once: as many as the seen-set walk
        start = (lam.m0,) + lam.fund
        walked = [mu for _, mu in orbit_weights(affine_cartan(system), start, max_depth)]
        assert len(set(walked)) == len(walked) == sum(hist.values()), (label, head)


@pytest.mark.parametrize(
    "spec", [t for t in ALL_TYPES_TO_RANK_8 if root_system(t).rank <= 6]
)
def test_finite_walk_yields_each_weight_once(spec):
    system = root_system(spec)
    for lam in (system.rho, system.fundamental_weight(1)):
        top = top_value(system, lam)
        weights = [mu for _, mu in orbit_weights(system.cartan, lam.fund, top)]
        assert len(set(weights)) == len(weights), (spec, lam)
        assert len(weights) == dominant_orbit_size(system, lam.fund), (spec, lam)


def test_packing_stays_exact_in_a1_affine():
    # |a_01| = 2: the coordinates of A1~ grow fastest with the depth
    a1 = root_system("A1~")
    for coords in ((1, 0), (0, 3), (2, 1)):
        lam = affine_weight(a1, coords)
        assert orbit_depth_histogram(a1, lam, 200) == reference_depths(lam, 200)


def test_cap_boundary(monkeypatch):
    a2 = root_system("A2")
    monkeypatch.setattr(weyl, "ORBIT_WALK_CAP", 6)
    assert orbit_depths(a2.cartan, (1, 1), 6) == {0: 1, 1: 2, 3: 2, 4: 1}
    monkeypatch.setattr(weyl, "ORBIT_WALK_CAP", 5)
    with pytest.raises(OrbitTooLarge, match="more than 5 weights"):
        orbit_depths(a2.cartan, (1, 1), 6)

    # the 2-cores of size <= 10 have sizes 0, 1, 3, 6, 10
    a1 = root_system("A1~")
    lam = affine_weight(a1, (1, 0))
    monkeypatch.setattr(weyl, "ORBIT_WALK_CAP", 5)
    assert orbit_depth_histogram(a1, lam, 10) == {0: 1, 1: 1, 3: 1, 6: 1, 10: 1}
    monkeypatch.setattr(weyl, "ORBIT_WALK_CAP", 4)
    with pytest.raises(OrbitTooLarge):
        orbit_depth_histogram(a1, lam, 10)
    with pytest.raises(NegativeBound):
        orbit_depths(a2.cartan, (1, 1), -1)
