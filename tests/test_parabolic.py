"""The parabolic recursion behind `image_set` against independent routes.

`_parabolic_histogram` never visits the orbit W.lambda.  Here it is compared
with the orbit walk `weyl.orbit_depths` (every weight visited once), with the
q-Weyl dimension formula on minuscule weights (computed below by integer
polynomial division from the Cartan matrix alone), and with the paper's E8
claim.  Its stabiliser-division and height-field checks are shown to fire
under `python -O`.
"""

import gc
import itertools
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import atomic
from atomic import atomiclen, fixtures
from atomic.atomiclen import _parabolic_histogram, image_set, minuscule_weights
from atomic.errors import InvariantViolation
from atomic.rootdata import RootSystem, parse_type, root_system
from atomic.weyl import dominant_orbit_size, orbit_depths

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

RHO_TYPES = (
    "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5", "B6", "C3", "C4", "C5",
    "D4", "D5", "D6", "D7", "G2", "F4", "E6", "E7", "A7",
)
SMALL_TYPES = (
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C2", "C3", "C4", "C5",
    "D4", "D5", "G2", "F4", "E6",
)
MINUSCULE_TYPES = (
    "A3", "A4", "A5", "A6", "B3", "B4", "B5", "B6", "C3", "C4", "C5",
    "D4", "D5", "D6", "D7", "E6", "E7",
)


def top_value(system, lam):
    """2<lambda, rho^vee>, the value at w0."""
    return int(2 * sum(system.root_coords(lam.fund)))


def walk(system, lam):
    return orbit_depths(system.cartan, lam.fund, top_value(system, lam))


def check_shape(system, lam, hist):
    """max = 2<lambda, rho^vee> and h[d] = h[max - d] (the map w -> w0 w)."""
    top = top_value(system, lam)
    assert max(hist) == top
    assert all(hist[top - d] == count for d, count in hist.items())


@pytest.mark.parametrize("spec", RHO_TYPES)
def test_rho_agrees_with_orbit_walk(spec):
    system = root_system(spec)
    hist = _parabolic_histogram(system, system.rho)
    assert hist == walk(system, system.rho)
    check_shape(system, system.rho, hist)


@pytest.mark.parametrize("spec", ("B4", "C4", "D5"))
def test_zero_one_weights_agree_with_orbit_walk(spec):
    # h - 1 = 7 fills the 3-bit height fields; the zero coordinates reach the
    # base case, where lambda vanishes on the node tuple, at every depth
    system = root_system(spec)
    for fund in itertools.product((0, 1), repeat=system.rank):
        lam = system.weight(*fund)
        assert _parabolic_histogram(system, lam) == walk(system, lam), fund


@st.composite
def dominant_weights(draw):
    system = root_system(draw(st.sampled_from(SMALL_TYPES)))
    fund = draw(st.lists(st.integers(0, 3), min_size=system.rank, max_size=system.rank))
    return system, system.weight(*fund)


@PROPERTY
@given(dominant_weights())
def test_drawn_weights_agree_with_orbit_walk(case):
    system, lam = case
    hist = _parabolic_histogram(system, lam)
    assert hist == walk(system, lam)
    check_shape(system, lam, hist)


# -- q-Weyl dimension formula on minuscule weights -----------------------------


def positive_coroots(cartan):
    """Positive coroots in simple-coroot coordinates, by reflection closure.

    cartan[i][j] = <alpha_j, alpha_i^vee>, so s_i sends the coroot
    sum_j c_j alpha_j^vee to itself minus (sum_j c_j cartan[j][i]) alpha_i^vee.
    """
    n = len(cartan)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    seen, frontier = set(simple), list(simple)
    while frontier:
        beta = frontier.pop()
        for i in range(n):
            pairing = sum(beta[j] * cartan[j][i] for j in range(n))
            image = beta[:i] + (beta[i] - pairing,) + beta[i + 1:]
            if all(c >= 0 for c in image) and image not in seen:
                seen.add(image)
                frontier.append(image)
    return seen


def poly_times_one_minus(poly, k):
    """poly * (1 - q^k)."""
    out = poly + [0] * k
    for d, c in enumerate(poly):
        out[d + k] -= c
    return out


def poly_over_one_minus(poly, k):
    """poly / (1 - q^k), exact: q_d = p_d + q_{d-k}, and the tail must vanish."""
    quotient = []
    for d, c in enumerate(poly):
        quotient.append(c + (quotient[d - k] if d >= k else 0))
    assert all(c == 0 for c in quotient[len(quotient) - k:]), "division not exact"
    return quotient[:len(quotient) - k]


def q_weyl_dimension(cartan, fund):
    """prod over alpha > 0 of (1 - q^<lambda + rho, alpha^vee>) / (1 - q^<rho, alpha^vee>)."""
    coroots = positive_coroots(cartan)
    poly = [1]
    for beta in coroots:
        poly = poly_times_one_minus(poly, sum((m + 1) * c for m, c in zip(fund, beta)))
    for beta in coroots:
        poly = poly_over_one_minus(poly, sum(beta))
    return {d: c for d, c in enumerate(poly) if c}


@pytest.mark.parametrize("spec", MINUSCULE_TYPES)
def test_minuscule_histograms_match_q_weyl_dimension(spec):
    system = root_system(spec)
    weights = minuscule_weights(system)
    assert weights
    for lam in weights:
        want = q_weyl_dimension(system.cartan, lam.fund)
        assert _parabolic_histogram(system, lam) == want


ALL_TYPES_TO_RANK_8 = (
    tuple(f"A{n}" for n in range(1, 9)) + tuple(f"B{n}" for n in range(2, 9))
    + tuple(f"C{n}" for n in range(2, 9)) + tuple(f"D{n}" for n in range(4, 9))
    + ("E6", "E7", "E8", "F4", "G2")
)


@pytest.mark.parametrize("spec", ALL_TYPES_TO_RANK_8)
def test_minuscule_weights_have_one_orbit_of_weights(spec):
    """omega_i is minuscule exactly when the weights of V(omega_i) form one
    W-orbit, i.e. when dim V(omega_i) = |W . omega_i|."""
    system = root_system(spec)
    minuscule = {lam.fund for lam in minuscule_weights(system)}
    for i in range(system.rank):
        fund = tuple(int(j == i) for j in range(system.rank))
        dim = sum(q_weyl_dimension(system.cartan, fund).values())
        one_orbit = dim == dominant_orbit_size(system, fund)
        assert (fund in minuscule) == one_orbit, (spec, i + 1)


def test_q_weyl_oracle_counts_dimensions():
    # dim V(omega_1) of A3, B3 (vector, 7), dim of the 27 of E6 and the 56 of E7
    for spec, node, dim in (("A3", 1, 4), ("B3", 1, 7), ("E6", 1, 27), ("E7", 7, 56)):
        system = root_system(spec)
        fund = tuple(int(i == node) for i in range(1, system.rank + 1))
        assert sum(q_weyl_dimension(system.cartan, fund).values()) == dim


# -- the paper's E8 claim --------------------------------------------------------


def test_e8_rho_fills_its_interval():
    e8 = root_system("E8")
    report = image_set(e8, e8.rho, histogram=True)
    assert report.orbit_size == 696729600
    top = fixtures.W0_EXCEPTIONAL["E8"]
    assert report.max_value == top
    assert report.missing == ()
    hist = report.histogram
    assert all(hist[top - d] == count for d, count in hist.items())


# -- the stabiliser division survives python -O -----------------------------------


def test_stabiliser_remainder_raises(monkeypatch):
    a2 = root_system("A2")
    omega = a2.fundamental_weight(1)
    assert _parabolic_histogram(a2, omega) == {0: 1, 1: 1, 2: 1}
    unpack = atomiclen._unpack
    monkeypatch.setattr(atomiclen, "_unpack", lambda packed, width: {
        d: c + (d == 0) for d, c in unpack(packed, width).items()
    })
    with pytest.raises(InvariantViolation, match="not a multiple"):
        image_set(a2, omega)


def test_negative_coset_step_raises():
    # every exponent is a sum of steps <u(lambda), alpha_i^vee> times positive
    # heights; a weight that is not dominant (image_set refuses it) makes one
    # step negative
    a2 = root_system("A2")
    with pytest.raises(InvariantViolation, match="= -1 < 0"):
        _parabolic_histogram(a2, a2.weight(1, -1))


def test_coset_tree_larger_than_its_index_raises(monkeypatch):
    # each coset plan walks at most |W_J| / |W_J'| representatives; with
    # every order read as 1 that is 1, and the A2 tree of omega_p has 3.
    # A fresh A2 system has no cached plan that could skip the patched orders
    a2 = RootSystem(parse_type("A2"))
    monkeypatch.setattr(atomiclen, "_parabolic_order", lambda system, nodes: 1)
    with pytest.raises(InvariantViolation, match="more than 1 cosets"):
        _parabolic_histogram(a2, a2.rho)


def test_coset_plans_are_shared_across_weights(monkeypatch):
    # the plans read no weight, and 2 rho visits the node sets rho does; each
    # plan built walks one coset tree, so the walks count the plans built
    walks = []
    descent_tree = atomiclen._descent_tree

    def counted(*args):
        walks.append(args)
        return descent_tree(*args)

    monkeypatch.setattr(atomiclen, "_descent_tree", counted)
    e6 = root_system("E6")
    first = image_set(e6, e6.rho, histogram=True)
    built = len(walks)
    second = image_set(e6, 2 * e6.rho, histogram=True)
    assert len(walks) == built
    assert second.histogram == {2 * d: c for d, c in first.histogram.items()}
    fresh = RootSystem(parse_type("E6"))
    image_set(fresh, fresh.rho)
    assert len(walks) == built + 6  # one plan per node tuple of the chain


def test_plans_die_with_their_system():
    # the per-system tables live on the system, so a caller that builds
    # systems afresh keeps nothing once it drops them
    def fresh_image():
        system = RootSystem(parse_type("D5"))
        image_set(system, system.rho)

    fresh_image()
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(100):
            fresh_image()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 50_000, f"{retained} bytes retained by 100 fresh D5 systems"


@pytest.mark.parametrize("spec", ("A7", "B4", "C4", "D5"))
def test_narrow_height_field_raises(monkeypatch, spec):
    # h - 1 = 7 fills a 3-bit field; one bit less cannot hold it.  A fresh
    # system has no plan laid out in the full width
    system = RootSystem(parse_type(spec))
    assert atomiclen._height_field(system) == 3
    monkeypatch.setattr(atomiclen, "_height_field", lambda system: 2)
    with pytest.raises(InvariantViolation, match="root height 7 overflows a 2-bit field"):
        _parabolic_histogram(system, system.rho)


def test_stabiliser_check_survives_optimized_mode():
    script = textwrap.dedent(
        """
        from atomic import atomiclen
        from atomic.errors import InvariantViolation
        from atomic.rootdata import root_system

        assert False, "asserts are stripped under -O, so this line is inert"
        unpack = atomiclen._unpack
        atomiclen._unpack = lambda packed, width: {
            d: c + (d == 0) for d, c in unpack(packed, width).items()
        }
        a2 = root_system("A2")
        try:
            atomiclen.image_set(a2, a2.fundamental_weight(1))
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
    assert result.stdout.startswith("raised: 3 elements at value 0"), result.stdout


def test_height_field_and_step_checks_survive_optimized_mode():
    script = textwrap.dedent(
        """
        from atomic import atomiclen
        from atomic.errors import InvariantViolation, OrbitTooLarge
        from atomic.rootdata import RootSystem, parse_type

        assert False, "asserts are stripped under -O, so this line is inert"
        height_field = atomiclen._height_field
        atomiclen._height_field = lambda system: height_field(system) - 1
        for spec in ("A7", "B4", "C4", "D5"):
            system = RootSystem(parse_type(spec))
            try:
                atomiclen._parabolic_histogram(system, system.rho)
            except InvariantViolation as exc:
                print(spec, "raised:", exc)
            else:
                print(spec, "not raised")
        atomiclen._height_field = height_field
        a2 = RootSystem(parse_type("A2"))
        try:
            atomiclen._parabolic_histogram(a2, a2.weight(1, -1))
        except InvariantViolation as exc:
            print("A2 (1, -1) raised:", exc)
        else:
            print("A2 (1, -1) not raised")
        atomiclen.MEMO_CAP = 209
        b3 = RootSystem(parse_type("B3"))
        try:
            atomiclen._parabolic_histogram(b3, b3.rho)
        except OrbitTooLarge as exc:
            print("B3 raised:", exc)
        else:
            print("B3 not raised")
        """
    )
    src = str(Path(atomic.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        f"{spec} raised: root height 7 overflows a 2-bit field"
        for spec in ("A7", "B4", "C4", "D5")
    ] + [
        "A2 (1, -1) raised: coset step <u(lambda), alpha_i^vee> = -1 < 0",
        "B3 raised: memo holds 210 bits, above cap 209",
    ], result.stdout
