"""Inputs are checked once, where they are built, and each entry point that
takes a weight with a system or an element checks that they belong
together: a weight or element of another system raises SystemMismatch,
never a wrong answer or a bare IndexError."""

import pytest

from atomic.affine import (
    AffineElement,
    AffineWeight,
    act_element_on_weight,
    affine_atomic_length,
    affine_from_word,
    affine_image_probe,
    basic_weight,
    orbit_depth_histogram,
)
from atomic.atomiclen import (
    atomic_length_w0,
    image_set,
    is_ideal,
    lambda_atomic_length,
    lambda_inversion_set,
)
from atomic.errors import DimensionMismatch, InvalidType, SystemMismatch
from atomic.rootdata import RootSystem, Weight, parse_type, root_system
from atomic.weyl import evaluate

A3, A4 = root_system("A3"), root_system("A4")
A2T, A3T, C2T = root_system("A2~"), root_system("A3~"), root_system("C2~")

# each call pairs a weight or an element with another system's
MISMATCHED_CALLS = {
    "lambda_atomic_length": lambda: lambda_atomic_length(evaluate(A3, (1, 2, 3)), A4.rho),
    "lambda_inversion_set": lambda: lambda_inversion_set(A3, (1, 2, 3), A4.rho),
    "image_set": lambda: image_set(A3, A4.rho),
    "atomic_length_w0": lambda: atomic_length_w0(A3, A4.rho),
    "is_ideal": lambda: is_ideal(A3, A4.rho),
    "affine_atomic_length": lambda: affine_atomic_length(
        affine_from_word(A2T, (0, 1)), basic_weight(C2T)
    ),
    "orbit_depth_histogram": lambda: orbit_depth_histogram(A2T, basic_weight(A3T), 5),
    "affine_image_probe": lambda: affine_image_probe(A2T, basic_weight(A3T), 6),
    "act_element_on_weight": lambda: act_element_on_weight(
        affine_from_word(A2T, (0, 1)), basic_weight(A3T)
    ),
}


@pytest.mark.parametrize("call", MISMATCHED_CALLS.values(), ids=MISMATCHED_CALLS)
def test_another_systems_weight_is_refused(call):
    with pytest.raises(SystemMismatch):
        call()


def test_weight_length_is_checked_where_built():
    with pytest.raises(DimensionMismatch, match="expected 3 fundamental coordinates, got 2"):
        Weight(A3, (1, 2))


def test_affine_weight_needs_an_affine_label():
    with pytest.raises(InvalidType, match="A3 is not an affine label"):
        AffineWeight(A3, (1, 0, 0, 0))


def test_affine_element_refuses_another_systems_finite_part():
    b2_element = evaluate(root_system("B2"), (1, 2))
    with pytest.raises(SystemMismatch, match="B2 vs A2~"):
        AffineElement(A2T, (0, 0), b2_element)


def test_systems_built_apart_are_equal_and_hash_alike():
    apart = RootSystem(parse_type("A2~"))
    assert apart is not A2T and apart == A2T and hash(apart) == hash(A2T)
    assert apart != root_system("A2")
    weights = (AffineWeight(apart, (1, 0, 0)), basic_weight(A2T))
    assert weights[0] == weights[1] and len(set(weights)) == 1
    finite = (Weight(apart, (1, 1)), A2T.rho)
    assert finite[0] == finite[1] and len(set(finite)) == 1
