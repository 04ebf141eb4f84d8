"""Susanfe reflections and the induction they drive.

A Susanfe element has inversion set equal to the complement of its fixed
positive roots.  The highest-root reflection is always Susanfe, and in the
classical types there are distinguished (near-)highest reflections whose
restricted atomic length gives the step constant of the surjectivity
induction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .atomiclen import ImageReport, atomic_length, image_set
from .errors import InvariantViolation, PreconditionViolation, UnsupportedType
from .rootdata import RootSystem, root_system
from .weyl import (
    ReflectionSubgroup,
    WeylElement,
    a_decomposition,
    evaluate,
    inversion_set_from_word,
    is_reflection,
    longest_element,
    root_reflection,
    standard_parabolic,
)


@dataclass(frozen=True)
class SusanfeReport:
    element: WeylElement
    fixed_roots: tuple
    inversion_set: tuple
    is_susanfe: bool


def susanfe_check(w: WeylElement) -> SusanfeReport:
    """Compare N(w) with the complement of the fixed positive roots."""
    system = w.system
    fixed = tuple(a for a in system.positive_roots if w.act_root(a) == a)
    inversions = w.inversion_set()
    complement = set(system.positive_roots) - set(fixed)
    return SusanfeReport(
        element=w,
        fixed_roots=fixed,
        inversion_set=inversions,
        is_susanfe=set(inversions) == complement,
    )


def restricted_atomic_length(w: WeylElement, sub: ReflectionSubgroup):
    """Height sum over the inversions of w lying outside Phi_A."""
    system = w.system
    return sum(
        system.height(a) for a in w.inversion_set() if not sub.contains_root(a)
    )


@dataclass(frozen=True)
class SpecialReflection:
    element: WeylElement
    word: tuple[int, ...]
    parabolic_indices: tuple[int, ...]
    constant: int  # L(t, I), the induction step constant


def _palindrome_word(n: int) -> tuple[int, ...]:
    return tuple(range(1, n + 1)) + tuple(range(n - 1, 0, -1))


def special_reflection(system: RootSystem) -> SpecialReflection:
    """The distinguished Susanfe-flavoured reflection of a classical type.

    Types A, C and D use the highest-root reflection; type B uses the
    reflection of the short root e_1, whose inversion set avoids the
    parabolic entirely.  The returned constant is computed, never hardcoded.
    """
    fam, n = system.label.family, system.rank
    if fam not in "ABCD":
        raise UnsupportedType(f"no special reflection for type {system.label}")
    if fam == "D":
        arm = tuple(range(2, n - 1))
        first = arm + (n, n - 1) + arm[::-1]
        second = arm + (n - 1, n) + arm[::-1]
        word = first + (1,) + second
    else:
        word = _palindrome_word(n)
    t = evaluate(system, word)
    inversion_set_from_word(system, word)  # verifies the word is reduced
    if not is_reflection(system, t):
        raise InvariantViolation(f"word {word} does not evaluate to a reflection")
    indices = tuple(range(2, n + 1))
    sub = standard_parabolic(system, indices)
    constant = restricted_atomic_length(t, sub)
    return SpecialReflection(t, word, indices, constant)


def susanfe_decomposition_check(
    t: WeylElement, w: WeylElement, sub: ReflectionSubgroup
) -> bool:
    """Verify N(tw) = N_A((tw)_A) | (N(t) \\ Phi_A) and the length identity.

    Hypotheses: t is a Susanfe reflection, sub is the subgroup A = t B t, and
    w lies in W_B (the conjugate of W_A by t), tested as t w t in W_A: its
    A-decomposition leaves the identity.
    """
    if not susanfe_check(t).is_susanfe:
        raise PreconditionViolation("t is not Susanfe")
    if not (t * t).is_identity():
        raise PreconditionViolation("t is not an involution")
    if not a_decomposition(t * w * t, sub)[1].is_identity():
        raise PreconditionViolation("w does not lie in W_B")

    tw = t * w
    left = set(tw.inversion_set())
    part_a = set(sub.inversion_set_in_subgroup(tw))
    part_out = {a for a in t.inversion_set() if not sub.contains_root(a)}
    if part_a & part_out or left != part_a | part_out:
        return False

    w_a, _ = a_decomposition(tw, sub)
    lhs = atomic_length(tw)
    rhs = sub.atomic_length_in_subgroup(w_a) + restricted_atomic_length(t, sub)
    return lhs == rhs


_BASE_RANK = {"A": 3, "B": 4, "C": 4, "D": 5}


def surjectivity_susanfe_induction(system: RootSystem) -> ImageReport:
    """Rebuild the atomic-length image of a classical type by induction.

    Ranks at or below the base case are computed directly; above it, the
    image of rank r is the union of the rank r-1 interval with its shift by
    the step constant K_r, plus the top value in type D where the union
    stops one short.
    """
    fam, n = system.label.family, system.rank
    if fam not in _BASE_RANK:
        raise UnsupportedType(f"induction only runs in classical types, not {system.label}")
    start = min(_BASE_RANK[fam], n)

    base_system = root_system(f"{fam}{start}")
    direct = image_set(base_system, base_system.rho)
    values = set(direct.values)
    for r in range(start + 1, n + 1):
        sys_r = root_system(f"{fam}{r}")
        k_r = special_reflection(sys_r).constant
        values = values | {v + k_r for v in values}
        # The union stops one short of the top in type D; the longest
        # element always supplies the maximum.
        values.add(atomic_length(longest_element(sys_r)))

    vals = tuple(sorted(values))
    max_value = vals[-1]
    missing = tuple(v for v in range(max_value + 1) if v not in values)
    return ImageReport(values=vals, max_value=max_value, missing=missing, orbit_size=0)


def list_susanfe_reflections(system: RootSystem):
    """All Susanfe reflections with their restricted atomic length L(t, I).

    I is the standard parabolic on indices 2..n, matching the induction
    set-up; returns (root, element, L(t), L(t, I)) tuples in root order.
    """
    system.require_finite("Susanfe reflections are listed in a finite type")
    sub = standard_parabolic(system, range(2, system.rank + 1)) if system.rank > 1 else None
    out = []
    for alpha in system.positive_roots:
        t = root_reflection(system, alpha)
        if susanfe_check(t).is_susanfe:
            l_total = atomic_length(t)
            l_restricted = (
                restricted_atomic_length(t, sub) if sub is not None else l_total
            )
            out.append((alpha, t, l_total, l_restricted))
    return out
