"""The atomic length, its lambda-deformation, and image-set computation.

The image of the lambda-atomic length over the whole group is computed by a
breadth-first walk over the weight orbit W.lambda rather than over W itself:
the statistic factors through w(lambda), and each edge mu -> s_i(mu) changes
the value by the i-th fundamental coordinate of mu.  Orbit states are packed
into single integers so that the largest stock orbit (E7, 2.9M weights) fits
comfortably in memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from .errors import InvalidType, InvariantViolation, OrbitTooLarge
from .rootdata import RootSystem, Weight
from .weyl import WeylElement, identity_element, longest_element, simple_reflection

ORBIT_CAP = 2**27


def atomic_length(w: WeylElement):
    """Sum of the heights of the inversions of w."""
    return sum(w.system.height(a) for a in w.inversion_set())


def lambda_atomic_length(w: WeylElement, lam: Weight):
    """<lambda - w(lambda), rho^vee> for a dominant integral weight lambda.

    Runs on S * lambda in simple-root coordinates (S = `weight_scale`), an
    integer vector; the height difference is divided by S once.
    """
    lam.require_dominant_integral()
    system = w.system
    scaled = system.scaled_root_coords(tuple(int(c) for c in lam.fund))
    value, rem = divmod(sum(scaled) - sum(w.act_root(scaled)), system.weight_scale)
    if rem or value < 0:
        raise InvariantViolation(
            f"<lambda - w(lambda), rho^vee> = {value} + {rem}/{system.weight_scale} "
            "is not a nonnegative integer"
        )
    return value


@dataclass(frozen=True)
class LambdaInvEntry:
    """One entry m_j * (prefix)(alpha_j) of a lambda-inversion set."""

    vector: tuple  # the scaled root, in simple-root coordinates
    j: int  # which simple reflection produced it
    k: int  # occurrence count of that letter so far


@dataclass(frozen=True)
class LambdaInversionSet:
    """Multiset of scaled roots attached to a reduced word and a weight."""

    rank: int
    entries: tuple[LambdaInvEntry, ...]
    source_word: tuple[int, ...]

    def vectors(self):
        return tuple(e.vector for e in self.entries)

    def total(self):
        return tuple(
            sum(e.vector[i] for e in self.entries) for i in range(self.rank)
        )

    def height_sum(self):
        return sum(sum(e.vector) for e in self.entries)


def lambda_inversion_set(system: RootSystem, word, lam: Weight) -> LambdaInversionSet:
    """Scaled inversion multiset { m_j * prefix(alpha_j) } along a reduced word."""
    from .weyl import inversion_set_from_word

    inversion_set_from_word(system, word)  # raises NotReduced when not reduced
    prefix = identity_element(system)
    occurrences = {}
    entries = []
    for letter in word:
        occurrences[letter] = occurrences.get(letter, 0) + 1
        root = prefix.act_root(system.simple_root(letter))
        m = lam.fund[letter - 1]
        entries.append(
            LambdaInvEntry(tuple(m * c for c in root), letter, occurrences[letter])
        )
        prefix = prefix * simple_reflection(system, letter)
    return LambdaInversionSet(system.rank, tuple(entries), tuple(word))


@dataclass(frozen=True)
class ImageReport:
    """Attained value set of a lambda-atomic length over the full group."""

    values: tuple[int, ...]
    max_value: int
    missing: tuple[int, ...]
    orbit_size: int
    histogram: dict | None = None

    @property
    def surjective(self) -> bool:
        return not self.missing

    def as_dict(self):
        return {
            "values": list(self.values),
            "max": self.max_value,
            "missing": list(self.missing),
            "orbit_size": self.orbit_size,
        }


def _orbit_depths(system: RootSystem, lam: Weight, cap):
    """Depth histogram over the orbit W.lambda, by packed-integer BFS."""
    n = system.rank
    start = tuple(int(c) for c in lam.fund)
    # Every orbit weight has coordinates <lambda, beta^vee> for roots beta,
    # which bounds the field width needed for packing.
    bound = 1
    for beta in system.positive_roots:
        bound = max(bound, abs(int(system.coroot_pairing(lam.root, beta))))
    width = (2 * bound + 1).bit_length() + 1
    mask = (1 << width) - 1
    offset = bound

    shifts = [i * width for i in range(n)]
    # Applying s_i subtracts c_i times column i of the Cartan matrix; on the
    # packed form that is one integer subtraction as long as every field
    # stays in range, which the bound guarantees.
    column_keys = [
        sum(system.cartan[j][i] << shifts[j] for j in range(n)) for i in range(n)
    ]

    def pack(coords):
        acc = 0
        for i in range(n):
            acc |= (coords[i] + offset) << shifts[i]
        return acc

    start_code = pack(start)
    seen = {start_code}
    stack = [(start_code, 0)]
    histogram: dict[int, int] = {}
    while stack:
        code, depth = stack.pop()
        histogram[depth] = histogram.get(depth, 0) + 1
        for i in range(n):
            c = ((code >> shifts[i]) & mask) - offset
            if c > 0:
                nxt = code - c * column_keys[i]
                if nxt not in seen:
                    if len(seen) >= cap:
                        raise OrbitTooLarge(f"orbit exceeds cap {cap}")
                    seen.add(nxt)
                    stack.append((nxt, depth + c))
    return histogram


def image_set(system: RootSystem, lam: Weight, cap=ORBIT_CAP, histogram=False) -> ImageReport:
    """All values of the lambda-atomic length on W, via the orbit walk."""
    from .weyl import dominant_orbit_size

    if system.label.affine:
        raise InvalidType(
            f"{system.label} is affine; the image is taken over a finite type"
        )
    lam.require_dominant_integral()
    predicted = dominant_orbit_size(system, lam.fund)
    if predicted > cap:
        raise OrbitTooLarge(f"orbit has {predicted} weights, above cap {cap}")
    hist = _orbit_depths(system, lam, cap)
    orbit_size = sum(hist.values())
    if orbit_size != predicted:
        raise InvariantViolation(
            f"orbit walk found {orbit_size} weights, |W|/|W_I| = {predicted}"
        )
    values = tuple(sorted(hist))
    max_value = values[-1]
    missing = tuple(v for v in range(max_value + 1) if v not in hist)
    return ImageReport(
        values=values,
        max_value=max_value,
        missing=missing,
        orbit_size=orbit_size,
        histogram=dict(sorted(hist.items())) if histogram else None,
    )


def atomic_length_w0(system: RootSystem, lam: Weight) -> int:
    """The maximal value <lambda - w0(lambda), rho^vee>."""
    lam.require_dominant_integral()
    w0 = longest_element(system)
    return lambda_atomic_length(w0, lam)


@dataclass(frozen=True)
class IdealReport:
    ideal: bool
    reason: str
    image: ImageReport | None


def is_ideal(system: RootSystem, lam: Weight, cap=ORBIT_CAP) -> IdealReport:
    """Whether the lambda-atomic length attains every value in [0, max].

    A dominant weight whose coordinates are all at least 2 can never attain
    the value 1, so such weights are rejected without walking the orbit.
    """
    lam.require_dominant_integral()
    if all(c >= 2 for c in lam.fund) and any(c > 0 for c in lam.fund):
        return IdealReport(False, "no coordinate equals 1", None)
    report = image_set(system, lam, cap)
    if report.surjective:
        return IdealReport(True, "full interval", report)
    return IdealReport(False, "gaps in value range", report)


_MINUSCULE_NODES = {
    "A": lambda n: list(range(1, n + 1)),
    "B": lambda n: [n],
    "C": lambda n: [1],
    "D": lambda n: [1, n - 1, n],
    "E": lambda n: {6: [1, 6], 7: [7], 8: []}[n],
    "F": lambda n: [],
    "G": lambda n: [],
}


def minuscule_weights(system: RootSystem) -> tuple[Weight, ...]:
    """The minuscule fundamental weights, checked against the defining pairing."""
    nodes = _MINUSCULE_NODES[system.label.family](system.rank)
    out = []
    for i in nodes:
        wt = system.fundamental_weight(i)
        if any(
            abs(system.coroot_pairing(wt.root, beta)) > 1
            for beta in system.positive_roots
        ):
            raise InvariantViolation(
                f"omega_{i} fails the minuscule pairing test in {system.label}"
            )
        out.append(wt)
    return tuple(out)
