"""Exact root-system and Cartan data for the finite Dynkin types.

Conventions follow the Bourbaki planches: simple roots are numbered so that
B_n/C_n have their short/long root at node n, D_n forks at nodes n-1 and n,
and E_n attaches node 2 to node 4 of the chain 1-3-4-5-...  All vectors are
stored in simple-root coordinates; the bilinear form is normalised so that
the highest root theta has (theta|theta) equal to 2.

The form is kept as one integer Gram matrix G = D (d_i a_ij), where d is the
symmetrizer and D the common denominator of its entries (1 in the
simply-laced types, 2 in B, C and F, 3 in G), so x^T G y = D (x|y).  Hot
paths work with these scaled integers and divide by D (or 2D) once, at the
end; `inner_product` is that single division.  Weights, whose simple-root
coordinates are rational, are scaled likewise by S, the common denominator
of the inverse Cartan matrix (`scaled_root_coords`).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import DimensionMismatch, IndexOutOfRange, InvalidType, NotDominant
from .linalg import mat_inv, mat_vec, solve_columns

_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}

_POSITIVE_ROOT_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


@dataclass(frozen=True)
class TypeLabel:
    """A Dynkin type, optionally marked as its untwisted affinization."""

    family: str
    rank: int
    affine: bool = False

    def __post_init__(self):
        lo, hi = _RANK_RANGE.get(self.family, (None, None))
        if lo is None:
            raise InvalidType(f"unknown family {self.family!r}")
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise InvalidType(f"rank {self.rank} out of range for type {self.family}")

    def __str__(self):
        return f"{self.family}{self.rank}" + ("~" if self.affine else "")

    def finite(self) -> "TypeLabel":
        return TypeLabel(self.family, self.rank, False)


_TYPE_RE = re.compile(r"^([A-G])(\d+)(~|\^\(1\))?$")


def parse_type(text: str) -> TypeLabel:
    """Parse a type string such as "B4", "A2~" or "A2^(1)"."""
    m = _TYPE_RE.match(text.strip())
    if not m:
        raise InvalidType(f"cannot parse type string {text!r}")
    return TypeLabel(m.group(1), int(m.group(2)), m.group(3) is not None)


def cartan_matrix(family: str, n: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix a_ij = <alpha_j, alpha_i^vee> in Bourbaki numbering."""
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def edge(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if family in ("A", "B", "C", "F"):
        for i in range(n - 1):
            edge(i, i + 1)
        if family == "B":
            a[n - 1][n - 2] = -2
        elif family == "C":
            a[n - 2][n - 1] = -2
        elif family == "F":
            a[2][1] = -2
    elif family == "D":
        for i in range(n - 2):
            edge(i, i + 1)
        edge(n - 3, n - 1)
    elif family == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for u, v in zip(chain, chain[1:]):
            edge(u, v)
        edge(1, 3)
    elif family == "G":
        a[0][1] = -3
        a[1][0] = -1
    return tuple(tuple(row) for row in a)


class RootSystem:
    """Immutable Cartan data for one finite type (possibly affine-labelled).

    The object always carries the *finite* root combinatorics; the affine
    flag on the label only unlocks the affine operations built on top of it.
    """

    def __init__(self, label: TypeLabel):
        self.label = label
        n = label.rank
        self.rank = n
        self.cartan = cartan_matrix(label.family, n)
        self.cartan_inv = mat_inv(self.cartan)

        self.positive_roots = self._generate_positive_roots()
        self._positive_set = frozenset(self.positive_roots)
        self.root_index = {r: i for i, r in enumerate(self.positive_roots)}
        self.highest_root = self.positive_roots[-1]

        self.symmetrizer = self._symmetrizer()
        self.gram_scale = math.lcm(*(d.denominator for d in self.symmetrizer))
        self.gram = tuple(
            tuple(_scale(d, self.gram_scale) * a for a in row)
            for d, row in zip(self.symmetrizer, self.cartan)
        )
        self.weight_scale = math.lcm(
            *(c.denominator for row in self.cartan_inv for c in row)
        )
        self._scaled_cartan_inv = tuple(
            tuple(_scale(c, self.weight_scale) for c in row) for row in self.cartan_inv
        )
        # rho in the simple-root basis; its fundamental coordinates are all 1.
        self.rho_coords = tuple(
            sum(self.cartan_inv[i][j] for j in range(n)) for i in range(n)
        )
        self.marks = (1,) + self.highest_root
        self.comarks = (1,) + tuple(
            _as_int(d * c) for d, c in zip(self.symmetrizer, self.highest_root)
        )
        self.coxeter_number = sum(self.marks)
        self.dual_coxeter_number = sum(self.comarks)

    # -- construction -------------------------------------------------

    def _generate_positive_roots(self):
        n = self.rank
        simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        seen = set(simple)
        frontier = list(simple)
        while frontier:
            nxt = []
            for root in frontier:
                pair = mat_vec(self.cartan, root)
                for i in range(n):
                    if pair[i] == 0:
                        continue
                    img = list(root)
                    img[i] -= pair[i]
                    img = tuple(img)
                    if all(c >= 0 for c in img) and img not in seen:
                        seen.add(img)
                        nxt.append(img)
            frontier = nxt
        return tuple(sorted(seen, key=lambda r: (sum(r), r)))

    def _symmetrizer(self):
        # d_i a_ij = d_j a_ji propagated over the Dynkin graph, then scaled
        # so that (theta|theta) = 2.
        n = self.rank
        d = [None] * n
        d[0] = Fraction(1)
        stack = [0]
        while stack:
            i = stack.pop()
            for j in range(n):
                if j != i and self.cartan[i][j] != 0 and d[j] is None:
                    d[j] = d[i] * self.cartan[i][j] / self.cartan[j][i]
                    stack.append(j)
        theta = self.highest_root
        norm = sum(
            d[i] * self.cartan[i][j] * theta[i] * theta[j]
            for i in range(n)
            for j in range(n)
        )
        scale = Fraction(2) / norm
        return tuple(di * scale for di in d)

    # -- basic linear data ---------------------------------------------

    def height(self, coords):
        """Sum of simple-root coordinates."""
        return sum(coords)

    def pairing(self, coords, i: int):
        """<x, alpha_i^vee> for x in simple-root coordinates; i is 1-based."""
        if not 1 <= i <= self.rank:
            raise IndexOutOfRange(f"simple index {i} outside 1..{self.rank}")
        return sum(self.cartan[i - 1][j] * coords[j] for j in range(self.rank))

    def fund_coords(self, root_coords):
        """Fundamental-weight coordinates of a vector given in root coordinates."""
        return mat_vec(self.cartan, root_coords)

    def root_coords(self, fund_coords):
        """Simple-root coordinates of a vector given in the fundamental basis."""
        return mat_vec(self.cartan_inv, fund_coords)

    def scaled_root_coords(self, fund_coords):
        """S times the simple-root coordinates, S = `weight_scale`; integral
        for integral fundamental coordinates."""
        return mat_vec(self._scaled_cartan_inv, fund_coords)

    def scaled_inner_product(self, x, y):
        """x^T G y = D (x|y); an integer whenever x and y are integral."""
        return sum(
            xi * sum(map(mul, row, y)) for xi, row in zip(x, self.gram) if xi
        )

    def inner_product(self, x, y):
        """The invariant bilinear form, long-root normalised: (theta|theta)=2."""
        if len(x) != len(y) or len(x) != self.rank:
            raise DimensionMismatch("vectors must have length equal to the rank")
        return Fraction(self.scaled_inner_product(x, y), self.gram_scale)

    def coroot_pairing(self, x, beta):
        """<x, beta^vee> = 2(x|beta)/(beta|beta) for a root beta."""
        return Fraction(
            2 * self.scaled_inner_product(x, beta),
            self.scaled_inner_product(beta, beta),
        )

    def require_finite(self, reason: str):
        """Refuse an affine label where only the finite type makes sense."""
        if self.label.affine:
            raise InvalidType(f"{self.label} is affine; {reason}")

    def is_root(self, coords) -> bool:
        c = tuple(coords)
        return c in self._positive_set or tuple(-x for x in c) in self._positive_set

    def simple_root(self, i: int):
        if not 1 <= i <= self.rank:
            raise IndexOutOfRange(f"simple index {i} outside 1..{self.rank}")
        return tuple(1 if j == i - 1 else 0 for j in range(self.rank))

    # -- weights ---------------------------------------------------------

    def weight(self, *fund) -> "Weight":
        if len(fund) != self.rank:
            raise DimensionMismatch(
                f"expected {self.rank} fundamental coordinates, got {len(fund)}"
            )
        return Weight(self, tuple(Fraction(c) for c in fund))

    def fundamental_weight(self, i: int) -> "Weight":
        if not 1 <= i <= self.rank:
            raise IndexOutOfRange(f"simple index {i} outside 1..{self.rank}")
        return Weight(self, tuple(Fraction(int(j == i - 1)) for j in range(self.rank)))

    @property
    def rho(self) -> "Weight":
        return Weight(self, (Fraction(1),) * self.rank)

    def __repr__(self):
        return f"RootSystem({self.label})"


def _scale(x: Fraction, scale: int) -> int:
    """scale * x for a scale that x's denominator divides."""
    return x.numerator * (scale // x.denominator)


def _as_int(x) -> int:
    f = Fraction(x)
    if f.denominator != 1:
        raise ValueError(f"expected integer, got {x}")
    return int(f)


@dataclass(frozen=True)
class Weight:
    """A vector given by its fundamental-weight coordinates."""

    system: RootSystem
    fund: tuple[Fraction, ...]

    @property
    def root(self) -> tuple[Fraction, ...]:
        return self.system.root_coords(self.fund)

    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.fund)

    def is_integral(self) -> bool:
        return all(Fraction(c).denominator == 1 for c in self.fund)

    def require_dominant_integral(self):
        if not self.is_integral() or not self.is_dominant():
            raise NotDominant(f"weight {self.fund} is not dominant integral")

    def height(self) -> Fraction:
        return sum(self.root, start=Fraction(0))

    def __add__(self, other: "Weight") -> "Weight":
        _same_system(self.system, other.system)
        return Weight(self.system, tuple(a + b for a, b in zip(self.fund, other.fund)))

    def __sub__(self, other: "Weight") -> "Weight":
        _same_system(self.system, other.system)
        return Weight(self.system, tuple(a - b for a, b in zip(self.fund, other.fund)))

    def __rmul__(self, k) -> "Weight":
        return Weight(self.system, tuple(Fraction(k) * c for c in self.fund))

    def __eq__(self, other):
        return (
            isinstance(other, Weight)
            and self.system.label == other.system.label
            and self.fund == other.fund
        )

    def __hash__(self):
        return hash((self.system.label, self.fund))


def _same_system(a: RootSystem, b: RootSystem):
    if a.label != b.label:
        from .errors import SystemMismatch

        raise SystemMismatch(f"{a.label} vs {b.label}")


@lru_cache(maxsize=None)
def _cached_system(label: TypeLabel) -> RootSystem:
    return RootSystem(label)


def root_system(spec: str | TypeLabel) -> RootSystem:
    """Build (or fetch the cached) root system for a type string or label."""
    label = parse_type(spec) if isinstance(spec, str) else spec
    return _cached_system(label)


# -- ambient coordinates for the classical types -------------------------
#
# Used by fixtures and display code to translate labels like e_i - e_j into
# simple-root coordinates.  The ambient realisations are the Bourbaki ones.


class _Vec(tuple):
    def __add__(self, other):
        return _Vec(a + b for a, b in zip(self, other))

    def __sub__(self, other):
        return _Vec(a - b for a, b in zip(self, other))

    def __rmul__(self, k):
        return _Vec(Fraction(k) * a for a in self)


def _unit(dim, i):
    return _Vec(Fraction(int(j == i)) for j in range(dim))


def _ambient_simple_roots(system: RootSystem):
    fam, n = system.label.family, system.rank
    if fam == "A":
        dim = n + 1
        alphas = [_unit(dim, i) - _unit(dim, i + 1) for i in range(n)]
    elif fam in ("B", "C", "D"):
        dim = n
        alphas = [_unit(dim, i) - _unit(dim, i + 1) for i in range(n - 1)]
        if fam == "B":
            alphas.append(_unit(dim, n - 1))
        elif fam == "C":
            alphas.append(2 * _unit(dim, n - 1))
        else:
            alphas.append(_unit(dim, n - 2) + _unit(dim, n - 1))
    else:
        raise InvalidType(f"no classical ambient realisation for {system.label}")
    return alphas


def ambient_to_root_coords(system: RootSystem, ambient) -> tuple[int, ...]:
    """Express an ambient-basis vector in simple-root coordinates."""
    alphas = _ambient_simple_roots(system)
    sol = solve_columns(alphas, tuple(Fraction(c) for c in ambient))
    return tuple(_as_int(c) for c in sol)


def classical_root(system: RootSystem, kind: str, i: int, j: int | None = None):
    """Classical root labels: kind "diff" is e_i - e_j, "sum" is e_i + e_j,
    "short" is e_i (types B/D ambient unit) and "long" is 2 e_i (type C)."""
    fam, n = system.label.family, system.rank
    dim = n + 1 if fam == "A" else n
    e = lambda k: _unit(dim, k - 1)
    if kind == "diff":
        v = e(i) - e(j)
    elif kind == "sum":
        v = e(i) + e(j)
    elif kind == "short":
        v = e(i)
    elif kind == "long":
        v = 2 * e(i)
    else:
        raise ValueError(f"unknown classical root kind {kind!r}")
    return ambient_to_root_coords(system, v)


def expected_positive_root_count(label: TypeLabel) -> int:
    return _POSITIVE_ROOT_COUNT[label.family](label.rank)
