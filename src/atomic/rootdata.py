"""Exact root-system and Cartan data for the finite Dynkin types.

Conventions follow the Bourbaki planches: simple roots are numbered so that
B_n/C_n have their short/long root at node n, D_n forks at nodes n-1 and n,
and E_n attaches node 2 to node 4 of the chain 1-3-4-5-...  Roots and
group elements live in simple-root coordinates; weights are stored by their
integer fundamental coordinates.  The bilinear form is normalised so that
the highest root theta has (theta|theta) equal to 2.

The form is kept as one integer Gram matrix G = diag(e) A, where e is the
least integer symmetrizer (e_i a_ij = e_j a_ji; e_i is 1 on the short
roots and D on the long ones) and D = max e is 1 in the simply-laced
types, 2 in B, C and F and 3 in G, so x^T G y = D (x|y).  Hot paths work
with these scaled integers and divide by D (or 2D) once, at the end;
`inner_product` is that single division.  Weights, whose simple-root
coordinates are rational, are scaled likewise by S, the least common
denominator of the inverse Cartan matrix: S A^{-1} is built once, in
integers, from the determinant and adjugate of A (`linalg.eliminate`), and
`scaled_root_coords` is one product with it; classical labels such as
e_i - e_j are read through it too.  Exact divisions go through
`linalg.exact_div`, which checks them.  Set-up runs on integers alone;
Fractions appear only in the views `root_coords`, `inner_product`,
`coroot_pairing` and `Weight.root`, and in the input check
`integral_coords`.

A weight checks its coordinates once, when built; each entry point that
takes one with a system or an element makes one call, `require_dominant_in`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, wraps
from operator import mul

from .errors import DimensionMismatch, IndexOutOfRange, InvalidType, NotDominant, SystemMismatch
from .linalg import eliminate, exact_div, mat_vec

_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (4, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
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


def per_system(build):
    """Keep build(system, *args) in a table on the system itself, one per
    function and argument tuple, built on first use.  The entries live as
    long as the system and no longer; a module-level cache keyed by the
    system would keep every system it saw alive."""

    @wraps(build)
    def cached(system, *args):
        table = system._derived.get(build)
        if table is None:
            table = system._derived[build] = {}
        value = table.get(args)
        if value is None:
            value = table[args] = build(system, *args)
        return value

    return cached


class RootSystem:
    """Immutable Cartan data for one finite type (possibly affine-labelled).

    The object always carries the *finite* root combinatorics; the affine
    flag on the label only unlocks the affine operations built on top of it.
    """

    def __init__(self, label: TypeLabel):
        self.label = label
        self._derived = {}  # the tables of `per_system`
        n = label.rank
        self.rank = n
        self.cartan = cartan_matrix(label.family, n)

        self.positive_roots = self._generate_positive_roots()
        self.root_index = {r: i for i, r in enumerate(self.positive_roots)}
        # (support bitmask, height) per positive root, read by weyl.parabolic_order
        self.root_supports = tuple(
            (sum(1 << i for i, c in enumerate(r) if c), sum(r))
            for r in self.positive_roots
        )
        self.highest_root = self.positive_roots[-1]

        # The least integer symmetrizer e, with e_i a_ij = e_j a_ji, is
        # propagated over the Dynkin graph from e_0 = r, the largest bond
        # (so every e_j is an integer), then divided by the gcd.  Long roots
        # get e_i = D and G = diag(e) A.
        cartan = self.cartan
        e = [max(1, *(-a for row in cartan for a in row))] + [0] * (n - 1)
        stack = [0]
        while stack:
            i = stack.pop()
            for j in range(n):
                if j != i and cartan[i][j] and not e[j]:
                    e[j] = exact_div(e[i] * cartan[i][j], cartan[j][i], "symmetrizer")
                    stack.append(j)
        g = math.gcd(*e)
        e = [ei // g for ei in e]
        self.gram_scale = max(e)
        self.gram = tuple(tuple(ei * a for a in row) for ei, row in zip(e, cartan))
        # A^{-1} = adj A / det A; dividing both by their gcd g leaves the
        # least S = det A / g with S A^{-1} integral.
        det, adj, _ = eliminate(cartan)
        g = math.gcd(det, *(c for row in adj for c in row))
        self.weight_scale = det // g
        self._scaled_cartan_inv = tuple(tuple(c // g for c in row) for row in adj)
        self.marks = (1,) + self.highest_root
        # a_i^vee = theta_i (alpha_i|alpha_i) / 2 = theta_i G_ii / 2D
        self.comarks = (1,) + tuple(
            exact_div(c * self.gram[i][i], 2 * self.gram_scale, "comark")
            for i, c in enumerate(self.highest_root)
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
        """Simple-root coordinates of a vector given in the fundamental basis,
        as Fractions: `scaled_root_coords` divided by S once."""
        scale = self.weight_scale
        return tuple(Fraction(c, scale) for c in self.scaled_root_coords(fund_coords))

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
        return c in self.root_index or tuple(-x for x in c) in self.root_index

    def simple_root(self, i: int):
        if not 1 <= i <= self.rank:
            raise IndexOutOfRange(f"simple index {i} outside 1..{self.rank}")
        return tuple(1 if j == i - 1 else 0 for j in range(self.rank))

    # -- weights ---------------------------------------------------------

    def weight(self, *fund) -> "Weight":
        return Weight(self, fund)

    def fundamental_weight(self, i: int) -> "Weight":
        if not 1 <= i <= self.rank:
            raise IndexOutOfRange(f"simple index {i} outside 1..{self.rank}")
        return Weight(self, tuple(int(j == i - 1) for j in range(self.rank)))

    @property
    def rho_coords(self):
        """rho in the simple-root basis; its fundamental coordinates are all 1."""
        return self.root_coords((1,) * self.rank)

    @property
    def rho(self) -> "Weight":
        return Weight(self, (1,) * self.rank)

    def __eq__(self, other):
        """Two systems built apart for one type are the same system."""
        return isinstance(other, RootSystem) and self.label == other.label

    def __hash__(self):
        return hash(self.label)

    def __repr__(self):
        return f"RootSystem({self.label})"


def integral_coords(coords, what: str) -> tuple[int, ...]:
    """The coordinates as ints; a non-integral one raises NotDominant."""
    exact = tuple(Fraction(c) for c in coords)
    if any(c.denominator != 1 for c in exact):
        raise NotDominant(f"{what} {coords} is not dominant integral")
    return tuple(c.numerator for c in exact)


def same_system(a: RootSystem, b: RootSystem):
    """Refuse two root systems of different types with SystemMismatch."""
    if a != b:
        raise SystemMismatch(f"{a.label} vs {b.label}")


@dataclass(frozen=True)
class Weight:
    """An integral weight given by its fundamental-weight coordinates.

    Checked once, here: one coordinate per simple root (DimensionMismatch),
    each an integer (NotDominant), converted to `int`; `dominant` records
    whether every coordinate is >= 0.
    """

    system: RootSystem
    fund: tuple[int, ...]
    dominant: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rank = self.system.rank
        if len(self.fund) != rank:
            raise DimensionMismatch(
                f"expected {rank} fundamental coordinates, got {len(self.fund)}"
            )
        fund = integral_coords(self.fund, "weight")
        object.__setattr__(self, "fund", fund)
        object.__setattr__(self, "dominant", min(fund) >= 0)

    @property
    def root(self) -> tuple[Fraction, ...]:
        return self.system.root_coords(self.fund)

    def require_dominant_in(self, system: RootSystem):
        """The one check of an entry point that takes this weight with a
        system or an element of it: the weight must belong to `system`
        (SystemMismatch) and be dominant (NotDominant)."""
        same_system(self.system, system)
        if not self.dominant:
            raise NotDominant(f"weight {self.fund} is not dominant integral")

    def __sub__(self, other: "Weight") -> "Weight":
        same_system(self.system, other.system)
        return Weight(self.system, tuple(a - b for a, b in zip(self.fund, other.fund)))

    def __rmul__(self, k) -> "Weight":
        return Weight(self.system, tuple(k * c for c in self.fund))


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
# simple-root coordinates.  The ambient realisations are the Bourbaki ones,
# in integers.


def _ambient_simple_roots(system: RootSystem):
    fam, n = system.label.family, system.rank
    if fam not in "ABCD":
        raise InvalidType(f"no classical ambient realisation for {system.label}")
    dim = n + 1 if fam == "A" else n
    alphas = [[0] * dim for _ in range(n)]
    for i, a in enumerate(alphas[: n if fam == "A" else n - 1]):
        a[i], a[i + 1] = 1, -1
    if fam == "B":
        alphas[-1][n - 1] = 1
    elif fam == "C":
        alphas[-1][n - 1] = 2
    elif fam == "D":
        alphas[-1][n - 2] = alphas[-1][n - 1] = 1
    return alphas


def classical_root(system: RootSystem, kind: str, i: int, j: int | None = None):
    """Classical root labels: kind "diff" is e_i - e_j, "sum" is e_i + e_j,
    "short" is e_i (a root in type B) and "long" is 2 e_i (a root in type C).
    The fundamental coordinates of the label's vector v are <v, alpha_j^vee>
    = 2 (v.a_j) / (a_j.a_j); a label that is not a root raises ValueError."""
    alphas = _ambient_simple_roots(system)
    dim = len(alphas[0])
    if not all(1 <= k <= dim for k in (i, j) if k is not None):
        raise IndexOutOfRange(f"ambient index outside 1..{dim}")
    v = [0] * dim
    if kind in ("diff", "sum"):
        v[i - 1] += 1
        v[j - 1] += 1 if kind == "sum" else -1
    elif kind in ("short", "long"):
        v[i - 1] = 1 if kind == "short" else 2
    else:
        raise ValueError(f"unknown classical root kind {kind!r}")
    fund = tuple(
        exact_div(2 * sum(map(mul, v, a)), sum(map(mul, a, a)), "<v, alpha_j^vee>")
        for a in alphas
    )
    coords = tuple(c // system.weight_scale for c in system.scaled_root_coords(fund))
    # v lies in the root lattice exactly when these coordinates give it back
    back = [sum(c * a[k] for c, a in zip(coords, alphas)) for k in range(dim)]
    if back != v or not system.is_root(coords):
        raise ValueError(f"{kind} label {tuple(v)} is not a root of {system.label}")
    return coords
