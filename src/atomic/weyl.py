"""Finite Weyl group elements, words, inversion sets and reflection subgroups.

Elements are integer matrices acting on simple-root coordinates; column i of
the matrix is the image of alpha_i.  The matrix is stored flat, column after
column, and every element carries its inverse in the same form: a product
computes (xy)^{-1} = y^{-1} x^{-1} alongside xy, and reflections are their
own inverses, so no element is ever inverted by elimination unless it was
built from explicit columns.  Words multiply by ordinary composition: the
word [i1, i2, ..., ir] evaluates to s_{i1} o s_{i2} o ... o s_{ir}, i.e. the
rightmost letter acts first.  Equality and hashing go through the matrix,
never through words.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from operator import add, mul

from .errors import (
    IndexOutOfRange,
    NotAReflection,
    NotReduced,
    SubgroupTooLarge,
    SystemMismatch,
)
from .linalg import mat_inv
from .rootdata import RootSystem, Weight

GROUP_ENUMERATION_CAP = 10**7

Word = tuple[int, ...]


@lru_cache(maxsize=None)
def _identity_flat(n: int) -> tuple[int, ...]:
    return tuple(int(i == j) for j in range(n) for i in range(n))


def _apply(flat, x, n):
    """The flat column-major matrix applied to x: sum_j x_j * column_j.

    Zero coordinates are skipped, so images of roots (few nonzero
    coordinates) cost a handful of column additions.
    """
    acc = None
    for j, c in enumerate(x):
        if c:
            col = flat[j * n:(j + 1) * n]
            if acc is None:
                acc = col if c == 1 else [c * y for y in col]
            elif c == 1:
                acc = list(map(add, acc, col))
            else:
                acc = [u + c * y for u, y in zip(acc, col)]
    return (0,) * n if acc is None else tuple(acc)


def _product(a, a_refl, b, b_refl, n):
    """Flat matrix of A.B from the flat matrices and reflection data.

    A reflection s_beta enters through x -> x - <x, beta^vee> beta: on the
    left it costs one dot product per column of B; on the right, column j
    of A.s_beta is A alpha_j - <alpha_j, beta^vee> A beta, one image of
    beta in all.  Two general matrices combine columns.
    """
    out = []
    if a_refl is not None:
        root, coroot = a_refl
        for j in range(0, n * n, n):
            col = b[j:j + n]
            k = sum(map(mul, coroot, col))
            out.extend([c - k * r for c, r in zip(col, root)] if k else col)
    elif b_refl is not None:
        root, coroot = b_refl
        image = _apply(a, root, n)
        for j, k in zip(range(0, n * n, n), coroot):
            col = a[j:j + n]
            out.extend([c - k * r for c, r in zip(col, image)] if k else col)
    else:
        for j in range(0, n * n, n):
            out.extend(_apply(a, b[j:j + n], n))
    return tuple(out)


def _element(system: RootSystem, flat, inverse, refl=None) -> "WeylElement":
    w = object.__new__(WeylElement)
    w.system = system
    w._m = flat
    w._inv = inverse
    w._refl = refl
    w._hash = hash(flat)
    w._inversions = None
    return w


class WeylElement:
    """A Weyl group element as an integer matrix in simple-root coordinates."""

    __slots__ = ("system", "_m", "_inv", "_refl", "_hash", "_inversions")

    def __init__(self, system: RootSystem, cols):
        self.system = system
        self._m = tuple(x for c in cols for x in c)
        self._inv = None  # computed on demand: no product carries it here
        self._refl = None
        self._hash = hash(self._m)
        self._inversions = None

    @property
    def cols(self) -> tuple[tuple[int, ...], ...]:
        """Column i is the image of alpha_{i+1}, in simple-root coordinates."""
        n, m = self.system.rank, self._m
        return tuple(m[j:j + n] for j in range(0, n * n, n))

    # -- group structure ------------------------------------------------

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if other.system is not self.system and self.system.label != other.system.label:
            raise SystemMismatch(f"{self.system.label} vs {other.system.label}")
        n = self.system.rank
        # (xy)^{-1} = y^{-1} x^{-1}; a reflection is its own inverse
        x_inv, y_inv = self._inverse_flat(), other._inverse_flat()
        return _element(
            self.system,
            _product(self._m, self._refl, other._m, other._refl, n),
            _product(y_inv, other._refl, x_inv, self._refl, n),
        )

    def inverse(self) -> "WeylElement":
        return _element(self.system, self._inverse_flat(), self._m, self._refl)

    def _inverse_flat(self):
        if self._inv is None:
            # Only elements built from explicit columns get here.  The
            # matrix is integral with determinant +-1, so the exact inverse
            # is integral again.
            n = self.system.rank
            rows = mat_inv(tuple(zip(*self.cols)))
            inv = [rows[i][j] for j in range(n) for i in range(n)]
            if any(x.denominator != 1 for x in inv):
                raise ValueError("matrix is not unimodular")
            self._inv = tuple(int(x) for x in inv)
        return self._inv

    def is_identity(self) -> bool:
        return self._m == _identity_flat(self.system.rank)

    # -- actions ----------------------------------------------------------

    def act_root(self, coords):
        """Apply the element to a vector in simple-root coordinates."""
        return _apply(self._m, coords, self.system.rank)

    def act_inverse_root(self, coords):
        return _apply(self._inverse_flat(), coords, self.system.rank)

    def act_weight(self, wt: Weight) -> Weight:
        if wt.system.label != self.system.label:
            raise SystemMismatch(f"{wt.system.label} vs {self.system.label}")
        image = self.act_root(wt.root)
        return Weight(self.system, self.system.fund_coords(image))

    # -- inversion combinatorics -------------------------------------------

    def inversion_set(self):
        """Positive roots alpha with w^{-1}(alpha) negative, in root order.

        Computed as { -w(beta) : beta > 0, w(beta) < 0 }, which needs only
        the forward matrix.
        """
        if self._inversions is None:
            out = []
            for beta in self.system.positive_roots:
                img = self.act_root(beta)
                if all(c <= 0 for c in img):
                    out.append(tuple(-c for c in img))
            order = self.system.root_index
            self._inversions = tuple(sorted(out, key=order.__getitem__))
        return self._inversions

    def length(self) -> int:
        return len(self.inversion_set())

    def left_descents(self):
        """Indices i with ell(s_i w) < ell(w), i.e. w^{-1}(alpha_i) < 0."""
        n, inv = self.system.rank, self._inverse_flat()
        return tuple(
            i // n + 1
            for i in range(0, n * n, n)
            if all(c <= 0 for c in inv[i:i + n])
        )

    def reduced_word(self) -> Word:
        """Deterministic reduced word, stripping the smallest left descent."""
        letters = []
        w = self
        while True:
            descents = w.left_descents()
            if not descents:
                break
            i = descents[0]
            letters.append(i)
            w = simple_reflection(self.system, i) * w
        return tuple(letters)

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and self._m == other._m
            and (self.system is other.system or self.system.label == other.system.label)
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        word = ",".join(map(str, self.reduced_word())) or "e"
        return f"<{self.system.label}:{word}>"


def identity_element(system: RootSystem) -> WeylElement:
    flat = _identity_flat(system.rank)
    return _element(system, flat, flat)


def simple_reflection(system: RootSystem, i: int) -> WeylElement:
    """s_i(alpha_j) = alpha_j - a_ij alpha_i."""
    if not 1 <= i <= system.rank:
        raise IndexOutOfRange(f"simple index {i} outside 1..{system.rank}")
    return root_reflection(system, system.simple_root(i))


_REFLECTION_CACHE: dict = {}


def root_reflection(system: RootSystem, root) -> WeylElement:
    """The reflection s_beta(x) = x - <x, beta^vee> beta for any root beta.

    <x, beta^vee> = 2 x^T G beta / beta^T G beta is a dot product of x with
    an integer row, which the reflection keeps for its products.
    """
    root = tuple(root)
    key = (system.label, root)
    cached = _REFLECTION_CACHE.get(key)
    if cached is not None:
        return cached
    n = system.rank
    g_root = tuple(sum(map(mul, row, root)) for row in system.gram)
    norm = sum(map(mul, root, g_root))
    if any(2 * x % norm for x in g_root):
        raise ValueError(f"{root} is not a root")
    coroot = tuple(2 * x // norm for x in g_root)
    flat = tuple(
        int(k == j) - coroot[j] * root[k] for j in range(n) for k in range(n)
    )
    t = _element(system, flat, flat, (root, coroot))
    _REFLECTION_CACHE[key] = t
    return t


def evaluate(system: RootSystem, word) -> WeylElement:
    w = identity_element(system)
    for i in word:
        w = w * simple_reflection(system, i)
    return w


def inversion_set_from_word(system: RootSystem, word):
    """N(w) read off a reduced word as (alpha_{i1}, s_{i1}(alpha_{i2}), ...).

    Returns the ordered tuple of roots; raises NotReduced when the word has
    repeats, i.e. is longer than the length of its evaluation.
    """
    prefix = identity_element(system)
    out = []
    for i in word:
        root = prefix.act_root(system.simple_root(i))
        # reduced words are exactly those whose prefix roots stay positive
        if not any(c > 0 for c in root):
            raise NotReduced(f"word {tuple(word)} is not reduced")
        out.append(root)
        prefix = prefix * simple_reflection(system, i)
    return tuple(out)


def longest_element(system: RootSystem) -> WeylElement:
    """Greedy ascent: multiply by s_i while w(alpha_i) stays positive."""
    w = identity_element(system)
    n = system.rank
    while True:
        for i in range(1, n + 1):
            if all(c >= 0 for c in w.act_root(system.simple_root(i))):
                w = w * simple_reflection(system, i)
                break
        else:
            return w


def enumerate_group(system: RootSystem, generators=None, cap=GROUP_ENUMERATION_CAP):
    """All elements of the group generated by `generators` (default: all s_i).

    Deterministic BFS over the Cayley graph; raises SubgroupTooLarge past the
    cap.
    """
    if generators is None:
        generators = [simple_reflection(system, i) for i in range(1, system.rank + 1)]
    e = identity_element(system)
    seen = {e}
    queue = deque([e])
    while queue:
        w = queue.popleft()
        for g in generators:
            x = w * g
            if x not in seen:
                if len(seen) >= cap:
                    raise SubgroupTooLarge(f"more than {cap} elements")
                seen.add(x)
                queue.append(x)
    return seen


def _component_group_order(system: RootSystem, nodes) -> int:
    """Order of the Weyl group of one connected induced subdiagram."""
    from math import factorial

    n = len(nodes)
    pairs = [
        (i, j)
        for i in nodes
        for j in nodes
        if i < j and system.cartan[i][j] != 0
    ]
    bond = {
        (i, j): system.cartan[i][j] * system.cartan[j][i] for (i, j) in pairs
    }
    if any(b == 3 for b in bond.values()):
        return 12  # G2
    degree = {i: sum(1 for p in pairs if i in p) for i in nodes}
    doubles = [p for p, b in bond.items() if b == 2]
    if doubles:
        (i, j) = doubles[0]
        if n == 4 and degree[i] == 2 and degree[j] == 2:
            return 1152  # F4
        return 2**n * factorial(n)  # B/C chain
    if not nodes:
        return 1
    if all(d <= 2 for d in degree.values()):
        return factorial(n + 1)  # type A chain
    branch = next(i for i in nodes if degree[i] == 3)
    # arm lengths away from the branch node
    arms = []
    for start in (j for j in nodes if (min(j, branch), max(j, branch)) in bond):
        length, prev, cur = 1, branch, start
        while True:
            nxt = [
                k
                for k in nodes
                if k != prev and (min(k, cur), max(k, cur)) in bond
            ]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    if sorted(arms)[:2] == [1, 1]:
        return 2 ** (n - 1) * factorial(n)  # type D
    return {6: 51840, 7: 2903040, 8: 696729600}[n]  # type E


def group_order(system: RootSystem) -> int:
    """|W|, from the classification of the (connected) diagram."""
    return _component_group_order(system, list(range(system.rank)))


def parabolic_order(system: RootSystem, indices) -> int:
    """|W_I| for a set of 1-based simple indices, by component."""
    nodes = sorted(i - 1 for i in indices)
    remaining = set(nodes)
    total = 1
    while remaining:
        seed = remaining.pop()
        comp = {seed}
        stack = [seed]
        while stack:
            i = stack.pop()
            for j in list(remaining):
                if system.cartan[i][j] != 0:
                    remaining.discard(j)
                    comp.add(j)
                    stack.append(j)
        total *= _component_group_order(system, sorted(comp))
    return total


def dominant_orbit_size(system: RootSystem, fund_coords) -> int:
    """|W . lambda| = |W| / |W_I| with I the zero nodes of a dominant weight."""
    zero = [i + 1 for i, c in enumerate(fund_coords) if c == 0]
    return group_order(system) // parabolic_order(system, zero)


def reduced_words(w: WeylElement):
    """All reduced words of w (left-descent recursion, memoised per call)."""
    memo: dict[WeylElement, tuple[Word, ...]] = {}

    def rec(u: WeylElement) -> tuple[Word, ...]:
        if u.is_identity():
            return ((),)
        if u in memo:
            return memo[u]
        words = []
        for i in u.left_descents():
            rest = simple_reflection(u.system, i) * u
            words.extend((i,) + tail for tail in rec(rest))
        memo[u] = tuple(words)
        return memo[u]

    return rec(w)


class ReflectionSubgroup:
    """A reflection subgroup W_A with its canonical simple system Delta_A.

    Delta_A is Dyer's set { alpha in Phi_A^+ : N(s_alpha) cap Phi_A = {alpha} }
    and Phi_A is obtained by closing the generating roots under mutual
    reflection.
    """

    def __init__(self, system: RootSystem, generators, cap=GROUP_ENUMERATION_CAP):
        self.system = system
        self.generators = tuple(generators)
        self.cap = cap
        gen_roots = [reflection_root(system, t) for t in self.generators]

        # Close the generating roots under mutual reflection.  Processing a
        # root pairs it with everything already present, and later additions
        # pick up the earlier ones when their own turn comes.
        closure = set()
        pending = deque(gen_roots)
        while pending:
            c = pending.popleft()
            if c in closure:
                continue
            rc = root_reflection(system, c)
            for x in list(closure):
                for img in (rc.act_root(x), root_reflection(system, x).act_root(c)):
                    pos = img if any(v > 0 for v in img) else tuple(-v for v in img)
                    if pos not in closure:
                        pending.append(pos)
            closure.add(c)
        order = system.root_index
        self.phi_plus = tuple(sorted(closure, key=order.__getitem__))
        self._phi_set = frozenset(self.phi_plus)

        delta = []
        for a in self.phi_plus:
            inv = root_reflection(system, a).inversion_set()
            if sum(1 for r in inv if r in self._phi_set) == 1:
                delta.append(a)
        self.delta = tuple(delta)
        self.simple_reflections = tuple(root_reflection(system, a) for a in delta)
        self.cartan = tuple(
            tuple(int(system.coroot_pairing(b, a)) for b in delta) for a in delta
        )
        self._elements = None

    def contains_root(self, root) -> bool:
        r = tuple(root)
        return r in self._phi_set or tuple(-c for c in r) in self._phi_set

    def elements(self):
        if self._elements is None:
            self._elements = enumerate_group(
                self.system, self.simple_reflections, self.cap
            )
        return self._elements

    def inversion_set_in_subgroup(self, w: WeylElement):
        """N_A(w) = N(w) cap Phi_A for w in W_A."""
        return tuple(r for r in w.inversion_set() if r in self._phi_set)

    def atomic_length_in_subgroup(self, w: WeylElement):
        """Atomic length over N_A(w), with ambient heights.

        Heights stay those of the ambient system: the decomposition identity
        L(tw) = L_A((tw)_A) + L(t, A) splits an ambient height sum, so both
        summands must weigh roots the same way.
        """
        return sum(
            self.system.height(r) for r in self.inversion_set_in_subgroup(w)
        )

    def __repr__(self):
        return f"ReflectionSubgroup({self.system.label}, |Delta_A|={len(self.delta)})"


def reflection_root(system: RootSystem, t: WeylElement):
    """The positive root alpha with t = s_alpha; raises NotAReflection.

    Only beta = +-alpha can satisfy s_alpha(beta) = -beta, so the scan first
    locates the candidate root and then matches t against s_alpha exactly.
    """
    for alpha in system.positive_roots:
        if t.act_root(alpha) == tuple(-c for c in alpha):
            if t == root_reflection(system, alpha):
                return alpha
            break
    raise NotAReflection("element is not a reflection")


def is_reflection(system: RootSystem, t: WeylElement) -> bool:
    try:
        reflection_root(system, t)
    except NotAReflection:
        return False
    return True


def standard_parabolic(system: RootSystem, indices) -> ReflectionSubgroup:
    """The parabolic subgroup generated by { s_i : i in indices }."""
    gens = [simple_reflection(system, i) for i in sorted(indices)]
    return ReflectionSubgroup(system, gens)


def a_decomposition(w: WeylElement, sub: ReflectionSubgroup):
    """Unique factorisation w = w_A * rest with N(rest) cap Phi_A empty.

    Strips canonical simple roots of Delta_A out of N(w) from the left;
    only Delta_A needs testing thanks to the Bruhat-graph functoriality.
    The inverse of the running remainder is maintained incrementally.
    """
    system = w.system
    rest = w
    inv = w.inverse()
    w_a = identity_element(system)
    stripped = True
    while stripped:
        stripped = False
        for a in sub.delta:
            pre = inv.act_root(a)
            if all(c <= 0 for c in pre):
                s = root_reflection(system, a)
                rest = s * rest
                inv = inv * s
                w_a = w_a * s
                stripped = True
                break
    return w_a, rest


def utopic_check(w: WeylElement, sub: ReflectionSubgroup, cap=GROUP_ENUMERATION_CAP) -> bool:
    """Whether x -> (w x)_A is a bijection from w W_A w^{-1} onto W_A."""
    elements = sub.elements()
    if len(elements) > cap:
        raise SubgroupTooLarge(f"|W_A| = {len(elements)} exceeds cap {cap}")
    w_inv = w.inverse()
    images = set()
    for t in elements:
        x = w * t * w_inv  # runs over W_B
        img, _ = a_decomposition(w * x, sub)
        if img in images:
            return False
        images.add(img)
    return len(images) == len(elements)
