"""Finite Weyl group elements, words, inversion sets and reflection subgroups.

Elements are integer matrices acting on simple-root coordinates; column i of
the matrix is the image of alpha_i.  The matrix is stored flat, column after
column, and it is the only matrix an element holds.  Words multiply by
ordinary composition: the word [i1, i2, ..., ir] evaluates to
s_{i1} o s_{i2} o ... o s_{ir}, i.e. the rightmost letter acts first.
Equality and hashing go through the matrix, never through words.

Inverses take one of two routes.  An element that `enumerate_group` built as
w = x s_beta from its parent x in the descent tree below is inverted as
w^{-1} = s_beta x^{-1}: one product on the left by the reflection, after the
parent's inverse.  Any other element reads its inverse from the form: W acts
by isometries of its invariant form (Humphreys, Reflection Groups and
Coxeter Groups, ch. 1), so with G = E A the integer Gram matrix of
`rootdata` (A the Cartan matrix, E = diag(G_ii / 2)) w^{-1} = G^{-1} w^T G =
A^{-1} E^{-1} w^T G, read from the one stored matrix a vector at a time
(`act_inverse_root`).  Either way the inverse is computed when first asked
for and kept.

Each element and each root image is built by one rank-one step.  A
reflection s_beta acts through its coroot row, x -> x - <x, beta^vee> beta,
one dot product (`rootdata._reflect`).  One tree, `_descent_tree`, walks
the group, a reflection subgroup from its canonical simple system (Dyer,
J. Algebra 135, 1990) and the orbit of a dominant weight, finite or
untwisted affine; each element is built once, from its parent, by one
product on the right by a reflection.
Inversion sets are read through the root poset: every positive root is a
simple root or an earlier positive root plus one, so each image w(beta) is
one column of w added to an image computed before it.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, mul

from .errors import (
    IndexOutOfRange,
    NegativeBound,
    NotAReflection,
    NotReduced,
    OrbitTooLarge,
    SubgroupTooLarge,
)
from .linalg import exact_div
from .rootdata import RootSystem, Weight, _reflect, _root_closure, per_system, same_system

GROUP_ENUMERATION_CAP = 10**7
ORBIT_WALK_CAP = 2**23

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


def _times_reflection(a, refl, n):
    """Flat matrix of A.s_beta: column j is A alpha_j - <alpha_j, beta^vee>
    A beta, one image of beta in all."""
    root, coroot = refl
    image = _apply(a, root, n)
    out = []
    for j, k in zip(range(0, n * n, n), coroot):
        col = a[j:j + n]
        out.extend([c - k * r for c, r in zip(col, image)] if k else col)
    return tuple(out)


def _product(a, a_refl, b, b_refl, n):
    """Flat matrix of A.B from the flat matrices and reflection data.

    A reflection on the left costs one dot product per column of B
    (`_reflect`), on the right one image of its root (`_times_reflection`).
    Two general matrices combine columns.
    """
    if b_refl is not None and a_refl is None:
        return _times_reflection(a, b_refl, n)
    out = []
    for j in range(0, n * n, n):
        col = b[j:j + n]
        out.extend(_apply(a, col, n) if a_refl is None else _reflect(a_refl, col))
    return tuple(out)


def _element(
    system: RootSystem, flat, refl=None, parent=None, step=None
) -> "WeylElement":
    """An element from its flat matrix; `refl` is its own (root, coroot row)
    when it is a reflection, and `parent`, `step` record w = parent s_step
    for an element of the descent tree."""
    w = object.__new__(WeylElement)
    w.system = system
    w._m = flat
    w._refl = refl
    w._hash = hash(flat)
    w._inversions = None
    w._parent = parent
    w._step = step
    w._inverse = None
    return w


class WeylElement:
    """A Weyl group element as an integer matrix in simple-root coordinates."""

    __slots__ = (
        "system", "_m", "_refl", "_hash", "_inversions", "_parent", "_step", "_inverse"
    )

    def __init__(self, system: RootSystem, cols):
        # the inverse read from the form is only right when M^T G M = G
        cols = tuple(tuple(c) for c in cols)
        g_cols = [tuple(sum(map(mul, row, c)) for row in system.gram) for c in cols]
        form = tuple(tuple(sum(map(mul, c, g)) for g in g_cols) for c in cols)
        if form != system.gram or any(len(c) != system.rank for c in cols):
            raise ValueError(f"columns {cols} do not preserve the {system.label} form")
        self.system = system
        self._m = tuple(x for c in cols for x in c)
        self._refl = None
        self._hash = hash(self._m)
        self._inversions = None
        self._parent = self._step = self._inverse = None

    @property
    def cols(self) -> tuple[tuple[int, ...], ...]:
        """Column i is the image of alpha_{i+1}, in simple-root coordinates."""
        n, m = self.system.rank, self._m
        return tuple(m[j:j + n] for j in range(0, n * n, n))

    # -- group structure ------------------------------------------------

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if other.system is not self.system:
            same_system(self.system, other.system)
        flat = _product(self._m, self._refl, other._m, other._refl, self.system.rank)
        return _element(self.system, flat)

    def inverse(self) -> "WeylElement":
        """w^{-1} by the routes of the module docstring, kept once computed;
        a reflection is its own inverse."""
        if self._refl is not None:
            return self
        if self._inverse is None:
            system, n, parent = self.system, self.system.rank, self._parent
            if parent is None:
                simple = map(system.simple_root, range(1, n + 1))
                flat = tuple(x for root in simple for x in self.act_inverse_root(root))
            else:
                # w = x s_beta, so w^{-1} = s_beta x^{-1}; a reflection on the
                # left acts through its (root, coroot row) alone
                flat = _product(None, self._step, parent.inverse()._m, None, n)
            self._inverse = _element(system, flat)
        return self._inverse

    def is_identity(self) -> bool:
        return self._m == _identity_flat(self.system.rank)

    # -- actions ----------------------------------------------------------

    def act_root(self, coords):
        """Apply the element to a vector in simple-root coordinates; a
        reflection acts through its coroot row."""
        if self._refl is not None:
            return _reflect(self._refl, coords)
        return _apply(self._m, coords, self.system.rank)

    def act_inverse_root(self, coords):
        """w^{-1} x = A^{-1} E^{-1} w^T G x: (w^T G x)_j / E_jj = <w^{-1} x,
        alpha_j^vee>, then A^{-1} = `_scaled_cartan_inv` / S (S = `weight_scale`).
        Both divisions are exact for integral x."""
        system, n, m = self.system, self.system.rank, self._m
        gram, scale = system.gram, system.weight_scale
        g_x = [sum(map(mul, row, coords)) for row in gram]
        pairing = [
            exact_div(
                2 * sum(map(mul, m[j * n:j * n + n], g_x)), gram[j][j], "<w^-1 x, alpha_j^vee>"
            )
            for j in range(n)
        ]
        return tuple(
            exact_div(sum(map(mul, row, pairing)), scale, "coordinate of w^-1 x")
            for row in system._scaled_cartan_inv
        )

    def act_weight(self, wt: Weight) -> Weight:
        same_system(wt.system, self.system)
        # on S * lambda (S = weight_scale) in simple-root coordinates, all
        # integers; the image's fundamental coordinates are S times integers
        system = self.system
        image = system.fund_coords(self.act_root(system.scaled_root_coords(wt.fund)))
        scale = system.weight_scale
        fund = tuple(exact_div(c, scale, "<w lambda, alpha_j^vee>") for c in image)
        return Weight(system, fund)

    # -- inversion combinatorics -------------------------------------------

    def inversion_set(self):
        """Positive roots alpha with w^{-1}(alpha) negative, in root order.

        Computed as { -w(beta) : beta > 0, w(beta) < 0 }, which needs only
        the forward matrix: along the root poset (`_root_poset`) each w(beta)
        is an earlier image plus one column, and a root is negative exactly
        when its height is.
        """
        if self._inversions is None:
            n, m = self.system.rank, self._m
            images = []
            out = []
            for parent, j in _root_poset(self.system):
                col = m[j:j + n]
                img = col if parent is None else tuple(map(add, images[parent], col))
                images.append(img)
                if sum(img) < 0:
                    out.append(tuple(-c for c in img))
            order = self.system.root_index
            self._inversions = tuple(sorted(out, key=order.__getitem__))
        return self._inversions

    def length(self) -> int:
        return len(self.inversion_set())

    def left_descents(self):
        """Indices i with ell(s_i w) < ell(w): w^{-1} alpha_i < 0, i.e. (alpha_i |
        w rho) < 0, since a root has the sign of its form with rho."""
        system = self.system
        image = self.act_root(system.scaled_rho)
        return tuple(
            i + 1 for i, row in enumerate(system.gram) if sum(map(mul, row, image)) < 0
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
            and (self.system is other.system or self.system == other.system)
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        word = ",".join(map(str, self.reduced_word())) or "e"
        return f"<{self.system.label}:{word}>"


@per_system
def _root_poset(system: RootSystem):
    """(parent, offset) for each positive root beta, in root order: beta is
    the root at `parent` (an earlier index, None for a simple root) plus the
    simple root whose column of a flat matrix starts at `offset`."""
    n, index = system.rank, system.root_index
    steps = []
    for beta in system.positive_roots:
        for i, c in enumerate(beta):
            below = beta[:i] + (c - 1,) + beta[i + 1:]
            if c and (not any(below) or below in index):
                steps.append((index.get(below), i * n))
                break
    return tuple(steps)


def identity_element(system: RootSystem) -> WeylElement:
    return _element(system, _identity_flat(system.rank))


def simple_reflection(system: RootSystem, i: int) -> WeylElement:
    """s_i(alpha_j) = alpha_j - a_ij alpha_i; `simple_root` checks i."""
    return root_reflection(system, system.simple_root(i))


@per_system
def root_reflection(system: RootSystem, root) -> WeylElement:
    """The reflection s_beta(x) = x - <x, beta^vee> beta for any root beta,
    a tuple, built once per system and root.

    <x, beta^vee> = 2 x^T G beta / beta^T G beta is a dot product of x with
    an integer row, which the reflection keeps for its products.
    """
    n = system.rank
    g_root = tuple(sum(map(mul, row, root)) for row in system.gram)
    norm = sum(map(mul, root, g_root))
    if any(2 * x % norm for x in g_root):
        raise ValueError(f"{root} is not a root")
    coroot = tuple(2 * x // norm for x in g_root)
    flat = tuple(
        int(k == j) - coroot[j] * root[k] for j in range(n) for k in range(n)
    )
    return _element(system, flat, (root, coroot))


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


@per_system
def longest_element(system: RootSystem) -> WeylElement:
    """Greedy ascent: multiply by s_i while w(alpha_i), column i of w, stays
    positive.  Built on first use and kept per system."""
    w = identity_element(system)
    n = system.rank
    while True:
        for j in range(0, n * n, n):
            if sum(w._m[j:j + n]) > 0:
                w = w * simple_reflection(system, j // n + 1)
                break
        else:
            return w


def enumerate_group(system: RootSystem, generators=None):
    """All elements of the group generated by `generators` (default: all s_i).

    The generators must be the reflections of a simple system: positive
    roots a_i with <a_i, a_j^vee> <= 0 for i != j, such as the simple
    reflections or `ReflectionSubgroup.simple_reflections`.  The walk is
    `_descent_tree` on the heights of the w(a_j), bounded by the height sum
    of the positive roots, which no sum over inversions exceeds.  Each node
    is built from its parent by one product on the right and records both,
    from which `WeylElement.inverse` builds its inverse when asked.  A
    non-reflection raises NotAReflection, another system's reflection
    SystemMismatch and a positive pairing ValueError; more than
    GROUP_ENUMERATION_CAP elements, read at each call, raise SubgroupTooLarge.
    """
    if generators is None:
        generators = [simple_reflection(system, i) for i in range(1, system.rank + 1)]
    refls = [root_reflection(system, reflection_root(system, t))._refl for t in generators]
    # pairs[i][j] = <a_j, a_i^vee>
    pairs = [[sum(map(mul, coroot, root)) for root, _ in refls] for _, coroot in refls]
    if any(c > 0 for i, row in enumerate(pairs) for j, c in enumerate(row) if i != j):
        raise ValueError("generator roots that pair positively are not a simple system")
    n, cap = system.rank, GROUP_ENUMERATION_CAP
    heights = [sum(root) for root, _ in refls]
    bound = sum(height for _, height in system.root_supports)
    overflow = SubgroupTooLarge(f"more than {cap} elements")
    walk = _descent_tree(tuple(zip(*pairs)), heights, bound, cap, overflow)
    next(walk)  # the root, e
    elements = [identity_element(system)]
    for parent, i, _, _ in walk:
        w, refl = elements[parent], refls[i]
        elements.append(_element(system, _times_reflection(w._m, refl, n), None, w, refl))
    return set(elements)


def group_order(system: RootSystem) -> int:
    """|W|, by Macdonald's product over the positive roots."""
    return _parabolic_order(system, tuple(range(system.rank)))


def parabolic_order(system: RootSystem, indices) -> int:
    """|W_J| for a set J of 1-based simple indices, by `_parabolic_order`."""
    nodes = tuple(sorted({i - 1 for i in indices}))
    for j in nodes[:1] + nodes[-1:]:  # the least and the greatest
        if not 0 <= j < system.rank:
            raise IndexOutOfRange(f"simple index {j + 1} outside 1..{system.rank}")
    return _parabolic_order(system, nodes)


@per_system
def _parabolic_order(system: RootSystem, nodes) -> int:
    """|W_J| for J an increasing tuple of 0-based nodes, kept per (system, J).

    Macdonald's identity sum_w q^l(w) = prod_{alpha > 0} (1 - q^(ht alpha + 1))
    / (1 - q^ht alpha) (Math. Ann. 199, 1972) gives |W_J| = prod (ht alpha
    + 1) / ht alpha at q = 1, over the positive roots supported on J, which
    are the positive roots of W_J.
    """
    mask = sum(1 << j for j in nodes)
    num = den = 1
    for support, height in system.root_supports:
        if support | mask == mask:
            num *= height + 1
            den *= height
    return exact_div(num, den, f"Macdonald's product on nodes {mask:#b}")


def dominant_orbit_size(system: RootSystem, fund_coords) -> int:
    """|W . lambda| = |W| / |W_I| with I the zero nodes of a dominant weight."""
    zero = [i + 1 for i, c in enumerate(fund_coords) if c == 0]
    return exact_div(group_order(system), parabolic_order(system, zero), "|W|/|W_I|")


def _packing(start, max_depth):
    """(offset, mask, shifts) of the fields, one per coordinate, of the
    packed codes of `_descent_tree`."""
    width = (max(start, default=0) + 4 * max_depth).bit_length() + 1
    return (1 << width - 1) - 1, (1 << width) - 1, range(0, len(start) * width, width)


def _descent_tree(cartan, start, max_depth, cap, overflow):
    """Yield (parent position, generator, depth, packed code) for each node
    of the smallest-node tree rooted at `start`, in preorder: parents before
    children, the root with parent and generator None.

    A node is an integer vector x.  For each i with x_i > 0, x - x_i
    cartan[.][i] (coordinate j: x_j - x_i cartan[j][i]; coordinate i: -x_i)
    is kept as a child only when i is its smallest negative coordinate.
    Every node but the root has a negative coordinate, and stepping back
    along its smallest one leads towards the root, so each node has one
    parent: depth first, no seen set.  The depth grows by x_i on each step,
    so pruning at max_depth loses nothing.  Two readings:
      - cartan[j][i] = <alpha_i, alpha_j^vee> (finite, or untwisted affine
        with node 0 first) on the fundamental coordinates of a dominant
        weight: its orbit, one node per minimal coset representative
        (Humphreys, Reflection Groups and Coxeter Groups, 1.10; Kac ch. 6),
        at depth <lambda - mu, rho^vee>;
      - the transposed matrix <a_j, a_i^vee> of a simple system on the
        heights ht(w(a_j)): a root has the sign of its height, so the nodes
        are the group, w s_i a child of w for its smallest right descent i
        (Bjorner-Brenti, Combinatorics of Coxeter Groups, 3.4); for the
        simple roots at depth L(w) = ht(rho - w rho), as L(w s_i) = L(w) +
        ht(w(alpha_i)).
    Coordinates are packed as c + offset in fields of one integer
    (`_packing`); generator i subtracts c_i times packed column i.  Every
    |cartan[j][i]| <= 4, so |c| <= max(start) + 4 max_depth <= offset: c > 0
    exactly when the top bit of its field is set, c >= 0 when it is set
    after adding one.  A node past the first `cap` raises `overflow`, the
    caller's error.
    """
    if max_depth < 0:
        raise NegativeBound(f"depth bound {max_depth} must be nonnegative")
    offset, mask, shifts = _packing(start, max_depth)
    nodes = tuple(
        (
            i,
            offset + 1 << s,
            s,
            sum(cartan[j][i] << t for j, t in enumerate(shifts)),
            sum(1 << t for t in shifts[:i]),
            sum(offset + 1 << t for t in shifts[:i]),
        )
        for i, s in enumerate(shifts)
    )
    stack = [(None, None, 0, sum((c + offset) << s for c, s in zip(start, shifts)))]
    position = 0
    while stack:
        if position >= cap:
            raise overflow
        node = stack.pop()
        yield node
        _, _, depth, code = node
        room = max_depth - depth
        for i, top_bit, s, column, ones, tops in nodes:
            if code & top_bit:
                c = ((code >> s) & mask) - offset
                if c <= room:
                    child = code - c * column
                    if (child + ones) & tops == tops:
                        stack.append((position, i, depth + c, child))
        position += 1


def orbit_depths(cartan, start, max_depth):
    """{depth: count} over the orbit of a dominant weight, up to max_depth,
    in increasing depth, by the walk of `_descent_tree`; more than
    ORBIT_WALK_CAP weights, read at each call, raise OrbitTooLarge."""
    cap = ORBIT_WALK_CAP
    counts: dict[int, int] = {}
    overflow = OrbitTooLarge(f"orbit has more than {cap} weights")
    for _, _, depth, _ in _descent_tree(cartan, start, max_depth, cap, overflow):
        counts[depth] = counts.get(depth, 0) + 1
    return dict(sorted(counts.items()))


def orbit_weights(cartan, start, max_depth):
    """Yield (depth, fundamental coordinates) for every weight of the orbit
    of a dominant weight up to max_depth, each once, by the same walk."""
    cap = ORBIT_WALK_CAP
    offset, mask, shifts = _packing(start, max_depth)
    overflow = OrbitTooLarge(f"orbit has more than {cap} weights")
    for _, _, depth, code in _descent_tree(cartan, start, max_depth, cap, overflow):
        yield depth, tuple(((code >> s) & mask) - offset for s in shifts)


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

    Phi_A is the orbit of the generating roots under the generating
    reflections: every reflection of W_A is conjugate in W_A to a generator
    (Dyer, J. Algebra 135, 1990; Deodhar 1989), so closing the generating
    roots under the generators alone (`_root_closure`) reaches every root.
    Delta_A is Dyer's set { alpha in Phi_A^+ : N(s_alpha) cap Phi_A = {alpha} }.
    """

    def __init__(self, system: RootSystem, generators):
        self.system = system
        self.generators = tuple(generators)
        gen_roots = [reflection_root(system, t) for t in self.generators]
        closure = _root_closure([root_reflection(system, a)._refl for a in gen_roots])
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
        # <b, a^vee> is one dot product with the coroot row of a
        self.cartan = tuple(
            tuple(sum(map(mul, s._refl[1], b)) for b in delta)
            for s in self.simple_reflections
        )
        self._elements = None

    def contains_root(self, root) -> bool:
        r = tuple(root)
        return r in self._phi_set or tuple(-c for c in r) in self._phi_set

    def elements(self):
        if self._elements is None:
            self._elements = enumerate_group(self.system, self.simple_reflections)
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
    An element of another system raises SystemMismatch.
    """
    same_system(t.system, system)
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
    a lies in N(rest) when rest^{-1}(a) < 0, i.e. (a | rest rho) < 0: one
    coroot row against v = rest(S rho), which is reflected along with rest.
    """
    rest, w_a = w, identity_element(w.system)
    v = w.act_root(w.system.scaled_rho)
    while True:
        s = next((s for s in sub.simple_reflections if sum(map(mul, s._refl[1], v)) < 0), None)
        if s is None:
            return w_a, rest
        rest, w_a, v = s * rest, w_a * s, _reflect(s._refl, v)


def utopic_check(w: WeylElement, sub: ReflectionSubgroup) -> bool:
    """Whether x -> (w x)_A is a bijection from w W_A w^{-1} onto W_A."""
    elements = sub.elements()
    w_inv = w.inverse()
    images = set()
    for t in elements:
        x = w * t * w_inv  # runs over W_B
        img, _ = a_decomposition(w * x, sub)
        if img in images:
            return False
        images.add(img)
    return len(images) == len(elements)
