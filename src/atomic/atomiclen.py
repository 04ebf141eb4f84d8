"""The atomic length, its lambda-deformation, and image-set computation.

The image of the lambda-atomic length over the whole group is read off the
histogram of <lambda - w(lambda), rho^vee> over the orbit W.lambda, which
is computed without visiting the orbit: a memoised recursion over standard
parabolic subgroups peels off one node at a time, W_J = W^{J'} . W_{J'},
and adds shifted copies of the generating function of W_{J'}.  Its cost
follows the coset-tree iterations, one dot product each (16,857 for E7
rho, 265,776 for E8 rho), and the memo states they reach (2,264 and
26,526), not the orbit size (2.9M and 697M).  Its coset trees read no
weight and are built once per root system (`_coset_plan`); only its memo
is per call, and the summed bit lengths of its entries, which track the
memory it holds, are bounded by MEMO_CAP.
The tests compare it with the walk over the orbit, `weyl.orbit_depths`,
which visits every weight once.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .errors import InvariantViolation, OrbitTooLarge
from .linalg import exact_div
from .rootdata import RootSystem, Weight, per_system, same_system
from .weyl import (
    WeylElement,
    _descent_tree,
    _parabolic_order,
    dominant_orbit_size,
    group_order,
    inversion_set_from_word,
)

MEMO_CAP = 2**31  # bits held by the memo of one `_parabolic_histogram` call


def atomic_length(w: WeylElement):
    """Sum of the heights of the inversions of w, read as ht(rho - w rho):
    rho - w rho is the sum of N(w).  Runs on S rho (S = `weight_scale`)."""
    system, scaled = w.system, w.system.scaled_rho
    drop = sum(scaled) - sum(w.act_root(scaled))
    return exact_div(drop, system.weight_scale, "ht(rho - w rho)")


def lambda_atomic_length(w: WeylElement, lam: Weight):
    """<lambda - w(lambda), rho^vee> for a dominant integral weight lambda.

    Runs on S * lambda in simple-root coordinates (S = `weight_scale`), an
    integer vector; the height difference is divided by S once.
    """
    system = w.system
    lam.require_dominant_in(system)
    scaled = system.scaled_root_coords(lam.fund)
    drop = sum(scaled) - sum(w.act_root(scaled))
    value = exact_div(drop, system.weight_scale, "<lambda - w(lambda), rho^vee>")
    if value < 0:
        raise InvariantViolation(f"<lambda - w(lambda), rho^vee> = {value} < 0")
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

    def vectors(self):
        return tuple(e.vector for e in self.entries)

    def total(self):
        return tuple(
            sum(e.vector[i] for e in self.entries) for i in range(self.rank)
        )


def lambda_inversion_set(system: RootSystem, word, lam: Weight) -> LambdaInversionSet:
    """Scaled inversion multiset { m_j * prefix(alpha_j) } along a reduced word."""
    same_system(lam.system, system)
    roots = inversion_set_from_word(system, word)  # raises NotReduced when not reduced
    occurrences = {}
    entries = []
    for letter, root in zip(word, roots):
        occurrences[letter] = occurrences.get(letter, 0) + 1
        m = lam.fund[letter - 1]
        entries.append(
            LambdaInvEntry(tuple(m * c for c in root), letter, occurrences[letter])
        )
    return LambdaInversionSet(system.rank, tuple(entries))


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


def _unpack(packed: int, width: int) -> dict[int, int]:
    """{exponent: coefficient} of a polynomial packed `width` bits per
    coefficient, lowest exponent first; zero coefficients are left out."""
    mask = (1 << width) - 1
    out = {}
    exponent = 0
    while packed:
        if packed & mask:
            out[exponent] = packed & mask
        packed >>= width
        exponent += 1
    return out


def _height_field(system: RootSystem) -> int:
    """Bits per field of the packed heights of `_coset_plan`: enough for
    the largest root height, that of the highest root, h - 1."""
    return sum(system.highest_root).bit_length()


@per_system
def _coset_plan(system: RootSystem, nodes):
    """The weight-free part of a step on the node tuple J, kept per root
    system: the sub-node tuple J' = J - p for the split node p (a position
    in J) with the fewest cosets, the Cartan columns on J, and the
    W_J-orbit of omega_p as the tree of `weyl._descent_tree`, bounded by
    the height sum of the roots on J.  The tree holds one (parent, i,
    packed) per coset representative u = s_i u_parent, parents first:
    packed[a] holds the a-th coordinates of the roots u(alpha_j), j in J',
    one field of F = `_height_field` bits each, the j-th at bit F * j.
    The fields must hold every root height (see `_parabolic_histogram`);
    a narrower F raises InvariantViolation.  Returns (J', columns, tree,
    F)."""
    m = len(nodes)
    order = _parabolic_order(system, nodes)
    cosets = {q: order // _parabolic_order(system, nodes[:q] + nodes[q + 1:]) for q in range(m)}
    p = min(cosets, key=cosets.get)
    sub_cartan = [[system.cartan[a][b] for b in nodes] for a in nodes]
    mask = sum(1 << a for a in nodes)
    bound = sum(h for support, h in system.root_supports if support | mask == mask)
    start = tuple(int(a == p) for a in range(m))
    overflow = InvariantViolation(f"more than {cosets[p]} cosets of W_J'")
    field, top_height = _height_field(system), sum(system.highest_root)
    if top_height >> field:
        raise InvariantViolation(f"root height {top_height} overflows a {field}-bit field")
    rows = tuple(tuple(int(a == j) for a in range(m)) for j in range(m) if j != p)
    rows_at, tree = [], []
    for parent, i, _, _ in _descent_tree(sub_cartan, start, bound, cosets[p], overflow):
        if parent is not None:
            rows = tuple(
                r[:i] + (r[i] - sum(map(mul, sub_cartan[i], r)),) + r[i + 1:]
                for r in rows_at[parent]
            )
        rows_at.append(rows)
        packed = tuple(sum(r[a] << field * j for j, r in enumerate(rows)) for a in range(m))
        tree.append((parent, i, packed))
    return nodes[:p] + nodes[p + 1:], tuple(zip(*sub_cartan)), tuple(tree), field


def _parabolic_histogram(system: RootSystem, lam: Weight):
    """Histogram of <lambda - w(lambda), rho^vee> over the orbit W.lambda.

    Evaluates G_J(c) = sum over v in W_J of q^<lambda - v(lambda), c> from
    G_I(rho^vee) down.  For a node k of J and J' = J - {k}, every v in W_J
    is u.v' with u a minimal coset representative of W_J / W_J' and v' in
    W_J' (Humphreys, Reflection Groups and Coxeter Groups, 1.10), and
    lambda - v'(lambda) lies in the span of J', so

        G_J(c) = sum_u q^<lambda - u(lambda), c> G_J'(c'),
        c'_j = <u(alpha_j), c> for j in J'.

    The u, points of the W_J-orbit of omega_k, come from `_coset_plan`,
    shared by all weights; the node tuples form one chain I, J_1, J_2, ...,
    down to the first J on which lambda vanishes, where G_J = |W_J|.
    lambda - u(lambda) reads only lambda|J and the plan, so it is computed
    once per node tuple and call (the steps <u_parent(lambda), alpha_i^vee>)
    and put in a top field above the packed c' fields of each coset column:
    one dot product of |J| integers per coset gives both the shift <lambda -
    u(lambda), c> and c' packed.  Since lambda|J is fixed by J, the memo of
    J' is keyed by that packed integer alone, and c' is unpacked only when
    the state is new.

    The packing is exact: c'_j = <v(alpha_j), rho^vee> for the product v of
    the coset representatives down to J', a minimal coset representative
    of W / W_J', which keeps v(alpha_j) positive, so 1 <= c'_j <= h - 1 <
    2^F, and every product in the dot product is nonnegative, so no field
    carries into the next.  `_coset_plan` checks h - 1 < 2^F where it lays
    the fields out, also under python -O.

    A polynomial is one integer, the coefficient of q^e in the field of
    `width` bits at bit e * width: no coefficient of a partial sum exceeds
    |W|, so a shift by e is `<< e * width` and a sum of shifted polynomials
    one integer addition.  No exponent is negative: each step <u_parent(
    lambda), alpha_i^vee> = <lambda, u_parent^-1(alpha_i)^vee> is at least
    0, as u = s_i u_parent is the longer and lambda is dominant; a negative
    step raises InvariantViolation, as does a lowest value other than 0.
    The orbit histogram is G_I(rho^vee) divided by |W_lambda|.  Past
    MEMO_CAP bits in the memo, read at each call, OrbitTooLarge is raised.
    """
    cap, held = MEMO_CAP, 0
    width = group_order(system).bit_length()
    levels = []  # per node tuple J of the chain: (coset columns, top, mask)
    nodes = tuple(range(system.rank))
    while any(lam.fund[a] for a in nodes):
        sub_nodes, cols, tree, field = _coset_plan(system, nodes)
        top = field * len(sub_nodes)
        mus, drops, cosets = [], [], []  # u(lambda), lambda - u(lambda) on J
        for parent, i, packed in tree:
            if parent is None:
                mu, drop = tuple(lam.fund[a] for a in nodes), (0,) * len(nodes)
            else:
                mu, drop = mus[parent], drops[parent]
                step = mu[i]
                if step < 0:
                    raise InvariantViolation(f"coset step <u(lambda), alpha_i^vee> = {step} < 0")
                mu = tuple(x - step * y for x, y in zip(mu, cols[i]))
                drop = drop[:i] + (drop[i] + step,) + drop[i + 1:]
            mus.append(mu)
            drops.append(drop)
            cosets.append(tuple(x + (d << top) for x, d in zip(packed, drop)))
        # where lambda vanishes on J', G_J' = |W_J'| whatever c' is: one key, 0
        mask = (1 << top) - 1 if any(lam.fund[a] for a in sub_nodes) else 0
        levels.append((cosets, top, mask))
        nodes = sub_nodes
    base = _parabolic_order(system, nodes)
    memos = [{} for _ in levels[1:]] + [{0: base}]

    def generating(k, c):
        nonlocal held
        cosets, top, mask = levels[k]
        memo = memos[k]
        acc = 0
        for column in cosets:
            v = sum(map(mul, c, column))
            key = v & mask
            sub = memo.get(key)
            if sub is None:
                heights = tuple(key >> s & (1 << field) - 1 for s in range(0, top, field))
                sub = memo[key] = generating(k + 1, heights)
                held += sub.bit_length()
                if held > cap:
                    raise OrbitTooLarge(f"memo holds {held} bits, above cap {cap}")
            acc += sub << (v >> top) * width
        return acc

    packed = generating(0, (1,) * system.rank) if levels else base
    if not packed & (1 << width) - 1:
        raise InvariantViolation("lowest value of <lambda - w(lambda), rho^vee> is not 0")
    stabiliser = _parabolic_order(system, tuple(i for i, c in enumerate(lam.fund) if c == 0))
    return {
        depth: exact_div(
            count, stabiliser, f"{count} elements at value {depth}, not a multiple of |W_lambda|"
        )
        for depth, count in _unpack(packed, width).items()
    }


def image_set(system: RootSystem, lam: Weight, histogram=False) -> ImageReport:
    """All values of the lambda-atomic length on W, via the parabolic
    recursion, bounded by its memo (MEMO_CAP), not by the orbit W.lambda;
    the histogram must count |W|/|W_lambda| weights."""
    system.require_finite("the image is taken over a finite type")
    lam.require_dominant_in(system)
    hist = _parabolic_histogram(system, lam)
    orbit_size = sum(hist.values())
    predicted = dominant_orbit_size(system, lam.fund)
    if orbit_size != predicted:
        raise InvariantViolation(
            f"histogram counts {orbit_size} weights, |W|/|W_I| = {predicted}"
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
    """The maximal value <lambda - w0(lambda), rho^vee> = 2 <lambda, rho^vee>,
    as -w0 permutes the simple coroots and fixes rho^vee; <lambda, rho^vee> is
    sum(S lambda) / S in scaled root coordinates (S = `weight_scale`)."""
    system.require_finite("w0 is taken in the finite Weyl group")
    lam.require_dominant_in(system)
    scaled = system.scaled_root_coords(lam.fund)
    return exact_div(2 * sum(scaled), system.weight_scale, "2<lambda, rho^vee>")


@dataclass(frozen=True)
class IdealReport:
    ideal: bool
    reason: str
    image: ImageReport


def is_ideal(system: RootSystem, lam: Weight) -> IdealReport:
    """Whether the lambda-atomic length attains every value in [0, max]."""
    lam.require_dominant_in(system)
    report = image_set(system, lam)
    if report.surjective:
        return IdealReport(True, "full interval", report)
    return IdealReport(False, "gaps in value range", report)


def minuscule_weights(system: RootSystem) -> tuple[Weight, ...]:
    """The fundamental weights omega_i with <omega_i, beta^vee> <= 1 for every
    positive root beta.  That pairing is b_i (alpha_i|alpha_i) / (beta|beta)
    for beta = sum b_j alpha_j, so the test is b_i G_ii <= beta^T G beta in
    the integer Gram matrix."""
    norms = [
        (beta, system.scaled_inner_product(beta, beta)) for beta in system.positive_roots
    ]
    return tuple(
        system.fundamental_weight(i + 1)
        for i in range(system.rank)
        if all(beta[i] * system.gram[i][i] <= norm for beta, norm in norms)
    )
