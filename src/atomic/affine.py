"""Untwisted affine Weyl groups: alcove action, Shi vectors, atomic length.

An affine element is stored as a pair (beta, wbar): the affine-space action
is x -> wbar(x) + beta on the finite reflection representation, with beta in
the translation lattice.  The affine generator s_0 acts as x -> s_theta(x) +
theta for the highest root theta.  Words over {0..n} compose left-to-right
as functions, matching the finite-word convention.

Shi coefficients are computed exactly as k(w, alpha) = floor((alpha | w.x0))
where x0 is the interior alcove point with (alpha_i | x0) = 1/h; then
(alpha | x0) = ht(alpha)/h lies strictly between 0 and 1 for every positive
root.

An affine weight is stored by its integer coordinates (m_0, m_1, ..., m_n)
on the fundamental weights Lambda_i and its delta coefficient; s_i lowers
them by m_i times column i of the affine Cartan matrix.  The hot paths run
on exact integers.  With G = D (d_i a_ij) the integer Gram matrix of
`rootdata` and den = S its weight scale (S times a finite part is
integral), the affine atomic length, the probe and the level-one values are
computed in units of 1/(2 D den): each is an integer numerator, divided
once at the end, where `linalg.exact_div` checks its integrality.  Shi
coefficients are one floor division in units of 1/(N D) of a single
forward image of the scaled alcove point N x0, N = h S.  The set-up is in
integers too: N x0, the probe's certificate and the lattice LDL^T;
`alcove_point` and `AffineWeight.finite` are the only Fraction views.

An `AffineWeight` and an `AffineElement` are checked once, when built; each
entry point that takes a weight makes one call, `require_dominant_in`.

`affine_atomic_length` computes each value by two paths that must agree,
also under `python -O`: the direct path acts on the weight (`_act_scaled`),
the closed path adds the translation terms to the finite part.  They share
the weight scale den * level and (beta|beta); they differ where the finite
part lbar meets the translation, the image wbar(lbar) paired with beta
against lbar paired with gamma = wbar^{-1} beta from `act_inverse_root`.
Each path skips the finite-part terms when lbar = 0, and a product skips
the image of a zero translation, as for s_1..s_n.

The probe and the lattice counts of `cores` share one enumerator, `_runs`:
Fincke-Pohst enumeration on the fraction-free LDL^T that
`linalg.eliminate` gives for the basis Gram matrix, built once per system
on first use, trying no point outside its ball.
`lattice_ball` centres it at 0 and yields each (beta, beta^T G beta);
`level_one_histogram` centres it at rho/h^vee in a simply-laced type, where
the ball is a bound on the level-one value, and counts each innermost run
by its exact integer differences.  Away from Lambda_0 a probe value depends
on wbar only through mu = wbar(lbar), so the probe walks the finite orbit
W.lbar (`weyl.orbit_weights`), not W; `searched` still counts group
elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, mul

from .errors import (
    IndexOutOfRange,
    InvalidType,
    InvariantViolation,
    NegativeBound,
    NotDominant,
    RadiusTooLarge,
    UnsupportedType,
)
from .linalg import eliminate, exact_div
from .rootdata import RootSystem, integral_coords, per_system, same_system
from .weyl import (
    WeylElement,
    group_order,
    identity_element,
    orbit_depths,
    orbit_weights,
    root_reflection,
    simple_reflection,
)

PROBE_CAP = 2**22


def _require_affine(system: RootSystem):
    if not system.label.affine:
        raise InvalidType(f"{system.label} is not an affine label")


@dataclass(frozen=True)
class AffineWeight:
    """The weight sum_i m_i Lambda_i + z delta, stored as its integer
    coordinates coords = (m_0, m_1, ..., m_n) and z = `delta_coeff`.

    Checked once, here: an affine label (InvalidType), n + 1 coordinates
    (IndexOutOfRange), each an integer (NotDominant), converted to `int`.
    Derived once: the level sum_i comark_i m_i, `num` = S * finite part in
    simple-root coordinates, with `den` = S = `weight_scale`, and
    `dominant` (every m_i >= 0).  `m0`, `fund` (m_1..m_n) and `finite` are
    views.
    """

    system: RootSystem
    coords: tuple[int, ...]
    delta_coeff: int = 0
    level: int = field(init=False, repr=False, compare=False)
    num: tuple[int, ...] = field(init=False, repr=False, compare=False)
    den: int = field(init=False, repr=False, compare=False)
    dominant: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        system = self.system
        _require_affine(system)
        if len(self.coords) != system.rank + 1:
            raise IndexOutOfRange(
                f"expected {system.rank + 1} coordinates m_0..m_n, got {len(self.coords)}"
            )
        coords = integral_coords(self.coords, "affine weight")
        put = object.__setattr__
        put(self, "coords", coords)
        put(self, "level", sum(map(mul, system.comarks, coords)))
        put(self, "num", system.scaled_root_coords(coords[1:]))
        put(self, "den", system.weight_scale)
        put(self, "dominant", min(coords) >= 0)

    @property
    def m0(self) -> int:
        return self.coords[0]

    @property
    def fund(self) -> tuple[int, ...]:
        return self.coords[1:]

    @property
    def finite(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    def require_dominant_in(self, system: RootSystem):
        """As `Weight.require_dominant_in`."""
        same_system(self.system, system)
        if not self.dominant:
            raise NotDominant(f"affine weight {self.coords} is not dominant integral")

    def __repr__(self):
        return f"AffineWeight(coords={self.coords}, z={self.delta_coeff})"


def affine_weight(system: RootSystem, coords) -> AffineWeight:
    """Build a weight from affine fundamental coordinates (m_0, m_1, ..., m_n)."""
    return AffineWeight(system, tuple(coords))


def basic_weight(system: RootSystem) -> AffineWeight:
    """The level-one weight with trivial finite part (Lambda_0)."""
    return AffineWeight(system, (1,) + (0,) * system.rank)


class AffineElement:
    """Pair (beta, wbar) acting on the finite coordinate space as
    x -> wbar(x) + beta.  Checked once, when built: the system must carry
    an affine label (InvalidType) and wbar belong to it (SystemMismatch)."""

    __slots__ = ("system", "beta", "fbar")

    def __init__(self, system: RootSystem, beta, fbar: WeylElement):
        _require_affine(system)
        same_system(fbar.system, system)
        self.system = system
        self.beta = tuple(beta)
        self.fbar = fbar

    def __eq__(self, other):
        return (
            isinstance(other, AffineElement)
            and (self.system is other.system or self.system == other.system)
            and self.beta == other.beta
            and self.fbar == other.fbar
        )

    def __hash__(self):
        return hash((self.system, self.beta, self.fbar))

    def __mul__(self, other: "AffineElement") -> "AffineElement":
        # (A, a) o (B, b) : x -> A(B x + b) + a.  Both factors were checked
        # when built, so the product skips __init__; b = 0 for s_1..s_n and
        # every finite element, and then the translation is a.
        w = object.__new__(AffineElement)
        w.system = self.system
        w.fbar = self.fbar * other.fbar
        b = other.beta
        w.beta = tuple(map(add, self.fbar.act_root(b), self.beta)) if any(b) else self.beta
        return w

    def is_identity(self) -> bool:
        return all(c == 0 for c in self.beta) and self.fbar.is_identity()

    def gamma(self):
        """The translation on the other side: w = wbar . tau_gamma."""
        return self.fbar.act_inverse_root(self.beta)

    def __repr__(self):
        return f"AffineElement({self.system.label}, beta={self.beta}, wbar={self.fbar!r})"


def affine_identity(system: RootSystem) -> AffineElement:
    return AffineElement(system, (0,) * system.rank, identity_element(system))


def affine_generator(system: RootSystem, i: int) -> AffineElement:
    if not 0 <= i <= system.rank:
        raise IndexOutOfRange(f"affine index {i} outside 0..{system.rank}")
    if i == 0:
        theta = system.highest_root
        return AffineElement(system, theta, root_reflection(system, theta))
    zero = (0,) * system.rank
    return AffineElement(system, zero, simple_reflection(system, i))


def affine_from_word(system: RootSystem, word) -> AffineElement:
    """Fold a word over {0..n} into an affine transformation."""
    w = affine_identity(system)
    for i in word:
        w = w * affine_generator(system, i)
    return w


def embed_finite(system: RootSystem, wbar: WeylElement) -> AffineElement:
    """A finite group element viewed inside the affine group."""
    return AffineElement(system, (0,) * system.rank, wbar)


# -- weight action ---------------------------------------------------------


def weight_reflect(mu: AffineWeight, i: int) -> AffineWeight:
    """Apply s_i (0 <= i <= n) to an affine weight: mu - m_i alpha_i, where
    alpha_i has the coordinates of column i of `affine_cartan`, and
    alpha_0 = delta - theta also lowers the delta coefficient by m_0."""
    system = mu.system
    if not 0 <= i <= system.rank:
        raise IndexOutOfRange(f"affine index {i} outside 0..{system.rank}")
    m = mu.coords[i]
    coords = tuple(c - m * row[i] for c, row in zip(mu.coords, affine_cartan(system)))
    return AffineWeight(system, coords, mu.delta_coeff - (m if i == 0 else 0))


def _act_scaled(w: AffineElement, mu: AffineWeight):
    """The action of w on mu in scaled integers.

    tau_beta(nu) = nu + level*beta - ((nu|beta) + |beta|^2 level / 2) delta.
    Returns den * (finite part of w(mu)) and the drop of the delta
    coefficient in units of 1/(2 D den), den = S being mu's scale.  G beta
    is computed once and gives both (image|beta) and (beta|beta); at a
    weight with no finite part, such as Lambda_0, the image is 0 and
    wbar is not applied.
    """
    beta, shift = w.beta, mu.den * mu.level
    g_beta = [sum(map(mul, row, beta)) for row in w.system.gram]
    drop = shift * sum(map(mul, beta, g_beta))
    if not any(mu.num):
        return tuple(shift * b for b in beta), drop
    image = w.fbar.act_root(mu.num)  # den * wbar(finite)
    drop += 2 * sum(map(mul, image, g_beta))
    return tuple(c + shift * b for c, b in zip(image, beta)), drop


def act_element_on_weight(w: AffineElement, mu: AffineWeight) -> AffineWeight:
    """Action through the (beta, wbar) form and the translation formula,
    read back as coordinates: m_j = <finite, alpha_j^vee> for j >= 1 and
    m_0 = level - <finite, theta^vee>."""
    system = w.system
    same_system(mu.system, system)
    num, drop = _act_scaled(w, mu)
    fund = tuple(
        exact_div(sum(map(mul, row, num)), mu.den, "fundamental coordinate")
        for row in system.cartan
    )
    m0 = mu.level - sum(map(mul, system.comarks[1:], fund))
    z = mu.delta_coeff - exact_div(drop, 2 * system.gram_scale * mu.den, "delta drop")
    return AffineWeight(system, (m0,) + fund, z)


# -- Shi coefficients -------------------------------------------------------


def alcove_point(system: RootSystem):
    """The interior point x0 of the fundamental alcove with (alpha_i|x0) = 1/h,
    as Fractions: a view of `_scaled_alcove_point`."""
    scale, point = _scaled_alcove_point(system)
    return tuple(Fraction(c, scale) for c in point)


@dataclass(frozen=True)
class ShiVector:
    """Map from positive roots to strip indices, in root order."""

    system: RootSystem
    coefficients: tuple[int, ...]

    def __getitem__(self, root):
        r = tuple(root)
        idx = self.system.root_index.get(r)
        if idx is not None:
            return self.coefficients[idx]
        neg = tuple(-c for c in r)
        idx = self.system.root_index.get(neg)
        if idx is None:
            raise KeyError(f"{root} is not a root")
        # Negative-root convention chosen so that the reflection recursion
        # k(tw, a) = k(w, t(a)) + k(t, a) holds identically.
        return -self.coefficients[idx]

    def as_dict(self):
        return {
            r: c for r, c in zip(self.system.positive_roots, self.coefficients)
        }

    def is_admissible(self) -> bool:
        """k_a + k_b <= k_{a+b} <= k_a + k_b + 1 whenever a + b is a root."""
        idx = self.system.root_index
        roots = self.system.positive_roots
        for i, a in enumerate(roots):
            for b in roots[i:]:
                c = tuple(x + y for x, y in zip(a, b))
                k = idx.get(c)
                if k is None:
                    continue
                lo = self.coefficients[idx[a]] + self.coefficients[idx[b]]
                if not lo <= self.coefficients[k] <= lo + 1:
                    return False
        return True

    def pyramid_rows(self):
        """Rows of the pyramid layout: grouped by height, bottom row first,
        ordered by the first supported simple root within a row."""
        by_height: dict[int, list] = {}
        for r, c in zip(self.system.positive_roots, self.coefficients):
            by_height.setdefault(sum(r), []).append((r, c))
        rows = []
        for h in sorted(by_height):
            row = sorted(
                by_height[h],
                key=lambda rc: (next(i for i, v in enumerate(rc[0]) if v), rc[0]),
            )
            rows.append([c for _, c in row])
        return rows


@per_system
def _scaled_alcove_point(system: RootSystem):
    """(N, N x0) with N = h S, S = `weight_scale`; built on first use, once
    per system.  (A x0)_i = 1/(h d_i), so N x0 = S A^{-1} (1/d_i), integral
    because each 1/d_i = 2D / G_ii is an integer, the scale of basis vector
    i in `translation_lattice_basis`."""
    inverse_d = tuple(row[i] for i, row in enumerate(translation_lattice_basis(system)))
    return system.coxeter_number * system.weight_scale, system.scaled_root_coords(inverse_d)


def shi_vector(w: AffineElement) -> ShiVector:
    """k(w, alpha) = floor((alpha | wbar x0 + beta)) in integers.

    One forward image z = wbar(N x0) + N beta of the scaled alcove point
    gives (alpha | wbar x0 + beta) = alpha^T G z / (N D), so each coefficient
    is one dot product with G z and one floor division.
    """
    system = w.system
    scale, point = _scaled_alcove_point(system)
    z = tuple(p + scale * b for p, b in zip(w.fbar.act_root(point), w.beta))
    g_z = tuple(sum(map(mul, row, z)) for row in system.gram)
    unit = scale * system.gram_scale
    coeffs = tuple(sum(map(mul, alpha, g_z)) // unit for alpha in system.positive_roots)
    return ShiVector(system, coeffs)


# -- atomic length ----------------------------------------------------------


def _delta_pairing(system: RootSystem) -> int:
    """<delta, rho^vee> = h^vee, read once per call.  The open convention
    question: with <alpha_i, rho^vee> = 1 (i = 0..n) delta = sum a_i alpha_i
    has height h, not h^vee, in B~, C~, F~ and G~ (L_Lambda0(s_0) < 1)."""
    return system.dual_coxeter_number


def affine_atomic_length(w: AffineElement, lam: AffineWeight) -> int:
    """<lambda - w(lambda), rho^vee>, computed two ways that must agree.

    Direct path (`_act_scaled`): act on the weight and pair with rho^vee,
    using <alpha_i, rho^vee> = 1 and <delta, rho^vee> = h^vee.  Closed
    path: the finite part plus the translation correction terms, through
    gamma = wbar^{-1} beta.  Both run in units of 1/(2 D den).  The paths
    share the weight scale den * level and the form (beta|beta); they
    differ in how lbar meets the translation: the direct path pairs the
    image wbar(lbar) with beta, the closed path pairs lbar with gamma from
    `act_inverse_root`.  Writing (lbar | gamma) as (wbar lbar | beta) would
    make the two paths equal term for term.  Where lbar = 0, as at
    Lambda_0, the finite part and the cross term vanish and neither is
    computed.
    """
    system = w.system
    lam.require_dominant_in(system)
    g = system.scaled_inner_product
    hvee, two_d = _delta_pairing(system), 2 * system.gram_scale
    lnum, shift, beta = lam.num, lam.den * lam.level, w.beta

    finite, drop = _act_scaled(w, lam)
    direct = two_d * (sum(lnum) - sum(finite)) + hvee * drop

    closed = hvee * shift * g(beta, beta) - two_d * shift * sum(beta)
    if any(lnum):
        finite_part = sum(lnum) - sum(w.fbar.act_root(lnum))
        closed += two_d * finite_part + 2 * hvee * g(lnum, w.gamma())
    if direct != closed:
        raise InvariantViolation(
            f"dual paths disagree: direct {direct}, closed {closed} "
            f"(units of 1/{two_d * lam.den})"
        )
    return exact_div(direct, two_d * lam.den, "affine atomic length")


def _level_one(hvee: int, two_d: int, beta, norm: int) -> int:
    """(h^vee / 2) |beta|^2 - ht(beta) from norm = beta^T G beta = D |beta|^2,
    in units of 1/(2D); the one place a level-one value is computed."""
    value = exact_div(hvee * norm - two_d * sum(beta), two_d, "level-one value")
    if value < 0:
        raise InvariantViolation(f"level-one value {value} < 0 at beta = {tuple(beta)}")
    return value


def level_one_atomic_length(system: RootSystem, beta) -> int:
    """(h^vee / 2) |beta|^2 - ht(beta); independent of the finite part."""
    _require_affine(system)
    norm = system.scaled_inner_product(beta, beta)
    return _level_one(_delta_pairing(system), 2 * system.gram_scale, beta, norm)


@per_system
def affine_cartan(system: RootSystem):
    """The untwisted affine Cartan matrix, node 0 first: alpha_0 = delta - theta
    gives a_0j = -sum_i comark_i a_ij and a_i0 = -sum_k a_ik theta_k."""
    cartan, theta = system.cartan, system.highest_root
    row0 = tuple(-sum(map(mul, system.comarks[1:], col)) for col in zip(*cartan))
    return ((2,) + row0,) + tuple((-sum(map(mul, row, theta)),) + row for row in cartan)


def orbit_depth_histogram(system: RootSystem, lam: AffineWeight, max_depth: int):
    """depth -> weight count over the affine orbit of lam, up to max_depth:
    `weyl.orbit_depths` on the affine Cartan matrix and (m_0, m_1, ..., m_n).
    At positive level these coordinates fix an orbit weight (the invariant
    norm fixes its delta coefficient), and max_depth keeps the orbit finite.
    """
    lam.require_dominant_in(system)
    return orbit_depths(affine_cartan(system), lam.coords, max_depth)


# -- translation lattice and image probe ------------------------------------


def translation_lattice_basis(system: RootSystem):
    """Basis of the lattice of translations appearing in the group.

    Words generate translations by long roots and their reflections, i.e. by
    the vectors alpha_i / d_i; in simply-laced types this is the root lattice.
    """
    _require_affine(system)
    n = system.rank
    basis = []
    for i in range(n):
        # 1/d_i = 2D / G_ii
        scale = exact_div(2 * system.gram_scale, system.gram[i][i], "1/d_i")
        basis.append(tuple(scale * int(j == i) for j in range(n)))
    return tuple(basis)


@per_system
def _lattice_ldl(system: RootSystem):
    """The integer LDL^T of the translation-lattice Gram matrix, built once
    per system, on first use: (scales, dens, forms, weights, k_scale).

    In the coordinates x of `translation_lattice_basis` (beta_i = scales_i
    x_i), the basis Gram matrix has the fraction-free LDL^T of
    `linalg.eliminate`, Q(x) = sum_i (R_i . x)^2 / (p_{i-1} p_i), with
    pivots p_i and pivot rows R_i; Q(x) = beta^T G beta.  So K Q(x) =
    sum_i W_i (e_i x_i + sum_{j>i} E_ij x_j)^2 with integers e_i = dens_i =
    p_i, E_ij = forms[i][j] = R_ij (zero for j <= i), K = k_scale =
    lcm(p_{i-1} p_i) and W_i = weights_i = K / (p_{i-1} p_i).
    """
    scales = tuple(row[i] for i, row in enumerate(translation_lattice_basis(system)))
    _, _, rows = eliminate(tuple(
        tuple(si * sj * g for sj, g in zip(scales, row))
        for si, row in zip(scales, system.gram)
    ))
    dens = tuple(row[i] for i, row in enumerate(rows))
    forms = tuple((0,) * (i + 1) + row[i + 1:] for i, row in enumerate(rows))
    products = tuple(map(mul, (1,) + dens[:-1], dens))
    k_scale = math.lcm(*products)
    weights = tuple(k_scale // p for p in products)
    return scales, dens, forms, weights, k_scale


def _runs(system: RootSystem, centre, full: int, what: str, tried: list):
    """Yield (x, lo, hi, t, used) for every run of the innermost coordinate
    over the ball K Q(den x - num) <= full centred at x = num / den.

    Fincke-Pohst enumeration (Math. Comp. 44, 1985) on `_lattice_ldl`, with
    the centre shifting each u_i: T_i = den (e_i x_i + u_i) - V_i, where
    u_i = sum_{j>i} E_ij x_j and V_i = e_i num_i + sum_{j>i} E_ij num_j, so
    that K Q(den x - num) = sum_i W_i T_i^2.  With budget B left by x_{n-1},
    ..., x_{i+1}, x_i runs over |T_i| <= isqrt(B // W_i), so no point
    outside the ball is tried.  A run fixes x[1:] (x is shared; x[0] is
    unused), lets x_0 run over lo..hi, starts at T_0 = t, which grows by
    den e_0 per step, and has used = K Q of the coordinates fixed above.
    `tried[i]` counts the values tried at level i; more than PROBE_CAP in
    all, read at each call, raise RadiusTooLarge.
    """
    _, dens, forms, weights, _ = _lattice_ldl(system)
    num, den = centre
    n = len(dens)
    steps = [den * e for e in dens]
    shifts = [e * c + sum(map(mul, f, num)) for e, c, f in zip(dens, num, forms)]
    x, tops, ts, budgets = [0] * n, [0] * n, [0] * n, [0] * n
    total = 0
    if full < 0:
        return
    i, budget = n - 1, full
    while True:
        e, w = steps[i], weights[i]
        u = den * sum(map(mul, forms[i], x)) - shifts[i]  # T_i = e x_i + u
        s = math.isqrt(budget // w)
        lo, hi = -((u + s) // e), (s - u) // e
        if lo <= hi:
            tried[i] += hi - lo + 1
            total += hi - lo + 1
            if total > PROBE_CAP:
                raise RadiusTooLarge(
                    f"more than {PROBE_CAP} lattice points tried for {what}"
                )
            t = e * lo + u
            if i == 0:
                yield x, lo, hi, t, full - budget
            else:
                x[i], tops[i], ts[i], budgets[i] = lo, hi, t, budget
                i, budget = i - 1, budget - w * t * t
                continue
        # step the innermost outer coordinate with room left, or finish
        i += 1
        while i < n and x[i] == tops[i]:
            i += 1
        if i == n:
            return
        x[i] += 1
        t = ts[i] = ts[i] + steps[i]
        i, budget = i - 1, budgets[i] - weights[i] * t * t


def lattice_ball(system: RootSystem, norm_bound):
    """Yield (beta, beta^T G beta) for every translation-lattice vector beta
    with |beta|^2 <= norm_bound, each once; return the number of lattice
    points tried.

    The ball centred at 0 of `_runs`.  Every point tried, at every level,
    counts against PROBE_CAP, read at each call; past it RadiusTooLarge is
    raised.
    """
    _require_affine(system)
    n = system.rank
    scales, dens, _, weights, k_scale = _lattice_ldl(system)
    # Q(x) = beta^T G beta is an integer, so the ball is Q(x) <= floor(D bound)
    full = k_scale * math.floor(system.gram_scale * norm_bound)
    e, w, s0, tail = dens[0], weights[0], scales[0], scales[1:]
    tried = [0] * n
    for x, lo, hi, t, used in _runs(
        system, ((0,) * n, 1), full, f"|beta|^2 <= {norm_bound}", tried
    ):
        rest = tuple(map(mul, tail, x[1:]))
        for x0 in range(lo, hi + 1):
            yield (s0 * x0,) + rest, exact_div(used + w * t * t, k_scale, "norm")
            t += e
    return sum(tried)


def level_one_histogram(system: RootSystem, max_value: int):
    """({value: count} over the translation lattice for level-one values
    (h^vee/2)|beta|^2 - ht(beta) <= max_value, in increasing value; the
    points tried per level, innermost first), in a simply-laced type.

    There (beta|rho) = ht(beta) on the root lattice, so the value is
    (h^vee/2)|beta - c|^2 - (h^vee/2)|c|^2 with c = rho/h^vee = num/den,
    num = S rho (`RootSystem.scaled_rho`) and den = S h^vee: the values
    <= max_value are exactly the ball h^vee Q(den x - num) <= 2 D max_value
    den^2 + h^vee Q(num) of `_runs`, which tries no point outside it.  Along
    a run, 2 D K den^2 value = h^vee (used + W_0 T_0^2 - K Q(num)), so each
    run needs one exact division for its first value and one for its first
    difference; the second difference h^vee W_0 e_0^2 / (D K) is 2 h^vee.
    A fractional or negative value raises InvariantViolation.  PROBE_CAP
    bounds the points tried, as in `lattice_ball`.
    """
    _require_affine(system)
    if system.gram_scale != 1:
        raise UnsupportedType(f"{system.label} is not simply laced")
    n = system.rank
    tried = [0] * n
    if max_value < 0:
        return {}, tuple(tried)
    _, dens, _, weights, k_scale = _lattice_ldl(system)
    hvee, two_d = _delta_pairing(system), 2 * system.gram_scale
    num = system.scaled_rho
    den = system.weight_scale * hvee
    base = hvee * system.scaled_inner_product(num, num)
    full = k_scale * ((two_d * max_value * den * den + base) // hvee)
    unit, e, a = two_d * k_scale * den * den, den * dens[0], hvee * weights[0]
    step2 = exact_div(2 * a * e * e, unit, "second difference")
    counts: dict[int, int] = {}
    get, offset = counts.get, -k_scale * base
    runs = _runs(system, (num, den), full, f"level-one value <= {max_value}", tried)
    for x, lo, hi, t, used in runs:
        # the one exact pair kept inline, not in exact_div: it runs once per run
        value, r = divmod(hvee * used + offset + a * t * t, unit)
        step, r2 = divmod(a * e * (2 * t + e), unit)
        if r or r2:
            raise InvariantViolation(f"level-one values at x = {x} are not integers")
        for _ in range(hi - lo + 1):
            counts[value] = get(value, 0) + 1
            value += step
            step += step2
    if counts and min(counts) < 0:
        raise InvariantViolation(f"level-one value {min(counts)} < 0")
    return dict(sorted(counts.items())), tuple(tried)


def _certified_max(system: RootSystem, lam: AffineWeight, radius: int) -> int:
    """Largest N such that every element with value <= N has |beta|^2 <= radius.

    Uses L_lam(w) >= (level h^vee / 2) u - (level c0 + h^vee c1) sqrt(u) for
    u = |beta|^2, where c0 = |h x0| bounds heights and c1 = |lbar|.  With
    z = h S x0 from `_scaled_alcove_point` and num = S lbar, D S^2 c0^2 =
    z^T G z and D S^2 c1^2 = num^T G num, so for B = D S^2 (level c0 +
    h^vee c1)^2 the test (A s - N)^2 < B s / (D S^2), A = level h^vee / 2,
    is (level h^vee s - 2N)^2 D S^2 < 4 B s, in integers.
    """
    hvee, level = _delta_pairing(system), lam.level
    if level == 0:
        return 0
    g = system.scaled_inner_product
    _, z = _scaled_alcove_point(system)
    c0_sq, c1_sq = g(z, z), g(lam.num, lam.num)  # both times D S^2
    # B involves c0 c1, which may be irrational.  At lbar = 0 it is
    # level^2 c0^2, exactly; otherwise it is padded to
    # 2 level^2 c0^2 + 2 h^vee^2 c1^2 >= B, as (x + y)^2 <= 2x^2 + 2y^2.
    b = level**2 * c0_sq
    if c1_sq:
        b = 2 * b + 2 * hvee**2 * c1_sq
    two_a, unit, s = level * hvee, system.gram_scale * system.weight_scale**2, radius
    # need s past the vertex of the lower bound before it is increasing
    if two_a**2 * s * unit < b:
        return 0
    n_max = two_a * s // 2
    while n_max > 0 and (two_a * s - 2 * n_max) ** 2 * unit < 4 * b * s:
        n_max -= 1
    return n_max


@dataclass(frozen=True)
class AffineProbeReport:
    certified_max: int
    attained: tuple[int, ...]
    missing: tuple[int, ...]
    searched: int
    norm_bound: int

    def as_dict(self):
        return {
            "certified_max": self.certified_max,
            "attained": list(self.attained),
            "missing": list(self.missing),
            "searched": self.searched,
            "norm_bound": str(self.norm_bound),
        }


def affine_image_probe(
    system: RootSystem, lam: AffineWeight, radius: int
) -> AffineProbeReport:
    """Values of the affine atomic length over a certified search ball.

    `radius` bounds |beta|^2 over the translation lattice.  The report lists
    which integers in [0, certified_max] are attained; the certificate says
    no element outside the ball can take a value below that threshold.
    `searched` counts the group elements wbar . tau valued, |W| per lattice
    point away from Lambda_0.  PROBE_CAP bounds the lattice points tried.
    """
    lam.require_dominant_in(system)
    if radius < 0:
        raise NegativeBound(f"radius {radius} must be nonnegative")
    ball = lattice_ball(system, radius)
    hvee, two_d = _delta_pairing(system), 2 * system.gram_scale

    lnum = lam.num
    points = 0
    if not any(lnum) and lam.level == 1:
        values = set()
        for beta, norm in ball:
            values.add(_level_one(hvee, two_d, beta, norm))
            points += 1
        searched = points
    else:
        # L = L_lbar(wbar) + level L_Lambda0(beta) + h^vee (lbar | wbar^{-1} beta)
        # in units of 1/(2 D den) depends on wbar through mu = wbar lbar alone:
        # L_lbar(wbar) is the depth <lbar - mu, rho^vee> of mu in the orbit, and
        # (lbar | wbar^{-1} alpha_j) = (mu | alpha_j) = G_jj mu_j / (2D), so
        # 2 D den h^vee (lbar | wbar^{-1} beta) = row . beta with
        # row_j = h^vee den G_jj mu_j.  The walk over W.lbar in fundamental
        # coordinates stops at the top depth 2 <lbar, rho^vee>.
        unit = two_d * lam.den
        top = exact_div(2 * sum(lnum), lam.den, "2 <lbar, rho^vee>")
        diag = [row[j] for j, row in enumerate(system.gram)]
        rows = [
            (unit * depth, tuple(hvee * lam.den * g * m for g, m in zip(diag, mu)))
            for depth, mu in orbit_weights(system.cartan, lam.fund, top)
        ]
        scaled = set()
        for beta, norm in ball:
            v0 = unit * lam.level * _level_one(hvee, two_d, beta, norm)
            for finite_term, row in rows:
                scaled.add(finite_term + v0 + sum(map(mul, row, beta)))
            points += 1
        values = {exact_div(v, unit, "affine atomic length") for v in scaled}
        searched = group_order(system) * points

    certified = _certified_max(system, lam, radius)
    attained = tuple(sorted(v for v in values if v <= certified))
    missing = tuple(v for v in range(certified + 1) if v not in values)
    return AffineProbeReport(
        certified_max=certified,
        attained=attained,
        missing=missing,
        searched=searched,
        norm_bound=radius,
    )
