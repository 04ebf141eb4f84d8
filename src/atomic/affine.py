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

The hot paths run on exact integers.  With G = D (d_i a_ij) the integer
Gram matrix of `rootdata` and den the common denominator of a weight's
finite part (den = 1 for Lambda_0), the affine atomic length, the probe and
the level-one values are computed in units of 1/(2 D den): each is an
integer numerator, divided once at the end, where its integrality is
checked.  Shi coefficients are one floor division in units of 1/(hD).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .errors import (
    IndexOutOfRange,
    InvalidType,
    InvariantViolation,
    NegativeBound,
    NotDominant,
    RadiusTooLarge,
)
from .linalg import mat_inv, mat_vec
from .rootdata import RootSystem
from .weyl import WeylElement, identity_element, root_reflection, simple_reflection

PROBE_CAP = 2**22


def _require_affine(system: RootSystem):
    if not system.label.affine:
        raise InvalidType(f"{system.label} is not an affine label")


def _exact(num: int, den: int):
    """num/den as an int when it divides, else as a Fraction."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


@dataclass(frozen=True)
class AffineWeight:
    """A level-ell weight: finite part (simple-root coordinates), level, and
    delta coefficient.

    Everything else is derived once, when the weight is built: the common
    denominator `den` of the finite part and the integer vector
    `num = den * finite`, the fundamental coordinates `fund` (m_1..m_n),
    m_0, and whether the weight is dominant integral.
    """

    system: RootSystem
    finite: tuple[Fraction, ...]
    level: int
    delta_coeff: Fraction = Fraction(0)
    den: int = field(init=False, repr=False, compare=False)
    num: tuple[int, ...] = field(init=False, repr=False, compare=False)
    fund: tuple = field(init=False, repr=False, compare=False)
    m0: int | Fraction = field(init=False, repr=False, compare=False)
    _dominant_integral: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        system = self.system
        den = math.lcm(*(c.denominator for c in self.finite))
        num = tuple(c.numerator * (den // c.denominator) for c in self.finite)
        fund_num = tuple(sum(map(mul, row, num)) for row in system.cartan)
        # m_0 = level - <finite, theta^vee>, theta^vee = sum comark_i alpha_i^vee
        m0_num = self.level * den - sum(map(mul, system.comarks[1:], fund_num))
        coords = fund_num + (m0_num,)
        put = object.__setattr__
        put(self, "den", den)
        put(self, "num", num)
        put(self, "fund", tuple(_exact(f, den) for f in fund_num))
        put(self, "m0", _exact(m0_num, den))
        put(self, "_dominant_integral", all(c >= 0 and c % den == 0 for c in coords))

    def is_dominant_integral(self) -> bool:
        return self._dominant_integral

    def require_dominant_integral(self):
        if not self.is_dominant_integral():
            raise NotDominant(f"affine weight {self} is not dominant integral")

    def __repr__(self):
        fund = tuple(Fraction(c) for c in self.fund)  # printed as exact rationals
        return f"AffineWeight(fund={fund}, level={self.level}, z={self.delta_coeff})"


def affine_weight(system: RootSystem, coords) -> AffineWeight:
    """Build a weight from affine fundamental coordinates (m_0, m_1, ..., m_n)."""
    _require_affine(system)
    coords = tuple(coords)
    if len(coords) != system.rank + 1:
        raise IndexOutOfRange(
            f"expected {system.rank + 1} coordinates m_0..m_n, got {len(coords)}"
        )
    m0, finite_fund = coords[0], coords[1:]
    finite = system.root_coords(tuple(Fraction(c) for c in finite_fund))
    level = m0 + sum(
        c * m for c, m in zip(system.comarks[1:], finite_fund)
    )
    return AffineWeight(system, finite, int(level), Fraction(0))


def basic_weight(system: RootSystem) -> AffineWeight:
    """The level-one weight with trivial finite part (Lambda_0)."""
    _require_affine(system)
    return AffineWeight(system, (0,) * system.rank, 1, 0)


class AffineElement:
    """Pair (beta, wbar) acting on the finite coordinate space as
    x -> wbar(x) + beta."""

    __slots__ = ("system", "beta", "fbar", "word")

    def __init__(self, system: RootSystem, beta, fbar: WeylElement, word=None):
        _require_affine(system)
        self.system = system
        self.beta = tuple(beta)
        self.fbar = fbar
        self.word = tuple(word) if word is not None else None

    def __eq__(self, other):
        return (
            isinstance(other, AffineElement)
            and self.system.label == other.system.label
            and self.beta == other.beta
            and self.fbar == other.fbar
        )

    def __hash__(self):
        return hash((self.system.label, self.beta, self.fbar))

    def __mul__(self, other: "AffineElement") -> "AffineElement":
        # (A, a) o (B, b) : x -> A(B x + b) + a
        fbar = self.fbar * other.fbar
        beta = tuple(
            s + t for s, t in zip(self.fbar.act_root(other.beta), self.beta)
        )
        word = (
            self.word + other.word
            if self.word is not None and other.word is not None
            else None
        )
        return AffineElement(self.system, beta, fbar, word)

    def is_identity(self) -> bool:
        return all(c == 0 for c in self.beta) and self.fbar.is_identity()

    def apply_point(self, x):
        """Act on a point of the finite space (simple-root coordinates)."""
        img = self.fbar.act_root(x)
        return tuple(a + b for a, b in zip(img, self.beta))

    def gamma(self):
        """The translation on the other side: w = wbar . tau_gamma."""
        return self.fbar.act_inverse_root(self.beta)

    def __repr__(self):
        return f"AffineElement({self.system.label}, beta={self.beta}, wbar={self.fbar!r})"


def affine_identity(system: RootSystem) -> AffineElement:
    _require_affine(system)
    return AffineElement(system, (0,) * system.rank, identity_element(system), ())


def affine_generator(system: RootSystem, i: int) -> AffineElement:
    _require_affine(system)
    if not 0 <= i <= system.rank:
        raise IndexOutOfRange(f"affine index {i} outside 0..{system.rank}")
    if i == 0:
        theta = system.highest_root
        return AffineElement(system, theta, root_reflection(system, theta), (0,))
    zero = (0,) * system.rank
    return AffineElement(system, zero, simple_reflection(system, i), (i,))


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
    """Apply s_i (0 <= i <= n) to an affine weight."""
    system = mu.system
    if not 0 <= i <= system.rank:
        raise IndexOutOfRange(f"affine index {i} outside 0..{system.rank}")
    if i == 0:
        m0 = mu.m0
        theta = system.highest_root
        finite = tuple(c + m0 * t for c, t in zip(mu.finite, theta))
        return AffineWeight(system, finite, mu.level, mu.delta_coeff - m0)
    finite = list(mu.finite)
    finite[i - 1] -= mu.fund[i - 1]
    return AffineWeight(system, tuple(finite), mu.level, mu.delta_coeff)


def act_word_on_weight(system: RootSystem, word, mu: AffineWeight) -> AffineWeight:
    """Word action, rightmost letter first (matching composition order)."""
    for i in reversed(tuple(word)):
        mu = weight_reflect(mu, i)
    return mu


def _act_scaled(w: AffineElement, mu: AffineWeight):
    """The action of w on mu in scaled integers.

    tau_beta(nu) = nu + level*beta - ((nu|beta) + |beta|^2 level / 2) delta.
    Returns den * (finite part of w(mu)) and the drop of the delta
    coefficient in units of 1/(2 D den), den being mu's denominator.
    """
    g = w.system.scaled_inner_product
    beta, shift = w.beta, mu.den * mu.level
    image = w.fbar.act_root(mu.num)  # den * wbar(finite)
    drop = 2 * g(image, beta) + shift * g(beta, beta)
    return tuple(c + shift * b for c, b in zip(image, beta)), drop


def act_element_on_weight(w: AffineElement, mu: AffineWeight) -> AffineWeight:
    """Action through the (beta, wbar) form and the translation formula."""
    system = w.system
    num, drop = _act_scaled(w, mu)
    finite = tuple(_exact(c, mu.den) for c in num)
    z = mu.delta_coeff - _exact(drop, 2 * system.gram_scale * mu.den)
    return AffineWeight(system, finite, mu.level, z)


# -- Shi coefficients -------------------------------------------------------


def alcove_point(system: RootSystem):
    """The interior point x0 of the fundamental alcove with (alpha_i|x0) = 1/h."""
    h = system.coxeter_number
    target = tuple(
        Fraction(1, h) / d for d in system.symmetrizer
    )  # (A x0)_i = 1/(h d_i)
    return mat_vec(system.cartan_inv, target)


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


def shi_vector(w: AffineElement) -> ShiVector:
    """k(w, alpha) = floor((alpha | wbar x0 + beta)) in integers.

    (alpha | wbar x0) = (wbar^{-1} alpha | x0) = ht(wbar^{-1} alpha) / h and
    (alpha | beta) = alpha^T G beta / D, so each coefficient is one floor
    division in units of 1/(hD).
    """
    system = w.system
    h, d = system.coxeter_number, system.gram_scale
    g_beta = tuple(sum(map(mul, row, w.beta)) for row in system.gram)
    coeffs = tuple(
        (d * sum(w.fbar.act_inverse_root(alpha)) + h * sum(map(mul, alpha, g_beta)))
        // (h * d)
        for alpha in system.positive_roots
    )
    return ShiVector(system, coeffs)


def affine_length(w: AffineElement) -> int:
    """Number of hyperplanes separating the alcove of w from the fundamental
    one: the absolute sum of the Shi vector."""
    return sum(abs(c) for c in shi_vector(w).coefficients)


# -- atomic length ----------------------------------------------------------


def _unscale(value: int, unit: int, what: str) -> int:
    """value / unit, which the theory says is an integer."""
    q, r = divmod(value, unit)
    if r:
        raise InvariantViolation(f"{what} {Fraction(value, unit)} is not an integer")
    return q


def affine_atomic_length(w: AffineElement, lam: AffineWeight) -> int:
    """<lambda - w(lambda), rho^vee>, computed two ways that must agree.

    Direct path: act on the weight and pair with rho^vee, using
    <alpha_i, rho^vee> = 1 and <delta, rho^vee> = h^vee.  Closed path: the
    finite part plus the translation correction terms, through
    gamma = wbar^{-1} beta.  Both run in units of 1/(2 D den).
    """
    lam.require_dominant_integral()
    system = w.system
    g = system.scaled_inner_product
    hvee, two_d = system.dual_coxeter_number, 2 * system.gram_scale
    lnum, shift = lam.num, lam.den * lam.level

    finite, drop = _act_scaled(w, lam)
    direct = two_d * (sum(lnum) - sum(finite)) + hvee * drop

    finite_part = sum(lnum) - sum(w.fbar.act_root(lnum))
    closed = two_d * (finite_part - shift * sum(w.beta)) + hvee * (
        2 * g(lnum, w.gamma()) + shift * g(w.beta, w.beta)
    )
    if direct != closed:
        raise InvariantViolation(
            f"dual paths disagree: direct {direct}, closed {closed} "
            f"(units of 1/{two_d * lam.den})"
        )
    return _unscale(direct, two_d * lam.den, "affine atomic length")


def level_one_atomic_length(system: RootSystem, beta) -> int:
    """(h^vee / 2) |beta|^2 - ht(beta); independent of the finite part."""
    _require_affine(system)
    two_d = 2 * system.gram_scale
    value = _unscale(
        system.dual_coxeter_number * system.scaled_inner_product(beta, beta)
        - two_d * sum(beta),
        two_d,
        "level-one value",
    )
    if value < 0:
        raise InvariantViolation(f"level-one value {value} < 0 at beta = {tuple(beta)}")
    return value


def affine_decomposition_check(w: AffineElement, lam: AffineWeight) -> bool:
    """Check L_lam(w) = L_lbar(wbar) + level * L_Lambda0(w) + h^vee (lbar|gamma),
    both sides in units of 1/(2 D den)."""
    system = w.system
    lam.require_dominant_integral()
    lnum, two_d = lam.num, 2 * system.gram_scale
    finite_term = sum(lnum) - sum(w.fbar.act_root(lnum))
    rhs = (
        two_d * finite_term
        + two_d * lam.den * lam.level * level_one_atomic_length(system, w.beta)
        + 2 * system.dual_coxeter_number * system.scaled_inner_product(lnum, w.gamma())
    )
    return two_d * lam.den * affine_atomic_length(w, lam) == rhs


def orbit_depth_histogram(system: RootSystem, lam: AffineWeight, max_depth: int):
    """depth -> weight count over the affine orbit of lam, up to max_depth.

    Same walk as the finite reference route `atomiclen._orbit_depths`:
    follow mu -> s_i(mu) only when <mu, alpha_i^vee> > 0 (now including
    i = 0), incrementing the depth by the pairing; <alpha_i, rho^vee> = 1 for
    every node makes the increment exact.
    Only weights within max_depth are expanded, which keeps the infinite
    affine orbit finite.
    """
    _require_affine(system)
    lam.require_dominant_integral()
    start = (lam.finite, lam.delta_coeff)
    seen = {start}
    stack = [(lam, 0)]
    histogram: dict[int, int] = {}
    while stack:
        mu, depth = stack.pop()
        histogram[depth] = histogram.get(depth, 0) + 1
        for i, p in enumerate((mu.m0,) + mu.fund):
            if p > 0 and depth + p <= max_depth:
                nxt = weight_reflect(mu, i)
                key = (nxt.finite, nxt.delta_coeff)
                if key not in seen:
                    seen.add(key)
                    stack.append((nxt, int(depth + p)))
    return histogram


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
        scale = _unscale(2 * system.gram_scale, system.gram[i][i], "1/d_i")
        basis.append(tuple(scale * int(j == i) for j in range(n)))
    return tuple(basis)


def _lattice_ball(system: RootSystem, basis, norm_bound: Fraction, cap):
    """All lattice vectors beta with |beta|^2 <= norm_bound, exactly.

    Coordinate boxes come from the inverse Gram matrix of the basis
    (standard ellipsoid bound), then candidates are filtered exactly.
    """
    n = system.rank
    gram = tuple(
        tuple(system.inner_product(a, b) for b in basis) for a in basis
    )
    gram_inv = mat_inv(gram)
    bounds = []
    for i in range(n):
        limit = gram_inv[i][i] * norm_bound
        bound = math.isqrt(math.floor(limit)) if limit >= 0 else 0
        while Fraction((bound + 1) ** 2) <= limit:
            bound += 1
        bounds.append(bound)
    total = 1
    for b in bounds:
        total *= 2 * b + 1
        if total > cap:
            raise RadiusTooLarge(f"lattice ball of {total} candidates exceeds cap")

    out = []
    coeffs = [0] * n
    # |beta|^2 <= bound  <=>  beta^T G beta <= floor(D * bound)
    scaled_bound = math.floor(norm_bound * system.gram_scale)
    g = system.scaled_inner_product

    def rec(i):
        if i == n:
            beta = tuple(
                sum(coeffs[j] * basis[j][k] for j in range(n)) for k in range(n)
            )
            if g(beta, beta) <= scaled_bound:
                out.append(beta)
            return
        for c in range(-bounds[i], bounds[i] + 1):
            coeffs[i] = c
            rec(i + 1)

    rec(0)
    return out


def _certified_max(system: RootSystem, lam: AffineWeight, norm_bound: Fraction) -> int:
    """Largest N such that every element with value <= N has |beta|^2 <= bound.

    Uses L_lam(w) >= (level h^vee / 2) u - (level c0 + h^vee c1) sqrt(u) for
    u = |beta|^2, where c0 = |h x0| bounds heights and c1 = |lbar|; the
    inequality ((A s - N)^2 >= B^2 s) is checked in exact rational arithmetic.
    """
    h = system.coxeter_number
    x0 = alcove_point(system)
    c0_sq = system.inner_product(x0, x0) * h * h
    c1_sq = system.inner_product(lam.finite, lam.finite)
    a_coef = Fraction(lam.level * system.dual_coxeter_number, 2)
    # B^2 = (level c0 + h^vee c1)^2 <= 2 level^2 c0^2 + 2 h_vee^2 c1^2 is
    # avoided: keep the exact square via (x+y)^2 <= 2x^2 + 2y^2 only when
    # needed; here compute B^2 exactly when one term vanishes, else pad.
    if c1_sq == 0:
        b_sq = Fraction(lam.level**2) * c0_sq
    elif c0_sq == 0:
        b_sq = Fraction(system.dual_coxeter_number**2) * c1_sq
    else:
        b_sq = 2 * Fraction(lam.level**2) * c0_sq + 2 * Fraction(
            system.dual_coxeter_number**2
        ) * c1_sq
    s = norm_bound
    if a_coef == 0:
        return 0
    # need s past the vertex of the lower bound before it is increasing
    if 4 * a_coef**2 * s < b_sq:
        return 0
    n_max = math.floor(a_coef * s)
    while n_max > 0 and (a_coef * s - n_max) ** 2 < b_sq * s:
        n_max -= 1
    return max(n_max, 0)


@dataclass(frozen=True)
class AffineProbeReport:
    certified_max: int
    attained: tuple[int, ...]
    missing: tuple[int, ...]
    searched: int
    norm_bound: Fraction

    def as_dict(self):
        return {
            "certified_max": self.certified_max,
            "attained": list(self.attained),
            "missing": list(self.missing),
            "searched": self.searched,
            "norm_bound": str(self.norm_bound),
        }


def affine_image_probe(
    system: RootSystem, lam: AffineWeight, radius: int, cap=PROBE_CAP
) -> AffineProbeReport:
    """Values of the affine atomic length over a certified search ball.

    `radius` bounds |beta|^2 over the translation lattice.  The report lists
    which integers in [0, certified_max] are attained; the certificate says
    no element outside the ball can take a value below that threshold.
    """
    _require_affine(system)
    lam.require_dominant_integral()
    if radius < 0:
        raise NegativeBound(f"radius {radius} must be nonnegative")
    basis = translation_lattice_basis(system)
    ball = _lattice_ball(system, basis, Fraction(radius), cap)

    lnum = lam.num
    values = set()
    searched = 0
    if not any(lnum) and lam.level == 1:
        for beta in ball:
            values.add(level_one_atomic_length(system, beta))
            searched += 1
    else:
        from .weyl import enumerate_group

        # L = L_lbar(wbar) + level L_Lambda0(beta) + h^vee (lbar | wbar^{-1} beta)
        # in units of 1/(2 D den).  Per finite element keep the scaled finite
        # term and the integer row r with r . beta = 2 h^vee lnum^T G wbar^{-1} beta.
        n, hvee = system.rank, system.dual_coxeter_number
        two_d = 2 * system.gram_scale
        unit = two_d * lam.den
        g = system.scaled_inner_product
        rows = []
        for wbar in enumerate_group(system):
            finite_term = two_d * (sum(lnum) - sum(wbar.act_root(lnum)))
            row = tuple(
                2 * hvee * g(lnum, wbar.act_inverse_root(system.simple_root(j)))
                for j in range(1, n + 1)
            )
            rows.append((finite_term, row))
        for beta in ball:
            v0 = unit * lam.level * level_one_atomic_length(system, beta)
            for finite_term, row in rows:
                v = finite_term + v0 + sum(map(mul, row, beta))
                values.add(_unscale(v, unit, "affine atomic length"))
            searched += len(rows)

    certified = _certified_max(system, lam, Fraction(radius))
    attained = tuple(sorted(v for v in values if v <= certified))
    missing = tuple(v for v in range(certified + 1) if v not in values)
    return AffineProbeReport(
        certified_max=certified,
        attained=attained,
        missing=missing,
        searched=searched,
        norm_bound=Fraction(radius),
    )
