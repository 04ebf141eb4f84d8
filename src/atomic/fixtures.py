"""The pinned paper tables and the `verify` runner behind the CLI.

This module is the single home of the package's pinned tables: rank-2 image
sets, longest-element values, Shi patterns of the special reflections, the
A2~ level-one table, scaled inversion sets, the C3 ideal-weight sets, the
minuscule nodes and the 3-core sizes.  Three readers check against them:
`atomic verify` (through `run_all`), the acceptance criteria in
`tests/test_acceptance.py` and the unit tests.  A correction to a table is
made here once.

Each check returns a list of (label, ok, detail) triples; run_all() chains
them.  Exhaustive loops stay in the tests, so `verify` stays cheap.
"""

from __future__ import annotations

from itertools import permutations

from . import affine, atomiclen, cores, perms, susanfe, weyl
from .rootdata import classical_root, root_system

# Value set of the atomic length over W (lambda = rho) in rank 2.
RANK2_IMAGES = {
    "A2": (0, 1, 3, 4),
    "B2": (0, 1, 3, 4, 6, 7),
    "G2": (0, 1, 3, 5, 8, 11, 13, 15, 16),
}

# The value at w0, 2<rho, rho^vee>, as a function of the rank, and the
# classical types it is pinned on.
W0_CLOSED_FORMS = {
    "A": lambda n: n * (n + 1) * (n + 2) // 6,
    "B": lambda n: n * (n + 1) * (4 * n - 1) // 6,
    "C": lambda n: n * (n + 1) * (4 * n - 1) // 6,
    "D": lambda n: n * (n - 1) * (2 * n - 1) // 3,
}
W0_CLASSICAL = tuple(
    f"{fam}{n}"
    for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
    for n in range(lo, 9)
)
W0_EXCEPTIONAL = {"E6": 156, "E7": 399, "E8": 1240, "F4": 110, "G2": 16}

# Special reflections embedded in the affine type, by check label: (type,
# reduced word, classical labels of the roots where the Shi vector is -1;
# it is 0 on every other positive root).  Labels resolve through
# rootdata.classical_root.
SHI_PATTERNS = {
    "a4-highest-reflection": (
        "A4~",
        (1, 2, 3, 4, 3, 2, 1),
        (("diff", 1, 2), ("diff", 1, 3), ("diff", 1, 4), ("diff", 1, 5),
         ("diff", 2, 5), ("diff", 3, 5), ("diff", 4, 5)),
    ),
    "b4-highest-reflection": (
        "B4~",
        (2, 3, 4, 3, 2, 1, 2, 3, 4, 3, 2),
        (("diff", 1, 3), ("diff", 1, 4), ("short", 1),
         ("sum", 1, 4), ("sum", 1, 3), ("sum", 1, 2),
         ("diff", 2, 3), ("diff", 2, 4), ("short", 2),
         ("sum", 2, 4), ("sum", 2, 3)),
    ),
    "b4-short-reflection": (
        "B4~",
        (1, 2, 3, 4, 3, 2, 1),
        (("diff", 1, 2), ("diff", 1, 3), ("diff", 1, 4),
         ("short", 1), ("sum", 1, 4), ("sum", 1, 3), ("sum", 1, 2)),
    ),
    "c4-highest-reflection": (
        "C4~",
        (1, 2, 3, 4, 3, 2, 1),
        (("diff", 1, 2), ("diff", 1, 3), ("diff", 1, 4),
         ("sum", 1, 4), ("sum", 1, 3), ("sum", 1, 2), ("long", 1)),
    ),
}

# A2~ at Lambda_0: (affine word, reduced word of the finite part wbar,
# translation beta, gamma, atomic length).
AFFINE_A2_TABLE = (
    ((), (), (0, 0), (0, 0), 0),
    ((0,), (2, 1, 2), (1, 1), (-1, -1), 1),
    ((1, 0), (2, 1), (0, 1), (-1, -1), 2),
    ((2, 0), (1, 2), (1, 0), (-1, -1), 2),
    ((2, 1, 0), (1,), (0, -1), (-1, -1), 4),
    ((1, 2, 0), (2,), (-1, 0), (-1, -1), 4),
    ((2, 1, 2, 0), (), (-1, -1), (-1, -1), 5),
    ((0, 2, 1, 0), (1, 2), (2, 1), (-1, -2), 6),
    ((0, 1, 2, 0), (2, 1), (1, 2), (-2, -1), 6),
    ((0, 2, 1, 2, 0), (1, 2, 1), (2, 2), (-2, -2), 8),
    ((1, 0, 2, 1, 0), (2,), (-1, 1), (-1, -2), 9),
    ((2, 0, 1, 2, 0), (1,), (1, -1), (-2, -1), 9),
)

# A4 at lambda = m_1 omega_1 + ... + m_4 omega_4: the lambda-inversion
# multiset of each reduced word as (k, i, j), meaning m_k (e_i - e_j).
SCALED_INVERSION_WEIGHT = (1, 2, 3, 4)
SCALED_INVERSIONS = {
    (1, 2, 1, 3, 4, 3): ((1, 1, 2), (1, 2, 3), (2, 1, 3),
                         (3, 1, 4), (3, 4, 5), (4, 1, 5)),
    (2, 1, 4, 2, 3, 4): ((1, 1, 3), (2, 2, 3), (2, 1, 2),
                         (3, 1, 5), (4, 1, 4), (4, 4, 5)),
}

# C3 value sets by fundamental coordinates; a weight is ideal exactly when
# its set is a full interval.
C3_IDEAL_VALUES = {
    (2, 1, 1): tuple(range(28)),
    (1, 2, 1): (0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 15, 16, 17, 19, 20,
                21, 22, 23, 24, 25, 26, 28, 29, 30),
    (1, 1, 2): (0, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 13, 14, 15, 16, 17, 18, 20,
                21, 22, 23, 24, 25, 27, 28, 29, 30, 31),
}

# Nodes i whose fundamental weight omega_i is minuscule, in node order.
MINUSCULE_NODES = {
    "A3": (1, 2, 3),
    "B3": (3,),
    "C3": (1,),
    "D4": (1, 3, 4),
    "D5": (1, 4, 5),
    "E6": (1, 6),
    "E7": (7,),
    "E8": (),
    "F4": (),
    "G2": (),
}

# Sizes up to 5 attained by 3-cores.
THREE_CORE_SIZES = (0, 1, 2, 4, 5)

Check = tuple[str, bool, str]


def _result(label, ok, detail="") -> Check:
    return (label, bool(ok), detail)


def check_cartan_basics():
    out = []
    a2 = root_system("A2")
    out.append(
        _result(
            "a2-positive-roots",
            set(a2.positive_roots) == {(1, 0), (0, 1), (1, 1)}
            and a2.highest_root == (1, 1),
            f"{a2.positive_roots}",
        )
    )
    out.append(_result("a1-single-root", root_system("A1").positive_roots == ((1,),), ""))
    g2 = root_system("G2")
    out.append(
        _result(
            "g2-highest-root",
            len(g2.positive_roots) == 6 and g2.highest_root == (3, 2),
            f"{g2.highest_root}",
        )
    )
    a5 = root_system("A5")
    ok = all(
        sum(classical_root(a5, "diff", i, j)) == j - i
        for i in range(1, 6)
        for j in range(i + 1, 7)
    )
    out.append(_result("type-a-heights", ok, ""))
    b4 = root_system("B4")
    out.append(
        _result("b4-highest-height", sum(b4.highest_root) == 7, str(sum(b4.highest_root)))
    )
    out.append(
        _result(
            "a2-cartan-pairing",
            a2.pairing(a2.simple_root(2), 1) == -1
            and a2.pairing(a2.simple_root(1), 1) == 2,
            "",
        )
    )
    a3 = root_system("A3")
    out.append(
        _result("a3-two-rho-pairing", 2 * sum(a3.rho_coords) == 10, "")
    )
    s1 = weyl.simple_reflection(a2, 1)
    out.append(
        _result("a2-simple-action", s1.act_root(a2.simple_root(2)) == (1, 1), "")
    )
    out.append(
        _result(
            "a2-word-prefix-roots",
            weyl.inversion_set_from_word(a2, (1, 2)) == ((1, 0), (1, 1)),
            "",
        )
    )
    out.append(
        _result(
            "a3-longest-one-line",
            perms.to_weyl((4, 3, 2, 1)) == weyl.longest_element(a3),
            "",
        )
    )
    return out


def check_rank2_image_sets():
    out = []
    for label, expected in RANK2_IMAGES.items():
        system = root_system(label)
        got = atomiclen.image_set(system, system.rho).values
        out.append(
            _result(f"rank2-image/{label}", got == expected, f"{got} vs {expected}")
        )
    return out


def check_longest_element_values():
    out = []
    for label in W0_CLASSICAL:
        system = root_system(label)
        via_w0 = atomiclen.atomic_length_w0(system, system.rho)
        via_rho = 2 * sum(system.rho_coords)
        want = W0_CLOSED_FORMS[system.label.family](system.rank)
        out.append(
            _result(
                f"w0-value/{label}",
                via_w0 == via_rho == want,
                f"w0 {via_w0}, 2<rho,rho_vee> {via_rho}, closed {want}",
            )
        )
    for label, want in W0_EXCEPTIONAL.items():
        system = root_system(label)
        got = atomiclen.atomic_length_w0(system, system.rho)
        ok = got == 2 * sum(system.rho_coords) == want
        out.append(_result(f"w0-value/{label}", ok, f"{got} vs {want}"))
    return out


def check_inversion_tables():
    out = []
    a2 = root_system("A2")
    a1, al2 = a2.simple_root(1), a2.simple_root(2)
    both = (1, 1)
    # The two length-2 elements carry {alpha_1, theta} and {alpha_2, theta}.
    sets = {
        weyl.evaluate(a2, (1, 2)).inversion_set(),
        weyl.evaluate(a2, (2, 1)).inversion_set(),
    }
    want = {(a1, both), (al2, both)}
    out.append(_result("a2-length2-inversions", sets == want, f"{sets}"))
    lengths = sorted(
        (w.length(), atomiclen.atomic_length(w)) for w in weyl.enumerate_group(a2)
    )
    out.append(
        _result(
            "a2-length-table",
            lengths == [(0, 0), (1, 1), (1, 1), (2, 3), (2, 3), (3, 4)],
            f"{lengths}",
        )
    )

    a4 = root_system("A4")
    e = lambda i, j: classical_root(a4, "diff", i, j)
    got = weyl.inversion_set_from_word(a4, (1, 2, 1, 3, 4, 3))
    want_set = {e(1, 2), e(2, 3), e(1, 3), e(1, 4), e(4, 5), e(1, 5)}
    out.append(_result("a4-word-inversions", set(got) == want_set, f"{got}"))

    a3 = root_system("A3")
    e3 = lambda i, j: classical_root(a3, "diff", i, j)
    w = weyl.evaluate(a3, (1, 2, 1, 3))
    got3 = set(w.inversion_set())
    out.append(
        _result(
            "a3-parabolic-example-inversions",
            got3 == {e3(1, 2), e3(1, 3), e3(2, 3), e3(1, 4)},
            f"{got3}",
        )
    )
    out.append(
        _result(
            "a3-parabolic-example-value",
            atomiclen.atomic_length(w) == 7,
            str(atomiclen.atomic_length(w)),
        )
    )
    return out


def check_reflection_subgroup_example():
    a3 = root_system("A3")
    e = lambda i, j: classical_root(a3, "diff", i, j)
    gens = [weyl.evaluate(a3, (1, 2, 1)), weyl.evaluate(a3, (3,))]
    sub = weyl.ReflectionSubgroup(a3, gens)
    ok_delta = set(sub.delta) == {e(1, 3), e(3, 4)}
    ok_phi = set(sub.phi_plus) == {e(1, 3), e(3, 4), e(1, 4)}
    ok_cartan = sub.cartan == ((2, -1), (-1, 2))
    w = weyl.evaluate(a3, (1, 2, 1, 3))
    ok_sub_length = sub.atomic_length_in_subgroup(w) == 5
    return [
        _result("subgroup-delta", ok_delta, f"{sub.delta}"),
        _result("subgroup-phi", ok_phi, f"{sub.phi_plus}"),
        _result("subgroup-cartan-a2", ok_cartan, f"{sub.cartan}"),
        _result("subgroup-atomic-length", ok_sub_length, ""),
    ]


def check_special_reflections():
    expected = {
        "A4": 10,  # binom(n+1, 2)
        "B4": 28,  # 2n^2 - n
        "C4": 28,
        "D5": 31,  # 2n^2 - 4n + 1
    }
    out = []
    for label, want in expected.items():
        system = root_system(label)
        sp = susanfe.special_reflection(system)
        out.append(
            _result(f"step-constant/{label}", sp.constant == want, f"{sp.constant}")
        )
        out.append(
            _result(
                f"special-is-susanfe/{label}",
                susanfe.susanfe_check(sp.element).is_susanfe,
                "",
            )
        )
    a4 = root_system("A4")
    sp = susanfe.special_reflection(a4)
    sub = weyl.standard_parabolic(a4, sp.parabolic_indices)
    w_i, rest = weyl.a_decomposition(sp.element, sub)
    ok = w_i == weyl.evaluate(a4, (4, 3, 2)) and rest == weyl.evaluate(a4, (1, 2, 3, 4))
    out.append(_result("a4-parabolic-split", ok, ""))
    c4 = root_system("C4")
    spc = susanfe.special_reflection(c4)
    w_i, rest = weyl.a_decomposition(
        spc.element, weyl.standard_parabolic(c4, spc.parabolic_indices)
    )
    out.append(
        _result("c4-parabolic-split", w_i.is_identity() and rest == spc.element, "")
    )
    return out


def shi_minus_ones(vector) -> set:
    """The positive roots where a Shi vector is -1."""
    return {r for r, c in vector.as_dict().items() if c == -1}


def shi_pattern(name):
    """The Shi vector of SHI_PATTERNS[name] and the roots where it should be -1."""
    label, word, roots = SHI_PATTERNS[name]
    system = root_system(label)
    element = affine.embed_finite(system, weyl.evaluate(system, word))
    return affine.shi_vector(element), {classical_root(system, *r) for r in roots}


def check_shi_patterns():
    out = []
    for name in SHI_PATTERNS:
        vector, want = shi_pattern(name)
        ok = shi_minus_ones(vector) == want and set(vector.coefficients) <= {0, -1}
        out.append(_result(f"shi/{name}", ok, ""))
    return out


def check_affine_level_one_table():
    system = root_system("A2~")
    lam = affine.basic_weight(system)
    out = []
    for word, wbar_word, beta, gamma, value in AFFINE_A2_TABLE:
        element = affine.affine_from_word(system, word)
        ok = (
            element.beta == beta
            and tuple(element.gamma()) == gamma
            and element.fbar == weyl.evaluate(system, wbar_word)
            and affine.affine_atomic_length(element, lam) == value
            and affine.level_one_atomic_length(system, beta) == value
        )
        label = "".join(map(str, word)) or "e"
        out.append(_result(f"affine-a2-row/{label}", ok, f"beta {element.beta}"))
    return out


def check_scaled_inversion_sets():
    a4 = root_system("A4")
    m = SCALED_INVERSION_WEIGHT
    lam = a4.weight(*m)
    out, totals = [], set()
    for n, (word, rows) in enumerate(SCALED_INVERSIONS.items(), 1):
        inv = atomiclen.lambda_inversion_set(a4, word, lam)
        want = [
            tuple(m[k - 1] * c for c in classical_root(a4, "diff", i, j))
            for k, i, j in rows
        ]
        out.append(
            _result(f"scaled-inversions/word-{n}", sorted(inv.vectors()) == sorted(want), "")
        )
        totals.add(inv.total())
    # The words are reduced words of one element, so the sums agree.
    w = weyl.evaluate(a4, next(iter(SCALED_INVERSIONS)))
    diff = tuple((lam - w.act_weight(lam)).root)
    out.append(_result("scaled-inversions/sum", totals == {diff}, ""))
    return out


def check_susanfe_membership():
    out = []
    for label in ("A3", "B3", "C3", "D4", "G2", "F4"):
        system = root_system(label)
        t = weyl.root_reflection(system, system.highest_root)
        out.append(
            _result(
                f"susanfe-highest/{label}", susanfe.susanfe_check(t).is_susanfe, ""
            )
        )
    b4 = root_system("B4")
    t_prime = weyl.evaluate(b4, (1, 2, 3, 4, 3, 2, 1))
    report = susanfe.susanfe_check(t_prime)
    sub = weyl.standard_parabolic(b4, [2, 3, 4])
    out.append(
        _result(
            "susanfe-b4-short",
            report.is_susanfe and set(report.fixed_roots) == set(sub.phi_plus),
            "",
        )
    )
    a4 = root_system("A4")
    e = lambda i, j: classical_root(a4, "diff", i, j)
    t = susanfe.special_reflection(a4).element
    _, rest = weyl.a_decomposition(t, weyl.standard_parabolic(a4, [2, 3, 4]))
    out.append(
        _result(
            "susanfe-a4-outer-part",
            set(rest.inversion_set()) == {e(1, j) for j in range(2, 6)},
            "",
        )
    )
    for label in ("A3", "B3"):
        system = root_system(label)
        t = susanfe.special_reflection(system).element
        sub = weyl.standard_parabolic(system, range(2, system.rank + 1))
        conj = weyl.ReflectionSubgroup(
            system, [t * s * t for s in sub.simple_reflections]
        )
        ok = all(
            susanfe.susanfe_decomposition_check(t, w, sub) for w in conj.elements()
        )
        out.append(_result(f"susanfe-decomposition/{label}", ok, ""))
    a3 = root_system("A3")
    sub = weyl.standard_parabolic(a3, [2, 3])
    ok = all(
        weyl.utopic_check(weyl.root_reflection(a3, alpha), sub)
        for alpha in a3.positive_roots
    )
    out.append(_result("utopic-reflections-a3", ok, ""))
    return out


def check_affine_weight_action():
    a2 = root_system("A2~")
    lam = affine.basic_weight(a2)
    image = affine.weight_reflect(lam, 0)
    ok = (
        image.finite == (1, 1)
        and image.level == 1
        and image.delta_coeff == -1
        and affine.weight_reflect(image, 0) == lam
    )
    return [_result("affine-zero-node-reflection", ok, f"{image}")]


def check_affine_probes():
    out = []
    a2 = root_system("A2~")
    report = affine.affine_image_probe(a2, affine.basic_weight(a2), radius=12)
    out.append(
        _result(
            "affine-probe-a2-gap",
            3 in report.missing and report.attained[:3] == (0, 1, 2),
            f"missing {report.missing}",
        )
    )
    a3 = root_system("A3~")
    report = affine.affine_image_probe(a3, affine.basic_weight(a3), radius=24)
    ok = report.certified_max >= 30 and not [m for m in report.missing if m <= 30]
    out.append(_result("affine-probe-a3-interval", ok, f"certified {report.certified_max}"))
    return out


def check_core_shading():
    out = []
    ok = cores.is_core((3, 1, 1), 3) and not cores.is_core((2, 1), 3)
    out.append(_result("core-membership-small", ok, ""))
    sizes = cores.core_sizes(2, 5)
    out.append(
        _result("three-core-sizes-to-5", set(sizes) == set(THREE_CORE_SIZES), f"{sizes}")
    )
    ok = (
        cores.residue_reflect((), 0, 3) == (1,)
        and cores.residue_reflect((1,), 1, 3) == (2,)
        and cores.residue_reflect((1,), 2, 3) == (1, 1)
    )
    out.append(_result("core-reflect-edges", ok, ""))
    got = cores.core_count_vs_lattice(2, 3)
    out.append(_result("core-vs-lattice-gap", got == (0, 0), f"{got}"))
    sizes = cores.core_sizes(3, 30)
    out.append(
        _result("four-core-full-range", set(sizes) == set(range(31)), "")
    )
    return out


def check_ideal_weights():
    c3 = root_system("C3")
    out = []
    for coords, values in C3_IDEAL_VALUES.items():
        rep = atomiclen.is_ideal(c3, c3.weight(*coords))
        interval = values == tuple(range(len(values)))
        ok = rep.ideal == interval and rep.image is not None and rep.image.values == values
        if interval:
            detail = f"max {rep.image.max_value if rep.image else None}"
        else:
            detail = f"{rep.image.values if rep.image else None}"
        out.append(_result(f"ideal/c3-{''.join(map(str, coords))}", ok, detail))
    return out


def check_minuscule_classification():
    out = []
    for label, nodes in MINUSCULE_NODES.items():
        system = root_system(label)
        got = [
            next(i + 1 for i, c in enumerate(wt.fund) if c)
            for wt in atomiclen.minuscule_weights(system)
        ]
        out.append(_result(f"minuscule/{label}", got == list(nodes), f"{got}"))
    for label in ("A3", "B3", "C3", "D4"):
        system = root_system(label)
        ok = all(
            atomiclen.is_ideal(system, wt).ideal
            for wt in atomiclen.minuscule_weights(system)
        )
        out.append(_result(f"minuscule-ideal/{label}", ok, ""))
    return out


def check_entropy_bridges():
    out = []
    w0 = perms.longest_permutation(4)
    out.append(_result("invsum-w0-s4", perms.invsum(w0) == 10, str(perms.invsum(w0))))
    ok = True
    for n in range(1, 7):
        cw0 = perms.cosine(perms.longest_permutation(n))
        for w in permutations(range(1, n + 1)):
            if perms.entropy(w) != 2 * perms.invsum(w):
                ok = False
            if perms.cosine(w) != cw0 + perms.ninvsum(w):
                ok = False
            if perms.invsum(w) + perms.ninvsum(w) != n * (n + 1) * (n - 1) // 6:
                ok = False
    out.append(_result("entropy-identities-n<=6", ok, ""))
    probe = perms.cosine_range_probe(8, 30)
    out.append(
        _result(
            "cosine-probe-16-absent",
            16 in probe["missing"],
            f"missing {probe['missing']}",
        )
    )
    out.append(
        _result(
            "invsum-bridges-s4",
            all(
                perms.invsum(w) == atomiclen.atomic_length(perms.to_weyl(w))
                for w in permutations(range(1, 5))
            )
            and atomiclen.atomic_length(perms.to_weyl((2, 3, 1))) == 3,
            "",
        )
    )
    out.append(
        _result(
            "permutohedron-distance-w0",
            perms.permutohedron_distance_sq((4, 3, 2, 1), (1, 2, 3, 4)) == 20,
            "",
        )
    )
    return out


def check_simply_laced_symmetry():
    out = []
    for label in ("A4", "D4"):
        system = root_system(label)
        ok = all(
            atomiclen.atomic_length(w) == atomiclen.atomic_length(w.inverse())
            for w in weyl.enumerate_group(system)
        )
        out.append(_result(f"symmetry/{label}", ok, ""))
    g2 = root_system("G2")
    w = weyl.evaluate(g2, (2, 1))
    vals = (atomiclen.atomic_length(w), atomiclen.atomic_length(w.inverse()))
    out.append(_result("symmetry/g2-counterexample", vals == (3, 5), f"{vals}"))
    d4 = root_system("D4")
    w = weyl.evaluate(d4, (4, 1, 2, 3, 1, 2, 1))
    vals = (atomiclen.atomic_length(w), atomiclen.atomic_length(w.inverse()))
    out.append(_result("symmetry/d4-example-15", vals == (15, 15), f"{vals}"))
    return out


def check_surjectivity_reconstruction():
    out = []
    for label in ("A3", "A4", "A5", "B3", "B4", "C3", "C4", "D4", "D5"):
        system = root_system(label)
        rec = susanfe.surjectivity_susanfe_induction(system)
        direct = atomiclen.image_set(system, system.rho)
        out.append(
            _result(
                f"reconstruction/{label}",
                rec.values == direct.values,
                f"max {rec.max_value}",
            )
        )
    return out


CHECK_GROUPS = [
    ("cartan-basics", check_cartan_basics),
    ("rank2-image-sets", check_rank2_image_sets),
    ("longest-element-values", check_longest_element_values),
    ("inversion-tables", check_inversion_tables),
    ("reflection-subgroup", check_reflection_subgroup_example),
    ("special-reflections", check_special_reflections),
    ("scaled-inversion-sets", check_scaled_inversion_sets),
    ("susanfe-membership", check_susanfe_membership),
    ("shi-patterns", check_shi_patterns),
    ("affine-level-one-table", check_affine_level_one_table),
    ("affine-weight-action", check_affine_weight_action),
    ("affine-probes", check_affine_probes),
    ("core-shading", check_core_shading),
    ("ideal-weights", check_ideal_weights),
    ("minuscule-classification", check_minuscule_classification),
    ("entropy-bridges", check_entropy_bridges),
    ("simply-laced-symmetry", check_simply_laced_symmetry),
    ("surjectivity-reconstruction", check_surjectivity_reconstruction),
]


def run_all():
    """Yield (label, ok, detail) for every fixture check."""
    for _, func in CHECK_GROUPS:
        yield from func()
