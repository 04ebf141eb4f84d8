"""The benchmark's workloads: fixed job lists, their set-up and their checks.

A workload is a list of jobs.  One round runs every job once, in an order
drawn from the seed.  Each job times one call (or one batch of calls) into a
layer of `atomic`, turns the result into plain data outside the timed
region, and checks that data against `oracles`.  The seed also picks the
inputs that vary between runs at equal cost: three extra regular C3 weights
in `finite-orbit` and the level-one weight of the probe in `group-affine`.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from typing import Any, Callable

import oracles as o
from oracles import expect


@dataclass
class Job:
    name: str
    call: Callable[[Any], Any]  # tracer -> raw program output (timed)
    digest: Callable[[Any], Any]  # raw -> plain data (untimed)
    check: Callable[[Any], None]  # raises oracles.CheckFailed
    tally: Callable[[Any], dict] = field(default=lambda plain: {})
    # A known fault: a failed check counts as a failed operation, not as a
    # wrong answer.
    fault: str | None = None


def _spec(label):
    return label.family, label.rank


# -- shared job builders -------------------------------------------------------


def cli_job(m, argv, digest, check, fault=None):
    """Run `atomic <argv>` in-process; the raw output is (exit code, stdout)."""
    span = f"cli.{argv[0]}"

    def call(tr):
        out = io.StringIO()
        with tr.span(span), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = m.cli.main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
        return rc, out.getvalue()

    return Job("atomic " + " ".join(argv), call, digest, check, fault=fault)


def json_digest(raw):
    rc, text = raw
    return rc, json.loads(text) if rc == 0 else None


def image_digest(report):
    return {
        "orbit_size": report.orbit_size,
        "max": report.max_value,
        "values": list(report.values),
        "missing": list(report.missing),
    }


# -- finite-orbit ----------------------------------------------------------------

RHO_TYPES = ("A3", "A4", "A5", "A6", "B3", "B4", "B5", "B6", "C3", "C4", "C5",
             "D4", "D5", "D6", "D7", "F4", "E6")
MINUSCULE_TYPES = ("A3", "A4", "A5", "A6", "B3", "B4", "B5", "B6", "C3", "C4",
                   "C5", "D4", "D5", "D6", "D7", "E6", "E7")
C3_FIXED_WEIGHTS = ((2, 1, 1), (1, 2, 1), (1, 1, 2))
# tracemalloc slows the orbit walk twenty-fold or more, so the traced run
# takes the allocation peak on this job rather than on the E7 orbit.
ALLOC_PROBE = "image_set E6 rho"


def finite_orbit_params(rng):
    drawn = []
    while len(drawn) < 3:
        w = tuple(rng.randint(1, 3) for _ in range(3))
        if 1 in w and w not in drawn and w not in C3_FIXED_WEIGHTS:
            drawn.append(w)
    return {"c3_weights": C3_FIXED_WEIGHTS + tuple(drawn)}


def finite_orbit_setup(m, params):
    rs = m.rootdata.root_system
    systems = {spec: rs(spec) for spec in ("E7",) + RHO_TYPES + MINUSCULE_TYPES}
    c3 = systems["C3"]
    return {
        "rho": {spec: s.rho for spec, s in systems.items()},
        "c3": c3,
        "c3_weights": [c3.weight(*w) for w in params["c3_weights"]],
        "minuscule": {spec: m.atomiclen.minuscule_weights(systems[spec])
                      for spec in MINUSCULE_TYPES},
        "systems": systems,
    }


def finite_orbit_jobs(m, ctx):
    jobs = []
    for spec in ("E7",) + RHO_TYPES:
        system, lam = ctx["systems"][spec], ctx["rho"][spec]
        family, n = _spec(system.label)
        order, top = o.group_order(family, n), o.rho_top(family, n)

        def call(tr, system=system, lam=lam):
            with tr.span("atomiclen.image_set"):
                return m.atomiclen.image_set(system, lam, histogram=True)

        def digest(r):
            return {**image_digest(r), "histogram": dict(r.histogram)}

        def check(d, order=order, top=top):
            expect(d["orbit_size"] == order, "orbit size != product of degrees")
            expect(d["max"] == top, "max != sum C(d_i, 2)")
            o.check_rho_histogram(d["histogram"], order, top)
            expect(d["values"] == sorted(d["histogram"]), "values != histogram support")
            expect(d["missing"] == [], "missing values for rho in rank >= 3")

        jobs.append(Job(f"image_set {spec} rho", call, digest, check,
                        lambda d: {"atomiclen.image_set.states": d["orbit_size"]}))

    c3 = ctx["c3"]
    for lam in ctx["c3_weights"]:
        fund = tuple(int(c) for c in lam.fund)
        values = o.c3_values(fund)
        top = 5 * fund[0] + 8 * fund[1] + 9 * fund[2]
        expect(max(values) == top, "C3 oracle disagrees with 2<lambda, rho^vee>")

        def call(tr, lam=lam):
            with tr.span("atomiclen.is_ideal"):
                return m.atomiclen.is_ideal(c3, lam)

        def digest(r):
            return {"ideal": r.ideal, **image_digest(r.image)}

        def check(d, values=sorted(values), top=top):
            expect(d["orbit_size"] == o.group_order("C", 3), "C3 regular orbit size")
            expect(d["max"] == top, "max != 2<lambda, rho^vee>")
            expect(d["values"] == values, "values != signed-permutation oracle")
            expect(d["missing"] == [v for v in range(top + 1) if v not in values],
                   "missing != complement of the oracle values")
            expect(d["ideal"] is (not d["missing"]), "ideal flag != full interval")

        jobs.append(Job(f"is_ideal C3 {fund}", call, digest, check))

    for spec in MINUSCULE_TYPES:
        system, weights = ctx["systems"][spec], ctx["minuscule"][spec]
        table = o.minuscule_table(*_spec(system.label))

        def call(tr, system=system, weights=weights):
            with tr.span("atomiclen.is_ideal"):
                return [m.atomiclen.is_ideal(system, lam) for lam in weights]

        def digest(reports, weights=weights):
            return [
                {"node": next(i + 1 for i, c in enumerate(lam.fund) if c),
                 "ideal": r.ideal, **image_digest(r.image)}
                for lam, r in zip(weights, reports)
            ]

        def check(rows, table=table):
            expect([r["node"] for r in rows] == sorted(table), "minuscule nodes")
            for r in rows:
                dim, top = table[r["node"]]
                expect(r["orbit_size"] == dim, "orbit size != representation dimension")
                expect(r["max"] == top, "max != 2<omega, rho^vee>")
                # coordinates in {-1, 0, 1}: every step changes the value by one
                expect(r["values"] == list(range(top + 1)) and r["missing"] == [],
                       "minuscule values do not fill [0, max]")
                expect(r["ideal"] is True, "minuscule weight not ideal")

        jobs.append(Job(f"is_ideal minuscule {spec}", call, digest, check))

    c3_values = sorted(o.c3_values((1, 2, 1)))

    def check_cli_c3(d):
        rc, payload = d
        expect(rc == 0, "exit code")
        expect(payload["type"] == "C3" and payload["weight"] == ["1", "2", "1"],
               "type and weight")
        expect(payload["orbit_size"] == o.group_order("C", 3), "orbit size")
        expect(payload["max"] == 30 and payload["values"] == c3_values,
               "values != signed-permutation oracle")
        expect(payload["missing"] == [v for v in range(31) if v not in c3_values],
               "missing values")

    jobs.append(cli_job(m, ("image", "--type", "C3", "--weight", "1,2,1", "--json"),
                        json_digest, check_cli_c3))

    def check_affine_refused(d):
        expect(d[0] == 2, f"exit {d[0]}: an affine label is not refused as a usage error")

    jobs.append(cli_job(m, ("image", "--type", "A2~"), lambda raw: [raw[0]],
                        check_affine_refused,
                        fault="image_set accepts an affine label and answers for "
                              "the finite type"))
    return jobs


# -- group-affine ----------------------------------------------------------------

GROUP_TYPES = ("A5", "B4", "D5", "F4")
WORD_TREES = (("A2~", 7), ("C2~", 6), ("A3~", 5))
PROBE_RADIUS = 20
W0_TYPES = ("D16", "E8")


def group_affine_params(rng):
    return {"probe_node": rng.randint(1, 3)}


def group_affine_setup(m, params):
    rs, aff = m.rootdata.root_system, m.affine
    trees = {}
    for label, _ in WORD_TREES:
        s = rs(label)
        trees[label] = (
            aff.affine_identity(s),
            [aff.affine_generator(s, i) for i in range(s.rank + 1)],
            aff.basic_weight(s),
        )
    a3 = rs("A3~")
    coords = [0] * 4
    coords[params["probe_node"]] = 1
    return {
        "groups": {spec: rs(spec) for spec in GROUP_TYPES},
        "trees": trees,
        "probe": (a3, aff.affine_weight(a3, coords), params["probe_node"]),
        "w0": {spec: (rs(spec), rs(spec).rho) for spec in W0_TYPES},
        "a10": rs("A10"),
        "d8": rs("D8"),
    }


def group_affine_jobs(m, ctx):
    jobs = []
    for spec, system in ctx["groups"].items():
        order = o.group_order(*_spec(system.label))

        def call(tr, system=system):
            with tr.span("weyl.enumerate_group"):
                return m.weyl.enumerate_group(system)

        jobs.append(Job(
            f"enumerate_group {spec}", call,
            lambda elements: [len(elements)],
            lambda d, order=order: expect(d == [order], "|W| != product of degrees"),
            lambda d: {"weyl.enumerate_group.elements": d[0]},
        ))

    for label, depth in WORD_TREES:
        identity, gens, lam = ctx["trees"][label]
        words = (len(gens) ** (depth + 1) - 1) // (len(gens) - 1)

        def call(tr, identity=identity, gens=gens, lam=lam, depth=depth):
            # every word of length <= depth, extended one letter at a time
            with tr.span("affine.AffineElement.mul"):
                elements = [identity]
                frontier = [identity]
                for _ in range(depth):
                    frontier = [w * g for w in frontier for g in gens]
                    elements += frontier
            with tr.span("affine.affine_atomic_length"):
                values = [m.affine.affine_atomic_length(w, lam) for w in elements]
            return elements, values

        def digest(raw):
            elements, values = raw
            return {"beta": [w.beta for w in elements], "values": values}

        def check(d, label=label, words=words):
            expect(len(d["values"]) == words == len(d["beta"]), "word count")
            expect(all(v == o.level_one_value(label, b)
                       for b, v in zip(d["beta"], d["values"])),
                   "L(w, Lambda0) != (h^vee/2)|beta|^2 - ht(beta)")

        def tally(d):
            n = len(d["values"])
            return {"affine.affine_atomic_length.calls": n,
                    "affine.AffineElement.mul.calls": n - 1}

        jobs.append(Job(f"dual path {label} depth {depth}", call, digest, check, tally))

    a3, lam, node = ctx["probe"]
    counts4 = o.core_counts(4, 4 * PROBE_RADIUS)
    ball = o.ball_size("A3~", PROBE_RADIUS)

    def call_probe(tr):
        with tr.span("affine.affine_image_probe"):
            return m.affine.affine_image_probe(a3, lam, PROBE_RADIUS)

    def check_probe(d):
        # a diagram rotation of A3~ carries Lambda0 to Lambda_i and fixes
        # rho^vee, so the values are the 4-core sizes, as for Lambda0
        o.check_level_one_probe(d["certified_max"], d["attained"], d["missing"], counts4)
        expect(d["searched"] == 24 * ball, "searched != |W(A3)| x ball size")
        expect(d["norm_bound"] == str(PROBE_RADIUS), "radius")

    jobs.append(Job(f"affine_image_probe A3~ Lambda_{node} r={PROBE_RADIUS}", call_probe,
                    lambda r: r.as_dict(), check_probe,
                    lambda d: {"affine.affine_image_probe.searched": d["searched"]}))

    for spec, (system, rho) in ctx["w0"].items():
        family, n = _spec(system.label)
        want = o.w0_value_from_roots(family, n)
        expect(want == o.rho_top(family, n), "w0 oracles disagree")

        def call(tr, system=system, rho=rho):
            with tr.span("atomiclen.atomic_length_w0"):
                return m.atomiclen.atomic_length_w0(system, rho)

        jobs.append(Job(f"atomic_length_w0 {spec}", call, lambda v: [v],
                        lambda d, want=want: expect(d == [want], "w0 value != sum ht")))

    a10_rows = o.susanfe_rows("A", 10)

    def call_susanfe(tr):
        with tr.span("susanfe.list_susanfe_reflections"):
            return m.susanfe.list_susanfe_reflections(ctx["a10"])

    def check_susanfe(d):
        got = {tuple(root): (total, restricted, cols) for root, total, restricted, cols in d}
        want = {root: row[:3] for root, row in a10_rows.items()}
        expect(got == want and len(d) == len(want), "Susanfe reflections")

    jobs.append(Job(
        "list_susanfe_reflections A10", call_susanfe,
        lambda rows: sorted([list(r[0]), r[2], r[3], [list(c) for c in r[1].cols]]
                            for r in rows),
        check_susanfe,
    ))

    d8_top = o.rho_top("D", 8)

    def call_induction(tr):
        with tr.span("susanfe.surjectivity_susanfe_induction"):
            return m.susanfe.surjectivity_susanfe_induction(ctx["d8"])

    def check_induction(d):
        # the direct image of rho in rank >= 3 is the interval [0, sum C(d,2)]
        expect(d["max"] == d8_top, "max != sum C(d_i, 2)")
        expect(d["values"] == list(range(d8_top + 1)) and d["missing"] == [],
               "induction values != direct image")

    jobs.append(Job("surjectivity_susanfe_induction D8", call_induction,
                    lambda r: {k: v for k, v in image_digest(r).items()
                               if k != "orbit_size"},
                    check_induction))

    def verify_digest(raw):
        rc, text = raw
        lines = text.strip().splitlines()
        passed, total = lines[-1].split()[0].split("/")
        return [rc, sum(line.startswith("FAIL") for line in lines),
                int(passed), int(total)]

    def check_verify(d):
        rc, fails, passed, total = d
        expect(rc == 0 and fails == 0 and passed == total > 0, "verify failed")

    jobs.append(cli_job(m, ("verify",), verify_digest, check_verify))

    b4_rows = o.susanfe_rows("B", 4)

    def check_cli_susanfe(d):
        rc, payload = d
        expect(rc == 0, "exit code")
        expect(payload["type"] == "B4", "type")
        got = {}
        for r in payload["reflections"]:
            got[tuple(r["root"])] = (r["atomic_length"], r["restricted"], r["matrix"],
                                     len(r["word"]))
            expect(o.word_columns("B", 4, r["word"]) == r["matrix"],
                   "word does not evaluate to the listed matrix")
        expect(got == b4_rows and len(payload["reflections"]) == len(b4_rows),
               "Susanfe reflections")

    jobs.append(cli_job(m, ("susanfe", "--type", "B4", "--list", "--json"),
                        json_digest, check_cli_susanfe))

    pyramid = o.shi_pyramid_of_reflection(4, 1, 5)

    def check_shi(d):
        rc, payload = d
        expect(rc == 0, "exit code")
        expect(payload["type"] == "A4~" and payload["word"] == [1, 2, 3, 4, 3, 2, 1],
               "type and word")
        expect(payload["pyramid"] == pyramid, "Shi pyramid != inversion pattern")
        expect(sorted(payload["coefficients"]) == sorted(sum(pyramid, [])),
               "Shi coefficients != pyramid entries")
        expect(payload["admissible"] is True, "Shi vector not admissible")

    jobs.append(cli_job(m, ("shi", "--type", "A4", "--word", "1,2,3,4,3,2,1", "--json"),
                        json_digest, check_shi))

    def check_entropy(d):
        rc, text = d
        expect(rc == 0, "exit code")
        o.check_entropy_csv(text, 7)

    jobs.append(cli_job(m, ("entropy", "--n", "7"), list, check_entropy))
    return jobs


# -- cores-lattice ---------------------------------------------------------------

CORE_SIZES = ((4, 200), (5, 160), (6, 140), (7, 120))  # (t, largest size)
LATTICE_MAX = 60
LEVEL_ONE_RADIUS = 120
DEPTH_MAX = 80
CLI_CORES_MAX = 60
CLI_AFFINE_RADIUS = 24


def cores_lattice_params(rng):
    return {}


def cores_lattice_setup(m, params):
    rs = m.rootdata.root_system
    systems = {n: rs(f"A{n}~") for n in range(1, 5)}
    return {"a3": systems[3], "lambda0": m.affine.basic_weight(systems[3])}


def cores_lattice_jobs(m, ctx):
    jobs = []
    for t, size in CORE_SIZES:
        want = o.nonzero(o.core_counts(t, size))

        def call(tr, t=t, size=size):
            with tr.span("cores.core_sizes"):
                return m.cores.core_sizes(t - 1, size)

        jobs.append(Job(
            f"core_sizes t={t} <= {size}", call, dict,
            lambda d, want=want: expect(d == want, "core counts != generating function"),
            lambda d: {"cores.core_sizes.cores": sum(d.values())},
        ))

    for n in range(1, 5):
        want = o.nonzero(o.core_counts(n + 1, LATTICE_MAX))

        def call(tr, n=n):
            with tr.span("cores.lattice_value_histogram"):
                return m.cores.lattice_value_histogram(n, LATTICE_MAX)

        jobs.append(Job(
            f"lattice_value_histogram A{n}~ <= {LATTICE_MAX}", call, dict,
            lambda d, want=want: expect(d == want, "lattice counts != core counts"),
            lambda d: {"cores.lattice_value_histogram.points": sum(d.values())},
        ))

    a3, lam0 = ctx["a3"], ctx["lambda0"]
    counts4 = o.core_counts(4, 4 * LEVEL_ONE_RADIUS)
    ball = o.ball_size("A3~", LEVEL_ONE_RADIUS)

    def call_probe(tr):
        with tr.span("affine.affine_image_probe"):
            return m.affine.affine_image_probe(a3, lam0, LEVEL_ONE_RADIUS)

    def check_probe(d):
        o.check_level_one_probe(d["certified_max"], d["attained"], d["missing"], counts4)
        expect(d["searched"] == ball, "searched != ball size")
        expect(d["norm_bound"] == str(LEVEL_ONE_RADIUS), "radius")

    jobs.append(Job(f"affine_image_probe A3~ Lambda0 r={LEVEL_ONE_RADIUS}", call_probe,
                    lambda r: r.as_dict(), check_probe,
                    lambda d: {"affine.affine_image_probe.searched": d["searched"]}))

    depth_want = o.nonzero(o.core_counts(4, DEPTH_MAX))

    def call_depth(tr):
        with tr.span("affine.orbit_depth_histogram"):
            return m.affine.orbit_depth_histogram(a3, lam0, DEPTH_MAX)

    jobs.append(Job(
        f"orbit_depth_histogram A3~ <= {DEPTH_MAX}", call_depth, dict,
        lambda d: expect(d == depth_want, "orbit depths != 4-core counts"),
        lambda d: {"affine.orbit_depth_histogram.states": sum(d.values())},
    ))

    counts3 = o.core_counts(3, max(CLI_CORES_MAX, 3 * CLI_AFFINE_RADIUS))

    def check_cli_cores(d):
        rc, payload = d
        expect(rc == 0 and payload["n"] == 2, "exit code and n")
        expect(payload["sizes"] == {str(k): c for k, c in
                                    o.nonzero(counts3[:CLI_CORES_MAX + 1]).items()},
               "3-core counts != generating function")
        expect(payload["missing"] == [k for k in range(CLI_CORES_MAX + 1)
                                      if not counts3[k]], "missing sizes")

    jobs.append(cli_job(m, ("cores", "--n", "2", "--max", str(CLI_CORES_MAX),
                            "--count-only", "--json"), json_digest, check_cli_cores))

    a2_ball = o.ball_size("A2~", CLI_AFFINE_RADIUS)

    def check_cli_affine(d):
        rc, p = d
        expect(rc == 0, "exit code")
        expect(p["type"] == "A2~" and p["weight"] == [1, 0, 0]
               and p["norm_bound"] == str(CLI_AFFINE_RADIUS), "type, weight and radius")
        o.check_level_one_probe(p["certified_max"], p["attained"], p["missing"], counts3)
        expect(p["searched"] == a2_ball, "searched != ball size")

    jobs.append(cli_job(m, ("affine", "--type", "A2~", "--weight", "1,0,0", "--radius",
                            str(CLI_AFFINE_RADIUS), "--json"),
                        json_digest, check_cli_affine))
    return jobs


@dataclass(frozen=True)
class Workload:
    params: Callable  # rng -> inputs drawn from the seed
    setup: Callable  # (modules, params) -> context; timed as setup_s
    jobs: Callable  # (modules, context) -> [Job]; oracles run here, untimed


WORKLOADS = {
    "finite-orbit": Workload(finite_orbit_params, finite_orbit_setup, finite_orbit_jobs),
    "group-affine": Workload(group_affine_params, group_affine_setup, group_affine_jobs),
    "cores-lattice": Workload(cores_lattice_params, cores_lattice_setup, cores_lattice_jobs),
}
