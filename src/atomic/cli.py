"""Command-line front end.

Subcommands: image, w0, susanfe, shi, affine, cores, entropy, verify.
Usage errors exit 2 (argparse default); computation-cap errors exit 3 with a
structured message; verify exits 1 when any fixture fails.  A failed
internal invariant is a defect, not bad input, and is raised with its
traceback.  All outputs are deterministic for a fixed invocation.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import affine, atomiclen, cores, fixtures, perms, susanfe
from .errors import (
    AtomicError,
    InvariantViolation,
    OrbitTooLarge,
    RadiusTooLarge,
    SizeTooLarge,
    SubgroupTooLarge,
)
from .rootdata import root_system

# entropy writes n! rows: 3,628,800 at the cap, 39.9M at n = 11.
ENTROPY_N_CAP = 10


def _parse_weight(text: str):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad weight coordinates {text!r}")


def _positive_int(text: str):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{text} is below 1")
    return n


def _parse_word(text: str):
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad word {text!r}")


def _emit(args, payload: dict, text_lines):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_image(args):
    system = root_system(args.type)
    lam = system.weight(*args.weight) if args.weight else system.rho
    report = atomiclen.image_set(system, lam, cap=args.cap)
    payload = {
        "type": str(system.label),
        "weight": [str(c) for c in lam.fund],
        **report.as_dict(),
    }
    _emit(
        args,
        payload,
        [
            f"type {system.label}, weight {lam.fund}",
            f"orbit size {report.orbit_size}",
            f"max {report.max_value}",
            f"values {list(report.values)}",
            f"missing {list(report.missing)}",
        ],
    )
    return 0


def cmd_w0(args):
    system = root_system(args.type)
    lam = system.weight(*args.weight) if args.weight else system.rho
    value = atomiclen.atomic_length_w0(system, lam)
    _emit(
        args,
        {"type": str(system.label), "w0_value": value},
        [str(value)],
    )
    return 0


def cmd_susanfe(args):
    system = root_system(args.type)
    reflections = []
    lines = [f"Susanfe reflections in {system.label}:"]
    for root, element, total, restricted in susanfe.list_susanfe_reflections(system):
        word = element.reduced_word()
        reflections.append(
            {
                "root": list(root),
                "word": list(word),
                "matrix": [list(col) for col in element.cols],
                "atomic_length": total,
                "restricted": restricted,
            }
        )
        lines.append(
            f"  root {root}  word [{','.join(map(str, word))}]  "
            f"L(t) = {total}  L(t, I) = {restricted}"
        )
    _emit(args, {"type": str(system.label), "reflections": reflections}, lines)
    return 0


def cmd_shi(args):
    system = root_system(args.type)
    if not system.label.affine:
        system = root_system(str(system.label) + "~")
    element = affine.affine_from_word(system, args.word)
    vector = affine.shi_vector(element)
    rows = vector.pyramid_rows()
    payload = {
        "type": str(system.label),
        "word": list(args.word),
        "coefficients": list(vector.coefficients),
        "pyramid": rows,
        "admissible": vector.is_admissible(),
    }
    width = max(len(str(c)) for row in rows for c in row) + 1
    lines = []
    for row in reversed(rows):  # highest roots on top, like the pyramid
        pad = " " * ((len(rows[0]) - len(row)) * (width + 1) // 2)
        lines.append(pad + " ".join(str(c).rjust(width) for c in row))
    _emit(args, payload, lines)
    return 0


def cmd_affine(args):
    system = root_system(args.type)
    lam = affine.affine_weight(system, args.weight)
    report = affine.affine_image_probe(system, lam, args.radius)
    payload = {"type": str(system.label), "weight": list(args.weight), **report.as_dict()}
    _emit(
        args,
        payload,
        [
            f"type {system.label}, weight {tuple(args.weight)}, |beta|^2 <= {args.radius}",
            f"certified range [0, {report.certified_max}] over {report.searched} elements",
            f"attained {list(report.attained)}",
            f"missing {list(report.missing)}",
        ],
    )
    return 0


def cmd_cores(args):
    # the listing names every missing size in 0..--max, whatever the walk
    # visits, so both routes take the size cap of the count
    if args.max > cores.CORE_SIZE_CAP:
        raise SizeTooLarge(f"--max {args.max} is above the cap {cores.CORE_SIZE_CAP}")
    if args.count_only:
        sizes = cores.core_sizes(args.n, args.max)
    else:
        listing = cores.orbit_cores(args.n, args.max)
        sizes = {k: len(group) for k, group in listing.items()}
    payload = {"n": args.n, "sizes": {str(k): v for k, v in sizes.items()}}
    if args.count_only:
        lines = [f"{k}: {v}" for k, v in sizes.items()]
    else:
        payload["cores"] = {
            str(k): [list(p) for p in v] for k, v in listing.items()
        }
        lines = []
        for k, group in listing.items():
            lines.append(f"size {k} ({len(group)}):")
            for p in group:
                lines.append(f"  {p}")
    missing = [k for k in range(args.max + 1) if k not in sizes]
    payload["missing"] = missing
    lines.append(f"missing sizes: {missing}")
    _emit(args, payload, lines)
    return 0


def cmd_entropy(args):
    if args.n > ENTROPY_N_CAP:
        raise SizeTooLarge(f"--n {args.n} is above the cap {ENTROPY_N_CAP}")
    writer = csv.writer(sys.stdout)
    writer.writerow(
        ["one_line", "length", "invsum", "ninvsum", "entropy", "cosine"]
    )
    for w, row in perms.statistics_table(args.n):
        writer.writerow(["".join(map(str, w)), *row])
    return 0


def cmd_verify(args):
    failures = 0
    results = []
    for label, ok, detail in fixtures.run_all():
        results.append({"check": label, "ok": ok, "detail": detail})
        if not ok:
            failures += 1
        if not args.json:
            status = "PASS" if ok else "FAIL"
            extra = f"  {detail}" if (detail and not ok) else ""
            print(f"{status}  {label}{extra}")
    if args.json:
        print(json.dumps({"failures": failures, "results": results}))
    else:
        print(f"{len(results) - failures}/{len(results)} checks passed")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atomic",
        description="Atomic length computations on finite and affine Weyl groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("image", help="value set of the weight-deformed length")
    p.add_argument("--type", required=True)
    p.add_argument("--weight", type=_parse_weight, default=None,
                   help="fundamental coordinates m_1,..,m_n (default: all ones)")
    p.add_argument("--cap", type=int, default=atomiclen.ORBIT_CAP)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_image)

    p = sub.add_parser("w0", help="maximal atomic length")
    p.add_argument("--type", required=True)
    p.add_argument("--weight", type=_parse_weight, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_w0)

    p = sub.add_parser("susanfe", help="list Susanfe reflections")
    p.add_argument("--type", required=True)
    p.add_argument("--list", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_susanfe)

    p = sub.add_parser("shi", help="Shi vector of an affine word")
    p.add_argument("--type", required=True)
    p.add_argument("--word", type=_parse_word, default=())
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_shi)

    p = sub.add_parser("affine", help="certified affine value probe")
    p.add_argument("--type", required=True)
    p.add_argument("--weight", type=_parse_weight, required=True,
                   help="affine coordinates m_0,m_1,..,m_n")
    p.add_argument("--radius", type=int, default=12,
                   help="bound on |beta|^2 over the translation lattice")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_affine)

    p = sub.add_parser("cores", help="enumerate cores by size")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cores)

    p = sub.add_parser("entropy", help="CSV of permutation statistics")
    p.add_argument("--n", type=_positive_int, required=True)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("verify", help="run the pinned fixture suite")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OrbitTooLarge, RadiusTooLarge, SizeTooLarge, SubgroupTooLarge) as exc:
        print(f"error: computation cap exceeded: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation:
        raise  # a defect in the program, not a usage error: keep the traceback
    except AtomicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
