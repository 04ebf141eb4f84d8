"""Show that every output check of the benchmark rejects a perturbed output.

    python3 benchmarks/selftest.py [workload ...]

Runs each job of each named workload (default: all) once, confirms that its
check accepts the real output, then perturbs up to SAMPLES leaves of the
checked data, one at a time (an integer is bumped by one, a flag flipped, a
digit of a text changed), and confirms that the check raises CheckFailed for
every one.  A job with a known fault is checked on synthetic exit codes
instead.  Exits 1 if any perturbation is accepted.
"""

from __future__ import annotations

import copy
import random
import sys

from harness import ROOT, import_atomic
from oracles import CheckFailed
from tracing import NullTracer
from workloads import WORKLOADS

SAMPLES = 25
# Digest entries that are inputs to the oracle (the program's own element
# data), not answers, so perturbing them is not a wrong answer.
INPUT_KEYS = {"beta"}


def leaves(data, path=()):
    if isinstance(data, dict):
        for k, v in data.items():
            if k not in INPUT_KEYS:
                yield from leaves(v, path + (k,))
    elif isinstance(data, (list, tuple)):
        for i, v in enumerate(data):
            yield from leaves(v, path + (i,))
    elif isinstance(data, (bool, int, str)):
        yield path, data


def replaced(data, path, value):
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(data, tuple):
        return data[:head] + (replaced(data[head], rest, value),) + data[head + 1:]
    out = copy.copy(data)
    out[head] = replaced(data[head], rest, value)
    return out


def perturbations(plain):
    found = list(leaves(plain))
    for path, value in found[:: max(1, len(found) // SAMPLES)][:SAMPLES]:
        if isinstance(value, bool):
            yield replaced(plain, path, not value)
        elif isinstance(value, int):
            yield replaced(plain, path, value + 1)
        else:
            digits = [i for i, ch in enumerate(value) if ch.isdigit()]
            for i in digits[:: max(1, len(digits) // SAMPLES)][:SAMPLES]:
                bumped = str((int(value[i]) + 1) % 10)
                yield replaced(plain, path, value[:i] + bumped + value[i + 1:])


def rejects(check, plain) -> bool:
    try:
        check(plain)
    except CheckFailed:
        return True
    return False


def main(names) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    modules = import_atomic()
    bad = 0
    for name in names:
        workload = WORKLOADS[name]
        ctx = workload.setup(modules, workload.params(random.Random(0)))
        for job in workload.jobs(modules, ctx):
            plain = job.digest(job.call(NullTracer()))
            if job.fault is not None:
                ok = rejects(job.check, [0]) and not rejects(job.check, [2])
                status = "known fault; checker " + ("separates exit 0 from exit 2"
                                                    if ok else "BROKEN")
            elif rejects(job.check, plain):
                ok, status = False, "REJECTS THE REAL OUTPUT"
            else:
                tries = list(perturbations(plain))
                caught = sum(rejects(job.check, p) for p in tries)
                ok = tries and caught == len(tries)
                status = f"{caught}/{len(tries)} perturbed outputs rejected"
            bad += not ok
            print(f"{'ok ' if ok else 'BAD'} {name}: {job.name}: {status}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or list(WORKLOADS)))
