"""One measured run of one workload, in this process (see run.py).

Set-up (importing `atomic` and building the workload's root systems, weights
and generators) is repeated SETUP_REPEATS times from a clean import and its
median is `setup_s`.  Then rounds run until the next one would end past
`--seconds` (at least MIN_ROUNDS of them); each round runs every job once in
an order drawn from the seed, after a full garbage collection.  `round_s` is
the median round, summed over the timed calls only; digests and checks are
untimed.  With `--trace 1`, traced and untraced rounds alternate, the
per-layer figures are medians over the traced rounds, and the tracing
overhead compares the two kinds.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import tracemalloc
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from oracles import CheckFailed
from tracing import NullTracer, Tracer
from workloads import ALLOC_PROBE, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"
SETUP_REPEATS = 11
MIN_ROUNDS = 3
LAYERS = ("rootdata", "weyl", "atomiclen", "susanfe", "affine", "cores", "cli")


def import_atomic():
    for name in [n for n in sys.modules if n == "atomic" or n.startswith("atomic.")]:
        del sys.modules[name]
    importlib.import_module("atomic")
    return SimpleNamespace(**{
        layer: importlib.import_module(f"atomic.{layer}") for layer in LAYERS
    })


def set_up(workload, params):
    """Median import and build times over SETUP_REPEATS clean imports."""
    import_s, build_s = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = perf_counter()
        modules = import_atomic()
        t1 = perf_counter()
        ctx = workload.setup(modules, params)
        t2 = perf_counter()
        import_s.append(t1 - t0)
        build_s.append(t2 - t1)
    totals = [a + b for a, b in zip(import_s, build_s)]
    return modules, ctx, {
        "setup_s": statistics.median(totals),
        "import.busy_s": statistics.median(import_s),
        "rootdata.RootSystem.busy_s": statistics.median(build_s),
    }


def run_round(jobs, tr, outcome, log):
    """Run each job once; return the summed time of the timed calls."""
    total = 0.0
    for job in jobs:
        outcome["attempted"] += 1
        t0 = perf_counter()
        try:
            with tr.span("bench.job"):
                raw = job.call(tr)
        except Exception:  # a program error fails this operation only
            outcome["failed"] += 1
            log(f"{job.name}: raised\n{traceback.format_exc()}")
            continue
        total += perf_counter() - t0
        plain = job.digest(raw)
        try:
            job.check(plain)
        except CheckFailed as exc:
            outcome["failed"] += 1
            if job.fault is None:
                outcome["correct"] = False
                log(f"{job.name}: wrong output: {exc}")
            continue
        for name, value in job.tally(plain).items():
            tr.count(name, value)
    return total


def alloc_peak_mb(jobs):
    job = next((j for j in jobs if j.name == ALLOC_PROBE), None)
    if job is None:
        return 0.0
    tracemalloc.start()
    try:
        job.call(NullTracer())
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def measure(name, seed, seconds, trace, log):
    workload = WORKLOADS[name]
    rng = random.Random(seed)
    params = workload.params(rng)
    modules, ctx, setup = set_up(workload, params)
    jobs = workload.jobs(modules, ctx)

    outcome = {"correct": True, "attempted": 0, "failed": 0}
    tracer = Tracer()
    untraced, traced = [], []
    need_untraced, need_traced = (2, 2) if trace else (MIN_ROUNDS, 0)
    start = perf_counter()
    rnd = 0
    while True:
        order = list(jobs)
        rng.shuffle(order)
        use_trace = trace and rnd % 2 == 1
        gc.collect()
        if use_trace:
            tracer.round = rnd
            with tracer:
                traced.append((rnd, run_round(order, tracer, outcome, log)))
        else:
            untraced.append(run_round(order, NullTracer(), outcome, log))
        rnd += 1
        enough = len(untraced) >= need_untraced and len(traced) >= need_traced
        typical = statistics.median(untraced)
        if enough and perf_counter() - start + typical > seconds:
            break

    metrics = {}
    if not trace:
        metrics["round_s"] = statistics.median(untraced)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["setup_s"] = setup["setup_s"]
    else:
        metrics.update({k: v for k, v in setup.items() if k != "setup_s"})
        per_round = [tracer.round_figures(r) for r, _ in traced]
        for key in sorted(set().union(*per_round)):
            metrics[key] = statistics.median(f.get(key, 0.0) for f in per_round)
        for count, busy, rate in (
            ("atomiclen.image_set.states", "atomiclen.image_set.busy_s",
             "atomiclen.image_set.states_per_s"),
            ("weyl.enumerate_group.elements", "weyl.enumerate_group.busy_s",
             "weyl.enumerate_group.elements_per_s"),
            ("affine.affine_image_probe.searched", "affine.affine_image_probe.busy_s",
             "affine.affine_image_probe.searched_per_s"),
            ("cores.core_sizes.cores", "cores.core_sizes.busy_s",
             "cores.core_sizes.cores_per_s"),
        ):
            rates = [f[count] / f[busy] for f in per_round if f.get(busy)]
            metrics[rate] = statistics.median(rates) if rates else 0.0
        metrics["round_s.traced"] = statistics.median(t for _, t in traced)
        metrics["round_s.untraced"] = statistics.median(untraced)
        metrics["trace.overhead_pct"] = 100 * (
            metrics["round_s.traced"] / metrics["round_s.untraced"] - 1)
        metrics["rounds.traced"] = len(traced)
        metrics["atomiclen.image_set.alloc_peak_mb"] = alloc_peak_mb(jobs)
    return outcome, metrics, {"untraced_rounds": untraced, "traced_rounds": traced,
                              "params": {k: str(v) for k, v in params.items()},
                              "trace": tracer.dump() if trace else None}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    def log(message):
        print(message, file=sys.stderr)

    outcome, metrics, detail = measure(args.workload, args.seed, args.seconds,
                                       bool(args.trace), log)
    result = {
        **outcome,
        "metrics": {m["name"]: {"value": float(metrics.get(m["name"], 0.0)),
                                "unit": m["unit"]} for m in wanted},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(
        {"result": result, "all_metrics": metrics, **detail}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
