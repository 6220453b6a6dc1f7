"""Run one workload of the hpk benchmark and print its metrics.

    python3 perfbench/run.py --workload build_validate --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the benchmark imports hpk from ``src/`` next
to this directory and exits with status 2 if it is not there.  One process,
one thread, one client in a closed loop: each operation starts when the
previous one has been checked.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs a fixed
number of rounds untraced and as many further rounds with spans recorded at
every layer's public functions, alternating the two, and prints the
per-layer metrics and the tracing overhead (traced minus untraced operation
time).  Both modes start with one unmeasured warm-up round.  The last
line of standard output is one JSON object; the line before it holds details
(tail percentile, sample counts, repeat share).
"""

import argparse
import gc
import hashlib
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# set-up is repeated this many times per run; setup_s is the median
SETUP_REPEATS = 5
# cli_corpus writes its documents in set-up, this many times the rounds a
# run needs at the speed measured when the benchmark was defined; the other
# workloads make further rounds when asked for them
ROUND_HEADROOM = 2

END_TO_END = {
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_op_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SELF_TIMES = [
    "two_groupoids.nerve",
    "two_groupoids.validate_2gpd",
    "groupoids.dold_kan",
    "groupoids.validate",
    "loop.wbar",
    "loop.loop_groupoid",
    "loop.w_total",
    "sset.validate",
    "kan.pi_n_kan",
    "kan.kan_report",
    "homsearch.enumerate_simplicial_maps",
    "loop.enumerate_sgpd_maps",
    "groups.iso_to",
    "groupoids.moore_pi_n",
    "abelian.homology",
    "two_groupoids.pi_2gpd",
    "whitehead.counit_weak_equivalence",
    "lifting.solve_lifting",
    "presheaves.sheafify",
    "presheaves.is_weak_equivalence",
    "model_checks",
    "jsonio.load",
    "cli.main",
]
COUNTS = [
    "two_groupoids.nerve.calls",
    "two_groupoids.nerve.simplices",
    "groupoids.dold_kan.arrows",
    "loop.wbar.simplices",
    "sset.validate.simplices",
    "kan.horns",
    "kan.horn_nodes",
    "homsearch.enumerate_simplicial_maps.maps",
    "homsearch.enumerate_simplicial_maps.work_units",
    "loop.enumerate_sgpd_maps.maps",
    "loop.enumerate_sgpd_maps.work_units",
    "lifting.solve_lifting.search_nodes",
    "jsonio.load.bytes_in",
    "cli.bytes_out",
]
# useful outcomes over work done
YIELDS = {
    "kan.horn_yield": ("kan.horns", "kan.horn_nodes"),
    "homsearch.enumerate_simplicial_maps.yield": (
        "homsearch.enumerate_simplicial_maps.maps",
        "homsearch.enumerate_simplicial_maps.work_units",
    ),
    "loop.enumerate_sgpd_maps.yield": (
        "loop.enumerate_sgpd_maps.maps",
        "loop.enumerate_sgpd_maps.work_units",
    ),
}


def per_layer_units():
    units = {name + ".self_s": "s" for name in SELF_TIMES}
    units.update({name: ("bytes" if "bytes" in name else "count") for name in COUNTS})
    units.update({name: "ratio" for name in YIELDS})
    units["cli.output_digest"] = "sha256-48"
    units["stream.repeat_share"] = "ratio"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_share"] = "ratio"
    return units


def purge_hpk():
    for name in [n for n in sys.modules if n.split(".")[0] == "hpk"]:
        del sys.modules[name]


def setup(workload_cls, seed, n_rounds, repeats, tmp):
    """Import hpk afresh and generate the inputs, ``repeats`` times.

    Returns the last workload and the set-up time of every repetition.
    """
    from workloads import import_hpk

    times, workload, last_dir = [], None, None
    for rep in range(repeats):
        workload = None
        purge_hpk()
        gc.collect()
        workdir = os.path.join(tmp, f"corpus{rep}")
        os.makedirs(workdir)
        start = perf_counter()
        H = import_hpk()
        workload = workload_cls(H, seed, n_rounds, workdir)
        times.append(perf_counter() - start)
        if last_dir:
            shutil.rmtree(last_dir)
        last_dir = workdir
    return workload, times


def tail_rank(n, percentile):
    """Nearest-rank index of ``percentile`` among n sorted samples."""
    return max(0, math.ceil(percentile / 100.0 * n) - 1)


def beyond_tail(n, percentile):
    return n - 1 - tail_rank(n, percentile)


class Stream:
    """Operations run so far, with their latencies and outcomes."""

    def __init__(self):
        self.latencies = []
        self.busy = 0.0
        self.failed = 0
        self.repeats = 0
        self.rounds = 0
        self.seen = set()
        self.failures = []
        self.exhausted = False


def run_rounds(workload, indices, out, seconds=None, tracer=None, digest=None):
    """Run the given rounds in a closed loop, adding to ``out``.

    With ``seconds``, stop after the first round that ends when that much
    time has passed and the tail percentile has ten samples beyond it.
    """
    start = perf_counter()
    for index in indices:
        ops = workload.round(index)
        if ops is None:
            out.exhausted = True
            break
        for op in ops:
            if op.key in out.seen:
                out.repeats += 1
            out.seen.add(op.key)
            if tracer is not None:
                tracer.op += 1
                span = tracer.enter("op." + op.kind)
            error = None
            t0 = perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a failed operation is counted, never fatal
                error = exc
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.exit(span)
            if error is None:
                try:
                    if not op.check(result):
                        error = "oracle check failed"
                except Exception as exc:
                    error = exc
            if error is not None:
                out.failed += 1
                if len(out.failures) < 5:
                    out.failures.append(f"{op.kind} {op.key!r}: {error!r}")
            elif tracer is not None and op.counts is not None:
                for name, value in op.counts(result).items():
                    if name == "_digest":
                        digest.update(value)
                    else:
                        tracer.counts[name] += value
            out.latencies.append(elapsed)
            out.busy += elapsed
            # drop the answer now, so peak memory does not depend on which
            # operation happens to follow a large one
            result = None
        out.rounds += 1
        if (
            seconds is not None
            and perf_counter() - start >= seconds
            and beyond_tail(len(out.latencies), workload.tail_percentile) >= 10
        ):
            break
    return out


def report_failures(stream):
    for line in stream.failures:
        sys.stderr.write(f"failed: {line}\n")


def measure(workload_cls, seed, seconds, tmp):
    needed = math.ceil(seconds / workload_cls.round_s)
    n_rounds = max(ROUND_HEADROOM * needed, 2 * tail_rounds(workload_cls))
    workload, setup_times = setup(workload_cls, seed, n_rounds, SETUP_REPEATS, tmp)
    # round 0 warms up and is not measured
    warm = run_rounds(workload, range(1), Stream())
    stream = Stream()
    stream.seen = warm.seen
    run_rounds(workload, itertools.count(1), stream, seconds)
    report_failures(warm)
    report_failures(stream)
    if stream.exhausted:
        sys.stderr.write(
            f"perfbench: {workload_cls.name} ran out of inputs after {stream.rounds} rounds, "
            f"before {seconds} s\n"
        )
    n = len(stream.latencies)
    attempted = len(warm.latencies) + n
    failed = warm.failed + stream.failed
    ordered = sorted(stream.latencies)
    p = workload_cls.tail_percentile
    values = {
        "ops_per_s": (n - stream.failed) / stream.busy,
        "op_p50_ms": 1000.0 * statistics.median(ordered),
        "op_tail_ms": 1000.0 * ordered[tail_rank(n, p)],
        "ok_op_ratio": (attempted - failed) / attempted,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "rounds": stream.rounds,
        "rounds_prebuilt": n_rounds,
        "inputs_exhausted": stream.exhausted,
        "ops": n,
        "tail_percentile": p,
        "tail_samples_beyond": beyond_tail(n, p),
        "repeat_share": stream.repeats / n,
        "setup_runs_s": setup_times,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return failed, attempted, metrics, details


def tail_rounds(workload_cls):
    """Rounds a run needs before its tail percentile has ten samples beyond it."""
    rounds = 1
    while beyond_tail(rounds * workload_cls.ops_per_round, workload_cls.tail_percentile) < 10:
        rounds += 1
    return rounds


def measure_traced(workload_cls, seed, seconds, tmp):
    from tracer import Tracer, install

    # a fixed number of rounds per pass, so the counts repeat exactly; after
    # a warm-up round, untraced and traced rounds alternate so that drift in
    # the machine's speed falls on both passes alike
    per_pass = math.ceil(seconds / (2 * workload_cls.round_s))
    workload, _ = setup(workload_cls, seed, 1 + 2 * per_pass, 1, tmp)
    warm = run_rounds(workload, range(1), Stream())
    plain, traced = Stream(), Stream()
    plain.seen = traced.seen = warm.seen
    tracer = Tracer()
    digest = hashlib.sha256()
    for index in range(1, 1 + 2 * per_pass, 2):
        run_rounds(workload, [index], plain)
        restore = install(tracer)
        try:
            run_rounds(workload, [index + 1], traced, tracer=tracer, digest=digest)
        finally:
            restore()
    for stream in (warm, plain, traced):
        report_failures(stream)

    self_times = tracer.self_times()
    values = {name + ".self_s": self_times.get(name, 0.0) for name in SELF_TIMES}
    values.update({name: tracer.counts.get(name, 0) for name in COUNTS})
    for name, (useful, attempts) in YIELDS.items():
        done = tracer.counts.get(attempts, 0)
        values[name] = tracer.counts.get(useful, 0) / done if done else 0.0
    values["cli.output_digest"] = int(digest.hexdigest()[:12], 16) if tracer.counts.get("cli.bytes_out") else 0
    n = len(traced.latencies)
    values["stream.repeat_share"] = traced.repeats / n
    values["trace.overhead_s"] = traced.busy - plain.busy
    values["trace.overhead_share"] = (traced.busy - plain.busy) / plain.busy
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer_units().items()}
    details = {
        "rounds_per_pass": per_pass,
        "ops": n,
        "untraced_busy_s": plain.busy,
        "traced_busy_s": traced.busy,
        "spans": len(tracer.spans),
    }
    write_spans(tracer, workload_cls.name, seed)
    streams = (warm, plain, traced)
    attempted = sum(len(stream.latencies) for stream in streams)
    return sum(stream.failed for stream in streams), attempted, metrics, details


def write_spans(tracer, workload, seed):
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl")
    with open(path, "w") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hpk", "__init__.py")):
        sys.stderr.write(f"perfbench: hpk sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}\n")
        return 2
    workload_cls = WORKLOADS[args.workload]
    # corpus paths appear in the CLI's output, so they are relative to the
    # checkout and depend only on the workload and the seed
    os.chdir(ROOT)
    tmp = os.path.join(".perfbench_tmp", f"{args.workload}-seed{args.seed}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        measure_mode = measure_traced if args.trace else measure
        failed, attempted, metrics, details = measure_mode(workload_cls, args.seed, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    details.update(workload=args.workload, seed=args.seed, trace=args.trace)
    print(json.dumps({"details": details}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            },
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
