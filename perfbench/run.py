"""Wall-clock benchmark of the ``repro`` package.

Run one workload::

    python3 perfbench/run.py --workload serve-sampled-arxiv --seed 1 \\
        --seconds 20 --trace 0

or, without ``--workload``, every workload in turn, each in a fresh
process.  A run is a series of rounds (see :func:`rounds`), repeated
until ``--seconds`` have passed: each round sets the workload up from
scratch and times one untraced repetition on that set-up, and with
``--trace 1`` also one traced repetition of the same inputs, with every
layer's entry points wrapped (see ``layers.py``).  ``--trace 0`` prints
the end-to-end metrics, medians over the rounds (at least
:data:`MIN_ROUNDS`); ``--trace 1`` prints the per-layer metrics of the
traced repetitions (at least :data:`MIN_TRACED_ROUNDS` rounds) and
takes the tracing overhead pairwise from the untraced ones.  Every
repetition's outputs are checked; the last stdout line is one JSON
object, and the exit code is 1 when a check failed.

BLAS and OpenMP are pinned to one thread before numpy loads: the
reduction order, and so the last digits of the loss, depends on the
thread count, and two threads on a two-core machine make set-up time
noisy.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2

END_TO_END = (
    ("setup_s", "s"), ("train_wall_s", "s"), ("partition_s", "s"),
    ("epoch_wall_s", "s"), ("serve_req_per_s", "req/s"),
    ("peak_rss_mb", "MB"), ("test_accuracy", "fraction"),
    ("final_loss", "nats"),
    ("sim_latency_p50_ms", "ms"), ("sim_latency_p99_ms", "ms"),
    ("availability", "fraction"),
)


def _rounded(values):
    return [round(v, 3) for v in values]


def rounds(workload, seed, seconds, minimum, traced_run=None):
    """Alternate a set-up and a timed repetition on it until
    ``seconds`` have passed (at least ``minimum`` rounds).  Spreading
    the set-ups over the whole run exposes them to the same machine
    load as the timed phase.  ``traced_run(setup)``, when given, runs a
    traced repetition after each untraced one.  Each phase starts on a
    freshly collected heap, so garbage left by the previous phase is
    not collected inside it."""
    setup_walls, setups, untraced, traced = [], [], [], []
    start = time.perf_counter()
    while len(setups) < minimum or time.perf_counter() - start < seconds:
        gc.collect()
        began = time.perf_counter()
        setup = workload.setup(seed)
        setup_walls.append(time.perf_counter() - began)
        gc.collect()
        untraced.append(workload.run(setup))
        if traced_run is not None:
            gc.collect()
            traced.append(traced_run(setup))
        setup.state = None  # free the inputs before the next set-up
        setups.append(setup)
    print(f"set-up walls: {_rounded(setup_walls)}", file=sys.stderr)
    print(f"timed walls: {_rounded(r.wall_s for r in untraced)}",
          file=sys.stderr)
    return setup_walls, setups, untraced, traced


def end_to_end(setup_walls, setups, reps):
    """The end-to-end metrics: medians over the set-ups and untraced
    repetitions (training records come from whichever of the two
    trains)."""
    training = [s.training for s in setups if s.training] \
        + [r.training for r in reps if r.training]
    serving = [r.serving for r in reps]

    def median(records, key):
        return statistics.median(record[key] for record in records)

    values = {
        "setup_s": statistics.median(setup_walls),
        "train_wall_s": median(training, "train_wall_s"),
        "partition_s": median(training, "partition_s"),
        "epoch_wall_s": statistics.median(
            wall for record in training for wall in record["epoch_walls"]),
        "serve_req_per_s": median(serving, "req_per_s"),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_accuracy": median(training, "test_accuracy"),
        "final_loss": median(training, "final_loss"),
        "sim_latency_p50_ms": median(serving, "p50_ms"),
        "sim_latency_p99_ms": median(serving, "p99_ms"),
        "availability": median(serving, "availability"),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def run_workload(name, seed, seconds, trace):
    """Measure one workload; returns the result object."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    problems = []
    if not trace:
        setup_walls, setups, reps, _ = rounds(workload, seed, seconds,
                                              MIN_ROUNDS)
        metrics = end_to_end(setup_walls, setups, reps)
    else:
        setups, reps, metrics, problems = traced_rounds(
            workload, seed, seconds)

    problems += [p for s in setups for p in s.problems]
    if len({s.digest for s in setups}) != 1:
        problems.append("set-up outputs differ between rounds")
    if len({r.digest for r in reps}) != 1:
        problems.append("timed outputs differ between repetitions"
                        + (" (traced vs untraced)" if trace else ""))
    # A repetition counts its own failures; each other failed check
    # counts as one failed operation.
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps) + len(problems)
    for problem in problems + [p for r in reps for p in r.problems]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def traced_rounds(workload, seed, seconds):
    """Rounds of a set-up, an untraced and a traced repetition; returns
    the set-ups, every repetition, the per-layer metrics and the trace
    problems."""
    from layers import ENTRY_POINTS, PER_LAYER, layer_metrics
    from repro.perf import PERF
    from spans import Tracer, installed

    tracer = Tracer()
    perf_delta = {}

    def traced_run(setup):
        before = PERF.snapshot()
        with installed(tracer, ENTRY_POINTS):
            rep = workload.run(setup)
        for key, value in PERF.delta(before).items():
            perf_delta[key] = perf_delta.get(key, 0) + value
        return rep

    _, setups, untraced, traced = rounds(
        workload, seed, seconds, MIN_TRACED_ROUNDS, traced_run)
    problems = [f"wrapper for {name} never fired"
                for name in workload.expected_spans
                if not tracer.stats(name).calls]
    values = layer_metrics(
        tracer, [r.wall_s for r in traced], [r.wall_s for r in untraced],
        perf_delta, traced[-1].program)
    print_spans(tracer, len(traced))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in PER_LAYER}
    return setups, untraced + traced, metrics, problems


def print_spans(tracer, reps):
    """Show every span's totals per traced repetition (of ``reps``) on
    stderr, the largest self time first."""
    print(f"{'span':24s} {'calls':>10s} {'busy_s':>10s} {'self_s':>10s}",
          file=sys.stderr)
    for name, _ in tracer.top_self(len(tracer.spans)):
        s = tracer.spans[name]
        print(f"{name:24s} {s.calls / reps:10.1f} {s.busy_s / reps:10.4f} "
              f"{s.self_s / reps:10.4f}", file=sys.stderr)


def run_all(args):
    """Every workload in its own process; prints each metric."""
    from workloads import WORKLOADS

    status = 0
    for name, workload in WORKLOADS.items():
        seed = workload.default_seed if args.seed is None else args.seed
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", name, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode or not lines:
            print(f"{name}: FAILED (exit {done.returncode})")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name} (seed {seed}): correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, value in result["metrics"].items():
            print(f"  {metric:24s} {value['value']:.6g} {value['unit']}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long to keep measuring")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: "
                     f"{', '.join(WORKLOADS)}")
    seed = WORKLOADS[args.workload].default_seed \
        if args.seed is None else args.seed
    result = run_workload(args.workload, seed, args.seconds,
                          bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
