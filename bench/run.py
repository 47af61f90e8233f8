#!/usr/bin/env python3
"""Benchmark of gdrq, end to end and by layer.

Run from the root of a gdrq checkout:

    python3 bench/run.py --workload ensemble --seed 1 --seconds 10 --trace 0

With --trace 0 it reports the end-to-end metrics of one workload: setup_s
(median over fresh interpreters, from before `import gdrq` until the first
item is done), items_per_s (per-chunk throughput at its 10th percentile,
time inside gdrq only, whole rounds for --seconds of wall time) and
peak_rss_mb.  With --trace 1 it runs a fixed number of rounds, each once
untraced and once with every layer wrapped, and reports the per-layer
metrics and the tracing overhead.  The last line of standard output is one
JSON object; notes go to standard error.
"""

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
MAX_LEFT_OUT = 20
# consecutive chunks are merged until they hold this much time inside gdrq,
# so that a single scheduling hiccup cannot decide a chunk's rate
MIN_CHUNK_S = 0.25
TRACE_DIR = ".bench_trace"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_gdrq():
    """The gdrq package of the checkout in the working directory, never an installed one."""
    src = os.path.join(os.getcwd(), "src")
    if not (os.path.isfile(os.path.join(src, "gdrq", "__init__.py")) and os.path.isdir("configs")):
        sys.exit("bench: src/gdrq and configs/ not found; run from the root of a gdrq checkout")
    sys.path[:0] = [src, HERE]
    import gdrq.cli
    import gdrq.encoding
    import gdrq.errors
    import gdrq.experiment

    if not os.path.abspath(gdrq.__file__).startswith(src + os.sep):
        sys.exit(f"bench: imported gdrq from {gdrq.__file__}, not from {src}")
    return types.SimpleNamespace(
        cli=gdrq.cli, encoding=gdrq.encoding, errors=gdrq.errors, experiment=gdrq.experiment
    )


def setup_probe(args) -> None:
    """In a fresh interpreter: time from before `import gdrq` to the first completed item."""
    start = time.perf_counter()
    gdrq = import_gdrq()
    import workloads

    workloads.WORKLOADS[args.workload](gdrq, args.seed).first_item()
    print(time.perf_counter() - start)


def setup_probe_seconds(args) -> float:
    """Run one set-up probe in a fresh interpreter and return its time."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit(f"bench: set-up probe failed with exit {done.returncode}:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0
        self.seconds = self.cpu_seconds = 0.0
        self.rounds: list[int] = []
        self.items: dict[str, int] = {}
        self.chunk_rates: dict[str, list[float]] = {}
        self._pending: dict[str, list] = {}

    def add(self, k, attempted, failed, clock) -> None:
        self.attempted += attempted
        self.failed += failed
        self.seconds += clock.seconds
        self.cpu_seconds += clock.cpu_seconds
        self.rounds.append(k)
        for kind, items, seconds in clock.chunks:
            self.items[kind] = self.items.get(kind, 0) + items
            pending = self._pending.setdefault(kind, [0, 0.0])
            pending[0] += items
            pending[1] += seconds
            if pending[1] >= MIN_CHUNK_S:
                self.chunk_rates.setdefault(kind, []).append(pending[0] / pending[1])
                self._pending[kind] = [0, 0.0]

    def sustained_rate(self) -> float:
        """Items per second with each kind of chunk at its 10th-percentile rate.

        Kinds (one per nucleus where a round holds both) differ in rate, so a
        percentile over all chunks would mix two distributions; each kind gets
        its own, and the kinds are weighted by their items.
        """
        seconds = 0.0
        for kind, items in self.items.items():
            rates = self.chunk_rates.get(kind) or [self._pending[kind][0] / self._pending[kind][1]]
            rate = rates[0] if len(rates) < 2 else statistics.quantiles(rates, n=10, method="inclusive")[0]
            seconds += items / rate
        return sum(self.items.values()) / seconds


def run_round(workload, workloads, k, problems):
    """Round k as (attempted, failed, clock), or None when it is left out.

    A round left out hit a fault that strikes only on some seeds
    (workloads.LeftOut); it is reported on standard error and not counted.
    """
    clock = workloads.Clock()
    try:
        attempted, failed = workload.round(k, clock)
    except workloads.LeftOut as exc:
        print(f"bench: left out {workload.name} round {k}: {exc}", file=sys.stderr)
        return None
    except Exception as exc:  # noqa: BLE001 - a crashing round must still be reported
        problems.append(f"{workload.name} round {k}: {type(exc).__name__}: {exc}")
        attempted = failed = workload.round_size()
    if attempted != workload.round_size():
        problems.append(f"{workload.name} round {k}: {attempted} items, expected {workload.round_size()}")
    return attempted, failed, clock


def timed_rounds(workload, workloads, problems, seconds, probe) -> tuple[Tally, list[float]]:
    """Whole rounds until `seconds` of wall time have passed, and set-up probes.

    The SETUP_PROBES probes run one at a time, spread evenly over the run, so
    that their median samples the machine as the rounds do.
    """
    tally = Tally()
    probes: list[float] = []
    start = time.perf_counter()
    for k in itertools.count():
        while len(probes) < SETUP_PROBES and time.perf_counter() - start >= len(probes) * seconds / SETUP_PROBES:
            probes.append(probe())
        result = run_round(workload, workloads, k, problems)
        if result is not None:
            tally.add(k, *result)
        elif k + 1 - len(tally.rounds) > MAX_LEFT_OUT:
            problems.append(f"{workload.name}: more than {MAX_LEFT_OUT} rounds left out")
            break
        if tally.rounds and time.perf_counter() - start >= seconds:
            break
    probes += [probe() for _ in range(SETUP_PROBES - len(probes))]
    return tally, probes


def traced_rounds(workload, workloads, problems, tracer) -> tuple[Tally, Tally]:
    """The first workload.trace_rounds rounds, each run untraced and traced.

    The two runs of a round alternate in order, so both sides see the same
    swings in machine speed and their time ratio is the tracing overhead.
    """
    plain, traced = Tally(), Tally()
    for k in itertools.count():
        if len(plain.rounds) == workload.trace_rounds or k - len(plain.rounds) > MAX_LEFT_OUT:
            break
        results = {}
        for use_tracer in (False, True) if len(plain.rounds) % 2 == 0 else (True, False):
            tracer.round = k
            if use_tracer:
                tracer.install()
            try:
                results[use_tracer] = run_round(workload, workloads, k, problems)
            finally:
                if use_tracer:
                    tracer.uninstall()
            if results[use_tracer] is None:
                break
        if len(results) == 2 and None not in results.values():
            plain.add(k, *results[False])
            traced.add(k, *results[True])
    return plain, traced


def report(correct, tally, metrics) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("GDRQ_THREADS", None)  # users run serially
    # One BLAS thread, set before numpy loads and inherited by the probes.
    # On gdrq's matrices (at most 256 x 256) a second thread gains at most
    # about 15 %, and as it spins it halves throughput whenever another
    # process wants one of the cores.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    if args.setup_probe:
        setup_probe(args)
        return 0
    gdrq = import_gdrq()
    import reference
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    problems = reference.check_published()
    workload = workloads.WORKLOADS[args.workload](gdrq, args.seed)

    workload.first_item()
    if args.trace == 0:
        tally, probes = timed_rounds(
            workload, workloads, problems, args.seconds, lambda: setup_probe_seconds(args)
        )
        if not tally.rounds:
            sys.exit(f"bench: no round completed: {problems}")
        workload.final_checks()
        metrics = {
            "setup_s": (statistics.median(probes), "s"),
            "items_per_s": (tally.sustained_rate(), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        workload.final_checks()
        tracer = tracing.Tracer(workloads.poles_of)
        plain, tally = traced_rounds(workload, workloads, problems, tracer)
        if not plain.rounds:
            sys.exit(f"bench: no round completed: {problems}")
        tracer.write(os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.json"))
        units = {name: unit for name, unit, _ in tracing.metric_specs()}
        values = tracer.layer_metrics()
        values["process.cpu_per_wall"] = plain.cpu_seconds / plain.seconds
        values["trace.overhead_pct"] = (tally.seconds / plain.seconds - 1.0) * 100.0
        metrics = {name: (values[name], units[name]) for name in units}

    problems += workload.problems
    for text in problems:
        print(f"bench: check failed: {text}", file=sys.stderr)
    report(not problems, tally, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
