"""One workload in one fresh process; ``run.py`` starts it.

Usage: python3 bench/worker.py --workload NAME --seed N --seconds S
       --trace 0|1 [--size full|smoke] [--spans PATH]
with the package importable (``run.py`` puts ``src`` on PYTHONPATH).

Closed loop with one caller: each op starts after the previous one
returned, with ``threads=1`` throughout.  Untraced, the run repeats whole
passes until ``--seconds`` have passed and reports end-to-end metrics,
timed at the reference pace of ``pace.py``.
Traced, it runs pairs of one traced and one untraced pass, alternating
which goes first, until the time is up, and reports per-layer metrics,
the median over traced passes.  The last stdout line is one JSON object
that ``run.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any

from pace import Pacer

E2E_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p95_ms": "ms", "peak_rss_mb": "MiB"}

#: Failure messages kept for the record; the count is always exact.
KEEP_FAILURES = 20


class Outcome:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.failures) < KEEP_FAILURES:
                self.failures.append(problem)


def run_pass(workload: Any, ops: list, outcome: Outcome, tracer: Any = None,
             counts: Counter | None = None, pacer: Pacer | None = None) -> list[float]:
    """Run every op once; return each op's latency in seconds.

    With a pacer, the reference kernel is timed between ops when due.
    """
    latencies = []
    for inp in ops:
        if pacer is not None:
            pacer.tick()
        if tracer is not None:
            tracer.recording = True
        t0 = time.perf_counter()
        try:
            out = workload.run(inp)
        except Exception as exc:  # a raising op is a failed op, not a failed run
            out = exc
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.recording = False
        if pacer is not None:
            pacer.charge(t1 - t0)
        latencies.append(t1 - t0)
        problem = workload.check(inp, out)
        outcome.add(problem)
        if counts is not None and not problem:
            workload.count(counts, inp, out)
    return latencies


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def latency_figures(passes: list[array]) -> dict[str, float]:
    """op_p50_ms and op_p95_ms from the op latencies of every pass.

    Each op's latency is first reduced to its median over the passes, so a
    disturbance of the machine has to hit an op in most passes to move it;
    the percentiles are then taken over the ops of one pass, so they say
    how long the typical and the slow inputs take.
    """
    typical = sorted(statistics.median(op) for op in zip(*passes))
    return {"op_p50_ms": statistics.median(typical) * 1e3,
            "op_p95_ms": percentile(typical, 0.95) * 1e3}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--spans", help="file for the traced run's spans (gzipped JSON)")
    args = parser.parse_args(argv)

    import stanley
    from tracer import PER_LAYER, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    size = workload.sizes[args.size]
    tracer = None
    load_appendix_s = 0.0
    if args.trace:
        tracer = Tracer()
        tracer.install()
        first = tracer.mark()
        tracer.recording = True
    # Lazy set-up happens before any timing; setup_s measures it apart.
    stanley.load_appendix()
    if tracer is not None:
        tracer.recording = False
        load_appendix_s = tracer.end[first] - tracer.start[first]

    ops = workload.prepare(random.Random(args.seed), size)
    outcome = Outcome()
    run_pass(workload, getattr(workload, "once", []), outcome)
    counts: Counter = Counter()
    pacer = Pacer() if tracer is None else None
    # Per pass: op latencies at the reference pace (pace.py), 4 bytes an op
    # so that the run's own memory grows little with its length, and the
    # time the ops took as measured (untraced); or the per-layer metrics
    # (traced).
    per_pass: list[Any] = []
    wall_per_pass: list[float] = []
    t_start = time.perf_counter()
    while not per_pass or time.perf_counter() - t_start < args.seconds:
        first_counts = counts if not per_pass else None
        if tracer is None:
            latencies = run_pass(workload, ops, outcome, counts=first_counts, pacer=pacer)
            per_pass.append(array("f", pacer.scaled(latencies)))
            wall_per_pass.append(math.fsum(latencies))
            continue
        # The untraced pass of each pair goes first in every other pair, so
        # that a drift between consecutive passes cancels out of the overhead.
        plain = math.fsum(run_pass(workload, ops, outcome)) if len(per_pass) % 2 else None
        first = tracer.mark()
        traced = math.fsum(run_pass(workload, ops, outcome, tracer, first_counts))
        layer = tracer.layer_metrics(first)
        if plain is None:
            plain = math.fsum(run_pass(workload, ops, outcome))
        layer["trace.overhead_s"] = traced - plain
        layer["witness.load_appendix.s"] = load_appendix_s
        per_pass.append(layer)

    # ops_per_s is taken per pass and the median over passes reported, so a
    # pass slowed by a passing disturbance on the machine moves it little.
    # The wall-clock ops_per_s and kernel time go into the record beside.
    figures: dict[str, list[float]] = {}
    wall: dict[str, float] = {}
    if tracer is None:
        # Read before the figures below allocate anything.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        figures = {"ops_per_s": [len(p) / math.fsum(p) for p in per_pass]}
        metrics = {"ops_per_s": statistics.median(figures["ops_per_s"]),
                   **latency_figures(per_pass), "peak_rss_mb": peak_rss_mb}
        wall = {"ops_per_s": statistics.median(len(ops) / t for t in wall_per_pass),
                "kernel_ms": statistics.median(pacer.samples) * 1e3}
        units = E2E_UNITS
    else:
        # median_low picks an observed pass, so exact counts stay integers.
        metrics = {name: statistics.median_low(p[name] for p in per_pass) for name in PER_LAYER}
        units = PER_LAYER
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            tracer.dump(args.spans, t_start)

    print(json.dumps({
        "workload": workload.name,
        "op": workload.op,
        "sizes": size,
        "package": stanley.__file__,
        "ops_per_pass": len(ops),
        "passes": len(per_pass),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "counts_per_pass": dict(sorted(counts.items())),
        "figures_per_pass": figures,
        "wall_clock": wall,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
