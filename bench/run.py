"""The stanley benchmark: one seeded workload, end to end or traced.

Usage, from the root of a checkout:

    python3 bench/run.py --workload deep-sweep --seed 1 --seconds 15 --trace 0

Workloads: deep-sweep, static-sweep, long-prefix, search-scan (see
METRICS.md).  ``--trace 0`` prints the end-to-end metrics (setup_s,
ops_per_s, op_p50_ms, op_p95_ms, peak_rss_mb), times taken at the
reference pace of ``pace.py`` so that a slow stretch of a shared host does
not move them, with wall-clock figures beside them in the table and the
record; ``--trace 1`` prints the per-layer metrics of a traced run.  The
package is imported from the checkout's ``src`` directory.  Each run writes a record with its
environment, input sizes and exact counts to ``.bench_out/``, prints a
readable table, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every op's output passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = 11
#: Whole run, set-up probes included, must end within this many seconds.
TIME_LIMIT_S = 170.0


def git_commit() -> str:
    """HEAD of the checkout, or 'unknown' outside a git repository."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def child(args: list[str], env: dict, deadline: float) -> dict:
    """Run a bench script in a fresh interpreter; return its last JSON line."""
    done = subprocess.run(
        [sys.executable, *args], env=env, cwd=ROOT, stdout=subprocess.PIPE,
        text=True, timeout=max(1.0, deadline - time.monotonic()), check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if Path(result["package"]).resolve().parent.parent != SRC:
        raise RuntimeError(f"imported stanley from {result['package']}, not from {SRC}")
    return result


def measure_setup(env: dict, deadline: float) -> list[dict]:
    # One untimed probe first, so that every timed probe imports from the
    # byte-code cache as an installed package would.
    child([str(BENCH / "probe.py")], env, deadline)
    return [child([str(BENCH / "probe.py")], env, deadline) for _ in range(SETUP_PROBES)]


def main() -> int:
    parser = argparse.ArgumentParser(description="stanley benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for bench/smoke.py")
    args = parser.parse_args()

    if not (SRC / "stanley" / "__init__.py").is_file():
        print(f"bench: no stanley package under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = OUT / f"{args.workload}.spans.json.gz"
    try:
        setup = [] if args.trace else measure_setup(env, deadline)
        result = child(
            [str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
            + (["--spans", str(spans)] if args.trace else []),
            env, deadline,
        )
    except (subprocess.SubprocessError, RuntimeError, ValueError, KeyError, IndexError) as exc:
        print(f"bench: {tag} did not complete: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    if setup:
        metrics["setup_s"] = {"value": statistics.median(p["setup_s"] for p in setup),
                              "unit": "s"}
    metrics.update(result["metrics"])
    attempted, failed = result["attempted"], result["failed"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "op": result["op"],
        "sizes": result["sizes"],
        "ops_per_pass": result["ops_per_pass"],
        "passes": result["passes"],
        "counts_per_pass": result["counts_per_pass"],
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": result["failures"],
        "setup_probes_s": [p["setup_s"] for p in setup],
        "setup_probes_wall_s": [p["wall_s"] for p in setup],
        "wall_clock": result["wall_clock"],
        "figures_per_pass": result["figures_per_pass"],
        "metrics": metrics,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "machine": platform.machine(),
            "git_commit": git_commit(),
            "threads": 1,
        },
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"stanley bench: {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}, {result['passes']} passes of "
          f"{result['ops_per_pass']} ops ({attempted} op samples)")
    print(f"  one op: {result['op']}")
    for name, m in metrics.items():
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")
    if setup:
        wall = dict(result["wall_clock"],
                    setup_s=statistics.median(p["wall_s"] for p in setup))
        print("  wall clock, not pace-scaled: "
              + ", ".join(f"{name} {value:.6g}" for name, value in wall.items()))
    print(f"  {'error_rate':<52} {failed / attempted:>14.6g} ratio"
          f" ({failed} failed / {attempted} attempted)")
    for problem in result["failures"]:
        print(f"  FAILED {problem}")
    print(f"  counts per pass: {json.dumps(result['counts_per_pass'])}")
    print(f"  record: {(OUT / f'{tag}.json').relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
