"""Smoke test for the benchmark itself; not part of the tier-1 suite.

Usage, from the root of a checkout:  python3 bench/smoke.py

Runs every workload at its tiny ``smoke`` size, untraced and traced, and
checks that the metric names and units printed match BENCHMARK.json and
that every op passed.  Then checks that a wrong result is caught (with a
verify() that rejects nothing, the static sweep's corrupted copies must
fail their ops), and that the benchmark exits nonzero without a result
when the package is missing.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Run in a child: worker.main with a verify() that rejects nothing, so the
#: corrupted copies of the static sweep come back with a PASS verdict.
ACCEPTING_VERIFY = """
import dataclasses, sys
sys.path.insert(0, sys.argv.pop(1))
import stanley, tracer, worker

def accept_all(verify):
    def accepting(a):
        return dataclasses.replace(verify(a), is_near_modular=True, witness_violation=None)
    return accepting

tracer.rebind("stanley.modset", "verify", accept_all)
sys.exit(worker.main(sys.argv[1:]))
"""


def bench(args: list[str], cwd: Path = ROOT) -> tuple[int, str]:
    done = subprocess.run([sys.executable, *args], cwd=cwd, stdout=subprocess.PIPE,
                          text=True, timeout=180)
    return done.returncode, done.stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    failures = 0

    def report(ok: bool, label: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {label}", flush=True)

    expected = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            code, out = bench([str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
                               "--seconds", "0", "--trace", str(trace), "--size", "smoke"])
            result = last_json(out)
            label = f"{workload} trace={trace}"
            report(code == 0 and result["correct"] and result["failed"] == 0,
                   f"{label}: exit {code}, {result['failed']} of {result['attempted']} ops failed")
            report(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys {sorted(result)}")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            report(printed == expected[trace], f"{label}: metric names and units match"
                   f" BENCHMARK.json (differing: {sorted(set(printed) ^ set(expected[trace]))})")
            if (workload, trace) == ("static-sweep", 1):
                calls = result["metrics"]["core.greedy_extend.calls"]["value"]
                report(calls == 0, f"{label}: core.greedy_extend.calls is {calls}")

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", ACCEPTING_VERIFY, str(BENCH), "--workload", "static-sweep",
         "--seed", "1", "--seconds", "0", "--trace", "0", "--size", "smoke"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=180,
    )
    accepted = last_json(done.stdout)
    report(accepted["failed"] > 0, f"verify() that rejects nothing: {accepted['failed']} of"
           f" {accepted['attempted']} ops failed")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, out = bench(["bench/run.py", "--workload", "deep-sweep", "--seed", "1",
                       "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    report(code != 0 and not out.strip(), f"without src/: exit {code}, stdout {out!r}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
