#!/usr/bin/env python3
"""Self-test of the wall-clock benchmark at a tiny scale (sf 0.05).

    python3 perfbench/selftest.py

Runs every workload shape once untraced and once traced through run.py
and checks that:
  * every metric BENCHMARK.json names is printed, with its unit;
  * no query failed or returned a wrong result (error rate 0);
  * the traced roll-up found non-empty task and stage spans.
Exits 0 when all hold, 1 otherwise.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["ldbc-sf1", "ldbc-sf1-highsel", "ldbc-sf10", "ldbc-sf1-lowsel"]


def run(workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--scale", "0.05"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    return proc.returncode, proc.stdout.splitlines()


def check(workload, trace, spec):
    code, lines = run(workload, trace)
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if not lines:
        return problems + ["no output"]
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0:
        problems.append(f"error rate not 0: {result.get('failed')} of "
                        f"{result.get('attempted')} failed")
    metrics = result.get("metrics", {})
    wanted = spec["per_layer" if trace else "end_to_end"]
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']} missing")
        elif got.get("unit") != m["unit"] or not isinstance(
                got.get("value"), (int, float)):
            problems.append(f"metric {m['name']} printed as {got}")
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    if trace:
        spans = [re.search(r"task_spans=(\d+) stage_spans=(\d+)", line)
                 for line in lines]
        spans = [s for s in spans if s]
        if not spans or any(int(s[1]) == 0 or int(s[2]) == 0 for s in spans):
            problems.append("traced roll-up found no task or stage spans")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems = check(workload, trace, spec)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"{workload} trace={trace}: {status}", flush=True)
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
