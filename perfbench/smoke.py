"""Smoke check: every workload for about a second, untraced and traced.

Run from the root of a source checkout::

    python3 perfbench/smoke.py

Each run must exit 0 and end with a result line carrying exactly the
metrics BENCHMARK.json declares for its mode, with ``correct`` true and
no failed session.  Takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_line(line: str, expected: list[tuple[str, str]]) -> list[str]:
    """Problems with one result line (empty when it meets the contract)."""
    result = json.loads(line)
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted < 1")
    if result.get("failed") != 0:
        problems.append(f"failed = {result.get('failed')}")
    got = [(name, m["unit"]) for name, m in result.get("metrics", {}).items()]
    if sorted(got) != sorted(expected):
        problems.append("metric names or units differ from BENCHMARK.json")
    for name, metric in result.get("metrics", {}).items():
        if not isinstance(metric.get("value"), (int, float)):
            problems.append(f"{name} is not a number")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        1: [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", "7",
                "--seconds", "1", "--trace", str(trace),
            ]  # fmt: skip
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            lines = done.stdout.strip().splitlines()
            problems = [f"exit {done.returncode}"] if done.returncode else []
            if lines:
                problems += check_line(lines[-1], expected[trace])
            else:
                problems.append("no output")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"{workload} trace={trace}: {status}", flush=True)
            if problems:
                failures += 1
                sys.stderr.write(done.stderr[-4000:])
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
