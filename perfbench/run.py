"""The repo benchmark: one workload run, end-to-end or traced.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload prove-ristretto --seed 1 --seconds 10 --trace 0

``--workload all`` runs every workload in turn under the same seed and
ends with one JSON object keyed by workload.

Workloads (see ``workloads.py`` and ``README.md``): ``prove-ristretto``,
``stream-p64`` and ``serve-fleet``.  The same seed
gives the same inputs.  Every release is checked against a solo seeded
``Session``; a mismatch makes the run exit 1.

With ``--trace 0`` the last stdout line is a JSON object whose metrics
are the end-to-end ones; with ``--trace 1`` a separate traced run
reports the per-layer ones.  Human-readable lines, including
``failed_ratio`` and the run metadata, come before it, and the full
record (metadata, metrics, per-session outcomes) is written to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench" / "results"
SETUP_SAMPLES = 5
# One run must end within 180 s; the worker is killed before that.
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from stats import count_failures, failed_ratio, median  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """SHA-256 over the program's source files: identifies the code even
    where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _worker(args, env, deadline: float, *, setup_only: bool):
    """Start ``worker.py``; returns (child, seconds to its ``ready`` line)."""
    from procs import Child

    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]  # fmt: skip
    if setup_only:
        cmd.append("--setup-only")
    child = Child(cmd, env=env, cwd=ROOT)
    try:
        line = child.line(deadline)
        if line is None or line.strip() != "ready":
            raise RuntimeError(f"worker failed during set-up (exit {child.wait(10)})")
    except BaseException:
        child.kill()
        raise
    return child, time.perf_counter() - child.started


def run_in_process(args, env, deadline: float) -> dict:
    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            child, seconds = _worker(args, env, deadline, setup_only=True)
            setup.append(seconds)
            child.wait(max(1.0, deadline - time.perf_counter()))
    child, seconds = _worker(args, env, deadline, setup_only=False)
    setup.append(seconds)
    try:
        lines = child.lines(deadline)
    finally:
        code = child.wait(max(1.0, deadline - time.perf_counter()))
    if code != 0 or not lines:
        raise RuntimeError(f"worker exited with {code}")
    raw = json.loads(lines[-1])
    check_releases(args, raw["sessions"], env, deadline)
    raw["setup_s"] = setup
    raw["infra_failures"] = 0
    return raw


def check_releases(args, sessions, env, deadline: float) -> None:
    """Mark each released session ``matches`` iff its release digest equals
    that of a solo seeded ``Session`` on the same inputs."""
    from procs import solo_replays
    from workloads import client_bits, tag

    spec = WORKLOADS[args.workload]
    base = tag(args.workload, args.seed)
    released = [s for s in sessions if s["status"] == "released"]
    jobs = [
        {
            "workload": args.workload,
            "seed": f"{base}/s{s['i']}",
            "values": client_bits(f"{base}/v{s['i']}", spec.clients),
        }
        for s in released
    ]
    for entry, solo in zip(released, solo_replays(jobs, env, deadline)):
        entry["matches"] = entry["sha256"] == solo["sha256"]


def run_fleet(args, env, deadline: float) -> dict:
    import fleet

    if args.trace:
        return fleet.measure_traced(env, args.seed, args.seconds)
    return fleet.measure(env, args.seed, args.seconds, SETUP_SAMPLES, deadline)


def summarize(args, raw: dict) -> dict:
    """The result line: ``correct``/``attempted``/``failed``/``metrics``."""
    sessions = raw["sessions"]
    released = [s for s in sessions if s["status"] == "released"]
    if not released:
        raise RuntimeError(f"no session released ({len(sessions)} attempted)")
    correct = all(s["accepted"] and s["matches"] for s in released)
    attempted = len(sessions)
    failed = count_failures(sessions) + raw["infra_failures"]
    if args.trace:
        metrics = raw["layers"]
    else:
        passed = attempted - count_failures(sessions)
        metrics = {
            "setup_s": median(raw["setup_s"]),
            "sessions_per_s": passed / raw["window_s"],
            "session_s.p50": median([s["session_s"] for s in released]),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": layers.UNITS[name]}
            for name, value in metrics.items()
        },
    }


def _print_report(args, meta, raw, result) -> None:
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    for name, metric in result["metrics"].items():
        note = f"  (absent: {raw['absent'][name]})" if name in raw.get("absent", {}) else ""
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}{note}")
    ratio = failed_ratio(result["attempted"], result["failed"])
    print(
        f"  {'failed_ratio':32s} {ratio:.6g} ratio"
        f"  ({result['failed']} of {result['attempted']} sessions)"
    )
    if not args.trace:
        samples = ", ".join(f"{s:.3f}" for s in raw["setup_s"])
        print(f"  setup samples (s): {samples}")
    else:
        for line in layer_checks(args.workload, result["metrics"]):
            print(f"  check: {line}")


def layer_checks(workload: str, metrics: dict) -> list[str]:
    """Confirm each workload loads the layer it was chosen for."""
    value = {name: metric["value"] for name, metric in metrics.items()}
    session = value["trace.session.s"]
    if workload == "prove-ristretto":
        share = value["sigma.prove_bit.incl_s"] / session
        verdict = "ok" if share >= 0.7 else "NOT MET"
        return [f"sigma.prove_bit inclusive = {share:.1%} of session time (>= 70%): {verdict}"]
    return []


def run_workload(args, env) -> dict | None:
    """One run of ``args.workload``: prints its report, writes its record
    and returns its result line (None when the run itself broke)."""
    deadline = time.perf_counter() + DEADLINE_S
    meta = metadata(args)
    try:
        if args.workload == "serve-fleet":
            raw = run_fleet(args, env, deadline)
        else:
            raw = run_in_process(args, env, deadline)
        result = summarize(args, raw)
    except (RuntimeError, TimeoutError, OSError) as exc:
        print(f"perfbench: {args.workload} run failed: {exc}", file=sys.stderr)
        return None
    RESULTS.mkdir(parents=True, exist_ok=True)
    record = {"meta": meta, "result": result, "raw": raw}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1, default=str))
    _print_report(args, meta, raw, result)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run benchmark workloads.")
    parser.add_argument(
        "--workload",
        required=True,
        choices=sorted(WORKLOADS) + ["all"],
        help="one workload, or 'all' to run every workload in turn",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    env = _env()
    # Fleet replays and the fleet's traced replay import ``repro`` here too.
    sys.path.insert(1, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {
        name: run_workload(argparse.Namespace(**{**vars(args), "workload": name}), env)
        for name in names
    }
    if any(result is None for result in results.values()):
        return 1
    # One workload: the result line.  'all': one object keyed by workload.
    print(json.dumps(results if args.workload == "all" else results[args.workload]), flush=True)
    return 0 if all(result["correct"] for result in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
