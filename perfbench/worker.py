"""One in-process workload run, in a fresh interpreter.

``run.py`` starts this script, times it from process start to the
``ready`` line (imports, named-group resolution, parameter set-up: the
``setup_s`` sample) and reads the JSON result from its last stdout line.
With ``--setup-only`` the script exits right after ``ready``.

The timed loop is a closed loop with one caller: seeded solo
``Session``s run back to back until their summed wall time (the timed
window) reaches ``--seconds``.  A session's time runs from ``Session``
construction to release; drawing the client values is outside it.
Each release is reported with the SHA-256 of its ``encode_message``
frame; ``run.py`` checks it against a solo seeded ``Session`` in a
fresh interpreter after this process has ended.

With ``--trace`` the loop alternates untraced and traced sessions over
twice the window; layer metrics come from the traced ones, phase
timings and bus counts from the untraced ones.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

from reference import digest, query, solo
from workloads import PROVERS, WORKLOADS, client_bits, tag


def _run_session(workload, seed: int, index: int, bits):
    """One timed session; returns (seconds, release, timer, network)."""
    start = time.perf_counter()
    _, result = solo(workload.name, f"{tag(workload.name, seed)}/s{index}", bits)
    seconds = time.perf_counter() - start
    return seconds, result.release, result.timer, result.engine_result.network


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload, seed: int, seconds: float, trace: bool, group_setup_s: float) -> dict:
    from repro.errors import ReproError

    import layers
    from spans import Tracer, summarize

    tracer = Tracer() if trace else None
    window = 2 * seconds if trace else seconds
    sessions = []
    busy = 0.0  # summed wall time of every attempt, failed ones included
    while busy < window or (trace and len(sessions) < 2):
        index = len(sessions)
        traced = trace and index % 2 == 1
        entry = {"i": index, "traced": traced}
        bits = client_bits(f"{tag(workload.name, seed)}/v{index}", workload.clients)
        if traced:
            tracer.session = index
            tracer.install()
        attempt = time.perf_counter()
        outcome = None
        try:
            if traced:
                with tracer.span("session"):
                    outcome = _run_session(workload, seed, index, bits)
            else:
                outcome = _run_session(workload, seed, index, bits)
        except ReproError as exc:
            entry.update(status="aborted", reason=str(exc), session_s=None)
        except Exception as exc:  # keep the run going; the session counts as failed
            traceback.print_exc(file=sys.stderr)
            entry.update(status="crashed", reason=repr(exc), session_s=None)
        finally:
            if traced:
                tracer.uninstall()
        busy += outcome[0] if outcome else time.perf_counter() - attempt
        if outcome is not None:
            # Digested with the tracer gone, so the benchmark's own
            # encoding is not counted as the program's.
            session_s, release, timer, network = outcome
            entry.update(
                status="released",
                accepted=bool(release.accepted),
                session_s=session_s,
                stages=dict(timer.stages),
                bus_messages=network.total_messages(),
                bus_bytes=network.total_bytes(),
                sha256=digest(release),
            )
        sessions.append(entry)
    peak_rss_mb = _peak_rss_mb()

    result = {
        "sessions": [{k: v for k, v in s.items() if k != "stages"} for s in sessions],
        "window_s": busy,
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        traced = [s for s in sessions if s["traced"] and s["status"] == "released"]
        plain = [s for s in sessions if not s["traced"] and s["status"] == "released"]
        if not traced or not plain:
            raise RuntimeError("traced run needs a released traced and untraced session")
        summary = summarize(tracer.spans)
        values = layers.from_spans(summary, tracer.counters, len(traced))
        values.update(layers.phase_means(s["stages"] for s in plain))
        values["mpc.bus.messages"] = sum(s["bus_messages"] for s in plain) / len(plain)
        values["mpc.bus.bytes"] = sum(s["bus_bytes"] for s in plain) / len(plain)
        values["crypto.group_setup.s"] = group_setup_s
        traced_rate = len(traced) / sum(s["session_s"] for s in traced)
        plain_rate = len(plain) / sum(s["session_s"] for s in plain)
        values["trace.overhead_ratio"] = traced_rate / plain_rate
        absent = dict.fromkeys(layers.FLEET_ONLY, layers.NO_FLEET)
        result["layers"] = layers.complete(values, absent)
        result["absent"] = absent
        result["trace_file"] = str(tracer.write(workload.name, seed))
        result["spans"] = len(tracer.spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    start = time.perf_counter()
    query().build_params(num_provers=PROVERS, group=workload.group, nb_override=workload.nb)
    group_setup_s = time.perf_counter() - start
    print("ready", flush=True)
    if args.setup_only:
        return 0
    result = run(workload, args.seed, args.seconds, bool(args.trace), group_setup_s)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
