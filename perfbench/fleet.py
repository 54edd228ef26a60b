"""The ``serve-fleet`` workload: a live fleet behind its TCP gateway.

The system under test is ``python -m repro serve --fleet --listen 0``
(p64-sim, buffered, F=2 front-ends x capacity 2).  One benchmark thread
drives it as a closed loop of F x capacity callers over one TCP
connection: it keeps that many sessions in flight and writes the next
request as soon as a reply arrives, until ``--seconds`` have passed;
the sessions still in flight then finish.  Requests (client values and
per-session seeds) come from ``repro.loadgen.build_plan`` under the
run's seed.

``setup_s`` runs from starting the server process to the gateway's
first ``{"op": "ping"}`` reply, and includes forking the front-ends.
The fleet is stopped with SIGINT, which drains it; a process of the
fleet still alive afterwards is killed and counted as a failure.  After
the fleet is gone, every reply's ``accepted``, ``estimate`` and
``release_bytes`` is compared with a solo seeded ``Session`` replay.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
import urllib.request

from procs import Child, solo_replays
from reference import fields, solo
from spans import Tracer
from workloads import PROVERS, WORKLOADS, tag

WORKLOAD = WORKLOADS["serve-fleet"]
CALLERS = WORKLOAD.frontends * WORKLOAD.capacity
STARTUP_S = 60.0  # server start to gateway up
REPLY_S = 60.0  # longest wait for one gateway reply before the rest count as lost
_GATEWAY = re.compile(r"^fleet gateway: [^:]+:(\d+)")
_METRICS = re.compile(r"^metrics: http://[^:]+:(\d+)/metrics")


def _descendants(root_pid: int) -> list[int]:
    """Every live process below ``root_pid`` (scans /proc)."""
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        parents.setdefault(ppid, []).append(int(entry))
    found, frontier = [], [root_pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


def _peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class Fleet:
    """One fleet server process plus the benchmark's gateway connection."""

    def __init__(self, env: dict, *, metrics: bool) -> None:
        cmd = [
            sys.executable, "-m", "repro", "serve", "--fleet", "--listen", "0",
            "--frontends", str(WORKLOAD.frontends),
            "--capacity", str(WORKLOAD.capacity),
            "--servers", str(PROVERS),
            "--nb", str(WORKLOAD.nb),
            "--clients", str(WORKLOAD.clients),
            "--group", WORKLOAD.group,
        ]  # fmt: skip
        if metrics:
            cmd += ["--metrics-port", "0"]
        self.metrics_port = None
        self.port = None
        self.sock = None
        self.child = Child(cmd, env=env)
        try:
            self.port = self._await_gateway(metrics, self.child.started + STARTUP_S)
            self.sock = socket.create_connection(("127.0.0.1", self.port), timeout=REPLY_S)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._replies = self.sock.makefile("rb")
            self.sock.sendall(b'{"op":"ping"}\n')
            if json.loads(self._replies.readline()) != {"ok": True}:
                raise RuntimeError("gateway ping failed")
            self.setup_s = time.perf_counter() - self.child.started
        except BaseException:
            self.stop()
            raise

    def _await_gateway(self, metrics: bool, deadline: float) -> int:
        while (line := self.child.line(deadline)) is not None:
            if found := _METRICS.match(line):
                self.metrics_port = int(found.group(1))
            if found := _GATEWAY.match(line):
                if metrics and self.metrics_port is None:
                    raise RuntimeError("gateway up before the metrics endpoint")
                return int(found.group(1))
        raise RuntimeError(f"fleet server exited with {self.child.proc.wait()}")

    def send(self, line: bytes) -> None:
        self.sock.sendall(line)

    def reply(self) -> dict:
        raw = self._replies.readline()
        if not raw:
            raise ConnectionError("gateway closed the connection")
        return json.loads(raw)

    def peak_rss_mb(self) -> float:
        """VmHWM of the largest process of the fleet."""
        pid = self.child.proc.pid
        pids = [pid] + _descendants(pid)
        return max(_peak_rss_mb(pid) for pid in pids)

    def scrape(self) -> str:
        url = f"http://127.0.0.1:{self.metrics_port}/metrics"
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.read().decode("utf-8")

    def _wake_gateway(self) -> None:
        """Connect once more after SIGINT.  Closing the gateway's listener
        does not wake its thread blocked in ``accept()``, so without a
        connection to accept, the server's shutdown waits out that
        thread's 5-second join on every stop."""
        deadline = time.perf_counter() + 2.0
        while (
            self.port is not None
            and self.child.proc.poll() is None
            and time.perf_counter() < deadline
        ):
            try:
                socket.create_connection(("127.0.0.1", self.port), timeout=1.0).close()
            except OSError:
                return  # listener gone: nothing left to wake
            time.sleep(0.05)

    def stop(self, timeout: float = 60.0) -> int:
        """Drain with SIGINT.  Returns the number of failures: fleet
        processes that outlived the server, plus the server itself when it
        did not exit cleanly.  Everything left is killed."""
        proc = self.child.proc
        members = _descendants(proc.pid)
        if self.sock is not None:
            self._replies.close()
            self.sock.close()
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            self._wake_gateway()
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            code = None
        survivors = [pid for pid in members if _alive(pid)]
        deadline = time.perf_counter() + 5.0
        while survivors and time.perf_counter() < deadline:
            time.sleep(0.05)
            survivors = [pid for pid in survivors if _alive(pid)]
        for pid in survivors:
            print(f"serve-fleet: fleet process {pid} outlived the server", file=sys.stderr)
        self.child.kill()
        return len(survivors) + (0 if code == 0 else 1)


def closed_loop(fleet: Fleet, arrivals, seconds: float) -> dict:
    """Keep CALLERS sessions in flight until ``seconds`` pass; then let the
    in-flight ones finish.  Returns per-session outcomes and the window."""
    sent_at: dict[int, float] = {}
    outcomes: dict[int, dict] = {}
    pending = iter(arrivals)
    payloads = {}

    def send_next() -> None:
        arrival = next(pending, None)
        if arrival is not None:
            payloads[arrival.index] = arrival.payload
            sent_at[arrival.index] = time.perf_counter()
            fleet.send(arrival.line)

    start = time.perf_counter()
    for _ in range(CALLERS):
        send_next()
    end = start
    try:
        while len(outcomes) < len(sent_at):
            reply = fleet.reply()
            end = time.perf_counter()
            rid = reply.get("id")
            if rid not in sent_at or rid in outcomes:
                raise RuntimeError(f"unexpected gateway reply {reply}")
            reply["latency_s"] = end - sent_at[rid]
            outcomes[rid] = reply
            if end - start < seconds:
                send_next()
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"serve-fleet: closed loop stopped: {exc}", file=sys.stderr)
    for rid in sent_at:
        outcomes.setdefault(rid, {"id": rid, "status": "lost"})
    return {
        "outcomes": [outcomes[rid] for rid in sorted(outcomes)],
        "payloads": payloads,
        "window_s": end - start,
    }


def check(loop: dict, solo: dict[int, dict]) -> None:
    """Mark every reply ``matches`` iff it equals its solo replay."""
    for outcome in loop["outcomes"]:
        expected = solo.get(outcome["id"])
        outcome["matches"] = outcome.get("status") == "released" and all(
            outcome.get(key) == expected[key]
            for key in ("accepted", "estimate", "release_bytes")
        )


def replay_all(env: dict, payloads: dict, deadline: float) -> dict[int, dict]:
    """Solo replays of every served request, in two fresh interpreters."""
    order = sorted(payloads)
    jobs = [
        {"workload": WORKLOAD.name, "seed": payloads[i]["seed"], "values": payloads[i]["values"]}
        for i in order
    ]
    return dict(zip(order, solo_replays(jobs, env, deadline)))


def plan_arrivals(seed: int, seconds: float):
    """Enough seeded requests for the window (the arrival times are not used:
    the loop is closed)."""
    from repro.loadgen import build_plan

    needed = int(100 * seconds) + 4 * CALLERS
    plan = build_plan(
        rate=1000.0,
        duration=1.5 * needed / 1000.0,
        seed=tag("serve-fleet", seed),
        clients=WORKLOAD.clients,
        churn=1,
    )
    return plan.arrivals


def parse_metrics(text: str) -> dict[str, float]:
    """Sum every sample of each Prometheus series name (labels folded),
    keyed ``name`` and ``name{label="value"}``."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        out[key] = out.get(key, 0.0) + float(value)
        name = key.split("{", 1)[0]
        if name != key:
            out[name] = out.get(name, 0.0) + float(value)
    return out


def _sessions(loop: dict) -> list[dict]:
    return [
        {
            "i": outcome["id"],
            "status": outcome.get("status"),
            "accepted": outcome.get("accepted"),
            "matches": outcome.get("matches", False),
            "session_s": outcome.get("latency_s"),
            "service_s": outcome.get("elapsed_s"),
            "frontend": outcome.get("frontend"),
        }
        for outcome in loop["outcomes"]
    ]


def _released(sessions: list[dict]) -> list[dict]:
    return [s for s in sessions if s["status"] == "released"]


def measure(env: dict, seed: int, seconds: float, setup_samples: int, deadline: float) -> dict:
    """Untraced run: ``setup_samples`` fleet start-ups (the last one serves
    the timed window), then the output check."""
    arrivals = plan_arrivals(seed, seconds)
    infra = 0
    setup = []
    for sample in range(setup_samples):
        fleet = Fleet(env, metrics=False)
        setup.append(fleet.setup_s)
        if sample + 1 < setup_samples:
            infra += fleet.stop()
    try:
        loop = closed_loop(fleet, arrivals, seconds)
        peak_rss_mb = fleet.peak_rss_mb()
    finally:
        infra += fleet.stop()
    check(loop, replay_all(env, loop["payloads"], deadline))
    return {
        "setup_s": setup,
        "sessions": _sessions(loop),
        "window_s": loop["window_s"],
        "peak_rss_mb": peak_rss_mb,
        "infra_failures": infra,
    }


def _replay_traced(payloads: dict) -> tuple[dict[int, dict], list[dict], Tracer]:
    """Replay the served requests in-process as solo ``Session``s,
    alternately untraced and traced.  Returns each replay's reply fields,
    each replay's wall time and bus counts, and the tracer."""
    tracer = Tracer()
    replayed, runs = {}, []
    for k, (index, payload) in enumerate(sorted(payloads.items())):
        traced = k % 2 == 1
        if traced:
            tracer.session = index
            tracer.install()
        try:
            start = time.perf_counter()
            if traced:
                with tracer.span("session"):
                    _, result = solo(WORKLOAD.name, payload["seed"], payload["values"])
            else:
                _, result = solo(WORKLOAD.name, payload["seed"], payload["values"])
            seconds = time.perf_counter() - start
        finally:
            if traced:
                tracer.uninstall()
        # Encoded with the tracer gone, so the check is not counted as codec work.
        replayed[index] = fields(result.release)
        network = result.engine_result.network
        runs.append(
            {
                "traced": traced,
                "seconds": seconds,
                "bus_messages": network.total_messages(),
                "bus_bytes": network.total_bytes(),
            }
        )
    return replayed, runs, tracer


def measure_traced(env: dict, seed: int, seconds: float) -> dict:
    """Traced run: one fleet window with ``--metrics-port 0`` (reply fields
    and the ``/metrics`` scrape), then its served sessions replayed
    in-process, every other one under the tracer."""
    import layers
    from reference import query
    from spans import summarize

    arrivals = plan_arrivals(seed, seconds)
    fleet = Fleet(env, metrics=True)
    try:
        served_loop = closed_loop(fleet, arrivals, seconds)
        scraped = parse_metrics(fleet.scrape())
    finally:
        infra = fleet.stop()

    start = time.perf_counter()
    query().build_params(
        num_provers=PROVERS, group=WORKLOAD.group, nb_override=WORKLOAD.nb
    )
    group_setup_s = time.perf_counter() - start
    replayed, runs, tracer = _replay_traced(served_loop["payloads"])
    check(served_loop, replayed)
    traced = [r for r in runs if r["traced"]]
    plain = [r for r in runs if not r["traced"]]
    if not traced or not plain:
        raise RuntimeError("traced run needs a traced and an untraced replay")

    sessions = _sessions(served_loop)
    values = layers.from_spans(summarize(tracer.spans), tracer.counters, len(traced))
    values["crypto.group_setup.s"] = group_setup_s
    values["mpc.bus.messages"] = sum(r["bus_messages"] for r in runs) / len(runs)
    values["mpc.bus.bytes"] = sum(r["bus_bytes"] for r in runs) / len(runs)
    completed = scraped["repro_sessions_completed_total"]
    engine_s = 0.0
    for phase in layers.PHASES:
        seconds_in_phase = scraped.get(f'repro_engine_phase_seconds_sum{{phase="{phase}"}}', 0.0)
        values[f"api.phase.{phase}.s"] = seconds_in_phase / completed
        engine_s += seconds_in_phase / completed
    served = _released(sessions)
    values.update(
        layers.serving(
            [s["session_s"] for s in served], [s["service_s"] for s in served], [engine_s]
        )
    )
    values["fleet.stolen"] = scraped.get("repro_sessions_stolen_total", 0.0)
    values["fleet.restarts"] = scraped.get("repro_frontend_restarts_total", 0.0)
    per_frontend: dict[str, int] = {}
    for s in served:
        per_frontend[s["frontend"]] = per_frontend.get(s["frontend"], 0) + 1
    counts = [per_frontend.get(f"fe-{k}", 0) for k in range(WORKLOAD.frontends)]
    values["fleet.frontend_skew"] = max(counts) / max(1, min(counts))
    # Traced over untraced replay rate: the fleet itself is not traced.
    values["trace.overhead_ratio"] = (len(traced) / sum(r["seconds"] for r in traced)) / (
        len(plain) / sum(r["seconds"] for r in plain)
    )
    path = tracer.write(WORKLOAD.name, seed)
    return {
        "sessions": sessions,
        "infra_failures": infra,
        "layers": layers.complete(values, {}),
        "trace_file": str(path),
        "spans": len(tracer.spans),
    }
