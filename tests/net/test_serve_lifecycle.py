"""Serving-layer lifecycle regressions: startup leaks and teardown stalls.

Bugs fixed in the serve layer, pinned here:

* a failed ``accept`` on the socket front-end used to leak every
  started child process *and* the listening socket — the cleanup
  closure was only returned on success;
* peer shutdown used to be serial with a full protocol-timeout recv per
  peer, so one dead peer stalled teardown by timeout × remaining peers,
  and the bare ``except ReproError: pass`` discarded which peer was
  dead;
* ``repro serve`` used to exit the same way for a protocol abort and
  dead infrastructure, so a supervisor (the fleet dispatcher, CI, an
  init system) could not tell "a party cheated/went silent" from "the
  serving substrate broke" — now they are distinct exit codes with the
  attributed party on stderr;
* ``repro serve --fleet --listen`` used to die on SIGTERM (exit -15)
  and leave its front-end processes running; SIGTERM now drains like
  Ctrl-C and exits 0;
* a pipe child used to keep every sibling's pipe end open, so a dead
  prover was blamed only after the full protocol timeout;
* an analyst-side abort on the in-memory bus used to leave its peers
  blocked in recv until their timeout, and teardown waited on them.
"""

import os
import pathlib
import select
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.api.queries import CountQuery
from repro.cli import _serve_parser
from repro.core.messages import AuditRecord
from repro.errors import ParameterError, ProtocolAbort
from repro.net import serve
from repro.net.nodes import ServerNode, shutdown_peers
from repro.net.transport import InMemoryHub
from repro.net.wire import decode_control, encode_abort_reply, encode_reply

DELTA = 2**-10


class _RecordingContext:
    """Wraps a multiprocessing context so the test can see every child
    the serve layer spawns (they are otherwise unreachable after a
    startup failure — which is exactly the bug)."""

    def __init__(self, context, spawned):
        self._context = context
        self._spawned = spawned

    def Process(self, *args, **kwargs):
        process = self._context.Process(*args, **kwargs)
        self._spawned.append(process)
        return process


class TestFailedStartupLeaks:
    def test_failed_socket_accept_terminates_children(self, monkeypatch):
        """Peer hosts that never handshake force an accept timeout on the
        socket front-end; the launcher must terminate every started child
        and close the listener instead of leaking them."""

        def never_connects(*args, **kwargs):  # runs in the forked child
            time.sleep(120)

        monkeypatch.setattr(serve, "_async_server_main", never_connects)
        monkeypatch.setattr(serve, "_async_clients_main", never_connects)
        spawned = []
        real_get_context = serve.get_context
        monkeypatch.setattr(
            serve,
            "get_context",
            lambda kind: _RecordingContext(real_get_context(kind), spawned),
        )
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        start = time.monotonic()
        with pytest.raises(ProtocolAbort):
            serve.run_sessions(
                CountQuery(epsilon=1.0, delta=DELTA),
                [1, 0],
                transport="socket",
                num_servers=2,
                nb_override=16,
                seed="leak",
                port=port,
                timeout=1.0,
            )
        assert time.monotonic() - start < 30.0
        assert len(spawned) == 3  # 2 server hosts + 1 client host
        for process in spawned:
            process.join(timeout=10.0)
        assert all(not process.is_alive() for process in spawned), (
            "failed accept leaked live children"
        )
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", port), timeout=5.0)

    def test_successful_socket_startup_unaffected(self):
        """The guarded startup still serves and tears down cleanly on the
        happy path (exercised fully elsewhere; here just the guard's
        pass-through)."""
        outcome = serve.run_sessions(
            CountQuery(epsilon=1.0, delta=DELTA),
            [1, 0, 1],
            transport="socket",
            num_servers=1,
            group="p64-sim",
            nb_override=16,
            seed="lifecycle",
            timeout=60.0,
        )
        assert outcome["accepted"] and outcome["byte_identical"]


class TestPromptAbortTeardown:
    def test_dead_prover_on_pipes_is_blamed_promptly(self, monkeypatch):
        """prover-1's child dies before Morra.  Its pipe reaches EOF only
        once no sibling holds an inherited copy of its end, so the
        analyst names it at once instead of after the 30 s timeout."""
        real_dispatch = ServerNode._dispatch

        def dies_before_morra(self, method, parts):  # runs in the child
            if method == "morra-sample" and self.prover.name == "prover-1":
                os._exit(1)
            return real_dispatch(self, method, parts)

        monkeypatch.setattr(ServerNode, "_dispatch", dies_before_morra)
        start = time.monotonic()
        with pytest.raises(ProtocolAbort) as excinfo:
            serve.run_sessions(
                CountQuery(epsilon=1.0, delta=DELTA),
                [1, 0, 1, 1],
                transport="multiprocess",
                num_servers=2,
                nb_override=16,
                seed="dead-prover",
                timeout=30.0,
            )
        assert excinfo.value.party == "prover-1"
        assert time.monotonic() - start < 5.0

    def test_memory_abort_teardown_is_prompt(self, monkeypatch):
        """prover-1 rejects setup, so the analyst aborts at once.  Nothing
        closes under the peers still blocked in recv on the in-memory
        bus; the launcher's one-way abort must wake them, or teardown
        waits out the 30 s timeout."""
        real_setup = ServerNode._setup

        def rejecting_setup(self):
            if self.transport.name != "prover-1":
                return real_setup(self)
            self.transport.recv(self.analyst, self.timeout)
            self.transport.send(self.analyst, encode_abort_reply("setup refused"))
            raise ProtocolAbort("setup refused", party="prover-1")

        monkeypatch.setattr(ServerNode, "_setup", rejecting_setup)
        start = time.monotonic()
        with pytest.raises(ProtocolAbort) as excinfo:
            serve.run_sessions(
                CountQuery(epsilon=1.0, delta=DELTA),
                [1, 0, 1],
                transport="memory",
                num_servers=2,
                shards=1,
                nb_override=16,
                seed="memory-abort",
                timeout=30.0,
            )
        assert excinfo.value.party == "prover-1"
        assert time.monotonic() - start < 5.0


class TestConcurrentShutdown:
    def _hub_with_peers(self, alive, dead):
        hub = InMemoryHub()
        analyst = hub.endpoint("analyst")
        threads = []
        for name in alive:
            endpoint = hub.endpoint(name)

            def ack(endpoint=endpoint):
                frame = endpoint.recv("analyst", timeout=10.0)
                kind, _ = decode_control(frame)
                assert kind == "shutdown"
                endpoint.send("analyst", encode_reply())

            threads.append(threading.Thread(target=ack, daemon=True))
        for name in dead:
            hub.endpoint(name)  # registered, never answers
        for thread in threads:
            thread.start()
        return analyst, threads

    def test_one_dead_peer_costs_grace_not_timeout_per_peer(self):
        """Old behavior: timeout recv per dead peer, serially — here
        60 s × 1 dead peer before the last healthy ack.  New behavior:
        every shutdown is sent first, acks collect under one short
        shared grace, and the dead peer is named in the audit."""
        analyst, threads = self._hub_with_peers(
            alive=["prover-0", "prover-2"], dead=["prover-1"]
        )
        audit = AuditRecord()
        start = time.monotonic()
        unresponsive = shutdown_peers(
            analyst,
            ["prover-0", "prover-1", "prover-2"],
            60.0,
            audit,
            grace=0.5,
        )
        elapsed = time.monotonic() - start
        assert unresponsive == ["prover-1"]
        assert elapsed < 10.0, f"teardown stalled {elapsed:.1f}s"
        assert any(
            "unresponsive at shutdown" in note and "prover-1" in note
            for note in audit.notes
        ), audit.notes
        for thread in threads:
            thread.join(timeout=10.0)

    def test_all_healthy_peers_ack_and_nothing_is_noted(self):
        analyst, threads = self._hub_with_peers(
            alive=["prover-0", "prover-1"], dead=[]
        )
        audit = AuditRecord()
        unresponsive = shutdown_peers(
            analyst, ["prover-0", "prover-1"], 60.0, audit, grace=5.0
        )
        assert unresponsive == []
        assert audit.notes == []
        for thread in threads:
            thread.join(timeout=10.0)


class TestExitCodes:
    """`repro serve` exit codes: a supervisor must be able to tell a
    protocol abort (restartable policy decision) from dead
    infrastructure (restart the substrate) without parsing stderr —
    though stderr does name the attributed party."""

    def _args(self, *extra):
        return _serve_parser().parse_args(list(extra))

    def test_protocol_abort_exits_3_with_party_on_stderr(
        self, monkeypatch, capsys
    ):
        def abort(*args, **kwargs):
            raise ProtocolAbort("prover went silent mid-Morra", party="prover-1")

        monkeypatch.setattr(serve, "run_sessions", abort)
        code = serve.main(self._args())
        assert code == serve.EXIT_PROTOCOL_ABORT == 3
        err = capsys.readouterr().err
        assert "protocol abort" in err
        assert "prover-1" in err

    def test_unattributed_abort_still_exits_3(self, monkeypatch, capsys):
        def abort(*args, **kwargs):
            raise ProtocolAbort("timed out accepting peers")

        monkeypatch.setattr(serve, "run_sessions", abort)
        code = serve.main(self._args("--transport", "socket", "--sessions", "2"))
        assert code == serve.EXIT_PROTOCOL_ABORT
        assert "unattributed" in capsys.readouterr().err

    def test_infrastructure_crash_exits_4(self, monkeypatch, capsys):
        def crash(*args, **kwargs):
            raise OSError("address already in use")

        monkeypatch.setattr(serve, "run_sessions", crash)
        code = serve.main(self._args("--fleet"))
        assert code == serve.EXIT_INFRA_CRASH == 4
        err = capsys.readouterr().err
        assert "infrastructure crash" in err
        assert "address already in use" in err

    def test_usage_error_exits_2(self, monkeypatch, capsys):
        def reject(*args, **kwargs):
            raise ParameterError("shards must be >= 0")

        monkeypatch.setattr(serve, "run_sessions", reject)
        code = serve.main(self._args())
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    def test_abort_and_crash_codes_are_distinct_and_nonzero(self):
        assert serve.EXIT_PROTOCOL_ABORT != serve.EXIT_INFRA_CRASH
        assert serve.EXIT_PROTOCOL_ABORT not in (0, 1, 2)
        assert serve.EXIT_INFRA_CRASH not in (0, 1, 2)


def _descendants(root_pid):
    """Every process below ``root_pid`` (scans /proc)."""
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        parents.setdefault(int(stat.rsplit(")", 1)[1].split()[1]), []).append(int(entry))
    found, frontier = [], [root_pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


def _catches_sigterm(pid):
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("SigCgt:"):
                return bool(int(line.split()[1], 16) >> (signal.SIGTERM - 1) & 1)
    return False


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class TestFleetGatewaySigterm:
    def test_sigterm_drains_and_leaves_no_frontend(self):
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--fleet", "--listen", "0",
                "--frontends", "2", "--capacity", "1", "--servers", "2",
                "--nb", "16", "--clients", "2", "--group", "p64-sim",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )  # fmt: skip
        members = []
        try:
            deadline = time.monotonic() + 60.0
            line = ""
            while not line.startswith("fleet gateway:"):
                remaining = deadline - time.monotonic()
                assert remaining > 0, "gateway never came up"
                ready, _, _ = select.select([proc.stdout], [], [], remaining)
                line = proc.stdout.readline() if ready else ""
                assert line or proc.poll() is None, proc.stderr.read()
            members = _descendants(proc.pid)
            assert members, "the fleet has no front-end processes"
            # The server drains on SIGTERM; its forked front-ends must not
            # inherit that handler, or terminate() could no longer kill them.
            assert _catches_sigterm(proc.pid)
            assert not any(_catches_sigterm(pid) for pid in members)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60.0) == 0
            deadline = time.monotonic() + 5.0
            while any(_alive(pid) for pid in members) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in members if _alive(pid)] == []
            assert "gateway summary:" in proc.stdout.read()
        finally:
            if proc.poll() is None:
                proc.kill()
            for pid in members:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
            proc.wait()
