"""Async serving: one front-end multiplexing many sessions.

A deployment built on :mod:`repro.net.nodes` runs exactly one protocol
session per process: the front-end blocks in ``recv`` whenever a prover
is computing a Σ-proof or a client population is enrolling, and that
idle time is simply lost.  This module turns the front-end into a
multiplexer:

* :class:`AsyncSocketTransport` — the TCP transport over ``asyncio``
  streams.  Same length-prefixed frame protocol, same
  ``max_frame_bytes`` cap and whole-frame deadline semantics as the
  blocking :class:`~repro.net.transport.SocketTransport`, byte-for-byte
  wire compatible with it (session 0 traffic is the v1 format
  unchanged).  Each connection announces a *scope* in its handshake
  header — one session, or :data:`~repro.net.transport.SESSION_ANY` for
  a multi-session host — and a per-connection reader task demultiplexes
  inbound frames to per-``(peer, session)`` queues by the session id in
  the v2 frame header (v1 frames route to session 0).
* :class:`SessionChannel` — a synchronous
  :class:`~repro.net.transport.Transport` facade over one session of a
  shared :class:`AsyncSocketTransport`.  The protocol engine and the
  role nodes are synchronous and stay *unchanged*; a channel bridges
  their blocking ``send``/``recv`` calls into the owning event loop with
  ``asyncio.run_coroutine_threadsafe``.
* :class:`SessionMux` — the multiplexing front-end: N concurrent
  sessions in one process.  Each session is an asyncio task driving an
  unchanged :class:`~repro.net.nodes.AnalystNode` (hence the unchanged
  :class:`~repro.api.engine.ProtocolEngine` with its
  :class:`~repro.net.nodes.RemoteProver` proxies) on an executor
  thread; while one session's engine waits on a prover RPC or a client
  chunk, the event loop keeps every other session's frames moving.
  Under seeded RNG each released session is byte-identical to a solo
  in-process :class:`repro.api.Session` run with the same seed.
* :class:`AsyncServerNode` / :class:`AsyncClientRunner` — multi-session
  peers: thin wrappers hosting one unchanged
  :class:`~repro.net.nodes.ServerNode` /
  :class:`~repro.net.nodes.ClientRunner` per session over one shared
  connection.  The prover and client logic is untouched.

Mixed topologies interoperate: a plain blocking
``SocketTransport.connect(..., session=s)`` peer serves exactly session
*s* of a mux (its scoped handshake routes it), while a session-0-only
legacy peer works against a mux front-end with no changes at all.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.api.engine import EngineResult
from repro.api.queries import Query
from repro.errors import ParameterError, ProtocolAbort, ReproError
from repro.net import wire
from repro.net.nodes import AnalystNode, ClientRunner, ServerNode
from repro.net.transport import (
    _HANDSHAKE_MAX_BYTES,
    _LEN,
    _MAX_DROPPED_NOTES,
    _V2_FLAG,
    DEFAULT_MAX_FRAME_BYTES,
    SESSION_ANY,
    Transport,
    check_frame_size,
    check_session_id,
    pack_frame,
    pack_handshake,
    split_header_word,
)
from repro.utils.rng import RNG, SystemRNG

__all__ = [
    "AsyncSocketTransport",
    "SessionChannel",
    "SessionMux",
    "SessionSpec",
    "AsyncServerNode",
    "AsyncClientRunner",
    "abort_session_peers",
]

# Queue sentinel: the connection feeding this queue failed; the reason
# lives on the connection record.
_FAILED = object()


class _SessionMap(dict):
    """Per-session bookkeeping: a dict that reads ``None`` for sessions
    it has no entry for, so ``mux.results[s]``/``mux.errors[s]`` keep the
    pre-dynamic-mux list semantics (absent == not recorded)."""

    def __missing__(self, key):
        return None

_DEFAULT_HANDSHAKE_TIMEOUT = 30.0

# Inbound frames a (peer, session) queue buffers before the reader task
# stops draining that connection's TCP stream.  This is the async
# equivalent of the blocking transport's kernel-buffer backpressure: a
# peer flooding frames faster than the engine consumes them fills the
# queue, then its own socket, then blocks — it cannot grow front-end
# memory without bound.
_MAX_QUEUED_FRAMES = 1024

# Distinct session ids one connection may touch: far above any real
# deployment's session count, low enough that a registered-but-hostile
# peer spraying random session ids cannot materialize queues forever.
_MAX_SESSIONS_PER_CONN = 4096


class _Conn:
    """One accepted or dialed connection: a scope, streams, a reader task."""

    __slots__ = ("peer", "scope", "reader", "writer", "task", "failure", "sessions")

    def __init__(self, peer, scope, reader, writer):
        self.peer = peer
        self.scope = scope  # a session id, or SESSION_ANY
        self.reader = reader
        self.writer = writer
        self.task: asyncio.Task | None = None
        self.failure: str | None = None
        self.sessions: set[int] = set()


class AsyncSocketTransport:
    """TCP frames over asyncio streams, demultiplexed by session id.

    The async counterpart of :class:`~repro.net.transport.SocketTransport`
    — same frame protocol, caps and abort semantics — except ``send`` and
    ``recv`` take a ``session`` and one transport carries any number of
    concurrent sessions over its connections.  Outbound frames route to
    the connection scoped to that exact session if one exists, else to
    the peer's :data:`SESSION_ANY` connection; inbound frames route to
    per-``(peer, session)`` queues by their header's session id.

    All methods must run on the owning event loop; synchronous code uses
    a :class:`SessionChannel`.
    """

    def __init__(
        self, name: str, *, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
    ) -> None:
        if not 1 <= max_frame_bytes < _V2_FLAG:
            raise ParameterError("max_frame_bytes must be in [1, 2**31)")
        self.name = name
        self.max_frame_bytes = max_frame_bytes
        self.bytes_sent = 0
        self.bytes_received = 0
        self.frames_sent = 0
        self.frames_received = 0
        self.dropped_handshakes: list[str] = []
        self._dropped_overflow = 0
        self._conns: dict[tuple[str, int], _Conn] = {}
        self._queues: dict[tuple[str, int], asyncio.Queue] = {}
        self._server: asyncio.base_events.Server | None = None
        self._accepted: asyncio.Queue[str] = asyncio.Queue()
        self._accept_expected: list | None = None
        self._accept_active = False
        self._accept_deadline: float | None = None
        self._locked_down = False
        # Standing expectation filter, consulted whenever no accept() is
        # in flight.  A fleet front-end keeps its listener open for the
        # whole deployment (sessions arrive dynamically, each bringing
        # scoped peer connections), so unlike the static-topology mux it
        # cannot lock down — this filter is what keeps the idle listener
        # from handshaking strangers between placements (default None
        # preserves the historical allow-any behavior; [] drops all).
        self.default_expected: list | None = None
        self.port: int | None = None

    # Construction -----------------------------------------------------------

    @classmethod
    async def listen(
        cls,
        name: str,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        sock=None,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> "AsyncSocketTransport":
        """Start the listener (``sock``: adopt a pre-bound listening
        socket, e.g. one created before forking peer processes)."""
        transport = cls(name, max_frame_bytes=max_frame_bytes)
        if sock is not None:
            server = await asyncio.start_server(transport._handle_connection, sock=sock)
        else:
            server = await asyncio.start_server(transport._handle_connection, host, port)
        transport._server = server
        transport.port = server.sockets[0].getsockname()[1]
        return transport

    @classmethod
    async def connect(
        cls,
        name: str,
        peer: str,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        session: int = SESSION_ANY,
        timeout: float | None = 30.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> "AsyncSocketTransport":
        """Dial ``peer`` and handshake.  The default scope announces a
        multi-session host; pass a session id to bind one session."""
        transport = cls(name, max_frame_bytes=max_frame_bytes)
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout
        )
        writer.write(pack_handshake(name, session))
        await writer.drain()
        transport._register(_Conn(peer, session, reader, writer))
        return transport

    def _register(self, conn: _Conn) -> None:
        self._conns[(conn.peer, conn.scope)] = conn
        conn.task = asyncio.ensure_future(self._reader_loop(conn))

    # Accepting --------------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        if self._locked_down:
            # Serving topologies are fixed at accept time; a connection
            # arriving mid-session is hostile (or lost) and must not be
            # registered, read from, or buffered.
            self._note_dropped("<connection after lockdown>")
            writer.close()
            return
        try:
            scope, raw = await self._read_wire_frame(
                reader,
                max_bytes=_HANDSHAKE_MAX_BYTES,
                party="connecting peer",
                handshake=True,
                timeout=self._handshake_timeout(),
            )
            peer = raw.decode()
        except (ProtocolAbort, UnicodeDecodeError, asyncio.TimeoutError, OSError):
            self._note_dropped("<unreadable handshake>")
            writer.close()
            return
        if self._locked_down:
            # Re-checked after the read: a peer that connected inside the
            # accept window but trickled its handshake until after
            # lockdown must not slip past the (now disarmed) expectation
            # filter and register — e.g. claiming an expected name under
            # a session scope to capture that session's routing.
            self._note_dropped("<connection after lockdown>")
            writer.close()
            return
        if not self._handshake_expected(peer, scope):
            label = "" if scope == SESSION_ANY else f" (session {scope})"
            self._note_dropped(f"unexpected name {peer[:64]!r}{label}")
            writer.close()
            return
        if (peer, scope) in self._conns:
            label = "" if scope == SESSION_ANY else f" (session {scope})"
            self._note_dropped(f"duplicate name {peer[:64]!r}{label}")
            writer.close()
            return
        self._register(_Conn(peer, scope, reader, writer))
        self._accepted.put_nowait(peer)

    def _handshake_expected(self, peer: str, scope: int) -> bool:
        """Apply the accept() expectation filter to one handshake.

        A plain name admits that peer at any scope; a ``(name, scope)``
        pair pins the scope too — which is what stops an impostor from
        registering an expected *name* under a session scope the real
        (``SESSION_ANY``) peer does not occupy and hijacking that
        session's traffic (exact-scope connections outrank the ANY one
        on the send path).
        """
        expected = (
            self._accept_expected if self._accept_active else self.default_expected
        )
        if expected is None:
            return True
        for entry in expected:
            if isinstance(entry, tuple):
                if entry == (peer, scope):
                    return True
            elif entry == peer:
                return True
        return False

    def _handshake_timeout(self) -> float:
        if self._accept_deadline is not None:
            return max(self._accept_deadline - time.monotonic(), 0.01)
        return _DEFAULT_HANDSHAKE_TIMEOUT

    async def accept(
        self,
        count: int,
        timeout: float | None = 30.0,
        *,
        expected: list | None = None,
    ) -> list[str]:
        """Await ``count`` handshaken connections; returns their names
        (one entry per connection — a name repeats when the same peer
        connects once per session scope).

        ``expected`` entries are peer names, or ``(name, scope)`` pairs
        to additionally pin the handshake's session scope — a front-end
        whose topology is known should pin scopes, so a hostile peer
        cannot claim an expected name under an unoccupied session scope.

        Mirrors the blocking transport's hardening: broken, duplicate or
        unexpected handshakes are dropped while accepting continues under
        one overall monotonic deadline, and the timeout abort names every
        dropped handshake.  Call :meth:`lockdown` once the topology is
        complete.
        """
        if self._server is None:
            raise ParameterError("accept requires a listening transport")
        deadline = None if timeout is None else time.monotonic() + timeout
        self._accept_deadline = deadline
        self._accept_expected = list(expected) if expected is not None else None
        self._accept_active = True
        names: list[str] = []
        try:
            while len(names) < count:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise ProtocolAbort(self._accept_timeout_message())  # repro: allow[REP004] -- no single culprit: the timeout message names every absent peer
                try:
                    names.append(await asyncio.wait_for(self._accepted.get(), remaining))
                except asyncio.TimeoutError as exc:
                    raise ProtocolAbort(self._accept_timeout_message()) from exc  # repro: allow[REP004] -- no single culprit: the timeout message names every absent peer
            return names
        finally:
            self._accept_deadline = None
            self._accept_expected = None
            self._accept_active = False

    def lockdown(self) -> None:
        """Refuse all future connections: the topology is complete.

        The blocking transport never reads sockets outside ``accept``;
        this is the async listener's equivalent — without it, the open
        listener would keep handshaking (and buffering) strangers for as
        long as the mux serves.
        """
        self._locked_down = True

    def _note_dropped(self, label: str) -> None:
        if len(self.dropped_handshakes) < _MAX_DROPPED_NOTES:
            self.dropped_handshakes.append(label)
        else:
            self._dropped_overflow += 1

    def _accept_timeout_message(self) -> str:
        message = "timed out accepting peers"
        if self.dropped_handshakes:
            dropped = ", ".join(self.dropped_handshakes)
            if self._dropped_overflow:
                dropped += f", and {self._dropped_overflow} more"
            message += f" (dropped: {dropped})"
        return message

    # Frame IO ---------------------------------------------------------------

    async def _read_wire_frame(
        self,
        reader: asyncio.StreamReader,
        *,
        max_bytes: int,
        party: str,
        handshake: bool = False,
        timeout: float | None = None,
    ) -> tuple[int, bytes]:
        """One (session, frame); the timeout covers the *whole* frame —
        the same per-frame (never per-byte) deadline the blocking
        transport enforces."""

        async def read() -> tuple[int, bytes]:
            word = _LEN.unpack(await reader.readexactly(_LEN.size))[0]
            size, has_session = split_header_word(word)
            session = 0
            if has_session:
                session = _LEN.unpack(await reader.readexactly(_LEN.size))[0]
                check_session_id(session, party=party, handshake=handshake)
            check_frame_size(size, max_bytes, party)
            return session, await reader.readexactly(size)

        try:
            if timeout is None:
                return await read()
            return await asyncio.wait_for(read(), timeout)
        except asyncio.IncompleteReadError as exc:
            raise ProtocolAbort(
                f"{party!r} closed the connection", party=party
            ) from exc

    async def _reader_loop(self, conn: _Conn) -> None:
        """Pump one connection into the per-(peer, session) queues.

        The ``put`` awaits when a queue is full — backpressure through
        TCP onto the sending peer, exactly what the blocking transport
        gets from never reading faster than ``recv`` is called.
        """
        try:
            while True:
                session, frame = await self._read_wire_frame(
                    conn.reader, max_bytes=self.max_frame_bytes, party=conn.peer
                )
                if conn.scope != SESSION_ANY and session != conn.scope:
                    raise ProtocolAbort(
                        f"{conn.peer!r} sent a session-{session} frame on a "
                        f"session-{conn.scope} channel",
                        party=conn.peer,
                    )
                conn.sessions.add(session)
                if len(conn.sessions) > _MAX_SESSIONS_PER_CONN:
                    raise ProtocolAbort(
                        f"{conn.peer!r} touched more than "
                        f"{_MAX_SESSIONS_PER_CONN} sessions",
                        party=conn.peer,
                    )
                self.bytes_received += len(frame)
                self.frames_received += 1
                await self._queue(conn.peer, session).put(frame)
        except ProtocolAbort as exc:
            self._fail_conn(conn, str(exc))
        except (OSError, EOFError) as exc:
            self._fail_conn(conn, f"socket to {conn.peer!r} failed: {exc}")
        except asyncio.CancelledError:
            self._fail_conn(conn, "transport closed")
            raise

    def _fail_conn(self, conn: _Conn, reason: str) -> None:
        if conn.failure is None:
            conn.failure = reason
        conn.writer.close()
        # Wake every receiver this connection feeds; late-created queues
        # (and receivers behind a full queue) consult conn.failure once
        # they drain.
        for (peer, session), queue in self._queues.items():
            if peer == conn.peer and self._conn_for(peer, session) is conn:
                try:
                    queue.put_nowait(_FAILED)
                except asyncio.QueueFull:
                    pass

    def _queue(self, peer: str, session: int) -> asyncio.Queue:
        queue = self._queues.get((peer, session))
        if queue is None:
            queue = self._queues[(peer, session)] = asyncio.Queue(_MAX_QUEUED_FRAMES)
        return queue

    def _conn_for(self, peer: str, session: int) -> _Conn | None:
        conn = self._conns.get((peer, session))
        if conn is None:
            conn = self._conns.get((peer, SESSION_ANY))
        return conn

    async def send(self, peer: str, frame: bytes, session: int = 0) -> None:
        """Deliver ``frame`` to ``peer`` within ``session`` (ordered per
        connection)."""
        if not isinstance(frame, (bytes, bytearray)):
            raise ParameterError("transports carry bytes frames only")
        conn = self._conn_for(peer, session)
        if conn is None:
            raise ParameterError(
                f"{self.name!r} has no channel to {peer!r} for session {session}"
            )
        if conn.failure is not None:
            raise ProtocolAbort(conn.failure, party=peer)
        conn.writer.write(pack_frame(bytes(frame), session))
        try:
            await conn.writer.drain()
        except (ConnectionError, OSError) as exc:
            self._fail_conn(conn, f"socket to {peer!r} failed: {exc}")
            raise ProtocolAbort(
                f"socket to {peer!r} failed: {exc}", party=peer
            ) from exc
        self.bytes_sent += len(frame)
        self.frames_sent += 1

    async def recv(
        self, peer: str, session: int = 0, timeout: float | None = None
    ) -> bytes:
        """Await the next frame from ``peer`` within ``session``.

        Raises :class:`ProtocolAbort` (party=peer) on timeout or a failed
        connection — identical semantics to the blocking transport.
        """
        queue = self._queue(peer, session)
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if not queue.empty():
                frame = queue.get_nowait()
            else:
                conn = self._conn_for(peer, session)
                if conn is not None and conn.failure is not None:
                    raise ProtocolAbort(conn.failure, party=peer)
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise ProtocolAbort(
                            f"{self.name!r} timed out waiting for {peer!r}",
                            party=peer,
                        )
                try:
                    frame = await asyncio.wait_for(queue.get(), remaining)
                except asyncio.TimeoutError as exc:
                    raise ProtocolAbort(
                        f"{self.name!r} timed out waiting for {peer!r}", party=peer
                    ) from exc
            if frame is _FAILED:
                # Leave the sentinel for any other waiter on this queue.
                try:
                    queue.put_nowait(_FAILED)
                except asyncio.QueueFull:
                    pass
                conn = self._conn_for(peer, session)
                reason = (conn.failure if conn is not None else None) or (
                    f"channel to {peer!r} closed"
                )
                raise ProtocolAbort(reason, party=peer)
            return frame

    async def release_session(self, session: int) -> None:
        """Forget one finished session: close its scoped connections and
        drop its demux queues.

        A long-lived front-end (the fleet worker) serves an unbounded
        stream of sessions, each arriving with its own scoped peer
        connections; without this the ``_conns``/``_queues`` maps — and
        the dead sockets behind them — grow for the deployment's
        lifetime.  ``SESSION_ANY`` connections are untouched: they belong
        to every session.
        """
        if not 0 <= session < SESSION_ANY:
            raise ParameterError("session id out of range")
        for (peer, scope), conn in list(self._conns.items()):
            if scope != session:
                continue
            del self._conns[(peer, scope)]
            if conn.task is not None:
                conn.task.cancel()
            conn.writer.close()
            if conn.task is not None:
                try:
                    await conn.task
                except (asyncio.CancelledError, Exception):  # pragma: no cover  # repro: allow[REP004] -- reaping a cancelled reader task at session close; its failure already surfaced as a queue abort with attribution
                    pass
        for key in [k for k in self._queues if k[1] == session]:
            del self._queues[key]

    async def aclose(self) -> None:
        """Close the listener and every connection; cancel reader tasks."""
        if self._server is not None:
            self._server.close()
            try:
                await self._server.wait_closed()
            except Exception:  # pragma: no cover  # repro: allow[REP004] -- best-effort listener close during teardown; nothing protocol-visible can be lost here
                pass
        for conn in list(self._conns.values()):
            if conn.task is not None:
                conn.task.cancel()
            conn.writer.close()
        for conn in list(self._conns.values()):
            if conn.task is not None:
                try:
                    await conn.task
                except (asyncio.CancelledError, Exception):  # pragma: no cover  # repro: allow[REP004] -- reaping cancelled reader tasks at transport close; reader failures already surfaced as queue aborts with attribution
                    pass


class SessionChannel(Transport):
    """One session of a shared :class:`AsyncSocketTransport`, presented as
    a synchronous :class:`~repro.net.transport.Transport`.

    Role nodes and the protocol engine are synchronous; a channel lets
    them run unchanged on executor threads while all socket I/O happens
    on the owning event loop (``asyncio.run_coroutine_threadsafe``).
    Timeouts are enforced inside the loop, so abort semantics — a
    :class:`ProtocolAbort` naming the silent party — are exactly those of
    the blocking transport.  ``close`` is a no-op: the shared async
    transport outlives its sessions and is closed by its owner.
    """

    def __init__(
        self,
        aio: AsyncSocketTransport,
        session: int,
        loop: asyncio.AbstractEventLoop,
    ) -> None:
        super().__init__(aio.name)
        if not 0 <= session < SESSION_ANY:
            raise ParameterError("session id out of range")
        self.aio = aio
        self.session = session
        self.loop = loop

    def _call(self, coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop).result()

    def _send(self, peer: str, frame: bytes) -> None:
        self._call(self.aio.send(peer, frame, session=self.session))

    def _recv(self, peer: str, timeout: float | None) -> bytes:
        return self._call(self.aio.recv(peer, session=self.session, timeout=timeout))


@dataclass
class SessionSpec:
    """What one multiplexed session runs: a query plus its knobs.

    ``rng`` seeds the session exactly as it would a solo
    :class:`repro.api.Session` — same fork labels, hence byte-identical
    releases.  A non-empty ``shards`` names :class:`ShardWorker` peers
    (scoped to this session on the shared transport) and the session is
    driven by a :class:`~repro.net.shard.ShardedAnalyst` instead of a
    plain :class:`~repro.net.nodes.AnalystNode` — the ``--transport
    socket --sessions N --shards S`` composition: one front-end
    multiplexes N sessions, each fanning its verification across S shard
    workers.
    """

    query: Query
    rng: RNG | None = None
    group: str = "modp-2048"
    nb_override: int | None = None
    chunk_size: int | None = None
    shards: tuple[str, ...] = ()


class SessionMux:
    """A serving front-end that runs N concurrent sessions in one process.

    Session *s* is an asyncio task driving an unchanged
    :class:`~repro.net.nodes.AnalystNode` over ``SessionChannel(s)`` on an
    executor thread: the engine, the ``RemoteProver`` proxies and every
    verification path are exactly the single-session code.  Whenever one
    session's engine blocks on a prover RPC or an enrollment chunk, the
    event loop keeps serving every other session's frames — the
    front-end's idle time becomes other sessions' progress.

    ``run`` returns per-session outcomes; a failed session (e.g. a dead
    prover mid-phase) records its exception without disturbing the
    others.

    Two serving modes share the machinery:

    * **static** — construct with the full ``specs`` list and ``await
      run()``, as ``repro serve --transport socket`` does: every session
      starts at once and the executor is torn down when the batch
      completes;
    * **dynamic** — construct with ``specs=None`` and call
      :meth:`serve_session` per placement, as the fleet worker does:
      sessions arrive as a stream, up to ``max_concurrency`` run at a
      time, and the mux lives until :meth:`close`.

    Results, errors and timings are dictionaries keyed by session id
    (static mode uses ids ``0..N-1``, so list-style indexing still
    reads naturally).
    """

    def __init__(
        self,
        specs: list[SessionSpec] | None,
        transport: AsyncSocketTransport,
        servers: list[str],
        *,
        clients_peer: str = "clients",
        timeout: float | None = 60.0,
        max_concurrency: int | None = None,
        metrics=None,
    ) -> None:
        if specs is not None and not specs:
            raise ParameterError("need at least one session spec")
        self.specs = list(specs) if specs is not None else None
        self.transport = transport
        self.servers = list(servers)
        self.clients_peer = clients_peer
        self.timeout = timeout
        if max_concurrency is None:
            max_concurrency = len(self.specs) if self.specs else 8
        if max_concurrency < 1:
            raise ParameterError("max_concurrency must be >= 1")
        self.max_concurrency = max_concurrency
        self.results: dict[int, EngineResult] = _SessionMap()
        self.errors: dict[int, BaseException] = _SessionMap()
        self.session_seconds: dict[int, float] = _SessionMap()
        # Optional repro.net.metrics.ServingMetrics: when set, the mux
        # keeps the admitted/completed/aborted/crashed ledger and feeds
        # per-phase engine timings — the fleet worker's mux leaves this
        # unset because its dispatcher owns the ledger.
        self.metrics = metrics
        self._executor: ThreadPoolExecutor | None = None

    def _session_executor(self) -> ThreadPoolExecutor:
        # Sized to the concurrency cap: a session queued behind a full
        # executor would leave its peers blocked in their setup recv
        # until the protocol timeout, so the cap must bound admissions
        # (the fleet worker's capacity), never surprise-serialize them.
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.max_concurrency, thread_name_prefix="mux-session"
            )
        return self._executor

    def _serve_one(
        self, session: int, spec: SessionSpec, loop: asyncio.AbstractEventLoop
    ) -> EngineResult:
        start = time.perf_counter()
        channel = SessionChannel(self.transport, session, loop)
        if spec.shards:
            # Late import: shard.py imports from nodes.py which sits
            # beside this module; importing at call time keeps the
            # module graph acyclic.
            from repro.net.shard import ShardedAnalyst

            analyst = ShardedAnalyst(
                spec.query,
                channel,
                self.servers,
                list(spec.shards),
                group=spec.group,
                nb_override=spec.nb_override,
                chunk_size=spec.chunk_size,
                rng=spec.rng if spec.rng is not None else SystemRNG(),
                clients_peer=self.clients_peer,
                timeout=self.timeout,
            )
        else:
            analyst = AnalystNode(
                spec.query,
                channel,
                self.servers,
                group=spec.group,
                nb_override=spec.nb_override,
                chunk_size=spec.chunk_size,
                rng=spec.rng if spec.rng is not None else SystemRNG(),
                clients_peer=self.clients_peer,
                timeout=self.timeout,
            )
        result = analyst.run()
        self.session_seconds[session] = time.perf_counter() - start
        return result

    async def serve_session(self, session: int, spec: SessionSpec) -> EngineResult:
        """Serve one session to completion (dynamic mode's unit of work).

        Runs the unchanged analyst on an executor thread; the result (or
        the failure) is recorded under ``session`` and returned (raised).
        """
        loop = asyncio.get_running_loop()
        if self.metrics is not None:
            self.metrics.session_admitted()
        try:
            result = await loop.run_in_executor(
                self._session_executor(), self._serve_one, session, spec, loop
            )
        except BaseException as exc:
            self.errors[session] = exc
            if self.metrics is not None:
                status = "aborted" if isinstance(exc, ProtocolAbort) else "crashed"
                self.metrics.session_finished(status)
            raise
        self.results[session] = result
        if self.metrics is not None:
            self.metrics.session_finished(
                "released",
                stages=dict(result.timer.stages),
                elapsed_s=self.session_seconds[session],
            )
        return result

    async def run(self) -> dict[int, EngineResult]:
        """Serve every constructor-given session concurrently; returns the
        results map (a failed session appears in :attr:`errors` instead)."""
        if self.specs is None:
            raise ParameterError(
                "this mux is dynamic: place sessions with serve_session"
            )
        try:
            await asyncio.gather(
                *[
                    self.serve_session(s, spec)
                    for s, spec in enumerate(self.specs)
                ],
                return_exceptions=True,
            )
        finally:
            # Never block the event loop on thread teardown; session
            # threads hold recv timeouts and die on their own.
            self.close()
        return self.results

    def close(self) -> None:
        """Release the session executor (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None


async def abort_session_peers(
    transport: AsyncSocketTransport, session: int, peers, reason: str
) -> None:
    """Session-scoped :func:`~repro.net.nodes.abort_peers`: tell every
    peer of a dead session to stop waiting, best-effort."""
    frame = wire.encode_control("abort", reason.encode())
    for name in peers:
        try:
            await transport.send(name, frame, session=session)
        except (ReproError, OSError):
            pass


class AsyncServerNode:
    """A multi-session prover host: one unchanged
    :class:`~repro.net.nodes.ServerNode` per session over one shared
    connection.  The prover logic is untouched — each session's node
    receives its own setup frame, serves its RPCs and exits on its
    shutdown control, all interleaved through the session channels.

    ``rngs`` maps session id → prover RNG tape (a plain list means
    sessions ``0..N-1``); to match the solo run seed each entry as
    ``SeededRNG(seed_s).fork(name)``.  In a mixed topology the mapping
    simply omits the sessions a scoped synchronous peer serves.
    """

    def __init__(
        self,
        transport: AsyncSocketTransport,
        rngs,
        *,
        analyst: str = "analyst",
        prover_factory=None,
        timeout: float | None = 60.0,
        reply_delay: float = 0.0,
    ) -> None:
        self.rngs = _as_session_map(rngs, "session rng")
        self.transport = transport
        self.analyst = analyst
        self.prover_factory = prover_factory
        self.timeout = timeout
        self.reply_delay = reply_delay
        self.errors: dict[int, BaseException] = {}

    def _node(self, session: int, loop) -> ServerNode:
        return ServerNode(
            SessionChannel(self.transport, session, loop),
            self.rngs[session],
            analyst=self.analyst,
            prover_factory=self.prover_factory,
            timeout=self.timeout,
            reply_delay=self.reply_delay,
        )

    async def run(self) -> None:
        await _run_session_nodes(self._node, self.rngs, self.errors, "server")


class AsyncClientRunner:
    """Multi-session client populations: one unchanged
    :class:`~repro.net.nodes.ClientRunner` per session.

    ``populations`` maps session id → ``(query, values, rng)`` (a plain
    list means sessions ``0..N-1``); the published releases land on
    :attr:`releases`.
    """

    def __init__(
        self,
        transport: AsyncSocketTransport,
        populations,
        *,
        analyst: str = "analyst",
        timeout: float | None = 60.0,
    ) -> None:
        self.populations = _as_session_map(populations, "session population")
        self.transport = transport
        self.analyst = analyst
        self.timeout = timeout
        self.runners: dict[int, ClientRunner] = {}
        self.errors: dict[int, BaseException] = {}

    @property
    def releases(self) -> dict:
        return {
            session: runner.release for session, runner in self.runners.items()
        }

    def _node(self, session: int, loop) -> ClientRunner:
        query, values, rng = self.populations[session]
        runner = ClientRunner(
            SessionChannel(self.transport, session, loop),
            query,
            values,
            rng=rng,
            analyst=self.analyst,
            timeout=self.timeout,
        )
        self.runners[session] = runner
        return runner

    async def run(self) -> None:
        await _run_session_nodes(
            self._node, self.populations, self.errors, "client-runner"
        )


def _as_session_map(entries, what) -> dict:
    """Normalize a list (sessions 0..N-1) or mapping of per-session state."""
    mapping = (
        dict(entries) if hasattr(entries, "keys") else dict(enumerate(entries))
    )
    if not mapping:
        raise ParameterError(f"need at least one {what}")
    for session in mapping:
        if not 0 <= session < SESSION_ANY:
            raise ParameterError("session id out of range")
    return mapping


async def _run_session_nodes(node_factory, sessions, errors, prefix) -> None:
    """Run one synchronous node per session on executor threads; a failed
    session records its exception without killing its siblings."""
    loop = asyncio.get_running_loop()
    order = sorted(sessions)
    executor = ThreadPoolExecutor(
        max_workers=len(order), thread_name_prefix=f"{prefix}-session"
    )
    try:
        outcomes = await asyncio.gather(
            *[
                loop.run_in_executor(executor, node_factory(s, loop).run)
                for s in order
            ],
            return_exceptions=True,
        )
    finally:
        executor.shutdown(wait=False)
    for s, outcome in zip(order, outcomes):
        if isinstance(outcome, BaseException):
            errors[s] = outcome
