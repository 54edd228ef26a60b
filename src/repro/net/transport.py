"""Transports: named-peer frame channels with exact byte accounting.

A :class:`Transport` is one node's view of the network: it can ``send``
an opaque frame (bytes) to a named peer and block on ``recv`` from a
named peer.  The node protocol is synchronous and star-shaped (servers
and clients talk to the analyst front-end), so three methods suffice and
every implementation stays small:

* :class:`InMemoryTransport` — an adapter over
  :class:`repro.mpc.bus.SimulatedNetwork`, so in-memory node runs reuse
  the simulator's ordered channels and its (now exact, frames are bytes)
  traffic accounting.  Thread-safe: nodes may run on threads.
* :class:`MultiprocessTransport` — ``multiprocessing`` duplex pipes;
  :func:`multiprocess_star` builds the analyst-centred topology.
* :class:`SocketTransport` — TCP with 4-byte big-endian length-prefixed
  frames and a one-frame name handshake.

All transports count frames and bytes both ways; a missing peer or a
timeout raises :class:`~repro.errors.ProtocolAbort` naming the silent
party, exactly as the simulator's ``receive`` does.
"""

from __future__ import annotations

import abc
import errno
import socket
import struct
import threading
import time
from multiprocessing import Pipe
from multiprocessing.connection import Connection

from repro.errors import ParameterError, ProtocolAbort
from repro.mpc.bus import SimulatedNetwork

__all__ = [
    "Transport",
    "InMemoryHub",
    "InMemoryTransport",
    "MultiprocessTransport",
    "SocketTransport",
    "multiprocess_star",
    "DEFAULT_MAX_FRAME_BYTES",
    "SESSION_ANY",
    "pack_frame",
    "pack_handshake",
    "split_header_word",
    "check_session_id",
    "check_frame_size",
]

_LEN = struct.Struct(">I")

# Frame header versioning.  A v1 header is the 4-byte big-endian payload
# length alone; legitimate frames are capped far below 2**31 bytes, so
# the top bit of the length word is free to mark a v2 header, which
# carries a 4-byte session id between the length and the payload:
#
#   v1 := len(frame)                    . frame           (session 0)
#   v2 := (len(frame) | _V2_FLAG) . sid . frame           (session sid)
#
# Session 0 is always written as v1, so a session-unaware peer and a
# session-aware one exchange byte-identical streams for the default
# session — sync and async transports interoperate on the wire.
_V2_FLAG = 0x8000_0000

# Handshake scope marker: a connection announcing SESSION_ANY serves
# every session (an async multi-session host).  Never a frame's session.
SESSION_ANY = 0xFFFF_FFFF

# Upper bound on a single frame an unauthenticated TCP peer can make a
# node buffer: well above any legitimate protocol frame (a nb=4096
# coin-commitment message over modp-2048 is a few MiB), far below the
# 4 GiB the length prefix could otherwise announce.  Must stay below
# _V2_FLAG so the version bit can never collide with a legal length.
DEFAULT_MAX_FRAME_BYTES = 1 << 28  # 256 MiB

# The pre-authentication handshake carries only a peer name; anything
# bigger is hostile and must not be buffered at the full frame cap.
_HANDSHAKE_MAX_BYTES = 1024

# Cap on recorded dropped-handshake diagnostics per listener.
_MAX_DROPPED_NOTES = 32


def pack_frame(frame: bytes, session: int = 0) -> bytes:
    """Wire bytes for one frame: v1 header for session 0, v2 otherwise."""
    if len(frame) >= _V2_FLAG:
        raise ParameterError("frame too large for the length prefix")
    if session == 0:
        return _LEN.pack(len(frame)) + frame
    if not 0 < session < SESSION_ANY:
        raise ParameterError("session id out of range")
    return _LEN.pack(_V2_FLAG | len(frame)) + _LEN.pack(session) + frame


def pack_handshake(name: str, session: int = 0) -> bytes:
    """The one-frame name announcement; its header carries the scope.

    Scope 0 is the v1 handshake every legacy peer already sends;
    ``SESSION_ANY`` announces a multi-session host.
    """
    if not 0 <= session <= SESSION_ANY:
        raise ParameterError("session id out of range")
    payload = name.encode()
    if session == 0:
        return _LEN.pack(len(payload)) + payload
    return _LEN.pack(_V2_FLAG | len(payload)) + _LEN.pack(session) + payload


def split_header_word(word: int) -> tuple[int, bool]:
    """A frame header's first word → (payload size, session id follows)."""
    if word & _V2_FLAG:
        return word & ~_V2_FLAG, True
    return word, False


def check_session_id(session: int, *, party: str, handshake: bool) -> None:
    """Reject v2 session ids the format reserves (0 is always written as
    v1; SESSION_ANY is a handshake scope, hostile in a data frame)."""
    if session == 0 or (session == SESSION_ANY and not handshake):
        raise ProtocolAbort(f"{party!r} sent an invalid v2 session id", party=party)


def check_frame_size(size: int, max_bytes: int, party: str) -> None:
    """The announced size is untrusted: abort before any buffering."""
    if size > max_bytes:
        raise ProtocolAbort(
            f"{party!r} announced an oversized frame ({size} bytes)", party=party
        )


class Transport(abc.ABC):
    """One node's frame channels to its named peers."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.bytes_sent = 0
        self.bytes_received = 0
        self.frames_sent = 0
        self.frames_received = 0

    @abc.abstractmethod
    def _send(self, peer: str, frame: bytes) -> None: ...

    @abc.abstractmethod
    def _recv(self, peer: str, timeout: float | None) -> bytes: ...

    def send(self, peer: str, frame: bytes) -> None:
        """Deliver ``frame`` to ``peer`` (ordered per peer pair)."""
        if not isinstance(frame, (bytes, bytearray)):
            raise ParameterError("transports carry bytes frames only")
        self._send(peer, bytes(frame))
        self.bytes_sent += len(frame)
        self.frames_sent += 1

    def recv(self, peer: str, timeout: float | None = None) -> bytes:
        """Block until the next frame from ``peer`` arrives.

        Raises :class:`ProtocolAbort` (party=peer) on timeout or a closed
        channel — in a synchronous protocol a missing message is an abort.
        """
        frame = self._recv(peer, timeout)
        self.bytes_received += len(frame)
        self.frames_received += 1
        return frame

    def close(self) -> None:  # pragma: no cover - default no-op
        pass


# In-memory -------------------------------------------------------------------


class InMemoryHub:
    """Shared substrate for in-memory transports (one per simulated host).

    Wraps a :class:`SimulatedNetwork` — frames land in its ordered queues
    and its per-sender byte accounting, which is exact here because every
    payload is already encoded bytes — plus a condition variable so node
    threads can block on ``recv``.
    """

    def __init__(self, network: SimulatedNetwork | None = None) -> None:
        self.network = network if network is not None else SimulatedNetwork()
        self.condition = threading.Condition()

    def endpoint(self, name: str) -> "InMemoryTransport":
        with self.condition:
            if name not in self.network.parties:
                self.network.register(name)
        return InMemoryTransport(name, self)


class InMemoryTransport(Transport):
    """Adapter presenting one :class:`InMemoryHub` party as a transport."""

    def __init__(self, name: str, hub: InMemoryHub) -> None:
        super().__init__(name)
        self.hub = hub

    def _send(self, peer: str, frame: bytes) -> None:
        with self.hub.condition:
            self.hub.network.send(self.name, peer, frame)
            self.hub.condition.notify_all()

    def _recv(self, peer: str, timeout: float | None) -> bytes:
        # Monotonic deadline: the hub condition wakes on *any* traffic, so
        # waiting the full timeout per wake would let unrelated sends
        # extend the block indefinitely.
        deadline = None if timeout is None else time.monotonic() + timeout
        with self.hub.condition:
            while True:
                frame = self.hub.network.try_receive(self.name, peer)
                if frame is not None:
                    return frame
                if deadline is None:
                    self.hub.condition.wait()
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ProtocolAbort(
                        f"{self.name!r} timed out waiting for {peer!r}", party=peer
                    )
                self.hub.condition.wait(remaining)


# Multiprocessing pipes -------------------------------------------------------


class MultiprocessTransport(Transport):
    """Duplex ``multiprocessing`` pipes, one per peer.

    Construct via :func:`multiprocess_star`; the per-peer
    :class:`~multiprocessing.connection.Connection` objects are inherited
    by forked worker processes.
    """

    def __init__(self, name: str, connections: dict[str, Connection]) -> None:
        super().__init__(name)
        self._connections = dict(connections)

    def _connection(self, peer: str) -> Connection:
        conn = self._connections.get(peer)
        if conn is None:
            raise ParameterError(f"{self.name!r} has no channel to {peer!r}")
        return conn

    def _send(self, peer: str, frame: bytes) -> None:
        self._connection(peer).send_bytes(frame)

    def _recv(self, peer: str, timeout: float | None) -> bytes:
        conn = self._connection(peer)
        try:
            if timeout is not None and not conn.poll(timeout):
                raise ProtocolAbort(
                    f"{self.name!r} timed out waiting for {peer!r}", party=peer
                )
            return conn.recv_bytes()
        except (EOFError, OSError) as exc:
            raise ProtocolAbort(
                f"channel to {peer!r} closed: {exc}", party=peer
            ) from exc

    def close(self) -> None:
        for conn in self._connections.values():
            conn.close()


def multiprocess_star(
    center: str, peers: list[str]
) -> tuple[MultiprocessTransport, dict[str, MultiprocessTransport]]:
    """Pipes for the serving topology: every peer talks to ``center``.

    Returns the center's transport plus one single-channel transport per
    peer; create before forking so both ends inherit their connections.
    """
    if len(set(peers)) != len(peers) or center in peers:
        raise ParameterError("star peers must be unique and distinct from center")
    center_conns: dict[str, Connection] = {}
    peer_transports: dict[str, MultiprocessTransport] = {}
    for peer in peers:
        center_end, peer_end = Pipe(duplex=True)
        center_conns[peer] = center_end
        peer_transports[peer] = MultiprocessTransport(peer, {center: peer_end})
    return MultiprocessTransport(center, center_conns), peer_transports


# TCP sockets -----------------------------------------------------------------


class SocketTransport(Transport):
    """TCP frame channels: 4-byte big-endian length prefix per frame.

    The listening side (the analyst front-end) calls :meth:`listen` then
    :meth:`accept`; connecting sides call :meth:`connect`, which sends a
    one-frame handshake carrying the connector's name so the listener can
    map sockets to peers.

    ``max_frame_bytes`` caps what a peer's length prefix can make this
    node buffer (default :data:`DEFAULT_MAX_FRAME_BYTES`); an oversized
    announcement aborts the channel before any allocation.

    ``session`` binds every frame this transport sends and accepts to one
    protocol session (see the v1/v2 header notes at :func:`pack_frame`).
    The default 0 is the legacy wire format unchanged; a non-zero binding
    lets a plain synchronous peer serve exactly one session of a
    multiplexing :class:`repro.net.aio.SessionMux` front-end.
    """

    def __init__(
        self,
        name: str,
        *,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        session: int = 0,
    ) -> None:
        super().__init__(name)
        if not 1 <= max_frame_bytes < _V2_FLAG:
            raise ParameterError("max_frame_bytes must be in [1, 2**31)")
        if not 0 <= session < SESSION_ANY:
            raise ParameterError("session id out of range")
        self.max_frame_bytes = max_frame_bytes
        self.session = session
        self.dropped_handshakes: list[str] = []
        self._dropped_overflow = 0
        self._sockets: dict[str, socket.socket] = {}
        self._listener: socket.socket | None = None
        self.port: int | None = None

    # Construction -----------------------------------------------------------

    @classmethod
    def listen(
        cls,
        name: str,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        backlog: int = 16,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        session: int = 0,
    ) -> "SocketTransport":
        transport = cls(name, max_frame_bytes=max_frame_bytes, session=session)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(backlog)
        transport._listener = listener
        transport.port = listener.getsockname()[1]
        return transport

    def accept(
        self,
        count: int,
        timeout: float | None = 30.0,
        *,
        expected: list[str] | None = None,
    ) -> list[str]:
        """Accept ``count`` handshaking peers; returns their names.

        A connection whose handshake is broken — unreadable frame,
        non-UTF-8 name, a name already claimed, or (with ``expected``) a
        name outside the expected peer set — is dropped and accepting
        continues: an unauthenticated peer must not be able to kill the
        listener.  ``timeout`` is an overall monotonic deadline for the
        whole call (never re-armed per connection), so hostile peers can
        at worst exhaust it, after which the abort message names every
        dropped handshake — also kept on :attr:`dropped_handshakes` — so
        an honest misconfiguration (two workers sharing a name) stays
        diagnosable.

        Names are first-come-first-served: a squatter racing an expected
        peer to its name degrades to the malicious-server scenario ΠBin
        already tolerates (see DESIGN.md); a hardened deployment would
        authenticate the handshake.
        """
        if self._listener is None:
            raise ParameterError("accept requires a listening transport")
        deadline = None if timeout is None else time.monotonic() + timeout

        def remaining() -> float | None:
            if deadline is None:
                return None
            left = deadline - time.monotonic()
            if left <= 0:
                raise ProtocolAbort(self._accept_timeout_message())  # repro: allow[REP004] -- no single culprit: the timeout message names every absent peer
            return left

        names: list[str] = []
        while len(names) < count:
            try:
                self._listener.settimeout(remaining())
                sock, _ = self._listener.accept()
            except TimeoutError as exc:  # socket.timeout is an alias
                raise ProtocolAbort(self._accept_timeout_message()) from exc  # repro: allow[REP004] -- no single culprit: the timeout message names every absent peer
            except OSError as exc:
                # A connection that died in the accept queue (RST) is the
                # peer's problem; anything else (EMFILE, EBADF, ...) is a
                # listener failure that retrying would busy-spin on.
                if exc.errno not in (errno.ECONNABORTED, errno.ECONNRESET):
                    raise
                self._note_dropped("<aborted connection>")
                continue
            # Taken before the read so deadline expiry propagates with
            # the accept-timeout message instead of being misrecorded as
            # this peer's unreadable handshake.
            handshake_timeout = remaining()
            try:
                scope, raw_name = _read_session_frame(
                    sock,
                    handshake_timeout,
                    party="connecting peer",
                    max_bytes=_HANDSHAKE_MAX_BYTES,
                    handshake=True,
                )
                peer = raw_name.decode()
            except (ProtocolAbort, UnicodeDecodeError):
                sock.close()
                # Re-raises with the accept-timeout message if the overall
                # deadline expired mid-read — that peer did nothing wrong
                # and must not be recorded as a bad handshake.
                remaining()
                self._note_dropped("<unreadable handshake>")
                continue
            if scope not in (SESSION_ANY, self.session):
                # A peer bound to a different session has no business on a
                # single-session listener — connect it to a SessionMux.
                sock.close()
                self._note_dropped(
                    f"session-{scope} handshake from {peer[:64]!r} "
                    f"on a session-{self.session} listener"
                )
                continue
            if expected is not None and peer not in expected:
                sock.close()
                self._note_dropped(f"unexpected name {peer[:64]!r}")
                continue
            if peer in self._sockets:
                sock.close()
                self._note_dropped(f"duplicate name {peer[:64]!r}")
                continue
            _no_delay(sock)
            self._sockets[peer] = sock
            names.append(peer)
        return names

    def _note_dropped(self, label: str) -> None:
        # Bounded: hostile connections must not grow the diagnostic list
        # (and the eventual abort message) without limit.
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

    @classmethod
    def connect(
        cls,
        name: str,
        peer: str,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        timeout: float | None = 30.0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        session: int = 0,
    ) -> "SocketTransport":
        """Connect and handshake.  ``session`` binds the channel: 0 (the
        default) emits the legacy v1 handshake and frames byte-for-byte;
        ``session=s`` announces the scope so a session-multiplexing
        listener (:class:`repro.net.aio.AsyncSocketTransport`) routes this
        connection's traffic to session *s*."""
        transport = cls(name, max_frame_bytes=max_frame_bytes, session=session)
        sock = socket.create_connection((host, port), timeout=timeout)
        _no_delay(sock)
        sock.sendall(pack_handshake(name, session))
        transport._sockets[peer] = sock
        return transport

    # Frame IO ---------------------------------------------------------------

    def _socket(self, peer: str) -> socket.socket:
        sock = self._sockets.get(peer)
        if sock is None:
            raise ParameterError(f"{self.name!r} has no socket to {peer!r}")
        return sock

    def _send(self, peer: str, frame: bytes) -> None:
        self._socket(peer).sendall(pack_frame(frame, self.session))

    def _recv(self, peer: str, timeout: float | None) -> bytes:
        session, frame = _read_session_frame(
            self._socket(peer), timeout, party=peer, max_bytes=self.max_frame_bytes
        )
        if session != self.session:
            raise ProtocolAbort(
                f"{peer!r} sent a session-{session} frame on a "
                f"session-{self.session} channel",
                party=peer,
            )
        return frame

    def close(self) -> None:
        for sock in self._sockets.values():
            try:
                sock.close()
            except OSError:  # pragma: no cover - close is best effort
                pass
        if self._listener is not None:
            self._listener.close()


def _no_delay(sock: socket.socket) -> None:
    # Protocol frames are small request/reply RPCs: Nagle plus delayed
    # ACKs would stall each one (asyncio streams already set this).
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def _read_session_frame(
    sock: socket.socket,
    timeout: float | None,
    *,
    party: str,
    max_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    handshake: bool = False,
) -> tuple[int, bytes]:
    """One (session, frame) off a socket; v1 headers decode as session 0.

    ``handshake`` admits the :data:`SESSION_ANY` scope marker, which is
    hostile anywhere else.
    """
    # One monotonic deadline for the whole frame: re-arming the socket
    # timeout per recv would let a byte-trickling peer hold the read open
    # for timeout-per-byte instead of timeout-per-frame.
    deadline = None if timeout is None else time.monotonic() + timeout
    try:
        word = _LEN.unpack(_read_exact(sock, _LEN.size, party, deadline))[0]
        size, has_session = split_header_word(word)
        session = 0
        if has_session:
            session = _LEN.unpack(_read_exact(sock, _LEN.size, party, deadline))[0]
            check_session_id(session, party=party, handshake=handshake)
        check_frame_size(size, max_bytes, party)
        return session, _read_exact(sock, size, party, deadline)
    except TimeoutError as exc:
        raise ProtocolAbort(f"timed out waiting for {party!r}", party=party) from exc
    except OSError as exc:
        raise ProtocolAbort(f"socket to {party!r} failed: {exc}", party=party) from exc


def _read_exact(
    sock: socket.socket, n: int, party: str, deadline: float | None
) -> bytes:
    buffer = bytearray()
    while len(buffer) < n:
        if deadline is None:
            sock.settimeout(None)
        else:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("frame deadline elapsed")
            sock.settimeout(remaining)
        chunk = sock.recv(n - len(buffer))
        if not chunk:
            raise ProtocolAbort(f"{party!r} closed the connection", party=party)
        buffer += chunk
    return bytes(buffer)
