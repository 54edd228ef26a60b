"""The peer side every serving launcher shares.

Whatever substrate carries a session — node threads over the in-memory
bus, forked children over pipes, a mux front-end's session-scoped shard
threads, a fleet front-end's per-session peers — its servers, shard
workers and client population start the same way and draw from the
same RNG streams, so a seeded session releases the bytes of its solo
in-process :class:`repro.api.Session`:

* :func:`session_seed` / :func:`session_values` — session *s* of a run
  seeded ``seed`` runs under ``session_seed(seed, s)`` on
  ``session_values(values, s)``;
* :func:`root_rng` / :func:`peer_rng` — a session's root tape (the
  analyst and the client population) and prover *name*'s fork of it;
* :func:`run_peer` — one synchronous peer for one session.
"""

from __future__ import annotations

from repro.api.queries import Query
from repro.errors import ReproError
from repro.net.nodes import ClientRunner, ServerNode
from repro.net.shard import ShardWorker
from repro.utils.rng import RNG, SeededRNG, SystemRNG

__all__ = [
    "session_seed",
    "session_values",
    "root_rng",
    "peer_rng",
    "run_peer",
]


def session_seed(seed: str | None, session: int) -> str | None:
    """Root seed for one session of a run: ``{seed}/s{s}``, so session
    *s* is reproducible solo via
    ``Session(query, rng=SeededRNG(session_seed(seed, s)))``."""
    return None if seed is None else f"{seed}/s{session}"


def session_values(values: list, session: int) -> list:
    """Distinct-but-derived per-session populations for demos/benchmarks:
    session *s* sees the shared values rotated by *s*."""
    shift = session % len(values) if values else 0
    return values[shift:] + values[:shift]


def root_rng(seed: str | None) -> RNG:
    """A session's root tape; ``None`` means system randomness."""
    return SeededRNG(seed) if seed is not None else SystemRNG()


def peer_rng(seed: str | None, name: str) -> RNG:
    """Prover ``name``'s tape: the in-process engine's ``root.fork(name)``."""
    return SeededRNG(seed).fork(name) if seed is not None else SystemRNG()


def run_peer(
    role: str,
    name: str,
    transport,
    *,
    query: Query | None = None,
    values=(),
    seed: str | None = None,
    timeout: float | None = 60.0,
    reply_delay: float = 0.0,
) -> None:
    """Serve one session as one synchronous peer, then close its channel.

    ``role`` is ``"server"`` (a :class:`ServerNode` on ``peer_rng(seed,
    name)``), ``"shard"`` (a :class:`ShardWorker`) or ``"clients"`` (a
    :class:`ClientRunner` of ``query`` over ``values`` on
    ``root_rng(seed)``).  ``transport`` is the peer's transport, or a
    zero-argument callable that dials one; a peer that cannot connect
    has no session to serve and returns.

    A protocol failure ends the peer quietly: the front-end attributes
    every abort, and a peer thread or child has no one to report to.
    """
    if callable(transport):
        try:
            transport = transport()
        except OSError:
            return
    try:
        if role == "server":
            ServerNode(
                transport,
                peer_rng(seed, name),
                timeout=timeout,
                reply_delay=reply_delay,
            ).run()
        elif role == "shard":
            ShardWorker(transport, timeout=timeout).run()
        else:
            ClientRunner(
                transport, query, values, rng=root_rng(seed), timeout=timeout
            ).run()
    except ReproError:
        pass
    finally:
        transport.close()
