"""One launcher for every serving topology, behind ``python -m repro serve``.

:func:`run_sessions` serves N sessions of one query as communicating
nodes — K prover servers, optional S verification shards per session and
one client population per session — and picks the topology from the
shape it is given:

* ``frontends >= 1`` — a :class:`~repro.net.fleet.FleetDispatcher`
  places the sessions across F front-end worker processes (TCP only);
* ``transport="socket"`` — the calling process is one
  :class:`~repro.net.aio.SessionMux` front-end multiplexing the N
  sessions over TCP, with the prover hosts and the client host as
  separate OS processes (one session is simply a one-session mux);
* ``transport="memory"`` / ``"multiprocess"`` — one session, the
  calling thread its :class:`~repro.net.nodes.AnalystNode` (or
  :class:`~repro.net.shard.ShardedAnalyst`), its peers threads over the
  in-memory bus or forked children over ``multiprocessing`` pipes.

Every mode follows one seed convention — session *s* runs under
``session_seed(seed, s)`` on ``session_values(values, s)`` — and returns
one outcome shape: a summary plus ``session_rows``.  With a seed, each
released session is compared byte for byte against :func:`solo_release`,
the same session through a solo in-process :class:`repro.api.Session`.
"""

from __future__ import annotations

import asyncio
import functools
import signal
import socket
import statistics
import sys
import threading
import time
from multiprocessing import get_context
from multiprocessing.process import BaseProcess

from repro.api.queries import CountQuery, HistogramQuery, Query
from repro.api.session import Session
from repro.core.messages import Release
from repro.crypto.serialization import encode_message
from repro.errors import ParameterError, ProtocolAbort
from repro.net.aio import (
    AsyncClientRunner,
    AsyncServerNode,
    AsyncSocketTransport,
    SessionMux,
    SessionSpec,
    abort_session_peers,
)
from repro.net.fleet import FleetConfig, FleetDispatcher, SessionRequest
from repro.net.gateway import FleetGateway
from repro.net.metrics import MetricsServer, ServingMetrics
from repro.net.nodes import AnalystNode, abort_peers
from repro.net.peers import (
    peer_rng,
    root_rng,
    run_peer,
    session_seed,
    session_values,
)
from repro.net.shard import ShardedAnalyst, sharded_chunk_size
from repro.net.transport import (
    SESSION_ANY,
    InMemoryHub,
    SocketTransport,
    multiprocess_star,
)

__all__ = [
    "run_sessions",
    "solo_release",
    "main",
    "EXIT_PROTOCOL_ABORT",
    "EXIT_INFRA_CRASH",
]

_TRANSPORTS = ("memory", "multiprocess", "socket")

# Distinct exit codes so a supervisor (the fleet dispatcher's restart
# logic, a CI job, an init system) can tell a protocol-level rejection
# from dead infrastructure without parsing stderr.  0 = released and
# verified, 1 = released but rejected/mismatched, 2 = usage error
# (argparse's convention, shared by ParameterError), then:
EXIT_PROTOCOL_ABORT = 3  # a party broke the protocol; stderr names it
EXIT_INFRA_CRASH = 4  # sockets/processes/unexpected exceptions died


def solo_release(
    query: Query,
    values,
    seed: str | None,
    *,
    num_servers: int,
    group: str,
    nb_override: int | None,
    chunk_size: int | None,
) -> Release:
    """The reference every served session is checked against: the same
    query, population, seed and chunking through a solo in-process
    :class:`Session`."""
    session = Session(
        query,
        num_provers=num_servers,
        group=group,
        nb_override=nb_override,
        chunk_size=chunk_size,
        rng=root_rng(seed),
    )
    session.submit(values)
    return session.release().release


def run_sessions(
    query: Query,
    values,
    *,
    transport: str = "socket",
    sessions: int = 1,
    shards: int = 0,
    frontends: int = 0,
    capacity: int = 2,
    num_servers: int = 2,
    group: str = "p64-sim",
    nb_override: int | None = 64,
    chunk_size: int | None = None,
    host: str = "127.0.0.1",
    timeout: float = 120.0,
    health_interval: float = 0.25,
    max_restarts: int = 2,
    reply_delay: float = 0.0,
    seed: str | None = "serve",
    port: int = 0,
    verify_equivalence: bool | None = None,
    metrics: ServingMetrics | None = None,
) -> dict:
    """Serve ``sessions`` sessions as separate nodes; returns the outcome.

    ``frontends`` (0 = the calling process is the front-end),
    ``capacity``, ``health_interval`` and ``max_restarts`` shape a fleet
    (see :class:`FleetConfig`); ``port`` is the mux listener's.
    ``shards > 0`` backs every session with that many shard workers,
    with the effective chunk size pinned up front so the solo replay
    uses the chunking the sharded front-end does.  ``reply_delay`` makes
    every server sleep that long before each RPC reply — simulated
    remote-prover latency (benchmark knob, zero by default).
    ``metrics`` is fed by the mux and the fleet.

    ``verify_equivalence`` (default: on whenever seeded) replays every
    released session through :func:`solo_release` and compares the
    wire-encoded releases byte for byte.

    On the memory, multiprocess and mux paths a failed session raises
    its :class:`ProtocolAbort` (after telling every peer to stop); a
    fleet records it as an ``aborted`` or ``crashed`` session row.
    """
    if transport not in _TRANSPORTS:
        raise ParameterError(f"transport must be one of {_TRANSPORTS}")
    if sessions < 1:
        raise ParameterError("sessions must be >= 1")
    if shards < 0:
        raise ParameterError("shards must be >= 0 (0 = unsharded sessions)")
    if frontends < 0:
        raise ParameterError("frontends must be >= 0 (0 = this process)")
    if frontends and transport != "socket":
        raise ParameterError("a fleet serves over the socket transport only")
    if transport != "socket" and sessions != 1:
        raise ParameterError(
            f"the {transport} transport serves one session "
            "(the socket transport multiplexes N)"
        )
    values = list(values)
    if verify_equivalence is None:
        verify_equivalence = seed is not None
    nb = query.build_params(
        num_provers=num_servers, group=group, nb_override=nb_override
    ).nb
    if shards and chunk_size is None:
        chunk_size = sharded_chunk_size(nb, shards)
    server_names = [f"prover-{k}" for k in range(num_servers)]
    shard_names = [f"shard-{j}" for j in range(shards)]
    knobs = {
        "group": group,
        "nb_override": nb_override,
        "chunk_size": chunk_size,
        "timeout": timeout,
        "reply_delay": reply_delay,
    }

    if frontends:
        config = FleetConfig(
            frontends=frontends,
            capacity=capacity,
            shards=shards,
            num_servers=num_servers,
            host=host,
            health_interval=health_interval,
            max_restarts=max_restarts,
            **knobs,
        )
        rows, summary = _serve_fleet(query, values, sessions, config, seed, metrics)
    elif transport == "socket":
        rows, summary = _serve_mux(
            query,
            values,
            sessions,
            server_names,
            shard_names,
            seed=seed,
            host=host,
            port=port,
            metrics=metrics,
            **knobs,
        )
    else:
        rows, summary = _serve_one(
            query, values, transport, server_names, shard_names, seed=seed, **knobs
        )

    if verify_equivalence:
        for row in rows:
            if row["status"] == "released":
                solo = solo_release(
                    query,
                    session_values(values, row["session"]),
                    session_seed(seed, row["session"]),
                    num_servers=num_servers,
                    group=group,
                    nb_override=nb_override,
                    chunk_size=chunk_size,
                )
                row["byte_identical"] = encode_message(solo) == row["release_frame"]
    released = [row for row in rows if row["status"] == "released"]
    elapsed = summary["elapsed_s"]
    outcome = {
        "transport": transport,
        "sessions": sessions,
        "frontends": frontends,
        "capacity": capacity,
        "num_servers": num_servers,
        "shards": shards,
        "n_clients": len(values),
        "nb": nb,
        "group": group,
        "chunk_size": chunk_size,
        "reply_delay_s": reply_delay,
        **summary,
        "sessions_per_sec": len(released) / elapsed if elapsed else float("inf"),
        "p50_session_s": (
            statistics.median(row["elapsed_s"] for row in released)
            if released
            else None
        ),
        "released": len(released),
        "aborted": sum(1 for row in rows if row["status"] == "aborted"),
        "crashed": sum(1 for row in rows if row["status"] == "crashed"),
        "frontends_used": sorted(
            {row["frontend"] for row in rows if row["frontend"] is not None}
        ),
        "accepted": bool(released) and all(row["accepted"] for row in released),
        "session_rows": rows,
    }
    if verify_equivalence:
        outcome["byte_identical"] = bool(released) and all(
            row["byte_identical"] for row in released
        )
    return outcome


def _released_row(
    session: int, frame: bytes, accepted, estimate, elapsed_s, frontend=None
) -> dict:
    return {
        "session": session,
        "status": "released",
        "frontend": frontend,
        "accepted": accepted,
        "estimate": tuple(estimate),
        "elapsed_s": elapsed_s,
        "release_bytes": len(frame),
        "release_frame": frame,
    }


def _summary(elapsed_s: float, transport=None, restarts=None, stolen=0) -> dict:
    """The mode-specific half of the outcome; the fleet's front-end
    traffic stays in its worker processes."""
    return {
        "elapsed_s": elapsed_s,
        "frontend_bytes_sent": transport and transport.bytes_sent,
        "frontend_bytes_received": transport and transport.bytes_received,
        "frontend_frames": transport
        and transport.frames_sent + transport.frames_received,
        "restarts": restarts or {},
        "stolen": stolen,
    }


def _terminate_processes(processes) -> None:
    """Best-effort teardown of started children on a failure path."""
    for process in processes:
        if process.is_alive():
            process.terminate()
    for process in processes:
        process.join(timeout=5.0)


def _reap(workers) -> None:
    """Join every started peer; a child still hung after the grace is
    terminated (a hung thread is a daemon and dies with the process)."""
    for worker in workers:
        worker.join(timeout=30.0)
        if worker.is_alive() and isinstance(worker, BaseProcess):
            worker.terminate()  # pragma: no cover - hung child


# One session, the calling thread as analyst -----------------------------------


def _pipe_peer(inherited, role: str, name: str, transport, **kwargs) -> None:
    """Forked child entry: a child inherits every pipe end made before the
    fork, so it closes all but its own — otherwise a dead sibling's
    channel never reaches EOF and is blamed only after the full timeout."""
    for other in inherited:
        if other is not transport:
            other.close()
    run_peer(role, name, transport, **kwargs)


def _serve_one(
    query,
    values,
    transport: str,
    server_names,
    shard_names,
    *,
    seed,
    group,
    nb_override,
    chunk_size,
    timeout,
    reply_delay,
):
    seed = session_seed(seed, 0)
    peers = [
        *(("server", name) for name in server_names),
        *(("shard", name) for name in shard_names),
        ("clients", "clients"),
    ]
    peer_kwargs = {
        "query": query,
        "values": values,
        "seed": seed,
        "timeout": timeout,
        "reply_delay": reply_delay,
    }
    start = time.perf_counter()
    if transport == "memory":
        hub = InMemoryHub()
        analyst_transport = hub.endpoint("analyst")
        ends = {name: hub.endpoint(name) for _, name in peers}
        workers = [
            threading.Thread(
                target=run_peer,
                args=(role, name, ends[name]),
                kwargs=peer_kwargs,
                name=name,
                daemon=True,
            )
            for role, name in peers
        ]
    else:
        analyst_transport, ends = multiprocess_star(
            "analyst", [name for _, name in peers]
        )
        inherited = [analyst_transport, *ends.values()]
        context = get_context("fork")
        workers = [
            context.Process(
                target=_pipe_peer,
                args=(inherited, role, name, ends[name]),
                kwargs=peer_kwargs,
                daemon=True,
            )
            for role, name in peers
        ]

    started: list = []
    try:
        common = {
            "group": group,
            "nb_override": nb_override,
            "chunk_size": chunk_size,
            "rng": root_rng(seed),
            "timeout": timeout,
        }
        if shard_names:
            analyst = ShardedAnalyst(
                query, analyst_transport, server_names, shard_names, **common
            )
        else:
            analyst = AnalystNode(query, analyst_transport, server_names, **common)
        for worker in workers:
            worker.start()
            started.append(worker)
        # The peer ends belong to the peers now (a no-op in memory).
        for end in ends.values():
            end.close()
        result = analyst.run()
    except BaseException as exc:
        # Nothing else wakes a peer blocked in recv on the in-memory
        # bus; on every transport the one-way abort ends it promptly.
        abort_peers(
            analyst_transport, [name for _, name in peers], f"front-end aborted: {exc}"
        )
        raise
    finally:
        analyst_transport.close()
        _reap(started)
    elapsed = time.perf_counter() - start
    release = result.release
    row = _released_row(
        0, encode_message(release), release.accepted, release.estimate, elapsed
    )
    return [row], _summary(elapsed, analyst_transport)


# The multiplexed socket front-end ---------------------------------------------


def _async_server_main(
    name: str,
    host: str,
    port: int,
    seed: str | None,
    sessions: int,
    timeout: float = 60.0,
    reply_delay: float = 0.0,
) -> None:
    """Child process: one multi-session prover host over one connection."""

    async def go() -> None:
        transport = await AsyncSocketTransport.connect(name, "analyst", host, port)
        node = AsyncServerNode(
            transport,
            {s: peer_rng(session_seed(seed, s), name) for s in range(sessions)},
            timeout=timeout,
            reply_delay=reply_delay,
        )
        await node.run()
        await transport.aclose()

    asyncio.run(go())


def _async_clients_main(
    host: str,
    port: int,
    query: Query,
    values,
    seed: str | None,
    sessions: int,
    timeout: float = 60.0,
) -> None:
    """Child process: one client population per session, one connection."""

    async def go() -> None:
        transport = await AsyncSocketTransport.connect("clients", "analyst", host, port)
        runner = AsyncClientRunner(
            transport,
            {
                s: (
                    query,
                    session_values(list(values), s),
                    root_rng(session_seed(seed, s)),
                )
                for s in range(sessions)
            },
            timeout=timeout,
        )
        await runner.run()
        await transport.aclose()

    asyncio.run(go())


def _shard_threads_main(
    name: str, host: str, port: int, sessions: int, timeout: float = 60.0
) -> None:
    """Child process: one shard worker per session, each a thread over
    its own session-scoped connection (scoped channels do the routing)."""
    threads = [
        threading.Thread(
            target=run_peer,
            args=(
                "shard",
                name,
                functools.partial(
                    SocketTransport.connect,
                    name,
                    "analyst",
                    host,
                    port,
                    session=s,
                    timeout=timeout,
                ),
            ),
            kwargs={"timeout": timeout},
            daemon=True,
        )
        for s in range(sessions)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _serve_mux(
    query,
    values,
    sessions: int,
    server_names,
    shard_names,
    *,
    seed,
    host,
    port,
    metrics,
    group,
    nb_override,
    chunk_size,
    timeout,
    reply_delay,
):
    # Bind the listener before forking so children know the port; the
    # asyncio server adopts this socket inside the loop.
    listener_sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener_sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener_sock.bind((host, port))
    listener_sock.listen(16)
    bound_port = listener_sock.getsockname()[1]

    context = get_context("fork")
    processes = [
        context.Process(
            target=_async_server_main,
            args=(name, host, bound_port, seed, sessions, timeout, reply_delay),
            daemon=True,
        )
        for name in server_names
    ]
    processes += [
        context.Process(
            target=_shard_threads_main,
            args=(name, host, bound_port, sessions, timeout),
            daemon=True,
        )
        for name in shard_names
    ]
    processes.append(
        context.Process(
            target=_async_clients_main,
            args=(host, bound_port, query, values, seed, sessions, timeout),
            daemon=True,
        )
    )
    peer_names = [*server_names, *shard_names, "clients"]
    # Servers and clients hold one SESSION_ANY connection each; every
    # shard child holds one *scoped* connection per session.
    expected_conns = len(server_names) + 1 + len(shard_names) * sessions

    mux_box: dict = {}
    start = time.perf_counter()

    async def front_end() -> None:
        transport = await AsyncSocketTransport.listen("analyst", sock=listener_sock)
        mux_box["transport"] = transport
        try:
            # Scope-pinned expectations: the multi-session hosts may only
            # handshake at SESSION_ANY and each shard worker only at its
            # own session, so a hostile handshake claiming an expected
            # name under an unoccupied scope (to hijack that session's
            # routing) is dropped.  Lockdown afterwards — the topology is
            # complete, late connections are not.
            await transport.accept(
                expected_conns,
                timeout,
                expected=[
                    (name, SESSION_ANY) for name in [*server_names, "clients"]
                ]
                + [(name, s) for name in shard_names for s in range(sessions)],
            )
            transport.lockdown()
            specs = [
                SessionSpec(
                    query,
                    rng=root_rng(session_seed(seed, s)),
                    group=group,
                    nb_override=nb_override,
                    chunk_size=chunk_size,
                    shards=tuple(shard_names),
                )
                for s in range(sessions)
            ]
            mux = SessionMux(
                specs, transport, server_names, timeout=timeout, metrics=metrics
            )
            mux_box["mux"] = mux
            await mux.run()
            for s, error in mux.errors.items():
                await abort_session_peers(
                    transport, s, peer_names, f"front-end aborted: {error}"
                )
        finally:
            # Unblock children before they are joined.
            await transport.aclose()

    started: list = []
    try:
        for process in processes:
            process.start()
            started.append(process)
        asyncio.run(front_end())
    except BaseException:
        _terminate_processes(started)
        listener_sock.close()
        raise
    finally:
        _reap(started)
    elapsed = time.perf_counter() - start

    mux = mux_box["mux"]
    if mux.errors:
        raise mux.errors[min(mux.errors)]
    rows = []
    for s, result in sorted(mux.results.items()):
        release = result.release
        rows.append(
            _released_row(
                s,
                encode_message(release),
                release.accepted,
                release.estimate,
                mux.session_seconds[s],
            )
        )
    return rows, _summary(elapsed, mux_box["transport"])


# The fleet --------------------------------------------------------------------


def _serve_fleet(query, values, sessions: int, config: FleetConfig, seed, metrics):
    requests = [
        SessionRequest(
            s, query, session_values(values, s), seed=session_seed(seed, s)
        )
        for s in range(sessions)
    ]
    dispatcher = FleetDispatcher(config, metrics=metrics)
    start = time.perf_counter()
    try:
        dispatcher.start()
        for request in requests:
            dispatcher.submit(request)
        dispatcher.wait(timeout=config.timeout + 30.0)
        elapsed = time.perf_counter() - start
        dispatcher.drain(timeout=config.timeout)
    finally:
        dispatcher.stop()

    rows = []
    for request in requests:
        outcome = dispatcher.outcomes.get(request.request_id)
        if outcome is None:
            rows.append(
                {
                    "session": request.request_id,
                    "status": "lost",
                    "frontend": None,
                    "reason": "no outcome before the wait deadline",
                }
            )
        elif outcome.status == "released":
            rows.append(
                _released_row(
                    request.request_id,
                    outcome.release_frame,
                    outcome.accepted,
                    outcome.estimate,
                    outcome.elapsed_s,
                    outcome.frontend,
                )
            )
        else:
            rows.append(
                {
                    "session": request.request_id,
                    "status": outcome.status,
                    "frontend": outcome.frontend,
                    "party": outcome.party,
                    "reason": outcome.reason,
                }
            )
    return rows, _summary(
        elapsed, restarts=dict(dispatcher.restarts), stolen=dispatcher.stolen
    )


# CLI entry --------------------------------------------------------------------


def main(args) -> int:
    """Drive the demo from parsed CLI arguments (see ``repro.cli``).

    Exit codes are a supervisor contract shared by every serving mode:
    0 released+verified, 1 rejected or byte-mismatched, 2 bad usage,
    :data:`EXIT_PROTOCOL_ABORT` for an attributed protocol abort,
    :data:`EXIT_INFRA_CRASH` for dead infrastructure — the attributed
    party (or the failing layer) lands on stderr either way.
    """
    try:
        return _dispatch(args)
    except ProtocolAbort as exc:
        party = exc.party if exc.party is not None else "unattributed"
        print(f"protocol abort (party: {party}): {exc}", file=sys.stderr)
        return EXIT_PROTOCOL_ABORT
    except ParameterError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # repro: allow[REP004] -- top-level supervisor boundary: unexpected failures map to EXIT_INFRA_CRASH with the type on stderr
        print(f"infrastructure crash: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INFRA_CRASH


def _dispatch(args) -> int:
    if args.bins > 1:
        query: Query = HistogramQuery(bins=args.bins, epsilon=1.0, delta=2**-10)
        values = [i % args.bins for i in range(args.clients)]
    else:
        query = CountQuery(epsilon=1.0, delta=2**-10)
        values = [i % 2 for i in range(args.clients)]
    knobs = {
        "shards": args.shards,
        "num_servers": args.servers,
        "group": args.group,
        "nb_override": args.nb,
        "chunk_size": args.chunk,
        "host": args.host,
        "timeout": args.timeout,
    }
    if args.fleet:
        if args.transport != "socket":
            raise ParameterError("--fleet serves over the socket transport only")
        if args.fleet_config:
            config = FleetConfig.from_file(args.fleet_config)
        else:
            config = FleetConfig(
                frontends=args.frontends, capacity=args.capacity, **knobs
            )
        if args.listen is not None:
            return _main_fleet_gateway(args, query, config)
        knobs = config.as_dict()
    metrics, metrics_server = _start_metrics(args)
    try:
        outcome = run_sessions(
            query,
            values,
            transport=args.transport,
            sessions=args.sessions,
            seed=args.seed,
            port=args.port,
            metrics=metrics,
            **knobs,
        )
    finally:
        if metrics_server is not None:
            metrics_server.close()
    return _report(outcome)


def _report(outcome: dict) -> int:
    """Print a :func:`run_sessions` outcome; returns the exit code."""
    shape = [outcome["transport"]]
    if outcome["frontends"]:
        shape.append(
            f"F={outcome['frontends']} front-ends x capacity {outcome['capacity']}"
        )
    shape += [f"N={outcome['sessions']} sessions", f"K={outcome['num_servers']}"]
    if outcome["shards"]:
        shape.append(f"S={outcome['shards']} shards/session")
    shape += [
        f"n={outcome['n_clients']} clients/session",
        f"nb={outcome['nb']}",
        outcome["group"],
    ]
    print(f"== serving ({', '.join(shape)}) ==")
    for row in outcome["session_rows"]:
        where = f" [{row['frontend']}]" if row["frontend"] is not None else ""
        if row["status"] == "released":
            estimate = tuple(round(v, 2) for v in row["estimate"])
            line = (
                f"session {row['session']}{where}: released "
                f"accepted={row['accepted']} estimate={estimate} "
                f"elapsed={row['elapsed_s']:.2f}s"
            )
            if "byte_identical" in row:
                line += f" byte_identical={row['byte_identical']}"
        else:
            line = (
                f"session {row['session']}{where}: "
                f"{row['status']} ({row.get('reason')})"
            )
        print(line)
    print(f"wall time:         {outcome['elapsed_s']:.2f}s")
    print(f"aggregate:         {outcome['sessions_per_sec']:.2f} sessions/s")
    if outcome["p50_session_s"] is not None:
        print(f"p50 session:       {outcome['p50_session_s']:.2f}s")
    if outcome["frontends"]:
        print(
            f"fleet health:      released={outcome['released']} "
            f"aborted={outcome['aborted']} crashed={outcome['crashed']} "
            f"restarts={sum(outcome['restarts'].values())} "
            f"stolen={outcome['stolen']}"
        )
        print(f"front-ends used:   {', '.join(outcome['frontends_used']) or 'none'}")
    if outcome["frontend_bytes_sent"] is not None:
        print(
            "front-end traffic: "
            f"{outcome['frontend_bytes_sent']} B out, "
            f"{outcome['frontend_bytes_received']} B in, "
            f"{outcome['frontend_frames']} frames"
        )
    if "byte_identical" in outcome:
        print(
            "byte-identical to solo in-process Sessions: "
            f"{outcome['byte_identical']}"
        )
        if not outcome["byte_identical"]:
            return 1
    if outcome["released"] < outcome["sessions"]:
        return 1
    return 0 if outcome["accepted"] else 1


def _start_metrics(args):
    """Optional /metrics endpoint for a serving run (``--metrics-port``).

    Returns ``(metrics, server)`` — both ``None`` without the flag.
    Port 0 binds an ephemeral port; the bound port is announced on
    stdout either way so scrapers can find it.
    """
    if getattr(args, "metrics_port", None) is None:
        return None, None
    metrics = ServingMetrics()
    server = MetricsServer(metrics.registry, host=args.host, port=args.metrics_port)
    print(f"metrics: http://{args.host}:{server.port}/metrics", flush=True)
    return metrics, server


def _interrupt(signum, frame) -> None:
    raise KeyboardInterrupt


def _main_fleet_gateway(args, query: Query, config: FleetConfig) -> int:
    """``repro serve --fleet --listen PORT``: serve an open-ended session
    stream admitted over TCP (the ``repro loadgen`` target) instead of a
    fixed batch.  Runs until ``--serve-seconds`` elapses (or forever,
    Ctrl-C or SIGTERM to stop), then drains: everything admitted
    finishes, nothing new is let in."""
    metrics, metrics_server = _start_metrics(args)
    dispatcher = FleetDispatcher(config, metrics=metrics)
    # SIGTERM (a supervisor's stop) takes the Ctrl-C path: close, drain,
    # summary.  Its default action would kill this process and orphan
    # the front-end processes.
    previous_sigterm = signal.signal(signal.SIGTERM, _interrupt)
    dispatcher.start()
    gateway = None
    try:
        gateway = FleetGateway(
            dispatcher,
            query,
            host=args.host,
            port=args.listen,
            timeout=config.timeout,
        )
        print(
            f"fleet gateway: {args.host}:{gateway.port} "
            f"(F={config.frontends} x capacity {config.capacity}, "
            f"K={config.num_servers}, nb={config.nb_override}, "
            f"{config.group})",
            flush=True,
        )
        serve_seconds = getattr(args, "serve_seconds", None)
        try:
            if serve_seconds is not None:
                time.sleep(serve_seconds)
            else:
                while True:
                    time.sleep(1.0)
        except KeyboardInterrupt:
            pass
        admitted = gateway.admitted
        gateway.close()
        gateway = None
        drained = dispatcher.drain(timeout=config.timeout)
    finally:
        if gateway is not None:
            gateway.close()
        dispatcher.stop()
        if metrics_server is not None:
            metrics_server.close()
        signal.signal(signal.SIGTERM, previous_sigterm)
    statuses: dict[str, int] = {}
    for outcome in dispatcher.outcomes.values():
        statuses[outcome.status] = statuses.get(outcome.status, 0) + 1
    print(
        f"gateway summary: admitted={admitted} "
        f"released={statuses.get('released', 0)} "
        f"aborted={statuses.get('aborted', 0)} "
        f"crashed={statuses.get('crashed', 0)} "
        f"drained={drained}"
    )
    return 0 if drained else EXIT_INFRA_CRASH
