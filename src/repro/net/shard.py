"""Sharded serving: one client stream, S verification front-ends.

The analyst is verifier-bound: it must check every client's validity
proof and every prover's Σ-OR coin proofs, so a single
:class:`~repro.net.nodes.AnalystNode` caps serving throughput no matter
how many prover servers exist.  This module horizontally scales exactly
that bottleneck:

* :class:`ShardWorker` — a verification worker (process or thread behind
  any :class:`~repro.net.transport.Transport`) hosting a plain
  :class:`~repro.core.verifier.PublicVerifier`.  It validates the client
  chunks routed to it and verifies the coin chunks it *owns*; chunks
  owned by other shards are fast-forwarded through the evolving
  Fiat–Shamir transcript at pure hashing cost
  (:meth:`PublicVerifier.skip_coin_chunk`), so every shard holds the
  correct transcript state while paying the RLC multi-exponentiation for
  only 1/S of the stream.
* :class:`ShardedAnalyst` — the front-end.  It drives the *unchanged*
  :class:`~repro.api.engine.ProtocolEngine` (same RNG fork labels, same
  Morra draws) but plugs in a :class:`_ShardedVerifier` whose heavy
  verification methods fan work out to the shards and whose
  ``finish_coin_stream`` merges their answers.

**Merge rules** (why a sharded release is byte-identical to an unsharded
seeded :class:`~repro.api.Session` at the same ``chunk_size``):

* client verdicts re-enter the audit record in global submission order
  (shards report per-chunk, the front-end reorders by chunk start);
* the per-(prover, coordinate) client commitment products and the
  per-lane Line 12 products Com(k₁,0)·Π_keep/Π_flip are products in an
  abelian group, so per-shard partials multiply into exactly the
  unsharded value (Com is additively homomorphic in k₁);
* everything that draws randomness — Morra co-sampling, the engine's
  phase machine, the provers — runs unsharded, once, on the front-end
  and the servers.  Shards only *check*; they never sample.

One deviation from the unsharded failure path: coin chunks are verified
asynchronously, so a cheating prover's Morra bits for chunks *after* its
bad one are still drawn (the unsharded engine stops at the bad chunk).
Soundness is unaffected — every coin is still committed before its bit
is drawn, and the prover is rejected with the same pinpointing note
(plus shard attribution) when the shards report back — the extra Morra
draws are simply wasted on a run that will not release.
"""

from __future__ import annotations

from repro.api.engine import EngineResult, fork_rng
from repro.api.queries import ComposedQuery, Query
from repro.api.session import build_engine
from repro.core.messages import ClientStatus, CoinCommitmentMessage, Release
from repro.core.params import PublicParams
from repro.core.plan import AggregationPlan
from repro.core.verifier import PublicVerifier
from repro.crypto.pedersen import Commitment
from repro.crypto.serialization import (
    decode_commitment,
    decode_message,
    encode_message_cached,
)
from repro.errors import (
    EncodingError,
    NotOnGroupError,
    ParameterError,
    ProtocolAbort,
    ReproError,
)
from repro.net import wire
from repro.net.nodes import RemoteProver, shutdown_peers
from repro.net.transport import Transport
from repro.utils.encoding import (
    bytes_to_int,
    decode_length_prefixed,
    encode_length_prefixed,
    int_to_bytes,
)
from repro.utils.rng import RNG, SystemRNG

__all__ = ["ShardWorker", "ShardedAnalyst", "sharded_chunk_size"]

_ANALYST = "analyst"
_CLIENTS = "clients"

_STATUS_CODE = {
    ClientStatus.VALID: 0,
    ClientStatus.INVALID_PROOF: 1,
    ClientStatus.BAD_OPENING: 2,
}
_CODE_STATUS = {code: status for status, code in _STATUS_CODE.items()}


def sharded_chunk_size(nb: int, shards: int) -> int:
    """The sharded default chunk size: at least two chunks per shard, so
    ownership round-robins.  Launchers pin it up front so a solo replay
    runs with the chunking the :class:`ShardedAnalyst` picks."""
    return max(1, -(-nb // (2 * shards)))


def _encode_element(element) -> bytes:
    return element.to_bytes()


class ShardWorker:
    """One verification shard: a PublicVerifier behind a transport.

    Receives a setup frame (public parameters + plan + shard index), then
    serves the analyst's dispatch stream.  Chunk-dispatch RPCs are
    one-way (the analyst never blocks on a shard mid-stream); only the
    two ``*-finish`` collection RPCs and ``shutdown`` reply.  Errors on
    the internal analyst↔shard channel are remembered and surfaced as an
    abort reply at the next collection point, never a dead worker.
    """

    def __init__(
        self,
        transport: Transport,
        *,
        analyst: str = _ANALYST,
        timeout: float | None = 60.0,
    ) -> None:
        self.transport = transport
        self.analyst = analyst
        self.timeout = timeout
        self.index = 0
        self.count = 1
        self.params: PublicParams | None = None
        self.verifier: PublicVerifier | None = None
        # Client phase: (chunk start index, [(client id, status), ...]).
        self._client_chunks: list[tuple[int, list[tuple[str, ClientStatus]]]] = []
        # Coin phase bookkeeping per prover.
        self._received: dict[str, int] = {}
        self._failed: dict[str, str] = {}
        self._error: str | None = None

    def run(self) -> None:
        """Serve one session: setup, dispatch loop, shutdown."""
        self._setup()
        try:
            while True:
                frame = self.transport.recv(self.analyst, self.timeout)
                try:
                    kind = wire.frame_kind(frame)
                except EncodingError as exc:
                    self._note_error(f"unclassifiable frame: {exc}")
                    continue
                if kind == "ctrl":
                    ctrl, _ = wire.decode_control(frame)
                    if ctrl == "shutdown":
                        self.transport.send(self.analyst, wire.encode_reply())
                        return
                    if ctrl == "abort":
                        # One-way: the front-end's session died; exit
                        # promptly instead of waiting out the timeout.
                        return
                    self._note_error(f"unexpected control {ctrl!r}")
                    continue
                try:
                    method, parts = wire.decode_rpc(frame)
                    self._dispatch(method, parts)
                except (ReproError, ValueError, IndexError, KeyError) as exc:
                    self._note_error(f"{type(exc).__name__}: {exc}")
        finally:
            self.transport.close()

    def _setup(self) -> None:
        frame = self.transport.recv(self.analyst, self.timeout)
        ctrl, parts = wire.decode_control(frame)
        if ctrl != "setup" or len(parts) != 4:
            raise ProtocolAbort("expected a shard setup frame", party=self.analyst)
        self.params = wire.decode_params(parts[0])
        plan = wire.decode_plan(parts[1])
        self.index = bytes_to_int(parts[2])
        self.count = bytes_to_int(parts[3])
        # Shards never co-sample Morra; their RNG only seeds batch RLC
        # weights, which must be unpredictable — system randomness.
        self.verifier = PublicVerifier(self.params, SystemRNG(), plan=plan)
        self.transport.send(self.analyst, wire.encode_reply())

    def _note_error(self, message: str) -> None:
        if self._error is None:
            self._error = message

    # Dispatch ----------------------------------------------------------------

    def _dispatch(self, method: str, parts: list[bytes]) -> None:
        if method == "clients-chunk":
            self._clients_chunk(parts)
        elif method == "clients-finish":
            self.transport.send(self.analyst, self._clients_finish())
        elif method == "coin-begin":
            prover_id = parts[0].decode()
            self.verifier.begin_coin_stream(prover_id, parts[1])
            self._received[prover_id] = 0
            self._failed.pop(prover_id, None)
        elif method == "coin-chunk":
            self._coin_chunk(parts)
        elif method == "bits-chunk":
            self._bits_chunk(parts)
        elif method == "coin-finish":
            self.transport.send(self.analyst, self._coin_finish(parts[0].decode()))
        else:
            self._note_error(f"unknown shard rpc {method!r}")

    # Client phase ------------------------------------------------------------

    def _clients_chunk(self, parts: list[bytes]) -> None:
        start = bytes_to_int(parts[0])
        complained = set(wire.decode_str_list(parts[1]))
        broadcasts = [
            decode_message(self.params.group, frame) for frame in parts[2:]
        ]
        # The union of prover complaints is all validate_clients uses.
        valid = self.verifier.validate_clients(
            broadcasts, {"servers": sorted(complained)} if complained else None
        )
        self.verifier.fold_client_commitments(broadcasts, valid)
        verdicts = [
            (b.client_id, self.verifier.audit.clients[b.client_id])
            for b in broadcasts
        ]
        self._client_chunks.append((start, verdicts))

    def _clients_finish(self) -> bytes:
        if self._error is not None:
            return wire.encode_abort_reply(self._error)
        chunk_blobs = []
        for start, verdicts in self._client_chunks:
            chunk_blobs.append(
                encode_length_prefixed(
                    int_to_bytes(start),
                    wire.encode_str_list([cid for cid, _ in verdicts]),
                    bytes(_STATUS_CODE[status] for _, status in verdicts),
                )
            )
        product_rows = []
        for row in self.verifier.client_products():
            product_rows.append(
                encode_length_prefixed(
                    *[
                        b"" if element is None else _encode_element(element)
                        for element in row
                    ]
                )
            )
        return wire.encode_reply(
            encode_length_prefixed(*chunk_blobs), encode_length_prefixed(*product_rows)
        )

    # Coin phase --------------------------------------------------------------

    def _coin_chunk(self, parts: list[bytes]) -> None:
        prover_id = parts[0].decode()
        rows = bytes_to_int(parts[1])
        owned = parts[2] == b"\x01"
        frame = parts[3]
        if prover_id in self._failed:
            return
        if not owned:
            if self.verifier.skip_coin_chunk(prover_id, frame, rows):
                self._received[prover_id] += rows
            else:
                self._failed[prover_id] = self._last_note(prover_id)
            return
        try:
            message = decode_message(self.params.group, frame)
        except (EncodingError, NotOnGroupError, ValueError) as exc:
            self._failed[prover_id] = f"undecodable coin chunk: {exc}"
            return
        if (
            not isinstance(message, CoinCommitmentMessage)
            or message.prover_id != prover_id
        ):
            self._failed[prover_id] = "coin chunk frame carried a different message"
            return
        if not self.verifier.verify_coin_chunk(message):
            # verify_coin_chunk recorded the pinpointing note (sequential
            # replay names the exact coin); keep it for the merge reply.
            self._failed[prover_id] = self._last_note(prover_id)
            return
        self._received[prover_id] += rows

    def _last_note(self, prover_id: str) -> str:
        notes = self.verifier.audit.notes
        if not notes:
            return "coin chunk rejected"
        # Audit notes carry a "{prover}: " prefix; the analyst re-adds it
        # (with shard attribution) when it records the merged verdict.
        return notes[-1].removeprefix(f"{prover_id}: ")

    def _bits_chunk(self, parts: list[bytes]) -> None:
        prover_id = parts[0].decode()
        if prover_id in self._failed:
            return
        self.verifier.apply_public_bits_chunk(
            prover_id, wire.decode_bit_matrix(parts[1])
        )

    def _coin_finish(self, prover_id: str) -> bytes:
        if self._error is not None:
            return wire.encode_abort_reply(self._error)
        received = self._received.get(prover_id, 0)
        note = self._failed.get(prover_id)
        if note is None:
            healthy, products = self.verifier.partial_adjusted_products(prover_id)
            if healthy:
                return wire.encode_reply(
                    b"\x01",
                    b"",
                    int_to_bytes(received),
                    *[_encode_element(product.element) for product in products],
                )
            note = "coin stream unhealthy"
        return wire.encode_reply(b"\x00", note.encode(), int_to_bytes(received))


class _ShardedVerifier(PublicVerifier):
    """The front-end's verifier: fan out the heavy checks, merge results.

    Client validation is routed by :class:`ShardedAnalyst` itself (it
    owns the enrollment stream); this subclass intercepts the engine's
    streamed coin-phase calls.  ``verify_coin_chunk`` dispatches and
    returns optimistically; the real verdict lands in
    ``finish_coin_stream`` when every shard has answered for the prover.
    """

    def __init__(self, params, rng, *, plan, analyst: "ShardedAnalyst") -> None:
        super().__init__(params, rng, plan=plan)
        self._analyst = analyst

    def begin_coin_stream(self, prover_id: str, context: bytes) -> None:
        self._analyst._begin_coin_stream(prover_id, context)

    def verify_coin_chunk(self, message) -> bool:
        self._analyst._dispatch_coin_chunk(message)
        return True

    def apply_public_bits_chunk(self, prover_id: str, public_bits) -> None:
        self._analyst._dispatch_bits_chunk(prover_id, public_bits)

    def finish_coin_stream(self, prover_id: str) -> bool:
        ok, note, products = self._analyst._collect_coin_stream(prover_id)
        if not ok:
            self._reject_coins(prover_id, note)
            return False
        self.install_adjusted_products(prover_id, products)
        return True


class ShardedAnalyst:
    """A serving front-end that spreads verification over S shards.

    Drop-in for :class:`~repro.net.nodes.AnalystNode` with one extra peer
    group: ``shards`` names S :class:`ShardWorker` peers on the same
    transport.  Clients are dispatched round-robin in engine-sized
    chunks; every coin chunk goes to every shard (owners verify, the
    rest fast-forward); Morra, ε-accounting and the release stay single.
    Under a seed the merged release is byte-identical to an unsharded
    :class:`~repro.api.Session` run at the same ``chunk_size``.
    """

    def __init__(
        self,
        query: Query,
        transport: Transport,
        servers: list[str],
        shards: list[str],
        *,
        group: str = "modp-2048",
        nb_override: int | None = None,
        chunk_size: int | None = None,
        rng: RNG | None = None,
        clients_peer: str = _CLIENTS,
        timeout: float | None = 60.0,
    ) -> None:
        if isinstance(query, ComposedQuery):
            raise ParameterError("composed queries are not served sharded yet")
        if not servers:
            raise ParameterError("need at least one server (K >= 1)")
        if not shards:
            raise ParameterError("need at least one shard worker (S >= 1)")
        self.query = query
        self.transport = transport
        self.servers = list(servers)
        self.shards = list(shards)
        self.clients_peer = clients_peer
        self.timeout = timeout
        self.rng = rng if rng is not None else SystemRNG()
        params = query.build_params(
            num_provers=len(servers), group=group, nb_override=nb_override
        )
        if chunk_size is None:
            chunk_size = sharded_chunk_size(params.nb, len(self.shards))
        self.chunk_size = chunk_size
        plan = query.build_plan()
        verifier = _ShardedVerifier(
            params, fork_rng(self.rng, "verifier"), plan=plan, analyst=self
        )
        self.engine = build_engine(
            query,
            num_provers=len(servers),
            params=params,
            provers=[
                RemoteProver(name, transport, params, timeout=timeout)
                for name in self.servers
            ],
            verifier=verifier,
            rng=self.rng,
            chunk_size=chunk_size,
        )
        self.params = self.engine.params
        self.plan = self.engine.plan
        self.result: EngineResult | None = None
        # Round-robin dispatch state.
        self._chunk_counter = 0
        self._pending: list[tuple] = []  # (broadcast, privates, broadcast frame)
        self._dispatched = 0  # clients shipped to shards so far
        self._client_chunks = 0
        self._coin_owners: dict[str, list[int]] = {}  # FIFO of owners per prover

    # Serving -----------------------------------------------------------------

    def run(self) -> EngineResult:
        """Serve one full session and return the engine result."""
        params_frame = wire.encode_params(self.params)
        plan_frame = wire.encode_plan(self.plan)
        for name in self.servers:
            self.transport.send(
                name,
                wire.encode_control("setup", params_frame, plan_frame, name.encode()),
            )
            self._expect_ok(name, "server setup failed")
        for index, name in enumerate(self.shards):
            self.transport.send(
                name,
                wire.encode_control(
                    "setup",
                    params_frame,
                    plan_frame,
                    int_to_bytes(index),
                    int_to_bytes(len(self.shards)),
                ),
            )
            self._expect_ok(name, "shard setup failed")
        self.transport.send(
            self.clients_peer, wire.encode_control("params", params_frame, plan_frame)
        )
        self._ingest()
        self._finish_clients()
        self.result = self.engine.run_release()
        # Peers shut down *before* the release is published, so an
        # unresponsive peer's audit note is part of the published bytes
        # (never a post-publication mutation of the shipped record).
        self._shutdown_peers()
        self.transport.send(
            self.clients_peer,
            wire.encode_control(
                "release", encode_message_cached(self.result.release)
            ),
        )
        return self.result

    def _expect_ok(self, name: str, what: str) -> None:
        ok, reply = wire.decode_reply(self.transport.recv(name, self.timeout))
        if not ok:
            reason = reply[0].decode() if reply else "rejected"
            raise ProtocolAbort(f"{what}: {reason}", party=name)

    @property
    def release(self) -> Release:
        if self.result is None:
            raise ParameterError("session has not released yet")
        return self.result.release

    # Client phase ------------------------------------------------------------

    def _ingest(self) -> None:
        """Accept enrollments until finalize, dispatching full chunks.

        Hostile-input handling mirrors :class:`AnalystNode`: an
        enrollment that fails to decode, lies about its shape, or reuses
        a client id is dropped with an audit note, never the session.
        """
        audit = self.engine.verifier.audit
        group = self.params.group
        while True:
            frame = self.transport.recv(self.clients_peer, self.timeout)
            try:
                kind = wire.frame_kind(frame)
            except EncodingError:
                audit.note("dropped an unclassifiable frame")
                continue
            if kind == "ctrl":
                try:
                    ctrl, _ = wire.decode_control(frame)
                except EncodingError:
                    audit.note("dropped a malformed control frame")
                    continue
                if ctrl == "finalize":
                    self._dispatch_client_chunk()
                    return
                raise ProtocolAbort(
                    f"unexpected control {ctrl!r} during enrollment",
                    party=self.clients_peer,
                )
            if kind != "enroll":
                raise ProtocolAbort(
                    f"unexpected {kind!r} frame during enrollment",
                    party=self.clients_peer,
                )
            try:
                broadcast_frame, private_frames = wire.split_enrollment(frame)
                broadcast = decode_message(group, broadcast_frame)
                privates = [decode_message(group, raw) for raw in private_frames]
            except (EncodingError, NotOnGroupError, ValueError) as exc:
                audit.note(f"dropped undecodable enrollment: {exc}")
                continue
            if not self._enrollment_shape_ok(broadcast, privates, audit):
                continue
            try:
                self.engine.adopt_enrollment(broadcast)
            except ParameterError as exc:
                audit.note(
                    f"rejected enrollment from {broadcast.client_id!r}: {exc}"
                )
                continue
            self._pending.append((broadcast, privates, broadcast_frame))
            if len(self._pending) >= self.chunk_size:
                self._dispatch_client_chunk()

    def _enrollment_shape_ok(self, broadcast, privates, audit) -> bool:
        from repro.core.messages import ClientBroadcast, ClientShareMessage

        if not isinstance(broadcast, ClientBroadcast) or not all(
            isinstance(m, ClientShareMessage) for m in privates
        ):
            audit.note("dropped an enrollment with wrong message types")
            return False
        if len(privates) != self.params.num_provers:
            audit.note(
                f"rejected enrollment from {broadcast.client_id!r}: "
                "one private share message per prover required"
            )
            return False
        if len(broadcast.share_commitments) != self.params.num_provers or any(
            len(row) != self.params.dimension for row in broadcast.share_commitments
        ):
            audit.note(
                f"rejected enrollment from {broadcast.client_id!r}: "
                "share commitments do not match K provers x M coordinates"
            )
            return False
        if any(m.client_id != broadcast.client_id for m in privates):
            audit.note(
                f"rejected enrollment from {broadcast.client_id!r}: "
                "private share client id does not match the broadcast"
            )
            return False
        return True

    def _dispatch_client_chunk(self) -> None:
        entries = self._pending
        self._pending = []
        if not entries:
            return
        # Private share routing and complaints first (prover work, exactly
        # the unsharded per-chunk order), so the shard can fold verdicts
        # and complaints in one pass.
        complained: dict[str, None] = {}
        for k, prover in enumerate(self.engine.provers):
            for broadcast, privates, _ in entries:
                if not prover.receive_client_share(broadcast, privates[k], k):
                    complained.setdefault(broadcast.client_id)
        shard = self.shards[self._chunk_counter % len(self.shards)]
        self._chunk_counter += 1
        self.transport.send(
            shard,
            wire.encode_rpc(
                "clients-chunk",
                int_to_bytes(self._dispatched),
                wire.encode_str_list(list(complained)),
                *[frame for _, _, frame in entries],
            ),
        )
        self._dispatched += len(entries)
        self._client_chunks += 1

    def _finish_clients(self) -> None:
        """Collect every shard's verdicts and products, merge in order."""
        verifier = self.engine.verifier
        chunk_records: list[tuple[int, list[tuple[str, ClientStatus]]]] = []
        for index, shard in enumerate(self.shards):
            self.transport.send(shard, wire.encode_rpc("clients-finish"))
            ok, reply = wire.decode_reply(self.transport.recv(shard, self.timeout))
            if not ok or len(reply) != 2:
                reason = reply[0].decode() if reply else "no client verdicts"
                raise ProtocolAbort(f"shard {index}: {reason}", party=shard)
            for blob in decode_length_prefixed(reply[0]):
                start_raw, ids_raw, codes = decode_length_prefixed(blob)
                ids = wire.decode_str_list(ids_raw)
                if len(codes) != len(ids):
                    raise ProtocolAbort(
                        f"shard {index}: verdict shape mismatch", party=shard
                    )
                chunk_records.append(
                    (
                        bytes_to_int(start_raw),
                        [
                            (cid, _CODE_STATUS[code])
                            for cid, code in zip(ids, codes)
                        ],
                    )
                )
            product_rows = decode_length_prefixed(reply[1])
            if len(product_rows) != self.params.num_provers:
                raise ProtocolAbort(
                    f"shard {index}: client product shape mismatch", party=shard
                )
            partial = [
                [
                    None
                    if raw == b""
                    else decode_commitment(self.params.group, raw).element
                    for raw in decode_length_prefixed(row)
                ]
                for row in product_rows
            ]
            verifier.merge_client_products(partial)
        chunk_records.sort(key=lambda record: record[0])
        if len(chunk_records) != self._client_chunks or sum(
            len(verdicts) for _, verdicts in chunk_records
        ) != self._dispatched:
            raise ProtocolAbort("shards returned an incomplete client record")  # repro: allow[REP004] -- aggregate merge inconsistency across shards; per-shard faults were attributed when their frames were read
        ordered = [pair for _, verdicts in chunk_records for pair in verdicts]
        valid = verifier.record_client_verdicts(ordered)
        self.engine.adopt_valid_ids(valid)
        valid_set = set(valid)
        invalid = [cid for cid, _ in ordered if cid not in valid_set]
        for prover in self.engine.provers:
            prover.absorb_validated_clients(valid, discard=invalid)

    # Coin phase (called by _ShardedVerifier) ---------------------------------

    def _begin_coin_stream(self, prover_id: str, context: bytes) -> None:
        self._coin_owners[prover_id] = []
        for shard in self.shards:
            self.transport.send(
                shard, wire.encode_rpc("coin-begin", prover_id.encode(), context)
            )

    def _dispatch_coin_chunk(self, message) -> None:
        frame = encode_message_cached(message)
        rows = int_to_bytes(len(message.commitments))
        owner = self._chunk_counter % len(self.shards)
        self._chunk_counter += 1
        self._coin_owners[message.prover_id].append(owner)
        prover = message.prover_id.encode()
        for index, shard in enumerate(self.shards):
            self.transport.send(
                shard,
                wire.encode_rpc(
                    "coin-chunk",
                    prover,
                    rows,
                    b"\x01" if index == owner else b"\x00",
                    frame,
                ),
            )

    def _dispatch_bits_chunk(self, prover_id: str, public_bits) -> None:
        owners = self._coin_owners[prover_id]
        if not owners:
            raise ParameterError("public bits without a dispatched coin chunk")
        owner = owners.pop(0)
        self.transport.send(
            self.shards[owner],
            wire.encode_rpc(
                "bits-chunk", prover_id.encode(), wire.encode_bit_matrix(public_bits)
            ),
        )

    def _collect_coin_stream(
        self, prover_id: str
    ) -> tuple[bool, str, list[Commitment]]:
        """Gather every shard's verdict + Line 12 partials for one prover.

        Merge rule: accept iff every shard accepted and saw all nb rows;
        the per-lane products multiply homomorphically.  On rejection the
        note names the reporting shard *and* carries its pinpointing note
        (the exact coin index, from sequential replay on the owner).
        """
        merged: list | None = None
        failure: str | None = None
        for index, shard in enumerate(self.shards):
            self.transport.send(
                shard, wire.encode_rpc("coin-finish", prover_id.encode())
            )
            ok, reply = wire.decode_reply(self.transport.recv(shard, self.timeout))
            if not ok:
                reason = reply[0].decode() if reply else "shard aborted"
                raise ProtocolAbort(f"shard {index}: {reason}", party=shard)
            if len(reply) < 3:
                raise ProtocolAbort(
                    f"shard {index}: malformed coin verdict", party=shard
                )
            accepted = reply[0] == b"\x01"
            received = bytes_to_int(reply[2])
            if not accepted:
                note = reply[1].decode() or "coin stream rejected"
                if failure is None:
                    failure = f"shard {index}: {note}"
                continue
            if received != self.params.nb:
                if failure is None:
                    failure = (
                        f"shard {index}: incomplete coin stream "
                        f"({received}/{self.params.nb} coins)"
                    )
                continue
            products = reply[3:]
            if len(products) != self.plan.lanes:
                raise ProtocolAbort(
                    f"shard {index}: Line 12 partials do not match the plan",
                    party=shard,
                )
            if merged is None:
                merged = [
                    decode_commitment(self.params.group, raw).element
                    for raw in products
                ]
            else:
                merged = [
                    held * decode_commitment(self.params.group, raw).element
                    for held, raw in zip(merged, products)
                ]
        if failure is not None:
            return False, failure, []
        if merged is None:  # pragma: no cover - shards list is never empty
            return False, "no shards reported", []
        return True, "", [Commitment(element) for element in merged]

    # Teardown ----------------------------------------------------------------

    def _shutdown_peers(self) -> None:
        shutdown_peers(
            self.transport,
            self.servers + self.shards,
            self.timeout,
            self.engine.verifier.audit,
        )
