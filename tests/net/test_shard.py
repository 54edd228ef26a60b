"""Sharded serving: merged releases and cross-shard cheater pinpointing.

The acceptance bar of the sharding layer: a session served through a
:class:`~repro.net.shard.ShardedAnalyst` with S shard workers releases
*byte-identically* to the unsharded in-process :class:`repro.api.Session`
under seeded RNG (S ∈ {1, 2, 4}, all transports), and a cheat caught by
one shard — a tampered coin frame, a bad validity proof — is pinpointed
with the right prover/client named while honest parties (and the other
shards' work) are unaffected.
"""

import threading

import pytest

from repro.api.queries import BoundedSumQuery, CountQuery, HistogramQuery
from repro.api.session import Session
from repro.core.messages import ClientStatus, ProverStatus
from repro.core.prover import (
    InputDroppingProver,
    NonBitCoinProver,
    OutputTamperingProver,
    Prover,
)
from repro.core.verifier import PublicVerifier
from repro.crypto.serialization import decode_message, encode_message
from repro.net.nodes import ClientRunner, ServerNode
from repro.net.peers import session_seed
from repro.net.serve import run_sessions
from repro.net.shard import ShardWorker, ShardedAnalyst
from repro.net.transport import InMemoryHub
from repro.utils.rng import SeededRNG

DELTA = 2**-10


def in_process_release_bytes(query, values, *, seed, num_servers=2, nb=32, chunk=None):
    session = Session(
        query,
        num_provers=num_servers,
        group="p64-sim",
        nb_override=nb,
        chunk_size=chunk,
        rng=SeededRNG(seed),
    )
    session.submit(values)
    return encode_message(session.release().release)


def run_sharded_memory(
    query,
    values,
    *,
    seed="shard",
    num_servers=2,
    shards=2,
    nb=32,
    chunk_size=8,
    prover_factory_for=None,
    tamper=None,
):
    """One full sharded session over the in-memory hub (node threads)."""
    hub = InMemoryHub()
    threads = []
    for k in range(num_servers):
        name = f"prover-{k}"
        factory = prover_factory_for(k) if prover_factory_for else Prover
        node = ServerNode(
            hub.endpoint(name),
            SeededRNG(seed).fork(name),
            prover_factory=factory,
            timeout=30.0,
        )
        threads.append(threading.Thread(target=node.run, name=name, daemon=True))
    shard_names = [f"shard-{s}" for s in range(shards)]
    for name in shard_names:
        worker = ShardWorker(hub.endpoint(name), timeout=30.0)
        threads.append(threading.Thread(target=worker.run, name=name, daemon=True))
    runner = ClientRunner(
        hub.endpoint("clients"),
        query,
        values,
        rng=SeededRNG(seed),
        timeout=30.0,
        tamper=tamper,
    )
    threads.append(threading.Thread(target=runner.run, name="clients", daemon=True))
    for thread in threads:
        thread.start()
    analyst = ShardedAnalyst(
        query,
        hub.endpoint("analyst"),
        [f"prover-{k}" for k in range(num_servers)],
        shard_names,
        group="p64-sim",
        nb_override=nb,
        chunk_size=chunk_size,
        rng=SeededRNG(seed),
        timeout=30.0,
    )
    result = analyst.run()
    for thread in threads:
        thread.join(timeout=10.0)
    return result


class TestShardedEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_memory_count_session_byte_identical(self, shards):
        query = CountQuery(epsilon=1.0, delta=DELTA)
        values = [1, 0, 1, 1, 0, 1, 1]
        outcome = run_sessions(
            query,
            values,
            transport="memory",
            num_servers=2,
            shards=shards,
            group="p64-sim",
            nb_override=32,
            seed="shard-equiv",
        )
        assert outcome["accepted"]
        assert outcome["byte_identical"]
        # Triangle check: sharded == unsharded Session at the same chunk.
        assert outcome["session_rows"][0]["release_frame"] == (
            in_process_release_bytes(
                query,
                values,
                seed=session_seed("shard-equiv", 0),
                chunk=outcome["chunk_size"],
            )
        )

    @pytest.mark.parametrize("transport", ["multiprocess", "socket"])
    def test_process_backed_transports_byte_identical(self, transport):
        outcome = run_sessions(
            CountQuery(epsilon=1.0, delta=DELTA),
            [1, 0, 1, 1, 0, 1],
            transport=transport,
            num_servers=2,
            shards=2,
            group="p64-sim",
            nb_override=32,
            seed="shard-proc",
        )
        assert outcome["accepted"] and outcome["byte_identical"]

    def test_histogram_and_bounded_sum_shard_cleanly(self):
        hist = run_sessions(
            HistogramQuery(bins=3, epsilon=1.0, delta=DELTA),
            [0, 1, 2, 1, 1, 0],
            transport="memory",
            num_servers=2,
            shards=3,
            group="p64-sim",
            nb_override=32,
            chunk_size=8,
            seed="shard-hist",
        )
        assert hist["accepted"] and hist["byte_identical"]
        summed = run_sessions(
            BoundedSumQuery(value_bits=3, epsilon=2.0, delta=DELTA),
            [5, 2, 7, 0],
            transport="memory",
            num_servers=1,
            shards=2,
            group="p64-sim",
            nb_override=16,
            chunk_size=4,
            seed="shard-sum",
        )
        assert summed["accepted"] and summed["byte_identical"]

    def test_single_server_many_shards(self):
        outcome = run_sessions(
            CountQuery(epsilon=1.0, delta=DELTA),
            [1, 0, 1],
            transport="memory",
            num_servers=1,
            shards=4,
            group="p64-sim",
            nb_override=16,
            seed="shard-k1",
        )
        assert outcome["accepted"] and outcome["byte_identical"]


class TestCrossShardPinpointing:
    def test_bad_coin_proofs_name_the_prover_with_shard_attribution(self):
        """prover-1 commits non-bits; some shard's sequential replay must
        name the exact coin, merged into the audit with the shard index,
        and honest prover-0 stays HONEST."""

        def factory_for(k):
            return NonBitCoinProver if k == 1 else Prover

        result = run_sharded_memory(
            CountQuery(epsilon=1.0, delta=DELTA),
            [1, 0, 1, 1],
            prover_factory_for=factory_for,
            shards=2,
            nb=32,
            chunk_size=8,
        )
        release = result.release
        assert not release.accepted
        assert release.audit.provers["prover-1"] is ProverStatus.BAD_COIN_PROOF
        assert release.audit.provers["prover-0"] is ProverStatus.HONEST
        assert any(
            "prover-1" in note
            and "shard" in note
            and "coin proof rejected at coin" in note
            for note in release.audit.notes
        ), release.audit.notes

    def test_line13_tamper_caught_at_the_front_end(self):
        """Output tampering is a front-end (Line 13) catch — sharding the
        Σ-verification must not weaken it."""

        def factory_for(k):
            return OutputTamperingProver if k == 0 else Prover

        result = run_sharded_memory(
            CountQuery(epsilon=1.0, delta=DELTA),
            [1, 0, 1, 1],
            prover_factory_for=factory_for,
        )
        release = result.release
        assert not release.accepted
        assert release.audit.provers["prover-0"] is ProverStatus.FAILED_FINAL_CHECK
        assert release.audit.provers["prover-1"] is ProverStatus.HONEST

    def test_input_dropping_prover_caught_through_shards(self):
        """Dropping a client's share breaks Line 13 against the *merged*
        client products — guaranteed inclusion survives sharding."""

        def factory_for(k):
            if k != 0:
                return Prover

            def build(name, params, rng, plan=None):
                return InputDroppingProver(
                    name, params, rng, victim="client-1", plan=plan
                )

            return build

        result = run_sharded_memory(
            CountQuery(epsilon=1.0, delta=DELTA),
            [1, 1, 1, 0],
            prover_factory_for=factory_for,
        )
        release = result.release
        assert not release.accepted
        assert release.audit.provers["prover-0"] is ProverStatus.FAILED_FINAL_CHECK

    def test_tampered_enrollment_names_the_client_honest_shards_unaffected(self):
        """A bit-flip in client-2's validity proof lands in whichever
        shard owns its chunk: exactly client-2 is INVALID_PROOF, every
        other client stays VALID and the session still releases."""

        from repro.utils.encoding import decode_length_prefixed, encode_length_prefixed

        def tamper(index, frame):
            if index != 2:
                return frame
            parts = decode_length_prefixed(frame)
            # parts[1] is the broadcast frame; its trailing bytes are the
            # last scalar of the validity proof.
            broadcast = parts[1]
            parts[1] = broadcast[:-1] + bytes([broadcast[-1] ^ 0x01])
            return encode_length_prefixed(*parts)

        result = run_sharded_memory(
            CountQuery(epsilon=1.0, delta=DELTA),
            [1, 0, 1, 1, 0, 1],
            tamper=tamper,
            shards=3,
            chunk_size=2,  # six clients -> three chunks, one per shard
        )
        release = result.release
        assert release.accepted
        assert release.audit.clients["client-2"] is ClientStatus.INVALID_PROOF
        for name in ("client-0", "client-1", "client-3", "client-4", "client-5"):
            assert release.audit.clients[name] is ClientStatus.VALID
        assert all(
            status is ProverStatus.HONEST
            for status in release.audit.provers.values()
        )

    def test_tampered_share_opening_is_bad_opening_through_shards(self):
        """A corrupted private share opening triggers a prover complaint;
        the owning shard must fold it into a BAD_OPENING verdict."""

        def tamper(index, frame):
            if index != 1:
                return frame
            return frame[:-1] + bytes([frame[-1] ^ 0x01])

        result = run_sharded_memory(
            CountQuery(epsilon=1.0, delta=DELTA),
            [1, 0, 1, 1],
            tamper=tamper,
        )
        release = result.release
        assert release.accepted
        assert release.audit.clients["client-1"] is ClientStatus.BAD_OPENING
        assert release.audit.clients["client-0"] is ClientStatus.VALID

    def test_undecodable_enrollment_dropped_before_dispatch(self):
        """Truncated enrollments die at the front-end with an audit note;
        shards only ever see well-formed frames."""

        def tamper(index, frame):
            return frame[:-40] if index == 2 else frame

        result = run_sharded_memory(
            CountQuery(epsilon=1.0, delta=DELTA),
            [1, 0, 1, 1],
            tamper=tamper,
        )
        release = result.release
        assert release.accepted
        assert "client-2" not in release.audit.clients
        assert any("dropped" in note for note in release.audit.notes)


class TestMergeHelpers:
    """The verifier-level merge API the sharded front-end is built on."""

    def _coin_setup(self, nb=16, seed="merge"):
        query = CountQuery(epsilon=1.0, delta=DELTA)
        params = query.build_params(num_provers=1, group="p64-sim", nb_override=nb)
        prover = Prover("prover-0", params, SeededRNG(seed))
        prover.begin_coin_stream(b"merge-ctx")
        return params, prover

    def test_split_coin_stream_partials_merge_to_the_unsharded_products(self):
        """Two verifiers each verifying half the chunks (fast-forwarding
        the other half) produce Line 12 partials whose product equals the
        single-verifier fold."""
        params, prover = self._coin_setup()
        chunks = []
        bits = []
        for c in range(4):
            message = prover.commit_coin_chunk(4)
            chunk_bits = [[(c + j) % 2] for j in range(4)]
            prover.absorb_public_bits(chunk_bits)
            chunks.append((encode_message(message), message))
            bits.append(chunk_bits)

        whole = PublicVerifier(params, SeededRNG("w"))
        whole.begin_coin_stream("prover-0", b"merge-ctx")
        for (frame, message), chunk_bits in zip(chunks, bits):
            assert whole.verify_coin_chunk(message)
            whole.apply_public_bits_chunk("prover-0", chunk_bits)
        assert whole.finish_coin_stream("prover-0")
        expected = whole._adjusted_products["prover-0"]

        partials = []
        for own_parity in (0, 1):
            shard = PublicVerifier(params, SeededRNG(f"s{own_parity}"))
            shard.begin_coin_stream("prover-0", b"merge-ctx")
            for index, ((frame, message), chunk_bits) in enumerate(zip(chunks, bits)):
                if index % 2 == own_parity:
                    fresh = decode_message(params.group, frame)
                    assert shard.verify_coin_chunk(fresh)
                    shard.apply_public_bits_chunk("prover-0", chunk_bits)
                else:
                    assert shard.skip_coin_chunk("prover-0", frame, 4)
            healthy, products = shard.partial_adjusted_products("prover-0")
            assert healthy
            partials.append(products)

        merged = [
            a.element * b.element for a, b in zip(partials[0], partials[1])
        ]
        assert [c.element for c in expected] == merged

        # install_adjusted_products adopts the merged value wholesale.
        front = PublicVerifier(params, SeededRNG("f"))
        from repro.crypto.pedersen import Commitment

        front.install_adjusted_products("prover-0", [Commitment(m) for m in merged])
        assert front._adjusted_products["prover-0"][0].element == merged[0]

    def test_skip_coin_chunk_rejects_garbage_frames(self):
        params, prover = self._coin_setup()
        message = prover.commit_coin_chunk(4)
        shard = PublicVerifier(params, SeededRNG("g"))
        shard.begin_coin_stream("prover-0", b"merge-ctx")
        assert not shard.skip_coin_chunk("prover-0", b"not a frame", 4)
        # The stream is poisoned: later chunks are refused too.
        assert not shard.verify_coin_chunk(message)

    def test_record_client_verdicts_preserves_order_and_filters(self):
        query = CountQuery(epsilon=1.0, delta=DELTA)
        params = query.build_params(num_provers=1, group="p64-sim", nb_override=16)
        verifier = PublicVerifier(params, SeededRNG("v"))
        valid = verifier.record_client_verdicts(
            [
                ("client-0", ClientStatus.VALID),
                ("client-1", ClientStatus.INVALID_PROOF),
                ("client-2", ClientStatus.BAD_OPENING),
                ("client-3", ClientStatus.VALID),
            ]
        )
        assert valid == ["client-0", "client-3"]
        assert list(verifier.audit.clients) == [
            "client-0",
            "client-1",
            "client-2",
            "client-3",
        ]

    def test_merge_client_products_shape_checked(self):
        query = CountQuery(epsilon=1.0, delta=DELTA)
        params = query.build_params(num_provers=2, group="p64-sim", nb_override=16)
        verifier = PublicVerifier(params, SeededRNG("v"))
        with pytest.raises(Exception):
            verifier.merge_client_products([[None]])  # one row, K = 2
