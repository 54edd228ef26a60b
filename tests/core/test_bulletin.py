"""Byte-level public auditability: publish a run, replay the audit."""

import pytest

from repro.api.engine import ProtocolEngine, fork_rng
from repro.core.bulletin import replay_audit
from repro.core.client import Client, NonBinaryClient
from repro.core.messages import ClientStatus, ProverStatus
from repro.core.params import setup
from repro.core.prover import OutputTamperingProver, Prover
from repro.utils.rng import SeededRNG

GROUP = "p64-sim"


def run_engine(params, clients=None, *, bits=(1, 0, 1), provers=None, seed="bb"):
    """One buffered engine run; ``clients=None`` enrolls ``bits`` as
    ``client-i``, each forked from the run's RNG."""
    rng = SeededRNG(seed)
    engine = ProtocolEngine(params, provers=provers, rng=rng)
    if clients is None:
        clients = [
            Client(f"client-{i}", [bit], fork_rng(rng, f"client-{i}"))
            for i, bit in enumerate(bits)
        ]
    engine.submit_clients(clients)
    return engine.run_release()


def run_and_publish(*, k=1, seed="bb"):
    params = setup(1.0, 2**-10, num_provers=k, group=GROUP, nb_override=16)
    result = run_engine(params, seed=seed)
    return params, result, result.to_bulletin(params)


class TestHonestReplay:
    def test_replay_matches_original_audit(self):
        params, result, board = run_and_publish()
        replayed = replay_audit(params, board)
        assert replayed.clients == result.release.audit.clients
        assert replayed.provers == result.release.audit.provers
        assert replayed.all_provers_honest()

    def test_replay_mpc(self):
        params, result, board = run_and_publish(k=2, seed="bb2")
        replayed = replay_audit(params, board)
        assert replayed.provers == result.release.audit.provers

    def test_replay_histogram_dimension(self):
        params = setup(1.0, 2**-10, num_provers=2, dimension=3, group=GROUP, nb_override=8)
        clients = [
            Client(f"c{i}", [1 if m == i % 3 else 0 for m in range(3)], SeededRNG(f"c{i}"))
            for i in range(5)
        ]
        result = run_engine(params, clients, seed="bbh")
        replayed = replay_audit(params, result.to_bulletin(params))
        assert replayed.all_provers_honest()

    def test_board_sizes_accounted(self):
        params, result, board = run_and_publish(seed="bb3")
        assert board.total_bytes() > 0
        assert len(board.topic("client-broadcast/")) == 3
        assert len(board.topic("coin-commitments/")) == 1
        assert len(board.topic("prover-output/")) == 1


class TestDishonestRunsReplay:
    def test_cheating_prover_detected_from_bytes(self):
        params = setup(1.0, 2**-10, num_provers=1, group=GROUP, nb_override=16)
        cheater = OutputTamperingProver("prover-0", params, SeededRNG("c"), bias=4)
        result = run_engine(params, bits=[1, 0], provers=[cheater], seed="bb4")
        replayed = replay_audit(params, result.to_bulletin(params))
        assert replayed.provers["prover-0"] is ProverStatus.FAILED_FINAL_CHECK

    def test_dishonest_client_rejected_from_bytes(self):
        params = setup(1.0, 2**-10, num_provers=2, group=GROUP, nb_override=8)
        clients = [Client(f"c{i}", [1], SeededRNG(f"c{i}")) for i in range(3)]
        clients.append(NonBinaryClient("evil", [4], SeededRNG("e")))
        result = run_engine(params, clients, seed="bb5")
        replayed = replay_audit(params, result.to_bulletin(params))
        assert replayed.clients["evil"] is ClientStatus.INVALID_PROOF
        assert replayed.clients["c0"] is ClientStatus.VALID


class TestTamperedBoard:
    def test_tampered_output_detected(self):
        """An adversary rewriting the board's output entry cannot produce
        an accepting audit: the commitments pin the true value."""
        params, result, board = run_and_publish(seed="bb6")
        entry = board.topic("prover-output/")[0]
        payload = bytearray(entry.payload)
        payload[-1] ^= 0x01  # flip a bit of z
        idx = board.entries.index(entry)
        from repro.core.bulletin import BoardEntry

        board.entries[idx] = BoardEntry(entry.topic, entry.party, bytes(payload))
        replayed = replay_audit(params, board)
        assert replayed.provers["prover-0"] is ProverStatus.FAILED_FINAL_CHECK

    def test_dropped_client_entry_detected(self):
        """Deleting an honest client's broadcast desyncs the product check
        — a censoring bulletin operator is caught too."""
        params, result, board = run_and_publish(seed="bb7")
        victim = board.topic("client-broadcast/client-0")[0]
        board.entries.remove(victim)
        replayed = replay_audit(params, board)
        assert not replayed.all_provers_honest()
