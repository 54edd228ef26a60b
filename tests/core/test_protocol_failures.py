"""Failure injection: aborts, silence, and malformed messages mid-protocol."""

import pytest

from repro.api.engine import ProtocolEngine, fork_rng
from repro.core.client import Client
from repro.core.messages import ClientShareMessage, ProverStatus
from repro.core.params import setup
from repro.core.prover import Prover
from repro.errors import EarlyExit, ProtocolAbort
from repro.utils.rng import SeededRNG

GROUP = "p64-sim"


def make_params(k=1, nb=8):
    return setup(1.0, 2**-10, num_provers=k, group=GROUP, nb_override=nb)


def run_bits(params, provers, bits, seed):
    rng = SeededRNG(seed)
    engine = ProtocolEngine(params, provers=provers, rng=rng)
    engine.submit_clients(
        Client(f"client-{i}", [bit], fork_rng(rng, f"client-{i}"))
        for i, bit in enumerate(bits)
    )
    return engine.run_release()


class SilentMorraProver(Prover):
    """Goes dark during the Morra reveal — early exit (Section 3.1)."""

    def reveal(self, values, randomness, observed):
        return None


class EquivocatingMorraProver(Prover):
    """Tries to change its Morra contribution after seeing the verifier's."""

    def reveal(self, values, randomness, observed):
        if not observed:
            return values, randomness
        tweaked = list(values)
        tweaked[0] = (values[0] + 1)
        return tweaked, randomness


class MisshapenOutputProver(Prover):
    """Emits an output vector of the wrong dimension."""

    def _emit_output(self, y, z):
        from repro.core.messages import ProverOutputMessage

        return ProverOutputMessage(prover_id=self.name, y=tuple(y) + (0,), z=tuple(z))


class AbortingAggregationProver(Prover):
    """Raises mid-aggregation (e.g. lost its state)."""

    def compute_output(self, valid_ids, public_bits):
        raise ProtocolAbort("prover state lost", party=self.name)


class TestMorraFailures:
    def test_silent_prover_aborts_run(self):
        """Morra silence has no recovery: the run aborts with the party
        named — matching the paper's 'early exit is trivially detected,
        output discarded' semantics."""
        params = make_params()
        prover = SilentMorraProver("prover-0", params, SeededRNG("s"))
        with pytest.raises(EarlyExit) as err:
            run_bits(params, [prover], [1, 0], "x")
        assert err.value.party == "prover-0"

    def test_morra_equivocation_aborts_and_names(self):
        params = make_params()
        # 'prover-0' < 'verifier' lexicographically, so the prover reveals
        # last and observes the verifier's opening first — the adaptive spot.
        prover = EquivocatingMorraProver("prover-0", params, SeededRNG("e"))
        with pytest.raises(ProtocolAbort) as err:
            run_bits(params, [prover], [1], "y")
        assert err.value.party == "prover-0"


class TestOutputFailures:
    def test_misshapen_output_rejected(self):
        params = make_params()
        prover = MisshapenOutputProver("prover-0", params, SeededRNG("m"))
        result = run_bits(params, [prover], [1, 0], "z")
        assert not result.release.accepted
        assert result.release.audit.provers["prover-0"] is ProverStatus.FAILED_FINAL_CHECK

    def test_aggregation_abort_recorded(self):
        params = make_params()
        prover = AbortingAggregationProver("prover-0", params, SeededRNG("a"))
        result = run_bits(params, [prover], [1], "w")
        assert not result.release.accepted
        assert result.release.audit.provers["prover-0"] is ProverStatus.ABORTED

    def test_one_aborting_prover_does_not_crash_others(self):
        params = make_params(k=2)
        provers = [
            AbortingAggregationProver("prover-0", params, SeededRNG("a")),
            Prover("prover-1", params, SeededRNG("h")),
        ]
        result = run_bits(params, provers, [1, 1], "v")
        audit = result.release.audit
        assert audit.provers["prover-0"] is ProverStatus.ABORTED
        assert audit.provers["prover-1"] is ProverStatus.HONEST
        assert not result.release.accepted


class TestClientMessageFailures:
    def test_wrong_arity_share_message_complained(self):
        params = make_params(k=1)
        prover = Prover("prover-0", params, SeededRNG("p"))
        client = Client("c0", [1], SeededRNG("c"))
        broadcast, privates = client.submit(params)
        truncated = ClientShareMessage(client_id="c0", openings=())
        assert prover.receive_client_share(broadcast, truncated, 0) is False

    def test_out_of_range_prover_index_complained(self):
        """A broadcast declaring fewer share-commitment rows than K
        provers yields a complaint (False), never an IndexError — a
        hostile client must not abort the session with the blame landing
        on the honest prover that indexed the missing row."""
        import dataclasses

        params = make_params(k=2)
        prover = Prover("prover-1", params, SeededRNG("p"))
        broadcast, privates = Client("c0", [1], SeededRNG("c")).submit(params)
        short = dataclasses.replace(
            broadcast, share_commitments=broadcast.share_commitments[:1]
        )
        assert prover.receive_client_share(short, privates[1], 1) is False

    def test_short_commitment_row_complained(self):
        """A commitment row shorter than the dimension must be a
        complaint, not a silently truncated zip that accepts unchecked
        openings."""
        import dataclasses

        params = make_params(k=1)
        prover = Prover("prover-0", params, SeededRNG("p"))
        broadcast, privates = Client("c0", [1], SeededRNG("c")).submit(params)
        short = dataclasses.replace(broadcast, share_commitments=((),))
        assert prover.receive_client_share(short, privates[0], 0) is False

    def test_mismatched_client_id_raises(self):
        params = make_params(k=1)
        prover = Prover("prover-0", params, SeededRNG("p"))
        a, privates_a = Client("a", [1], SeededRNG("a")).submit(params)
        b, privates_b = Client("b", [1], SeededRNG("b")).submit(params)
        from repro.errors import ParameterError

        with pytest.raises(ParameterError):
            prover.receive_client_share(a, privates_b[0], 0)

    def test_unknown_validated_client_aborts_prover(self):
        """A prover asked to aggregate a client it never heard from must
        abort rather than guess."""
        params = make_params(k=1)
        prover = Prover("prover-0", params, SeededRNG("p"))
        bits = [[0] for _ in range(params.nb)]
        prover.commit_coins(b"ctx")
        with pytest.raises(ProtocolAbort):
            prover.compute_output(["ghost"], bits)
