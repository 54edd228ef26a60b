"""Soundness of ΠBin (Theorem 4.1, second claim).

Every deviation from the protocol — at each line of the soundness case
analysis — is caught and publicly attributed; harmless deviations (biased
private coins) are *not* flagged.
"""

import pytest

from repro.api import CountQuery, Session
from repro.api.engine import ProtocolEngine, fork_rng
from repro.core.client import Client, InconsistentShareClient, NonBinaryClient
from repro.core.messages import ClientStatus, ProverStatus
from repro.core.params import setup
from repro.core.prover import (
    BiasedCoinProver,
    InputDroppingProver,
    InputInjectingProver,
    NonBitCoinProver,
    OutputTamperingProver,
    Prover,
    SkipAdjustmentProver,
)
from repro.utils.rng import SeededRNG

GROUP = "p64-sim"


def params_k(k, nb=32, dimension=1):
    return setup(
        1.0, 2**-10, num_provers=k, group=GROUP, nb_override=nb, dimension=dimension
    )


def run_with_provers(provers, params, bits, seed="s"):
    rng = SeededRNG(seed)
    engine = ProtocolEngine(params, provers=provers, rng=rng)
    engine.submit_clients(
        Client(f"client-{i}", [bit], fork_rng(rng, f"client-{i}"))
        for i, bit in enumerate(bits)
    )
    return engine.run_release()


def session_k(k, nb=32, seed="s"):
    return Session(
        CountQuery(1.0, 2**-10), num_provers=k, group=GROUP, nb_override=nb,
        rng=SeededRNG(seed),
    )


BITS = [1, 0, 1, 1, 0, 0, 1]


class TestCheatingProversCaught:
    def test_output_tampering_fails_final_check(self):
        params = params_k(1)
        cheater = OutputTamperingProver("prover-0", params, SeededRNG("t"), bias=5)
        result = run_with_provers([cheater], params, BITS)
        assert not result.release.accepted
        assert result.release.audit.provers["prover-0"] is ProverStatus.FAILED_FINAL_CHECK

    @pytest.mark.parametrize("bias", [1, -3, 1000])
    def test_any_bias_caught(self, bias):
        params = params_k(1)
        cheater = OutputTamperingProver("prover-0", params, SeededRNG("b"), bias=bias)
        result = run_with_provers([cheater], params, BITS, seed=f"b{bias}")
        assert not result.release.accepted

    def test_skip_adjustment_fails(self):
        params = params_k(1)
        cheater = SkipAdjustmentProver("prover-0", params, SeededRNG("sk"))
        result = run_with_provers([cheater], params, BITS)
        assert not result.release.accepted
        assert result.release.audit.provers["prover-0"] is ProverStatus.FAILED_FINAL_CHECK

    def test_non_bit_coin_rejected_at_proof_stage(self):
        params = params_k(1)
        cheater = NonBitCoinProver("prover-0", params, SeededRNG("nb"))
        result = run_with_provers([cheater], params, BITS)
        assert not result.release.accepted
        assert result.release.audit.provers["prover-0"] is ProverStatus.BAD_COIN_PROOF

    def test_input_dropping_fails(self):
        params = params_k(2)
        provers = [
            Prover("prover-0", params, SeededRNG("h")),
            InputDroppingProver("prover-1", params, SeededRNG("d"), victim="client-0"),
        ]
        result = run_with_provers(provers, params, BITS)
        assert not result.release.accepted
        assert result.release.audit.provers["prover-1"] is ProverStatus.FAILED_FINAL_CHECK
        # Guaranteed inclusion: the victim is still publicly valid.
        assert result.release.audit.clients["client-0"] is ClientStatus.VALID

    def test_input_injection_fails(self):
        params = params_k(2)
        provers = [
            Prover("prover-0", params, SeededRNG("h")),
            InputInjectingProver("prover-1", params, SeededRNG("i"), extra=4),
        ]
        result = run_with_provers(provers, params, BITS)
        assert not result.release.accepted
        assert result.release.audit.provers["prover-1"] is ProverStatus.FAILED_FINAL_CHECK

    def test_honest_prover_not_blamed_for_peer_cheating(self):
        params = params_k(2)
        provers = [
            Prover("prover-0", params, SeededRNG("h2")),
            OutputTamperingProver("prover-1", params, SeededRNG("c2"), bias=9),
        ]
        result = run_with_provers(provers, params, BITS)
        audit = result.release.audit
        assert audit.provers["prover-0"] is ProverStatus.HONEST
        assert audit.provers["prover-1"] is ProverStatus.FAILED_FINAL_CHECK
        assert not result.release.accepted


class TestHarmlessDeviations:
    def test_biased_private_coins_accepted(self):
        """The paper explicitly allows arbitrarily-biased private coins:
        v̂ = v ⊕ b is uniform because the Morra bit is."""
        params = params_k(1, nb=24)
        cheater = BiasedCoinProver("prover-0", params, SeededRNG("bias"))
        result = run_with_provers([cheater], params, BITS)
        assert result.release.accepted
        assert result.release.audit.provers["prover-0"] is ProverStatus.HONEST

    def test_biased_coins_noise_still_binomial(self):
        from repro.analysis.distributions import binomial_goodness_of_fit

        nb = 16
        params = params_k(1, nb=nb)
        noises = []
        for t in range(100):
            cheater = BiasedCoinProver("prover-0", params, SeededRNG(f"bc{t}"))
            result = run_with_provers([cheater], params, [1], seed=f"r{t}")
            noises.append(result.release.raw[0] - 1)
        assert binomial_goodness_of_fit(noises, nb) > 0.001


class TestDishonestClients:
    def test_non_binary_client_rejected(self):
        session = session_k(2, seed="nb")
        params = session.params
        clients = [Client(f"c{i}", [1], SeededRNG(f"c{i}")) for i in range(4)]
        clients.append(NonBinaryClient("evil", [5], SeededRNG("evil")))
        session.submit(clients)
        result = session.release()
        assert result.release.accepted  # provers are honest; release stands
        assert result.release.audit.clients["evil"] is ClientStatus.INVALID_PROOF
        # The four honest inputs (all 1) are counted; evil's 5 votes are not.
        noise_max = 2 * params.nb
        assert 4 <= result.release.raw[0] <= 4 + noise_max

    def test_inconsistent_share_client_excluded_everywhere(self):
        session = session_k(2, seed="inc")
        clients = [Client(f"c{i}", [1], SeededRNG(f"c{i}")) for i in range(3)]
        clients.append(
            InconsistentShareClient("evil", [1], victim_prover=1, rng=SeededRNG("e"))
        )
        session.submit(clients)
        result = session.release()
        assert result.release.accepted
        assert result.release.audit.clients["evil"] is ClientStatus.BAD_OPENING
        assert result.release.audit.clients["c0"] is ClientStatus.VALID

    def test_release_excludes_rejected_inputs(self):
        """With zero noise coins impossible (nb>=1), run many trials:
        the rejected client's bit must never be counted.  Here nb small
        and inputs chosen so the bound is tight."""
        session = session_k(1, nb=4, seed="ex")
        clients = [Client("c0", [0], SeededRNG("c0"))]
        clients.append(NonBinaryClient("evil", [7], SeededRNG("ev")))
        session.submit(clients)
        result = session.release()
        # Only honest input 0 plus noise in [0, 4]: raw <= 4 < 7.
        assert result.release.raw[0] <= 4


class TestMultipleCheaters:
    def test_two_cheating_provers_both_named(self):
        params = params_k(3)
        provers = [
            Prover("prover-0", params, SeededRNG("p0")),
            OutputTamperingProver("prover-1", params, SeededRNG("p1"), bias=2),
            SkipAdjustmentProver("prover-2", params, SeededRNG("p2")),
        ]
        result = run_with_provers(provers, params, BITS)
        audit = result.release.audit
        assert audit.provers["prover-0"] is ProverStatus.HONEST
        assert audit.provers["prover-1"] is ProverStatus.FAILED_FINAL_CHECK
        assert audit.provers["prover-2"] is ProverStatus.FAILED_FINAL_CHECK
        assert not result.release.accepted

    def test_cheating_client_and_prover_simultaneously(self):
        params = params_k(2)
        provers = [
            Prover("prover-0", params, SeededRNG("p0")),
            OutputTamperingProver("prover-1", params, SeededRNG("p1"), bias=3),
        ]
        engine = ProtocolEngine(params, provers=provers, rng=SeededRNG("cc"))
        clients = [Client(f"c{i}", [1], SeededRNG(f"c{i}")) for i in range(3)]
        clients.append(NonBinaryClient("evil", [9], SeededRNG("e")))
        engine.submit_clients(clients)
        result = engine.run_release()
        audit = result.release.audit
        assert audit.clients["evil"] is ClientStatus.INVALID_PROOF
        assert audit.provers["prover-1"] is ProverStatus.FAILED_FINAL_CHECK
        assert not result.release.accepted
