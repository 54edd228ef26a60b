"""Completeness of ΠBin (Theorem 4.1, first claim).

Honest runs always accept, include every client, and release
Q(X) + Binomial(K·nb, 1/2) — checked both structurally (per run) and
distributionally (across repeated runs).
"""

import pytest

from repro.analysis.distributions import binomial_goodness_of_fit
from repro.api import CountQuery, HistogramQuery, Session
from repro.api.engine import ProtocolEngine
from repro.core.client import Client
from repro.core.messages import ClientStatus
from repro.core.params import setup
from repro.errors import ParameterError
from repro.utils.rng import SeededRNG

GROUP = "p64-sim"


def run_once(bits, *, num_provers=1, nb=32, seed="c"):
    session = Session(
        CountQuery(1.0, 2**-10), num_provers=num_provers, group=GROUP,
        nb_override=nb, rng=SeededRNG(seed),
    )
    session.submit(bits)
    return session.params, session.release()[0].engine_result


class TestCuratorModel:
    def test_honest_run_accepts(self):
        params, result = run_once([1, 0, 1, 1, 0], seed="a1")
        assert result.release.accepted
        assert result.release.audit.all_provers_honest()

    def test_all_clients_validated(self):
        _, result = run_once([1] * 6, seed="a2")
        statuses = result.release.audit.clients.values()
        assert all(s is ClientStatus.VALID for s in statuses)

    def test_raw_output_is_count_plus_noise(self):
        params, result = run_once([1, 1, 1, 0, 0], nb=48, seed="a3")
        noise = result.release.raw[0] - 3
        assert 0 <= noise <= params.nb  # Binomial support

    def test_estimate_debiased(self):
        params, result = run_once([1, 0], nb=48, seed="a4")
        assert result.release.estimate[0] == result.release.raw[0] - params.nb / 2

    def test_empty_dataset(self):
        params, result = run_once([], nb=32, seed="a5")
        assert result.release.accepted
        noise = result.release.raw[0]
        assert 0 <= noise <= params.nb

    def test_all_zero_inputs(self):
        _, result = run_once([0, 0, 0, 0], seed="a6")
        assert result.release.accepted

    def test_timer_covers_table1_stages(self):
        _, result = run_once([1, 0], seed="a7")
        for stage in ("sigma-proof", "sigma-verification", "morra", "aggregation", "check"):
            assert stage in result.timer.stages

    def test_noise_distribution_matches_binomial(self):
        """Across many runs the protocol noise is Binomial(nb, 1/2) —
        the completeness distribution claim, tested at the protocol level."""
        nb = 16
        noises = []
        for t in range(120):
            _, result = run_once([1, 0, 1], nb=nb, seed=f"dist{t}")
            assert result.release.accepted
            noises.append(result.release.raw[0] - 2)
        assert binomial_goodness_of_fit(noises, nb) > 0.001


class TestMpcModel:
    @pytest.mark.parametrize("k", [2, 3])
    def test_honest_mpc_accepts(self, k):
        params, result = run_once([1, 0, 1], num_provers=k, seed=f"m{k}")
        assert result.release.accepted

    def test_mpc_noise_is_k_copies(self):
        """K provers ⇒ noise support is [0, K·nb] and mean K·nb/2."""
        nb, k = 24, 2
        noises = []
        for t in range(60):
            _, result = run_once([1], num_provers=k, nb=nb, seed=f"k{t}")
            noises.append(result.release.raw[0] - 1)
        assert all(0 <= z <= k * nb for z in noises)
        mean = sum(noises) / len(noises)
        assert abs(mean - k * nb / 2) < 4.0
        # Sum of independent binomials IS Binomial(K*nb, 1/2):
        assert binomial_goodness_of_fit(noises, k * nb) > 0.001

    def test_public_bits_per_prover_differ(self):
        params, result = run_once([1], num_provers=2, seed="pb")
        bits = result.public_bits
        assert set(bits) == {"prover-0", "prover-1"}
        assert bits["prover-0"] != bits["prover-1"]


class TestHistogramDimension:
    def test_m_dimensional_counts(self):
        session = Session(
            HistogramQuery(3, 1.0, 2**-10), num_provers=2, group=GROUP,
            nb_override=24, rng=SeededRNG("hist"),
        )
        params = session.params
        clients = [
            Client(f"c{i}", [1 if m == i % 3 else 0 for m in range(3)], SeededRNG(f"c{i}"))
            for i in range(9)
        ]
        session.submit(clients)
        result = session.release()
        assert result.release.accepted
        for m in range(3):
            noise = result.release.raw[m] - 3
            assert 0 <= noise <= 2 * params.nb


class TestConstruction:
    def test_wrong_prover_count_rejected(self):
        from repro.core.prover import Prover

        params = setup(1.0, 2**-10, num_provers=2, group=GROUP, nb_override=24)
        with pytest.raises(ParameterError):
            ProtocolEngine(params, provers=[Prover("p", params)], rng=SeededRNG("x"))

    def test_duplicate_prover_names_rejected(self):
        from repro.core.prover import Prover

        params = setup(1.0, 2**-10, num_provers=2, group=GROUP, nb_override=24)
        with pytest.raises(ParameterError):
            ProtocolEngine(
                params,
                provers=[Prover("p", params), Prover("p", params)],
                rng=SeededRNG("x"),
            )
