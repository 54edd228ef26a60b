"""Verifiable DP histograms through ``Session(HistogramQuery)`` (the
election workload)."""

import pytest

from repro.api import HistogramQuery, Session
from repro.api.engine import ProtocolEngine, fork_rng
from repro.core.params import setup
from repro.core.prover import OutputTamperingProver, Prover
from repro.errors import ParameterError
from repro.utils.rng import SeededRNG

GROUP = "p64-sim"


def make_session(bins=3, k=2, nb=16, seed="hist"):
    return Session(
        HistogramQuery(bins, 1.0, 2**-10), num_provers=k, group=GROUP,
        nb_override=nb, rng=SeededRNG(seed),
    )


def run(session, choices):
    session.submit(choices)
    return session.release()[0]


class TestHistogram:
    def test_counts_near_truth(self):
        session = make_session(seed="counts")
        choices = [0] * 10 + [1] * 5 + [2] * 2
        release = run(session, choices)
        assert release.accepted
        true = [10, 5, 2]
        params = session.params
        for m in range(3):
            # noise per bin: sum of two Binomial(nb, 1/2) minus mean, within support
            assert abs(release.counts[m] - true[m]) <= params.nb * params.num_provers / 2 + 1

    def test_plurality_winner(self):
        session = make_session(seed="winner", nb=8)
        choices = [0] * 30 + [1] * 3 + [2] * 2  # wide margin beats noise
        assert run(session, choices).argmax() == 0

    def test_invalid_choice_rejected(self):
        session = make_session(seed="inv")
        with pytest.raises(ParameterError):
            session.submit([0, 5])

    def test_needs_two_bins(self):
        with pytest.raises(ParameterError):
            HistogramQuery(1, 1.0, 2**-10)

    def test_params_dimension_must_match(self):
        params = setup(1.0, 2**-10, dimension=2, group=GROUP, nb_override=16)
        plan = HistogramQuery(3, 1.0, 2**-10).build_plan()
        with pytest.raises(ParameterError):
            ProtocolEngine(params, plan=plan)

    def test_cheating_prover_rejects_release(self):
        params = setup(1.0, 2**-10, num_provers=2, dimension=2, group=GROUP, nb_override=12)
        provers = [
            Prover("prover-0", params, SeededRNG("p0")),
            OutputTamperingProver("prover-1", params, SeededRNG("p1"), bias=4),
        ]
        rng = SeededRNG("cheat")
        engine = ProtocolEngine(params, provers=provers, rng=rng)
        query = HistogramQuery(2, 1.0, 2**-10)
        engine.submit_clients(
            query.make_client(f"client-{i}", choice, fork_rng(rng, f"client-{i}"))
            for i, choice in enumerate([0, 1, 0])
        )
        assert not engine.run_release().release.accepted
