"""Property-based protocol tests: completeness over random configurations.

Hypothesis drives random datasets, prover counts and dimensions through
full protocol runs; the invariants — acceptance, bounded noise, audit
consistency — must hold for every configuration.
"""

from hypothesis import given, settings, strategies as st

from repro.api import CountQuery, HistogramQuery, Session
from repro.core.client import Client
from repro.core.messages import ClientStatus
from repro.utils.rng import SeededRNG

GROUP = "p64-sim"


def run_session(query, records, *, k=1, nb, seed):
    session = Session(
        query, num_provers=k, group=GROUP, nb_override=nb, rng=SeededRNG(seed)
    )
    session.submit(records)
    return session.params, session.release()[0].engine_result


class TestCompletenessProperties:
    @given(
        bits=st.lists(st.integers(min_value=0, max_value=1), max_size=8),
        k=st.integers(min_value=1, max_value=3),
        nb=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=20, deadline=None)
    def test_honest_run_invariants(self, bits, k, nb):
        seed = f"prop-{len(bits)}-{k}-{nb}"
        _, result = run_session(CountQuery(1.0, 2**-10), bits, k=k, nb=nb, seed=seed)
        release = result.release

        # 1. Honest runs always accept (completeness, δc = 0).
        assert release.accepted
        # 2. Every client validated.
        assert all(s is ClientStatus.VALID for s in release.audit.clients.values())
        # 3. Raw output = count + noise with noise in [0, K·nb].
        noise = release.raw[0] - sum(bits)
        assert 0 <= noise <= k * nb
        # 4. Debiasing is exactly the public mean.
        assert release.estimate[0] == release.raw[0] - k * nb / 2
        # 5. The public bit matrices have the right shape.
        for bits_matrix in result.public_bits.values():
            assert len(bits_matrix) == nb
            assert all(b in (0, 1) for row in bits_matrix for b in row)

    @given(
        dimension=st.integers(min_value=2, max_value=4),
        choices=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=6),
    )
    @settings(max_examples=10, deadline=None)
    def test_histogram_invariants(self, dimension, choices):
        choices = [c % dimension for c in choices]
        clients = [
            Client(
                f"c{i}",
                [1 if m == choice else 0 for m in range(dimension)],
                SeededRNG(f"c{i}"),
            )
            for i, choice in enumerate(choices)
        ]
        params, result = run_session(
            HistogramQuery(dimension, 1.0, 2**-10), clients,
            k=2, nb=6, seed=f"h-{dimension}-{len(choices)}",
        )
        assert result.release.accepted
        true = [choices.count(m) for m in range(dimension)]
        for m in range(dimension):
            noise = result.release.raw[m] - true[m]
            assert 0 <= noise <= 2 * params.nb

    @given(bits=st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=6))
    @settings(max_examples=10, deadline=None)
    def test_determinism_per_seed(self, bits):
        """Same seed ⇒ identical release; different seed ⇒ fresh noise."""
        query = CountQuery(1.0, 2**-10)
        _, one = run_session(query, bits, nb=8, seed="det")
        _, two = run_session(query, bits, nb=8, seed="det")
        assert one.release.raw == two.release.raw
        assert one.public_bits == two.public_bits
