"""Zero-knowledge simulators (Theorem 4.1 claim 3 / Appendix D).

The executable simulator receives only public data and the ideal output,
yet fabricates views that (a) pass every public verifier check and
(b) are distributionally indistinguishable from real runs on the public
components the verifier actually sees.
"""

import pytest

from repro.analysis.distributions import binomial_goodness_of_fit, chi_square_uniform
from repro.api import CountQuery, Session
from repro.core.client import Client
from repro.core.params import setup
from repro.core.simulator import simulate_curator_view, simulate_mpc_view
from repro.dp.binomial import sample_binomial
from repro.errors import ParameterError
from repro.utils.rng import SeededRNG

GROUP = "p64-sim"


def curator_params(nb=24):
    return setup(1.0, 2**-10, num_provers=1, group=GROUP, nb_override=nb)


def public_client_commitments(params, bits, seed="cc"):
    """What the simulator legitimately sees: the broadcast commitments."""
    rng = SeededRNG(seed)
    commitments = []
    for i, bit in enumerate(bits):
        broadcast, _ = Client(f"c{i}", [bit], rng.fork(f"c{i}")).submit(params)
        commitments.append(broadcast.share_commitments[0][0])
    return commitments


class TestCuratorSimulator:
    def test_simulated_view_passes_line13(self):
        params = curator_params()
        bits = [1, 0, 1]
        commitments = public_client_commitments(params, bits)
        ideal = sum(bits) + sample_binomial(params.nb, SeededRNG("ideal"))
        view = simulate_curator_view(params, commitments, ideal, SeededRNG("sim"))
        assert view.verify_line13(params, commitments)

    def test_simulated_output_equals_ideal(self):
        params = curator_params()
        commitments = public_client_commitments(params, [1, 1])
        view = simulate_curator_view(params, commitments, 40, SeededRNG("s"))
        assert view.y == 40

    def test_simulated_bits_uniform(self):
        params = curator_params(nb=64)
        commitments = public_client_commitments(params, [1])
        all_bits = []
        for t in range(40):
            view = simulate_curator_view(params, commitments, 5, SeededRNG(f"b{t}"))
            all_bits.extend(view.public_bits)
        assert chi_square_uniform(all_bits) > 0.001

    def test_simulator_never_sees_witnesses(self):
        """API-level guarantee: inputs are commitments (no openings) and
        the ideal output — nothing else."""
        params = curator_params()
        view = simulate_curator_view(params, [], 7, SeededRNG("w"))
        assert view.verify_line13(params, [])

    def test_shape_matches_real_protocol(self):
        params = curator_params()
        commitments = public_client_commitments(params, [0, 1])
        view = simulate_curator_view(params, commitments, 9, SeededRNG("sh"))
        assert len(view.coin_commitments) == params.nb
        assert len(view.public_bits) == params.nb
        assert 0 <= view.z < params.q

    def test_requires_curator_params(self):
        params = setup(1.0, 2**-10, num_provers=2, group=GROUP, nb_override=24)
        with pytest.raises(ParameterError):
            simulate_curator_view(params, [], 0, SeededRNG("x"))

    def test_requires_dimension_one(self):
        params = setup(1.0, 2**-10, dimension=2, group=GROUP, nb_override=24)
        with pytest.raises(ParameterError):
            simulate_curator_view(params, [], 0, SeededRNG("x"))


class TestIndistinguishability:
    def test_y_distribution_matches_real_runs(self):
        """Distinguisher's main statistic: the released y.  Real protocol
        runs and simulated views (fed the ideal MBin output) must produce
        the same distribution of y - Q(X)."""
        nb = 16
        params = curator_params(nb=nb)
        bits = [1, 0, 1]
        true = sum(bits)

        real_noise = []
        for t in range(80):
            session = Session(
                CountQuery(1.0, 2**-10), group=GROUP, nb_override=nb,
                rng=SeededRNG(f"real{t}"),
            )
            session.submit(bits)
            result = session.release()
            real_noise.append(result.release.raw[0] - true)

        sim_noise = []
        commitments = public_client_commitments(params, bits)
        for t in range(80):
            rng = SeededRNG(f"sim{t}")
            ideal = true + sample_binomial(nb, rng)  # MBin's ideal output
            view = simulate_curator_view(params, commitments, ideal, rng)
            sim_noise.append(view.y - true)

        assert binomial_goodness_of_fit(real_noise, nb) > 0.001
        assert binomial_goodness_of_fit(sim_noise, nb) > 0.001

    def test_z_uniform_in_both_worlds(self):
        """The aggregate randomness z is uniform on Z_q in real runs
        (sum of fresh uniforms) and in simulated views (sampled)."""
        params = curator_params(nb=8)
        commitments = public_client_commitments(params, [1])
        buckets_sim = [0] * 4
        for t in range(200):
            view = simulate_curator_view(params, commitments, 3, SeededRNG(f"z{t}"))
            buckets_sim[view.z * 4 // params.q] += 1
        assert max(buckets_sim) - min(buckets_sim) < 80


class TestMpcSimulator:
    def test_honest_share_view_verifies(self):
        params = setup(1.0, 2**-10, num_provers=2, group=GROUP, nb_override=16)
        rng = SeededRNG("mpc")
        bits = [1, 0, 1, 1]
        broadcasts = []
        for i, bit in enumerate(bits):
            b, _ = Client(f"c{i}", [bit], rng.fork(f"c{i}")).submit(params)
            broadcasts.append(b)
        per_prover = [
            [b.share_commitments[k][0] for b in broadcasts] for k in range(2)
        ]
        # Corrupted prover used X1 (arbitrary); ideal output from MBin.
        x1 = 12345 % params.q
        ideal = (
            x1
            + sample_binomial(params.nb, rng)
            + sum(bits)  # stand-in for X2 + Δ2 (any y works: ZK for all y)
        ) % params.q
        y1, view2 = simulate_mpc_view(params, per_prover, x1, ideal, rng)
        assert (y1 + view2.y) % params.q == ideal
        assert view2.verify_line13(params, per_prover[1])

    def test_requires_two_provers(self):
        params = curator_params()
        with pytest.raises(ParameterError):
            simulate_mpc_view(params, [[]], 0, 0, SeededRNG("x"))


class TestGeneralKSimulator:
    def _setup(self, k, bits, seed="gen"):
        params = setup(1.0, 2**-10, num_provers=k, group=GROUP, nb_override=12)
        rng = SeededRNG(seed)
        broadcasts = []
        for i, bit in enumerate(bits):
            b, _ = Client(f"c{i}", [bit], rng.fork(f"c{i}")).submit(params)
            broadcasts.append(b)
        per_prover = [
            [b.share_commitments[j][0] for b in broadcasts] for j in range(k)
        ]
        return params, per_prover, rng

    @pytest.mark.parametrize("k,corrupted", [(3, {0}), (3, {0, 2}), (4, {1})])
    def test_views_verify_and_sum(self, k, corrupted):
        from repro.core.simulator import simulate_mpc_view_general

        params, per_prover, rng = self._setup(k, [1, 0, 1], seed=f"g{k}{len(corrupted)}")
        corrupted_inputs = {j: (j + 1) * 111 % params.q for j in corrupted}
        ideal = 424242 % params.q
        outputs, views = simulate_mpc_view_general(
            params, per_prover, corrupted_inputs, ideal, rng
        )
        assert set(outputs) == corrupted
        assert set(views) == set(range(k)) - corrupted
        total = (sum(outputs.values()) + sum(v.y for v in views.values())) % params.q
        assert total == ideal
        for j, view in views.items():
            assert view.verify_line13(params, per_prover[j])

    def test_rejects_full_corruption(self):
        from repro.core.simulator import simulate_mpc_view_general

        params, per_prover, rng = self._setup(2, [1])
        with pytest.raises(ParameterError):
            simulate_mpc_view_general(params, per_prover, {0: 1, 1: 2}, 0, rng)

    def test_rejects_bad_commitment_arity(self):
        from repro.core.simulator import simulate_mpc_view_general

        params, per_prover, rng = self._setup(3, [1])
        with pytest.raises(ParameterError):
            simulate_mpc_view_general(params, per_prover[:2], {0: 1}, 0, rng)
