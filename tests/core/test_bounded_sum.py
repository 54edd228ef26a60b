"""The bounded-sum extension: range proofs + verifiable scaled noise."""

import dataclasses

import pytest

from repro.api import BoundedSumQuery
from repro.api.engine import ProtocolEngine, fork_rng
from repro.core.messages import ClientStatus
from repro.core.prover import OutputTamperingProver
from repro.core.verifier import PublicVerifier
from repro.errors import ParameterError
from repro.utils.rng import SeededRNG

GROUP = "p64-sim"


def build(bits=4, nb=16):
    """A curator-model (K = 1) bounded-sum query and its public parameters."""
    query = BoundedSumQuery(bits, epsilon=1.0, delta=2**-10)
    return query, query.build_params(num_provers=1, group=GROUP, nb_override=nb)


def submit(query, params, client_id, value, rng):
    """A client's range-proved (broadcast, [share message]) submission."""
    return query.make_client(client_id, value, rng).submit(params)


def validate(query, params, broadcast):
    """Anyone can check a submission's range proof."""
    verifier = PublicVerifier(params, SeededRNG("v"), plan=query.build_plan())
    return verifier.validate_client(broadcast) is ClientStatus.VALID


def run(query, params, submissions, *, curator_rng, tamper_bias=0):
    """Validate clients, aggregate, add verifiable Δ-scaled noise.

    ``tamper_bias`` makes the curator shift its output; any non-zero
    value is caught by the final homomorphic check.
    """
    plan = query.build_plan()
    provers = None
    if tamper_bias:
        provers = [
            OutputTamperingProver(
                "prover-0", params, fork_rng(curator_rng, "prover-0"),
                bias=tamper_bias, plan=plan,
            )
        ]
    engine = ProtocolEngine(params, plan=plan, provers=provers, rng=curator_rng)
    engine.submit_prepared(submissions)
    return engine.run_release().release


def rejected_clients(release):
    return tuple(
        client_id
        for client_id, status in release.audit.clients.items()
        if status is not ClientStatus.VALID
    )


class TestSubmissions:
    def test_submit_and_validate(self):
        query, params = build()
        broadcast, _ = submit(query, params, "c0", 11, SeededRNG("s"))
        assert len(broadcast.share_commitments[0]) == 4
        assert validate(query, params, broadcast)

    def test_derived_commitment_opens_to_value(self):
        query, params = build()
        broadcast, privates = submit(query, params, "c0", 13, SeededRNG("d"))
        derived = params.pedersen.commitment_to_constant(0)
        for j, c in enumerate(broadcast.share_commitments[0]):
            derived = derived * (c ** (1 << j))
        openings = privates[0].openings
        value = sum((1 << j) * o.value for j, o in enumerate(openings))
        randomness = sum((1 << j) * o.randomness for j, o in enumerate(openings))
        q = params.q
        assert params.pedersen.commit(value % q, randomness % q).element == derived.element
        assert value == 13

    def test_out_of_range_rejected_at_submit(self):
        query, params = build(bits=3)
        with pytest.raises(ParameterError):
            submit(query, params, "c0", 8, SeededRNG("x"))
        with pytest.raises(ParameterError):
            submit(query, params, "c0", -1, SeededRNG("x"))

    def test_foreign_proof_fails_validation(self):
        query, params = build()
        sub_a, _ = submit(query, params, "alice", 5, SeededRNG("a"))
        sub_b, _ = submit(query, params, "bob", 5, SeededRNG("b"))
        franken = dataclasses.replace(sub_a, validity_proof=sub_b.validity_proof)
        assert not validate(query, params, franken)

    def test_wrong_width_fails_validation(self):
        query, params = build(bits=4)
        sub, _ = submit(query, params, "c", 3, SeededRNG("w"))
        short = dataclasses.replace(
            sub,
            share_commitments=(sub.share_commitments[0][:3],),
            validity_proof=dataclasses.replace(
                sub.validity_proof, bit_proofs=sub.validity_proof.bit_proofs[:3]
            ),
        )
        assert not validate(query, params, short)


class TestProtocolRun:
    def test_honest_run_accepts(self):
        query, params = build(nb=8)
        values = [3, 7, 12, 0, 15]
        submissions = [
            submit(query, params, f"c{i}", v, SeededRNG(f"c{i}"))
            for i, v in enumerate(values)
        ]
        release = run(query, params, submissions, curator_rng=SeededRNG("cur"))
        assert release.accepted
        assert rejected_clients(release) == ()
        true = sum(values)
        max_dev = query.sensitivity * params.nb / 2
        assert abs(release.estimate[0] - true) <= max_dev + 1

    def test_noise_in_scaled_support(self):
        query, params = build(nb=8)
        submissions = [submit(query, params, "c0", 5, SeededRNG("c0"))]
        release = run(query, params, submissions, curator_rng=SeededRNG("cur2"))
        noise = release.raw[0] - 5
        assert 0 <= noise <= query.sensitivity * params.nb
        assert noise % query.sensitivity == 0  # noise is Δ·Binomial

    def test_tampering_curator_caught(self):
        query, params = build(nb=8)
        submissions = [submit(query, params, "c0", 9, SeededRNG("c0"))]
        release = run(
            query, params, submissions, curator_rng=SeededRNG("cur3"), tamper_bias=5
        )
        assert not release.accepted

    def test_invalid_submission_excluded(self):
        query, params = build(nb=8)
        good = submit(query, params, "good", 6, SeededRNG("g"))
        bad_sub, bad_open = submit(query, params, "bad", 6, SeededRNG("b"))
        franken = (
            dataclasses.replace(
                bad_sub, share_commitments=(bad_sub.share_commitments[0][::-1],)
            ),
            bad_open,
        )
        release = run(query, params, [good, franken], curator_rng=SeededRNG("cur4"))
        assert release.accepted
        assert rejected_clients(release) == ("bad",)
        # Only 'good' counted: raw <= 6 + Δ·nb.
        assert release.raw[0] <= 6 + query.sensitivity * params.nb

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            BoundedSumQuery(0, 1.0, 2**-10)
        with pytest.raises(ParameterError):
            BoundedSumQuery(33, 1.0, 2**-10)

    def test_privacy_calibration_scales_with_sensitivity(self):
        """Wider values ⇒ smaller per-coin ε ⇒ more coins."""
        narrow = BoundedSumQuery(2, 1.0, 2**-10).build_params(num_provers=1, group=GROUP)
        wide = BoundedSumQuery(8, 1.0, 2**-10).build_params(num_provers=1, group=GROUP)
        assert wide.nb > narrow.nb
