"""Composing ΠBin with existing (non-verifiable) DP-MPC systems.

The paper (contribution 3) notes that ΠBin "can be combined with existing
(non-verifiable) DP-MPC protocols, such as PRIO and Poplar, to enforce
verifiability".  The precise composition implemented here:

* the outer system (PRIO-style) aggregates client shares as usual and
  each server obtains a partial plaintext aggregate A_k;
* each server *additionally* runs the coin phase of ΠBin with the public
  verifier (commit to nb private bits, Σ-OR proofs, Morra, Line 12/13
  check restricted to the coin commitments), publishing
  y_k = A_k + Σ_j v̂_j and z_k = the signed coin randomness, together
  with a Pedersen commitment to A_k;
* the verifier checks  Com(A_k) · Π_j ĉ'_j == Com(y_k, z_k).

What this buys: the **DP noise becomes verifiable** — a malicious server
can no longer bias "random" noise, which is the attack the paper is
about.  What it does not buy: the correctness of A_k itself still rests
on the outer system's guarantees (PRIO's SNIPs + semi-honest servers),
because PRIO clients never publish per-share commitments.  Upgrading
aggregate correctness too requires the full ΠBin client flow
(:mod:`repro.api.session`).  The docstring-level contract matters:
``VerifiableNoiseWrapper`` verifies noise, not history.

The wrapper rides the same coin-phase machinery as the session engine
(:meth:`repro.core.prover.Prover.begin_coin_stream` and friends), so
each attestation's transcript has the shape of a ΠBin prover's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.params import PublicParams
from repro.core.prover import Prover, coin_transcript
from repro.crypto.pedersen import Commitment
from repro.crypto.sigma.or_bit import BitProof, verify_bit
from repro.errors import VerificationError
from repro.mpc.morra import MorraParticipant, run_morra_batch
from repro.utils.rng import RNG, default_rng

__all__ = ["NoiseAttestation", "VerifiableNoiseWrapper"]


@dataclass(frozen=True)
class NoiseAttestation:
    """One server's proof that its published value is aggregate + honest noise."""

    server_id: str
    aggregate_commitment: Commitment
    coin_commitments: tuple[Commitment, ...]
    coin_proofs: tuple[BitProof, ...]
    public_bits: tuple[int, ...]
    y: int
    z: int


class VerifiableNoiseWrapper:
    """Attach verifiable Binomial noise to an outer aggregate.

    Noise-only attestation: a full ``repro.api.Session`` query also
    verifies the aggregate.
    """

    def __init__(self, params: PublicParams, rng: RNG | None = None) -> None:
        if params.dimension != 1:
            raise VerificationError("wrapper operates per scalar aggregate; wrap each bin")
        self.params = params
        self.rng = default_rng(rng)

    def attest(
        self,
        server: MorraParticipant,
        verifier: MorraParticipant,
        aggregate: int,
        context: bytes,
    ) -> NoiseAttestation:
        """Run the coin phase for one server holding plaintext ``aggregate``.

        The coin commitment/proof/adjustment flow is the session engine's
        streamed prover machinery run as a single chunk, so the published
        transcript shape is identical to a ΠBin prover's.
        """
        params = self.params
        pedersen = params.pedersen
        q = params.q

        agg_commitment, agg_opening = pedersen.commit_fresh(aggregate % q, server.rng)

        prover = Prover(server.name, params, server.rng)
        prover.begin_coin_stream(context)
        message = prover.commit_coin_chunk(params.nb)

        bits = run_morra_batch([server, verifier], q, params.nb).bits()
        prover.absorb_public_bits([[bit] for bit in bits])
        noise = prover.finish_output()

        return NoiseAttestation(
            server_id=server.name,
            aggregate_commitment=agg_commitment,
            coin_commitments=tuple(row[0] for row in message.commitments),
            coin_proofs=tuple(row[0] for row in message.proofs),
            public_bits=tuple(bits),
            y=(aggregate + noise.y[0]) % q,
            z=(agg_opening.randomness + noise.z[0]) % q,
        )

    def verify(self, attestation: NoiseAttestation, context: bytes) -> None:
        """Public verification of one attestation; raises on failure."""
        params = self.params
        pedersen = params.pedersen
        transcript = coin_transcript(params, attestation.server_id, context)
        for commitment, proof in zip(attestation.coin_commitments, attestation.coin_proofs):
            verify_bit(pedersen, commitment, proof, transcript)
        product = attestation.aggregate_commitment
        for commitment, bit in zip(attestation.coin_commitments, attestation.public_bits):
            adjusted = pedersen.one_minus(commitment) if bit else commitment
            product = product * adjusted
        if product.element != pedersen.commit(attestation.y, attestation.z).element:
            raise VerificationError(
                "noise attestation failed the homomorphic check",
                culprit=attestation.server_id,
            )
