"""Wire format roundtrips and tamper detection."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.params import setup
from repro.core.prover import Prover, coin_transcript
from repro.crypto.fiat_shamir import Transcript
from repro.crypto.serialization import (
    advance_coin_transcript,
    advance_coin_transcript_frame,
    decode_bit_proof,
    decode_commitment,
    decode_message,
    decode_one_hot_proof,
    decode_opening_proof,
    decode_schnorr_proof,
    encode_bit_proof,
    encode_commitment,
    encode_message,
    encode_one_hot_proof,
    encode_opening_proof,
    encode_schnorr_proof,
)
from repro.crypto.sigma.onehot import prove_one_hot, verify_one_hot
from repro.crypto.sigma.opening_pok import prove_opening, verify_opening
from repro.crypto.sigma.or_bit import prove_bit, verify_bit
from repro.crypto.sigma.schnorr_pok import prove_dlog, verify_dlog
from repro.errors import EncodingError, NotOnGroupError
from repro.utils.rng import SeededRNG


class TestCommitmentRoundtrip:
    @given(st.integers(min_value=0, max_value=2**40))
    @settings(max_examples=20)
    def test_roundtrip(self, pedersen64, x):
        c, _ = pedersen64.commit_fresh(x, SeededRNG(f"c{x}"))
        data = encode_commitment(c)
        assert decode_commitment(pedersen64.group, data) == c

    def test_garbage_rejected(self, pedersen64):
        with pytest.raises((EncodingError, NotOnGroupError)):
            decode_commitment(pedersen64.group, b"\x00" * 3)


class TestBitProofRoundtrip:
    @pytest.mark.parametrize("bit", [0, 1])
    def test_roundtrip_and_still_verifies(self, pedersen64, bit):
        rng = SeededRNG(f"bp{bit}")
        c, o = pedersen64.commit_fresh(bit, rng)
        proof = prove_bit(pedersen64, c, o, Transcript("t"), rng)
        restored = decode_bit_proof(pedersen64.group, encode_bit_proof(proof))
        assert restored == proof
        verify_bit(pedersen64, c, restored, Transcript("t"))

    def test_wrong_magic_rejected(self, pedersen64, rng):
        c, o = pedersen64.commit_fresh(0, rng)
        proof = prove_bit(pedersen64, c, o, Transcript("t"), rng)
        data = bytearray(encode_bit_proof(proof))
        data[10] ^= 0xFF  # corrupt inside the magic
        with pytest.raises(EncodingError):
            decode_bit_proof(pedersen64.group, bytes(data))

    def test_truncated_rejected(self, pedersen64, rng):
        c, o = pedersen64.commit_fresh(1, rng)
        proof = prove_bit(pedersen64, c, o, Transcript("t"), rng)
        data = encode_bit_proof(proof)
        with pytest.raises(EncodingError):
            decode_bit_proof(pedersen64.group, data[: len(data) // 2])

    def test_cross_backend(self, ristretto):
        from repro.crypto.pedersen import PedersenParams

        pp = PedersenParams(ristretto)
        rng = SeededRNG("rist")
        c, o = pp.commit_fresh(1, rng)
        proof = prove_bit(pp, c, o, Transcript("t"), rng)
        restored = decode_bit_proof(ristretto, encode_bit_proof(proof))
        verify_bit(pp, c, restored, Transcript("t"))


class TestOneHotRoundtrip:
    def test_roundtrip_and_verifies(self, pedersen64):
        rng = SeededRNG("oh")
        cs, os_ = pedersen64.commit_vector([0, 1, 0, 0], rng)
        proof = prove_one_hot(pedersen64, cs, os_, Transcript("t"), rng)
        restored = decode_one_hot_proof(pedersen64.group, encode_one_hot_proof(proof))
        assert restored == proof
        verify_one_hot(pedersen64, cs, restored, Transcript("t"))

    def test_empty_rejected(self, pedersen64):
        from repro.utils.encoding import encode_length_prefixed

        with pytest.raises(EncodingError):
            decode_one_hot_proof(
                pedersen64.group, encode_length_prefixed(b"repro.onehot.v1")
            )


class TestSchnorrRoundtrip:
    def test_roundtrip_and_verifies(self, group64):
        rng = SeededRNG("sch")
        g = group64.generator()
        w = group64.random_scalar(rng)
        proof = prove_dlog(group64, g, g ** w, w, Transcript("t"), rng)
        restored = decode_schnorr_proof(group64, encode_schnorr_proof(proof))
        assert restored == proof
        verify_dlog(group64, g, g ** w, restored, Transcript("t"))


class TestAllCodecsAllBackends:
    """Satellite sweep: every codec round-trips on every group backend,
    and malformed/truncated/wrong-magic inputs raise EncodingError."""

    @pytest.fixture(
        scope="class", params=["p64-sim", "ristretto255", "p256"]
    )
    def pp(self, request):
        from repro.core.params import _resolve_group
        from repro.crypto.pedersen import PedersenParams

        return PedersenParams(_resolve_group(request.param))

    @given(st.integers(min_value=0, max_value=1), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=8, deadline=None)
    def test_bit_proof_property_roundtrip(self, pp, bit, nonce):
        from repro.crypto.serialization import decode_bit_proof, encode_bit_proof

        rng = SeededRNG(f"all-{bit}-{nonce}")
        c, o = pp.commit_fresh(bit, rng)
        proof = prove_bit(pp, c, o, Transcript("t"), rng)
        restored = decode_bit_proof(pp.group, encode_bit_proof(proof))
        assert restored == proof
        verify_bit(pp, c, restored, Transcript("t"))

    def test_one_hot_roundtrip(self, pp):
        from repro.crypto.serialization import (
            decode_one_hot_proof,
            encode_one_hot_proof,
        )

        rng = SeededRNG("all-oh")
        cs, os_ = pp.commit_vector([0, 0, 1], rng)
        proof = prove_one_hot(pp, cs, os_, Transcript("t"), rng)
        restored = decode_one_hot_proof(pp.group, encode_one_hot_proof(proof))
        assert restored == proof
        verify_one_hot(pp, cs, restored, Transcript("t"))

    def test_bit_vector_roundtrip_and_verifies(self, pp):
        from repro.crypto.serialization import (
            decode_bit_vector_proof,
            encode_bit_vector_proof,
        )
        from repro.crypto.sigma.bitvec import prove_bit_vector, verify_bit_vector

        rng = SeededRNG("all-bv")
        cs, os_ = pp.commit_vector([1, 0, 1, 1], rng)
        proof = prove_bit_vector(pp, cs, os_, Transcript("t"), rng)
        restored = decode_bit_vector_proof(pp.group, encode_bit_vector_proof(proof))
        assert restored == proof
        verify_bit_vector(pp, cs, restored, Transcript("t"))

    def test_validity_proof_dispatch(self, pp):
        from repro.crypto.serialization import (
            decode_validity_proof,
            encode_validity_proof,
        )
        from repro.crypto.sigma.bitvec import prove_bit_vector

        rng = SeededRNG("all-dispatch")
        c, o = pp.commit_fresh(1, rng)
        bit = prove_bit(pp, c, o, Transcript("t"), rng)
        cs, os_ = pp.commit_vector([0, 1], rng)
        bitvec = prove_bit_vector(pp, cs, os_, Transcript("t"), rng)
        for proof in (bit, bitvec):
            assert decode_validity_proof(pp.group, encode_validity_proof(proof)) == proof
        with pytest.raises(EncodingError):
            decode_validity_proof(pp.group, b"\x00\x00\x00\x03abc")

    def test_schnorr_and_opening_roundtrip(self, pp):
        from repro.crypto.serialization import (
            decode_opening_proof,
            decode_schnorr_proof,
            encode_opening_proof,
            encode_schnorr_proof,
        )

        rng = SeededRNG("all-so")
        group = pp.group
        w = group.random_scalar(rng)
        schnorr = prove_dlog(group, pp.g, pp.g ** w, w, Transcript("t"), rng)
        assert decode_schnorr_proof(group, encode_schnorr_proof(schnorr)) == schnorr
        c, o = pp.commit_fresh(5, rng)
        opening = prove_opening(pp, c, o, Transcript("t"), rng)
        assert decode_opening_proof(group, encode_opening_proof(opening)) == opening

    @pytest.mark.parametrize("cut", ["truncate", "magic", "empty"])
    def test_malformed_inputs_rejected(self, pp, cut):
        from repro.crypto.serialization import decode_bit_proof, encode_bit_proof

        rng = SeededRNG("all-bad")
        c, o = pp.commit_fresh(0, rng)
        data = bytearray(encode_bit_proof(prove_bit(pp, c, o, Transcript("t"), rng)))
        if cut == "truncate":
            data = data[: len(data) // 2]
        elif cut == "magic":
            data[8] ^= 0xFF
        else:
            data = b""
        with pytest.raises((EncodingError, NotOnGroupError)):
            decode_bit_proof(pp.group, bytes(data))


class TestOpeningRoundtrip:
    def test_roundtrip_and_verifies(self, pedersen64):
        rng = SeededRNG("op")
        c, o = pedersen64.commit_fresh(9, rng)
        proof = prove_opening(pedersen64, c, o, Transcript("t"), rng)
        restored = decode_opening_proof(pedersen64.group, encode_opening_proof(proof))
        assert restored == proof
        verify_opening(pedersen64, c, restored, Transcript("t"))

    def test_arity_check(self, pedersen64):
        from repro.utils.encoding import encode_length_prefixed

        with pytest.raises(EncodingError):
            decode_opening_proof(
                pedersen64.group,
                encode_length_prefixed(b"repro.opening.v1", b"x"),
            )


class TestCoinTranscriptFastForward:
    """The transcript fast-forward a streamed verifier uses to skip coin
    chunks (``PublicVerifier.skip_coin_chunk``) must land exactly where
    verifying those chunks would have."""

    CONTEXT = b"workers-test"

    @pytest.fixture(scope="class")
    def params(self):
        return setup(1.0, 2**-10, num_provers=2, group="p64-sim", nb_override=64)

    def _chunked_frames(self, params, chunks, rows):
        prover = Prover("prover-0", params, SeededRNG("chunked"))
        prover.begin_coin_stream(self.CONTEXT)
        frames = []
        for _ in range(chunks):
            frames.append(encode_message(prover.commit_coin_chunk(rows)))
            prover.absorb_public_bits([[0]] * rows)
        return frames

    def test_advance_matches_verification_transcript(self, params):
        """Fast-forward must reproduce verify_bit's transcript exactly:
        a chunk verified after an advanced prefix equals a chunk verified
        after a verified prefix."""
        frames = self._chunked_frames(params, chunks=2, rows=8)
        first = decode_message(params.group, frames[0])
        advanced = coin_transcript(params, "prover-0", self.CONTEXT)
        advance_coin_transcript(params, advanced, first)

        verified = coin_transcript(params, "prover-0", self.CONTEXT)
        for c_row, p_row in zip(first.commitments, first.proofs):
            for commitment, proof in zip(c_row, p_row):
                verify_bit(params.pedersen, commitment, proof, verified)
        assert advanced.challenge_bytes("probe", 16) == verified.challenge_bytes(
            "probe", 16
        )

    def test_raw_frame_advance_matches_decoded_advance(self, params):
        """The byte-level fast-forward (no element decoding) reaches the
        same transcript state as advancing over the decoded message."""
        frames = self._chunked_frames(params, chunks=1, rows=8)
        decoded_path = coin_transcript(params, "prover-0", self.CONTEXT)
        advance_coin_transcript(
            params, decoded_path, decode_message(params.group, frames[0])
        )
        raw_path = coin_transcript(params, "prover-0", self.CONTEXT)
        advance_coin_transcript_frame(params, raw_path, frames[0])
        assert raw_path.challenge_bytes("probe", 16) == decoded_path.challenge_bytes(
            "probe", 16
        )
