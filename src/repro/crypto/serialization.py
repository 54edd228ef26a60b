"""Canonical byte serialization for proof artifacts.

A *public* verifier only makes sense if the protocol's messages can live
on a bulletin board: commitments, Σ-proofs and prover outputs must have
canonical byte encodings that any third party can parse and re-verify.
This module provides exactly that — a small, versioned, length-prefixed
wire format over the primitives' own canonical encodings:

* scalars: fixed-width big-endian at the group's scalar width,
* group elements / commitments: the backend's canonical encoding,
* structures: tagged, length-prefixed concatenation (no ambiguity).

Decoding validates group membership (via ``Group.from_bytes``), so a
deserialized proof is already structurally sound; cryptographic
verification is still the caller's job.
"""

from __future__ import annotations

import struct
import weakref

from repro.crypto.group import Group
from repro.crypto.pedersen import Commitment
from repro.crypto.sigma.bitvec import BitVectorProof
from repro.crypto.sigma.onehot import OneHotProof
from repro.crypto.sigma.opening_pok import OpeningProof
from repro.crypto.sigma.or_bit import BitProof
from repro.crypto.sigma.schnorr_pok import SchnorrProof
from repro.errors import EncodingError
from repro.utils.encoding import (
    bytes_to_int,
    decode_length_prefixed,
    encode_length_prefixed,
    int_to_bytes,
)

__all__ = [
    "encode_commitment",
    "encode_commitments",
    "decode_commitment",
    "encode_bit_proof",
    "decode_bit_proof",
    "encode_one_hot_proof",
    "decode_one_hot_proof",
    "encode_bit_vector_proof",
    "decode_bit_vector_proof",
    "encode_validity_proof",
    "decode_validity_proof",
    "encode_schnorr_proof",
    "decode_schnorr_proof",
    "encode_opening_proof",
    "decode_opening_proof",
    "encode_message",
    "encode_message_cached",
    "decode_message",
    "advance_coin_transcript",
    "advance_coin_transcript_frame",
    "wire_size",
    "WIRE_MAGIC",
]

_MAGIC_BIT = b"repro.bitproof.v1"
_MAGIC_ONEHOT = b"repro.onehot.v1"
_MAGIC_BITVEC = b"repro.bitvecproof.v1"
_MAGIC_SCHNORR = b"repro.schnorr.v1"
_MAGIC_OPENING = b"repro.opening.v1"


def _scalar(group: Group, value: int) -> bytes:
    return int_to_bytes(value % group.order, group.scalar_bytes)


def _expect_magic(parts: list[bytes], magic: bytes) -> list[bytes]:
    if not parts or parts[0] != magic:
        raise EncodingError(f"bad or missing magic (expected {magic!r})")
    return parts[1:]


# Commitments -----------------------------------------------------------------


def encode_commitment(commitment: Commitment) -> bytes:
    return commitment.element.to_bytes()


def encode_commitments(commitments) -> list[bytes]:
    """Encode many commitments, batching any coordinate normalization.

    Projective backends (P-256) pay a field inversion per ``to_bytes``;
    ``Group.normalize_many`` collapses a whole row of them into one
    Montgomery batch inversion before the per-element encodings.
    """
    elements = [c.element for c in commitments]
    if not elements:
        return []
    normalized = elements[0].group.normalize_many(elements)
    return [element.to_bytes() for element in normalized]


def decode_commitment(group: Group, data: bytes) -> Commitment:
    return Commitment(group.from_bytes(data))


# Bit (Σ-OR) proofs -----------------------------------------------------------


def encode_bit_proof(proof: BitProof) -> bytes:
    group = proof.d0.group
    return encode_length_prefixed(
        _MAGIC_BIT,
        proof.d0.to_bytes(),
        proof.d1.to_bytes(),
        _scalar(group, proof.e0),
        _scalar(group, proof.e1),
        _scalar(group, proof.v0),
        _scalar(group, proof.v1),
    )


def decode_bit_proof(group: Group, data: bytes) -> BitProof:
    parts = _expect_magic(decode_length_prefixed(data), _MAGIC_BIT)
    if len(parts) != 6:
        raise EncodingError(f"bit proof needs 6 fields, got {len(parts)}")
    return BitProof(
        d0=group.from_bytes(parts[0]),
        d1=group.from_bytes(parts[1]),
        e0=int.from_bytes(parts[2], "big"),
        e1=int.from_bytes(parts[3], "big"),
        v0=int.from_bytes(parts[4], "big"),
        v1=int.from_bytes(parts[5], "big"),
    )


# One-hot proofs ---------------------------------------------------------------


def encode_one_hot_proof(proof: OneHotProof) -> bytes:
    group = proof.bit_proofs[0].d0.group
    return encode_length_prefixed(
        _MAGIC_ONEHOT,
        _scalar(group, proof.randomness_sum),
        *[encode_bit_proof(p) for p in proof.bit_proofs],
    )


def decode_one_hot_proof(group: Group, data: bytes) -> OneHotProof:
    parts = _expect_magic(decode_length_prefixed(data), _MAGIC_ONEHOT)
    if len(parts) < 2:
        raise EncodingError("one-hot proof needs randomness plus >= 1 bit proof")
    randomness_sum = int.from_bytes(parts[0], "big")
    bit_proofs = tuple(decode_bit_proof(group, raw) for raw in parts[1:])
    return OneHotProof(bit_proofs, randomness_sum)


# Bit-vector proofs ------------------------------------------------------------


def encode_bit_vector_proof(proof: BitVectorProof) -> bytes:
    return encode_length_prefixed(
        _MAGIC_BITVEC, *[encode_bit_proof(p) for p in proof.bit_proofs]
    )


def decode_bit_vector_proof(group: Group, data: bytes) -> BitVectorProof:
    parts = _expect_magic(decode_length_prefixed(data), _MAGIC_BITVEC)
    if not parts:
        raise EncodingError("bit-vector proof needs >= 1 bit proof")
    return BitVectorProof(tuple(decode_bit_proof(group, raw) for raw in parts))


# Validity proofs (tag-dispatched union) ----------------------------------------

_VALIDITY_CODECS = {
    _MAGIC_BIT: decode_bit_proof,
    _MAGIC_ONEHOT: decode_one_hot_proof,
    _MAGIC_BITVEC: decode_bit_vector_proof,
}


def encode_validity_proof(proof) -> bytes:
    """Encode any client validity proof (Σ-OR bit / one-hot / bit-vector).

    Each proof family's own magic doubles as the union tag, so the
    decoder needs no out-of-band type information.
    """
    if isinstance(proof, BitProof):
        return encode_bit_proof(proof)
    if isinstance(proof, OneHotProof):
        return encode_one_hot_proof(proof)
    if isinstance(proof, BitVectorProof):
        return encode_bit_vector_proof(proof)
    raise EncodingError(f"not a validity proof: {type(proof).__name__}")


def decode_validity_proof(group: Group, data: bytes):
    parts = decode_length_prefixed(data)
    if not parts or parts[0] not in _VALIDITY_CODECS:
        raise EncodingError("unknown validity proof tag")
    return _VALIDITY_CODECS[parts[0]](group, data)


# Schnorr proofs ----------------------------------------------------------------


def encode_schnorr_proof(proof: SchnorrProof) -> bytes:
    group = proof.announcement.group
    return encode_length_prefixed(
        _MAGIC_SCHNORR,
        proof.announcement.to_bytes(),
        _scalar(group, proof.response),
    )


def decode_schnorr_proof(group: Group, data: bytes) -> SchnorrProof:
    parts = _expect_magic(decode_length_prefixed(data), _MAGIC_SCHNORR)
    if len(parts) != 2:
        raise EncodingError("schnorr proof needs 2 fields")
    return SchnorrProof(
        announcement=group.from_bytes(parts[0]),
        response=int.from_bytes(parts[1], "big"),
    )


# Opening proofs -----------------------------------------------------------------


def encode_opening_proof(proof: OpeningProof) -> bytes:
    group = proof.announcement.group
    return encode_length_prefixed(
        _MAGIC_OPENING,
        proof.announcement.to_bytes(),
        _scalar(group, proof.response_value),
        _scalar(group, proof.response_randomness),
    )


def decode_opening_proof(group: Group, data: bytes) -> OpeningProof:
    parts = _expect_magic(decode_length_prefixed(data), _MAGIC_OPENING)
    if len(parts) != 3:
        raise EncodingError("opening proof needs 3 fields")
    return OpeningProof(
        announcement=group.from_bytes(parts[0]),
        response_value=int.from_bytes(parts[1], "big"),
        response_randomness=int.from_bytes(parts[2], "big"),
    )


# ==============================================================================
# Wire message registry: every protocol message of ΠBin as tagged bytes.
#
# A frame is ``LP(WIRE_MAGIC, tag, body)`` — versioned (the magic), tagged
# (the registry key) and self-delimiting (the length prefixes), so one
# ``decode_message`` call recovers any protocol message from the bulletin
# board or off a transport.  The registry is built lazily because the
# message types live in :mod:`repro.core.messages`, which (via the
# ``repro.core`` package) transitively imports this module.
# ==============================================================================

WIRE_MAGIC = b"repro.wire.v1"

_REGISTRY: dict | None = None  # tag -> (type, encode_body, decode_body)
_TAG_BY_TYPE: dict | None = None


def _uint(value: int, what: str) -> bytes:
    if value < 0:
        raise EncodingError(f"{what} must be non-negative")
    return int_to_bytes(value)


def _decode_str(data: bytes, what: str) -> str:
    """UTF-8 decode under the module contract: malformed → EncodingError."""
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise EncodingError(f"{what} is not valid UTF-8") from exc


def _decode_uint(data: bytes, what: str, *, limit: int = 1 << 32) -> int:
    value = bytes_to_int(data)
    if value >= limit:
        raise EncodingError(f"{what} {value} is implausibly large")
    return value


def _float_bytes(value: float) -> bytes:
    return struct.pack(">d", value)


def _decode_float(data: bytes, what: str) -> float:
    if len(data) != 8:
        raise EncodingError(f"{what} must be an 8-byte big-endian double")
    return struct.unpack(">d", data)[0]


def _encode_client_broadcast(message) -> bytes:
    rows = message.share_commitments
    provers = len(rows)
    dimension = len(rows[0]) if rows else 0
    if any(len(row) != dimension for row in rows):
        raise EncodingError("ragged share commitment matrix")
    flat = [c.element.to_bytes() for row in rows for c in row]
    return encode_length_prefixed(
        message.client_id.encode(),
        _uint(provers, "prover count"),
        _uint(dimension, "dimension"),
        *flat,
        encode_validity_proof(message.validity_proof),
    )


def _decode_client_broadcast(group: Group, parts: list[bytes]):
    from repro.core.messages import ClientBroadcast

    if len(parts) < 4:
        raise EncodingError("client broadcast needs id, shape and proof")
    client_id = _decode_str(parts[0], "client id")
    provers = _decode_uint(parts[1], "prover count", limit=1 << 16)
    dimension = _decode_uint(parts[2], "dimension", limit=1 << 24)
    expected = 3 + provers * dimension + 1
    if provers < 1 or dimension < 1 or len(parts) != expected:
        raise EncodingError(
            f"client broadcast has {len(parts)} fields, expected {expected}"
        )
    flat = [Commitment(group.from_bytes(raw)) for raw in parts[3:-1]]
    rows = tuple(
        tuple(flat[k * dimension : (k + 1) * dimension]) for k in range(provers)
    )
    return ClientBroadcast(
        client_id=client_id,
        share_commitments=rows,
        validity_proof=decode_validity_proof(group, parts[-1]),
    )


def _encode_client_share(message) -> bytes:
    scalars = []
    for opening in message.openings:
        scalars.append(_uint(opening.value, "opening value"))
        scalars.append(_uint(opening.randomness, "opening randomness"))
    return encode_length_prefixed(message.client_id.encode(), *scalars)


def _decode_client_share(group: Group, parts: list[bytes]):
    from repro.core.messages import ClientShareMessage
    from repro.crypto.pedersen import Opening

    if len(parts) < 3 or len(parts) % 2 == 0:
        raise EncodingError("client share message needs id plus (value, r) pairs")
    openings = tuple(
        Opening(bytes_to_int(parts[i]), bytes_to_int(parts[i + 1]))
        for i in range(1, len(parts), 2)
    )
    return ClientShareMessage(client_id=_decode_str(parts[0], "client id"), openings=openings)


def _encode_coin_commitments(message) -> bytes:
    rows = len(message.commitments)
    lanes = len(message.commitments[0]) if rows else 0
    if len(message.proofs) != rows or any(
        len(c_row) != lanes or len(p_row) != lanes
        for c_row, p_row in zip(message.commitments, message.proofs)
    ):
        raise EncodingError("ragged coin commitment message")
    flat_c = [c.element.to_bytes() for row in message.commitments for c in row]
    flat_p = [encode_bit_proof(p) for row in message.proofs for p in row]
    return encode_length_prefixed(
        message.prover_id.encode(),
        _uint(rows, "row count"),
        _uint(lanes, "lane count"),
        *flat_c,
        *flat_p,
    )


def _decode_coin_commitments(group: Group, parts: list[bytes]):
    from repro.core.messages import CoinCommitmentMessage

    if len(parts) < 3:
        raise EncodingError("coin message needs prover id and shape")
    prover_id = _decode_str(parts[0], "prover id")
    rows = _decode_uint(parts[1], "row count", limit=1 << 24)
    lanes = _decode_uint(parts[2], "lane count", limit=1 << 16)
    total = rows * lanes
    if rows < 1 or lanes < 1 or len(parts) != 3 + 2 * total:
        raise EncodingError(
            f"coin message has {len(parts)} fields, expected {3 + 2 * total}"
        )
    flat_c = [Commitment(group.from_bytes(raw)) for raw in parts[3 : 3 + total]]
    flat_p = [decode_bit_proof(group, raw) for raw in parts[3 + total :]]
    return CoinCommitmentMessage(
        prover_id=prover_id,
        commitments=tuple(
            tuple(flat_c[j * lanes : (j + 1) * lanes]) for j in range(rows)
        ),
        proofs=tuple(tuple(flat_p[j * lanes : (j + 1) * lanes]) for j in range(rows)),
    )


def _encode_prover_output(message) -> bytes:
    if len(message.y) != len(message.z):
        raise EncodingError("prover output y/z length mismatch")
    return encode_length_prefixed(
        message.prover_id.encode(),
        _uint(len(message.y), "lane count"),
        *[_uint(v, "y") for v in message.y],
        *[_uint(v, "z") for v in message.z],
    )


def _decode_prover_output(group: Group, parts: list[bytes]):
    from repro.core.messages import ProverOutputMessage

    if len(parts) < 2:
        raise EncodingError("prover output needs id and lane count")
    lanes = _decode_uint(parts[1], "lane count", limit=1 << 16)
    if lanes < 1 or len(parts) != 2 + 2 * lanes:
        raise EncodingError(
            f"prover output has {len(parts)} fields, expected {2 + 2 * lanes}"
        )
    values = [bytes_to_int(raw) for raw in parts[2:]]
    return ProverOutputMessage(
        prover_id=_decode_str(parts[0], "prover id"),
        y=tuple(values[:lanes]),
        z=tuple(values[lanes:]),
    )


def _encode_morra_commit(message) -> bytes:
    return encode_length_prefixed(message.sender.encode(), *message.digests)


def _decode_morra_commit(group: Group, parts: list[bytes]):
    from repro.core.messages import MorraCommitMessage

    if len(parts) < 2:
        raise EncodingError("morra commit needs sender and >= 1 digest")
    digests = parts[1:]
    if any(len(d) != 32 for d in digests):
        raise EncodingError("morra commitment digests must be 32 bytes")
    return MorraCommitMessage(sender=_decode_str(parts[0], "sender"), digests=tuple(digests))


def _encode_morra_reveal(message) -> bytes:
    return encode_length_prefixed(
        message.sender.encode(), *[_uint(v, "morra value") for v in message.values]
    )


def _decode_morra_reveal(group: Group, parts: list[bytes]):
    from repro.core.messages import MorraRevealMessage

    if len(parts) < 2:
        raise EncodingError("morra reveal needs sender and >= 1 value")
    return MorraRevealMessage(
        sender=_decode_str(parts[0], "sender"),
        values=tuple(bytes_to_int(raw) for raw in parts[1:]),
    )


def _encode_audit(audit) -> bytes:
    return encode_length_prefixed(
        encode_length_prefixed(
            *[
                encode_length_prefixed(cid.encode(), status.value.encode())
                for cid, status in audit.clients.items()
            ]
        ),
        encode_length_prefixed(
            *[
                encode_length_prefixed(pid.encode(), status.value.encode())
                for pid, status in audit.provers.items()
            ]
        ),
        encode_length_prefixed(*[note.encode() for note in audit.notes]),
    )


def _decode_audit(data: bytes):
    from repro.core.messages import AuditRecord, ClientStatus, ProverStatus

    parts = decode_length_prefixed(data)
    if len(parts) != 3:
        raise EncodingError("audit record needs clients, provers and notes")

    def entries(raw: bytes, status_enum):
        out = {}
        for entry in decode_length_prefixed(raw):
            fields = decode_length_prefixed(entry)
            if len(fields) != 2:
                raise EncodingError("audit entry needs (party, status)")
            try:
                out[_decode_str(fields[0], "party")] = status_enum(
                    _decode_str(fields[1], "status")
                )
            except ValueError as exc:
                raise EncodingError(f"unknown audit status: {exc}") from exc
        return out

    audit = AuditRecord(
        clients=entries(parts[0], ClientStatus),
        provers=entries(parts[1], ProverStatus),
    )
    audit.notes = [
        _decode_str(note, "audit note") for note in decode_length_prefixed(parts[2])
    ]
    return audit


def _encode_release(message) -> bytes:
    lanes = len(message.raw)
    if len(message.estimate) != lanes:
        raise EncodingError("release raw/estimate length mismatch")
    return encode_length_prefixed(
        _uint(lanes, "lane count"),
        *[_uint(v, "raw") for v in message.raw],
        *[_float_bytes(v) for v in message.estimate],
        b"\x01" if message.accepted else b"\x00",
        _float_bytes(message.epsilon),
        _float_bytes(message.delta),
        _encode_audit(message.audit),
    )


def _decode_release(group: Group, parts: list[bytes]):
    from repro.core.messages import Release

    if len(parts) < 1:
        raise EncodingError("release needs a lane count")
    lanes = _decode_uint(parts[0], "lane count", limit=1 << 16)
    expected = 1 + 2 * lanes + 4
    if lanes < 1 or len(parts) != expected:
        raise EncodingError(f"release has {len(parts)} fields, expected {expected}")
    raw = tuple(bytes_to_int(p) for p in parts[1 : 1 + lanes])
    estimate = tuple(
        _decode_float(p, "estimate") for p in parts[1 + lanes : 1 + 2 * lanes]
    )
    accepted_raw = parts[1 + 2 * lanes]
    if accepted_raw not in (b"\x00", b"\x01"):
        raise EncodingError("release accepted flag must be one byte 0/1")
    return Release(
        raw=raw,
        estimate=estimate,
        accepted=accepted_raw == b"\x01",
        audit=_decode_audit(parts[-1]),
        epsilon=_decode_float(parts[2 + 2 * lanes], "epsilon"),
        delta=_decode_float(parts[3 + 2 * lanes], "delta"),
    )


def _registry() -> tuple[dict, dict]:
    global _REGISTRY, _TAG_BY_TYPE
    if _REGISTRY is None:
        from repro.core import messages as m

        _REGISTRY = {
            b"client-broadcast": (
                m.ClientBroadcast,
                _encode_client_broadcast,
                _decode_client_broadcast,
            ),
            b"client-share": (
                m.ClientShareMessage,
                _encode_client_share,
                _decode_client_share,
            ),
            b"coin-commitments": (
                m.CoinCommitmentMessage,
                _encode_coin_commitments,
                _decode_coin_commitments,
            ),
            b"prover-output": (
                m.ProverOutputMessage,
                _encode_prover_output,
                _decode_prover_output,
            ),
            b"morra-commit": (
                m.MorraCommitMessage,
                _encode_morra_commit,
                _decode_morra_commit,
            ),
            b"morra-reveal": (
                m.MorraRevealMessage,
                _encode_morra_reveal,
                _decode_morra_reveal,
            ),
            b"release": (m.Release, _encode_release, _decode_release),
        }
        _TAG_BY_TYPE = {cls: tag for tag, (cls, _, _) in _REGISTRY.items()}
    return _REGISTRY, _TAG_BY_TYPE


def encode_message(message) -> bytes:
    """Encode any registered protocol message as a tagged, versioned frame."""
    registry, tags = _registry()
    tag = tags.get(type(message))
    if tag is None:
        raise EncodingError(f"no wire codec for {type(message).__name__}")
    _, encode_body, _ = registry[tag]
    return encode_length_prefixed(WIRE_MAGIC, tag, encode_body(message))


# Coin-transcript fast-forward ------------------------------------------------
#
# A chunked coin stream's evolving Fiat–Shamir transcript is a
# deterministic function of the public messages alone — absorb pp, the
# commitment and both announcements, extract (and discard) the
# challenge; no group exponentiations.  These helpers replay that
# evolution without verifying, which is what lets a streamed verifier
# skip coin chunks (PublicVerifier.skip_coin_chunk, used by the shard
# peers of repro.net.shard) and still hold the correct transcript state
# for the chunks it does check.  They live here, next to the
# coin-message codec, because the byte-level variant mirrors its frame
# layout — a format change must touch both together.


def advance_coin_transcript(params, transcript, message) -> None:
    """Fast-forward a coin transcript over one message without verifying.

    Mirrors exactly the transcript mutations of
    :func:`repro.crypto.sigma.or_bit.verify_bit` — bind pp and the
    commitment, absorb both announcements, extract (and discard) the
    challenge — so a later chunk's verification starts from the identical
    state, at pure hashing cost.
    """
    pedersen = params.pedersen
    pp = pedersen.transcript_bytes()
    for c_row, p_row in zip(message.commitments, message.proofs):
        for commitment, proof in zip(c_row, p_row):
            transcript.append_bytes("pp", pp)
            transcript.append_element("bit-commitment", commitment.element)
            transcript.append_element("d0", proof.d0)
            transcript.append_element("d1", proof.d1)
            transcript.challenge_scalar("or-challenge", pedersen.q)


def advance_coin_transcript_frame(params, transcript, frame: bytes) -> None:
    """Fast-forward over a *wire frame* without decoding group elements.

    The transcript absorbs element encodings verbatim, and the frame
    already carries each element's canonical bytes — so prefix chunks can
    be replayed by pure length-prefix parsing plus hashing, skipping the
    per-element membership exponentiations entirely.  This is what makes
    skipping a chunk cheap: the expensive validation runs exactly once,
    on the shard that owns the chunk.
    """
    outer = decode_length_prefixed(frame)
    if len(outer) != 3:
        raise EncodingError("not a wire frame")
    body = decode_length_prefixed(outer[2])
    if len(body) < 3:
        raise EncodingError("not a coin message frame")
    rows = int.from_bytes(body[1], "big")
    lanes = int.from_bytes(body[2], "big")
    total = rows * lanes
    if len(body) != 3 + 2 * total:
        raise EncodingError("coin message frame shape mismatch")
    pedersen = params.pedersen
    pp = pedersen.transcript_bytes()
    commitments = body[3 : 3 + total]
    proofs = body[3 + total :]
    for commitment_bytes, proof_frame in zip(commitments, proofs):
        proof_parts = decode_length_prefixed(proof_frame)
        if len(proof_parts) != 7:
            raise EncodingError("bit proof frame needs magic plus 6 fields")
        transcript.append_bytes("pp", pp)
        transcript.append_bytes("bit-commitment", commitment_bytes)
        transcript.append_bytes("d0", proof_parts[1])
        transcript.append_bytes("d1", proof_parts[2])
        transcript.challenge_scalar("or-challenge", pedersen.q)


# Encode-once fan-out cache ---------------------------------------------------
#
# A serving front-end ships the *same* message object to K servers or S
# shards (a client broadcast into every share-check RPC, a coin chunk to
# every shard), and the bus accounts its exact wire size on top — without
# a cache that is K + 1 identical full encodings.  Message types are
# frozen dataclasses, so caching by object identity is sound; weakref
# finalizers evict entries when the message dies, keeping the table
# bounded by the set of live messages.

_ENCODE_CACHE: dict[int, tuple] = {}


def encode_message_cached(message) -> bytes:
    """Like :func:`encode_message`, memoized per live message object.

    Byte-for-byte identical to :func:`encode_message` (the cache stores
    its output verbatim), so traffic accounting is unchanged — only the
    redundant re-encoding work disappears.  Unweakreferenceable payloads
    fall back to plain encoding.
    """
    key = id(message)
    entry = _ENCODE_CACHE.get(key)
    if entry is not None and entry[0]() is message:
        return entry[1]
    data = encode_message(message)
    try:
        ref = weakref.ref(message, lambda _ref, _key=key: _ENCODE_CACHE.pop(_key, None))
    except TypeError:  # pragma: no cover - all registry types support weakref
        return data
    _ENCODE_CACHE[key] = (ref, data)
    return data


def decode_message(group: Group, data: bytes):
    """Decode a frame produced by :func:`encode_message`.

    Raises :class:`EncodingError` (or :class:`NotOnGroupError` for bad
    group encodings) on anything malformed — a hostile frame can be
    rejected but never crash the decoder or smuggle in a non-element.
    """
    registry, _ = _registry()
    parts = decode_length_prefixed(data)
    if len(parts) != 3:
        raise EncodingError("wire frame needs (magic, tag, body)")
    if parts[0] != WIRE_MAGIC:
        raise EncodingError(f"bad wire magic (expected {WIRE_MAGIC!r})")
    entry = registry.get(parts[1])
    if entry is None:
        raise EncodingError(f"unknown wire tag {parts[1]!r}")
    _, _, decode_body = entry
    return decode_body(group, decode_length_prefixed(parts[2]))


def wire_size(message) -> int | None:
    """Exact encoded size of a registered message; None when unregistered.

    :mod:`repro.mpc.bus` uses this for traffic accounting so benchmark
    communication-cost numbers equal real wire bytes.
    """
    _, tags = _registry()
    if type(message) not in tags:
        return None
    # Reuse a fan-out-cached encoding when one exists, but never insert:
    # sizing must not pin a retained message's multi-KB frame for the
    # message's lifetime (buffered sessions keep every message queued).
    entry = _ENCODE_CACHE.get(id(message))
    if entry is not None and entry[0]() is message:
        return len(entry[1])
    return len(encode_message(message))
