"""Solo seeded ``Session`` replays: the reference every release is checked against.

    python3 perfbench/reference.py '[{"workload": ..., "seed": ..., "values": [...]}, ...]'

runs one solo ``Session`` per job (the workload's group, nb and chunk
size, ``SeededRNG(seed)``, the given client values) and prints one JSON
line: per job, the release's ``accepted``, ``estimate``,
``release_bytes`` and the SHA-256 of its ``encode_message`` frame.
"""

from __future__ import annotations

import hashlib
import json
import sys

from workloads import DELTA, EPSILON, PROVERS, WORKLOADS


def query():
    from repro.api import CountQuery

    return CountQuery(epsilon=EPSILON, delta=DELTA)


def solo(workload: str, seed: str, values):
    """Run one solo seeded ``Session``; returns it and its ``QueryResult``."""
    from repro.api import Session
    from repro.utils.rng import SeededRNG

    spec = WORKLOADS[workload]
    session = Session(
        query(),
        num_provers=PROVERS,
        group=spec.group,
        nb_override=spec.nb,
        chunk_size=spec.chunk,
        rng=SeededRNG(seed),
    )
    session.submit(values)
    return session, session.release().results[0]


def digest(release) -> str:
    from repro.crypto.serialization import encode_message

    return hashlib.sha256(encode_message(release)).hexdigest()


def fields(release) -> dict:
    """What the benchmark compares: the fleet gateway's reply fields plus
    the digest of the encoded release."""
    from repro.crypto.serialization import encode_message

    frame = encode_message(release)
    return {
        "accepted": release.accepted,
        "estimate": list(release.estimate),
        "release_bytes": len(frame),
        "sha256": hashlib.sha256(frame).hexdigest(),
    }


def main(argv) -> int:
    jobs = json.loads(argv[0])
    print(json.dumps([fields(solo(**job)[1].release) for job in jobs]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
