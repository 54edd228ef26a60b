"""The three workloads: fixed input sizes, run length set by ``--seconds``.

Every workload runs ``CountQuery(epsilon=1, delta=2**-10)`` with K=2
provers.  Inputs derive from ``--seed`` only: session ``i`` of a run
uses the protocol seed ``perfbench/<workload>/<seed>/s<i>`` and client
bits drawn from ``.../v<i>``.  BENCHMARK.json carries the one-line
reason each workload exists; README.md maps layers to workloads.
"""

from __future__ import annotations

from dataclasses import dataclass

EPSILON = 1.0
DELTA = 2.0**-10
PROVERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    group: str
    nb: int
    clients: int
    chunk: int | None
    # Fleet shape (serve-fleet only).
    frontends: int = 0
    capacity: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("prove-ristretto", "ristretto255", nb=256, clients=6, chunk=None),
        Workload("stream-p64", "p64-sim", nb=16384, clients=6, chunk=2048),
        Workload(
            "serve-fleet", "p64-sim", nb=64, clients=6, chunk=None, frontends=2, capacity=2
        ),
    )
}


def tag(workload: str, seed: int) -> str:
    return f"perfbench/{workload}/{seed}"


def client_bits(label: str, count: int) -> list[int]:
    """Seeded 0/1 client inputs."""
    from repro.utils.rng import SeededRNG

    rng = SeededRNG(label)
    return [rng.coin() for _ in range(count)]
