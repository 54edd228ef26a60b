"""The full ΠBin protocol on every group backend.

The commitment and Σ-proof layers are written against the abstract Group
interface; these end-to-end runs prove the claim for all four backends
(finite-field Schnorr groups, ristretto255, NIST P-256).  Tiny nb keeps
the elliptic runs quick.
"""

import pytest

from repro.api import CountQuery, Session
from repro.api.engine import ProtocolEngine, fork_rng
from repro.core.client import Client
from repro.core.params import setup
from repro.core.prover import OutputTamperingProver
from repro.utils.rng import SeededRNG

BACKENDS = ["p64-sim", "p128-sim", "ristretto255", "p256"]


def run_count(bits, *, group, nb, seed, num_provers=1):
    session = Session(
        CountQuery(1.0, 2**-10), num_provers=num_provers, group=group,
        nb_override=nb, rng=SeededRNG(seed),
    )
    session.submit(bits)
    return session.release()


@pytest.mark.parametrize("backend", BACKENDS)
def test_honest_run_on_backend(backend):
    result = run_count([1, 0, 1], group=backend, nb=4, seed=f"be-{backend}")
    assert result.release.accepted
    noise = result.release.raw[0] - 2
    assert 0 <= noise <= 4


@pytest.mark.parametrize("backend", ["ristretto255", "p256"])
def test_cheater_caught_on_elliptic_backends(backend):
    params = setup(1.0, 2**-10, num_provers=1, group=backend, nb_override=4)
    cheater = OutputTamperingProver(
        "prover-0", params, SeededRNG(f"ch-{backend}"), bias=3
    )
    rng = SeededRNG(f"r-{backend}")
    engine = ProtocolEngine(params, provers=[cheater], rng=rng)
    engine.submit_clients(
        Client(f"client-{i}", [bit], fork_rng(rng, f"client-{i}"))
        for i, bit in enumerate([1, 1])
    )
    result = engine.run_release()
    assert not result.release.accepted


def test_mpc_on_modp2048_smoke():
    """One small paper-backend (2048-bit) MPC run keeps the production
    parameter path exercised."""
    result = run_count([1], group="modp-2048", nb=2, seed="2048", num_provers=2)
    assert result.release.accepted
