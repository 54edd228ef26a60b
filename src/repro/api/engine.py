"""The phase-driven protocol engine behind :class:`repro.api.Session`.

One :class:`ProtocolEngine` executes one ΠBin instance — a counting
query, a histogram, or a weighted-lane (bounded-sum) query, as described
by its :class:`~repro.core.plan.AggregationPlan` — over the
:mod:`repro.core.messages` types and the :mod:`repro.mpc.bus` transport,
as an explicit phase machine (:mod:`repro.api.phases`).
:class:`~repro.api.session.Session` builds one per query; runs with
custom (e.g. cheating) provers or verifiers construct it directly and
call :meth:`ProtocolEngine.submit_clients` then
:meth:`ProtocolEngine.run_release`.  It supports two execution modes:

**Buffered** (``chunk_size=None``) retains every public message and
yields a result that can be published to a bulletin board for
third-party replay.

**Streaming** (``chunk_size=n``) accepts clients in chunks and verifies
coins in chunks: client validity proofs fold into per-chunk Σ-batches and
running Line 13 products, coin proofs fold into a per-prover evolving
transcript with per-chunk RLC checks, and Line 12 products accumulate as
chunks retire.  Nothing proportional to nb or to the client count is
retained — peak verifier memory is O(chunk) — which is what lets the
paper-scale nb = 262,144 workload run on a laptop
(``benchmarks/bench_streaming_session.py``).  Each coin is still
committed strictly before its Morra bit is drawn, so the soundness
argument is unchanged; chunking only reorders *independent* messages.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.api.phases import Phase, advance
from repro.core.messages import (
    ClientBroadcast,
    ClientShareMessage,
    ProverStatus,
    Release,
)
from repro.core.params import PublicParams
from repro.core.plan import AggregationPlan
from repro.core.prover import ContextAccumulator, Prover
from repro.core.verifier import PublicVerifier
from repro.errors import ParameterError, ProtocolAbort, SessionStateError
from repro.mpc.bus import SimulatedNetwork
from repro.mpc.morra import run_morra_batch
from repro.utils.rng import RNG, SystemRNG
from repro.utils.timing import StageTimer

__all__ = [
    "ProtocolEngine",
    "EngineResult",
    "fork_rng",
    "add_phase_observer",
    "remove_phase_observer",
]

# Stage names aligned with Table 1's columns.
STAGE_SIGMA_PROOF = "sigma-proof"
STAGE_SIGMA_VERIFY = "sigma-verification"
STAGE_MORRA = "morra"
STAGE_AGGREGATION = "aggregation"
STAGE_CHECK = "check"
STAGE_CLIENT_PROOF = "client-proof"
STAGE_CLIENT_VERIFY = "client-verification"


def fork_rng(rng: RNG, label: str) -> RNG:
    """A per-party child stream (system randomness when not forkable)."""
    forker = getattr(rng, "fork", None)
    return forker(label) if forker is not None else SystemRNG()


# Phase-transition observers: the observability layer (repro.net.metrics)
# hooks engine phase timings here without the engine importing it.  Each
# observer is called as ``observer(previous_phase, new_phase, elapsed_s)``
# where ``elapsed_s`` is the wall-clock time the engine spent in
# ``previous_phase`` (per transition, so a streamed run's repeated
# COMMIT_COINS -> MORRA -> ADJUST loop yields one observation per lap).
# Observers run on the engine's thread and must be cheap and non-raising.
_PHASE_OBSERVERS: list = []


def add_phase_observer(observer) -> None:
    """Register a ``(previous, new, elapsed_s)`` phase-transition callback."""
    _PHASE_OBSERVERS.append(observer)


def remove_phase_observer(observer) -> None:
    """Unregister a previously added phase observer (no-op if absent)."""
    try:
        _PHASE_OBSERVERS.remove(observer)
    except ValueError:
        pass


@dataclass
class EngineResult:
    """One protocol run's release plus run metadata.

    Buffered runs retain the public messages (``broadcasts``,
    ``coin_messages``, ``public_bits``, ``outputs``) so the run can be
    published for byte-level third-party audit replay
    (:func:`repro.core.bulletin.publish_run`); streamed runs drop them —
    that is the point — and keep only the release and audit record.
    """

    release: Release
    timer: StageTimer
    network: SimulatedNetwork
    client_count: int
    public_bits: dict[str, list[list[int]]] = field(default_factory=dict)
    broadcasts: list = field(default_factory=list)
    coin_messages: list = field(default_factory=list)
    outputs: list = field(default_factory=list)

    def to_bulletin(self, params: PublicParams):
        """Serialize this run's public messages onto a bulletin board."""
        from repro.core.bulletin import publish_run

        return publish_run(
            params, self.broadcasts, self.coin_messages, self.public_bits, self.outputs
        )


class ProtocolEngine:
    """Phase machine executing one ΠBin instance over a message bus."""

    def __init__(
        self,
        params: PublicParams,
        *,
        plan: AggregationPlan | None = None,
        provers: list[Prover] | None = None,
        verifier: PublicVerifier | None = None,
        rng: RNG | None = None,
        chunk_size: int | None = None,
        network: SimulatedNetwork | None = None,
        retain_messages: bool | None = None,
    ) -> None:
        if chunk_size is not None and chunk_size < 1:
            raise ParameterError("chunk_size must be positive")
        self.params = params
        self.plan = plan if plan is not None else AggregationPlan.identity(params.dimension)
        if self.plan.dimension != params.dimension:
            raise ParameterError("plan dimension does not match params dimension")
        self.rng = rng if rng is not None else SystemRNG()
        self.chunk_size = chunk_size
        self.streaming = chunk_size is not None
        self.retain_messages = (
            retain_messages if retain_messages is not None else not self.streaming
        )
        if provers is None:
            provers = [
                Prover(f"prover-{k}", params, fork_rng(self.rng, f"prover-{k}"), plan=self.plan)
                for k in range(params.num_provers)
            ]
        if len(provers) != params.num_provers:
            raise ParameterError(
                f"expected {params.num_provers} provers, got {len(provers)}"
            )
        names = [p.name for p in provers]
        if len(set(names)) != len(names) or "verifier" in names:
            raise ParameterError("prover names must be unique and not 'verifier'")
        self.provers = provers
        self.verifier = verifier or PublicVerifier(
            params, fork_rng(self.rng, "verifier"), plan=self.plan
        )
        self.network = network or SimulatedNetwork(buffering=self.retain_messages)
        for name in [self.verifier.name] + names:
            if name not in self.network.parties:
                self.network.register(name)
        self.timer = StageTimer()
        self.phase = Phase.ENROLL
        self._phase_entered = time.perf_counter()

        # Client-phase state.
        self._context = ContextAccumulator()
        self._client_count = 0
        self._valid_ids: list[str] = []
        self._chunk_entries: list[tuple[ClientBroadcast, list[ClientShareMessage]]] = []
        # Buffered-mode retention.
        self._broadcasts: list[ClientBroadcast] = []
        self._privates: list[list[ClientShareMessage]] = []
        self._public_bits: dict[str, list[list[int]]] = {}
        self._result: EngineResult | None = None

    # Phase bookkeeping ------------------------------------------------------

    def _advance(self, target: Phase) -> None:
        previous = self.phase
        self.phase = advance(self.phase, target)
        now = time.perf_counter()
        elapsed = now - self._phase_entered
        self._phase_entered = now
        # Wall-clock per phase, alongside Table 1's work-stage timings:
        # ``phase:<name>`` accumulates across a streamed run's chunk laps.
        self.timer.add(f"phase:{previous.value}", elapsed)
        for observer in list(_PHASE_OBSERVERS):
            observer(previous, self.phase, elapsed)

    def _require(self, phase: Phase, what: str) -> None:
        if self.phase is not phase:
            raise SessionStateError(
                f"{what} requires phase {phase.value!r}, session is in {self.phase.value!r}"
            )

    # ENROLL -----------------------------------------------------------------

    def submit_clients(self, clients) -> None:
        """Enroll :class:`~repro.core.client.Client` objects (any iterable).

        Streaming engines process every ``chunk_size`` enrollments
        immediately — validation, audit verdicts, Line 13 folds — and drop
        the chunk; buffered engines retain everything for the audit replay.
        """
        self._require(Phase.ENROLL, "submit")
        for client in clients:
            # Unconditional: a duplicate client id is a ParameterError —
            # a client must not enroll twice.
            self.network.register(client.name)
            with self.timer.stage(STAGE_CLIENT_PROOF):
                broadcast, privates = client.submit(self.params)
            self._enroll(broadcast, privates)

    def submit_prepared(self, pairs) -> None:
        """Enroll pre-built submissions: (broadcast, [share message per
        prover]) pairs, as a real serving deployment would receive them."""
        self._require(Phase.ENROLL, "submit")
        for broadcast, privates in pairs:
            self.network.register(broadcast.client_id)
            self._enroll(broadcast, list(privates))

    # Sharded enrollment ------------------------------------------------------
    #
    # A sharded front-end (repro.net.shard) validates clients on shard
    # workers and routes private shares itself; the engine still owns the
    # two pieces of client-phase state every later phase depends on — the
    # broadcast-context digest that binds all coin transcripts, and the
    # ordered valid-id list the release aggregates over.  These hooks let
    # the front-end feed both without the engine re-verifying anything,
    # while RNG consumption stays exactly that of an unsharded run (the
    # hooks draw nothing), which is what keeps sharded releases
    # byte-identical.

    def adopt_enrollment(self, broadcast: ClientBroadcast) -> None:
        """Record an enrollment whose validation happens elsewhere:
        context digest, client registry and count only.  Raises
        ``ParameterError`` on a duplicate or reserved client id, exactly
        as :meth:`submit_prepared` would."""
        self._require(Phase.ENROLL, "submit")
        self.network.register(broadcast.client_id)
        self._context.absorb(broadcast)
        self._client_count += 1

    def adopt_valid_ids(self, valid_ids) -> None:
        """Append externally validated client ids (submission order)."""
        self._require(Phase.ENROLL, "submit")
        self._valid_ids.extend(valid_ids)

    def _enroll(
        self, broadcast: ClientBroadcast, privates: list[ClientShareMessage]
    ) -> None:
        if len(privates) != self.params.num_provers:
            raise ParameterError("one private share message per prover required")
        self.network.broadcast(broadcast.client_id, broadcast)
        for prover, message in zip(self.provers, privates):
            self.network.send(broadcast.client_id, prover.name, message)
        self._context.absorb(broadcast)
        self._client_count += 1
        if self.streaming:
            self._chunk_entries.append((broadcast, privates))
            if len(self._chunk_entries) >= self.chunk_size:
                self._process_client_chunk()
        else:
            self._broadcasts.append(broadcast)
            self._privates.append(privates)

    def _process_client_chunk(self) -> None:
        """Validate one chunk of enrollments and fold it away (streaming)."""
        entries = self._chunk_entries
        self._chunk_entries = []
        if not entries:
            return
        complaints: dict[str, list[str]] = {}
        for k, prover in enumerate(self.provers):
            bad = [
                broadcast.client_id
                for broadcast, privates in entries
                if not prover.receive_client_share(broadcast, privates[k], k)
            ]
            if bad:
                complaints[prover.name] = bad
        broadcasts = [broadcast for broadcast, _ in entries]
        with self.timer.stage(STAGE_CLIENT_VERIFY):
            valid = self.verifier.validate_clients(broadcasts, complaints)
        self.verifier.fold_client_commitments(broadcasts, valid)
        valid_set = set(valid)
        invalid = [b.client_id for b in broadcasts if b.client_id not in valid_set]
        for prover in self.provers:
            prover.absorb_validated_clients(valid, discard=invalid)
        self._valid_ids.extend(valid)

    # The protocol body ------------------------------------------------------

    def run_release(self) -> EngineResult:
        """Drive the remaining phases to DONE and return the result.

        Idempotent: once the run completes, the cached result is returned.
        """
        if self._result is not None:
            return self._result
        self._require(Phase.ENROLL, "release")
        # VALIDATE: finalize the public client record and context digest.
        if self.streaming:
            self._process_client_chunk()
            self._advance(Phase.VALIDATE)
            valid_ids = self._valid_ids
        else:
            self._advance(Phase.VALIDATE)
            complaints: dict[str, list[str]] = {}
            for k, prover in enumerate(self.provers):
                bad = [
                    broadcast.client_id
                    for broadcast, privates in zip(self._broadcasts, self._privates)
                    if not prover.receive_client_share(broadcast, privates[k], k)
                ]
                if bad:
                    complaints[prover.name] = bad
            with self.timer.stage(STAGE_CLIENT_VERIFY):
                valid_ids = self.verifier.validate_clients(self._broadcasts, complaints)
            self._valid_ids = valid_ids
        context = self._context.digest()

        if self.streaming:
            coin_ok, coin_messages = self._coin_phases_streamed(context)
        else:
            coin_ok, coin_messages = self._coin_phases_buffered(context)

        self._advance(Phase.RELEASE)
        release, outputs = self._assemble_release(coin_ok)
        self._advance(Phase.DONE)
        self._result = EngineResult(
            release=release,
            timer=self.timer,
            network=self.network,
            client_count=self._client_count,
            public_bits=self._public_bits if not self.streaming else {},
            broadcasts=self._broadcasts,
            coin_messages=coin_messages if not self.streaming else [],
            outputs=outputs,
        )
        return self._result

    def _coin_phases_buffered(self, context: bytes):
        """Lines 4–9 in Figure 2's order: all provers commit, one
        cross-prover batch verification, then Morra + Line 12 per
        prover."""
        params = self.params
        self._advance(Phase.COMMIT_COINS)
        coin_messages = []
        for prover in self.provers:
            with self.timer.stage(STAGE_SIGMA_PROOF):
                message = prover.commit_coins(context)
            coin_messages.append(message)
            self.network.broadcast(prover.name, message)
        with self.timer.stage(STAGE_SIGMA_VERIFY):
            coin_ok = self.verifier.verify_all_coin_commitments(coin_messages, context)

        lanes = self.plan.lanes
        for prover in self.provers:
            if not coin_ok[prover.name]:
                continue
            self._advance(Phase.MORRA)
            with self.timer.stage(STAGE_MORRA):
                outcome = run_morra_batch(
                    [prover, self.verifier],
                    params.q,
                    params.nb * lanes,
                    network=self.network,
                )
                flat = outcome.bits()
            bits = [
                flat[j * lanes : (j + 1) * lanes] for j in range(params.nb)
            ]
            self._public_bits[prover.name] = bits
            self._advance(Phase.ADJUST)
            with self.timer.stage(STAGE_CHECK):
                self.verifier.apply_public_bits(prover.name, bits)
        return coin_ok, coin_messages

    def _coin_phases_streamed(self, context: bytes):
        """Lines 4–9 chunk by chunk per prover: commit chunk → verify
        chunk → Morra chunk → fold Line 12 → drop chunk."""
        params = self.params
        lanes = self.plan.lanes
        chunk = self.chunk_size
        coin_ok: dict[str, bool] = {}
        self._public_bits = {}
        for prover in self.provers:
            prover.begin_coin_stream(context)
            self.verifier.begin_coin_stream(prover.name, context)
            ok = True
            remaining = params.nb
            while remaining > 0:
                count = min(chunk, remaining)
                self._advance(Phase.COMMIT_COINS)
                with self.timer.stage(STAGE_SIGMA_PROOF):
                    message = prover.commit_coin_chunk(count)
                self.network.broadcast(prover.name, message)
                with self.timer.stage(STAGE_SIGMA_VERIFY):
                    ok = self.verifier.verify_coin_chunk(message)
                if not ok:
                    break
                self._advance(Phase.MORRA)
                with self.timer.stage(STAGE_MORRA):
                    outcome = run_morra_batch(
                        [prover, self.verifier],
                        params.q,
                        count * lanes,
                        network=self.network,
                    )
                    flat = outcome.bits()
                bits = [flat[j * lanes : (j + 1) * lanes] for j in range(count)]
                self._advance(Phase.ADJUST)
                with self.timer.stage(STAGE_CHECK):
                    self.verifier.apply_public_bits_chunk(prover.name, bits)
                prover.absorb_public_bits(bits)
                remaining -= count
            if ok:
                with self.timer.stage(STAGE_SIGMA_VERIFY):
                    ok = self.verifier.finish_coin_stream(prover.name)
            coin_ok[prover.name] = ok
        return coin_ok, []

    def _assemble_release(self, coin_ok: dict[str, bool]):
        """Lines 10–13 plus aggregation into the public release."""
        params = self.params
        q = params.q
        lanes = self.plan.lanes
        verifier = self.verifier
        outputs: dict[str, object] = {}
        all_outputs = []
        if self.streaming:
            for k, prover in enumerate(self.provers):
                if not coin_ok.get(prover.name):
                    continue
                with self.timer.stage(STAGE_AGGREGATION):
                    try:
                        output = prover.finish_output()
                    except ProtocolAbort as exc:
                        verifier.audit.provers[prover.name] = ProverStatus.ABORTED
                        verifier.audit.note(str(exc))
                        continue
                all_outputs.append(output)
                self.network.broadcast(prover.name, output)
                with self.timer.stage(STAGE_CHECK):
                    if verifier.check_prover_output_folded(output, k):
                        outputs[prover.name] = output
        else:
            valid_set = set(self._valid_ids)
            included = [b for b in self._broadcasts if b.client_id in valid_set]
            for k, prover in enumerate(self.provers):
                if not coin_ok.get(prover.name):
                    continue
                with self.timer.stage(STAGE_AGGREGATION):
                    try:
                        output = prover.compute_output(
                            self._valid_ids, self._public_bits[prover.name]
                        )
                    except ProtocolAbort as exc:
                        verifier.audit.provers[prover.name] = ProverStatus.ABORTED
                        verifier.audit.note(str(exc))
                        continue
                all_outputs.append(output)
                self.network.broadcast(prover.name, output)
                client_commitments = [
                    [b.share_commitments[k][m] for b in included]
                    for m in range(params.dimension)
                ]
                with self.timer.stage(STAGE_CHECK):
                    if verifier.check_prover_output(output, client_commitments):
                        outputs[prover.name] = output

        audit = verifier.audit
        accepted = (
            len(audit.provers) == len(self.provers) and audit.all_provers_honest()
        )
        raw = tuple(
            sum(outputs[name].y[lane] for name in outputs) % q if outputs else 0
            for lane in range(lanes)
        )
        noise_means = self.plan.noise_mean(params.num_provers, params.nb)
        estimate = tuple(value - mean for value, mean in zip(raw, noise_means))
        release = Release(
            raw=raw,
            estimate=estimate,
            accepted=accepted,
            audit=audit,
            epsilon=params.epsilon,
            delta=params.delta,
        )
        return release, all_outputs
