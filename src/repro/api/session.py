"""Sessions: the unified query API over the phase-driven engine.

A :class:`Session` takes a declarative :class:`~repro.api.queries.Query`
and executes it end to end::

    from repro.api import CountQuery, Session

    session = Session(CountQuery(epsilon=1.0, delta=2**-10), group="p128-sim")
    session.submit([1, 0, 1, 1, 0, 1])
    result = session.release()
    assert result.accepted
    print(result.estimate)

Clients arrive in **chunks** — ``submit`` accepts any iterable, may be
called repeatedly, and with ``chunk_size`` set the underlying engine
validates and folds each chunk instead of buffering the run, so peak
verifier memory is O(chunk) at any nb (see
:mod:`repro.api.engine`).  A :class:`~repro.api.queries.ComposedQuery`
runs one protocol instance per subquery over the same client population
(records are tuples, one entry per subquery) and charges each subquery's
honest budget to the session's
:class:`~repro.dp.accountant.PrivacyAccountant`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.engine import EngineResult, ProtocolEngine, fork_rng
from repro.api.phases import Phase
from repro.api.queries import ComposedQuery, Query
from repro.core.client import Client
from repro.core.messages import AuditRecord, Release
from repro.dp.accountant import PrivacyAccountant
from repro.errors import ParameterError, SessionStateError
from repro.utils.rng import RNG, SystemRNG
from repro.utils.timing import StageTimer

__all__ = ["Session", "SessionResult", "QueryResult", "build_engine"]


def build_engine(
    query: Query,
    *,
    num_provers: int,
    group: str = "modp-2048",
    nb_override: int | None = None,
    chunk_size: int | None = None,
    rng: RNG | None = None,
    provers=None,
    verifier=None,
    retain_messages: bool | None = None,
    params=None,
) -> ProtocolEngine:
    """One :class:`ProtocolEngine` for a single (non-composed) query.

    The shared construction path of every front-end — in-process
    :class:`Session`, distributed :class:`~repro.net.nodes.AnalystNode`,
    sharded :class:`~repro.net.shard.ShardedAnalyst` — so all of them
    derive parameters, plan and engine identically: same fingerprint,
    same RNG fork labels, hence byte-identical releases under a seed.
    ``provers``/``verifier`` slot in remote proxies or shard-aware
    verifiers without touching the engine.  A front-end that needs the
    parameters *before* the engine exists (to hand them to proxies or
    size its chunks) builds them once with ``query.build_params`` and
    passes them via ``params`` — the engine then uses that exact object,
    so there is never a second, merely-equal parameter set in play.
    """
    if isinstance(query, ComposedQuery):
        raise ParameterError("build_engine takes a single query; expand composures")
    if params is None:
        params = query.build_params(
            num_provers=num_provers, group=group, nb_override=nb_override
        )
    return ProtocolEngine(
        params,
        plan=query.build_plan(),
        provers=provers,
        verifier=verifier,
        rng=rng,
        chunk_size=chunk_size,
        retain_messages=retain_messages,
    )


@dataclass(frozen=True)
class QueryResult:
    """One query's verified release plus its run metadata."""

    query: Query
    release: Release
    engine_result: EngineResult

    @property
    def accepted(self) -> bool:
        return self.release.accepted

    @property
    def audit(self) -> AuditRecord:
        return self.release.audit

    @property
    def estimates(self) -> tuple[float, ...]:
        """Debiased per-lane estimates (noise mean already subtracted)."""
        return self.release.estimate

    @property
    def estimate(self) -> float:
        """Scalar convenience for single-lane queries (count, bounded sum)."""
        return self.release.estimate[0]

    @property
    def counts(self) -> tuple[float, ...]:
        """Histogram convenience: the per-bin estimates."""
        return self.release.estimate

    def argmax(self) -> int:
        """The (noisy) plurality winner of a histogram release."""
        return max(range(len(self.counts)), key=lambda m: self.counts[m])

    @property
    def timer(self) -> StageTimer:
        return self.engine_result.timer


@dataclass(frozen=True)
class SessionResult:
    """All query results of one session plus the budget ledger."""

    results: tuple[QueryResult, ...]
    accountant: PrivacyAccountant

    @property
    def accepted(self) -> bool:
        """True iff every query's release passed verification."""
        return all(result.accepted for result in self.results)

    @property
    def release(self) -> Release:
        """Single-query convenience accessor."""
        if len(self.results) != 1:
            raise ParameterError("session ran multiple queries; use .results")
        return self.results[0].release

    def __getitem__(self, index: int) -> QueryResult:
        return self.results[index]

    def __len__(self) -> int:
        return len(self.results)

    def total_budget(self) -> tuple[float, float]:
        """Cumulative (ε, δ) under basic composition."""
        return self.accountant.total_basic()


class Session:
    """One verifiable-DP query session: enroll clients, then release.

    Parameters
    ----------
    query:
        A :class:`CountQuery`, :class:`HistogramQuery`,
        :class:`BoundedSumQuery` or :class:`ComposedQuery`.
    num_provers:
        K = 1 is the trusted-curator model, K >= 2 the client-server MPC
        model (each prover adds its own noise; the release debiases all).
    chunk_size:
        None buffers the whole run (audit-replayable via the bulletin);
        an integer streams it with O(chunk) verifier memory.
    accountant:
        Shared budget ledger; a fresh one is created when omitted.  Each
        executed query charges its honest end-to-end (ε, δ) on release.
    """

    def __init__(
        self,
        query: Query,
        *,
        num_provers: int = 1,
        group: str = "modp-2048",
        nb_override: int | None = None,
        chunk_size: int | None = None,
        rng: RNG | None = None,
        accountant: PrivacyAccountant | None = None,
        retain_messages: bool | None = None,
    ) -> None:
        self.query = query
        self.rng = rng if rng is not None else SystemRNG()
        self.accountant = accountant if accountant is not None else PrivacyAccountant()
        queries = list(query.queries) if isinstance(query, ComposedQuery) else [query]
        composed = isinstance(query, ComposedQuery)
        self._engines: list[tuple[Query, ProtocolEngine]] = []
        for index, subquery in enumerate(queries):
            engine_rng = fork_rng(self.rng, f"query-{index}") if composed else self.rng
            engine = build_engine(
                subquery,
                num_provers=num_provers,
                group=group,
                nb_override=nb_override,
                rng=engine_rng,
                chunk_size=chunk_size,
                retain_messages=retain_messages,
            )
            self._engines.append((subquery, engine))
        self._charged: set[int] = set()
        self._result: SessionResult | None = None

    # Introspection ----------------------------------------------------------

    @property
    def phase(self) -> Phase:
        """The (first) engine's lifecycle phase."""
        return self._engines[0][1].phase

    @property
    def phases(self) -> tuple[Phase, ...]:
        """Per-subquery engine phases (composed sessions run sequentially)."""
        return tuple(engine.phase for _, engine in self._engines)

    @property
    def params(self):
        """Single-query convenience: the engine's public parameters."""
        if len(self._engines) != 1:
            raise ParameterError("session runs multiple engines; use .engines")
        return self._engines[0][1].params

    @property
    def engines(self) -> tuple[ProtocolEngine, ...]:
        return tuple(engine for _, engine in self._engines)

    @property
    def client_count(self) -> int:
        return self._engines[0][1]._client_count

    # Submission -------------------------------------------------------------

    def submit(self, values) -> None:
        """Enroll a chunk of clients.

        For simple queries, ``values`` is an iterable of raw values (bits,
        bin choices, bounded ints — whatever the query encodes) or
        pre-built :class:`~repro.core.client.Client` objects.  For a
        composed query, each element is a tuple with one raw value per
        subquery.  May be called any number of times before
        :meth:`release`; the iterable is consumed lazily, chunk by chunk.
        """
        if self._result is not None:
            raise SessionStateError("session already released")
        if len(self._engines) == 1:
            query, engine = self._engines[0]
            engine.submit_clients(self._clients(query, engine, values))
            return
        arity = len(self._engines)
        for record in values:
            record = tuple(record)
            if len(record) != arity:
                raise ParameterError(
                    f"composed record has {len(record)} values, expected {arity}"
                )
            for (query, engine), value in zip(self._engines, record):
                engine.submit_clients(self._clients(query, engine, [value]))

    def _clients(self, query: Query, engine: ProtocolEngine, values):
        for value in values:
            if isinstance(value, Client):
                yield value
                continue
            name = f"client-{engine._client_count}"
            yield query.make_client(name, value, fork_rng(engine.rng, name))

    # Release ----------------------------------------------------------------

    def release(self) -> SessionResult:
        """Drive every engine through its remaining phases and release.

        Idempotent: the result is cached.  Each executed query charges its
        honest budget to the accountant exactly once.
        """
        if self._result is not None:
            return self._result
        results = []
        for index, (query, engine) in enumerate(self._engines):
            engine_result = engine.run_release()
            if index not in self._charged:
                # A released query spends its budget exactly once, even if
                # an exception from a later engine forces a release() retry
                # (engines cache their results; the charge must not repeat).
                epsilon, delta = query.charged_budget()
                self.accountant.charge(epsilon, delta, label=query.label)
                self._charged.add(index)
            results.append(
                QueryResult(
                    query=query,
                    release=engine_result.release,
                    engine_result=engine_result,
                )
            )
        self._result = SessionResult(tuple(results), self.accountant)
        return self._result
