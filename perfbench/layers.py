"""The benchmark's metric catalogue and the per-layer arithmetic.

``END_TO_END`` and ``PER_LAYER`` are the metrics ``BENCHMARK.json``
declares, in order; ``test_perfbench.py`` keeps the two in step.  Layer
totals are reported *per traced session* (the sum over the traced
sessions divided by their count), so a traced run that fits one more
session in its window reports the same figures.
"""

from __future__ import annotations

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("sessions_per_s", "1/s", "higher"),
    ("session_s.p50", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)

# Spans whose self time is reported as ``<name>.s``; those in
# ``_INCLUSIVE`` also report ``<name>.incl_s`` because traced layers run
# inside them, and those in ``_CALLS`` report ``<name>.calls``.
_SPANS = (
    "crypto.commit",
    "crypto.opens_to",
    "crypto.multiexp",
    "crypto.params",
    "sigma.prove_bit",
    "sigma.batch_verify",
    "core.prover.coins",
    "core.prover.receive_share",
    "core.verifier.clients",
    "core.verifier.coins",
    "mpc.morra",
    "mpc.bus",
    "codec.encode",
)
_INCLUSIVE = {
    "crypto.opens_to",
    "sigma.prove_bit",
    "sigma.batch_verify",
    "core.prover.coins",
    "core.prover.receive_share",
    "core.verifier.clients",
    "core.verifier.coins",
    "mpc.morra",
    "mpc.bus",
}
_CALLS = {
    "crypto.commit",
    "crypto.opens_to",
    "crypto.multiexp",
    "sigma.prove_bit",
    "sigma.batch_verify",
    "core.prover.receive_share",
    "mpc.morra",
    "codec.encode",
}
PHASES = ("enroll", "validate", "commit-coins", "morra", "adjust", "release")


def _per_layer():
    rows = []
    for span in _SPANS:
        if span in _CALLS:
            rows.append((f"{span}.calls", "count", "lower"))
        rows.append((f"{span}.s", "s", "lower"))
        if span in _INCLUSIVE:
            rows.append((f"{span}.incl_s", "s", "lower"))
    rows += [
        ("crypto.multiexp.terms", "count", "lower"),
        ("crypto.group_setup.s", "s", "lower"),
        ("sigma.batch_verify.ok_ratio", "ratio", "higher"),
        ("mpc.morra.bits", "count", "lower"),
        ("mpc.bus.messages", "count", "lower"),
        ("mpc.bus.bytes", "B", "lower"),
        ("codec.encode.bytes", "B", "lower"),
    ]
    rows += [(f"api.phase.{phase}.s", "s", "lower") for phase in PHASES]
    rows += [
        ("net.service_s.p50", "s", "lower"),
        ("net.queue_s.p50", "s", "lower"),
        ("net.engine_s.mean", "s", "lower"),
        ("net.peer_overhead_s.mean", "s", "lower"),
        ("fleet.session_s.p90", "s", "lower"),
        ("fleet.stolen", "count", "lower"),
        ("fleet.restarts", "count", "lower"),
        ("fleet.frontend_skew", "ratio", "lower"),
        ("trace.session.s", "s", "lower"),
        ("trace.unattributed.s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "higher"),
    ]
    return tuple(rows)


PER_LAYER = _per_layer()
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

# Per-layer metrics of the serving path, measured on ``serve-fleet`` only.
FLEET_ONLY = (
    "net.service_s.p50",
    "net.queue_s.p50",
    "net.engine_s.mean",
    "net.peer_overhead_s.mean",
    "fleet.session_s.p90",
    "fleet.stolen",
    "fleet.restarts",
    "fleet.frontend_skew",
)
NO_FLEET = "in-process workload: no fleet, gateway or transport between caller and engine"


def from_spans(summary, counters, sessions: int) -> dict[str, float]:
    """Span-derived layer metrics, per traced session."""
    if sessions < 1:
        raise ValueError("no traced session")
    out: dict[str, float] = {}
    for span in _SPANS:
        entry = summary.get(span, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        if span in _CALLS:
            out[f"{span}.calls"] = entry["calls"] / sessions
        out[f"{span}.s"] = entry["self_s"] / sessions
        if span in _INCLUSIVE:
            out[f"{span}.incl_s"] = entry["incl_s"] / sessions
    batches = summary.get("sigma.batch_verify", {"calls": 0})["calls"]
    out["sigma.batch_verify.ok_ratio"] = (
        counters.get("sigma.batch_verify.ok", 0) / batches if batches else 1.0
    )
    for counter in ("crypto.multiexp.terms", "mpc.morra.bits", "codec.encode.bytes"):
        out[counter] = counters.get(counter, 0) / sessions
    root = summary.get("session", {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
    out["trace.session.s"] = root["incl_s"] / sessions
    out["trace.unattributed.s"] = root["self_s"] / sessions
    return out


def phase_means(stage_maps) -> dict[str, float]:
    """``api.phase.*.s``: mean per session of ``timer.stages['phase:*']``."""
    stage_maps = list(stage_maps)
    if not stage_maps:
        raise ValueError("no session timers")
    return {
        f"api.phase.{phase}.s": sum(m.get(f"phase:{phase}", 0.0) for m in stage_maps)
        / len(stage_maps)
        for phase in PHASES
    }


def serving(latency, service, engine) -> dict[str, float]:
    """``net.*`` and ``fleet.session_s.p90`` from per-session caller
    latencies, service times (the server's own view of a session) and
    engine times (summed phase timings)."""
    from stats import percentile

    latency, service, engine = list(latency), list(service), list(engine)
    if not latency or len(latency) != len(service):
        raise ValueError("need one service time per caller latency")
    engine_mean = sum(engine) / len(engine)
    return {
        "net.service_s.p50": percentile(service, 0.5),
        "net.queue_s.p50": percentile([l - s for l, s in zip(latency, service)], 0.5),
        "net.engine_s.mean": engine_mean,
        "net.peer_overhead_s.mean": sum(service) / len(service) - engine_mean,
        "fleet.session_s.p90": percentile(latency, 0.9),
    }


def complete(values: dict[str, float], absent: dict[str, str]):
    """Every per-layer metric in catalogue order; a metric nobody measured
    is reported as 0 and must carry a reason in ``absent``."""
    missing = [
        name for name, _, _ in PER_LAYER if name not in values and name not in absent
    ]
    if missing:
        raise ValueError(f"per-layer metrics neither measured nor excused: {missing}")
    return {name: float(values.get(name, 0.0)) for name, _, _ in PER_LAYER}
