"""Operator-facing run reports.

A deployment wants a machine-readable record of every release: what was
published, under what budget, who was excluded and why, and whether the
release stands.  :func:`run_report` turns an
:class:`~repro.api.engine.EngineResult` into a plain-JSON-serializable
dict (and :func:`render_report` into text for logs).  The report
contains *only public information* — it can be attached to the release
itself.
"""

from __future__ import annotations

import json

from repro.api.engine import EngineResult
from repro.core.params import PublicParams

__all__ = ["run_report", "render_report"]


def run_report(params: PublicParams, result: EngineResult) -> dict:
    """A JSON-serializable public summary of one protocol run."""
    release = result.release
    return {
        "schema": "repro.run-report.v1",
        "parameters": {
            "epsilon": params.epsilon,
            "delta": params.delta,
            "nb": params.nb,
            "num_provers": params.num_provers,
            "dimension": params.dimension,
            "group": params.group.name,
            "fingerprint": params.fingerprint().hex(),
        },
        "release": {
            "accepted": release.accepted,
            "raw": list(release.raw),
            "estimate": list(release.estimate),
            "noise_mean_removed": params.noise_mean,
        },
        "audit": {
            "clients": {cid: status.value for cid, status in release.audit.clients.items()},
            "provers": {pid: status.value for pid, status in release.audit.provers.items()},
            "notes": list(release.audit.notes),
        },
        "costs": {
            "stage_ms": {k: round(v * 1e3, 3) for k, v in result.timer.stages.items()},
            "network_bytes": result.network.total_bytes(),
            "network_messages": result.network.total_messages(),
        },
    }


def render_report(params: PublicParams, result: EngineResult) -> str:
    """Human-readable rendering (stable key order for log diffing)."""
    return json.dumps(run_report(params, result), indent=2, sort_keys=True)
