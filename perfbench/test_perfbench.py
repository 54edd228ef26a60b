"""Tests for the benchmark's own arithmetic and bookkeeping.

Fast and free of timing assertions.  ``smoke.py`` runs every workload
end to end for a second instead.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import fleet
import layers
import run
from spans import Tracer, summarize
from stats import count_failures, covered, failed_ratio, median, percentile

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


# Percentiles -----------------------------------------------------------------


def test_median_interpolates_between_middle_values():
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([7.0]) == 7.0


def test_percentile_ends_and_interior():
    values = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert percentile(values, 0.0) == 10.0
    assert percentile(values, 1.0) == 50.0
    assert percentile(values, 0.9) == pytest.approx(46.0)
    assert percentile(values, 0.25) == 20.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


# Failures --------------------------------------------------------------------


def _outcome(status="released", accepted=True, matches=True):
    return {"status": status, "accepted": accepted, "matches": matches}


def test_lost_refused_aborted_and_mismatched_sessions_fail():
    outcomes = [
        _outcome(),
        _outcome(status="lost", accepted=None, matches=False),
        _outcome(status="rejected", accepted=None, matches=False),
        _outcome(status="aborted", accepted=None, matches=False),
        _outcome(status="timeout", accepted=None, matches=False),
        _outcome(matches=False),
        _outcome(accepted=False),
        _outcome(),
    ]
    assert count_failures(outcomes) == 6
    assert failed_ratio(len(outcomes), 6) == 0.75


def test_nothing_attempted_counts_as_total_failure():
    assert failed_ratio(0, 0) == 1.0


def test_result_line_counts_failures_and_only_passed_sessions_in_throughput():
    args = type("Args", (), {"trace": 0})()
    raw = {
        "sessions": [
            {**_outcome(), "session_s": 1.0},
            {**_outcome(), "session_s": 3.0},
            {**_outcome(status="lost", accepted=None, matches=False), "session_s": None},
        ],
        "setup_s": [0.5, 0.7, 0.6],
        "window_s": 4.0,
        "peak_rss_mb": 30.0,
        "infra_failures": 1,
    }
    result = run.summarize(args, raw)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (3, 2)
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert metrics == {
        "setup_s": 0.6,
        "sessions_per_s": 0.5,
        "session_s.p50": 2.0,
        "peak_rss_mb": 30.0,
    }


def test_a_mismatched_release_makes_the_result_incorrect():
    args = type("Args", (), {"trace": 0})()
    raw = {
        "sessions": [{**_outcome(matches=False), "session_s": 1.0}],
        "setup_s": [0.5],
        "window_s": 1.0,
        "peak_rss_mb": 30.0,
        "infra_failures": 0,
    }
    result = run.summarize(args, raw)
    assert result["correct"] is False
    assert result["failed"] == 1


def test_fleet_check_compares_every_reply_field_with_the_replay():
    solo = {
        0: {"accepted": True, "estimate": [1.5], "release_bytes": 100},
        1: {"accepted": True, "estimate": [2.5], "release_bytes": 100},
        2: {"accepted": True, "estimate": [0.5], "release_bytes": 100},
    }
    loop = {
        "outcomes": [
            {"id": 0, "status": "released", **solo[0]},
            {"id": 1, "status": "released", **solo[1], "release_bytes": 101},
            {"id": 2, "status": "lost"},
        ]
    }
    fleet.check(loop, solo)
    assert [o["matches"] for o in loop["outcomes"]] == [True, False, False]


def test_parse_metrics_keeps_labelled_series_and_their_sum():
    text = "\n".join(
        [
            "# HELP x y",
            'repro_engine_phase_seconds_sum{phase="enroll"} 1.5',
            'repro_engine_phase_seconds_sum{phase="morra"} 0.5',
            "repro_sessions_completed_total 4",
        ]
    )
    parsed = fleet.parse_metrics(text)
    assert parsed['repro_engine_phase_seconds_sum{phase="enroll"}'] == 1.5
    assert parsed["repro_engine_phase_seconds_sum"] == 2.0
    assert parsed["repro_sessions_completed_total"] == 4.0


# Spans and self time -----------------------------------------------------------


def test_covered_merges_overlapping_intervals():
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert covered([]) == 0.0


def test_self_time_subtracts_children_once_per_level():
    # session [0,10] > coins [1,9] > prove_bit [2,5], [5,8]; commit [3,4] in the first.
    spans = [
        ["session", 0.0, 10.0, -1, 0],
        ["core.prover.coins", 1.0, 9.0, 0, 0],
        ["sigma.prove_bit", 2.0, 5.0, 1, 0],
        ["crypto.commit", 3.0, 4.0, 2, 0],
        ["sigma.prove_bit", 5.0, 8.0, 1, 0],
    ]
    summary = summarize(spans)
    assert summary["session"] == {"calls": 1, "self_s": 2.0, "incl_s": 10.0}
    assert summary["core.prover.coins"] == {"calls": 1, "self_s": 2.0, "incl_s": 8.0}
    assert summary["sigma.prove_bit"] == {"calls": 2, "self_s": 5.0, "incl_s": 6.0}
    assert summary["crypto.commit"] == {"calls": 1, "self_s": 1.0, "incl_s": 1.0}
    total_self = sum(entry["self_s"] for entry in summary.values())
    assert total_self == 10.0  # every instant counted exactly once


def test_recursive_span_counts_inclusive_time_once():
    spans = [
        ["mpc.bus", 0.0, 4.0, -1, 0],
        ["mpc.bus", 1.0, 3.0, 0, 0],
    ]
    summary = summarize(spans)
    assert summary["mpc.bus"] == {"calls": 2, "self_s": 4.0, "incl_s": 4.0}


def test_tracer_records_nested_calls_and_restores_the_program():
    from repro.api import CountQuery
    from repro.crypto.pedersen import Opening, PedersenParams

    params = CountQuery(epsilon=1.0, delta=2**-10).build_params(
        num_provers=2, group="p64-sim", nb_override=8
    )
    pedersen = params.pedersen
    originals = (PedersenParams.commit, PedersenParams.opens_to)
    commitment = pedersen.commit(1, 5)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.session = 3
        with tracer.span("session"):
            assert pedersen.opens_to(commitment, Opening(1, 5))
    finally:
        tracer.uninstall()
    assert (PedersenParams.commit, PedersenParams.opens_to) == originals
    names = [(name, parent, session) for name, _, _, parent, session in tracer.spans]
    assert names == [("session", -1, 3), ("crypto.opens_to", 0, 3), ("crypto.commit", 1, 3)]
    summary = summarize(tracer.spans)
    assert summary["crypto.opens_to"]["incl_s"] >= summary["crypto.opens_to"]["self_s"]


# Catalogue -------------------------------------------------------------------


def test_benchmark_json_lists_exactly_the_catalogue():
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]
    ] == list(layers.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(
        layers.PER_LAYER
    )
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_every_layer_metric_needs_a_value_or_a_reason():
    with pytest.raises(ValueError):
        layers.complete({}, {})
    names = [name for name, _, _ in layers.PER_LAYER]
    excused = {name: "not measured here" for name in names[1:]}
    values = layers.complete({names[0]: 2.0}, excused)
    assert list(values) == names
    assert values[names[0]] == 2.0 and values[names[1]] == 0.0


def test_layer_totals_are_per_traced_session():
    summary = {
        "sigma.prove_bit": {"calls": 10, "self_s": 4.0, "incl_s": 6.0},
        "sigma.batch_verify": {"calls": 4, "self_s": 0.5, "incl_s": 1.0},
        "session": {"calls": 2, "self_s": 0.2, "incl_s": 8.0},
    }
    counters = {"sigma.batch_verify.ok": 3, "crypto.multiexp.terms": 100}
    values = layers.from_spans(summary, counters, sessions=2)
    assert values["sigma.prove_bit.calls"] == 5
    assert values["sigma.prove_bit.s"] == 2.0
    assert values["sigma.prove_bit.incl_s"] == 3.0
    assert values["sigma.batch_verify.ok_ratio"] == 0.75
    assert values["crypto.multiexp.terms"] == 50
    assert values["trace.session.s"] == 4.0
    assert values["trace.unattributed.s"] == 0.1


def test_serving_metrics_split_latency_into_queue_service_and_engine():
    values = layers.serving(latency=[1.0, 2.0, 4.0], service=[0.5, 1.5, 3.0], engine=[0.5, 1.0])
    assert values["net.service_s.p50"] == 1.5
    assert values["net.queue_s.p50"] == 0.5
    assert values["net.engine_s.mean"] == 0.75
    assert values["net.peer_overhead_s.mean"] == pytest.approx(5.0 / 3 - 0.75)
    assert values["fleet.session_s.p90"] == pytest.approx(3.6)
    with pytest.raises(ValueError):
        layers.serving(latency=[1.0], service=[], engine=[1.0])
