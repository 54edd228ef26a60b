"""Run reports: JSON-serializable public summaries."""

import json

from repro.api.engine import ProtocolEngine, fork_rng
from repro.core.client import Client
from repro.core.params import setup
from repro.core.prover import OutputTamperingProver
from repro.core.report import render_report, run_report
from repro.utils.rng import SeededRNG

GROUP = "p64-sim"


def make_params():
    return setup(1.0, 2**-10, num_provers=1, group=GROUP, nb_override=8)


def run_bits(params, bits, *, provers=None, seed="rep"):
    rng = SeededRNG(seed)
    engine = ProtocolEngine(params, provers=provers, rng=rng)
    engine.submit_clients(
        Client(f"client-{i}", [bit], fork_rng(rng, f"client-{i}"))
        for i, bit in enumerate(bits)
    )
    return engine.run_release()


def run_once(seed="rep"):
    params = make_params()
    return params, run_bits(params, [1, 0, 1], seed=seed)


class TestRunReport:
    def test_schema_and_fields(self):
        params, result = run_once()
        report = run_report(params, result)
        assert report["schema"] == "repro.run-report.v1"
        assert report["parameters"]["nb"] == 8
        assert report["release"]["accepted"] is True
        assert len(report["audit"]["clients"]) == 3
        assert report["costs"]["network_messages"] > 0

    def test_json_serializable(self):
        params, result = run_once(seed="js")
        text = render_report(params, result)
        parsed = json.loads(text)
        assert parsed["release"]["raw"] == list(result.release.raw)

    def test_estimate_consistent(self):
        params, result = run_once(seed="est")
        report = run_report(params, result)
        raw = report["release"]["raw"][0]
        est = report["release"]["estimate"][0]
        assert est == raw - report["release"]["noise_mean_removed"]

    def test_cheater_visible_in_report(self):
        params = make_params()
        cheater = OutputTamperingProver("prover-0", params, SeededRNG("c"), bias=3)
        result = run_bits(params, [1], provers=[cheater], seed="r")
        report = run_report(params, result)
        assert report["release"]["accepted"] is False
        assert report["audit"]["provers"]["prover-0"] == "failed-final-check"

    def test_report_contains_only_public_data(self):
        """No share values, openings, or coin values anywhere."""
        params, result = run_once(seed="pub")
        text = render_report(params, result)
        for secret_marker in ("opening", "randomness", "share_value", "coin_value"):
            assert secret_marker not in text
