"""The run-table harness: validation, canonicalization, runs, the gate.

Pinned here:

* a :class:`RunTable` rejects typos loudly — unknown factors, unknown
  fixed keys, unknown table keys — because a silently-ignored factor is
  an experiment silently not run;
* the factor cross canonicalizes factors a topology cannot express and
  deduplicates the collapsed cells, with stable ``cell_id`` names
  (baselines key on them);
* a tiny real run produces measurement rows with host metadata on every
  raw artifact, a caveat row on single-core hosts, and a
  :class:`HarnessError` (not a quietly-false field) when a cell loses
  byte-identity or sessions;
* :func:`summarize` + :func:`check_baseline` implement the CI perf
  gate: slowdowns beyond the limit and lost coverage are violations,
  new cells are not.
"""

import json
import os

import pytest

from repro.bench import harness
from repro.bench.harness import (
    HarnessError,
    RunTable,
    cell_id,
    check_baseline,
    expand,
    run_cell,
    run_table,
    summarize,
)
from repro.errors import ParameterError


class TestRunTableValidation:
    def test_unknown_factor_rejected(self):
        with pytest.raises(ParameterError, match="unknown factors"):
            RunTable(name="t", factors={"topologie": ["fleet"]})

    def test_unknown_cell_factor_rejected(self):
        with pytest.raises(ParameterError, match="unknown factors in cell"):
            RunTable(name="t", cells=[{"frontend": 2}])

    def test_unknown_fixed_key_rejected(self):
        with pytest.raises(ParameterError, match="unknown fixed keys"):
            RunTable(
                name="t", factors={"nb": [16]}, fixed={"clinets": 4}
            )

    def test_unknown_table_key_rejected(self):
        with pytest.raises(ParameterError, match="unknown run-table keys"):
            RunTable.from_dict({"name": "t", "factors": {"nb": [16]}, "reps": 2})

    def test_needs_factors_or_cells_and_sane_name(self):
        with pytest.raises(ParameterError, match="factors or cells"):
            RunTable(name="t")
        with pytest.raises(ParameterError, match="name"):
            RunTable(name="bad name!", factors={"nb": [16]})
        with pytest.raises(ParameterError, match="repetitions"):
            RunTable(name="t", repetitions=0, factors={"nb": [16]})
        with pytest.raises(ParameterError, match="level list"):
            RunTable(name="t", factors={"nb": []})

    def test_from_file_round_trip(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(
            json.dumps(
                {"name": "rt", "repetitions": 2, "factors": {"nb": [16, 32]}}
            )
        )
        table = RunTable.from_file(path)
        assert table.name == "rt" and table.repetitions == 2
        assert len(expand(table)) == 2


class TestExpansion:
    def test_canonicalization_collapses_and_dedups(self):
        """in-process cannot express shards/frontends/delay, so a cross
        over those factors collapses to a single canonical cell."""
        table = RunTable(
            name="t",
            factors={
                "topology": ["in-process"],
                "shards": [0, 2],
                "frontends": [1, 2],
                "reply_delay": [0.0, 0.03],
            },
        )
        cells = expand(table)
        assert len(cells) == 1
        assert cells[0]["shards"] == 0
        assert cells[0]["frontends"] == 0
        assert cells[0]["reply_delay"] == 0.0

    def test_fleet_keeps_its_axes(self):
        table = RunTable(
            name="t",
            factors={"topology": ["fleet"], "frontends": [1, 2], "shards": [0, 2]},
        )
        assert len(expand(table)) == 4

    def test_explicit_cells_joined_with_cross(self):
        table = RunTable(
            name="t",
            factors={"topology": ["in-process"]},
            cells=[{"topology": "fleet", "frontends": 2}],
        )
        assert [c["topology"] for c in expand(table)] == ["in-process", "fleet"]

    def test_unknown_topology_rejected(self):
        table = RunTable(name="t", factors={"topology": ["mesh"]})
        with pytest.raises(ParameterError, match="unknown topology"):
            expand(table)

    def test_cell_id_stable_and_filesystem_safe(self):
        cells = expand(
            RunTable(
                name="t",
                factors={"topology": ["fleet"], "nb": [64], "reply_delay": [0.03]},
            )
        )
        cid = cell_id(cells[0])
        assert cid == "fleet_g-p64-sim_nb64_n1_sh0_f2_d30"
        assert "/" not in cid and " " not in cid


class TestRunAndGate:
    def test_tiny_table_runs_with_artifacts_and_caveat(self, tmp_path):
        table = RunTable(
            name="tiny",
            repetitions=2,
            factors={"topology": ["in-process"], "nb": [16]},
            fixed={"clients": 3, "timeout": 30.0},
        )
        rows = run_table(table, out_dir=tmp_path, progress=lambda line: None)
        measured = [r for r in rows if r.get("kind") != "caveat"]
        assert len(measured) == 2
        for row in measured:
            assert row["byte_identical"] and row["released"] == 1
            raw = tmp_path / f"BENCH_tiny.{row['cell']}.r{row['rep']}.json"
            data = json.loads(raw.read_text())
            assert data["rows"][0]["cpu_count"] >= 1  # host metadata stamped
            assert data["rows"][0]["platform"]
        caveats = [r for r in rows if r.get("kind") == "caveat"]
        if (os.cpu_count() or 1) < 2:
            assert len(caveats) == 1 and caveats[0]["scaling_claim"] == "withheld"
        else:
            assert not caveats

    def test_strict_run_raises_on_lost_invariant(self, monkeypatch):
        monkeypatch.setattr(
            harness,
            "_run_in_process",
            lambda cell, fixed: {
                "wall_s": 0.1,
                "sessions_per_sec": 10.0,
                "released": 1,
                "accepted": True,
                "byte_identical": False,
            },
        )
        with pytest.raises(HarnessError, match="byte-identity"):
            run_cell({"topology": "in-process", "nb": 16})
        assert not run_cell(
            {"topology": "in-process", "nb": 16}, strict=False
        )["byte_identical"]

    def test_summarize_and_baseline_gate(self):
        rows = [
            {"cell": "a", "wall_s": 1.0},
            {"cell": "a", "wall_s": 3.0},
            {"cell": "b", "wall_s": 2.0},
            {"kind": "caveat", "note": "1-core"},
        ]
        summary = summarize(rows)
        assert summary["cells"]["a"]["mean"] == 2.0
        assert summary["cells"]["a"]["n"] == 2
        assert summary["caveats"] == ["1-core"]

        baseline = {
            "metric": "wall_s",
            "cells": {
                "a": {"mean": 2.0, "stdev": 0.0, "n": 2},
                "gone": {"mean": 1.0, "stdev": 0.0, "n": 2},
            },
        }
        violations = check_baseline(summary, baseline, max_slowdown=2.0)
        assert len(violations) == 1 and "gone" in violations[0]

        slow = {"metric": "wall_s", "cells": {"a": {"mean": 0.5, "stdev": 0, "n": 2}}}
        violations = check_baseline(summary, slow, max_slowdown=2.0)
        assert len(violations) == 1 and "slowdown" in violations[0]

        with pytest.raises(ParameterError, match="metric"):
            check_baseline(summary, {"metric": "other", "cells": {}})
        with pytest.raises(ParameterError, match="max_slowdown"):
            check_baseline(summary, baseline, max_slowdown=0)
