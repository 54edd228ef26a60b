"""The declarative experiment harness: ``repro bench run table.json``.

Every serving benchmark in this repo used to be its own ad-hoc script
with its own timing loop, its own JSON shape and its own idea of what a
"run" is.  This module replaces that with the muBench-style replication
structure: an experiment is a **run table** — factors × levels ×
repetitions — and the harness owns everything the scripts duplicated:

* **Factors**: ``topology`` (in-process / multiprocess / socket / async
  / sharded / fleet), ``group`` (backend), ``nb``, ``sessions``,
  ``shards``, ``frontends``, ``reply_delay``.  A table lists levels per
  factor (full cross) or explicit ``cells`` (a curated list); factors a
  topology cannot express are *canonicalized* (an in-process run has no
  front-ends) and duplicate canonical cells are deduplicated, so a full
  cross never runs a meaningless combination twice.
* **Invariant enforcement**: every cell asserts byte-identity against
  the solo seeded :class:`repro.api.Session` (the repo's cross-cutting
  invariant); a cell that loses it fails the whole run loudly.
* **Raw artifacts**: one JSON per repetition through
  :func:`repro.bench.runner.write_bench_json` — host metadata stamped,
  so a number can never be read without knowing how many cores measured
  it — plus a combined ``BENCH_<table>.json``, with an explicit
  ``caveat`` row whenever ``cpu_count < 2`` (scaling claims withheld,
  ROADMAP's measurement-caveat rule).
* **Analysis**: :func:`summarize` folds rows into per-cell mean/stdev;
  :func:`check_baseline` compares two summaries and names every cell
  that regressed beyond a slowdown factor — the machine-checkable gate
  CI runs against the checked-in baseline.

The checked-in ``experiments/serving_sweep.json`` reproduces the
fleet/async/sharded measurements end-to-end; ``experiments/ci_gate.json``
is the tiny table the CI perf gate runs on every push.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.api.queries import CountQuery, HistogramQuery, Query
from repro.crypto.serialization import encode_message
from repro.errors import ParameterError, ReproError
from repro.net.peers import session_seed, session_values
from repro.net.serve import run_sessions, solo_release
from repro.bench.runner import write_bench_json

__all__ = [
    "TOPOLOGIES",
    "FACTORS",
    "RunTable",
    "expand",
    "cell_id",
    "run_cell",
    "run_table",
    "summarize",
    "check_baseline",
    "load_rows",
    "main",
    "CAVEAT_NOTE",
]

TOPOLOGIES = (
    "in-process",
    "multiprocess",
    "socket",
    "async",
    "sharded",
    "fleet",
)

# Factor name -> default level (a table only names the factors it sweeps).
FACTORS = {
    "topology": "in-process",
    "group": "p64-sim",
    "nb": 64,
    "sessions": 1,
    "shards": 0,
    "frontends": 2,
    "reply_delay": 0.0,
}

# Fixed (non-swept) knobs and their defaults.
FIXED = {
    "clients": 6,
    "num_servers": 2,
    "capacity": 2,
    "chunk": None,
    "seed": "bench",
    "timeout": 120.0,
    "epsilon": 1.0,
    "delta": 2**-10,
    "bins": 1,
    "host": "127.0.0.1",
}

CAVEAT_NOTE = (
    "Measurement caveat: produced on a 1-core container (cpu_count "
    "recorded per row), so multi-process rows show dispatch overhead, "
    "not parallel speedup — real multi-core scaling is still unmeasured "
    "(see ROADMAP 'Measurement caveat')."
)


class HarnessError(ReproError):
    """A run-table cell violated an invariant (e.g. lost byte-identity)."""


@dataclass
class RunTable:
    """A declarative experiment: factors × levels × repetitions.

    ``factors`` maps factor names to level lists (the full cross is
    run); ``cells`` instead lists explicit factor dicts (a curated run
    list — what a shape table like ``bench_fleet``'s (F, C, S) triples
    needs).  A table may use either or both; ``fixed`` overrides the
    non-swept defaults.  Unknown keys anywhere are errors — a typo'd
    factor silently ignored is an experiment silently not run.
    """

    name: str
    repetitions: int = 1
    description: str = ""
    factors: dict = field(default_factory=dict)
    cells: list = field(default_factory=list)
    fixed: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or not all(
            c.isalnum() or c in "._-" for c in self.name
        ):
            raise ParameterError(
                "table name must be non-empty [A-Za-z0-9._-] "
                "(it names the BENCH artifact files)"
            )
        if self.repetitions < 1:
            raise ParameterError("repetitions must be >= 1")
        unknown = sorted(set(self.factors) - set(FACTORS))
        if unknown:
            raise ParameterError(f"unknown factors: {unknown}")
        for cell in self.cells:
            if not isinstance(cell, dict):
                raise ParameterError("cells must be factor dicts")
            unknown = sorted(set(cell) - set(FACTORS))
            if unknown:
                raise ParameterError(f"unknown factors in cell: {unknown}")
        unknown = sorted(set(self.fixed) - set(FIXED))
        if unknown:
            raise ParameterError(f"unknown fixed keys: {unknown}")
        for factor, levels in self.factors.items():
            if not isinstance(levels, list) or not levels:
                raise ParameterError(
                    f"factor {factor!r} needs a non-empty level list"
                )
        if not self.factors and not self.cells:
            raise ParameterError("a run table needs factors or cells")

    @classmethod
    def from_dict(cls, data: dict) -> "RunTable":
        if not isinstance(data, dict):
            raise ParameterError("run table must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ParameterError(f"unknown run-table keys: {unknown}")
        return cls(**data)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunTable":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


# Cell expansion ---------------------------------------------------------------


def _canonicalize(cell: dict) -> dict:
    """Pin the factors a topology cannot express to canonical values, so
    a full factor cross never runs a meaningless combination (and the
    duplicates it would create collapse in :func:`expand`)."""
    topology = cell["topology"]
    if topology not in TOPOLOGIES:
        raise ParameterError(
            f"unknown topology {topology!r} (choose from {TOPOLOGIES})"
        )
    cell = dict(cell)
    if topology == "in-process":
        # Sequential solo sessions: no processes, no shards, no delay.
        cell.update(shards=0, frontends=0, reply_delay=0.0)
    elif topology in ("multiprocess", "socket"):
        # One distributed session; 'sharded' owns the shards axis.
        cell.update(sessions=1, shards=0, frontends=0, reply_delay=0.0)
    elif topology == "sharded":
        # Multiprocess transport sweeping shards (0 = unsharded baseline).
        cell.update(sessions=1, frontends=0, reply_delay=0.0)
    elif topology == "async":
        # One mux front-end; the fleet owns the frontends axis.
        cell.update(frontends=0)
    return cell


def expand(table: RunTable) -> list[dict]:
    """Expand factors×levels (plus explicit cells) into the canonical,
    deduplicated, ordered cell list."""
    raw: list[dict] = []
    if table.factors:
        combos: list[dict] = [{}]
        for factor in FACTORS:  # stable factor order
            levels = table.factors.get(factor)
            if levels is None:
                continue
            combos = [
                {**combo, factor: level} for combo in combos for level in levels
            ]
        raw.extend(combos)
    raw.extend(dict(cell) for cell in table.cells)

    cells: list[dict] = []
    seen: set[tuple] = set()
    for combo in raw:
        cell = _canonicalize({**FACTORS, **combo})
        key = tuple(cell[name] for name in FACTORS)
        if key in seen:
            continue
        seen.add(key)
        cells.append(cell)
    return cells


def cell_id(cell: dict) -> str:
    """A filesystem-safe canonical cell name (stable across runs —
    baselines key on it)."""
    delay_ms = int(round(cell["reply_delay"] * 1000.0))
    return (
        f"{cell['topology']}_g-{cell['group']}_nb{cell['nb']}"
        f"_n{cell['sessions']}_sh{cell['shards']}_f{cell['frontends']}"
        f"_d{delay_ms}"
    )


# Cell execution ---------------------------------------------------------------


def _build_query(fixed: dict) -> tuple[Query, list]:
    bins = fixed["bins"]
    if bins > 1:
        query: Query = HistogramQuery(
            bins=bins, epsilon=fixed["epsilon"], delta=fixed["delta"]
        )
        values = [i % bins for i in range(fixed["clients"])]
    else:
        query = CountQuery(epsilon=fixed["epsilon"], delta=fixed["delta"])
        values = [i % 2 for i in range(fixed["clients"])]
    return query, values


def _seed_root(fixed: dict, cell: dict) -> str:
    return f"{fixed['seed']}/{cell_id(cell)}"


def _run_in_process(cell: dict, fixed: dict) -> dict:
    query, values = _build_query(fixed)
    seed = _seed_root(fixed, cell)
    knobs = {
        "num_servers": fixed["num_servers"],
        "group": cell["group"],
        "nb_override": cell["nb"],
        "chunk_size": fixed["chunk"],
    }
    frames: list[bytes] = []
    accepted = True
    start = time.perf_counter()
    for s in range(cell["sessions"]):
        release = solo_release(
            query, session_values(values, s), session_seed(seed, s), **knobs
        )
        accepted = accepted and release.accepted
        frames.append(encode_message(release))
    wall = time.perf_counter() - start
    # The reference topology has nothing distributed to compare against,
    # so byte-identity here is the determinism half of the invariant: an
    # identically seeded replay must reproduce the release exactly.
    replay = solo_release(
        query, session_values(values, 0), session_seed(seed, 0), **knobs
    )
    return {
        "wall_s": wall,
        "sessions_per_sec": cell["sessions"] / wall if wall else float("inf"),
        "released": cell["sessions"],
        "accepted": accepted,
        "byte_identical": encode_message(replay) == frames[0],
    }


# Every served topology is one run_sessions shape; the canonical cell
# already carries its sessions, shards and front-ends.
_TRANSPORT = {
    "multiprocess": "multiprocess",
    "sharded": "multiprocess",
    "socket": "socket",
    "async": "socket",
    "fleet": "socket",
}


def _run_served(cell: dict, fixed: dict) -> dict:
    query, values = _build_query(fixed)
    outcome = run_sessions(
        query,
        values,
        transport=_TRANSPORT[cell["topology"]],
        sessions=cell["sessions"],
        shards=cell["shards"],
        frontends=cell["frontends"],
        capacity=fixed["capacity"],
        num_servers=fixed["num_servers"],
        group=cell["group"],
        nb_override=cell["nb"],
        chunk_size=fixed["chunk"],
        host=fixed["host"],
        timeout=fixed["timeout"],
        reply_delay=cell["reply_delay"],
        seed=_seed_root(fixed, cell),
    )
    return {
        "wall_s": outcome["elapsed_s"],
        "sessions_per_sec": outcome["sessions_per_sec"],
        "p50_session_s": outcome["p50_session_s"],
        "released": outcome["released"],
        "aborted": outcome["aborted"],
        "crashed": outcome["crashed"],
        "restarts": sum(outcome["restarts"].values()),
        "stolen": outcome["stolen"],
        "frontends_used": len(outcome["frontends_used"]),
        "accepted": outcome["accepted"],
        "byte_identical": outcome["byte_identical"],
        "chunk": outcome["chunk_size"],
        "frontend_bytes_sent": outcome["frontend_bytes_sent"],
        "frontend_bytes_received": outcome["frontend_bytes_received"],
    }


def run_cell(
    cell: dict, fixed: dict | None = None, *, strict: bool = True
) -> dict:
    """Run one canonical cell once; returns the measurement row.

    ``strict`` (the default) turns a lost invariant — byte-identity
    against the solo seeded Session, or sessions not released — into a
    :class:`HarnessError` instead of a quietly-false row field.
    """
    cell = _canonicalize({**FACTORS, **cell})
    fixed = {**FIXED, **(fixed or {})}
    unknown = sorted(set(fixed) - set(FIXED))
    if unknown:
        raise ParameterError(f"unknown fixed keys: {unknown}")
    if cell["topology"] == "in-process":
        measured = _run_in_process(cell, fixed)
    else:
        measured = _run_served(cell, fixed)
    row = {
        "cell": cell_id(cell),
        **{name: cell[name] for name in FACTORS},
        "reply_delay_ms": cell["reply_delay"] * 1000.0,
        "clients": fixed["clients"],
        "num_servers": fixed["num_servers"],
        **measured,
    }
    del row["reply_delay"]
    if strict:
        if not row.get("byte_identical", False):
            raise HarnessError(
                f"cell {row['cell']} lost byte-identity against the solo "
                "seeded Session"
            )
        if row.get("released", 0) < cell["sessions"]:
            raise HarnessError(
                f"cell {row['cell']} released {row.get('released', 0)} of "
                f"{cell['sessions']} sessions"
            )
    return row


def run_table(
    table: RunTable,
    *,
    out_dir: str | Path | None = None,
    emit_raw: bool = True,
    strict: bool = True,
    progress=None,
) -> list[dict]:
    """Run every cell × repetition; returns all rows (plus the caveat row
    on single-core hosts).  ``emit_raw`` writes one
    ``BENCH_<table>.<cell>.r<rep>.json`` artifact per run as it lands —
    a crashed sweep keeps everything measured so far."""
    cells = expand(table)
    rows: list[dict] = []
    total = len(cells) * table.repetitions
    done = 0
    for cell in cells:
        for rep in range(table.repetitions):
            row = {"table": table.name, "rep": rep, **run_cell(
                cell, table.fixed, strict=strict
            )}
            rows.append(row)
            done += 1
            if emit_raw:
                write_bench_json(
                    f"{table.name}.{row['cell']}.r{rep}", [row], directory=out_dir
                )
            if progress is not None:
                progress(
                    f"[{done}/{total}] {row['cell']} rep {rep}: "
                    f"{row['wall_s']:.2f}s wall, "
                    f"{row['sessions_per_sec']:.2f} sessions/s"
                )
    if (os.cpu_count() or 1) < 2:
        rows.append(
            {
                "table": table.name,
                "kind": "caveat",
                "scaling_claim": "withheld",
                "note": CAVEAT_NOTE,
            }
        )
    return rows


# Analysis ---------------------------------------------------------------------


def summarize(rows: list[dict], *, metric: str = "wall_s") -> dict:
    """Fold measurement rows into per-cell mean/stdev of ``metric``.

    Caveat rows (and any row without the metric) are skipped for the
    statistics but a caveat's presence is recorded — a summary made on a
    1-core host says so."""
    cells: dict[str, list[float]] = {}
    caveats = []
    for row in rows:
        if row.get("kind") == "caveat":
            caveats.append(row.get("note", "scaling claim withheld"))
            continue
        value = row.get(metric)
        if value is None or "cell" not in row:
            continue
        cells.setdefault(row["cell"], []).append(float(value))
    summary_cells = {
        cid: {
            "mean": statistics.mean(values),
            "stdev": statistics.stdev(values) if len(values) > 1 else 0.0,
            "n": len(values),
        }
        for cid, values in sorted(cells.items())
    }
    return {"metric": metric, "cells": summary_cells, "caveats": caveats}


def check_baseline(
    summary: dict, baseline: dict, *, max_slowdown: float = 2.0
) -> list[str]:
    """Compare a summary against a baseline; returns violation strings
    (empty = gate passes).  Only cells present in the baseline gate —
    new cells are new coverage, not regressions — but a baseline cell
    missing from the summary is a violation (coverage was lost)."""
    if max_slowdown <= 0 or math.isnan(max_slowdown):
        raise ParameterError("max_slowdown must be a positive number")
    if summary.get("metric") != baseline.get("metric"):
        raise ParameterError(
            f"summary metric {summary.get('metric')!r} != baseline "
            f"metric {baseline.get('metric')!r}"
        )
    violations = []
    for cid, base in sorted(baseline.get("cells", {}).items()):
        current = summary.get("cells", {}).get(cid)
        if current is None:
            violations.append(f"{cid}: present in baseline, missing from summary")
            continue
        if base["mean"] <= 0:
            continue
        slowdown = current["mean"] / base["mean"]
        if slowdown > max_slowdown:
            violations.append(
                f"{cid}: {current['mean']:.3f}s vs baseline "
                f"{base['mean']:.3f}s = {slowdown:.2f}x slowdown "
                f"(limit {max_slowdown:.2f}x)"
            )
    return violations


def load_rows(paths) -> list[dict]:
    """Concatenate the rows of BENCH_*.json files (combined or raw)."""
    rows: list[dict] = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict) or "rows" not in data:
            raise ParameterError(f"{path}: not a BENCH rows file")
        rows.extend(data["rows"])
    return rows


# CLI --------------------------------------------------------------------------


def _write_json(path: str, data: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(args) -> int:
    """``repro bench`` entry point (parsed args from ``repro.cli``)."""
    from repro.bench.format import print_table

    try:
        if args.command == "run":
            table = RunTable.from_file(args.table)
            rows = run_table(
                table,
                out_dir=args.out,
                emit_raw=not args.no_raw,
                progress=lambda line: print(line, flush=True),
            )
            path = write_bench_json(table.name, rows, directory=args.out)
            print(f"rows written to {path}")
            summary = summarize(rows)
            display = [
                {"cell": cid, **stats}
                for cid, stats in summary["cells"].items()
            ]
            print_table(
                display, title=f"== {table.name}: wall_s mean/stdev per cell =="
            )
            for note in summary["caveats"]:
                print(note)
            if args.summary:
                _write_json(args.summary, summary)
                print(f"summary written to {args.summary}")
            if args.baseline:
                with open(args.baseline, "r", encoding="utf-8") as handle:
                    baseline = json.load(handle)
                violations = check_baseline(
                    summary, baseline, max_slowdown=args.max_slowdown
                )
                return _report_gate(violations, args.baseline)
            return 0
        if args.command == "summarize":
            summary = summarize(load_rows(args.files), metric=args.metric)
            display = [
                {"cell": cid, **stats} for cid, stats in summary["cells"].items()
            ]
            print_table(display, title=f"== {args.metric} mean/stdev per cell ==")
            if args.out:
                _write_json(args.out, summary)
                print(f"summary written to {args.out}")
            return 0
        if args.command == "check":
            with open(args.summary, "r", encoding="utf-8") as handle:
                summary = json.load(handle)
            with open(args.baseline, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
            violations = check_baseline(
                summary, baseline, max_slowdown=args.max_slowdown
            )
            return _report_gate(violations, args.baseline)
        raise ParameterError(f"unknown bench command {args.command!r}")
    except ParameterError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except HarnessError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1


def _report_gate(violations: list[str], baseline_path: str) -> int:
    if violations:
        print(f"PERF GATE FAILED vs {baseline_path}:", file=sys.stderr)
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    print(f"perf gate passed vs {baseline_path}")
    return 0
