#!/usr/bin/env python3
"""Validate the benchmark artifacts CI uploads.

Each ``--kind`` is one checked artifact contract (previously an inline
script in ``.github/workflows/ci.yml``):

* ``table1-counters FILE`` — ``itpseq-table1/v7`` JSON: every record
  carries the SAT-core and search counters, the preprocessing reduction
  counters, the fault-isolation counters and the fixpoint-layer
  counters, and the suite as a whole exercised minimization, clause
  deletion, database reduction and fixpoint checks.
* ``chaos-counters FILE`` — ``itpseq-table1/v7`` JSON from a ``--chaos``
  run: fault injection was armed, so the counters must show faults
  actually fired, every verdict must still be a recognised kind, and
  every inconclusive record must carry a machine-readable reason.
* ``trace-schema TRACE CHROME BASELINE TRACED`` — ``itpseq-trace/v1``
  JSONL: balanced span tree per track, verdict markers, engine-run
  spans, non-empty Chrome export, and the no-op-sink baseline run is
  not suspiciously slower than the recording run.
* ``hwmcc-schema FILE`` — ``itpseq-hwmcc/v2`` JSON: fixture designs all
  parsed, every property has a recognised status, at least one verdict
  is conclusive, the outputs-as-properties fallback was exercised, and
  the preprocessing pipeline reports per-pass reduction statistics with
  nonzero AND-gate and latch removal somewhere in the fixture set (the
  industrial-shaped fixture guarantees both).
* ``report REPORT FOLDED`` — ``itpseq-report/v1`` JSON plus its folded
  flamegraph export: non-empty span aggregates with engine-run spans,
  per-track self times summing to the busy time and bounded by the wall
  time, the ``baseline`` comparison field present (and passing when a
  comparison was embedded), and a non-empty well-formed collapsed-stack
  file whose per-track weights equal the report's busy times.

Exit status is non-zero (an ``AssertionError`` traceback) on any
violated contract, which fails the CI step.
"""

import argparse
import json
import sys


FAULT_COUNTERS = [
    "panics_contained",
    "memlimit_hits",
    "faults_injected",
    "pool_seq_reruns",
]


def load_table1(path):
    doc = json.load(open(path))
    assert doc["schema"] == "itpseq-table1/v7", doc["schema"]
    records = doc["records"]
    assert records, "the run produced no records"
    return records


def check_table1_counters(path):
    records = load_table1(path)
    counters = [
        "learned_deleted",
        "minimized_literals",
        "db_reductions",
        "decisions",
        "propagations",
        "restarts",
    ]
    reduction = [
        "preprocess_time_ms",
        "ands_removed",
        "latches_removed",
        "inputs_removed",
        "cert_clauses_subsumed",
    ]
    fixpoint = ["fixpoint_checks", "fixpoint_time_ms"]
    for record in records:
        for field in reduction + FAULT_COUNTERS + fixpoint:
            assert field in record, f"{field} missing from {record['benchmark']}"
    checks = sum(r["fixpoint_checks"] for r in records)
    assert checks > 0, "no fixpoint check ran across the whole smoke suite"
    print(f"total fixpoint_checks: {checks}")

    for record in records:
        for counter in counters:
            assert counter in record, f"{counter} missing from {record['benchmark']}"
    # Restarts can legitimately stay zero on the tiny smoke instances;
    # search activity itself cannot.
    for counter in counters[:-1]:
        total = sum(r[counter] for r in records)
        assert total > 0, f"{counter} is zero across the whole smoke suite"
        print(f"total {counter}: {total}")
    # Without injection armed, no run may report a fault.
    injected = sum(r["faults_injected"] for r in records)
    assert injected == 0, f"faults reported without injection armed: {injected}"


def check_chaos_counters(path):
    records = load_table1(path)
    for record in records:
        for field in FAULT_COUNTERS:
            assert field in record, f"{field} missing from {record['benchmark']}"
        assert record["verdict"] in ("proved", "falsified", "inconclusive"), record
        if record["verdict"] == "inconclusive":
            assert record["reason"], f"opaque inconclusive record: {record}"
    injected = sum(r["faults_injected"] for r in records)
    contained = sum(r["panics_contained"] for r in records)
    degraded = sum(r["verdict"] == "inconclusive" for r in records)
    assert injected > 0, "injection was armed but no fault fired"
    print(
        f"{len(records)} records: {injected} faults injected, "
        f"{contained} panics contained, {degraded} degraded verdicts"
    )


def check_trace_schema(trace_path, chrome_path, baseline_path, traced_path):
    lines = open(trace_path).read().splitlines()
    assert lines, "empty trace"
    header = json.loads(lines[0])
    assert header["schema"] == "itpseq-trace/v1", header
    events = [json.loads(line) for line in lines[1:]]
    assert events, "trace carries no events"
    depth, spans = {}, 0
    for e in events:
        assert {"seq", "ts_us", "track", "ph", "name"} <= e.keys(), e
        if e["ph"] == "B":
            depth[e["track"]] = depth.get(e["track"], 0) + 1
        elif e["ph"] == "E":
            depth[e["track"]] = depth.get(e["track"], 0) - 1
            assert depth[e["track"]] >= 0, f"unbalanced span on {e['track']}"
            spans += 1
    assert spans > 0, "no complete spans recorded"
    assert any(
        e["name"] in ("verdict", "prop.decide") for e in events
    ), "no verdict / property-decision markers"
    assert any(
        e["name"].endswith(".run") or e["name"].endswith(".multi") for e in events
    ), "no engine run spans"
    chrome = json.load(open(chrome_path))
    assert chrome["traceEvents"], "empty chrome trace"
    base = json.load(open(baseline_path))
    traced = json.load(open(traced_path))
    base_ms = sum(d.get("time_ms", 0) for d in base["designs"])
    traced_ms = sum(d.get("time_ms", 0) for d in traced["designs"])
    print(
        f"{len(events)} events, {spans} spans; "
        f"no-op {base_ms:.0f} ms vs recorded {traced_ms:.0f} ms"
    )
    assert (
        base_ms <= traced_ms * 3 + 1000
    ), f"no-op-sink run suspiciously slow: {base_ms} vs {traced_ms}"


def check_hwmcc_schema(path):
    doc = json.load(open(path))
    assert doc["schema"] == "itpseq-hwmcc/v2", doc["schema"]
    designs = doc["designs"]
    assert len(designs) >= 4, f"expected the fixture designs, got {len(designs)}"
    conclusive = 0
    pass_names = {"strash", "constants", "stuck", "dead", "coi"}
    for design in designs:
        assert "error" not in design, design
        assert design["properties"], f"{design['file']} has no properties"
        for prop in design["properties"]:
            assert prop["status"] in ("proved", "falsified", "inconclusive"), prop
            conclusive += prop["status"] != "inconclusive"
        pre = design.get("preprocess")
        assert pre is not None, f"{design['file']} carries no preprocess report"
        assert pre["passes"], f"{design['file']} ran no preprocessing passes"
        for stage in pre["passes"]:
            assert stage["pass"] in pass_names, stage
            for field in ("ands_removed", "latches_removed", "inputs_removed"):
                assert field in stage, stage
    assert conclusive > 0, "the fixture run decided nothing"
    assert any(
        d["promoted_outputs"] for d in designs
    ), "the outputs-as-properties fallback fixture must be exercised"
    reduced_ands = sum(d["preprocess"]["ands_removed"] for d in designs)
    reduced_latches = sum(d["preprocess"]["latches_removed"] for d in designs)
    assert reduced_ands > 0, "no fixture design lost an AND gate to preprocessing"
    assert reduced_latches > 0, "no fixture design lost a latch to preprocessing"
    print(
        f"{len(designs)} designs, {conclusive} conclusive properties, "
        f"preprocessing removed {reduced_ands} ands / {reduced_latches} latches"
    )


def check_report(report_path, folded_path):
    doc = json.load(open(report_path))
    assert doc["schema"] == "itpseq-report/v1", doc["schema"]
    assert doc["total_events"] > 0, "report over an empty trace"
    spans = doc["spans"]
    assert spans, "no span aggregates"
    assert any(
        s["name"].endswith(".run") or s["name"].endswith(".multi") for s in spans
    ), "no engine run spans in the aggregates"
    for span in spans:
        assert span["self_us"] <= span["total_us"], span
        assert span["min_us"] <= span["p50_us"] <= span["p99_us"] <= span["max_us"], span
    tracks = {t["track"]: t for t in doc["tracks"]}
    assert tracks, "no tracks"
    for name, track in tracks.items():
        self_sum = sum(s["self_us"] for s in spans if s["track"] == name)
        assert self_sum == track["busy_us"], (
            f"{name}: self times sum to {self_sum}, busy is {track['busy_us']}"
        )
        assert track["busy_us"] <= track["wall_us"], track
    # The key is always emitted; a null means "no comparison requested",
    # an embedded comparison must have passed for the artifact to count.
    assert "baseline" in doc, "report carries no baseline field"
    if doc["baseline"] is not None:
        assert doc["baseline"]["passed"], doc["baseline"]

    folded = open(folded_path).read().splitlines()
    assert folded, "empty folded flamegraph export"
    weights = {}
    for line in folded:
        stack, weight = line.rsplit(" ", 1)
        frames = stack.split(";")
        assert frames and all(frames), f"malformed stack: {line!r}"
        weights[frames[0]] = weights.get(frames[0], 0) + int(weight)
    for name, total in weights.items():
        assert name in tracks, f"folded track {name} missing from the report"
        assert total == tracks[name]["busy_us"], (
            f"{name}: folded weight {total} != busy {tracks[name]['busy_us']}"
        )
    print(
        f"{len(spans)} span aggregates over {len(tracks)} tracks, "
        f"{len(folded)} folded stacks, baseline "
        + ("compared" if doc["baseline"] is not None else "not compared")
    )


KINDS = {
    "table1-counters": (check_table1_counters, 1),
    "chaos-counters": (check_chaos_counters, 1),
    "trace-schema": (check_trace_schema, 4),
    "hwmcc-schema": (check_hwmcc_schema, 1),
    "report": (check_report, 2),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", required=True, choices=sorted(KINDS))
    parser.add_argument("files", nargs="+", help="artifact file(s), see --kind docs")
    args = parser.parse_args()
    check, arity = KINDS[args.kind]
    if len(args.files) != arity:
        parser.error(f"--kind {args.kind} takes exactly {arity} file argument(s)")
    check(*args.files)


if __name__ == "__main__":
    sys.exit(main())
