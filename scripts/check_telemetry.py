#!/usr/bin/env python3
"""Validate an alps telemetry JSONL stream and/or a flight-recorder bundle.

JSONL mode (default):
  * every line parses as a JSON object,
  * required keys are present with finite numeric values
    (step, time, dt, elements, dofs, partition_imbalance,
    nusselt, v_rms, t_min, t_max, t_mean),
  * "step" is strictly increasing, "time" non-decreasing, "dt" > 0,
  * "per_level" is a list of non-negative ints summing to "elements",
  * optional "critical_path" blocks list per-phase slowest-rank seconds
    (cp_s) that are finite and non-negative; on a record whose bool
    "adapted" is false, no AMR phase (amr.*) has cp_s above 1e-6,
  * optional "latency" blocks (per-phase histogram quantiles) carry,
    per phase, a positive sample count and quantiles ordered
    p50 <= p95 <= p99 <= max with max <= sum <= count * max; for every
    phase listed in both the record's "critical_path" and its "latency",
    sum_s == mean_s * ranks (relative 1e-8): both read the phase
    histograms over the same step window,
  * optional "memory" blocks obey the accounting invariants: imbalance
    >= 1, min <= mean <= max <= hwm, the accounted and RSS high-water
    marks never decrease across records, accounted total <= global RSS
    (per-rank accounting can never exceed what the OS charges the
    process times ranks), and an {"available": false} RSS object carries
    no numeric fields (no fabricated zeros),
  * optional: --min-records N requires at least N records.

Bundle mode (--dump-dir DIR): the flight-recorder layout written by
obs::panic_dump is present and parses — reason.txt (non-empty),
trace.json / counters.json / phases.json / residuals.json / memory.json
(valid JSON), telemetry_tail.jsonl (every line a JSON object).

Usage:
  check_telemetry.py rhea_telemetry.jsonl --min-records 4
  check_telemetry.py --dump-dir alps_dump
"""

import argparse
import json
import math
import os
import sys

REQUIRED = [
    "step", "time", "dt", "elements", "dofs", "partition_imbalance",
    "nusselt", "v_rms", "t_min", "t_max", "t_mean",
]


def fail(msg: str) -> None:
    print(f"check_telemetry: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def _num(obj, key, where):
    v = obj.get(key)
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        fail(f"{where}: \"{key}\" is not numeric: {v!r}")
    if not math.isfinite(v):
        fail(f"{where}: \"{key}\" is not finite: {v!r}")
    return v


def check_memory_block(mem, where, hwm_state) -> None:
    """Validate one record's "memory" block against the accounting
    invariants; hwm_state carries the previous record's high-water marks
    (they must never decrease across a run)."""
    if not isinstance(mem, dict):
        fail(f"{where}: \"memory\" is not an object")
    if not isinstance(mem.get("available"), bool):
        fail(f"{where}: memory.available is not a bool")
    if not mem["available"]:
        return
    acc = mem.get("accounted")
    if not isinstance(acc, dict):
        fail(f"{where}: memory.accounted missing or not an object")
    amin = _num(acc, "min_bytes", where)
    amed = _num(acc, "median_bytes", where)
    amax = _num(acc, "max_bytes", where)
    amean = _num(acc, "mean_bytes", where)
    ahwm = _num(acc, "hwm_bytes", where)
    aimb = _num(acc, "imbalance", where)
    if not (0 <= amin <= amed <= amax):
        fail(f"{where}: accounted min/median/max out of order "
             f"({amin}/{amed}/{amax})")
    if not (amin <= amean <= amax):
        fail(f"{where}: accounted mean {amean} outside [{amin}, {amax}]")
    if ahwm < amax:
        fail(f"{where}: accounted hwm {ahwm} below current max {amax}")
    if aimb < 1:
        fail(f"{where}: accounted imbalance {aimb} < 1")
    if ahwm < hwm_state.get("acc", 0):
        fail(f"{where}: accounted hwm {ahwm} decreased "
             f"(previous {hwm_state['acc']})")
    hwm_state["acc"] = ahwm

    rss = mem.get("rss")
    if not isinstance(rss, dict):
        fail(f"{where}: memory.rss missing or not an object")
    if not isinstance(rss.get("available"), bool):
        fail(f"{where}: memory.rss.available is not a bool")
    if not rss["available"]:
        if len(rss) != 1:
            fail(f"{where}: rss has available:false mixed with other "
                 f"fields: {sorted(rss)}")
        return
    rmin = _num(rss, "min_bytes", where)
    rmax = _num(rss, "max_bytes", where)
    rhwm = _num(rss, "hwm_bytes", where)
    rimb = _num(rss, "imbalance", where)
    if not (0 < rmin <= rmax <= rhwm):
        fail(f"{where}: rss min/max/hwm out of order "
             f"({rmin}/{rmax}/{rhwm})")
    if rimb < 1:
        fail(f"{where}: rss imbalance {rimb} < 1")
    if rhwm < hwm_state.get("rss", 0):
        fail(f"{where}: rss hwm {rhwm} decreased "
             f"(previous {hwm_state['rss']})")
    hwm_state["rss"] = rhwm
    total = acc.get("total_bytes")
    if isinstance(total, (int, float)) and total > rmax:
        fail(f"{where}: accounted total {total} exceeds RSS {rmax}")


def check_latency_block(lat, where) -> None:
    """Validate one record's "latency" block: per-phase quantiles from
    the merged cross-rank histograms. Quantiles are nearest-rank, so they
    must be monotone in q and bounded by the exact max; the sum of count
    samples is bounded by [max, count * max]."""
    if not isinstance(lat, dict):
        fail(f"{where}: \"latency\" is not an object")
    phases = lat.get("phases")
    if not isinstance(phases, list):
        fail(f"{where}: latency.phases missing or not a list")
    seen = set()
    for p in phases:
        if not isinstance(p, dict) or not isinstance(p.get("phase"), str):
            fail(f"{where}: latency phase entry malformed: {p!r}")
        name = p["phase"]
        if name in seen:
            fail(f"{where}: latency phase {name!r} duplicated")
        seen.add(name)
        count = p.get("count")
        if not isinstance(count, int) or count < 1:
            fail(f"{where}: latency.{name}.count not a positive int: "
                 f"{count!r}")
        s = _num(p, "sum_s", where)
        p50 = _num(p, "p50_s", where)
        p95 = _num(p, "p95_s", where)
        p99 = _num(p, "p99_s", where)
        mx = _num(p, "max_s", where)
        if not (0 <= p50 <= p95 <= p99 <= mx):
            fail(f"{where}: latency.{name} quantiles out of order "
                 f"({p50}/{p95}/{p99}/{mx})")
        # FP slack: sum accumulates count rounded terms.
        if not (mx <= s * (1 + 1e-9) + 1e-12):
            fail(f"{where}: latency.{name} sum {s} below max {mx}")
        if s > count * mx * (1 + 1e-9) + 1e-12:
            fail(f"{where}: latency.{name} sum {s} exceeds "
                 f"count * max = {count * mx}")


def check_critical_path_block(cp, adapted, where) -> None:
    """Validate one record's "critical_path" block: every phase's cp_s is
    non-negative, and phases that only run inside an adaptation
    (extraction above all) are zero on non-adapting steps."""
    phases = cp.get("phases") if isinstance(cp, dict) else None
    if not isinstance(phases, list):
        fail(f"{where}: critical_path.phases is not a list")
    for p in phases:
        if not isinstance(p, dict) or not isinstance(p.get("phase"), str):
            fail(f"{where}: critical_path phase entry malformed: {p!r}")
        name = p["phase"]
        v = _num(p, "cp_s", where)
        if v < -1e-9:
            fail(f"{where}: critical_path.{name}.cp_s is negative: {v}")
        if adapted is False and name.startswith("amr.") and v > 1e-6:
            fail(f"{where}: critical_path.{name}.cp_s = {v} on a "
                 f"non-adapting step")


def check_latency_vs_critical_path(lat, cp, ranks, where) -> None:
    """A phase's latency sum is its critical-path mean times the ranks.
    Runs after check_latency_block, which validated the latency entries."""
    phases = cp.get("phases") if isinstance(cp, dict) else None
    if not isinstance(phases, list):
        fail(f"{where}: critical_path.phases is not a list")
    sums = {p["phase"]: p["sum_s"] for p in lat["phases"]}
    for p in phases:
        name = p.get("phase") if isinstance(p, dict) else None
        if name not in sums:
            continue
        s = sums[name]
        total = _num(p, "mean_s", where) * ranks
        if abs(s - total) > 1e-8 * max(abs(s), abs(total)):
            fail(f"{where}: latency.{name} sum_s = {s} but critical_path "
                 f"mean_s * ranks = {total}")


def check_jsonl(path: str, min_records: int) -> None:
    try:
        with open(path, encoding="utf-8") as f:
            lines = [ln for ln in f.read().splitlines() if ln.strip()]
    except OSError as e:
        fail(f"cannot read {path}: {e}")

    if len(lines) < min_records:
        fail(f"{path}: expected >= {min_records} records, found {len(lines)}")

    prev_step, prev_time = None, None
    hwm_state = {}
    mem_records = 0
    cp_records = 0
    latency_records = 0
    for i, line in enumerate(lines, start=1):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{path}:{i}: not valid JSON: {e}")
        if not isinstance(rec, dict):
            fail(f"{path}:{i}: record is not a JSON object")
        for key in REQUIRED:
            if key not in rec:
                fail(f"{path}:{i}: missing required key \"{key}\"")
            v = rec[key]
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                fail(f"{path}:{i}: \"{key}\" is not numeric: {v!r}")
            if not math.isfinite(v):
                fail(f"{path}:{i}: \"{key}\" is not finite: {v!r}")
        if prev_step is not None and rec["step"] <= prev_step:
            fail(f"{path}:{i}: step {rec['step']} not strictly increasing "
                 f"(previous {prev_step})")
        if prev_time is not None and rec["time"] < prev_time:
            fail(f"{path}:{i}: time {rec['time']} decreased "
                 f"(previous {prev_time})")
        if rec["dt"] <= 0:
            fail(f"{path}:{i}: dt {rec['dt']} is not positive")
        per_level = rec.get("per_level")
        if per_level is not None:
            if (not isinstance(per_level, list)
                    or any(not isinstance(n, int) or n < 0
                           for n in per_level)):
                fail(f"{path}:{i}: \"per_level\" is not a list of "
                     f"non-negative ints")
            if sum(per_level) != rec["elements"]:
                fail(f"{path}:{i}: per_level sums to {sum(per_level)}, "
                     f"elements says {rec['elements']}")
        if "memory" in rec:
            check_memory_block(rec["memory"], f"{path}:{i}", hwm_state)
            mem_records += 1
        adapted = rec.get("adapted")
        if adapted is not None and not isinstance(adapted, bool):
            fail(f"{path}:{i}: \"adapted\" is not a bool: {adapted!r}")
        if "critical_path" in rec:
            check_critical_path_block(rec["critical_path"], adapted,
                                      f"{path}:{i}")
            cp_records += 1
        if "latency" in rec:
            check_latency_block(rec["latency"], f"{path}:{i}")
            if "critical_path" in rec:
                check_latency_vs_critical_path(
                    rec["latency"], rec["critical_path"],
                    _num(rec, "ranks", f"{path}:{i}"), f"{path}:{i}")
            latency_records += 1
        prev_step, prev_time = rec["step"], rec["time"]

    print(f"check_telemetry: OK: {len(lines)} records in {path}, "
          f"steps {lines and json.loads(lines[0])['step']}..{prev_step}, "
          f"{mem_records} with memory blocks, "
          f"{cp_records} with critical_path blocks, "
          f"{latency_records} with latency blocks")


def check_bundle(dump_dir: str) -> None:
    if not os.path.isdir(dump_dir):
        fail(f"dump dir {dump_dir} does not exist")

    reason = os.path.join(dump_dir, "reason.txt")
    try:
        with open(reason, encoding="utf-8") as f:
            text = f.read().strip()
    except OSError as e:
        fail(f"cannot read {reason}: {e}")
    if not text:
        fail(f"{reason} is empty")

    for name in ("trace.json", "counters.json", "phases.json",
                 "residuals.json", "memory.json"):
        path = os.path.join(dump_dir, name)
        try:
            with open(path, encoding="utf-8") as f:
                json.load(f)
        except OSError as e:
            fail(f"cannot read {path}: {e}")
        except json.JSONDecodeError as e:
            fail(f"{path} is not valid JSON: {e}")

    tail = os.path.join(dump_dir, "telemetry_tail.jsonl")
    try:
        with open(tail, encoding="utf-8") as f:
            tail_lines = [ln for ln in f.read().splitlines() if ln.strip()]
    except OSError as e:
        fail(f"cannot read {tail}: {e}")
    for i, line in enumerate(tail_lines, start=1):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{tail}:{i}: not valid JSON: {e}")
        if not isinstance(rec, dict):
            fail(f"{tail}:{i}: record is not a JSON object")

    print(f"check_telemetry: OK: bundle in {dump_dir} "
          f"(reason: {text.splitlines()[0]!r}, "
          f"{len(tail_lines)} telemetry tail records)")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("jsonl", nargs="?", help="telemetry JSONL stream")
    ap.add_argument("--min-records", type=int, default=1,
                    help="minimum number of JSONL records expected")
    ap.add_argument("--dump-dir",
                    help="validate a flight-recorder bundle directory")
    args = ap.parse_args()

    if not args.jsonl and not args.dump_dir:
        fail("nothing to check: pass a JSONL file and/or --dump-dir")
    if args.jsonl:
        check_jsonl(args.jsonl, args.min_records)
    if args.dump_dir:
        check_bundle(args.dump_dir)


if __name__ == "__main__":
    main()
