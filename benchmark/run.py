#!/usr/bin/env python3
"""Timestep benchmark of rhea::Simulation: build, run, check, report.

  python3 benchmark/run.py                  all four workloads, untraced:
                                            end-to-end metrics
  python3 benchmark/run.py --trace          all four, traced: per-layer ladder
  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
                                            one run; the last stdout line is
                                            one JSON object (correct,
                                            attempted, failed, metrics)
  python3 benchmark/run.py --runs 10 --out A.json
                                            10 seeds per workload, saved for
                                            benchmark/compare.py
  python3 benchmark/run.py --quick          self-test (< 20 s)

The checkout's library is compiled from source into build-benchmark/ with
benchmark/CMakeLists.txt; each workload runs in its own bench_step process
with every ALPS_* variable removed from its environment.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-benchmark")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
REFERENCE = os.path.join(HERE, "reference.json")

# Timed-loop seconds of one episode on the reference host (README); a run
# of --seconds S times as many whole episodes as fit in S, at least one.
NOMINAL_LOOP_S = {
    "convection": 8.2,
    "convection_p1": 21.0,
    "amr_churn": 21.0,
    "advection_monitored": 14.7,
}
WORKLOADS = list(NOMINAL_LOOP_S)
# A driver run must end within 180 s, or 900 s when it builds first.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


class BenchError(Exception):
    pass


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build(binary=None):
    """Configure and build bench_step; returns the binary's path."""
    if binary:
        return binary
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + gen,
        ["cmake", "--build", BUILD, "-j", "4", "--target", "bench_step"],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=BUILD_TIMEOUT_S).returncode != 0:
                raise BenchError(f"build failed: {' '.join(cmd)} (log: {log_path})")
    return os.path.join(BUILD, "bench_step")


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("ALPS_")}


def bench_step(binary, workload, seed, episodes, trace, quick=False,
               stream_mib=None, tag="run"):
    """Run one bench_step process and return its parsed result."""
    out_dir = os.path.join(BUILD, "runs")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{workload}_s{seed}_{tag}")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--episodes", str(episodes), "--out", stem + ".json",
           "--trace-out", stem + "_trace.json",
           "--telemetry-out", stem + "_telemetry.jsonl"]
    if trace:
        cmd.append("--trace")
    if quick:
        cmd.append("--quick")
    if stream_mib:
        cmd += ["--stream-mib", str(stream_mib)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, env=clean_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"bench_step {workload} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    result = load_json(stem + ".json")
    result["trace_file"] = stem + "_trace.json" if trace else None
    result["wall_s"] = time.monotonic() - t0
    return result


def end_to_end(result):
    eps = result["episodes"]
    steps = [s for e in eps for s in e["step_s"]]
    return {
        "step_s": statistics.median(e["loop_s"] / result["steps"] for e in eps),
        # Linear interpolation between order statistics (numpy's default).
        "step_p90_s": statistics.quantiles(steps, n=10, method="inclusive")[-1],
        "setup_s": statistics.median(result["setup_s"]),
        "peak_rss_mib": result["peak_rss_mib"],
    }


def exact_counts(result):
    """Counts that must repeat exactly for the same workload and seed."""
    e = result["episodes"][0]
    counts = {k: e[k] for k in ("elements", "adaptations", "solves",
                                "minres_iterations")}
    for k, v in result["layers"].items():
        if k.startswith("par.") and k.endswith("_per_step"):
            counts[k] = v
    return counts


def reference_checks(result):
    """Seed-1 reference values (benchmark/reference.json), full size only.
    Returns a list of (ok, message)."""
    if result["quick"] or result["seed"] != 1:
        return []
    ref = load_json(REFERENCE)["seed1"].get(result["workload"], {})
    e = result["episodes"][0]
    checks = []
    for key, want in ref.items():
        got = e[key]
        ok = abs(got - want["value"]) <= want["rel_tol"] * abs(want["value"])
        checks.append((ok, f"{key} = {got!r}, reference {want['value']!r} "
                           f"± {want['rel_tol']:.0%}"))
    return checks


def consistency_checks(result):
    """Episodes of one run are the same computation: identical counts."""
    first = result["episodes"][0]
    return [(all(e[k] == first[k] for k in ("elements", "minres_iterations"))
             , "episodes disagree on elements or MINRES iterations")
            for e in result["episodes"][1:]]


def evaluate(result, spec, trace):
    """Metrics by name plus the operation counts for the driver line."""
    checks = reference_checks(result) + consistency_checks(result)
    attempted = result["attempted"] + len(checks)
    failed = result["failed"] + sum(1 for ok, _ in checks if not ok)
    messages = result["failures"] + [m for ok, m in checks if not ok]
    if trace:
        values = result["layers"]
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    else:
        values = end_to_end(result)
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    missing = [n for n, _ in names if n not in values or values[n] is None]
    if missing:
        raise BenchError(f"bench_step did not report {missing}")
    metrics = {n: {"value": values[n], "unit": u} for n, u in names}
    return metrics, attempted, failed, messages


def print_metrics(workload, result, metrics):
    steps = sum(len(e["step_s"]) for e in result["episodes"])
    print(f"[{workload}] seed {result['seed']}, {result['ranks']} ranks, "
          f"{result['steps']} steps x {len(result['episodes'])} episode(s), "
          f"{steps} step samples, {len(result['setup_s'])} setups, final "
          f"elements {result['episodes'][0]['elements']}, process wall "
          f"{result['wall_s']:.1f} s")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    if result.get("reference_solver") and "stokes.solve_s" in metrics:
        print("  (stokes/la/fem/amg rows: reference convection problem at 1/8 "
              "target; this workload has no Stokes solve)")
    if "host.stream_gbs" in metrics:
        print(f"  (stream triad: 3 arrays x {result['stream_mib']} MiB, "
              "L3 300 MiB)")


def run_one(binary, spec, workload, seed, seconds, trace):
    episodes = max(1, int(seconds // NOMINAL_LOOP_S[workload]))
    result = bench_step(binary, workload, seed, episodes, trace)
    metrics, attempted, failed, messages = evaluate(result, spec, trace)
    print_metrics(workload, result, metrics)
    print(f"  {'fail_frac':28s} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted} operations)")
    for m in messages:
        print(f"  FAILED: {m}")
    return result, metrics, attempted, failed


def cross_check(results):
    """convection and convection_p1 solve the same problem at one seed."""
    a, b = results.get("convection"), results.get("convection_p1")
    if not a or not b or a["seed"] != b["seed"]:
        return []
    ea, eb = a["episodes"][0], b["episodes"][0]
    return [
        (ea["elements"] == eb["elements"],
         f"final elements P=4 {ea['elements']}, P=1 {eb['elements']} "
         "(must be equal)"),
        (abs(ea["v_rms"] - eb["v_rms"]) <= 0.01 * abs(eb["v_rms"]),
         f"v_rms P=4 {ea['v_rms']:.6g}, P=1 {eb['v_rms']:.6g} "
         "(must agree within 1%)"),
    ]


def check_trace(path):
    """Spans nest, self times are >= 0, rhea spans cover >= 95% of the
    traced step wall (probes excluded). Returns the coverage."""
    events = load_json(path)["traceEvents"]
    by_id = {(e["tid"], e["args"]["id"]): e for e in events}
    eps = 1e-3  # microseconds
    for e in events:
        if e["args"]["self_us"] < -eps:
            raise BenchError(f"negative self time in {e['name']}")
        parent = e["args"]["parent"]
        if parent >= 0:
            p = by_id[(e["tid"], parent)]
            if e["ts"] < p["ts"] - eps or \
                    e["ts"] + e["dur"] > p["ts"] + p["dur"] + eps:
                raise BenchError(f"{e['name']} not nested in {p['name']}")
    wall = rhea = 0.0
    for e in events:
        if e["name"] != "step":
            continue
        wall += e["dur"]
        for c in events:
            if c["tid"] == e["tid"] and c["args"]["parent"] == e["args"]["id"]:
                if c["name"].startswith("probe."):
                    wall -= c["dur"]
                elif c["name"].startswith("rhea."):
                    rhea += c["dur"]
    coverage = rhea / wall if wall > 0 else 0.0
    if coverage < 0.95:
        raise BenchError(f"rhea spans cover {coverage:.1%} of step wall")
    return coverage


def quick(binary, spec):
    """Each workload twice at 1/8 target and 4 steps, traced."""
    t0 = time.time()
    for w in WORKLOADS:
        runs = [bench_step(binary, w, 1, 1, True, quick=True, stream_mib=64,
                           tag=f"quick{i}") for i in range(2)]
        for r in runs:
            for trace in (False, True):
                metrics, _, failed, messages = evaluate(r, spec, trace)
                for name, m in metrics.items():
                    if not isinstance(m["value"], (int, float)) or not m["unit"]:
                        raise BenchError(f"{w}: {name} has no value or unit")
                if failed:
                    raise BenchError(f"{w}: failed checks {messages}")
            coverage = check_trace(r["trace_file"])
        a, b = (exact_counts(r) for r in runs)
        if a != b:
            diff = {k: (a[k], b.get(k)) for k in a if a[k] != b.get(k)}
            raise BenchError(f"{w}: exact counts differ between runs: {diff}")
        print(f"quick {w}: ok ({len(a)} exact counts repeat, rhea spans "
              f"cover {coverage:.1%} of traced step wall)")
    print(f"quick self-test passed in {time.time() - t0:.1f} s")


def multi(binary, spec, runs, seconds, out):
    """`runs` seeds per workload, untraced, saved for compare.py. Returns
    the number of failed operations."""
    record = {"runs": []}
    for seed in range(1, runs + 1):
        for w in WORKLOADS:
            result, metrics, attempted, failed = run_one(
                binary, spec, w, seed, seconds, False)
            record["runs"].append({
                "workload": w, "seed": seed,
                "metrics": {k: v["value"] for k, v in metrics.items()},
                "attempted": attempted, "failed": failed,
                "counts": exact_counts(result), "wall_s": result["wall_s"],
            })
    with open(out, "w") as f:
        json.dump(record, f, indent=1)
    print(f"wrote {out}")
    return sum(r["failed"] for r in record["runs"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1))
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--runs", type=int, help="seeds 1..RUNS per workload")
    ap.add_argument("--out", help="result file of --runs "
                    "(default build-benchmark/runs.json)")
    ap.add_argument("--binary", help="use this bench_step, skip the build")
    args = ap.parse_args()

    try:
        spec = load_json(SPEC)
        seconds = args.seconds or spec["run_seconds"]
        binary = build(args.binary)
        if args.quick:
            quick(binary, spec)
            return 0
        if args.runs:
            out = args.out or os.path.join(BUILD, "runs.json")
            return 0 if multi(binary, spec, args.runs, seconds, out) == 0 else 1
        if args.workload:
            _, metrics, attempted, failed = run_one(
                binary, spec, args.workload, args.seed, seconds, args.trace)
            print(json.dumps({"correct": failed == 0, "attempted": attempted,
                              "failed": failed, "metrics": metrics}))
            return 0 if failed == 0 else 1
        results, failed = {}, 0
        for w in WORKLOADS:
            results[w], _, _, f = run_one(binary, spec, w, args.seed, seconds,
                                          args.trace)
            failed += f
        for ok, message in cross_check(results):
            print(("ok: " if ok else "FAILED: ") + message)
            failed += 0 if ok else 1
        return 0 if failed == 0 else 1
    except (BenchError, OSError, subprocess.SubprocessError, KeyError,
            ValueError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
