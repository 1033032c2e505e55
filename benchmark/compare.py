#!/usr/bin/env python3
"""Compare two result files of `benchmark/run.py --runs N --out FILE`.

  python3 benchmark/compare.py A.json B.json

A is the parent (or baseline), B the change. For each (workload, end-to-end
metric) it prints both medians and quartiles, the number of runs, the share
of seed-paired runs B won, and a verdict:

  improved    B wins at least 9 of 10 pairs (ties count for neither) and
              the medians differ by more than A's interquartile distance;
  unresolved  A's or B's spread (interquartile distance / median) exceeds
              the metric's bound, unless every run of B reads better than
              every run of A;
  worse       B's median is worse than A's by more than the bound;
  unchanged   otherwise (within bound).

Bounds and directions come from BENCHMARK.json. It also reports whether
the exact counts (elements, adaptations, solves, MINRES iterations) of
each (workload, seed) are identical. Exit code 1 when any verdict is
"worse" or "unresolved".
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, pairs, lower_better, bound):
    """The choosing-metrics rules for one (workload, metric)."""
    better = (lambda x, y: x < y) if lower_better else (lambda x, y: x > y)
    qa1, ma, qa3 = quartiles(a)
    qb1, mb, qb3 = quartiles(b)
    won = sum(1 for x, y in pairs if better(y, x))
    share = won / len(pairs) if pairs else 0.0
    if share >= 0.9 and abs(mb - ma) > qa3 - qa1:
        return "improved", share
    spread = max((qa3 - qa1) / ma if ma else 0.0, (qb3 - qb1) / mb if mb else 0.0)
    all_better = all(better(y, x) for x in a for y in b)
    if spread > bound and not all_better:
        return "unresolved", share
    worse_by = (mb - ma) / ma if lower_better else (ma - mb) / ma
    if worse_by > bound:
        return "worse", share
    return "unchanged", share


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(argv[1]) as f:
        runs_a = json.load(f)["runs"]
    with open(argv[2]) as f:
        runs_b = json.load(f)["runs"]

    index_b = {(r["workload"], r["seed"]): r for r in runs_b}
    workloads = list(dict.fromkeys(r["workload"] for r in runs_a))
    bad = 0
    print(f"{'workload':20s} {'metric':13s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'n':>5s} {'won':>5s}  verdict")
    for w in workloads:
        for m in spec["end_to_end"]:
            name = m["name"]
            ra = [r for r in runs_a if r["workload"] == w]
            a = [r["metrics"][name] for r in ra]
            b = [r["metrics"][name] for r in runs_b if r["workload"] == w]
            if not a or not b:
                continue
            pairs = [(r["metrics"][name], index_b[(w, r["seed"])]["metrics"][name])
                     for r in ra if (w, r["seed"]) in index_b]
            v, share = verdict(a, b, pairs, m["better"] == "lower", m["bound"])
            bad += v in ("worse", "unresolved")
            qa, qb = quartiles(a), quartiles(b)
            print(f"{w:20s} {name:13s} "
                  f"{qa[1]:10.4g} [{qa[0]:8.4g}, {qa[2]:8.4g}] "
                  f"{qb[1]:10.4g} [{qb[0]:8.4g}, {qb[2]:8.4g}] "
                  f"{len(a):>2d}/{len(b):<2d} {share:5.0%}  {v} "
                  f"(bound {m['bound']:.0%}, {m['unit']})")
        failed = [sum(r["failed"] for r in runs if r["workload"] == w)
                  for runs in (runs_a, runs_b)]
        same = all(r["counts"] == index_b[(w, r["seed"])]["counts"]
                   for r in runs_a if r["workload"] == w and (w, r["seed"]) in index_b)
        print(f"{w:20s} failed operations A {failed[0]}, B {failed[1]}; exact "
              f"counts {'identical' if same else 'DIFFER'} per seed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
