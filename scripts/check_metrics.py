#!/usr/bin/env python3
"""Scrape and validate the live obs::serve metrics endpoint.

Launches rhea_main with ALPS_METRICS_PORT=0 (ephemeral port, parsed from
the "metrics: serving on port N" stdout line) and, while the run is still
stepping, asserts:

  * /metrics parses as Prometheus text exposition: every non-comment line
    is `name[{labels}] value`, every metric name is preceded by a # TYPE,
    gauge values are finite,
  * the alps_latency_seconds histogram exposes one series per histogram
    (label "phase") with cumulative (monotone non-decreasing) bucket
    counts per series, a closing +Inf bucket equal to _count, and _sum /
    _count present — including series for the "fem.apply" and
    "amg.vcycle" latency histograms, which are not phases (the series
    start at the end of setup, and the driver's first step solves no
    Stokes system, so "amg.vcycle" is required once the step counter has
    moved past the first scrape),
  * alps_step increases monotonically across two scrapes,
  * /status is valid JSON whose eta_s and step_rate_per_s are finite
    (and positive) once the rate window has filled,
  * /healthz answers 200 while healthy.

With --nan, the run is started with nan_inject_step so the sentinels
trip; the script then polls /healthz until it observes the 503 (the
driver lingers for ALPS_METRICS_LINGER seconds before exiting 3 to make
this observable) and asserts the process exits with code 3.

Usage:
  check_metrics.py build/examples/rhea_main
  check_metrics.py build/examples/rhea_main --nan
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

METRIC_LINE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")


def fail(msg: str) -> None:
    print(f"check_metrics: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def get(port: int, path: str, timeout: float = 5.0) -> tuple[int, str]:
    try:
        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}{path}", timeout=timeout) as r:
            return r.status, r.read().decode()
    except urllib.error.HTTPError as e:
        return e.code, e.read().decode()


def parse_exposition(text: str):
    """Parse Prometheus text exposition; returns {series: value} with the
    full name{labels} as the key, failing on any malformed line."""
    typed = set()
    series = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            # Arbitrary comments are legal; HELP/TYPE must be well-formed.
            if line.startswith(("# HELP", "# TYPE")):
                m = re.match(
                    r"^# (HELP|TYPE) ([a-zA-Z_:][a-zA-Z0-9_:]*) ", line)
                if not m:
                    fail(f"/metrics:{lineno}: malformed {line.split()[1]}: "
                         f"{line!r}")
                if m.group(1) == "TYPE":
                    typed.add(m.group(2))
            continue
        m = METRIC_LINE.match(line)
        if not m:
            fail(f"/metrics:{lineno}: malformed sample line: {line!r}")
        name, labels, value = m.group(1), m.group(2) or "", m.group(3)
        try:
            v = float(value)
        except ValueError:
            fail(f"/metrics:{lineno}: non-numeric value: {line!r}")
        if not math.isfinite(v):
            fail(f"/metrics:{lineno}: non-finite value: {line!r}")
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        if name not in typed and base not in typed:
            fail(f"/metrics:{lineno}: {name} has no preceding # TYPE")
        series[name + labels] = v
    return series


def check_histograms(series, required_phases) -> None:
    """Per-phase bucket series must be cumulative, close with +Inf equal
    to _count, and carry _sum; the required phases must be present."""
    by_phase = {}
    for key, v in series.items():
        m = re.match(
            r'^alps_latency_seconds_bucket\{phase="([^"]+)",le="([^"]+)"\}$',
            key)
        if m:
            by_phase.setdefault(m.group(1), []).append((m.group(2), v))
    for phase in required_phases:
        if phase not in by_phase:
            fail(f"no alps_latency_seconds series for phase {phase!r} "
                 f"(have {sorted(by_phase)})")
    for phase, buckets in by_phase.items():
        inf = [v for le, v in buckets if le == "+Inf"]
        if len(inf) != 1:
            fail(f"phase {phase!r}: expected exactly one +Inf bucket")
        finite = [(float(le), v) for le, v in buckets if le != "+Inf"]
        if not finite:
            fail(f"phase {phase!r}: no finite buckets")
        finite.sort()
        prev = 0.0
        for le, v in finite:
            if v < prev:
                fail(f"phase {phase!r}: bucket le={le} count {v} below "
                     f"previous {prev} (not cumulative)")
            prev = v
        if inf[0] < prev:
            fail(f"phase {phase!r}: +Inf bucket {inf[0]} below last "
                 f"finite bucket {prev}")
        count = series.get(f'alps_latency_seconds_count{{phase="{phase}"}}')
        if count is None:
            fail(f"phase {phase!r}: missing _count")
        if count != inf[0]:
            fail(f"phase {phase!r}: +Inf bucket {inf[0]} != _count {count}")
        total = series.get(f'alps_latency_seconds_sum{{phase="{phase}"}}')
        if total is None or total < 0:
            fail(f"phase {phase!r}: missing or negative _sum: {total}")


def wait_for_port(proc) -> int:
    for line in proc.stdout:
        sys.stdout.write(line)
        m = re.search(r"metrics: serving on port (\d+)", line)
        if m:
            return int(m.group(1))
    fail("rhea_main exited without printing the serving-port line")


def scrape_until_step(port: int, deadline: float):
    """Poll /metrics until a snapshot with alps_step appears."""
    while time.time() < deadline:
        status, text = get(port, "/metrics")
        if status != 200:
            fail(f"/metrics returned {status}")
        # Before the first publish the endpoint serves a bare
        # "no snapshot published yet" stub; only full snapshots are held
        # to the exposition-format checks.
        if "\nalps_step " in text or text.startswith("alps_step "):
            return parse_exposition(text)
        time.sleep(0.2)
    fail("no snapshot published before the deadline")


def run_healthy(binary: str, ranks: int, steps: int) -> None:
    cfg = tempfile.NamedTemporaryFile(
        "w", suffix=".cfg", prefix="check_metrics_", delete=False)
    cfg.write(f"ranks = {ranks}\nsteps = {steps}\n"
              f"target_elements = 1500\n")
    cfg.close()
    env = dict(os.environ, ALPS_METRICS_PORT="0")
    proc = subprocess.Popen([binary, cfg.name], stdout=subprocess.PIPE,
                            text=True, env=env)
    try:
        port = wait_for_port(proc)
        deadline = time.time() + 120
        first = scrape_until_step(port, deadline)
        check_histograms(first, ["fem.apply"])
        step0 = first["alps_step"]
        if first.get("alps_up") != 1:
            fail(f"alps_up != 1: {first.get('alps_up')}")
        if first.get("alps_healthy") != 1:
            fail(f"alps_healthy != 1 on a healthy run")
        for g in ("alps_dofs", "alps_elements", "alps_ranks"):
            if first.get(g, 0) <= 0:
                fail(f"{g} not positive: {first.get(g)}")
        if first["alps_ranks"] != ranks:
            fail(f"alps_ranks {first['alps_ranks']} != {ranks}")

        status, body = get(port, "/healthz")
        if status != 200:
            fail(f"/healthz returned {status} on a healthy run")

        # The step counter must move between scrapes; wait for progress.
        step1 = step0
        while time.time() < deadline and step1 <= step0:
            time.sleep(0.3)
            later = scrape_until_step(port, deadline)
            step1 = later["alps_step"]
            if step1 < step0:
                fail(f"alps_step went backwards: {step0} -> {step1}")
        if step1 <= step0:
            fail(f"alps_step never advanced past {step0}")
        check_histograms(later, ["fem.apply", "amg.vcycle"])

        status, body = get(port, "/status")
        if status != 200:
            fail(f"/status returned {status}")
        st = json.loads(body)
        for key in ("step", "elements", "dofs", "eta_s",
                    "step_rate_per_s", "target_steps"):
            if key not in st:
                fail(f"/status missing {key!r}")
        # Two publishes have happened by now, so the rate window is live.
        for key in ("eta_s", "step_rate_per_s"):
            v = st[key]
            if v is None or not isinstance(v, (int, float)) \
                    or not math.isfinite(v) or v < 0:
                fail(f"/status {key} not a finite non-negative number: {v!r}")
        if st["target_steps"] != steps:
            fail(f"/status target_steps {st['target_steps']} != {steps}")
        if not st["healthy"]:
            fail("/status healthy is false on a healthy run")
    finally:
        rc = proc.wait(timeout=300)
        os.unlink(cfg.name)
    if rc != 0:
        fail(f"rhea_main exited with {rc}")
    print(f"check_metrics: OK: scraped live run on port {port}, "
          f"step {step0:g} -> {step1:g}, eta_s = {st['eta_s']:.3g}, "
          f"{sum(1 for k in first if k.startswith('alps_latency_seconds_count'))}"
          f" histogram phases")


def run_nan(binary: str, ranks: int) -> None:
    cfg = tempfile.NamedTemporaryFile(
        "w", suffix=".cfg", prefix="check_metrics_nan_", delete=False)
    cfg.write(f"ranks = {ranks}\nsteps = 10\ntarget_elements = 800\n"
              f"nan_inject_step = 3\n")
    cfg.close()
    dump = tempfile.mkdtemp(prefix="check_metrics_dump_")
    env = dict(os.environ, ALPS_METRICS_PORT="0", ALPS_METRICS_LINGER="6",
               ALPS_DUMP_DIR=dump)
    proc = subprocess.Popen([binary, cfg.name], stdout=subprocess.PIPE,
                            text=True, env=env)
    try:
        port = wait_for_port(proc)
        saw_503 = None
        deadline = time.time() + 120
        while time.time() < deadline and proc.poll() is None:
            try:
                status, body = get(port, "/healthz", timeout=2)
            except OSError:
                break  # server already gone: too late this poll
            if status == 503:
                saw_503 = body.strip()
                break
            if status != 200:
                fail(f"/healthz returned {status}")
            time.sleep(0.2)
        if saw_503 is None:
            fail("never observed /healthz 503 after NaN injection")
        if "unhealthy" not in saw_503:
            fail(f"503 body lacks a reason: {saw_503!r}")
    finally:
        rc = proc.wait(timeout=300)
        os.unlink(cfg.name)
    if rc != 3:
        fail(f"expected sentinel exit code 3, got {rc}")
    print(f"check_metrics: OK: /healthz flipped to 503 ({saw_503!r}) "
          f"and the driver exited 3")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("binary", help="path to rhea_main")
    ap.add_argument("--ranks", type=int, default=4)
    ap.add_argument("--steps", type=int, default=10)
    ap.add_argument("--nan", action="store_true",
                    help="NaN-injection mode: assert /healthz goes 503")
    args = ap.parse_args()
    if args.nan:
        run_nan(args.binary, args.ranks)
    else:
        run_healthy(args.binary, args.ranks, args.steps)


if __name__ == "__main__":
    main()
