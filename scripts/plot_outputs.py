#!/usr/bin/env python3
"""Plot the CSV snapshots written by the examples, or the per-step
wait-state / critical-path time-series from a telemetry JSONL stream.

Usage:
  python3 scripts/plot_outputs.py mantle_slice_2.csv      # x-z temperature slice
  python3 scripts/plot_outputs.py sphere_front_1.csv      # 3D scatter of the front
  python3 scripts/plot_outputs.py alps_telemetry.jsonl    # analysis time-series
  python3 scripts/plot_outputs.py run_dir/                # every *.jsonl inside

Requires matplotlib. The examples write these files into the current
working directory:
  mantle_slice_<n>.csv   columns x,z,T,eta   (examples/mantle_convection)
  sphere_front_<n>.csv   columns x,y,z,c     (examples/spherical_advection)

Telemetry mode reads the JSONL written with ALPS_TELEMETRY=1 (rhea runs
embed "critical_path" and "wait_states" blocks when ALPS_ANALYSIS is on,
the default) and renders one PNG per input file: per-phase critical-path
imbalance over steps on top, stacked wait-state buckets (late-sender /
transfer / collective) per phase over steps below.

Records with a "memory" block (ALPS_MEM on, the default) additionally get
a <base>_memory.png: per-subsystem accounted bytes stacked over steps on
top, accounted total / HWM and RSS / RSS-HWM time-series below.

Records with a "critical_path" block additionally get a <base>_amr.png:
the slowest-rank seconds of the AMR cycle phases (mark / coarsen+refine /
balance / partition / extract / interpolate / transfer) stacked per step
on top, and the AMR share of the step's solver time below (adaptation
steps marked).

Records with a "latency" block (the per-step cross-rank histogram
quantiles, DESIGN.md section 14) additionally get a <base>_latency.png:
per-phase p50 / p95 / p99 duration time-series over steps, log-scaled,
one subplot column of the busiest phases.
"""

import csv
import json
import os
import sys


def load(path):
    with open(path) as f:
        reader = csv.reader(f)
        header = next(reader)
        cols = {name: [] for name in header}
        for row in reader:
            for name, val in zip(header, row):
                cols[name].append(float(val))
    return cols


def load_telemetry(path):
    """Per-step analysis series: (steps, {phase: [imbalance]},
    {phase: {bucket: [seconds]}}). Missing phases carry 0 for that step."""
    steps = []
    imb = {}
    waits = {}
    buckets = ("late_sender_s", "transfer_s", "collective_s")
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if "step" not in rec or "critical_path" not in rec:
                continue
            steps.append(rec["step"])
            n = len(steps)
            for ph in rec["critical_path"].get("phases", []):
                series = imb.setdefault(ph["phase"], [])
                series.extend([1.0] * (n - 1 - len(series)))
                series.append(ph["imbalance"])
            for ph in rec.get("wait_states", {}).get("phases", []):
                per = waits.setdefault(ph["phase"],
                                       {b: [] for b in buckets})
                for b in buckets:
                    per[b].extend([0.0] * (n - 1 - len(per[b])))
                    per[b].append(ph.get(b, 0.0))
    # pad trailing steps where a phase went missing
    for series in imb.values():
        series.extend([1.0] * (len(steps) - len(series)))
    for per in waits.values():
        for b in buckets:
            per[b].extend([0.0] * (len(steps) - len(per[b])))
    return steps, imb, waits


def plot_telemetry(path):
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    steps, imb, waits = load_telemetry(path)
    if not steps:
        print(f"skip {path}: no analyzed step records")
        return None

    fig, (ax1, ax2) = plt.subplots(2, 1, figsize=(10, 8), sharex=True)
    for phase, series in sorted(imb.items()):
        ax1.plot(steps, series, marker=".", label=phase)
    ax1.set_ylabel("critical-path imbalance (max/mean)")
    ax1.set_title(os.path.basename(path))
    ax1.axhline(1.0, color="grey", lw=0.5)
    if imb:
        ax1.legend(fontsize=7, ncol=2)

    # one stacked band per phase: total blocked time split into buckets
    labels = {"late_sender_s": "late sender", "transfer_s": "transfer",
              "collective_s": "collective"}
    plotted = False
    for phase, per in sorted(waits.items()):
        total = [sum(per[b][i] for b in per) for i in range(len(steps))]
        if max(total, default=0.0) <= 0.0:
            continue
        bottom = [0.0] * len(steps)
        for b in ("late_sender_s", "transfer_s", "collective_s"):
            top = [bottom[i] + per[b][i] for i in range(len(steps))]
            ax2.fill_between(steps, bottom, top, alpha=0.5,
                             label=f"{phase}: {labels[b]}")
            bottom = top
        plotted = True
    ax2.set_xlabel("step")
    ax2.set_ylabel("blocked time per step [s]")
    if plotted:
        ax2.legend(fontsize=7, ncol=2)

    out = path.rsplit(".", 1)[0] + ".png"
    fig.tight_layout()
    fig.savefig(out, dpi=130)
    plt.close(fig)
    print(f"wrote {out}")
    return out


def load_memory(path):
    """Per-step memory series: (steps, {subsystem: [bytes]}, series dict
    with accounted/hwm/rss/rss_hwm lists; None entries where absent)."""
    steps = []
    subs = {}
    series = {"accounted": [], "acc_hwm": [], "rss": [], "rss_hwm": []}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            mem = rec.get("memory")
            if "step" not in rec or not isinstance(mem, dict) \
                    or not mem.get("available"):
                continue
            steps.append(rec["step"])
            n = len(steps)
            for s in mem.get("subsystems", []):
                col = subs.setdefault(s["name"], [])
                col.extend([0] * (n - 1 - len(col)))
                col.append(s.get("bytes", 0))
            acc = mem.get("accounted", {})
            series["accounted"].append(acc.get("total_bytes"))
            series["acc_hwm"].append(acc.get("hwm_bytes"))
            rss = mem.get("rss", {})
            ok = rss.get("available")
            series["rss"].append(rss.get("max_bytes") if ok else None)
            series["rss_hwm"].append(rss.get("hwm_bytes") if ok else None)
    for col in subs.values():
        col.extend([0] * (len(steps) - len(col)))
    return steps, subs, series


def plot_memory(path):
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    steps, subs, series = load_memory(path)
    if not steps:
        print(f"skip {path}: no memory records")
        return None

    mib = 1.0 / (1 << 20)
    fig, (ax1, ax2) = plt.subplots(2, 1, figsize=(10, 8), sharex=True)
    bottom = [0.0] * len(steps)
    for name, col in sorted(subs.items(),
                            key=lambda kv: -max(kv[1], default=0)):
        top = [bottom[i] + col[i] * mib for i in range(len(steps))]
        ax1.fill_between(steps, bottom, top, alpha=0.6, label=name)
        bottom = top
    ax1.set_ylabel("accounted bytes per subsystem [MiB]")
    ax1.set_title(os.path.basename(path))
    if subs:
        ax1.legend(fontsize=7, ncol=2)

    styles = {"accounted": ("accounted total", "-"),
              "acc_hwm": ("accounted HWM", "--"),
              "rss": ("RSS (max rank)", "-"),
              "rss_hwm": ("RSS HWM", "--")}
    for key, (label, ls) in styles.items():
        pts = [(s, v * mib) for s, v in zip(steps, series[key])
               if isinstance(v, (int, float))]
        if pts:
            ax2.plot([p[0] for p in pts], [p[1] for p in pts],
                     ls, marker=".", label=label)
    ax2.set_xlabel("step")
    ax2.set_ylabel("bytes [MiB]")
    ax2.legend(fontsize=8)

    out = path.rsplit(".", 1)[0] + "_memory.png"
    fig.tight_layout()
    fig.savefig(out, dpi=130)
    plt.close(fig)
    print(f"wrote {out}")
    return out


AMR_PHASES = ["amr.mark_elements", "amr.coarsen_refine", "amr.balance",
              "amr.partition", "amr.extract_mesh", "amr.interpolate_fields",
              "amr.transfer_fields"]
# The rest of a step's time: energy and the Stokes solve (amg.apply runs
# inside stokes.minres).
SOLVE_PHASES = ["energy.time_integration", "stokes.assemble", "amg.setup",
                "stokes.minres"]


def load_amr(path):
    """Per-step AMR timing series from "critical_path" blocks (cp_s, the
    slowest rank's seconds): (steps, {phase: [seconds]}, [amr share of
    step], [adapted flags]). The block lists a step's largest phases
    only; a phase it leaves out counts as 0 seconds."""
    steps = []
    phases = {ph: [] for ph in AMR_PHASES}
    share = []
    adapted = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            cp = rec.get("critical_path")
            if "step" not in rec or not isinstance(cp, dict):
                continue
            cp_s = {p.get("phase"): p.get("cp_s", 0.0)
                    for p in cp.get("phases", []) if isinstance(p, dict)}
            steps.append(rec["step"])
            amr = 0.0
            for ph in AMR_PHASES:
                v = cp_s.get(ph, 0.0)
                phases[ph].append(v)
                amr += v
            total = amr + sum(cp_s.get(ph, 0.0) for ph in SOLVE_PHASES)
            share.append(amr / total if total > 0 else 0.0)
            adapted.append(bool(rec.get("adapted")))
    return steps, phases, share, adapted


def plot_amr(path):
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    steps, phases, share, adapted = load_amr(path)
    if not steps:
        print(f"skip {path}: no critical_path records")
        return None

    fig, (ax1, ax2) = plt.subplots(2, 1, figsize=(10, 8), sharex=True)
    bottom = [0.0] * len(steps)
    for ph in AMR_PHASES:
        col = phases[ph]
        top = [bottom[i] + col[i] for i in range(len(steps))]
        ax1.fill_between(steps, bottom, top, alpha=0.6, label=ph, step="mid")
        bottom = top
    ax1.set_ylabel("AMR phase seconds per step")
    ax1.set_title(os.path.basename(path))
    ax1.legend(fontsize=7, ncol=2)

    ax2.plot(steps, [s * 100 for s in share], marker=".", lw=1)
    for s, sh, ad in zip(steps, share, adapted):
        if ad:
            ax2.axvline(s, color="grey", lw=0.5, alpha=0.5)
    ax2.set_xlabel("step")
    ax2.set_ylabel("AMR share of step time [%]")
    ax2.set_ylim(bottom=0)

    out = path.rsplit(".", 1)[0] + "_amr.png"
    fig.tight_layout()
    fig.savefig(out, dpi=130)
    plt.close(fig)
    print(f"wrote {out}")
    return out


def load_latency(path):
    """Per-step latency quantile series: (steps, {phase: {q: [seconds]}},
    {phase: total count}). Missing phases carry None for that step."""
    steps = []
    phases = {}
    counts = {}
    qkeys = ("p50_s", "p95_s", "p99_s")
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            lat = rec.get("latency")
            if "step" not in rec or not isinstance(lat, dict):
                continue
            steps.append(rec["step"])
            n = len(steps)
            for ph in lat.get("phases", []):
                per = phases.setdefault(ph["phase"],
                                        {q: [] for q in qkeys})
                for q in qkeys:
                    per[q].extend([None] * (n - 1 - len(per[q])))
                    per[q].append(ph.get(q))
                counts[ph["phase"]] = counts.get(ph["phase"], 0)                     + ph.get("count", 0)
    for per in phases.values():
        for q in per:
            per[q].extend([None] * (len(steps) - len(per[q])))
    return steps, phases, counts


def plot_latency(path, max_phases=8):
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    steps, phases, counts = load_latency(path)
    if not steps:
        print(f"skip {path}: no latency records")
        return None

    # The busiest phases tell the story; cap the subplot count.
    names = sorted(phases, key=lambda ph: -counts.get(ph, 0))[:max_phases]
    fig, axes = plt.subplots(len(names), 1, figsize=(10, 2.2 * len(names)),
                             sharex=True, squeeze=False)
    styles = {"p50_s": ("p50", "-"), "p95_s": ("p95", "--"),
              "p99_s": ("p99", ":")}
    for ax, name in zip((a for row in axes for a in row), names):
        per = phases[name]
        for q, (label, ls) in styles.items():
            pts = [(s, v) for s, v in zip(steps, per[q])
                   if isinstance(v, (int, float)) and v > 0]
            if pts:
                ax.plot([p[0] for p in pts], [p[1] for p in pts], ls,
                        marker=".", ms=3, lw=1, label=label)
        ax.set_yscale("log")
        ax.set_ylabel(f"{name}\n[s]", fontsize=8)
        ax.legend(fontsize=7, loc="upper right", ncol=3)
    axes[0][0].set_title(os.path.basename(path))
    axes[-1][0].set_xlabel("step")

    out = path.rsplit(".", 1)[0] + "_latency.png"
    fig.tight_layout()
    fig.savefig(out, dpi=130)
    plt.close(fig)
    print(f"wrote {out}")
    return out


def plot_csv(path, cols):
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    out = path.rsplit(".", 1)[0] + ".png"
    if "T" in cols:  # mantle slice
        fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(14, 4))
        s1 = ax1.scatter(cols["x"], cols["z"], c=cols["T"], s=12, cmap="inferno")
        fig.colorbar(s1, ax=ax1, label="T")
        ax1.set_title("temperature")
        import math

        logeta = [math.log10(v) for v in cols["eta"]]
        s2 = ax2.scatter(cols["x"], cols["z"], c=logeta, s=12, cmap="viridis")
        fig.colorbar(s2, ax=ax2, label="log10 eta")
        ax2.set_title("viscosity")
        for ax in (ax1, ax2):
            ax.set_xlabel("x")
            ax.set_ylabel("z")
    else:  # spherical front
        fig = plt.figure(figsize=(6, 6))
        ax = fig.add_subplot(projection="3d")
        s = ax.scatter(cols["x"], cols["y"], cols["z"], c=cols["c"], s=10,
                       cmap="inferno")
        fig.colorbar(s, ax=ax, label="c")
        ax.set_title("advected front on the spherical shell")
    fig.tight_layout()
    fig.savefig(out, dpi=130)
    print(f"wrote {out}")


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        return 1
    path = sys.argv[1]
    if os.path.isdir(path):
        made = 0
        for name in sorted(os.listdir(path)):
            if name.endswith(".jsonl"):
                full = os.path.join(path, name)
                if plot_telemetry(full):
                    made += 1
                if plot_memory(full):
                    made += 1
                if plot_amr(full):
                    made += 1
                if plot_latency(full):
                    made += 1
        if made == 0:
            print(f"no telemetry JSONL with analyzed steps under {path}")
            return 1
        return 0
    if path.endswith(".jsonl"):
        made = 1 if plot_telemetry(path) else 0
        made += 1 if plot_memory(path) else 0
        made += 1 if plot_amr(path) else 0
        made += 1 if plot_latency(path) else 0
        return 0 if made else 1
    plot_csv(path, load(path))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
