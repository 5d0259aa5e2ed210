#!/usr/bin/env python3
"""Render the perf trajectory accumulated by tools/run_perf_smoke.sh.

Reads bench_history/perf_trajectory.jsonl (one perf_smoke record per line)
and prints, per metric, an ASCII sparkline over time plus the latest value
and the delta against the median of the preceding records — the same
median tools/bench_gate.py gates on.  Stdlib only.

Usage:
  tools/plot_perf_trajectory.py                          # default history
  tools/plot_perf_trajectory.py bench_history/perf_trajectory.jsonl
  tools/plot_perf_trajectory.py --metric sessions_per_sec_1t --width 72
"""

import argparse
import json
import sys

DEFAULT_HISTORY = "bench_history/perf_trajectory.jsonl"
# Scalar metrics worth a lane, in display order.
DEFAULT_METRICS = [
    "sessions_per_sec_1t",
    "sessions_per_sec_np",
    "metrics_overhead",
]
TICKS = " .:-=+*#%@"


def median(vals):
    s = sorted(vals)
    n = len(s)
    mid = n // 2
    if n % 2 == 1:
        return s[mid]
    return 0.5 * (s[mid - 1] + s[mid])


def load(path):
    rows = []
    try:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(row, dict):
                    rows.append(row)
    except OSError as e:
        sys.exit("plot_perf_trajectory: cannot read %s: %s" % (path, e))
    return rows


def series(rows, metric):
    """[(date, value)] for rows that carry the metric (dotted path ok)."""
    out = []
    parts = metric.split(".")
    for row in rows:
        value = row
        for p in parts:
            value = value.get(p) if isinstance(value, dict) else None
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out.append((row.get("date", "?"), float(value)))
    return out


def sparkline(values, width):
    if len(values) > width:
        values = values[-width:]
    lo, hi = min(values), max(values)
    if hi <= lo:
        return TICKS[len(TICKS) // 2] * len(values)
    scale = (len(TICKS) - 1) / (hi - lo)
    return "".join(TICKS[int((v - lo) * scale)] for v in values)


def lane(rows, metric, width):
    pts = series(rows, metric)
    if not pts:
        return "%-24s (no data)" % metric
    values = [v for _, v in pts]
    latest = values[-1]
    line = "%-24s %s" % (metric, sparkline(values, width))
    line += "  latest=%.4g" % latest
    if len(values) >= 2:
        base = median(values[:-1])
        if base != 0:
            line += "  vs median %+.1f%%" % (100.0 * (latest - base) / base)
    line += "  (n=%d)" % len(values)
    return line


def ffct_metrics(rows):
    """Every ffct_ms.<scheme> path present anywhere in the history."""
    names = []
    for row in rows:
        ffct = row.get("ffct_ms")
        if isinstance(ffct, dict):
            for scheme in ffct:
                name = "ffct_ms." + scheme
                if name not in names:
                    names.append(name)
    return names


def main():
    ap = argparse.ArgumentParser(description="ASCII perf-trajectory plot")
    ap.add_argument("history", nargs="?", default=DEFAULT_HISTORY)
    ap.add_argument("--metric", action="append",
                    help="plot only this metric (repeatable; dotted paths "
                    "like ffct_ms.Wira reach into nested objects)")
    ap.add_argument("--width", type=int, default=60,
                    help="max sparkline width (default %(default)s)")
    args = ap.parse_args()

    rows = load(args.history)
    if not rows:
        sys.exit("plot_perf_trajectory: no records in %s" % args.history)

    first = rows[0].get("date", "?")
    last = rows[-1].get("date", "?")
    print("%d record(s), %s .. %s" % (len(rows), first, last))
    metrics = args.metric or DEFAULT_METRICS + ffct_metrics(rows)
    for metric in metrics:
        print(lane(rows, metric, args.width))


if __name__ == "__main__":
    main()
