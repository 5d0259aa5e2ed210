#!/usr/bin/env python3
"""Reads the result files perfbench/run.py appends and judges them.

    python3 perfbench/compare.py spread RESULTS.jsonl
        Per workload and end-to-end metric: median over the runs, the
        quartile spread as a share of the median, and that spread against
        the metric's bound in BENCHMARK.json.  Exit 1 if a spread (other
        than setup_s's) exceeds its bound.

    python3 perfbench/compare.py diff BASE.jsonl NEW.jsonl
        Per workload and metric: both medians and the change, flagged when
        NEW is worse than BASE by more than the bound.  Exit 1 on any such
        regression.

Results are comparable only from one host: both modes refuse (exit 2) when
the runs differ in nproc, CPU model, build type or compiler.  The source
revision may differ; that is what a diff compares.
"""

import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
HOST_KEYS = ("nproc", "cpu_model", "build_type", "compiler")


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def bounds():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {e["name"]: e for e in spec["end_to_end"]}


def same_host_or_exit(records):
    hosts = {tuple(r["host"].get(k) for k in HOST_KEYS) for r in records}
    if len(hosts) > 1:
        print("refusing to compare results from different hosts:",
              file=sys.stderr)
        for h in sorted(hosts, key=str):
            print("  " + ", ".join("%s=%s" % kv for kv in zip(HOST_KEYS, h)),
                  file=sys.stderr)
        sys.exit(2)


def values(records):
    """{(workload, metric): [value, ...]} over the untraced runs of the
    most common run length (self-test runs are much shorter)."""
    runs = [r for r in records if r["trace"] == 0]
    lengths = [r["seconds"] for r in runs]
    seconds = max(set(lengths), key=lengths.count) if lengths else None
    out = defaultdict(list)
    for r in runs:
        if r["seconds"] != seconds:
            continue
        for name, m in r["metrics"].items():
            out[(r["workload"], name)].append(m["value"])
    return out


def spread_share(v):
    if len(v) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(v, n=4)
    med = statistics.median(v)
    return (q3 - q1) / med if med else float("inf")


def spread(path):
    records = load(path)
    same_host_or_exit(records)
    spec = bounds()
    bad = False
    for (workload, name), v in sorted(values(records).items()):
        s = spread_share(v)
        bound = spec[name]["bound"]
        over = s > bound and name != "setup_s"
        bad |= over
        print("%-17s %-20s n=%-3d median=%-12.6g spread=%.4f bound=%.2f%s" %
              (workload, name, len(v), statistics.median(v), s, bound,
               "  OVER" if over else ("  (>1/3)" if s > bound / 3 else "")))
    return 1 if bad else 0


def diff(base_path, new_path):
    base, new = load(base_path), load(new_path)
    same_host_or_exit(base + new)
    spec = bounds()
    bv, nv = values(base), values(new)
    bad = False
    for key in sorted(set(bv) & set(nv)):
        workload, name = key
        b, n = statistics.median(bv[key]), statistics.median(nv[key])
        change = (n - b) / b if b else 0.0
        worse = change if spec[name]["better"] == "lower" else -change
        regressed = worse > spec[name]["bound"]
        bad |= regressed
        print("%-17s %-20s base=%-12.6g new=%-12.6g change=%+.4f%s" %
              (workload, name, b, n, change, "  REGRESSION" if regressed
               else ""))
    return 1 if bad else 0


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "spread":
        return spread(sys.argv[2])
    if len(sys.argv) == 4 and sys.argv[1] == "diff":
        return diff(sys.argv[2], sys.argv[3])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
