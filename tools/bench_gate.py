#!/usr/bin/env python3
"""Noise-aware perf/QoE regression gate over the perf trajectory.

Compares one bench/perf_smoke JSON (a BENCH_<date>.json file) against the
median of the last K comparable records in bench_history/
perf_trajectory.jsonl and exits non-zero when any guarded metric regressed
past its budget.  "Comparable" means same session count, seed, thread
count, worker-process count, hardware_concurrency and host CPU (family,
model, stepping and clock, as perf_smoke reads them from /proc/cpuinfo):
records from differently shaped runs or hosts are skipped (throughput is
not comparable across thread counts, core counts or CPU types), so
resizing the smoke run or moving it to another host never trips the
gate, it just restarts the history window.

Guarded metrics and their default budgets:

  sessions_per_sec_1t   relative, --budget-throughput (default 0.15):
  sessions_per_sec_nt   fail when current < median * (1 - budget).
  sessions_per_sec_np   Wall-clock throughput is the noisy one (shared
                        container, turbo states), hence the wide budget;
                        widen it with the flag if the host is noisier.
                        _np is the multiprocess (--procs) datapoint; it is
                        compared like the others when present in both the
                        run and the history (records predating it are
                        skipped with a note).

  ffct_ms.<scheme>      relative, --budget-ffct (default 0.02): fail when
                        current > median * (1 + budget).  The simulation
                        is deterministic for a fixed (sessions, seed), so
                        mean FFCT per scheme should be bit-identical run
                        to run; the 2% budget only absorbs histogram
                        requantization if bucket shapes ever change.

  metrics_overhead      absolute, --budget-overhead (default 0.10): fail
                        when current > median + budget.  A ratio near 0;
                        relative budgets are meaningless for it.

  allocs_per_session    relative, --budget-allocs (default 0.10): fail
                        when current > median * (1 + budget).  Operator-new
                        calls per (session, scheme) run in the serial pass.
                        The count is deterministic for a fixed workload
                        (no wall-clock in it), so the 10% budget exists
                        only to absorb allocator-library or stdlib-version
                        shifts; any real hot-path regression (a per-packet
                        vector reappearing) moves it by far more.

Budgets adapt to the trajectory's own variance: for each metric the gate
computes the MAD (median absolute deviation) of the comparable history
window and uses max(flag budget, k * MAD / median) as the effective
relative budget (max(flag budget, k * MAD) for absolute metrics), with
--mad-k defaulting to 4.0.  The flag values above are *floors*: a noisy
host widens its own budgets instead of flapping the gate, while a tight
history keeps the documented defaults — budgets never shrink below them.

Directionality is enforced: improvements (faster, lower FFCT) never fail.
Metrics absent from history (e.g. ffct_ms before it was recorded) are
skipped with a note — the gate only compares what both sides have.

Exit codes: 0 pass (or insufficient history, with a warning), 1 regression,
2 usage/IO error.  Stdlib only.

Usage:
  tools/bench_gate.py BENCH_2026-08-06.json
  tools/bench_gate.py BENCH.json --history bench_history/perf_trajectory.jsonl
  tools/bench_gate.py --self-test
"""

import argparse
import io
import json
import os
import sys


GATED_THROUGHPUT = [
    "sessions_per_sec_1t",
    "sessions_per_sec_nt",
    "sessions_per_sec_np",
]

# Fields that must match for a history record to be comparable.
COMPARABILITY_KEY = ("sessions", "seed", "threads", "procs",
                     "hardware_concurrency", "cpu_family", "cpu_model",
                     "cpu_stepping", "cpu_mhz")


def median(vals):
    s = sorted(vals)
    n = len(s)
    if n == 0:
        raise ValueError("median of empty list")
    mid = n // 2
    if n % 2 == 1:
        return s[mid]
    return 0.5 * (s[mid - 1] + s[mid])


def mad(vals):
    """Median absolute deviation — the robust spread of the history window.

    Robustness matters here: one outlier record (a machine hiccup that
    still landed in the trajectory) must not inflate the budget the way it
    would inflate a standard deviation.
    """
    m = median(vals)
    return median([abs(v - m) for v in vals])


def effective_budget(floor, base_vals, mad_k, absolute):
    """max(floor, k*MAD) for absolute metrics, max(floor, k*MAD/|median|)
    for relative ones.  The flag-provided budget is a floor, never a cap."""
    spread = mad(base_vals)
    if absolute:
        return max(floor, mad_k * spread)
    baseline = median(base_vals)
    if baseline == 0:
        return floor
    return max(floor, mad_k * spread / abs(baseline))


def load_history(path):
    """Returns the list of parsed trajectory rows (bad lines skipped)."""
    rows = []
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
    return rows


def flatten_ffct(record):
    """{"ffct_ms.Wira": 138.0, ...} from a bench record (may be empty)."""
    out = {}
    ffct = record.get("ffct_ms")
    if isinstance(ffct, dict):
        for scheme, value in ffct.items():
            if isinstance(value, (int, float)):
                out["ffct_ms." + scheme] = float(value)
    return out


class Gate:
    """Collects per-metric verdicts; pass/fail decided at the end."""

    def __init__(self, out=sys.stdout):
        self.failures = []
        self.checks = 0
        self.out = out

    def note(self, msg):
        print("bench_gate: " + msg, file=self.out)

    def check(self, name, current, baseline, budget, kind):
        """kind: 'lower_fails' (throughput) or 'higher_fails' (latency).

        budget is relative unless kind ends with '_abs'.
        """
        self.checks += 1
        absolute = kind.endswith("_abs")
        direction = "lower_fails" if kind.startswith("lower") else "higher_fails"
        if absolute:
            if direction == "lower_fails":
                limit = baseline - budget
                bad = current < limit
            else:
                limit = baseline + budget
                bad = current > limit
        else:
            if direction == "lower_fails":
                limit = baseline * (1.0 - budget)
                bad = current < limit
            else:
                limit = baseline * (1.0 + budget)
                bad = current > limit
        verdict = "FAIL" if bad else "ok"
        self.note(
            "%-28s current=%-10.4g median=%-10.4g limit=%-10.4g %s"
            % (name, current, baseline, limit, verdict)
        )
        if bad:
            self.failures.append(name)

    def passed(self):
        return not self.failures


def run_gate(current, history, args, out=sys.stdout):
    """Returns process exit code (0 pass, 1 regression)."""
    gate = Gate(out)
    comparable = [
        r
        for r in history
        if all(r.get(k) == current.get(k) for k in COMPARABILITY_KEY)
    ]
    window = comparable[-args.window :]
    if len(window) < args.min_history:
        gate.note(
            "only %d comparable history record(s) (need %d) — passing "
            "without comparison" % (len(window), args.min_history)
        )
        return 0
    gate.note(
        "comparing against median of last %d comparable record(s)"
        % len(window)
    )

    def budget_for(name, floor, base, absolute=False):
        b = effective_budget(floor, base, args.mad_k, absolute)
        if b > floor:
            gate.note(
                "%-28s budget widened to %.3g (floor %.3g) by history "
                "variance" % (name, b, floor)
            )
        return b

    # On a single-core host the threaded/multiprocess passes measure
    # scheduler contention, not speedup: their sessions/sec is serial
    # throughput plus noise, so comparing it would gate on noise.  The
    # serial datapoint (sessions_per_sec_1t) is still gated.
    single_core = current.get("hardware_concurrency") == 1
    for name in GATED_THROUGHPUT:
        if single_core and name in ("sessions_per_sec_nt",
                                    "sessions_per_sec_np"):
            gate.note("%-28s skipped (single-core host: threaded speedup "
                      "is not meaningful)" % name)
            continue
        cur = current.get(name)
        base = [r[name] for r in window if isinstance(r.get(name), (int, float))]
        if not isinstance(cur, (int, float)) or not base:
            gate.note("%-28s skipped (absent from run or history)" % name)
            continue
        gate.check(name, float(cur), median(base),
                   budget_for(name, args.budget_throughput, base),
                   "lower_fails")

    cur_ffct = flatten_ffct(current)
    hist_ffct = [flatten_ffct(r) for r in window]
    for name in sorted(cur_ffct):
        base = [h[name] for h in hist_ffct if name in h]
        if not base:
            gate.note("%-28s skipped (absent from history)" % name)
            continue
        gate.check(name, cur_ffct[name], median(base),
                   budget_for(name, args.budget_ffct, base), "higher_fails")

    cur_allocs = current.get("allocs_per_session")
    base_allocs = [
        r["allocs_per_session"]
        for r in window
        if isinstance(r.get("allocs_per_session"), (int, float))
    ]
    if isinstance(cur_allocs, (int, float)) and base_allocs:
        gate.check("allocs_per_session", float(cur_allocs),
                   median(base_allocs),
                   budget_for("allocs_per_session", args.budget_allocs,
                              base_allocs), "higher_fails")
    else:
        gate.note("allocs_per_session           skipped (absent from run "
                  "or history)")

    name = "metrics_overhead"
    cur_ov = current.get(name)
    base_ov = [r[name] for r in window
               if isinstance(r.get(name), (int, float))]
    if isinstance(cur_ov, (int, float)) and base_ov:
        gate.check(name, float(cur_ov), median(base_ov),
                   budget_for(name, args.budget_overhead, base_ov,
                              absolute=True),
                   "higher_fails_abs")
    else:
        gate.note("%-28s skipped (absent from run or history)" % name)

    if gate.passed():
        gate.note("PASS (%d metric(s) checked)" % gate.checks)
        return 0
    gate.note("REGRESSION in: " + ", ".join(gate.failures))
    return 1


def self_test(args):
    """Synthetic-data checks of the gate logic itself (used as a ctest)."""

    def rec(sps=50.0, ffct=150.0, overhead=0.05, allocs=900.0,
            sessions=300, seed=1, cores=4):
        return {
            "sessions": sessions,
            "seed": seed,
            "threads": 4,
            "procs": 2,
            "hardware_concurrency": cores,
            "sessions_per_sec_1t": sps,
            "sessions_per_sec_nt": sps * 1.8,
            "sessions_per_sec_np": sps * 1.7,
            "metrics_overhead": overhead,
            "allocs_per_session": allocs,
            "ffct_ms": {"Baseline": ffct * 1.1, "Wira": ffct},
        }

    # Mild run-to-run jitter in the history; medians sit near the nominal.
    history = [rec(sps=50.0 + d, overhead=0.05 + d / 1000.0)
               for d in (-2.0, -1.0, 0.0, 1.0, 2.0)]
    # Pathological histories for the variance-derived budgets: a host with
    # wild throughput swings (MAD 10 around a median of 50) and one with a
    # jumpy overhead ratio (MAD 0.05 around 0.10).
    noisy_tp_history = [rec(sps=s) for s in (30.0, 40.0, 50.0, 60.0, 70.0)]
    noisy_ov_history = [rec(overhead=o)
                        for o in (0.01, 0.05, 0.10, 0.15, 0.20)]
    flat_history = [rec() for _ in range(5)]
    single_core_history = [rec(sps=50.0 + d, cores=1)
                           for d in (-2.0, -1.0, 0.0, 1.0, 2.0)]
    # (name, current, expected exit) — an optional 4th element substitutes
    # the history for that case, an optional 5th is a note the gate must
    # print.
    cases = [
        ("clean rerun passes", rec(), 0),
        ("20% sessions/sec regression fails", rec(sps=40.0), 1),
        ("small throughput jitter passes", rec(sps=46.0), 0),
        ("20% procs sessions/sec regression fails",
         {**rec(), "sessions_per_sec_np": 40.0 * 1.7}, 1),
        ("procs datapoint absent from run is skipped",
         {k: v for k, v in rec().items() if k != "sessions_per_sec_np"}, 0),
        ("throughput improvement passes", rec(sps=70.0), 0),
        ("5% mean FFCT regression fails", rec(ffct=157.5), 1),
        ("FFCT improvement passes", rec(ffct=120.0), 0),
        ("overhead above absolute budget fails", rec(overhead=0.2), 1),
        ("overhead within absolute budget passes", rec(overhead=0.12), 0),
        ("15% allocs/session regression fails", rec(allocs=1035.0), 1),
        ("allocs/session improvement passes", rec(allocs=150.0), 0),
        ("allocs absent from run is skipped",
         {k: v for k, v in rec().items() if k != "allocs_per_session"}, 0),
        ("different workload skips comparison", rec(sps=10.0, sessions=50), 0),
        ("scheme absent from history is skipped",
         {**rec(), "ffct_ms": {"Wira": 150.0, "NewScheme": 1e9}}, 0),
        ("history from another core count is skipped",
         rec(sps=10.0, cores=1), 0, None, "only 0 comparable"),
        ("history from another CPU model/clock is skipped",
         {**rec(sps=10.0), "cpu_model": "143", "cpu_mhz": "2000.000"}, 0,
         [{**r, "cpu_model": "85", "cpu_mhz": "2500.000"} for r in history],
         "only 0 comparable"),
        ("single-core host skips threaded speedup comparison",
         {**rec(cores=1), "sessions_per_sec_nt": 1.0,
          "sessions_per_sec_np": 1.0}, 0, single_core_history),
        ("single-core host still gates serial throughput",
         rec(sps=40.0, cores=1), 1, single_core_history),
        # Variance-derived budgets (median +/- k*MAD with the flag floors):
        ("noisy throughput history widens the relative budget",
         rec(sps=40.0), 0, noisy_tp_history),
        ("widened budget still catches a collapse",
         rec(sps=5.0), 1, noisy_tp_history),
        ("noisy overhead history widens the absolute budget",
         rec(overhead=0.25), 0, noisy_ov_history),
        ("zero-variance history keeps the floor budgets",
         rec(sps=44.0, overhead=0.12), 0, flat_history),
        ("floor budgets still fail real regressions on flat history",
         rec(sps=40.0), 1, flat_history),
    ]
    failures = []
    for case in cases:
        name, current, expect = case[0], case[1], case[2]
        case_history = case[3] if len(case) > 3 and case[3] else history
        note = case[4] if len(case) > 4 else ""
        out = io.StringIO()
        got = run_gate(current, case_history, args, out=out)
        ok = got == expect and note in out.getvalue()
        print("self-test: %-42s expect=%d got=%d %s"
              % (name, expect, got, "ok" if ok else "FAIL"))
        if not ok:
            failures.append(name)
    if failures:
        print("self-test FAILED: " + ", ".join(failures))
        return 1
    print("self-test passed (%d cases)" % len(cases))
    return 0


def main():
    ap = argparse.ArgumentParser(
        description="perf/QoE regression gate vs the perf trajectory")
    ap.add_argument("bench_json", nargs="?",
                    help="current perf_smoke JSON (BENCH_<date>.json)")
    ap.add_argument("--history",
                    default="bench_history/perf_trajectory.jsonl",
                    help="trajectory JSONL (default: %(default)s)")
    ap.add_argument("--window", type=int, default=5,
                    help="median over the last K comparable records")
    ap.add_argument("--min-history", type=int, default=1,
                    help="pass without comparison below this many records")
    ap.add_argument("--budget-throughput", type=float, default=0.15,
                    help="relative slowdown allowed on sessions/sec")
    ap.add_argument("--budget-ffct", type=float, default=0.02,
                    help="relative increase allowed on mean FFCT per scheme")
    ap.add_argument("--budget-overhead", type=float, default=0.10,
                    help="absolute increase allowed on metrics_overhead")
    ap.add_argument("--budget-allocs", type=float, default=0.10,
                    help="relative increase allowed on allocs_per_session")
    ap.add_argument("--mad-k", type=float, default=4.0,
                    help="budgets widen to k*MAD of the history window "
                         "when that exceeds the flag floor")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in logic checks and exit")
    args = ap.parse_args()

    if args.self_test:
        sys.exit(self_test(args))

    if not args.bench_json:
        ap.error("bench_json is required unless --self-test")
    try:
        with open(args.bench_json) as f:
            current = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print("bench_gate: cannot read %s: %s" % (args.bench_json, e),
              file=sys.stderr)
        sys.exit(2)
    if not os.path.exists(args.history):
        print("bench_gate: no history at %s — passing without comparison"
              % args.history)
        sys.exit(0)
    history = load_history(args.history)
    sys.exit(run_gate(current, history, args))


if __name__ == "__main__":
    main()
