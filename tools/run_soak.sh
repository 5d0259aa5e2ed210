#!/usr/bin/env bash
# Bounded-memory soak gate: Release build, then one streaming-aggregation
# soak run (bench/soak) whose JSON is written to SOAK_<date>.json at the
# repo root and gated on the two soak contracts (DESIGN.md §6):
#
#   rss_plateau        <= 1.10   resident set is flat once warmed up —
#                                the late-half RSS maximum may exceed the
#                                early-half maximum by at most 10%
#   allocs_per_session <= 173    steady-state heap allocations stay
#                                within 1.25x of the 138.4/session a
#                                default run measured once buffers in
#                                pending events went back to the pool
#                                (2280/session before any recycling)
#
# A wira_exporterd (DESIGN.md §7) runs alongside the soak, tailing the
# flush JSONL and serving /metrics on an ephemeral loopback port; the run
# is additionally gated on the live-telemetry contract:
#
#   mid-soak scrape    /metrics answers while the soak is running and the
#                      payload parses as Prometheus text exposition
#   final consistency  the post-run scrape's wira_soak_sessions_total and
#                      per-scheme counters equal the final JSON aggregate
#
# The anomaly path (DESIGN.md §7) is exercised end to end: the soak is
# seeded with an impossible first-frame deadline (--anomaly-ffct-ms 1) so
# every session trips a trigger, and the run is gated on
#
#   anomaly scrape     wira_anomaly_dumps_total{trigger=...} shows up in a
#                      live /metrics scrape
#   joinable dumps     the replayed .server/.client.sqlog pairs join
#                      cleanly under wira_trace_join (exit 0)
#
# Defaults to a 20k-session run (~5 min serial) — enough flushes for a
# meaningful plateau split.  The headline endurance run is
#   tools/run_soak.sh --sessions 1000000 --flush-every 10000
# (~4h on one core; same gates, same output files).
#
# Usage: tools/run_soak.sh [soak args...]   (see bench/soak --help text)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build-release"

cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${build_dir}" -j "$(nproc)" --target soak wira_exporterd wira_trace_join

out="${repo_root}/SOAK_$(date +%Y-%m-%d).json"
flush_out="${repo_root}/soak_flush.jsonl"
scrape_dir="$(mktemp -d)"
port_file="${scrape_dir}/exporter.port"
anomaly_dir="${scrape_dir}/anomaly"

# The soak truncates its flush file on open; start from the same empty
# state so the exporter never serves a stale previous run.
: > "${flush_out}"

"${build_dir}/tools/wira_exporterd" \
  --flush-jsonl "${flush_out}" --listen 0 --port-file "${port_file}" &
exporter_pid=$!
cleanup() {
  kill "${exporter_pid}" 2>/dev/null || true
  wait "${exporter_pid}" 2>/dev/null || true
  rm -rf "${scrape_dir}"
}
trap cleanup EXIT

for _ in $(seq 50); do
  [[ -s "${port_file}" ]] && break
  sleep 0.1
done
port="$(cat "${port_file}")"
echo "exporter serving http://127.0.0.1:${port}/metrics (pid ${exporter_pid})"
curl -sf "http://127.0.0.1:${port}/healthz" > /dev/null

"${build_dir}/bench/soak" --flush-out "${flush_out}" \
  --anomaly-dir "${anomaly_dir}" --anomaly-ffct-ms 1 "$@" > "${out}" &
soak_pid=$!

# Mid-soak scrape: wait until the exporter has consumed at least one flush
# line while the soak is still running, then capture /metrics.
mid_scrape="${scrape_dir}/mid.prom"
got_mid=0
while kill -0 "${soak_pid}" 2>/dev/null; do
  if curl -sf "http://127.0.0.1:${port}/metrics" > "${mid_scrape}" &&
     grep -q '^wira_soak_sessions_total ' "${mid_scrape}"; then
    got_mid=1
    break
  fi
  sleep 0.5
done
wait "${soak_pid}"
cat "${out}"
echo "wrote ${out} (flush lines in ${flush_out})"

# Anomaly gate: the seeded 1 ms first-frame deadline must have written
# at least one dump pair, and the whole anomaly dir must join
# cleanly (wira_trace_join exits 0 only when every pair joins).
pair_count="$(find "${anomaly_dir}" -name '*.server.sqlog' 2>/dev/null | wc -l)"
if [[ "${pair_count}" -lt 1 ]]; then
  echo "FAIL: seeded anomaly produced no dump pairs in ${anomaly_dir}" >&2
  exit 1
fi
"${build_dir}/tools/wira_trace_join" --trace-dir "${anomaly_dir}"
echo "anomaly gate: ${pair_count} dump pair(s) joined with 0 failures"
if [[ "${got_mid}" != 1 ]]; then
  # Tiny runs can finish before their first flush line lands; the final
  # scrape below still gates the telemetry path, so warn rather than fail.
  echo "note: soak finished before a mid-run scrape saw a flush line"
  mid_scrape=""
fi

# Final scrape: give the exporter one tail cycle to reach the final line,
# then require the served counters to match the soak's JSON aggregate.
final_scrape="${scrape_dir}/final.prom"
for _ in $(seq 50); do
  curl -sf "http://127.0.0.1:${port}/metrics" > "${final_scrape}"
  grep -q '^wira_soak_final 1$' "${final_scrape}" && break
  sleep 0.2
done

# Live-telemetry leg of the anomaly gate: the per-trigger counters folded
# into the flush lines must surface in a real scrape.
if ! grep -q '^wira_anomaly_dumps_total{trigger=' "${final_scrape}"; then
  echo "FAIL: wira_anomaly_dumps_total missing from live scrape" >&2
  exit 1
fi
echo "anomaly gate: wira_anomaly_dumps_total served by live exporter"

python3 - "${out}" "${final_scrape}" ${mid_scrape:+"${mid_scrape}"} <<'PY'
import json, re, sys

with open(sys.argv[1]) as f:
    soak = json.load(f)

failures = []

plateau = soak.get("rss_plateau", 0.0)
samples = soak.get("rss_samples", 0)
if samples < 2:
    # /proc/self/status unavailable or a single flush: nothing to gate,
    # but say so rather than silently passing.
    print(f"note: only {samples} RSS sample(s); plateau gate skipped")
elif plateau > 1.10:
    failures.append(
        f"rss_plateau {plateau:.4f} > 1.10 (RSS still growing late in "
        f"the run over {samples} samples)")
else:
    print(f"rss_plateau {plateau:.4f} <= 1.10 over {samples} samples: OK")

allocs = soak.get("allocs_per_session", 0.0)
if allocs <= 0:
    failures.append("allocs_per_session missing (alloc hook not linked?)")
elif allocs > 173:
    failures.append(
        f"allocs_per_session {allocs:.1f} > 173 (steady-state recycling "
        f"budget: 1.25x the measured 138.4/session)")
else:
    print(f"allocs_per_session {allocs:.1f} <= 173: OK")


SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? "
    r"[-+]?(\d+(\.\d+)?([eE][-+]?\d+)?|Inf|NaN)$")


def parse_exposition(path):
    """{family-sample-name-with-labels: float} plus a format check."""
    series = {}
    with open(path) as f:
        for ln, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            if not SAMPLE_RE.match(line):
                failures.append(f"{path}:{ln}: not exposition format: "
                                f"{line!r}")
                continue
            name, value = line.rsplit(" ", 1)
            series[name] = float(value)
    return series


final = parse_exposition(sys.argv[2])
sessions = soak["sessions"]
got = final.get("wira_soak_sessions_total")
if got != float(sessions):
    failures.append(f"final scrape wira_soak_sessions_total {got} != "
                    f"soak sessions {sessions}")
else:
    print(f"final scrape sessions_total {int(got)} == final JSON: OK")
if final.get("wira_soak_final") != 1.0:
    failures.append("final scrape never saw the final flush line "
                    "(wira_soak_final != 1)")
for scheme, agg in soak["aggregate"]["schemes"].items():
    key = f'wira_soak_scheme_sessions_total{{scheme="{scheme}"}}'
    if final.get(key) != float(agg["sessions"]):
        failures.append(f"final scrape {key} {final.get(key)} != "
                        f"aggregate {agg['sessions']}")

if len(sys.argv) > 3:
    mid = parse_exposition(sys.argv[3])
    mid_sessions = mid.get("wira_soak_sessions_total", -1.0)
    if not 0 < mid_sessions <= sessions:
        failures.append(f"mid-soak scrape sessions_total {mid_sessions} "
                        f"outside (0, {sessions}]")
    else:
        print(f"mid-soak scrape parsed: {int(mid_sessions)}/{sessions} "
              f"sessions at scrape time: OK")

if failures:
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    sys.exit(1)
print(f"soak gate passed: {soak['sessions']} sessions, "
      f"peak_rss {soak['peak_rss_mb']:.1f} MB, "
      f"{soak['sessions_per_sec']:.1f} sessions/s")
PY
