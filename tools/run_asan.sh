#!/usr/bin/env bash
# Sanitizer gate: build the gate-labeled test set under Address+UB
# sanitizers (WIRA_SANITIZE, see the top-level CMakeLists.txt) in a
# dedicated build tree and run it.  The zero-copy datagram path hands out
# borrowed spans and pool-recycled buffers, so use-after-free and
# use-after-reset bugs are the failure class this script exists to catch;
# run it after any change to the arena, the parser, or buffer recycling.
# The gate label also covers the sharded population runner (test_exp's
# Harness.Multiprocess* and test_dispatch fork real workers and start
# worker threads, exercising the record codec + salvage/retry paths under
# the sanitizers; worker children _Exit, so LSan only audits the parent).
#
# Usage: tools/run_asan.sh [extra ctest args...]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build-asan"

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DWIRA_SANITIZE="address;undefined"
cmake --build "${build_dir}" -j "$(nproc)"
cmake --build "${build_dir}" -j "$(nproc)" --target soak

# halt_on_error keeps UBSan failures fatal so ctest sees them; ASan is
# fatal by default.  detect_leaks stays on: the arena owns its blocks and
# each in-flight datagram is owned by its link delivery event, so a leak
# report means ownership drifted.
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
export ASAN_OPTIONS="detect_leaks=1"

ctest --test-dir "${build_dir}" -L gate --output-on-failure \
  -j "$(nproc)" "$@"

# Tiny streaming soak under the sanitizers: the recycling machinery
# (loop scratch pools, segment-cache graveyard, chunk-byte pooling)
# reuses buffers across sessions, so this sweep is the densest
# use-after-reset exposure the suite has.  Session count stays small —
# sanitized sessions are ~10x slower — but every recycled path runs
# hundreds of times.
# The anomaly flags run the anomaly path (trigger counters, traced
# replays on the recycled workspace, qlog serialization) under the
# sanitizers too; the seeded 1 ms deadline guarantees dumps happen.  The
# --procs 2 leg runs the same replays inside forked workers.
rm -rf "${build_dir}/anomaly" "${build_dir}/anomaly_procs"
# The daemons below announce their ports through these files; a file left
# by an earlier run would send the readiness waits to a dead port.
rm -f "${build_dir}"/{exporter,proxyd}.port
"${build_dir}/bench/soak" --sessions 200 --flush-every 50 \
  --flush-out "${build_dir}/soak_flush.jsonl" \
  --anomaly-dir "${build_dir}/anomaly" --anomaly-ffct-ms 1 \
  > "${build_dir}/soak.json"
"${build_dir}/tools/wira_trace_join" --trace-dir "${build_dir}/anomaly"
"${build_dir}/bench/soak" --sessions 200 --procs 2 \
  --anomaly-dir "${build_dir}/anomaly_procs" --anomaly-ffct-ms 1 \
  > "${build_dir}/soak_procs.json"
"${build_dir}/tools/wira_trace_join" --trace-dir "${build_dir}/anomaly_procs"
echo "sanitized anomaly dumps joined (serial and --procs 2)"
echo "sanitized soak passed ($(
  python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["sessions"], "sessions")' \
    "${build_dir}/soak.json"))"

# Exporter smoke under the sanitizers: tail the flush file the soak just
# wrote, scrape it once over a real socket, shut down cleanly.  This is
# the repo's only epoll/socket code; ASan sees the whole accept-read-
# write-close cycle and LSan audits the daemon's teardown.
"${build_dir}/tools/wira_exporterd" \
  --flush-jsonl "${build_dir}/soak_flush.jsonl" --listen 0 \
  --port-file "${build_dir}/exporter.port" &
exporter_pid=$!
trap 'kill "${exporter_pid}" 2>/dev/null || true' EXIT
for _ in $(seq 50); do
  [[ -s "${build_dir}/exporter.port" ]] && break
  sleep 0.1
done
port="$(cat "${build_dir}/exporter.port")"
for _ in $(seq 50); do
  curl -sf "http://127.0.0.1:${port}/metrics" \
    | grep -q '^wira_soak_sessions_total 200$' && break
  sleep 0.1
done
curl -sf "http://127.0.0.1:${port}/metrics" \
  | grep -q '^wira_soak_sessions_total 200$'
kill "${exporter_pid}"
wait "${exporter_pid}"
trap - EXIT
echo "sanitized exporter scrape passed"

# Forked-worker dispatch sweep under the sanitizers: fig11 over
# --procs 2 at two chunk sizes.  This runs chunk assignment and record
# reassembly over a real pipe channel with ASan watching both ends — the
# forked workers are the same sanitized binary — and the stdout + metrics
# JSONL must be byte-identical to the serial run.
"${build_dir}/bench/fig11_overall" 40 3 \
  --metrics-out "${build_dir}/fig11_serial_metrics.jsonl" \
  > "${build_dir}/fig11_serial.txt"
for chunk in 1 8; do
  "${build_dir}/bench/fig11_overall" 40 3 --procs 2 --chunk "${chunk}" \
    --metrics-out "${build_dir}/fig11_procs_metrics.jsonl" \
    > "${build_dir}/fig11_procs.txt"
  diff "${build_dir}/fig11_serial.txt" "${build_dir}/fig11_procs.txt"
  diff "${build_dir}/fig11_serial_metrics.jsonl" \
    "${build_dir}/fig11_procs_metrics.jsonl"
done
echo "sanitized forked dispatch sweep passed"

# The same sweep over worker threads: the thread shard channel shares
# the parent's heap with its workers, so ASan sees both sides of every
# record handoff in one process.  Same byte-identity check.
for chunk in 1 8; do
  "${build_dir}/bench/fig11_overall" 40 3 --threads 4 --chunk "${chunk}" \
    --metrics-out "${build_dir}/fig11_threads_metrics.jsonl" \
    > "${build_dir}/fig11_threads.txt"
  diff "${build_dir}/fig11_serial.txt" "${build_dir}/fig11_threads.txt"
  diff "${build_dir}/fig11_serial_metrics.jsonl" \
    "${build_dir}/fig11_threads_metrics.jsonl"
done
echo "sanitized thread dispatch sweep passed"

# Real-socket serving mode under the sanitizers: wira_proxyd serves all
# four schemes over loopback UDP while a sanitized wira_loadgen runs a
# small concurrent population against it.  This is the epoll runtime,
# the UDP routing, and the whole QUIC stack on real sockets with ASan
# watching both processes; LSan audits the daemon's SIGTERM teardown.
# Loadgen sessions close, so 5 s later the daemon has evicted all 40.
"${build_dir}/tools/wira_proxyd" \
  --port-file "${build_dir}/proxyd.port" 2> "${build_dir}/proxyd.log" &
proxyd_pid=$!
trap 'kill "${proxyd_pid}" 2>/dev/null || true' EXIT
for _ in $(seq 50); do
  [[ -s "${build_dir}/proxyd.port" ]] && break
  sleep 0.1
done
"${build_dir}/tools/wira_loadgen" --ports "${build_dir}/proxyd.port" \
  --sessions 10 --timeout-ms 120000 > "${build_dir}/loadgen.json"
sleep 5
kill "${proxyd_pid}"
wait "${proxyd_pid}" || true
trap - EXIT
grep -q '"handshake_failures": 0' "${build_dir}/loadgen.json"
grep -q 'wira_proxyd: served 40 session(s), .*; evicted 40,' \
  "${build_dir}/proxyd.log"
echo "sanitized proxyd/loadgen loopback pass passed"
echo "sanitizer gate passed"
