#!/usr/bin/env bash
# Perf-trajectory smoke: Release build, quick ctest sanity, then run
# bench/perf_smoke and record its JSON as BENCH_<date>.json at the repo
# root.  Each run also appends a one-line record to
# bench_history/perf_trajectory.jsonl so the sessions/sec trajectory
# accumulates across days, and the script FAILS if the run was not
# deterministic (threaded or multiprocess records diverged from serial).
# perf_smoke includes a --procs 2 pass by default, so every appended
# trajectory record carries the multiprocess datapoint
# (sessions_per_sec_np, gated by bench_gate.py alongside the others).
#
# Usage: tools/run_perf_smoke.sh [sessions] [seed] [--threads N] [--procs N]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build-release"

cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${build_dir}" -j "$(nproc)" \
  --target perf_smoke test_dispatch test_event_loop test_exp test_obs

# Quick correctness gate before trusting the numbers (Dispatch covers the
# thread and pipe shard channels the parallel passes run on).
ctest --test-dir "${build_dir}" -R 'Dispatch|EventLoop|Harness' \
  --output-on-failure -j "$(nproc)"

out="${repo_root}/BENCH_$(date +%Y-%m-%d).json"
"${build_dir}/bench/perf_smoke" "$@" | tee "${out}"
echo "wrote ${out}"

# Hard determinism gate: perf_smoke already exits non-zero on divergence
# (caught by `set -e` through the pipe above only if pipefail sees it), so
# double-check the recorded output as well.
if ! grep -q '"deterministic": true' "${out}"; then
  echo "FAIL: perf_smoke reported a non-deterministic run" >&2
  exit 1
fi

history_dir="${repo_root}/bench_history"
mkdir -p "${history_dir}"
trajectory="${history_dir}/perf_trajectory.jsonl"

# Regression gate BEFORE the append: compare this run against the median
# of recent comparable records (same sessions, seed, threads, procs,
# hardware_concurrency and host CPU; see bench_gate.py).  A regressed run is
# NOT appended, so it cannot drag the baseline down for the next run.
# Budgets and their rationale: tools/bench_gate.py --help.
if ! python3 "${repo_root}/tools/bench_gate.py" "${out}" \
    --history "${trajectory}"; then
  echo "FAIL: bench_gate detected a perf/QoE regression (record not" \
       "appended to the trajectory)" >&2
  exit 1
fi

# Append the scalar fields plus the QoE summary (the aggregate "metrics"
# object stays in the dated file only) as one line into the long-term
# trajectory.  "source" ties the record to the code it measured: the git
# SHA when the built sources match HEAD, otherwise a hash of their content
# ("tree-<16 hex>", the same stamp perfbench/run.py uses for a tree that
# is not a git checkout), so an uncommitted change is never credited to
# the commit it started from.
python3 - "${out}" "$(date +%Y-%m-%dT%H:%M:%S)" "${repo_root}" \
  >> "${trajectory}" <<'PY'
import hashlib, json, os, subprocess, sys

SOURCES = ("src", "bench", "tools", "CMakeLists.txt")


def git(root, *args):
    try:
        r = subprocess.run(["git", "-C", root, *args],
                           capture_output=True, text=True)
    except OSError:
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def source_id(root):
    sha = git(root, "rev-parse", "HEAD")
    if sha and git(root, "status", "--porcelain", "--", *SOURCES) == "":
        return sha
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, name) for d, _, names in os.walk(path)
            for name in names)
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


with open(sys.argv[1]) as f:
    bench = json.load(f)
row = {"date": sys.argv[2], "source": source_id(sys.argv[3])}
row.update((k, v) for k, v in bench.items() if k != "metrics")
print(json.dumps(row))
PY
echo "appended trajectory record to ${trajectory}"
