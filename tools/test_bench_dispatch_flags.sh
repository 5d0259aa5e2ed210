#!/usr/bin/env bash
# Asserts that every sweep binary honours the dispatch flags and ends a
# dead-shard run with a message: each binary runs `4000 1 --procs 2`, one
# of its forked workers is SIGKILLed as soon as it exists, and the binary
# must exit 3 with an `error: ... killed by signal 9 ...` line on stderr.
# The first binary must also reject an unknown flag (a typo, or the removed
# `--workers`) by name with exit 2, not read it as a positional argument,
# and reject any `--threads` other than 1 with exit 2 and a pointer to
# `--procs`.
# Usage: test_bench_dispatch_flags.sh /path/to/sweep_binary...
set -u

[ "$#" -gt 0 ] || { echo "usage: $0 /path/to/sweep_binary..." >&2; exit 2; }
WORK="$(mktemp -d)"
pid=""
trap '[ -n "$pid" ] && kill -9 "$pid" 2>/dev/null; rm -rf "$WORK"' EXIT

# Prints the first child of process $1 (its forked workers are children of
# the main thread), polling for up to 10 s; prints nothing if none appears.
first_child() {
  local children
  for _ in $(seq 100); do
    children="$(cat "/proc/$1/task/$1/children" 2>/dev/null)"
    if [ -n "$children" ]; then
      echo "${children%% *}"
      return
    fi
    sleep 0.1
  done
}

failures=0
threads_msg="error: --threads only accepts 1 (serial); use --procs N for a"
threads_msg+=" parallel sweep"
for flag in --bogus "--workers 127.0.0.1:1" "--threads 4" "--threads 0"; do
  # shellcheck disable=SC2086  # $flag is a flag plus its value
  (cd "$WORK" && exec "$1" 20 1 $flag) > /dev/null 2> "$WORK/flag.err"
  got=$?
  case "$flag" in
    --threads*) want="$threads_msg" ;;
    *) want="error: unknown flag '${flag%% *}'" ;;
  esac
  if [ "$got" -ne 2 ] || ! grep -qxF "$want" "$WORK/flag.err"; then
    echo "FAIL: $(basename "$1") $flag: expected exit 2 and \"$want\"," \
         "got $got:" >&2
    cat "$WORK/flag.err" >&2
    failures=$((failures + 1))
  fi
done

for bin in "$@"; do
  bin="$(realpath "$bin")"
  name="$(basename "$bin")"
  (cd "$WORK" && exec "$bin" 4000 1 --procs 2) \
    > "$WORK/$name.out" 2> "$WORK/$name.err" &
  pid=$!
  child="$(first_child "$pid")"
  if [ -z "$child" ]; then
    echo "FAIL: $name: no forked worker appeared within 10 s" >&2
    kill -9 "$pid" 2>/dev/null
    wait "$pid" 2>/dev/null
    pid=""
    failures=$((failures + 1))
    continue
  fi
  kill -9 "$child"
  wait "$pid"
  got=$?
  pid=""
  if [ "$got" -ne 3 ]; then
    echo "FAIL: $name: expected exit 3, got $got" >&2
    failures=$((failures + 1))
  elif ! grep -q "^error: .*killed by signal 9" "$WORK/$name.err"; then
    echo "FAIL: $name: stderr does not name the killed worker:" >&2
    cat "$WORK/$name.err" >&2
    failures=$((failures + 1))
  fi
done

[ "$failures" -eq 0 ] || exit 1
echo "bench dispatch flags: unknown flags and --threads other than 1" \
     "rejected; $# binaries exit 3 naming a SIGKILLed worker"
