#!/usr/bin/env bash
# Asserts that every sweep binary honours the dispatch flags and ends a
# dead-shard run with a message: at `8 1 --workers <refused>
# --connect-timeout-ms 200` each binary must exit 3 and name the endpoint
# on stderr.  The refused endpoint is a loopback port that was bound and
# then closed, so nothing listens on it.
# Usage: test_bench_dispatch_flags.sh /path/to/sweep_binary...
set -u

[ "$#" -gt 0 ] || { echo "usage: $0 /path/to/sweep_binary..." >&2; exit 2; }
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

port="$(python3 -c 'import socket
s = socket.socket()
s.bind(("127.0.0.1", 0))
print(s.getsockname()[1])
s.close()')"
endpoint="127.0.0.1:${port}"

failures=0
for bin in "$@"; do
  bin="$(realpath "$bin")"
  name="$(basename "$bin")"
  (cd "$WORK" && "$bin" 8 1 --workers "$endpoint" --connect-timeout-ms 200) \
    > "$WORK/$name.out" 2> "$WORK/$name.err"
  got=$?
  if [ "$got" -ne 3 ]; then
    echo "FAIL: $name: expected exit 3, got $got" >&2
    failures=$((failures + 1))
  elif ! grep -q "^error: .*${endpoint}" "$WORK/$name.err"; then
    echo "FAIL: $name: stderr does not name ${endpoint}:" >&2
    cat "$WORK/$name.err" >&2
    failures=$((failures + 1))
  fi
done

[ "$failures" -eq 0 ] || exit 1
echo "bench dispatch flags: $# binaries exit 3 naming ${endpoint}"
