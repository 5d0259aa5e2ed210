#!/usr/bin/env bash
# Layer cost split: build a gprof-instrumented (-pg) RelWithDebInfo tree in
# build-prof/, run one serial sweep, and roll the flat profile's self time
# up by namespace into one JSON line
#
#   {"bench": "fig11_overall 200 1", "sampled_s": ..., "layers": {...}}
#
# whose `layers` object holds each layer's share of sampled self time:
# media, sim, quic, cc, obs (wira::obs plus the wira::trace event sinks), exp,
# and other (the remaining namespaces, and std:: code not instantiated
# over a layer's types).
# gprof samples only the program's own text: time inside shared
# libc/libstdc++ (memcpy, malloc) is not in the denominator.
# The full flat profile stays in build-prof/prof/flat.txt.
#
# Usage: tools/run_profile.sh
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build-prof"

cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg >&2
cmake --build "${build_dir}" -j "$(nproc)" --target fig11_overall >&2

# gmon.out lands in the working directory of the profiled process.
run_dir="${build_dir}/prof"
rm -rf "${run_dir}"
mkdir -p "${run_dir}"
(cd "${run_dir}" &&
  "${build_dir}/bench/fig11_overall" 200 1 --threads 1 \
    > fig11.txt)
gprof -b -p "${build_dir}/bench/fig11_overall" "${run_dir}/gmon.out" \
  > "${run_dir}/flat.txt"

python3 - "${run_dir}/flat.txt" "fig11_overall 200 1" <<'PY'
import json, re, sys

LAYERS = ("media", "sim", "quic", "cc", "obs", "exp")
ALIASES = {"trace": "obs"}
# % time, cumulative s, self s, then optional calls/self/total, then name.
ROW = re.compile(r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+"
                 r"(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(\S.*)$")


def layers_named(text):
    for m in re.finditer(r"\bwira::(\w+)::", text):
        ns = ALIASES.get(m.group(1), m.group(1))
        if ns in LAYERS:
            yield ns


def layer(name):
    # Drop the parameter list; a template function also prints its return
    # type first, which the template stripping below leaves harmless.
    head = name.replace("(anonymous namespace)", "anon").split("(", 1)[0]
    bare = head
    while True:  # template arguments, innermost first
        stripped = re.sub(r"<[^<>]*>", "", bare)
        if stripped == bare:
            break
        bare = stripped
    # The function's own namespace first; failing that, std:: and util
    # templates count for the layer whose types they are instantiated
    # over (the event heap for sim, SmallFn callbacks, frame vectors).
    return next(layers_named(bare), None) or next(layers_named(head), "other")


self_s = {k: 0.0 for k in LAYERS + ("other",)}
with open(sys.argv[1]) as f:
    for line in f:
        m = ROW.match(line)
        if m:
            self_s[layer(m.group(2))] += float(m.group(1))
total = sum(self_s.values())
shares = {k: round(v / total, 3) if total else 0.0 for k, v in self_s.items()}
print(json.dumps({"bench": sys.argv[2], "sampled_s": round(total, 2),
                  "layers": shares}))
PY
