#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Checks BENCHMARK.json (names, units, bounds, and a one-line "why" per
workload that says which layers it loads), then runs every workload for one
second, untraced and traced, and checks each printed result: exactly the
four result keys, every BENCHMARK.json metric printed with its unit, every
name matching [A-Za-z0-9_.-]+, no failed operation, and on the traced run
a non-zero metric for each layer the workload's "why" says it loads.
Finally checks that the benchmark fails, printing no result, when run
from a directory holding only BENCHMARK.json and perfbench/.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Metric name prefixes that carry each layer a "why" can name.  cc has no
# metric of its own: its work shows inside the app and sim spans.
LAYER_METRICS = {
    "exp": ("exp.",),
    "dispatch": ("exp.dispatch_idle_share",),
    "media": ("media.",),
    "core": ("core.parse_",),
    "crypto": ("core.cookie_",),
    "app": ("app.",),
    "quic": ("quic.",),
    "cc": (),
    "sim": ("sim.",),
    "obs": ("obs.",),
    "net": ("net.",),
    "proxyd": ("proxyd.",),
}
LOADS = re.compile(r"\bLoads ([a-z, ]+?)(?:;|$)")

problems = []


def expect(ok, what):
    if not ok:
        problems.append(what)
    return ok


def check_spec(spec):
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    names = []
    for w in spec["workloads"]:
        names.append(w["name"])
        why = w["why"]
        expect(set(w) == {"name", "why"}, "workload %s keys" % w["name"])
        expect(0 < len(why) <= 200 and "\n" not in why,
               "workload %s: why is not one line of <= 200 chars" % w["name"])
        m = LOADS.search(why)
        if expect(m, "workload %s: why does not say which layers it loads"
                  % w["name"]):
            for layer in [s.strip() for s in m.group(1).split(",")]:
                expect(layer in LAYER_METRICS,
                       "workload %s loads unknown layer %r" % (w["name"],
                                                               layer))
    for kind in ("end_to_end", "per_layer"):
        for e in spec[kind]:
            names.append(e["name"])
            expect(NAME.match(e["name"]) and len(e["name"]) <= 64,
                   "bad metric name %r" % e["name"])
            expect(UNIT.match(e["unit"]), "bad unit %r" % e["unit"])
            expect(e["better"] in ("lower", "higher"),
                   "%s: better" % e["name"])
            if kind == "end_to_end":
                expect(0 < e["bound"] <= 0.25, "%s: bound" % e["name"])
    expect(len(names) == len(set(names)), "duplicate names")
    setup = [e for e in spec["end_to_end"] if e["name"] == "setup_s"]
    expect(setup and setup[0]["unit"] == "s" and setup[0]["bound"] ==
           max(e["bound"] for e in spec["end_to_end"]),
           "setup_s must exist, in s, with the largest bound")


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_run(spec, w, trace):
    r = run(w["name"], trace)
    label = "%s --trace %d" % (w["name"], trace)
    if not expect(r.returncode == 0, "%s exited %d: %s" % (
            label, r.returncode, r.stderr[-500:])):
        return
    result = json.loads(r.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           "%s: result keys" % label)
    expect(result["attempted"] >= 1 and result["failed"] == 0 and
           result["correct"], "%s: failed operations" % label)
    wanted = spec["per_layer" if trace else "end_to_end"]
    printed = result["metrics"]
    expect(set(printed) == {e["name"] for e in wanted},
           "%s: printed metric set" % label)
    for e in wanted:
        m = printed.get(e["name"], {})
        expect(m.get("unit") == e["unit"], "%s: %s unit" % (label, e["name"]))
        expect(isinstance(m.get("value"), (int, float)),
               "%s: %s value" % (label, e["name"]))
        if not trace:
            expect(m.get("value", 0) != 0, "%s: %s is 0" % (label, e["name"]))
    if trace:
        for layer in LOADS.search(w["why"]).group(1).split(","):
            prefixes = LAYER_METRICS.get(layer.strip(), ())
            if prefixes:
                expect(any(v["value"] != 0 for k, v in printed.items()
                           if k.startswith(prefixes)),
                       "%s: loads %s but all its metrics are 0"
                       % (label, layer.strip()))
    print("ok  " + label)


def check_bare_directory():
    """Only BENCHMARK.json and perfbench/: must fail without a result."""
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "sweep_flv", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare, env=env,
                       capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    expect(r.returncode != 0 and r.stdout.strip() == "",
           "bare directory: run.py must fail and print nothing")
    print("ok  bare directory fails")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w, trace)
    check_bare_directory()
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
