#!/usr/bin/env python3
"""Repository benchmark: builds the runner and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/ (which compiles the
unmodified ../src libraries and ../tools/proxyd.cc) into $CARGO_TARGET_DIR
(default .bench_build), runs the workload, checks every metric the run
prints against BENCHMARK.json, and prints three lines: the host identity,
the run's detail, and the result

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Each result is also appended, stamped with the host, to
<build dir>/results/<workload>.jsonl for perfbench/compare.py.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"
# Each run must end within 180 s of its start; leave room for the rest.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args()


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out_dir):
    """Configures once, then (re)builds the runner and proxyd."""
    for needed in ("src/CMakeLists.txt", "tools/proxyd.cc"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("no %s next to perfbench/: not a Wira checkout" % needed)
    if not shutil.which("cmake"):
        fail("cmake not found")
    log = sys.stderr
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", out_dir,
                            "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                           stdout=log, stderr=log)
        if r.returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    r = subprocess.run(["cmake", "--build", out_dir, "-j", jobs, "--target",
                        "perfbench", "perfbench_proxyd"],
                       stdout=log, stderr=log)
    if r.returncode != 0:
        fail("build failed")


def compiler(out_dir):
    cache = os.path.join(out_dir, "CMakeCache.txt")
    with open(cache) as f:
        m = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$", f.read(), re.M)
    if not m:
        return "unknown"
    try:
        out = subprocess.run([m.group(1), "--version"], capture_output=True,
                             text=True).stdout
        return out.splitlines()[0].strip()
    except OSError:
        return m.group(1)


def source_id():
    """git SHA of the checkout, or a content hash when it is no git tree."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                               capture_output=True, text=True)
            if r.returncode == 0 and r.stdout.strip():
                return r.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def host_identity(out_dir):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            m = re.search(r"^model name\s*:\s*(.*)$", f.read(), re.M)
            if m:
                cpu = m.group(1).strip()
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "build_type": BUILD_TYPE,
        "compiler": compiler(out_dir),
        "source": source_id(),
    }


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    entries = spec["per_layer" if trace else "end_to_end"]
    return [(e["name"], e["unit"]) for e in entries]


def main():
    args = parse_args()
    start = time.monotonic()
    out_dir = build_dir()
    build(out_dir)
    run_dir = os.path.join(out_dir, "run", "%s-%d" % (args.workload,
                                                      os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    cmd = [os.path.join(out_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--proxyd", os.path.join(out_dir, "perfbench_proxyd"),
           "--run-dir", run_dir]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=max(1.0, RUN_TIMEOUT_S -
                                       (time.monotonic() - start)))
    except subprocess.TimeoutExpired:
        fail("workload run timed out")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if r.returncode != 0:
        fail("runner exited with status %d" % r.returncode)
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if not lines:
        fail("runner printed nothing")
    result = json.loads(lines[-1])
    printed = result["metrics"]
    metrics = {}
    for name, unit in expected_metrics(args.trace):
        m = printed.get(name)
        if m is None:
            fail("metric %s missing" % name)
        if m["unit"] != unit:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (name, m["unit"], unit))
        metrics[name] = m
    extra = sorted(set(printed) - set(metrics))
    if extra:
        fail("metrics not in BENCHMARK.json: " + ", ".join(extra))

    host = host_identity(out_dir)
    final = {"correct": result["correct"], "attempted": result["attempted"],
             "failed": result["failed"], "metrics": metrics}
    os.makedirs(os.path.join(out_dir, "results"), exist_ok=True)
    with open(os.path.join(out_dir, "results", args.workload + ".jsonl"),
              "a") as f:
        f.write(json.dumps({"host": host, "workload": args.workload,
                            "seed": args.seed, "seconds": args.seconds,
                            "trace": args.trace, **final}) + "\n")
    print(json.dumps({"host": host}))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(final))


if __name__ == "__main__":
    main()
