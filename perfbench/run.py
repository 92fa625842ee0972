#!/usr/bin/env python3
"""Repository benchmark: build amos_bench and amos_served from source,
then run one workload and print its result line.

    python3 perfbench/run.py --workload cold_resnet --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Everything is built and written
under the directory named by $CARGO_TARGET_DIR (default .bench_build)
inside the checkout. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_resnet", "warm_mixed", "execute")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(broot):
    """Configure once, then (re)build the two binaries; output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no AMOS sources under {ROOT}/src; nothing to benchmark")
        sys.exit(2)
    cmake_dir = os.path.join(broot, "cmake")
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "amos_bench",
                  "amos_served", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            sys.exit(2)
    return os.path.join(cmake_dir, "amos_bench"), os.path.join(cmake_dir, "amos_served")


def run_bench(bench, served, broot, extra, tag):
    """Run amos_bench in a fresh run directory; returns (code, stdout)."""
    run_dir = os.path.join(broot, "runs", tag)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    env = dict(os.environ, TMPDIR=os.path.join(broot, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    cmd = [bench, "--served", served, "--run-dir", run_dir] + extra
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"amos_bench exceeded {RUN_TIMEOUT_S} s")
        return 3, ""
    return proc.returncode, proc.stdout


def check_result(line, names, units):
    """Problems with one result line against the declared metrics."""
    result = json.loads(line)
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("correctness checks failed")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted < 1")
    metrics = result.get("metrics", {})
    if set(metrics) != set(names):
        problems.append(f"metrics differ: missing {sorted(set(names) - set(metrics))}"
                        f", extra {sorted(set(metrics) - set(names))}")
    for name in names:
        m = metrics.get(name, {})
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} not finite")
        if m.get("unit") != units[name]:
            problems.append(f"{name} unit {m.get('unit')} != {units[name]}")
    return problems


def self_test(bench, served, broot):
    """Check rejection, then every workload at minimum length, both kinds."""
    code, _ = run_bench(bench, served, broot, ["--self-test"], "self-test")
    failures = 0 if code == 0 else 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            names = [m["name"] for m in spec[kind]]
            units = {m["name"]: m["unit"] for m in spec[kind]}
            code, out = run_bench(bench, served, broot,
                                  ["--workload", workload, "--seed", "1",
                                   "--seconds", "1", "--trace", str(trace)],
                                  f"self-test-{workload}-{trace}")
            lines = out.strip().splitlines()
            problems = [f"exit code {code}"] if code else []
            if lines:
                problems += check_result(lines[-1], names, units)
            else:
                problems.append("no result line")
            log(f"self-test {workload} trace={trace}: "
                + ("ok" if not problems else "; ".join(problems)))
            failures += bool(problems)
    log("self-test " + ("passed" if failures == 0 else f"FAILED ({failures})"))
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    broot = build_root()
    bench, served = build(broot)
    if args.self_test:
        return self_test(bench, served, broot)
    code, out = run_bench(
        bench, served, broot,
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        f"{args.workload}-trace{args.trace}")
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
