#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload paper-insert --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Workloads: paper-insert, removal-churn, daemon-mixed (see perfbench/README.md).
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: every end-to-end metric of BENCHMARK.json with --trace 0,
every per-layer metric with --trace 1. The line before it records the build
and run environment. Traced runs also write a Chrome trace next to the build.

The program is built in Release mode under $CARGO_TARGET_DIR (default
.bench_build) at the repository root. Exit status is 0 only when every
answer matched the NMF oracle and every declared metric was reported.

--self-test runs each workload at a tiny scale, checks that every declared
metric is present with its unit, and checks that a deliberately corrupted
answer is counted as a failure.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-insert", "removal-churn", "daemon-mixed")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log(f"no source tree to build at {ROOT}")
        sys.exit(2)
    out = build_dir()
    if not any(os.path.isfile(os.path.join(out, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], capture_output=True,
                          check=False).returncode == 0:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, check=False).returncode:
            log("configure failed")
            sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                       "-j", jobs], stdout=sys.stderr,
                      check=False).returncode:
        log("build failed")
        sys.exit(2)
    return os.path.join(out, "perfbench")


def git_commit():
    # Only look inside this checkout: git would otherwise search parents.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True, check=False)
    return r.stdout.strip() if r.returncode == 0 else "unavailable"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run(binary, workload, seed, seconds, trace, extra=()):
    """Runs the binary once; returns (exit code, env dict, result dict)."""
    traces = os.path.join(build_dir(), "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--trace-out",
           os.path.join(traces, f"{workload}-seed{seed}.json"), *extra]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, {}, None
    lines = [ln for ln in p.stdout.splitlines() if ln.strip()]
    env, result = {}, None
    for ln in lines:
        obj = json.loads(ln)
        if "perfbench_env" in obj:
            env = obj["perfbench_env"]
        else:
            result = obj
    env["git_commit"] = git_commit()
    return p.returncode, env, result


def missing_metrics(result, trace):
    """Declared metrics absent from `result` or reported with another unit."""
    got = result["metrics"] if result else {}
    return sorted(name for name, unit in declared_metrics(trace).items()
                  if name not in got or got[name]["unit"] != unit)


def self_test(binary):
    problems = []
    for w in WORKLOADS:
        for trace in (0, 1):
            code, _, result = run(binary, w, 1, 1, trace, ["--tiny"])
            if code != 0 or not result or not result["correct"]:
                problems.append(f"{w} trace={trace}: exit {code}, {result}")
                continue
            if result["failed"] != 0:
                problems.append(f"{w} trace={trace}: failed ops reported")
            missing = missing_metrics(result, trace)
            if missing:
                problems.append(f"{w} trace={trace}: missing {missing}")
        code, _, result = run(binary, w, 1, 1, 0, ["--tiny", "--corrupt", "3"])
        if code == 0 or not result or result["correct"] or \
                result["failed"] < 1:
            problems.append(f"{w}: a corrupted answer was not counted "
                            f"(exit {code}, {result})")
        else:
            log(f"{w}: ok (corrupted answer counted as failed)")
    for p in problems:
        log(f"self-test: {p}")
    print(json.dumps({"self_test": "fail" if problems else "pass"}))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    binary = build()
    if args.self_test:
        return self_test(binary)

    code, env, result = run(binary, args.workload, args.seed, args.seconds,
                            args.trace)
    print(json.dumps({"perfbench_env": env}))
    if result is None:
        log("no result")
        return code or 1
    missing = missing_metrics(result, args.trace)
    if missing:
        log(f"metrics missing or with the wrong unit: {missing}")
        result["correct"] = False
        code = code or 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
