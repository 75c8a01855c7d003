#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. Builds the program and the benchmark driver
from source (Release, into .bench_build/ or $CARGO_TARGET_DIR), runs one
workload, and prints the fingerprint, every metric with its unit, and as the
last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. Exits non-zero, without a result line, when the
program cannot be built or a run fails to produce its report.
"""

import argparse
import fcntl
import hashlib
import json
import os
import re
import signal
import subprocess
import sys

WORKLOADS = ("trigger-arxiv", "bulk-products", "dist-papers")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(root):
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail("no program sources next to perfbench/ (CMakeLists.txt, src/)")
    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, out_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release", f"-DPERFBENCH_JOBS={jobs}"],
        ["cmake", "--build", build_dir, "--parallel", jobs],
    ]
    # One build at a time per build directory.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for step in steps:
            proc = subprocess.run(step, cwd=root, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-6000:])
                fail("build failed: " + " ".join(step))
    return build_dir


def cmake_cache(build_dir):
    values = {}
    path = os.path.join(build_dir, "ripple", "CMakeCache.txt")
    if os.path.isfile(path):
        with open(path) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    values[key.split(":", 1)[0]] = value
    return values


def source_digest(root):
    """sha256 over the program's sources and build file (the checkout the
    benchmark runs in is not a git repository, so this stands in for it)."""
    digest = hashlib.sha256()
    paths = [os.path.join(root, "CMakeLists.txt")]
    for base, dirs, files in os.walk(os.path.join(root, "src")):
        dirs.sort()
        paths += [os.path.join(base, f) for f in sorted(files)]
    for path in paths:
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha(root):
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
        return proc.stdout.strip() if proc.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def kernel_tu_flags(root):
    """The extra flags the root build file gives the kernel sources."""
    with open(os.path.join(root, "CMakeLists.txt")) as f:
        match = re.search(r'set\(RIPPLE_KERNEL_FP_FLAGS\s+"([^"]*)"\)',
                          f.read())
    return match.group(1) if match else "unknown"


def fingerprint(root, build_dir):
    cache = cmake_cache(build_dir)
    build_type = cache.get("CMAKE_BUILD_TYPE", "unknown")
    flags = " ".join(f for f in (
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", "")) if f)
    return {
        "git_sha": git_sha(root),
        "source_digest": source_digest(root),
        "build_type": build_type,
        "cxx_flags": flags,
        "kernel_tu_flags": kernel_tu_flags(root),
        "compiler": cache.get("CMAKE_CXX_COMPILER", "unknown"),
    }


def run_driver(cmd):
    """Runs the driver in its own process group; returns (exit code, stdout
    lines). A run past the timeout is killed with its whole group."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode, out.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    root = repo_root()
    build_dir = build(root)
    if args.selftest:
        sys.exit(subprocess.run(
            [os.path.join(build_dir, "perfbench_selftest")]).returncode)

    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found")
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    scratch = os.path.join(build_dir, f"run-{os.getpid()}")
    code, lines = run_driver([
        os.path.join(build_dir, "perfbench"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--scratch", scratch])
    report = None
    for line in lines:
        if line.startswith("PERFBENCH_REPORT "):
            report = json.loads(line[len("PERFBENCH_REPORT "):])
        else:
            print(line)
    if report is None:
        fail(f"driver exited with {code} and no report")

    fp = fingerprint(root, build_dir)
    fp.update(report["fingerprint"])
    print("# fingerprint " + json.dumps(fp, sort_keys=True))
    metrics = {}
    for metric in wanted:
        got = report["metrics"].get(metric["name"])
        if got is None:
            fail(f"metric {metric['name']} missing from the report")
        if got["unit"] != metric["unit"]:
            fail(f"metric {metric['name']}: unit {got['unit']} "
                 f"!= {metric['unit']}")
        metrics[metric["name"]] = got
    correct = bool(report["correct"]) and code == 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
