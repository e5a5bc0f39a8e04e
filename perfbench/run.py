#!/usr/bin/env python3
"""Builds and runs the paper-workload benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload ci-short-tcp --seed 1 --seconds 20 --trace 0

Builds the TERAPHIM library and the perfbench binary from source into
.bench_build/ (Release), then runs one workload. The last line of standard
output is the result JSON {correct, attempted, failed, metrics}. The exit
code is non-zero when the build fails, a correctness gate fails, or the
run does not finish in time.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("ci-short-tcp", "cv-live-mix")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build(bench_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD_DIR, "perfbench")


def commit_id():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def source_digest(paths):
    """SHA-256 over every file the benchmark compiles, in path order."""
    h = hashlib.sha256()
    files = []
    for top in paths:
        if os.path.isfile(top):
            files.append(top)
        for dirpath, _, names in os.walk(top):
            files.extend(os.path.join(dirpath, n) for n in names)
    for path in sorted(files):
        if path.endswith((".py", ".md")) or os.sep + "__pycache__" in path:
            continue
        h.update(path.encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=19980406)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        log("no TERAPHIM sources under ./src; run from the repository root")
        return 1
    binary = build(bench_dir)
    if binary is None:
        log("build failed")
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit_id(),
           "--source-digest", source_digest(["src", os.path.join("bench", "bench_common.h"),
                                             bench_dir])]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or ""))
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S}s")
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        log(f"{args.workload} exited with code {proc.returncode}")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
