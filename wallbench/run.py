#!/usr/bin/env python3
"""Builds the wall-clock benchmark from the checkout's sources and runs it.

    python3 wallbench/run.py --workload serve-zipf --seed 1 --seconds 30 --trace 0

Builds wallbench/ (which compiles the library from src/) in Release mode
under .bench_build/, runs one workload and passes the binary's output
through. The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}. The exit code is nonzero when
the build fails, the run is invalid, or an output check failed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "wallbench")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "wallbench")
WORKLOADS = ("serve-zipf", "oocore-csv", "pipeline-digix")
RUN_TIMEOUT_S = 175


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark binary; returns its path or None."""
    configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD_DIR, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(os.cpu_count() or 1)
    for cmd in (configure, ["cmake", "--build", BUILD_DIR, "-j", jobs]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return None
    exe = os.path.join(BUILD_DIR, "wallbench")
    return exe if os.path.exists(exe) else None


def source_digest():
    """Content hash of the library and benchmark sources: the commit id of
    a checkout that is not a git repository."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "wallbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    exe = build()
    if exe is None:
        return 2
    work_dir = os.path.join(BUILD_ROOT, "wallbench-work", "run-%d" % os.getpid())
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir,
           "--trace-dir", os.path.join(BUILD_ROOT, "wallbench-traces"),
           "--commit", source_digest()]
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=sys.stderr, text=True)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            log("run exceeded %d s" % RUN_TIMEOUT_S)
            return 4
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = out.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    sys.stdout.write(out)
    sys.stdout.flush()
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        log("wallbench exited with %d and no result" % proc.returncode)
        return proc.returncode or 5
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
