#!/usr/bin/env python3
"""Build and run the end-to-end mbTLS benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload bulk|rpc|churn --seed N --seconds S --trace 0|1

Run from the repository root. On first use it builds the repository's
libraries and mbtls_perfbench from source into .bench_build/ (or the
directory named by $CARGO_TARGET_DIR), then runs one workload. Everything
mbtls_perfbench prints is passed through; its last line is the JSON result
{"correct", "attempted", "failed", "metrics"}. A traced run (--trace 1) also
writes its spans as Chrome trace-event JSON into the build directory.
The exit status is non-zero when the build fails, mbtls_perfbench fails, or any
operation failed or produced wrong bytes.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TARGET = "mbtls_perfbench"
RUN_TIMEOUT_S = 170


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", TARGET, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    binary = out / TARGET
    return binary if binary.exists() else None


def git_commit():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["bulk", "rpc", "churn"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit()]
    if args.trace:
        cmd += ["--trace-out", str(out / f"trace-{args.workload}-{args.seed}.json")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = {"correct", "attempted", "failed", "metrics"} == set(result)
    except (ValueError, IndexError):
        ok = False
    if not ok:
        sys.stdout.write(r.stdout)
        print(f"perfbench: {TARGET} exited {r.returncode} without a result line",
              file=sys.stderr)
        return r.returncode or 1
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
