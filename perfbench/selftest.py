#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark.

    python3 perfbench/selftest.py [--seconds 2] [--seed 1]

Runs every workload named in BENCHMARK.json briefly, untraced and traced,
through perfbench/run.py, and checks that:
  * each run exits 0 with a correct result and no failed operation (the
    benchmark compares every delivered byte against the seeded inputs);
  * the untraced run prints exactly the end_to_end metrics of BENCHMARK.json,
    with their units, all finite and non-zero;
  * the traced run prints exactly the per_layer metrics, with their units,
    and writes a Chrome trace-event file;
  * bulk keeps its busiest loop at least 90% busy, and churn reports no
    middlebox authentication failure and resumes (nearly) every dial that
    offered resumption.
Exits non-zero if any run breaks a check.
"""
import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import build_dir  # noqa: E402  (the directory run.py builds into)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = r.stdout.strip().split("\n")
    try:
        return r.returncode, json.loads(lines[-1]), r.stderr
    except ValueError:
        return r.returncode, None, r.stderr


def check(spec, workload, trace, rc, result):
    problems = []
    if result is None:
        return [f"exit {rc} without a result line"]
    if rc != 0:
        problems.append(f"exit status {rc}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(f"missing {sorted(set(want) - set(got))}, "
                        f"unexpected {sorted(set(got) - set(want))}")
    for name, m in got.items():
        if name in want and m["unit"] != want[name]:
            problems.append(f"{name}: unit {m['unit']} != {want[name]}")
        if not math.isfinite(m["value"]) or (not trace and m["value"] == 0):
            problems.append(f"{name}: value {m['value']}")
    if trace and workload == "bulk" and got["net.posix.busiest_loop_busy_share"]["value"] < 0.9:
        problems.append("bulk: busiest loop under 90% busy")
    if trace and workload == "churn":
        if got["mbtls.middlebox.auth_failures"]["value"] != 0:
            problems.append("churn: middlebox authentication failures")
        if got["mbtls.cache.resumed_fraction"]["value"] < 0.9:
            problems.append("churn: dials that offered resumption fell back to full handshakes")
    return problems


def main():
    ap = argparse.ArgumentParser(description="Self-test of the end-to-end benchmark.")
    ap.add_argument("--seconds", type=float, default=2)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    for w in spec["workloads"]:
        for trace in (0, 1):
            rc, result, stderr = run(w["name"], args.seed, args.seconds, trace)
            problems = check(spec, w["name"], trace, rc, result)
            if trace and not problems:
                trace_file = build_dir() / f"trace-{w['name']}-{args.seed}.json"
                try:
                    json.loads(trace_file.read_text())["traceEvents"]
                except (OSError, ValueError, KeyError):
                    problems.append(f"no readable trace file at {trace_file}")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"{w['name']:6s} trace={trace}  {status}", flush=True)
            if problems:
                sys.stderr.write(stderr)
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
