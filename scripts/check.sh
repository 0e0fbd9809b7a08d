#!/usr/bin/env bash
# Full local gate: warnings-as-errors build + the full test suite,
# secret-hygiene lint, a quick bench run, the threaded tests under TSan, then
# the end-to-end benchmark's self-test and the full suite under ASan(+LSan)
# and UBSan.
#
#   scripts/check.sh            # everything
#   scripts/check.sh --fast     # tier-1 build + tests + lint + bench + tsan only
#
# Run from anywhere; paths resolve relative to the repo root.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo_root"

jobs="$(nproc 2>/dev/null || echo 2)"
fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

step() { printf '\n=== %s ===\n' "$*"; }

step "tier-1: configure + build (-Werror)"
cmake --preset default >/dev/null
cmake --build --preset default -j "$jobs"

# The full suite, transport conformance, chaos and trace invariants included.
step "tier-1: ctest"
ctest --preset default -j "$jobs" --output-on-failure

step "mbtls-lint: src/ tests/ tools/ bench/ (dataflow + baseline)"
# Machine-readable findings; the per-rule counts land on stderr. A finding
# is fatal unless it is in the reviewed baseline (tools/lint/lint_baseline.txt).
lint_json=/tmp/mbtls-lint-findings.json
if ./build/tools/lint/mbtls-lint --json --baseline tools/lint/lint_baseline.txt \
    src tests tools bench > "$lint_json"; then
  echo "lint clean (findings: $lint_json)"
else
  echo "lint FAILED — non-baselined findings:" >&2
  cat "$lint_json" >&2
  exit 1
fi

step "bench: quick run + JSON emission (scripts/bench.sh --quick --churn)"
# --churn smokes the control-plane harness too: sharded cache + ticket
# rotation + cert pool, with the resumed>=5x, cert-hit>=90% and
# verdict-hit>=90% floors on.
scripts/bench.sh --quick --churn --out /tmp/mbtls-bench-check

# Threads share state in three places: a DRBG handed to another thread, the
# control-plane caches hammered while ticket keys rotate, and the posix
# transport (cross-thread post/eventfd wakeup, 4-loop SO_REUSEPORT groups,
# the loopback sessions and the conformance matrix). A data race there
# corrupts sessions silently, so these run under TSan even in --fast mode.
step "tsan: build threaded tests"
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "$jobs" --target test_chacha_drbg test_control_plane \
  test_posix_loopback test_posix_net test_transport_conformance

step "tsan: DRBG handoff + control-plane hammer + posix transport"
ctest --preset tsan \
  -R 'DrbgThreading\.|ControlPlaneConcurrency\.|PosixLoopback\.|LoopGroup\.|EpollLoop\.(Posted|Pending|CrossThread)|TransportConformance/' \
  --output-on-failure

if [[ "$fast" == 1 ]]; then
  step "fast mode: skipping the benchmark self-test and sanitizer builds"
  exit 0
fi

# Every workload of BENCHMARK.json, untraced and traced: the byte checks and
# the metric contract must hold before a change is measured.
step "perfbench: self-test"
python3 perfbench/selftest.py --seconds 1

step "asan: configure + build"
cmake --preset asan >/dev/null
cmake --build --preset asan -j "$jobs"

step "asan: ctest (leaks + stack-use-after-return on)"
ctest --preset asan -j "$jobs"

step "ubsan: configure + build"
cmake --preset ubsan >/dev/null
cmake --build --preset ubsan -j "$jobs"

step "ubsan: ctest (halt on first report)"
ctest --preset ubsan -j "$jobs"

step "all checks passed"
