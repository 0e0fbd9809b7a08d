#!/usr/bin/env bash
# Perf-regression harness: build the bench binaries (Release) and emit the
# machine-readable benchmark record.
#
#   scripts/bench.sh                 # full run -> BENCH_micro.json,
#                                    #            BENCH_fig5.json,
#                                    #            BENCH_fig7.json in repo root
#   scripts/bench.sh --quick         # tiny budgets (CI / smoke)
#   scripts/bench.sh --c10k          # additionally run the real-socket
#                                    # C10K harness -> BENCH_c10k.json
#   scripts/bench.sh --churn         # additionally run the control-plane
#                                    # churn harness -> BENCH_churn.json
#                                    # (enforces: resumed handshakes >= 5x
#                                    # full rate; cert-pool hit >= 90%)
#   scripts/bench.sh --out DIR       # write the JSON files elsewhere
#   scripts/bench.sh --backend B     # pin the crypto backend (auto|scalar|aesni)
#                                    # via MBTLS_CRYPTO_BACKEND for every binary
#
# bench_microcrypto additionally enforces the fast-vs-reference speedup
# floors (p256 mul_base >= 3x, AES-GCM seal >= 1.5x, and — when the aesni
# backend resolves — AES-NI seal >= 3x over the scalar fast path), so a perf
# regression fails this script. The JSON files in the repo root are the
# committed baseline; re-run this script and commit the diff when the crypto
# changes. Every JSON records the backend + CPU features that produced it,
# so a baseline refreshed under --backend scalar is distinguishable from an
# AES-NI one.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo_root"

out_dir="$repo_root"
quick=0
c10k=0
churn=0
backend=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) quick=1; shift ;;
    --c10k) c10k=1; shift ;;
    --churn) churn=1; shift ;;
    --out) out_dir="$2"; shift 2 ;;
    --backend) backend="$2"; shift 2 ;;
    *) echo "usage: scripts/bench.sh [--quick] [--c10k] [--churn] [--out DIR] [--backend auto|scalar|aesni]" >&2; exit 2 ;;
  esac
done
mkdir -p "$out_dir"
if [[ -n "$backend" ]]; then
  export MBTLS_CRYPTO_BACKEND="$backend"
  echo "crypto backend pinned: MBTLS_CRYPTO_BACKEND=$backend"
fi

jobs="$(nproc 2>/dev/null || echo 2)"

echo "=== bench: configure + build (Release) ==="
cmake --preset default >/dev/null
targets=(bench_microcrypto bench_fig5_handshake_cpu bench_fig7_sgx_throughput)
[[ "$c10k" == 1 ]] && targets+=(bench_c10k)
[[ "$churn" == 1 ]] && targets+=(bench_churn)
cmake --build --preset default -j "$jobs" --target "${targets[@]}"

micro_args=()
fig5_args=(--trials 20)
fig7_args=(--seconds 0.25)
if [[ "$quick" == 1 ]]; then
  micro_args=(--quick)
  fig5_args=(--trials 2)
  fig7_args=(--seconds 0.01)
fi

echo
echo "=== bench_microcrypto ==="
./build/bench/bench_microcrypto "${micro_args[@]}" --json "$out_dir/BENCH_micro.json"

echo
echo "=== bench_fig5_handshake_cpu ==="
./build/bench/bench_fig5_handshake_cpu "${fig5_args[@]}" --json "$out_dir/BENCH_fig5.json"

echo
echo "=== bench_fig7_sgx_throughput ==="
./build/bench/bench_fig7_sgx_throughput "${fig7_args[@]}" --json "$out_dir/BENCH_fig7.json"

if [[ "$c10k" == 1 ]]; then
  echo
  echo "=== bench_c10k (multi-loop SO_REUSEPORT grid, real loopback sockets) ==="
  # Full grid sweeps loops {1,2,4} plus the 10k-session row at 4 loops and
  # enforces the >=2.5x capacity-scaling floor (4 loops vs 1); quick mode
  # runs a tiny {1,2}-loop grid with no floor.
  c10k_args=(--grid)
  [[ "$quick" == 1 ]] && c10k_args=(--quick --grid)  # 25 sessions, 0.3 s window
  ./build/bench/bench_c10k "${c10k_args[@]}" --json "$out_dir/BENCH_c10k.json"
fi

if [[ "$churn" == 1 ]]; then
  echo
  echo "=== bench_churn (session cache + tickets + cert pool under churn) ==="
  churn_args=()
  [[ "$quick" == 1 ]] && churn_args=(--quick)  # 6 clients x 5 sessions, 40 origins
  ./build/bench/bench_churn "${churn_args[@]}" --json "$out_dir/BENCH_churn.json"
fi

echo
echo "wrote: $out_dir/BENCH_micro.json $out_dir/BENCH_fig5.json $out_dir/BENCH_fig7.json"
if [[ "$c10k" == 1 ]]; then
  echo "wrote: $out_dir/BENCH_c10k.json"
fi
if [[ "$churn" == 1 ]]; then
  echo "wrote: $out_dir/BENCH_churn.json"
fi
grep -o '"backend":"[^"]*","cpu_features":"[^"]*"' "$out_dir/BENCH_micro.json" \
  | sed 's/^/recorded /' || true
