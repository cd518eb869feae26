#!/usr/bin/env bash
# CI entry point, in two modes selected by SANITIZER (docs/static-analysis.md):
#
#   SANITIZER=off (default)  configure, build (-Werror), run the test suite,
#                            run the static lint gate (scripts/check_static.sh),
#                            check the docs tree's links, diff the wire-bits
#                            and engine-bits hashes against their golden files
#                            (bench/wire_bits.golden, bench/engine_bits.golden),
#                            then run the streaming throughput, observability,
#                            and saturation benches in quick mode (emits
#                            BENCH_streaming.json, BENCH_pattern_cache.json,
#                            BENCH_sharded.json, BENCH_framed.json,
#                            BENCH_int8.json, BENCH_obs.json,
#                            BENCH_saturation.json, BENCH_codec.json,
#                            BENCH_resilience.json and trace_obs.json in
#                            build/), parse every one of those files as
#                            strict JSON (no NaN/Infinity tokens), and
#                            finally build the fleet benchmark
#                            (perfbench/) and run each of its workloads for
#                            one second. Every bench step runs even when an
#                            earlier one failed; the script then lists the
#                            failed steps and exits 1.
#   SANITIZER=tsan           build everything under -fsanitize=thread and run
#                            the full test suite (the stress suite included)
#                            with the pinned runtime options from
#                            scripts/san_env.sh, then diff the engine-bits
#                            hashes against bench/engine_bits.golden. The
#                            TSan build runs the scalar SIMD fallbacks, so
#                            this checks them against the same file as the
#                            AVX2 kernels. halt_on_error=1: the first
#                            finding fails CI.
#   SANITIZER=asan           same, under -fsanitize=address,undefined (+LSan).
#
# Sanitizer modes skip the timing benches and lints: their job is the
# race/UB gate (and, through the engine bits, the scalar-path gate), and
# sanitized timings would only add noise. Perf claims come from the default
# job's benches.
set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZER=${SANITIZER:-off}
case "$SANITIZER" in
  off)  BUILD_DIR=${BUILD_DIR:-build};      SAN_PRESET="off" ;;
  tsan) BUILD_DIR=${BUILD_DIR:-build-tsan}; SAN_PRESET="thread" ;;
  asan) BUILD_DIR=${BUILD_DIR:-build-asan}; SAN_PRESET="address;undefined" ;;
  *) echo "ci.sh: SANITIZER must be off, tsan, or asan (got '$SANITIZER')" >&2
     exit 2 ;;
esac

# Engine bits: one hash per serving output (tape and fp32 engine logits and
# reconstructions, the calibrated QuantSpec, int8 logits and reconstructions)
# at 16x16 and 32x32. Every engine stage is integer or exact IEEE arithmetic
# (the GEMM and attention chains' fused multiply-adds are one IEEE rounding:
# FMA instructions under AVX2, std::fma in the scalar fallbacks), exp is the
# library's own port (tensor/exp.h) and the GELU is built on it
# (tensor/gelu.h), and the int8 LayerNorm's scalar fallback runs the AVX2
# path's lane order; so the output must equal the committed golden file on
# any host and on every code path (the int8 GEMM's AMX tiles or its pair
# kernel, AVX2 kernels or scalar fallbacks); a diff means some served bit
# moved.
check_engine_bits() {
  "$BUILD_DIR/bench_engine_bits" | diff bench/engine_bits.golden -
  "$BUILD_DIR/bench_engine_bits" --pair-kernel | diff bench/engine_bits.golden -
  echo "bench_engine_bits: identical to bench/engine_bits.golden (int8 on the host's" \
    "GEMM kernel and pinned to the pair kernel)"
}

cmake -B "$BUILD_DIR" -S . -DSNAPPIX_SANITIZE="$SAN_PRESET"
cmake --build "$BUILD_DIR" -j"$(nproc)"

if [ "$SANITIZER" != "off" ]; then
  # Pinned runtime options: halt on the first finding, no suppressions,
  # reports mirrored to $BUILD_DIR/san_report.* (uploaded as CI artifacts).
  # shellcheck source=scripts/san_env.sh
  SNAPPIX_SAN_LOG="$PWD/$BUILD_DIR/san_report" source scripts/san_env.sh
  ctest --test-dir "$BUILD_DIR" --output-on-failure
  check_engine_bits
  echo "ci.sh: $SANITIZER run clean (suppressions file empty by policy)"
  exit 0
fi

ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"

# Static lint gate: clang-tidy (when installed) + the portable grep lints.
./scripts/check_static.sh "$BUILD_DIR"

# Docs: every relative link in docs/*.md and README.md must resolve.
./scripts/check_docs_links.sh

# Wire bits: one hash per edge-path stage (CE encode, quantize, bit-plane
# chunks, packets, depacketized tensors, link transfers, header ECC, CRC) for
# fixed seeds. Every stage is integer or exact IEEE arithmetic, so the output
# must equal the committed golden file on any host; a diff means some wire
# byte moved.
"$BUILD_DIR/bench_wire_bits" | diff bench/wire_bits.golden -
echo "bench_wire_bits: identical to bench/wire_bits.golden"

check_engine_bits

# Bench steps run through run_step: a failing step is recorded and the
# remaining steps still run, so one noisy timing gate cannot hide the gates
# after it. Once the last step has run, every failed step is listed and the
# script exits 1. (Everything above, from the build to the golden diffs,
# still stops at the first failure.)
FAILED_STEPS=()
run_step() {
  local name=$1
  shift
  local status=0
  # The step runs in a subshell under errexit; the caller's errexit is off
  # while it runs, so a failing step returns here instead of ending ci.sh.
  set +e
  (set -e; "$@")
  status=$?
  set -e
  if [ "$status" -ne 0 ]; then
    echo "ci.sh: step '$name' FAILED (exit $status); running the remaining steps" >&2
    FAILED_STEPS+=("$name")
  fi
}

# Runs `<bench> --quick` from the build directory, then prints the
# BENCH_*.json files it names (a bench writes them before its gates decide
# its exit status) and returns the bench's status.
quick_bench() {
  local bench=$1
  shift
  local status=0
  (cd "$BUILD_DIR" && "./$bench" --quick) || status=$?
  for json in "$@"; do
    echo "$json:"
    cat "$BUILD_DIR/$json"
  done
  return "$status"
}

# Streaming bench: quick mode keeps CI fast; the binary exits non-zero if any
# serving arm (batched, pattern-cache, sharded work-stealing, framed MIPI
# transport at zero faults, the fp32 half of the mixed-precision fleet)
# diverges bitwise from the sequential path, if the cache misses its
# hit/eviction gates, if the lossy framed arm's drop counters diverge from
# the injected ground truth, if int8-vs-fp32 top-1 agreement falls below
# 0.98, or — where the hardware supports it — if sharded serving falls below
# 1.5x the single-consumer arm (>= 4 hw threads) / int8 below 1.8x fp32
# classify throughput (AVX2 hosts).
run_step bench_streaming_throughput quick_bench bench_streaming_throughput \
  BENCH_streaming.json BENCH_pattern_cache.json BENCH_sharded.json BENCH_framed.json \
  BENCH_int8.json

# Observability bench: exits non-zero if tracing with no frames sampled costs
# more than 2% throughput, 1-in-8 per-camera sampling costs more than 5%, any
# served bit differs between the traced and untraced arms, or the sampled
# arm's trace is incomplete (a sampled served frame missing any of its
# frame/capture/queue_wait/batch_assembly/infer spans), unsorted, truncated,
# or not valid JSON. Emits BENCH_obs.json and the Perfetto-loadable
# trace_obs.json.
run_step bench_obs_overhead quick_bench bench_obs_overhead BENCH_obs.json

# Saturation bench: offers ~3x the measured serving capacity through a
# realtime + best-effort fleet and exits non-zero if any overload invariant
# breaks — a realtime frame shed, per-camera conservation (offered == served
# + shed) off by even one frame, a starved camera, unbounded realtime p99,
# the drop-late arm shedding nothing for kDeadline, or any served prediction
# differing from the unloaded batch-1 reference (see docs/serving.md).
run_step bench_saturation quick_bench bench_saturation BENCH_saturation.json

# Codec frontier bench: sweeps the bit-plane wire tier across decode depths
# and exits non-zero if the full-depth framed decode is not bit-identical to
# the in-memory quantize round trip, if no truncated depth reaches 0.98 top-1
# agreement with full-fidelity classification, if that rate point puts more
# than 0.5x the raw float32 framed bytes on the wire, or if a served fleet
# classifying from early planes diverges bitwise from the pre-truncated
# in-memory reference (see docs/serving.md).
run_step bench_codec_frontier quick_bench bench_codec_frontier BENCH_codec.json

# Resilience bench: chaos-drives the health supervision tier and exits
# non-zero if any resilience invariant breaks — the burst-afflicted camera
# failing to engage the degradation ladder or to recover to full fidelity
# within the hysteresis deadline, a healthy camera's (or a full-fidelity)
# answer diverging from the fault-free reference, per-camera conservation
# off by one frame, the injected shard stall going undetected, the rescue
# re-routing nothing, or a realtime frame shed during the rescue (see
# docs/resilience.md).
run_step bench_resilience quick_bench bench_resilience BENCH_resilience.json

# Every bench artifact and the exported trace must parse as strict JSON with
# a second implementation: python's json module, with NaN and Infinity tokens
# rejected (the emitters render every double through obs::json_number, which
# never prints them). A missing artifact fails too.
strict_json() {
  python3 - "$BUILD_DIR" << 'EOF'
import json, os, sys
def strict(name):
    path = os.path.join(sys.argv[1], name)
    with open(path) as f:
        return json.load(f, parse_constant=lambda tok: sys.exit(f"{name}: non-finite token {tok!r}"))
for bench in ("streaming", "pattern_cache", "sharded", "framed", "int8", "obs", "saturation",
              "codec", "resilience"):
    strict(f"BENCH_{bench}.json")
    print(f"BENCH_{bench}.json: valid JSON")
events = strict("trace_obs.json")["traceEvents"]
assert events, "trace has no events"
print(f"trace_obs.json: valid JSON, {len(events)} trace events")
EOF
}
run_step "strict JSON parse" strict_json

# Fleet benchmark: perfbench/ is its own CMake package, so the build above
# never compiles it. Build it against this tree (into $BUILD_DIR/perfbench)
# and run each workload for one second; the run includes perfbench's own
# output checks, and any non-zero exit fails CI.
for workload in ar_fp32 codec_edge; do
  run_step "perfbench $workload" env CARGO_TARGET_DIR="$BUILD_DIR" python3 perfbench/run.py \
    --workload "$workload" --seed 1 --seconds 1 --trace 0
done

if [ "${#FAILED_STEPS[@]}" -gt 0 ]; then
  echo "ci.sh: ${#FAILED_STEPS[@]} step(s) failed:" >&2
  for name in "${FAILED_STEPS[@]}"; do
    echo "  - $name" >&2
  done
  exit 1
fi
echo "ci.sh: every step passed"
