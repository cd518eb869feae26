#!/usr/bin/env bash
# In-repo static lint gate (docs/static-analysis.md). Two layers:
#
#   1. clang-tidy over src/ via the .clang-tidy profile — runs only when
#      clang-tidy AND a compile_commands.json are available (CMake exports
#      one into the build dir). Absence is a skip, not a pass-with-warning:
#      layer 2 always runs, so the repo invariants below gate every CI job
#      even on toolchains without clang.
#
#   2. Portable grep-based lints enforcing repo invariants that no compiler
#      flag covers:
#        - the sanitizer suppressions file stays EMPTY (a suppression is a
#          deferred bug; see scripts/san_env.sh)
#        - no naked `new` / `delete` in src/ — ownership goes through
#          make_unique/make_shared/containers (there is no arena allocator
#          in-tree; if one lands, exempt its files here, not call sites)
#        - every std::atomic member/global declared in src/obs/, src/codec/,
#          src/transport/ and
#          src/runtime/ carries an adjacent `// order:` comment (same line
#          or within the 3 lines above) stating its memory-ordering
#          argument — the happens-before reasoning is part of the code
#        - no rand()/srand()/time() in src/ — all randomness flows through
#          the seeded util/rng.h so every run is reproducible
#        - no %f/%e/%a printf conversions in the JSON/stats emitters
#          (src/obs/, src/runtime/stats.cpp) — fixed-point rendering of
#          doubles bloats artifacts and invites locale/precision drift;
#          use %g forms via obs::json_number
#        - no libm tanh (std::tanh, tanhf, ::tanh, __builtin_tanh*) anywhere
#          in src/ — the shared GELU (src/tensor/gelu.{h,cpp}) is
#          x / (1 + exp(-2u)) on the shared exp kernel, so no tanh runs in
#          the library, and a libm one would make the tape's and the fp32
#          engine's bits hang on the host's libm
#        - no std::mutex / std::lock_guard in src/runtime/stats.{h,cpp} —
#          RuntimeStats stays a lock-free view over its metrics registry;
#          a tally that seems to need a lock belongs in a registry series
#        - no libm exp (std::exp*, ::exp, expf/expl/exp2*/expm1*,
#          __builtin_exp*) in src/ outside the shared exp kernel
#          (src/tensor/exp.{h,cpp}) — the tape and the fp32 engine must run
#          ONE exp, and its bits must not depend on which expf build the
#          host's libm dispatches to
#        - no fused multiply-add (an FMA intrinsic: *fmadd*/*fmsub*/
#          *fnmadd*/*fnmsub*; std::fma; fma/fmaf/fmal calls;
#          __builtin_fma*) in src/ outside the kernels whose contract fuses:
#          gemm_nn (src/tensor/ops_matmul.cpp) and the fp32 engine's
#          attention chains, which mirror it (src/runtime/engine.cpp). A
#          fused op elsewhere would put a chain out of step with the tape
#          op it must equal
#        - the "Sizing `ServerConfig`" table in docs/serving.md names
#          exactly the top-level fields of struct ServerConfig
#          (src/runtime/server.h), in both directions — a new server knob
#          needs its row, and a deleted one takes its row with it
#        - no console output in src/runtime/ (a printf/fprintf/puts/perror
#          call, std::cout/std::cerr/std::clog, or stdout/stderr) — the
#          serving tier fails through run() (StreamScheduler::fail), never
#          through a console line; snprintf/vsnprintf string formatting
#          passes
#        - one receive walk: ecc_decode( has one call site in src/ — the
#          RAW32 and codec depacketizers parse packets through the one
#          shared walker (src/transport/csi2.cpp), not through copies of it
#          that drift apart
#
# Usage: scripts/check_static.sh [build-dir]   (default: build)
set -uo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-${BUILD_DIR:-build}}
FAILURES=0

fail() {
  echo "check_static: FAIL: $1" >&2
  FAILURES=$((FAILURES + 1))
}

# Strips // line comments and string literal CONTENTS (quotes stay, so
# format-string lints keep their own matching) to keep the greps below from
# tripping on prose. Not a full lexer; good enough for this codebase's style.
strip_noise() {
  sed -e 's://.*$::' -e 's:"[^"]*":"":g' "$1"
}

SRC_FILES=$(find src -name '*.cpp' -o -name '*.h' | sort)

# --- 1. suppressions file must be empty -------------------------------------
if grep -vE '^\s*(#|$)' scripts/sanitizer.supp > /dev/null 2>&1; then
  fail "scripts/sanitizer.supp has active suppressions — fix the bug instead:
$(grep -nvE '^\s*(#|$)' scripts/sanitizer.supp)"
fi

# --- 2. no naked new/delete in src/ -----------------------------------------
for f in $SRC_FILES; do
  HITS=$(strip_noise "$f" | grep -nE '(^|[^_[:alnum:]])(new[[:space:]]+[[:alnum:]_:<(]|new[[:space:]]*\[|delete[[:space:]]*\[|delete[[:space:]]+[[:alnum:]_*(])' | grep -vE 'order:')
  if [ -n "$HITS" ]; then
    fail "naked new/delete in $f (use make_unique/make_shared/containers):
$HITS"
  fi
done

# --- 3. std::atomic declarations need an adjacent '// order:' comment -------
# The concurrency-heavy test suites are in scope too: a relaxed tally in a
# stress test is exactly where an unjustified ordering assumption hides.
for f in $(find src/obs src/runtime src/codec src/transport \
    tests/test_stress.cpp tests/test_overload.cpp tests/chaos.h \
    -name '*.h' -o -name '*.cpp' | sort); do
  HITS=$(awk '
    /\/\/.*order:/ { last_order = NR }
    # a contiguous // comment block extends an order: annotation downward,
    # so multi-line happens-before arguments count as adjacent
    /^[[:space:]]*\/\// { if (last_order && NR - last_order == 1) last_order = NR }
    /std::atomic</ {
      # a declaration (or local) introducing an atomic: require an order
      # comment on this line or within the 3 lines above
      if ($0 !~ /\/\/.*order:/ && (last_order == 0 || NR - last_order > 3)) {
        printf "%d:%s\n", NR, $0
      }
    }
  ' "$f")
  if [ -n "$HITS" ]; then
    fail "std::atomic without an adjacent '// order:' justification in $f:
$HITS"
  fi
done

# --- 4. no unseeded libc randomness / wall-clock seeding in src/ ------------
for f in $SRC_FILES; do
  HITS=$(strip_noise "$f" | grep -nE '(^|[^_[:alnum:]:.>])(rand|srand|time)\(' )
  if [ -n "$HITS" ]; then
    fail "rand()/srand()/time() in $f — use the seeded util/rng.h Rng:
$HITS"
  fi
done

# --- 5. no fixed-point float printf conversions in the JSON emitters --------
for f in src/obs/*.cpp src/obs/*.h src/runtime/stats.cpp; do
  HITS=$(grep -nE '%[-+ #0-9.]*l?[feFEaA]["0-9]' "$f")
  if [ -n "$HITS" ]; then
    fail "%f/%e/%a printf conversion in JSON emitter $f — use %g via json_number:
$HITS"
  fi
done

# --- 6. no tanh: the shared GELU runs on the shared exp -------------------
for f in $SRC_FILES; do
  HITS=$(strip_noise "$f" | grep -nE 'std::tanh|tanhf|(^|[^_[:alnum:]])::tanh[fl]?[[:space:]]*\(|__builtin_tanh')
  if [ -n "$HITS" ]; then
    fail "libm tanh in $f — call detail::gelu_ref/gelu_array (tensor/gelu.h):
$HITS"
  fi
done

# --- 7. RuntimeStats holds no lock: a pure view over its registry ----------
for f in src/runtime/stats.h src/runtime/stats.cpp; do
  HITS=$(strip_noise "$f" | grep -nE 'std::(mutex|lock_guard)')
  if [ -n "$HITS" ]; then
    fail "std::mutex/std::lock_guard in $f — record into a registry series instead:
$HITS"
  fi
done

# --- 8. one exp: the shared exp kernel ---------------------------------------
# Whole libm names only (exp, expf, expl, exp2*, expm1*): std::exponential_
# distribution, __builtin_expect, exp_ref and fast_exp_negative pass. A bare unqualified exp( is the tape's Tensor op —
# inside namespace snappix it hides the C function, so exp(float) does not
# compile there.
EXP_NAME='exp(2|m1)?[fl]?([^_[:alnum:]]|$)'
for f in $SRC_FILES; do
  case "$f" in
    src/tensor/exp.h | src/tensor/exp.cpp) continue ;;
  esac
  HITS=$(strip_noise "$f" | grep -nE "(std::|__builtin_|(^|[^_[:alnum:]:])::)$EXP_NAME|(^|[^_[:alnum:]:])exp(2|m1|[fl])[fl]?([^_[:alnum:]]|\$)")
  if [ -n "$HITS" ]; then
    fail "libm exp in $f — call detail::exp_ref/exp_array (tensor/exp.h):
$HITS"
  fi
done

# --- 9. fused multiply-adds only where the contract fuses ------------------
# Whole names only: std::fmax, std::fmin and identifiers that merely start
# with fma pass.
FMA_USE='fn?m(add|sub)|std::fma[fl]?([^_[:alnum:]]|$)|(^|[^_[:alnum:]])fma[fl]?[[:space:]]*\(|__builtin_fma'
for f in $SRC_FILES; do
  case "$f" in
    src/tensor/ops_matmul.cpp | src/runtime/engine.cpp) continue ;;
  esac
  HITS=$(strip_noise "$f" | grep -nE "$FMA_USE")
  if [ -n "$HITS" ]; then
    fail "fused multiply-add in $f — only gemm_nn and the engine's attention chains fuse:
$HITS"
  fi
done

# --- 10. the ServerConfig knob table names exactly ServerConfig's fields ----
# A row counts by its first column up to the first `.` (`batch.max_batch`
# names `batch`). Fields are the 2-space-indented declarations of the struct,
# each named by its last identifier once any `= value` / `{value}` is cut.
CONFIG_FIELDS=$(awk '/^struct ServerConfig \{/ { inside = 1; next }
    inside && /^\};/ { exit }
    inside' src/runtime/server.h |
  sed -e 's://.*$::' |
  grep -E '^  [^[:space:]].*;[[:space:]]*$' |
  sed -E -e 's/[[:space:]]*(=[^;]*|\{[^}]*\})?;[[:space:]]*$//' \
    -e 's/.*[^_[:alnum:]]([_[:alpha:]][_[:alnum:]]*)$/\1/' | sort -u)
DOC_KNOBS=$(awk '/^## Sizing `ServerConfig`/ { inside = 1; next }
    inside && /^\|/ { rows = 1; print; next }
    inside && rows { exit }' docs/serving.md |
  sed -nE 's/^\|[[:space:]]*`([^`]*)`.*/\1/p' | cut -d. -f1 | sort -u)
if [ -z "$CONFIG_FIELDS" ] || [ -z "$DOC_KNOBS" ]; then
  fail "could not read ServerConfig's fields (src/runtime/server.h) or the \"Sizing \`ServerConfig\`\" table (docs/serving.md)"
else
  UNDOCUMENTED=$(comm -23 <(echo "$CONFIG_FIELDS") <(echo "$DOC_KNOBS"))
  STALE=$(comm -13 <(echo "$CONFIG_FIELDS") <(echo "$DOC_KNOBS"))
  if [ -n "$UNDOCUMENTED" ]; then
    fail "ServerConfig fields without a row in docs/serving.md's knob table:
$UNDOCUMENTED"
  fi
  if [ -n "$STALE" ]; then
    fail "docs/serving.md knob-table rows that name no ServerConfig field:
$STALE"
  fi
fi

# --- 11. the serving tier fails through run(), not a console line ----------
# Whole names only: snprintf/vsnprintf, appendf, identifiers such as
# stderr_count and a format(printf, ...) attribute pass.
CONSOLE_USE='(^|[^_[:alnum:]])(v?f?printf|f?puts|perror)[[:space:]]*\(|std::(cout|cerr|clog)([^_[:alnum:]]|$)|(^|[^_[:alnum:]])(stdout|stderr)([^_[:alnum:]]|$)'
for f in $(find src/runtime -name '*.cpp' -o -name '*.h' | sort); do
  HITS=$(strip_noise "$f" | grep -nE "$CONSOLE_USE")
  if [ -n "$HITS" ]; then
    fail "console output in $f — a serving failure goes through StreamScheduler::fail and run():
$HITS"
  fi
done

# --- 12. one receive walk: ecc_decode( has one call site -------------------
# Its declaration and definition (`EccDecode ecc_decode(`) are no calls.
ECC_CALLS=$(for f in $SRC_FILES; do
  strip_noise "$f" | sed -E 's/EccDecode[[:space:]]+ecc_decode[[:space:]]*\(//g' |
    grep -noE '(^|[^_[:alnum:]])ecc_decode[[:space:]]*\(' | sed "s|^|$f:|"
done)
if [ "$(printf '%s' "$ECC_CALLS" | grep -c .)" -gt 1 ]; then
  fail "ecc_decode( has more than one call site in src/ — both depacketizers run the one packet walker (src/transport/csi2.cpp):
$ECC_CALLS"
fi

# --- clang-tidy (when available) --------------------------------------------
if command -v clang-tidy > /dev/null 2>&1 && [ -f "$BUILD_DIR/compile_commands.json" ]; then
  echo "check_static: running clang-tidy over src/ (profile: .clang-tidy)"
  if ! find src -name '*.cpp' | sort | xargs clang-tidy -p "$BUILD_DIR" --quiet; then
    fail "clang-tidy reported errors (see output above)"
  fi
else
  echo "check_static: clang-tidy or $BUILD_DIR/compile_commands.json not found — grep lints only"
fi

if [ "$FAILURES" -gt 0 ]; then
  echo "check_static: $FAILURES lint failure(s)" >&2
  exit 1
fi
echo "check_static: OK"
