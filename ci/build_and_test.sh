#!/usr/bin/env bash
# Tier-1 verify (see ROADMAP.md): configure, build with -Wall -Wextra
# (warnings are errors in CI), run every registered test, smoke every bench
# that supports it, race the concurrent layers under TSAN, shake the exec
# layer under ASAN/UBSAN, and check that the markdown docs' links resolve.
#
# STAGE selects what runs (the GitHub matrix runs one stage per job):
#   all    - everything below, in order (the default; local tier-1 verify)
#   static - compile-time correctness: architecture-layering linter
#            (ci/check_layering.py, fixture self-test + real tree), Clang
#            thread-safety analysis (ci/check_thread_safety.sh), clang-tidy
#            (ci/check_clang_tidy.sh). The clang-based stages skip loudly
#            on runners without a clang toolchain; the linter always runs.
#   build  - Release+Werror build, ctest, bench smoke, markdown link check
#   asan   - Debug AddressSanitizer+UBSan on the execution-layer tests
#   tsan   - ThreadSanitizer on the concurrent service + sharded tests
set -euo pipefail

cd "$(dirname "$0")/.."

STAGE="${STAGE:-all}"
JOBS="${JOBS:-$(nproc)}"
CMAKE_LAUNCHER_ARGS=()
if command -v ccache >/dev/null 2>&1; then
  CMAKE_LAUNCHER_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

# Regression-gate a fresh bench snapshot against the committed baseline.
# Snapshots are flat one-key-per-line JSON (BenchJson in bench/bench_util.h);
# only gate_* keys are compared — they are deterministic for the fixed
# --smoke configuration (row counts, pruning fractions, pass bits), so any
# drift means behavior changed, not the machine. The key sets must match
# both ways: a baseline key missing from the fresh snapshot fails, and so
# does a fresh gate_* key missing from the baseline, which would otherwise
# never be compared. Trajectory keys (wall times, speedups) are persisted
# but never gated here; the perf targets live inside the bench binaries'
# own PASS/FAIL exit codes.
check_bench_snapshot() {
  local name="$1" baseline="$2" current="$3"
  awk -v tol="${BENCH_GATE_TOL:-0.10}" -v bench="$name" \
      -v base_file="$baseline" '
    function val(v) { return v == "true" ? 1 : v == "false" ? 0 : v + 0 }
    function keyval(line, kv) {
      kv["key"] = substr(line, RSTART + 1, RLENGTH - 2)
      sub(/^[^:]*: */, "", line); sub(/,[ \t]*$/, "", line)
      kv["val"] = line
    }
    FNR == NR {
      if (match($0, /"gate_[^"]*"/)) { keyval($0, kv); base[kv["key"]] = kv["val"] }
      next
    }
    {
      if (match($0, /"gate_[^"]*"/)) { keyval($0, kv); cur[kv["key"]] = kv["val"] }
    }
    END {
      bad = 0
      if (length(base) == 0) {
        printf "bench snapshot %s: baseline has no gate_* keys\n", bench
        exit 1
      }
      for (key in cur) {
        if (!(key in base)) {
          printf "UNBASELINED gate key %s in fresh %s snapshot: add it to %s\n", \
                 key, bench, base_file
          bad++
        }
      }
      for (key in base) {
        if (!(key in cur)) {
          printf "MISSING gate key %s in fresh %s snapshot\n", key, bench
          bad++
          continue
        }
        b = val(base[key]); c = val(cur[key])
        denom = (b < 0 ? -b : b); if (denom < 1e-12) denom = 1e-12
        d = (c - b) / denom; if (d < 0) d = -d
        if (d > tol) {
          printf "REGRESSION %s.%s: baseline %s, got %s (rel diff %.3f > tol %.2f)\n", \
                 bench, key, base[key], cur[key], d, tol
          bad++
        }
      }
      if (bad) exit 1
      printf "bench snapshot %s: %d gate keys within tolerance\n", bench, length(base)
    }
  ' "$baseline" "$current"
}

# Print every valid anchor slug of a markdown file, one per line, using
# GitHub's slugification: lowercase the heading text, strip everything but
# [a-z0-9 _-], turn spaces into hyphens, and suffix repeats with -1, -2, …
# Headings inside fenced code blocks do not produce anchors.
md_anchors() {
  awk '
    /^```/ { fence = !fence; next }
    !fence && /^#+ / {
      s = $0
      sub(/^#+ +/, "", s)
      s = tolower(s)
      gsub(/[^a-z0-9 _-]/, "", s)
      gsub(/ /, "-", s)
      if (seen[s]++) s = s "-" (seen[s] - 1)
      print s
    }
  ' "$1"
}

run_static_stage() {
  # ---- architecture layering: the #include graph must respect the layer
  # rules (clients enter via service/, the facade never includes its
  # Session client, nobody reaches optimizer internals around the pass
  # facade). --self-test first proves the linter rejects
  # the committed bad fixtures before trusting its verdict on the tree.
  echo "== layering linter =="
  python3 ci/check_layering.py --self-test

  # ---- Clang-only analyses: thread-safety annotations and clang-tidy.
  # Both discover their tool and skip loudly (exit 0) when the runner has
  # no clang toolchain; see the script headers for the rationale.
  echo "== thread-safety analysis =="
  ./ci/check_thread_safety.sh

  echo "== clang-tidy =="
  ./ci/check_clang_tidy.sh
}

run_build_stage() {
  local build_dir="${BUILD_DIR:-build-ci}"
  cmake -B "$build_dir" -S . -DCOSTDB_WERROR=ON "${CMAKE_LAUNCHER_ARGS[@]}"
  cmake --build "$build_dir" -j "$JOBS"
  ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS"

  # ---- test registration drift guard: every tests/*_test.cc must be a
  # registered ctest target (the inverse of the bench --smoke discovery
  # below). CMake globs the directory, but a stale configure or a renamed
  # file can silently drop a suite from the run; a test that exists but
  # never executes is worse than a missing one.
  echo "== test registration drift guard =="
  local registered missing=0 test_src test_name
  # ctest -N right-aligns test numbers ("Test  #1:" vs "Test #10:"), so
  # allow any spacing between "Test" and "#".
  registered=$(ctest --test-dir "$build_dir" -N 2>/dev/null |
    sed -n 's/^ *Test *#[0-9]*: //p')
  for test_src in tests/*_test.cc; do
    [ -f "$test_src" ] || continue
    test_name="$(basename "$test_src" .cc)"
    if ! grep -qx "$test_name" <<<"$registered"; then
      echo "DRIFT: tests/$test_name.cc exists but is not a registered ctest target"
      missing=$((missing + 1))
    fi
  done
  if [ "$missing" -ne 0 ]; then
    echo "test registration drift guard FAILED ($missing unregistered)"
    exit 1
  fi
  echo "test registration OK ($(wc -l <<<"$registered") targets)"

  # ---- bench baseline drift guard: every bench must either have a
  # committed gate snapshot in ci/bench_baselines/ or carry an explicit
  # "bench-baseline: none" marker comment explaining why it has none. A
  # bench added without either silently opts out of regression gating —
  # this makes the opt-out a reviewed, committed decision. The inverse is
  # guarded too: a baseline whose bench source is gone is stale and fails.
  echo "== bench baseline drift guard =="
  local base_drift=0 base
  for src in bench/bench_*.cc; do
    name="$(basename "$src" .cc)"
    if [ -f "ci/bench_baselines/BENCH_$name.json" ]; then
      if ! grep -q -- '--json' "$src"; then
        echo "DRIFT: ci/bench_baselines/BENCH_$name.json exists but $src does" \
             "not advertise a JSON snapshot (the smoke loop greps the literal" \
             "flag) — the baseline can never be gated"
        base_drift=$((base_drift + 1))
      fi
    elif ! grep -q 'bench-baseline: none' "$src"; then
      echo "DRIFT: $src has neither ci/bench_baselines/BENCH_$name.json nor" \
           "an explicit 'bench-baseline: none' marker"
      base_drift=$((base_drift + 1))
    fi
  done
  for base in ci/bench_baselines/BENCH_*.json; do
    [ -f "$base" ] || continue
    name="$(basename "$base" .json)"
    name="${name#BENCH_}"
    if [ ! -f "bench/$name.cc" ]; then
      echo "DRIFT: $base has no matching bench/$name.cc (stale baseline)"
      base_drift=$((base_drift + 1))
    fi
  done
  if [ "$base_drift" -ne 0 ]; then
    echo "bench baseline drift guard FAILED ($base_drift problems)"
    exit 1
  fi
  echo "bench baselines OK (every bench gated or explicitly marked)"

  # ---- bench smoke: data-driven over every bench that supports --smoke.
  # A new bench advertises smoke support simply by handling the flag in
  # its source; a broken or unwired bench binary fails CI instead of
  # bitrotting in a hand-maintained list. Benches that additionally
  # advertise --json (the BenchJson helper in bench/bench_util.h) get a
  # BENCH_<name>.json snapshot persisted per run — the machine-readable
  # bench trajectory — and their deterministic gate_* keys are regression-
  # gated against the committed baseline in ci/bench_baselines/.
  echo "== bench smoke =="
  local smoked=0 gated=0
  local src name bin json baseline
  for src in bench/bench_*.cc; do
    name="$(basename "$src" .cc)"
    bin="$build_dir/$name"
    grep -q -- '--smoke' "$src" || continue
    if [ ! -x "$bin" ]; then
      echo "bench $name supports --smoke but was not built"
      exit 1
    fi
    if grep -q -- '--json' "$src"; then
      json="$build_dir/BENCH_$name.json"
      echo "-- $name --smoke --json $json"
      "$bin" --smoke --json "$json"
      baseline="ci/bench_baselines/BENCH_$name.json"
      if [ -f "$baseline" ]; then
        check_bench_snapshot "$name" "$baseline" "$json"
        gated=$((gated + 1))
      else
        echo "NOTE: no committed baseline at $baseline; snapshot not gated"
      fi
    else
      echo "-- $name --smoke"
      "$bin" --smoke
    fi
    smoked=$((smoked + 1))
  done
  if [ "$smoked" -eq 0 ]; then
    echo "bench smoke FAILED: no --smoke-capable bench found"
    exit 1
  fi
  # The tenant stress suite is a hard acceptance gate for the multi-tenant
  # front door: assert the data-driven discovery actually picked it up
  # (and snapshot-gated it), so a rename or a dropped --smoke flag cannot
  # silently retire it.
  if [ ! -f "$build_dir/BENCH_bench_e16_tenants.json" ]; then
    echo "bench smoke FAILED: bench_e16_tenants was not discovered/snapshotted"
    exit 1
  fi
  "$build_dir/bench_f3_endtoend" > /dev/null
  echo "bench smoke OK ($smoked benches, $gated snapshot-gated)"

  # ---- markdown link check: relative links in the docs must resolve, and
  # so must their #anchors — a fragment pointing at a markdown file must
  # match one of that file's heading slugs (md_anchors above implements
  # GitHub's slugification). Globs cover nested docs (docs/**/ and
  # examples/); zero files checked means the globs (or the repo layout)
  # broke and must fail, not silently pass — the `checked` guard below
  # enforces that.
  echo "== markdown link check =="
  shopt -s nullglob globstar
  local files=(README.md ROADMAP.md docs/**/*.md examples/**/*.md)
  shopt -u nullglob globstar
  local link_errors=0 checked=0 md dir link target anchor file
  for md in "${files[@]}"; do
    [ -f "$md" ] || continue
    checked=$((checked + 1))
    dir=$(dirname "$md")
    # Extract (target) parts of [text](target) links; keep repo-relative
    # paths only (skip URLs). A bare #anchor refers to this file.
    while IFS= read -r link; do
      target="${link%%#*}"           # path part (empty for pure #anchors)
      anchor=""
      case "$link" in
        *'#'*) anchor="${link#*#}"; anchor="${anchor%% *}" ;;
      esac
      target="${target%% *}"         # drop a 'title' after the path
      case "$target" in
        http://*|https://*|mailto:*) continue ;;
      esac
      if [ -z "$target" ]; then
        file="$md"
      elif [ -e "$dir/$target" ]; then
        file="$dir/$target"
      elif [ -e "$target" ]; then
        file="$target"
      else
        echo "BROKEN LINK in $md: $link"
        link_errors=$((link_errors + 1))
        continue
      fi
      if [ -n "$anchor" ]; then
        case "$file" in
          *.md)
            anchor=$(printf '%s' "$anchor" | tr '[:upper:]' '[:lower:]')
            if ! md_anchors "$file" | grep -qxF -- "$anchor"; then
              echo "BROKEN ANCHOR in $md: $link (no heading '#$anchor' in $file)"
              link_errors=$((link_errors + 1))
            fi
            ;;
        esac
      fi
    done < <(grep -oE '\]\([^)]+\)' "$md" | sed -E 's/^\]\(//; s/\)$//')
  done
  if [ "$checked" -eq 0 ]; then
    echo "markdown link check FAILED: no markdown files checked"
    exit 1
  fi
  if [ "$link_errors" -ne 0 ]; then
    echo "markdown link check FAILED ($link_errors broken)"
    exit 1
  fi
  echo "markdown links OK ($checked files)"
}

run_asan_stage() {
  # ---- ASAN/UBSAN: the execution layer moves borrowed row-group columns,
  # selection vectors, and cross-worker chunks around — shake out lifetime
  # and indexing bugs on the tests that drive it hardest.
  # tenant_test rides along: result-cache hits copy materialized chunks
  # across sessions and the cache leader publishes rows other threads
  # consume — lifetime bugs there are exactly ASAN's domain.
  # storage_test rides along: block decode walks untrusted encoded bytes
  # (checksum/truncation fixtures), the block cache hands shared_ptr chunks
  # to scans that outlive eviction, and compaction retires blocks while
  # readers may still pin them — all lifetime/bounds territory.
  # net_test rides along: the wire decoder walks untrusted frames (the
  # corruption/truncation fixtures flip every byte), and the socket
  # transport round-trips frames larger than kernel buffers through raw
  # read/write loops — exactly ASAN's bounds/lifetime domain. sharded_test
  # in turn drives the socket transport through whole-query exchanges.
  # cost_test rides along: the calibration updater walks a table of
  # member pointers into HardwareCalibration and clamps floating-point
  # steps — the indexing and arithmetic UBSan checks.
  # sql_test rides along: its mutation test feeds 20000 mutated statements
  # through the lexer, parser and binder — untrusted text, bounds territory.
  # live_columns_test rides along: it sends whole queries through socket
  # exchanges, so every trimmed schema crosses the wire v2 page decoder.
  # service_test and session_test ride along: their batch and handle tests
  # hand results and ledgers across admission threads.
  echo "== ASAN/UBSAN (exec + vectorized + sharded + elastic + tenant + storage + net + cost + sql + live_columns + service + session) =="
  local build_dir="${ASAN_BUILD_DIR:-build-asan}"
  cmake -B "$build_dir" -S . -DCOSTDB_ASAN=ON -DCMAKE_BUILD_TYPE=Debug \
    "${CMAKE_LAUNCHER_ARGS[@]}"
  cmake --build "$build_dir" -j "$JOBS" \
    --target exec_test vectorized_test sharded_test elastic_test \
    tenant_test storage_test net_test cost_test sql_test live_columns_test \
    service_test session_test
  local t
  for t in exec_test vectorized_test sharded_test elastic_test tenant_test \
           storage_test net_test cost_test sql_test live_columns_test \
           service_test session_test; do
    ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
      "$build_dir/$t"
  done
  echo "ASAN/UBSAN OK"
}

run_tsan_stage() {
  # ---- TSAN: the async service layer (admission queue, session ledgers,
  # query-handle completion) and the multi-worker sharded engine are the
  # concurrency hot spots; race them under ThreadSanitizer. Scoped to
  # those tests to keep CI time sane.
  # vectorized_test rides along for its engine tests: they run the same
  # plans at 1, 2, 4 and 8 threads over the process-wide morsel pool, each
  # morsel folding a private aggregate partial that merges after the
  # barrier.
  # tenant_test is required here by design: the concurrent-cancel ledger
  # property and the 16-way single-flight result-cache test only prove
  # anything under the race detector.
  # catalog_test rides along for the stats-knob race regressions
  # (StatsKnobsRaceServedStatsReads): the what-if planner flips error
  # factors and virtual scales while sessions read served stats, and the
  # locked rewrite is only proven under TSAN.
  # exec_test rides along for SharedEngineIsReentrant: eight threads run
  # different plans through one LocalEngine over the process-wide morsel
  # pool, which only proves the engine keeps no per-run state under TSAN.
  # storage_test rides along for the concurrent-session cold scans: runs
  # fetch ranges and admit columns into one block cache while another
  # session pins and evicts the same blocks.
  echo "== TSAN (exec + service + session + tenant + sharded + elastic + vectorized + catalog + storage) =="
  local build_dir="${TSAN_BUILD_DIR:-build-tsan}"
  cmake -B "$build_dir" -S . -DCOSTDB_TSAN=ON "${CMAKE_LAUNCHER_ARGS[@]}"
  cmake --build "$build_dir" -j "$JOBS" \
    --target exec_test service_test session_test tenant_test sharded_test \
    elastic_test vectorized_test catalog_test storage_test
  local t
  for t in exec_test service_test session_test tenant_test sharded_test \
           elastic_test vectorized_test catalog_test storage_test; do
    TSAN_OPTIONS="halt_on_error=1" "$build_dir/$t"
  done
  echo "TSAN OK"
}

case "$STAGE" in
  static) run_static_stage ;;
  build)  run_build_stage ;;
  asan)   run_asan_stage ;;
  tsan)   run_tsan_stage ;;
  all)
    run_static_stage
    run_build_stage
    run_asan_stage
    run_tsan_stage
    ;;
  *)
    echo "unknown STAGE '$STAGE' (expected all|static|build|asan|tsan)" >&2
    exit 2
    ;;
esac
